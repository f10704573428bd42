"""CLI dispatch, exit codes, and round-trip tests."""

import json

import pytest

from sailkit import cli
from sailkit.cli import run
from sailkit.graphs import wall


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_word_at(capsys):
    code, out = invoke(capsys, "word", "--family", "kappa:3", "--at", "45")
    assert code == 0 and out.strip() == "6"


def test_word_prefix(capsys):
    code, out = invoke(capsys, "word", "--family", "nu", "--prefix", "9")
    assert code == 0 and out.strip() == "1 2 1 2 3 1 2 3 4"


def test_word_zeckendorf(capsys):
    code, out = invoke(capsys, "word", "--family", "eta", "--zeckendorf", "45")
    assert code == 0 and out.strip() == "9 6 4"


def test_word_nested_violation_exits_one(capsys):
    code, out = invoke(capsys, "word", "--family", "periodic:1,2,4,3",
                       "--prefix", "12", "--nested", "--max-letter", "4")
    assert code == 1
    report = json.loads(out)
    assert report["violation"]["interval"] == [2, 3]


def test_word_intervals(capsys):
    code, out = invoke(capsys, "word", "--family", "nu", "--intervals", "1-4",
                       "--bound", "50")
    assert code == 0
    assert json.loads(out) == [[1, 1], [2, 3], [4, 6], [7, 10]]


def test_graph_wall_json(capsys):
    code, out = invoke(capsys, "graph", "wall", "--rows", "4", "--cols", "4",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["vertices"]) == 32


def test_graph_round_trip(tmp_path, capsys):
    code, out = invoke(capsys, "graph", "path-star", "--family", "kappa:2",
                       "--positions", "1-8", "--stars", "1-2", "--format", "json")
    assert code == 0
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out2 = invoke(capsys, "graph", "girth", "--graph", str(path))
    assert code == 0 and out2.strip() == "4"


def test_graph_dot(capsys):
    code, out = invoke(capsys, "graph", "wall", "--rows", "2", "--cols", "2",
                       "--format", "dot")
    assert code == 0 and out.startswith("graph {")


def test_determinism(capsys):
    args = ("graph", "path-star", "--family", "eta", "--prefix", "20",
            "--stars", "1-5", "--format", "json")
    _, first = invoke(capsys, *args)
    _, second = invoke(capsys, *args)
    assert first == second


def test_sail_build_and_find(tmp_path, capsys):
    code, out = invoke(capsys, "sail", "build", "--family", "nu",
                       "--letters", "1-4", "--bound", "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["intervals"] == [[1, 1], [2, 3], [4, 6], [7, 10]]

    gpath = tmp_path / "g.json"
    wpath = tmp_path / "w.json"
    gpath.write_text(json.dumps(doc["graph"]))
    wpath.write_text(json.dumps(doc["witness"]))

    code, out = invoke(capsys, "graph", "check-witness", "--graph", str(gpath),
                       "--witness", str(wpath))
    assert code == 0 and json.loads(out)["ok"]

    code, out = invoke(capsys, "sail", "minor", "--graph", str(gpath),
                       "--witness", str(wpath))
    assert code == 0
    mpath = tmp_path / "m.json"
    mpath.write_text(out)
    code, out = invoke(capsys, "sail", "check-minor", "--graph", str(gpath),
                       "--model", str(mpath))
    assert code == 0 and json.loads(out)["ok"]

    code, out = invoke(capsys, "sail", "find", "--graph", str(gpath), "--t", "3")
    assert code == 0 and json.loads(out)["found"]


def test_sail_surgery(capsys):
    code, out = invoke(capsys, "sail", "surgery", "--family", "eta",
                       "--letters", "1-12", "--bound", "5000", "--m", "4")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["witness"]["stars"]) >= 4


def test_decomp_build_and_validate(tmp_path, capsys):
    code, out = invoke(capsys, "decomp", "build", "--family", "eta",
                       "--prefix", "33", "--stars", "1-7", "--t", "2",
                       "--format", "json")
    assert code == 0
    tdpath = tmp_path / "td.json"
    tdpath.write_text(out)

    code, gout = invoke(capsys, "graph", "path-star", "--family", "eta",
                        "--prefix", "33", "--stars", "1-7", "--format", "json")
    gpath = tmp_path / "g.json"
    gpath.write_text(gout)

    code, out = invoke(capsys, "decomp", "validate", "--graph", str(gpath),
                       "--td", str(tdpath))
    assert code == 0 and json.loads(out)["ok"]

    code, out = invoke(capsys, "decomp", "width", "--td", str(tdpath))
    assert code == 0 and int(out.strip()) <= 8


def test_decomp_obstruction_exit_code(capsys):
    code, _ = invoke(capsys, "decomp", "build", "--family", "kappa:2",
                     "--prefix", "16", "--stars", "1-5", "--t", "2")
    assert code == 1


def test_tw(tmp_path, capsys):
    gpath = tmp_path / "w.json"
    gpath.write_text(wall(2, 2).to_json())
    code, out = invoke(capsys, "tw", "--graph", str(gpath))
    assert code == 0 and out.strip() == "2"
    code, out = invoke(capsys, "tw", "--graph", str(gpath), "--heuristic")
    assert code == 0 and int(out.strip()) >= 2


def test_tw_cap_exit_code(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    code, out = invoke(capsys, "graph", "path-star", "--family", "nu",
                       "--prefix", "40", "--stars", "1-3", "--format", "json")
    gpath.write_text(out)
    code, _ = invoke(capsys, "tw", "--graph", str(gpath))
    assert code == 3


def test_obstruct_kkw(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    code, out = invoke(capsys, "graph", "path-star", "--family", "kappa:2",
                       "--positions", "1-14", "--stars", "1-3",
                       "--format", "json")
    gpath.write_text(out)
    code, out = invoke(capsys, "obstruct", "kkw", "--graph", str(gpath))
    assert code == 0
    assert set(json.loads(out).values()) == {"absent"}


def test_obstruct_wall_surgery_and_separator(capsys):
    code, out = invoke(capsys, "obstruct", "wall-surgery", "--k", "2",
                       "--t", "2", "--format", "json")
    assert code == 0
    code, out = invoke(capsys, "obstruct", "separator", "--family", "nu",
                       "--prefix", "60", "--stars", "1-4",
                       "--i", "2", "--j", "3", "--k", "4")
    assert code == 0 and json.loads(out)["separates"]


def test_experiment_csv(capsys):
    code, out = invoke(capsys, "experiment", "bounds", "--family", "eta",
                       "--t", "2", "--prefix", "33", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,q,t,positions,stars")
    import csv as csvmod
    row = next(csvmod.DictReader(lines))
    assert row["family"] == "eta"
    assert int(row["builder_width"]) <= int(row["theorem_bound"])
    assert int(row["sail_order_found"]) - 1 <= int(row["builder_width"])


def test_experiment_chain_with_exact(capsys):
    code, out = invoke(capsys, "experiment", "bounds", "--family", "kappa:2",
                       "--t", "2", "--prefix", "12", "--stars", "1-3",
                       "--format", "csv")
    assert code == 0
    import csv as csvmod
    row = next(csvmod.DictReader(out.strip().splitlines()))
    assert row["exact_tw"] != ""
    order = int(row["sail_order_found"])
    exact = int(row["exact_tw"])
    bw = int(row["builder_width"])
    assert order - 1 <= exact <= bw <= int(row["theorem_bound"])


def test_unknown_flag_exits_two(capsys):
    assert run(["word", "--no-such-flag"]) == 2


def test_bad_input_exits_two(capsys):
    assert run(["word", "--family", "nu"]) == 2
    assert run(["word", "--family", "kappa", "--at", "5"]) == 2


def test_out_file(tmp_path, capsys):
    path = tmp_path / "out.txt"
    code = run(["word", "--family", "nu", "--at", "14", "--out", str(path)])
    assert code == 0
    assert path.read_text().strip() == "5"


@pytest.mark.parametrize("argv, flag", [
    (["graph", "wall"], "--rows"),
    (["graph", "path-star", "--family", "nu", "--prefix", "5"], "--stars"),
    (["graph", "path-star", "--prefix", "5", "--stars", "1-2"], "--family"),
    (["decomp", "build", "--family", "nu", "--prefix", "20", "--stars", "1-3"], "--t"),
    (["obstruct", "wall-surgery", "--k", "2"], "--t"),
    (["graph", "line-graph"], "--graph"),
    (["graph", "girth"], "--graph"),
    (["sail", "find", "--t", "2"], "--graph"),
    (["sail", "minor"], "--graph"),
    (["sail", "check-minor"], "--graph"),
    (["obstruct", "kkw"], "--graph"),
    (["obstruct", "subdivision"], "--graph"),
    (["decomp", "validate", "--graph", "g.json"], "--td"),
    (["decomp", "width"], "--td"),
    (["sail", "build", "--letters", "1-2"], "--family"),
    (["sail", "build", "--family", "nu"], "--letters"),
    (["sail", "surgery", "--letters", "1-2", "--m", "4"], "--family"),
    (["sail", "surgery", "--family", "nu", "--m", "4"], "--letters"),
    (["sail", "surgery", "--family", "nu", "--letters", "1-2"], "--m"),
    (["graph", "canonical-sail"], "--t"),
    (["obstruct", "separator", "--prefix", "20", "--stars", "1-3",
      "--i", "1", "--j", "2", "--k", "3"], "--family"),
    (["obstruct", "separator", "--family", "nu", "--stars", "1-3",
      "--i", "1", "--j", "2", "--k", "3"], "--prefix"),
    (["obstruct", "separator", "--family", "nu", "--prefix", "20",
      "--i", "1", "--j", "2", "--k", "3"], "--stars"),
    (["obstruct", "separator", "--family", "nu", "--prefix", "20", "--stars", "1-3",
      "--j", "2", "--k", "3"], "--i"),
    (["obstruct", "separator", "--family", "nu", "--prefix", "20", "--stars", "1-3",
      "--i", "1", "--k", "3"], "--j"),
    (["obstruct", "separator", "--family", "nu", "--prefix", "20", "--stars", "1-3",
      "--i", "1", "--j", "2"], "--k"),
])
def test_missing_required_flag_exits_two(capsys, argv, flag):
    assert run(argv) == 2
    assert f"{flag} is required" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["word", "--family", "nu", "--at", "3", "--seed", "1"],
    ["decomp", "width", "--td", "td.json", "--q", "2"],
    ["obstruct", "kkw", "--graph", "g.json", "--m", "4"],
])
def test_removed_flags_exit_two(capsys, argv):
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag, text, field", [
    ("--graph", '{"vertices": [{"id": 1}], "edges": []}', "graph.vertices[0]: missing field 'tag'"),
    ("--graph", "[1, 2]", "graph: expected a JSON object, got list"),
    ("--graph", '{"vertices": [{"id": 1, "tag": {"kind": "plain"}},'
                ' {"id": "a", "tag": {"kind": "plain"}}], "edges": []}',
     "graph.vertices[1].id: expected int, got str"),
    ("--graph", '{"vertices": [{"id": 1, "tag": {"kind": "plain"}},'
                ' {"id": 1, "tag": {"kind": "plain"}}], "edges": []}',
     "graph.vertices[1].id: duplicate id 1"),
    ("--td", '{"edges": []}', "decomposition: missing field 'nodes'"),
    ("--td", '{"nodes": [{"id": 0, "bag": [0]}, {"id": 0, "bag": [1]}], "edges": []}',
     "decomposition.nodes[1].id: duplicate id 0"),
    ("--td", "[]", "decomposition: expected a JSON object, got list"),
    ("--witness", '{"paths": [[1]]}', "witness: missing field 'stars'"),
    ("--model", '{"branchSets": [[1], "x"]}', "model.branchSets[1]: expected a list of integers"),
])
def test_malformed_file_exits_two(tmp_path, capsys, flag, text, field):
    graph = tmp_path / "g.json"
    graph.write_text(wall(1, 1).to_json())
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = {
        "--graph": ["graph", "girth", "--graph", str(bad)],
        "--td": ["decomp", "width", "--td", str(bad)],
        "--witness": ["graph", "check-witness", "--graph", str(graph), "--witness", str(bad)],
        "--model": ["sail", "check-minor", "--graph", str(graph), "--model", str(bad)],
    }[flag]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {field}\n"


def test_unexpected_exception_exits_four(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "word", broken)
    assert run(["word", "--family", "nu", "--at", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: boom\n" and captured.out == ""

