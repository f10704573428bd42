"""Tests of the benchmark itself: python3 -m pytest -q perfbench/selftest.py"""

import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, inputs, run, tracing  # noqa: E402


def test_inputs_are_deterministic_per_seed():
    for workload in inputs.WORKLOADS:
        first = inputs.generate(workload, 7)
        assert inputs.generate(workload, 7) == first
        assert inputs.fingerprint(*first) == inputs.fingerprint(*inputs.generate(workload, 7))
        assert inputs.fingerprint(*first) != inputs.fingerprint(*inputs.generate(workload, 8))


def test_setup_writes_what_it_fingerprints(tmp_path):
    digest = inputs.setup("kkw", 3, str(tmp_path))
    queries, files = inputs.generate("kkw", 3)
    assert digest == inputs.fingerprint(queries, files)
    assert (tmp_path / "f0000.json").read_text() == files["f0000.json"]


def test_tw_windows_are_drawn_by_bounds_gap():
    cycle = inputs.plain_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    adjacency = lambda g: {v: {u for e in g.edges if v in e for u in e if u != v} for v in g.tags}  # noqa: E731
    assert inputs.minor_min_width(adjacency(cycle)) == 2
    assert inputs.minor_min_width(adjacency(inputs.complete(5))) == 4
    rng = random.Random(1)
    assert inputs.width_gap(inputs.tw_window("kappa:2", 19, True, rng)) > 0
    assert inputs.width_gap(inputs.tw_window("kappa:2", 19, False, rng)) == 0


def span(sid, parent, start, end, name="m.f"):
    return (0, sid, parent, name, start, end, None, None)


def test_self_time_subtracts_nested_children():
    spans = [span(2, 1, 2.0, 3.0), span(1, 0, 1.0, 4.0), span(3, 0, 5.0, 7.0),
             span(0, None, 0.0, 10.0)]
    assert tracing.self_times(spans) == [1.0, 2.0, 2.0, 5.0]


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 5.0), span(2, 0, 4.0, 12.0)]
    assert tracing.self_times(spans)[0] == 1.0


def test_tracer_records_parent_links_and_self_time():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("words.prefix", lambda spec, length: None)
    outer = tracer.wrap("cli.run", lambda: inner(None, 5))
    outer()
    (child, parent) = tracer.spans
    assert child[2] == parent[1] and parent[2] is None
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["words.prefix.self_s"] == (1.0, "s")
    assert metrics["words.prefix.letters"] == (5, "count")
    assert metrics["cli.run.self_s"] == (2.0, "s")


def test_tracer_wraps_rebound_and_internal_calls(tmp_path):
    from sailkit import cli, obstructions
    graph = tmp_path / "g.json"
    graph.write_text(inputs.complete(5).to_json())
    original = obstructions.contains_subdivision
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, out, _, error = run.execute(cli.run, ["obstruct", "kkw", "--graph", str(graph)], 30)
    finally:
        tracer.uninstall()
    assert obstructions.contains_subdivision is original
    assert code == 0 and error is None and json.loads(out)["K5"] == "present"
    names = {s[1]: s[3] for s in tracer.spans}
    subdivision = [s for s in tracer.spans if s[3] == "obstructions.contains_subdivision"]
    assert len(subdivision) == 4
    assert all(names[s[2]] == "obstructions.kkw_scan" for s in subdivision)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["obstructions.decided_ratio"] == (1.0, "ratio")


def query(argv, **expect):
    return {"id": 0, "cls": "test", "argv": argv, "expect": expect}


def test_checker_flags_wrong_answers():
    cycle = json.loads(inputs.plain_graph(5, [(i, (i + 1) % 5) for i in range(5)]).to_json())
    exact = query(["tw", "--graph", "g"])
    ref = checks.reference(exact, cycle)
    assert checks.check(exact, 0, "2\n", cycle, ref) is None
    assert checks.check(exact, 0, "1\n", cycle, ref)

    heuristic = query(["tw", "--graph", "g", "--heuristic", "--format", "json"])
    td = {"nodes": [{"id": 0, "bag": [0, 1, 2]}, {"id": 1, "bag": [0, 2, 3]},
                    {"id": 2, "bag": [0, 3, 4]}], "edges": [[0, 1], [1, 2]]}
    good = json.dumps({"upperBound": 2, "decomposition": td})
    assert checks.check(heuristic, 0, good, cycle) is None
    assert checks.check(heuristic, 0, good.replace('"upperBound": 2', '"upperBound": 1'), cycle)
    td["nodes"][2]["bag"] = [3, 4]
    assert "edge (0, 4)" in checks.check(heuristic, 0, json.dumps({"upperBound": 2, "decomposition": td}), cycle)

    kkw = query(["obstruct", "kkw", "--graph", "g"], present=[])
    ref = checks.reference(kkw, cycle)
    report = {"K5": "absent", "K44": "absent", "W4x4": "absent", "LW4x4": "absent"}
    assert checks.check(kkw, 0, json.dumps(report), cycle, ref) is None
    assert "planar" in checks.check(kkw, 0, json.dumps(dict(report, K5="present")), cycle, ref)
    kkw["expect"]["present"] = ["W4x4"]
    assert "built to contain" in checks.check(kkw, 0, json.dumps(report), cycle, ref)

    exp = query(["experiment"], family="kappa:2", t=3, prefix=100, stars=[1, 2])
    header = ",".join(checks.EXPERIMENT_COLUMNS)
    assert checks.check(exp, 0, f"{header}\nkappa,2,3,1-100,\"1,2\",102,3,,2,6,5") is None
    assert "builder width 1" in checks.check(exp, 0, f"{header}\nkappa,2,3,1-100,\"1,2\",102,3,,1,6,5")

    validate = query(["decomp", "validate"], exit=1)
    assert checks.check(validate, 1, '{"ok":false,"problems":["x"]}') is None
    assert checks.check(validate, 0, '{"ok":true,"problems":[]}')


class FakeWorkload:
    def prepare(self, query):
        return None, None

    def argv(self, query):
        return query["argv"]


def spin(argv):
    while True:
        time.sleep(0.001)


def test_query_past_deadline_fails_and_is_timed_at_deadline():
    code, out, latency, error = run.execute(spin, [], 0.05)
    assert (code, error, latency) == (None, "deadline", 0.05)
    latency, failure, wrong = run.attempt(FakeWorkload(), spin, query([]), deadline=0.05)
    assert (latency, failure, wrong) == (0.05, "deadline", False)


def test_cap_in_output_counts_as_failed():
    report = lambda argv: print('{"K5":"cap"}') or 0  # noqa: E731
    latency, failure, wrong = run.attempt(FakeWorkload(), report, query(["obstruct"]), deadline=5)
    assert failure == "cap in output" and not wrong
