"""Command-line front end.

Subcommands: word, graph, sail, decomp, tw, obstruct, experiment.
Exit codes: 0 success, 1 validation or obstruction failure, 2 bad input,
3 cap exceeded, 4 internal error.  Identical argv and inputs produce
identical output, except for the elapsed-milliseconds column of experiment
rows.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time

from . import decomposition as dc
from . import graphs as gr
from . import obstructions as ob
from . import sails as sl
from . import words as wd
from .errors import CapExceededError, ObstructionError


def _positions(text):
    """Parse 1-based position ranges like '3-5,9-10' into a sorted list."""
    out = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = part.split("-", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"bad range {part!r}")
            out.update(range(lo, hi + 1))
        else:
            out.add(int(part))
    return sorted(out)


def _need(value, flag):
    """`value`, or a ValueError naming the missing required flag."""
    if value is None:
        raise ValueError(f"{flag} is required")
    return value


def _cap(args, default):
    if getattr(args, "cap", None) is not None:
        return args.cap
    env = os.environ.get("SAILKIT_CAP")
    if env:
        return int(env)
    return default


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_graph(path, flag="--graph"):
    with open(_need(path, flag)) as fh:
        return gr.LabeledGraph.from_json(fh.read())


def _emit_graph(args, g):
    fmt = getattr(args, "format", "text") or "text"
    if fmt == "dot":
        _emit(args, g.to_dot())
    elif fmt == "json":
        _emit(args, g.to_json())
    else:
        _emit(args, f"graph with {g.n} vertices, {g.m} edges")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_word(args):
    spec = wd.InfiniteWordSpec.from_token(args.family)
    if args.at is not None:
        _emit(args, str(spec.letter_at(args.at)))
    elif args.zeckendorf is not None:
        rep = wd.zeckendorf(args.zeckendorf)
        _emit(args, " ".join(str(i) for i in rep.indices))
    elif args.nested:
        word = wd.prefix(spec, args.prefix or 2000, cap=_cap(args, wd.DEFAULT_LETTER_CAP))
        report = wd.is_nested(word, args.max_letter)
        _emit(args, _json(report.to_obj()))
        return 0 if report.nested else 1
    elif args.intervals:
        letters = _positions(args.intervals)
        ivs = wd.find_increasing_intervals(spec, letters, args.bound)
        _emit(args, _json([list(iv) for iv in ivs]))
    elif args.iterate is not None:
        if spec.family == wd.POWER:
            word = wd.power_iterate(spec.q, args.iterate, cap=_cap(args, wd.DEFAULT_LETTER_CAP))
        elif spec.family == wd.FIBONACCI:
            word = wd.fibonacci_iterate(args.iterate, cap=_cap(args, wd.DEFAULT_LETTER_CAP))
        else:
            raise ValueError("--iterate needs the kappa or eta family")
        _emit(args, str(word))
    elif args.prefix is not None:
        word = wd.prefix(spec, args.prefix, cap=_cap(args, wd.DEFAULT_LETTER_CAP))
        _emit(args, str(word))
    else:
        raise ValueError("word needs one of --at, --prefix, --iterate, --nested,"
                         " --zeckendorf, --intervals")
    return 0


def _build_family_graph(args):
    spec = wd.InfiniteWordSpec.from_token(_need(args.family, "--family"))
    if args.positions:
        positions = _positions(args.positions)
    elif args.prefix:
        positions = range(1, args.prefix + 1)
    else:
        raise ValueError("need --positions or --prefix")
    stars = _positions(_need(args.stars, "--stars"))
    return gr.path_star_graph(spec, positions, stars,
                              cap=_cap(args, gr.DEFAULT_POSITION_CAP))


def _cmd_graph(args):
    if args.kind == "wall":
        rows, cols = _need(args.rows, "--rows"), _need(args.cols, "--cols")
        _emit_graph(args, gr.wall(rows, cols))
    elif args.kind == "path-star":
        _emit_graph(args, _build_family_graph(args))
    elif args.kind == "canonical-sail":
        g, w = gr.canonical_sail(_need(args.t, "--t"))
        if (args.format or "text") == "json":
            _emit(args, _json({"graph": g.to_obj(), "witness": w.to_obj()}))
        else:
            _emit_graph(args, g)
    elif args.kind == "line-graph":
        _emit_graph(args, gr.line_graph(_load_graph(args.graph)))
    elif args.kind == "subdivide":
        g = _load_graph(args.graph)
        plan = {}
        for item in _need(args.edges, "--edges").split(","):
            edge, count = item.split(":")
            u, v = edge.split("-")
            plan[(int(u), int(v))] = int(count)
        _emit_graph(args, gr.subdivide(g, plan))
    elif args.kind == "induced":
        g = _load_graph(args.graph)
        _emit_graph(args, g.induced(_positions(_need(args.vertices, "--vertices"))))
    elif args.kind == "girth":
        g = _load_graph(args.graph)
        value = gr.girth(g)
        _emit(args, "acyclic" if value is None else str(value))
    elif args.kind == "check-witness":
        g = _load_graph(args.graph)
        with open(_need(args.witness, "--witness")) as fh:
            w = gr.SailWitness.from_obj(json.load(fh))
        res = gr.is_t_sail_witness(g, w)
        _emit(args, _json({"ok": res.ok, "problems": list(res.problems)}))
        return 0 if res.ok else 1
    return 0


def _interval_sail(args):
    """The sail built from the increasing intervals of --family on --letters."""
    spec = wd.InfiniteWordSpec.from_token(_need(args.family, "--family"))
    letters = _positions(_need(args.letters, "--letters"))
    intervals = wd.find_increasing_intervals(spec, letters, args.bound)
    g, w = sl.build_sail_from_intervals(spec, intervals, letters)
    return g, w, intervals


def _cmd_sail(args):
    if args.kind == "build":
        g, w, intervals = _interval_sail(args)
        _emit(args, _json({"graph": g.to_obj(), "witness": w.to_obj(),
                           "intervals": [list(iv) for iv in intervals]}))
    elif args.kind == "find":
        g = _load_graph(args.graph)
        t = _need(args.t, "--t")
        w = sl.find_sail_witness(g, t, cap=_cap(args, sl.FIND_SAIL_CAP))
        if w is None:
            _emit(args, _json({"found": False}))
            return 1
        _emit(args, _json({"found": True, "witness": w.to_obj()}))
    elif args.kind == "minor":
        g = _load_graph(args.graph)
        with open(_need(args.witness, "--witness")) as fh:
            w = gr.SailWitness.from_obj(json.load(fh))
        model = sl.clique_minor_model(g, w)
        _emit(args, _json(model.to_obj()))
    elif args.kind == "check-minor":
        g = _load_graph(args.graph)
        with open(_need(args.model, "--model")) as fh:
            model = sl.MinorModel.from_obj(json.load(fh))
        res = sl.validate_minor_model(g, model)
        _emit(args, _json({"ok": res.ok, "problems": list(res.problems)}))
        return 0 if res.ok else 1
    elif args.kind == "surgery":
        m = _need(args.m, "--m")
        g, w, _ = _interval_sail(args)
        g2, w2 = sl.sail_girth_surgery(g, w, m)
        _emit(args, _json({"graph": g2.to_obj(), "witness": w2.to_obj()}))
    return 0


def _cmd_decomp(args):
    if args.kind == "build":
        t = _need(args.t, "--t")
        td, _ = _build_decomposition(_build_family_graph(args), t)
        if (args.format or "text") == "json":
            _emit(args, td.to_json())
        else:
            _emit(args, f"width {dc.width(td)} with {td.n_nodes} bags")
    elif args.kind == "validate":
        td_path = _need(args.td, "--td")
        g = _load_graph(args.graph)
        with open(td_path) as fh:
            td = dc.TreeDecomposition.from_json(fh.read())
        res = dc.validate_decomposition(g, td)
        _emit(args, _json({"ok": res.ok, "problems": list(res.problems)}))
        return 0 if res.ok else 1
    elif args.kind == "width":
        with open(_need(args.td, "--td")) as fh:
            td = dc.TreeDecomposition.from_json(fh.read())
        _emit(args, str(dc.width(td)))
    return 0


def _cmd_tw(args):
    g = _load_graph(args.graph)
    if args.heuristic:
        value, td = dc.heuristic_treewidth_upper(g)
        if (args.format or "text") == "json":
            _emit(args, _json({"upperBound": value, "decomposition": td.to_obj()}))
        else:
            _emit(args, str(value))
    else:
        _emit(args, str(dc.exact_treewidth(g, cap=_cap(args, dc.EXACT_TW_CAP))))
    return 0


def _cmd_obstruct(args):
    if args.kind == "kkw":
        g = _load_graph(args.graph)
        report = ob.kkw_scan(g, host_cap=_cap(args, ob.HOST_CAP))
        _emit(args, _json(report))
    elif args.kind == "wall-surgery":
        g = ob.wall_surgery(_need(args.k, "--k"), _need(args.t, "--t"),
                            cap=_cap(args, ob.WALL_SURGERY_CAP))
        _emit_graph(args, g)
    elif args.kind == "subdivision":
        host = _load_graph(args.graph)
        pattern = _load_graph(args.pattern, "--pattern")
        emb = ob.contains_subdivision(host, pattern,
                                      host_cap=_cap(args, ob.HOST_CAP),
                                      pattern_cap=max(ob.PATTERN_CAP, pattern.n))
        if emb is None:
            _emit(args, _json({"present": False}))
            return 1
        _emit(args, _json({"present": True, "embedding": emb.to_obj()}))
    elif args.kind == "separator":
        spec = wd.InfiniteWordSpec.from_token(_need(args.family, "--family"))
        positions = (_positions(args.positions) if args.positions
                     else range(1, _need(args.prefix, "--positions or --prefix") + 1))
        ok = ob.separator_check(spec, positions, _positions(_need(args.stars, "--stars")),
                                _need(args.i, "--i"), _need(args.j, "--j"),
                                _need(args.k, "--k"))
        _emit(args, _json({"separates": ok}))
        return 0 if ok else 1
    return 0


def _build_decomposition(g, t):
    """The family's decomposition of g and the width bound it advertises."""
    spec = g.origin
    if spec.family == wd.ARITHMETIC:
        return dc.build_arithmetic(g, t), t * t + 2 * t - 1
    if spec.family == wd.POWER:
        return dc.build_power(g, spec.q, t), (t + 1) * (spec.q - 1) + 2
    if spec.family == wd.FIBONACCI:
        return dc.build_fibonacci(g, t), t + 6
    raise ValueError("decompositions need the nu, kappa, or eta family")


EXPERIMENT_COLUMNS = ["family", "q", "t", "positions", "stars", "n_vertices",
                      "sail_order_found", "exact_tw", "builder_width",
                      "theorem_bound", "elapsed_ms"]


def _experiment_row(spec, prefix_len, star_letters, t, tw_cap):
    started = time.perf_counter()
    g = gr.path_star_graph(spec, range(1, prefix_len + 1), star_letters)

    sail_order = 0
    for order in range(1, t + 1):
        if order > len(star_letters):
            break
        try:
            intervals = wd.find_increasing_intervals(
                spec, star_letters[:order], prefix_len)
            _, w = sl.build_sail_from_intervals(spec, intervals, star_letters[:order])
        except (CapExceededError, sl.SailConstructionError):
            break
        sail_order = order

    exact = ""
    if g.n <= tw_cap:
        exact = dc.exact_treewidth(g, cap=tw_cap)

    bound = ""
    try:
        td, bound = _build_decomposition(g, t)
        builder_width = dc.width(td)
    except ObstructionError:
        builder_width = "obstruction"

    elapsed = int((time.perf_counter() - started) * 1000)
    return {
        "family": spec.token().split(":")[0],
        "q": spec.q if spec.q is not None else "",
        "t": t,
        "positions": f"1-{prefix_len}",
        "stars": ",".join(str(x) for x in star_letters),
        "n_vertices": g.n,
        "sail_order_found": sail_order,
        "exact_tw": exact,
        "builder_width": builder_width,
        "theorem_bound": bound,
        "elapsed_ms": elapsed,
    }


def _cmd_experiment(args):
    spec = wd.InfiniteWordSpec.from_token(args.family)
    prefixes = [int(x) for x in str(args.prefix).split(",")]
    rows = []
    for prefix_len in prefixes:
        if args.stars:
            stars = _positions(args.stars)
        else:
            word = wd.prefix(spec, prefix_len)
            stars = sorted(set(word.letters))
        rows.append(_experiment_row(spec, prefix_len, stars, args.t,
                                    _cap(args, dc.EXACT_TW_CAP)))
    fmt = args.format or "csv"
    if fmt == "json":
        _emit(args, _json(rows))
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(EXPERIMENT_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in EXPERIMENT_COLUMNS])
        _emit(args, buf.getvalue().rstrip("\n"))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--format", choices=["json", "dot", "csv", "text"])
    sub.add_argument("--out")
    sub.add_argument("--cap", type=int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sailkit",
        description="Path-star graphs, sail obstructions, and tree decompositions.")
    subs = parser.add_subparsers(dest="command", required=True)

    word = subs.add_parser("word", help="word family queries")
    word.add_argument("--family", required=True)
    word.add_argument("--at", type=int)
    word.add_argument("--prefix", type=int)
    word.add_argument("--iterate", type=int)
    word.add_argument("--nested", action="store_true")
    word.add_argument("--max-letter", type=int, default=8)
    word.add_argument("--zeckendorf", type=int)
    word.add_argument("--intervals", help="letters, e.g. 1-4")
    word.add_argument("--bound", type=int, default=2000)
    _add_common(word)

    graph = subs.add_parser("graph", help="graph generators and queries")
    graph.add_argument("kind", choices=["wall", "path-star", "canonical-sail",
                                        "line-graph", "subdivide", "induced",
                                        "girth", "check-witness"])
    graph.add_argument("--rows", type=int)
    graph.add_argument("--cols", type=int)
    graph.add_argument("--family")
    graph.add_argument("--positions")
    graph.add_argument("--prefix", type=int)
    graph.add_argument("--stars")
    graph.add_argument("--t", type=int)
    graph.add_argument("--graph")
    graph.add_argument("--witness")
    graph.add_argument("--edges", help="subdivision plan, e.g. 1-2:1,3-4:2")
    graph.add_argument("--vertices")
    _add_common(graph)

    sail = subs.add_parser("sail", help="sail discovery and surgery")
    sail.add_argument("kind", choices=["build", "find", "minor", "check-minor",
                                       "surgery"])
    sail.add_argument("--family")
    sail.add_argument("--letters")
    sail.add_argument("--bound", type=int, default=5000)
    sail.add_argument("--graph")
    sail.add_argument("--witness")
    sail.add_argument("--model")
    sail.add_argument("--t", type=int)
    sail.add_argument("--m", type=int)
    _add_common(sail)

    decomp = subs.add_parser("decomp", help="tree decompositions")
    decomp.add_argument("kind", choices=["build", "validate", "width"])
    decomp.add_argument("--family")
    decomp.add_argument("--positions")
    decomp.add_argument("--prefix", type=int)
    decomp.add_argument("--stars")
    decomp.add_argument("--t", type=int)
    decomp.add_argument("--graph")
    decomp.add_argument("--td")
    _add_common(decomp)

    tw = subs.add_parser("tw", help="tree-width oracles")
    tw.add_argument("--graph", required=True)
    tw.add_argument("--heuristic", action="store_true")
    _add_common(tw)

    obstruct = subs.add_parser("obstruct", help="obstruction checks")
    obstruct.add_argument("kind", choices=["kkw", "wall-surgery", "subdivision",
                                           "separator"])
    obstruct.add_argument("--graph")
    obstruct.add_argument("--pattern")
    obstruct.add_argument("--k", type=int)
    obstruct.add_argument("--t", type=int)
    obstruct.add_argument("--family")
    obstruct.add_argument("--positions")
    obstruct.add_argument("--prefix", type=int)
    obstruct.add_argument("--stars")
    obstruct.add_argument("--i", type=int)
    obstruct.add_argument("--j", type=int)
    _add_common(obstruct)

    experiment = subs.add_parser("experiment", help="bound experiments")
    experiment.add_argument("kind", choices=["bounds"])
    experiment.add_argument("--family", required=True)
    experiment.add_argument("--t", type=int, required=True)
    experiment.add_argument("--prefix", required=True,
                            help="prefix length or comma list")
    experiment.add_argument("--stars")
    _add_common(experiment)

    return parser


_HANDLERS = {
    "word": _cmd_word,
    "graph": _cmd_graph,
    "sail": _cmd_sail,
    "decomp": _cmd_decomp,
    "tw": _cmd_tw,
    "obstruct": _cmd_obstruct,
    "experiment": _cmd_experiment,
}


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser, built on first use and kept for the process."""
    return build_parser()


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ObstructionError as exc:
        print(f"obstruction: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input: never exit 1 for it
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
