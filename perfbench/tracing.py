"""Span tracing of sailkit's public functions, installed from outside.

`Tracer.install()` replaces every public function of the sailkit modules,
and a few heavy public methods, with a wrapper that records a span.  The
wrapper is bound under every name the function has in any sailkit module,
so calls through `from .x import y` rebindings and calls made inside the
defining module (such as `kkw_scan` -> `contains_subdivision`) are traced
too.  Spans are kept in memory and turned into per-layer metrics when the
run ends; `uninstall()` restores the original functions.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("words", "graphs", "sails", "decomposition", "obstructions", "cli")
METHODS = {
    "graphs": {"LabeledGraph": ("from_json", "to_json", "induced")},
    "decomposition": {"TreeDecomposition": ("from_json", "to_json")},
}
# Per-letter and per-vertex helpers run up to a million times in one query;
# a span each would cost more than the work they do.
# `build_parser` is left inside `cli.run`, whose self time covers argv handling.
UNTRACED = {"arithmetic_letter", "power_letter", "fibonacci_letter", "zeckendorf",
            "path_tag", "star_tag", "wall_vertex_id", "build_parser"}
BUILDERS = ("build_arithmetic", "build_power", "build_fibonacci")


def _work(name, args, kwargs, result):
    """The work count a span carries, measured at the layer boundary."""
    if name == "words.prefix":
        return args[1] if len(args) > 1 else kwargs["length"]
    if name == "graphs.path_star_graph":
        return result.n + result.m
    if name.split(".")[-1] in BUILDERS:
        return result.n_nodes
    if name == "decomposition.validate_decomposition":
        g, td = args
        return td.n_nodes * g.m
    return None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []      # (query, span id, parent id, name, start, end, work, error)
        self.stack = []
        self.query = None
        self._saved = []     # (owner, attribute, original)

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.spans) + len(tracer.stack)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            error, result = None, None
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = tracer.clock()
                tracer.stack.pop()
                work = _work(name, args, kwargs, result) if error is None else None
                tracer.spans.append((tracer.query, sid, parent, name, start, end, work, error))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = {m: importlib.import_module(f"sailkit.{m}") for m in MODULES}
        modules["__init__"] = importlib.import_module("sailkit")
        wrappers = {}
        for short in MODULES:
            mod = modules[short]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNTRACED):
                    wrappers[fn] = self.wrap(f"{short}.{attr}", fn)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = inspect.getattr_static(cls, meth)
                    name = f"{short}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, raw.__func__))
                    else:
                        new = self.wrap(name, raw)
                    self._saved.append((cls, meth, raw))
                    setattr(cls, meth, new)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to the span."""
    children = defaultdict(list)
    for span in spans:
        if span[2] is not None:
            children[(span[0], span[2])].append((span[4], span[5]))
    out = []
    for span in spans:
        start, end = span[4], span[5]
        covered, reach = 0.0, start
        for a, b in sorted(children.get((span[0], span[1]), ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def layer_metrics(spans):
    """Per-layer metrics named <module>.<function>.<stat>."""
    selfs = self_times(spans)
    by_name = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "work": 0, "errors": defaultdict(int)})
    by_module = defaultdict(float)
    for span, own in zip(spans, selfs):
        name, work, error = span[3], span[6], span[7]
        if name.split(".")[-1] in BUILDERS:
            name = "decomposition.build"
        entry = by_name[name]
        entry["self_s"] += own
        entry["calls"] += 1
        entry["work"] += work or 0
        if error:
            entry["errors"][error] += 1
        by_module[name.split(".")[0]] += own

    def get(name, stat):
        return by_name[name][stat] if name in by_name else 0

    sub = by_name.get("obstructions.contains_subdivision")
    sub_calls = sub["calls"] if sub else 0
    sub_caps = sub["errors"]["CapExceededError"] if sub else 0
    sub_decided = sub_calls - sum(sub["errors"].values()) if sub else 0
    metrics = {
        "words.prefix.self_s": (get("words.prefix", "self_s"), "s"),
        "words.prefix.letters": (get("words.prefix", "work"), "count"),
        "words.find_increasing_intervals.self_s": (get("words.find_increasing_intervals", "self_s"), "s"),
        "graphs.path_star_graph.self_s": (get("graphs.path_star_graph", "self_s"), "s"),
        "graphs.path_star_graph.size": (get("graphs.path_star_graph", "work"), "count"),
        "graphs.LabeledGraph.from_json.self_s": (get("graphs.LabeledGraph.from_json", "self_s"), "s"),
        "graphs.LabeledGraph.induced.self_s": (get("graphs.LabeledGraph.induced", "self_s"), "s"),
        "sails.build_sail_from_intervals.self_s": (get("sails.build_sail_from_intervals", "self_s"), "s"),
        "sails.build_sail_from_intervals.calls": (get("sails.build_sail_from_intervals", "calls"), "count"),
        "decomposition.build.self_s": (get("decomposition.build", "self_s"), "s"),
        "decomposition.build.bags": (get("decomposition.build", "work"), "count"),
        "decomposition.validate_decomposition.self_s": (get("decomposition.validate_decomposition", "self_s"), "s"),
        "decomposition.validate_decomposition.bag_edge_pairs": (get("decomposition.validate_decomposition", "work"), "count"),
        "decomposition.exact_treewidth.self_s": (get("decomposition.exact_treewidth", "self_s"), "s"),
        "decomposition.exact_treewidth.calls": (get("decomposition.exact_treewidth", "calls"), "count"),
        "decomposition.heuristic_treewidth_upper.self_s": (get("decomposition.heuristic_treewidth_upper", "self_s"), "s"),
        "obstructions.contains_subdivision.self_s": (get("obstructions.contains_subdivision", "self_s"), "s"),
        "obstructions.contains_subdivision.calls": (sub_calls, "count"),
        "obstructions.decided_ratio": (sub_decided / sub_calls if sub_calls else 0.0, "ratio"),
        "obstructions.cap_count": (sub_caps, "count"),
        "obstructions.kkw_scan.self_s": (get("obstructions.kkw_scan", "self_s"), "s"),
        "cli.run.self_s": (get("cli.run", "self_s"), "s"),
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = (by_module.get(module, 0.0), "s")
    return metrics
