"""Independent checks of sailkit's CLI output.

Each check takes a query (with its input files already read) and the exit
code and stdout of `sailkit.cli.run`, and returns None when the answer is
acceptable, or a one-line reason when it is wrong.  None of them calls
sailkit; the reference values come from networkx and from this file.
"""

from __future__ import annotations

import csv
import json

import networkx as nx

EXPERIMENT_COLUMNS = ["family", "q", "t", "positions", "stars", "n_vertices",
                      "sail_order_found", "exact_tw", "builder_width",
                      "theorem_bound", "elapsed_ms"]
PATTERN_MAX_DEGREE = {"K5": 4, "K44": 4, "W4x4": 3, "LW4x4": 4}


def to_networkx(graph_obj):
    g = nx.Graph()
    g.add_nodes_from(v["id"] for v in graph_obj["vertices"])
    g.add_edges_from(map(tuple, graph_obj["edges"]))
    return g


def decomposition_problem(g, td):
    """The first violated tree-decomposition condition of `td` on `g`."""
    bags = {node["id"]: set(node["bag"]) for node in td["nodes"]}
    tree = nx.Graph()
    tree.add_nodes_from(bags)
    tree.add_edges_from(map(tuple, td["edges"]))
    if not bags or not nx.is_tree(tree):
        return "tree edges do not form a tree"
    holding = {v: set() for v in g}
    for node, bag in bags.items():
        for v in bag:
            if v not in holding:
                return f"bag {node} holds {v}, which is not a vertex"
            holding[v].add(node)
    for v, nodes in holding.items():
        if not nodes:
            return f"vertex {v} is in no bag"
        if not nx.is_connected(tree.subgraph(nodes)):
            return f"bags holding {v} are not connected"
    for u, v in g.edges:
        if not holding[u] & holding[v]:
            return f"edge ({u}, {v}) is in no bag"
    return None


def reference(query, graph_obj):
    """Per-query reference values, computed once before the query is timed."""
    cls = query["argv"][0]
    if cls == "tw" and "--heuristic" not in query["argv"]:
        g = to_networkx(graph_obj)
        lower = max(nx.core_number(g).values(), default=0)
        upper = nx.algorithms.approximation.treewidth_min_fill_in(g)[0] if g.number_of_edges() else 0
        return {"lower": lower, "upper": upper}
    if cls == "obstruct":
        g = to_networkx(graph_obj)
        return {"planar": nx.check_planarity(g)[0],
                "max_degree": max((d for _, d in g.degree), default=0)}
    return {}


def check(query, code, out, graph_obj=None, ref=None):
    command, expect = query["argv"][0], query["expect"]
    if command == "decomp":
        if code != expect["exit"]:
            return f"decomp validate exit {code}, expected {expect['exit']}"
        report = json.loads(out)
        if report["ok"] != (expect["exit"] == 0) or bool(report["problems"]) == report["ok"]:
            return f"decomp validate report {report} contradicts exit {code}"
        return None
    if code != 0:
        return f"exit {code}"
    if command == "experiment":
        return _check_experiment(expect, out)
    if command == "obstruct":
        return _check_kkw(expect, ref, json.loads(out))
    if "--heuristic" in query["argv"]:
        obj = json.loads(out)
        problem = decomposition_problem(to_networkx(graph_obj), obj["decomposition"])
        if problem:
            return f"heuristic decomposition invalid: {problem}"
        width = max(len(node["bag"]) for node in obj["decomposition"]["nodes"]) - 1
        if width != obj["upperBound"]:
            return f"upperBound {obj['upperBound']} but decomposition width {width}"
        return None
    value = int(out)
    if not ref["lower"] <= value <= ref["upper"]:
        return f"tw {value} outside [{ref['lower']}, {ref['upper']}]"
    return None


def _check_experiment(expect, out):
    rows = list(csv.reader(out.splitlines()))
    if len(rows) != 2 or rows[0] != EXPERIMENT_COLUMNS:
        return f"experiment output has unexpected shape: {out[:80]!r}"
    row = dict(zip(EXPERIMENT_COLUMNS, rows[1]))
    stars = ",".join(map(str, expect["stars"]))
    wanted = {"family": expect["family"].split(":")[0], "t": str(expect["t"]),
              "positions": f"1-{expect['prefix']}", "stars": stars,
              "n_vertices": str(expect["prefix"] + len(expect["stars"])), "exact_tw": ""}
    for key, value in wanted.items():
        if row[key] != value:
            return f"experiment column {key} is {row[key]!r}, expected {value!r}"
    order = int(row["sail_order_found"])
    if not 0 <= order <= expect["t"]:
        return f"sail_order_found {order} outside [0, {expect['t']}]"
    width = row["builder_width"]
    if width != "obstruction" and order - 1 > int(width):
        return f"sail order {order} certifies tw >= {order - 1} > builder width {width}"
    return None


def _check_kkw(expect, ref, report):
    if set(report) != set(PATTERN_MAX_DEGREE) or not set(report.values()) <= {"present", "absent", "cap"}:
        return f"kkw report has unexpected shape: {report}"
    for name, answer in report.items():
        if answer == "present" and ref["planar"] and name in ("K5", "K44"):
            return f"planar host reported {name} present"
        if answer == "present" and PATTERN_MAX_DEGREE[name] > ref["max_degree"]:
            return f"{name} present in a host of max degree {ref['max_degree']}"
        if answer == "absent" and name in expect["present"]:
            return f"{name} absent from a host built to contain it"
    return None
