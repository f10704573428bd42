"""Subdivision detection, KKW scan, wall surgery, and separator tests."""

import itertools
import random
import time

import pytest

from sailkit import obstructions
from sailkit.errors import CapExceededError
from sailkit.graphs import (
    PLAIN,
    LabeledGraph,
    canonical_sail,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    girth,
    line_graph,
    path_graph,
    path_star_graph,
    peel,
    subdivide,
    walk,
    wall,
)
from sailkit.obstructions import (
    _Core,
    _find_cycle,
    contains_subdivision,
    kkw_scan,
    separator_check,
    validate_embedding,
    wall_surgery,
)
from sailkit.words import InfiniteWordSpec


class TestContainsSubdivision:
    def test_cycle_in_longer_cycle(self):
        host, pattern = cycle_graph(9), cycle_graph(4)
        emb = contains_subdivision(host, pattern)
        assert emb is not None
        assert validate_embedding(host, pattern, emb).ok

    def test_triangle_not_in_tree(self):
        assert contains_subdivision(path_graph(8), cycle_graph(3)) is None

    def test_k5_in_its_subdivision(self):
        k5 = complete_graph(5)
        host = subdivide(k5, {e: 2 for e in k5.edges()})
        emb = contains_subdivision(host, k5, host_cap=80)
        assert emb is not None
        assert validate_embedding(host, k5, emb).ok

    def test_k44_in_its_subdivision(self):
        k44 = complete_bipartite(4, 4)
        host = subdivide(k44, {e: 1 for e in k44.edges()})
        emb = contains_subdivision(host, k44, host_cap=80)
        assert emb is not None
        assert validate_embedding(host, k44, emb).ok

    def test_wall_identity(self):
        w44 = wall(4, 4)
        emb = contains_subdivision(w44, w44, pattern_cap=40, host_cap=40)
        assert emb is not None
        assert validate_embedding(w44, w44, emb).ok

    def test_absences_are_exact(self):
        assert contains_subdivision(cycle_graph(4), cycle_graph(5)) is None
        assert contains_subdivision(cycle_graph(8), complete_graph(4)) is None
        assert contains_subdivision(complete_graph(4), complete_graph(5)) is None

    def test_pattern_cap(self):
        with pytest.raises(CapExceededError):
            contains_subdivision(wall(4, 4), wall(4, 4), host_cap=40)

    def test_host_cap(self):
        with pytest.raises(CapExceededError):
            contains_subdivision(path_graph(100), cycle_graph(3))

    def test_disconnected_pattern(self):
        host = cycle_graph(12)
        pattern_obj = cycle_graph(3).to_obj()
        # two disjoint triangles cannot fit in one cycle
        two = {
            "vertices": [{"id": i, "tag": {"kind": "plain"}} for i in range(6)],
            "edges": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]],
        }
        from sailkit.graphs import LabeledGraph
        pattern = LabeledGraph.from_obj(two)
        assert contains_subdivision(host, pattern) is None
        big_host = LabeledGraph.from_obj({
            "vertices": [{"id": i, "tag": {"kind": "plain"}} for i in range(9)],
            "edges": [[0, 1], [1, 2], [0, 2], [4, 5], [5, 6], [6, 7], [7, 8], [4, 8]],
        })
        emb = contains_subdivision(big_host, pattern)
        assert emb is not None
        assert validate_embedding(big_host, pattern, emb).ok


OCTAHEDRON = LabeledGraph({v: PLAIN for v in range(6)},
                          [(a, b) for a, b in itertools.combinations(range(6), 2)
                           if (a, b) not in ((0, 1), (2, 3), (4, 5))])


def k4_chain(blocks):
    """Disjoint K4 blocks, each joined to the next by one edge: no cycle
    has more than four vertices, but paths multiply from block to block."""
    edges = [(4 * i + a, 4 * i + b) for i in range(blocks)
             for a, b in itertools.combinations(range(4), 2)]
    edges += [(4 * i + 3, 4 * i + 4) for i in range(blocks - 1)]
    return LabeledGraph({v: PLAIN for v in range(4 * blocks)}, edges)


class TestStructuredStageBounds:
    """Stage 2 stops when a round is exhausted or no anchor fits, and its
    path and cycle searches spend `fast_budget`.  Before that, the first
    three searches below took 30 s, 89 s and forever."""

    def test_exhausted_rounds_are_not_replayed(self, deadline):
        deadline(10)
        assert contains_subdivision(OCTAHEDRON, complete_graph(5)) is None

    def test_cycle_search_spends_the_fast_budget(self, deadline):
        deadline(10)
        try:
            found = contains_subdivision(k4_chain(10), cycle_graph(5), fast_budget=100_000)
        except CapExceededError:
            found = None
        assert found is None

    def test_no_anchor_ends_the_rounds(self, deadline):
        deadline(10)
        # stripping the pendant leaves no degree-4 host core vertex to anchor
        # the star's centre, so stage 2 has no attempt to make at all
        host = LabeledGraph({v: PLAIN for v in range(5)},
                            list(itertools.combinations(range(4), 2)) + [(0, 4)])
        star = complete_bipartite(1, 4)
        emb = contains_subdivision(host, star)
        assert emb is not None and validate_embedding(host, star, emb).ok

    def test_one_tick_per_path(self):
        # from vertex 0 the cycle is the sixth path: (0,), (0, 1), ..., (0, ..., 5)
        ticks = [5]
        assert _find_cycle(cycle_graph(6), set(range(6)), 6, ticks) is None
        assert ticks == [0]
        ticks = [6]
        assert _find_cycle(cycle_graph(6), set(range(6)), 6, ticks) == (0, 1, 2, 3, 4, 5)
        assert ticks == [0]


class TestBlocksAndPeel:
    """The host is peeled once per query, and a 2-connected pattern is
    searched block by block."""

    def test_k4_chain_has_no_five_cycle(self, deadline):
        # every block has four vertices, so no block can hold a C5; the
        # whole-host search spends 21-44 s here and then caps
        deadline(1)
        started = time.perf_counter()
        assert contains_subdivision(k4_chain(10), cycle_graph(5)) is None
        assert time.perf_counter() - started < 0.1

    def test_host_is_peeled_once(self, monkeypatch):
        calls = []

        def counting_peel(*args, **kwargs):
            calls.append(args)
            return peel(*args, **kwargs)

        monkeypatch.setattr(obstructions, "peel", counting_peel)
        # K4 with a pendant path on each vertex, and the octahedron, which
        # makes stage 2 give up and stage 3 run
        host = LabeledGraph({v: PLAIN for v in range(12)},
                            list(itertools.combinations(range(4), 2))
                            + [(v, v + 4) for v in range(4)] + [(v + 4, v + 8) for v in range(4)])
        for pattern in (complete_graph(4), cycle_graph(4), complete_bipartite(1, 3)):
            calls.clear()
            assert contains_subdivision(host, pattern) is not None
            assert len(calls) == 1
        calls.clear()
        assert contains_subdivision(OCTAHEDRON, complete_graph(5)) is None
        assert len(calls) == 1

    def test_blocks_are_decided_one_by_one(self):
        k5 = complete_graph(5)

        def beside_octahedron(other):  # joined to it by one edge
            edges = OCTAHEDRON.edges() + [(6 + a, 6 + b) for a, b in other.edges()]
            return LabeledGraph({v: PLAIN for v in range(6 + other.n)}, edges + [(5, 6)])

        # stage 3 cannot finish the octahedron within 10 nodes
        with pytest.raises(CapExceededError):
            contains_subdivision(OCTAHEDRON, k5, budget=10)
        host = beside_octahedron(k5)
        emb = contains_subdivision(host, k5, budget=10)
        assert emb is not None and validate_embedding(host, k5, emb).ok
        with pytest.raises(CapExceededError):
            contains_subdivision(beside_octahedron(OCTAHEDRON), k5, budget=10)
        assert contains_subdivision(beside_octahedron(complete_graph(4)), k5) is None


class TestKkwScan:
    def test_small_path_star_clean(self):
        g = path_star_graph(InfiniteWordSpec.power(2), range(1, 15), [1, 2, 3])
        assert kkw_scan(g) == {"K5": "absent", "K44": "absent",
                               "W4x4": "absent", "LW4x4": "absent"}

    def test_subdivided_k5_present(self):
        k5 = complete_graph(5)
        host = subdivide(k5, {e: 1 for e in k5.edges()})
        assert kkw_scan(host)["K5"] == "present"

    def test_wall_identity_present(self):
        assert kkw_scan(wall(4, 4))["W4x4"] == "present"

    def test_line_graph_pattern(self):
        lw = line_graph(wall(4, 4))
        report = kkw_scan(lw, host_cap=lw.n, fast_budget=500_000, budget=50_000)
        assert report["LW4x4"] == "present"
        # the other three may legitimately report a cap on this host
        assert report["W4x4"] in ("absent", "cap")


class TestWallSurgery:
    def test_girth_bounds(self):
        for k, t in [(2, 3), (2, 4), (3, 2)]:
            g = wall_surgery(k, t)
            assert girth(g) >= 8 * k - 6, (k, t)

    def test_k1_deletes_nothing(self):
        # with one-brick blocks there are no interior vertices; the base is
        # the full kt-brick wall, realized as wall(t, t+1)
        assert wall_surgery(1, 4).to_json() == wall(4, 5).to_json()

    def test_contains_target_wall(self):
        for k, t in [(2, 3), (2, 4), (3, 2)]:
            host = wall_surgery(k, t)
            pattern = wall(t, t)
            emb = contains_subdivision(host, pattern, pattern_cap=pattern.n,
                                       host_cap=host.n)
            assert emb is not None, (k, t)
            assert validate_embedding(host, pattern, emb).ok

    def test_cap(self):
        with pytest.raises(CapExceededError):
            wall_surgery(8, 9)


class TestSeparator:
    def test_arithmetic_example(self):
        assert separator_check(InfiniteWordSpec.arithmetic(), range(1, 61),
                               [1, 2, 3, 4], 2, 3, 4)

    def test_power2_example(self):
        assert separator_check(InfiniteWordSpec.power(2), range(1, 61),
                               [1, 2, 3, 4, 5], 2, 3, 5)

    def test_all_triples_nested_families(self):
        for token in ("nu", "kappa:2"):
            spec = InfiniteWordSpec.from_token(token)
            for i, j, k in itertools.combinations(range(2, 7), 3):
                assert separator_check(spec, range(1, 401), range(1, 7), i, j, k), \
                    (token, i, j, k)

    def test_non_nested_periodic_fails(self):
        spec = InfiniteWordSpec.periodic([1, 2, 4, 3])
        assert not separator_check(spec, range(1, 13), [1, 2, 3, 4], 2, 3, 4)

    def test_non_nested_families_fail_somewhere(self):
        # the power-3 and fibonacci words are not nested, and the failure
        # shows up as a concrete separator violation
        assert not separator_check(InfiniteWordSpec.power(3), range(1, 401),
                                   range(1, 7), 2, 3, 4)
        assert not separator_check(InfiniteWordSpec.fibonacci(), range(1, 401),
                                   range(1, 7), 2, 3, 5)

    def test_index_guard(self):
        with pytest.raises(ValueError):
            separator_check(InfiniteWordSpec.arithmetic(), range(1, 20),
                            [1, 2, 3, 4], 1, 2, 3)


def test_triangles_in_path_star_graphs_contain_a_star():
    # structural fact behind the line-graph obstruction argument: path
    # vertices alone never form a triangle because path edges are a union
    # of induced paths
    for token in ("nu", "kappa:2", "kappa:3", "eta"):
        spec = InfiniteWordSpec.from_token(token)
        g = path_star_graph(spec, range(1, 40), range(1, 7))
        stars = set(g.star_nodes().values())
        for a, b, c in itertools.combinations(g.vertices(), 3):
            if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
                assert {a, b, c} & stars


def test_empirical_kkw_enumeration_small():
    # induced subgraphs of a power-2 path-star graph up to 9 vertices: the
    # degree counts alone rule the four patterns out; scan a sample fully
    from sailkit.graphs import induced
    g = path_star_graph(InfiniteWordSpec.power(2), range(1, 13), [1, 2, 3])
    verts = g.vertices()
    count = 0
    for size in range(1, 10):
        for combo in itertools.combinations(verts, size):
            count += 1
            if count % 97 == 0:
                sub = induced(g, combo)
                report = kkw_scan(sub)
                assert set(report.values()) == {"absent"}
    assert count > 1000


# ---------------------------------------------------------------------------
# the chain walk that `graphs.suppress` replaced in `_Core`, kept as the
# reference
# ---------------------------------------------------------------------------

def core_reference(g):
    """`_Core(g)`'s fields as the walk from every core vertex built them."""
    core = [v for v in g.vertices() if g.degree(v) >= 3]
    core_set = set(core)
    chains, loops, pendants = {}, {}, {}
    path_comps, cycle_comps, isolated = [], [], []
    seen_edges = set()
    absorbed = set()
    for u in core:
        for x in sorted(g.neighbors(u)):
            if (min(u, x), max(u, x)) in seen_edges:
                continue
            interior = []
            prev, cur = u, x
            while cur not in core_set and g.degree(cur) == 2:
                interior.append(cur)
                nxt = [w for w in g.neighbors(cur) if w != prev][0]
                prev, cur = cur, nxt
            for a, b in zip([u] + interior, interior + [cur]):
                seen_edges.add((min(a, b), max(a, b)))
            absorbed.update(interior)
            if cur in core_set:
                if cur == u:
                    loops.setdefault(u, []).append(tuple(interior))
                else:
                    key = (min(u, cur), max(u, cur))
                    ordered = tuple(interior if u == key[0] else reversed(interior))
                    chains.setdefault(key, []).append(ordered)
            else:
                absorbed.add(cur)
                pendants.setdefault(u, []).append(tuple(interior + [cur]))
    # (the walk finds each loop once, so this drops every second loop at a
    # core vertex that has two or more)
    for u, items in loops.items():
        items.sort()
        loops[u] = [it for i, it in enumerate(items) if i % 2 == 0]
    placed = core_set | absorbed
    rest = [v for v in g.vertices() if v not in placed]
    for comp in components(g.neighbors, rest):
        if len(comp) == 1:
            isolated.append(comp[0])
        elif all(g.degree(a) == 2 for a in comp):
            cycle_comps.append(tuple(walk(g.neighbors, comp[0], set(comp))))
        else:
            path_comps.append(tuple(walk(g.neighbors, comp[0], set(comp))))
    return {"core": core, "chains": chains, "loops": loops, "pendants": pendants,
            "path_comps": path_comps, "cycle_comps": cycle_comps, "isolated": isolated}


def assert_core_matches_reference(g):
    got, want = _Core(g), core_reference(g)
    for field in ("core", "chains", "pendants", "path_comps", "cycle_comps", "isolated"):
        assert getattr(got, field) == want[field], field
    # the only difference: the reference keeps every second loop at a core
    # vertex with two or more loops; `_Core` keeps them all
    assert got.loops.keys() == want["loops"].keys()
    for u, items in got.loops.items():
        assert items[::2] == want["loops"][u]


def bouquet(loops, tail):
    """Vertex 0 with `loops` triangles through it and a path of `tail`
    vertices hanging off it."""
    edges = []
    for i in range(loops):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (a, b), (0, b)]
    run = [0] + list(range(2 * loops + 1, 2 * loops + 1 + tail))
    edges += list(zip(run, run[1:]))
    return LabeledGraph({v: PLAIN for v in range(2 * loops + 1 + tail)}, edges)


class TestCoreSuppression:
    """`_Core`, now built on `graphs.suppress`, against the chain walk it
    replaced."""

    def test_random_graphs(self):
        rng = random.Random(61)
        for _ in range(400):
            n = rng.randint(1, 20)
            g = LabeledGraph({v: PLAIN for v in range(n)},
                             [e for e in itertools.combinations(range(n), 2)
                              if rng.random() < rng.choice([0.08, 0.12, 0.2, 0.3])])
            assert_core_matches_reference(g)
            if g.m:
                plan = {e: rng.randint(0, 3) for e in g.edges() if rng.random() < 0.5}
                assert_core_matches_reference(subdivide(g, plan))

    def test_hosts_and_patterns(self):
        k5, k44 = complete_graph(5), complete_bipartite(4, 4)
        graphs = [pattern for _, pattern in obstructions._kkw_patterns()]
        graphs += [wall(3, 3), wall_surgery(2, 3), subdivide(k5, {e: 2 for e in k5.edges()}),
                   subdivide(k44, {e: 1 for e in k44.edges()}), canonical_sail(5)[0],
                   path_star_graph(InfiniteWordSpec.from_token("eta"), range(1, 40), range(1, 6)),
                   k4_chain(4), OCTAHEDRON, cycle_graph(7), path_graph(4)]
        graphs += [bouquet(loops, tail) for loops in (1, 2, 3) for tail in (0, 2)]
        for g in graphs:
            assert_core_matches_reference(g)
        assert len(_Core(bouquet(3, 2)).loops[0]) == 3

