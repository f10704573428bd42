"""Subdivision detection, KKW scan, wall surgery, and separator tests."""

import itertools

import pytest

from sailkit.errors import CapExceededError
from sailkit.graphs import (
    PLAIN,
    LabeledGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    girth,
    line_graph,
    path_graph,
    path_star_graph,
    subdivide,
    wall,
)
from sailkit.obstructions import (
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
        octahedron = LabeledGraph({v: PLAIN for v in range(6)},
                                  [(a, b) for a, b in itertools.combinations(range(6), 2)
                                   if (a, b) not in ((0, 1), (2, 3), (4, 5))])
        assert contains_subdivision(octahedron, complete_graph(5)) is None

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
