"""Tree decomposition and tree-width oracle tests."""

import itertools
import random

import pytest

from sailkit.decomposition import (
    TreeDecomposition,
    _contract_chains,
    _min_fill_order,
    build_arithmetic,
    build_fibonacci,
    build_power,
    exact_treewidth,
    heuristic_treewidth_upper,
    validate_decomposition,
    width,
)
from sailkit.errors import CapExceededError, ObstructionError
from sailkit.graphs import (
    LabeledGraph,
    PLAIN,
    complete_graph,
    components,
    cycle_graph,
    path_graph,
    path_star_graph,
    subdivide,
    walk,
)
from sailkit.words import InfiniteWordSpec

NU = InfiniteWordSpec.arithmetic()
ETA = InfiniteWordSpec.fibonacci()


def random_graph(rng, n, p):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return LabeledGraph({i: PLAIN for i in range(n)}, edges)


def treewidth_all_orderings(g):
    """Independent oracle: depth-first over every elimination ordering,
    pruning only branches that already exceed the best width found."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    best = [max(0, g.n - 1)]

    def rec(live, current):
        if len(live) <= 1:
            best[0] = min(best[0], current)
            return
        for v in list(live):
            d = len(live[v])
            reached = max(current, d)
            if reached >= best[0]:
                continue
            nxt = {u: set(ns) for u, ns in live.items() if u != v}
            for a in live[v]:
                nxt[a].discard(v)
                nxt[a].update(live[v] - {a})
            rec(nxt, reached)

    rec(adj, 0)
    return best[0]


class TestValidateAndWidth:
    def test_single_bag(self):
        g = random_graph(random.Random(0), 6, 0.5)
        td = TreeDecomposition({0: g.vertices()})
        assert validate_decomposition(g, td).ok
        assert width(td) == g.n - 1

    def test_caterpillar_over_path(self):
        g = path_graph(6)
        td = TreeDecomposition({i: {i, i + 1} for i in range(5)},
                               [(i, i + 1) for i in range(4)])
        assert validate_decomposition(g, td).ok
        assert width(td) == 1

    def test_missing_edge_bag_reported(self):
        g = path_graph(4)
        td = TreeDecomposition({0: {0, 1}, 1: {2, 3}}, [(0, 1)])
        res = validate_decomposition(g, td)
        assert not res.ok
        assert any("(1, 2)" in p for p in res.problems)

    def test_disconnected_bag_set_reported(self):
        g = path_graph(3)
        td = TreeDecomposition({0: {0, 1}, 1: {1, 2}, 2: {0}},
                               [(0, 1), (1, 2)])
        res = validate_decomposition(g, td)
        assert not res.ok
        assert any("disconnected" in p for p in res.problems)

    def test_non_tree_raises(self):
        g = path_graph(3)
        td = TreeDecomposition({0: {0, 1}, 1: {1, 2}, 2: {2}},
                               [(0, 1)])
        with pytest.raises(ValueError):
            validate_decomposition(g, td)

    def test_width_of_empty(self):
        with pytest.raises(ValueError):
            width(TreeDecomposition({}))

    def test_json_round_trip_bit_exact(self):
        td = TreeDecomposition({0: {3, 1}, 1: {1, 2}, 2: {2}}, [(0, 1), (1, 2)])
        text = td.to_json()
        assert TreeDecomposition.from_json(text).to_json() == text
        assert '"bag":[1,3]' in text


class TestExactTreewidth:
    def test_cliques(self):
        for n in range(2, 9):
            assert exact_treewidth(complete_graph(n)) == n - 1

    def test_cycles(self):
        for k in range(4, 9):
            assert exact_treewidth(cycle_graph(k)) == 2

    def test_trees(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(2, 14)
            edges = [(rng.randint(0, i - 1), i) for i in range(1, n)]
            g = LabeledGraph({i: PLAIN for i in range(n)}, edges)
            assert exact_treewidth(g) == 1

    def test_edge_cases(self):
        assert exact_treewidth(LabeledGraph({}, [])) == -1
        assert exact_treewidth(LabeledGraph({0: PLAIN}, [])) == 0

    def test_cap(self):
        g = path_graph(30)
        with pytest.raises(CapExceededError):
            exact_treewidth(g, cap=25)
        assert exact_treewidth(g, cap=30) == 1

    def test_against_all_orderings(self):
        rng = random.Random(41)
        for _ in range(50):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            assert exact_treewidth(g) == treewidth_all_orderings(g)

    def test_canonical_sail_fixture(self):
        # a t-sail carries a K_t minor, so tree-width is at least t-1;
        # the exact values are pinned as regression fixtures
        from sailkit.graphs import canonical_sail
        assert exact_treewidth(canonical_sail(4)[0]) == 3
        assert exact_treewidth(canonical_sail(5)[0]) == 4

    def test_minor_monotone_under_contraction(self):
        rng = random.Random(17)
        for _ in range(15):
            g = random_graph(rng, rng.randint(4, 10), 0.4)
            if g.m == 0:
                continue
            u, v = rng.choice(g.edges())
            merged_edges = set()
            for a, b in g.edges():
                a2 = u if a == v else a
                b2 = u if b == v else b
                if a2 != b2:
                    merged_edges.add((min(a2, b2), max(a2, b2)))
            h = LabeledGraph({w: PLAIN for w in g.vertices() if w != v},
                             merged_edges)
            assert exact_treewidth(h) <= exact_treewidth(g)


class TestHeuristic:
    def test_examples(self):
        for g, expect in [(path_graph(8), 1), (cycle_graph(6), 2),
                          (complete_graph(6), 5)]:
            value, td = heuristic_treewidth_upper(g)
            assert value == expect
            assert validate_decomposition(g, td).ok

    def test_always_an_upper_bound(self):
        rng = random.Random(9)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 10), 0.5)
            value, td = heuristic_treewidth_upper(g)
            assert validate_decomposition(g, td).ok
            assert value >= exact_treewidth(g)


def min_fill_reference(g):
    """Reference min-fill: rescan every live vertex's fill at every step."""
    live = {v: set(g.neighbors(v)) for v in g.vertices()}
    order, bags = [], []
    while live:
        best = None
        for v in sorted(live):
            ns = live[v]
            fill = sum(1 for a in ns for b in ns if a < b and b not in live[a])
            if best is None or (fill, len(ns), v) < best[0]:
                best = ((fill, len(ns), v), v)
        v = best[1]
        ns = live.pop(v)
        order.append(v)
        bags.append({v} | ns)
        for a in ns:
            live[a].discard(v)
            live[a].update(ns - {a})
    return order, bags


class TestMinFillReference:
    def test_small_graphs(self):
        rng = random.Random(41)
        graphs = [LabeledGraph({}, []), random_graph(rng, 7, 0.0), complete_graph(7),
                  LabeledGraph({i: PLAIN for i in range(8)},
                               [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7), (7, 4)])]
        for _ in range(200):
            p = rng.choice([0.1, 0.3, 0.6])
            graphs.append(random_graph(rng, rng.randint(1, 30), p))
        for g in graphs:
            assert _min_fill_order(g) == min_fill_reference(g)

    @pytest.mark.parametrize("token,n,top", [
        ("nu", 600, 6), ("kappa:2", 300, 5), ("kappa:3", 350, 4), ("eta", 300, 6),
        ("eta", 450, 1),
    ])
    def test_path_star_graphs(self, token, n, top):
        # stars 1..top on a window far from the start of the word
        stars = list(range(1, top + 1))
        spec = InfiniteWordSpec.from_token(token)
        g = path_star_graph(spec, range(1000, 1000 + n - len(stars)), stars)
        assert g.n == n
        order, bags = min_fill_reference(g)
        assert _min_fill_order(g) == (order, bags)
        value, td = heuristic_treewidth_upper(g)
        assert validate_decomposition(g, td).ok
        assert value == max(len(b) for b in bags) - 1


def contract_chains_reference(g, skeleton):
    """`_contract_chains` by the walk it used before `graphs.suppress`: one
    walk per connector component, from its end next to the smallest skeleton
    vertex.  The skeleton neighbours of a component count with multiplicity,
    so a run from a skeleton vertex back to itself is a chain (a loop), and
    every run between the same two skeleton vertices is kept."""
    other = [v for v in g.vertices() if v not in skeleton]
    for v in other:
        if g.degree(v) > 2:
            raise ValueError(
                f"vertex {v} is neither a star, a lettered path vertex, nor a"
                " degree-<=2 connector; not a path-star graph for this builder")
    chains, dangling, free = [], [], []
    other_set = set(other)
    for comp in components(g.neighbors, other):
        ends = sorted(w for v in comp for w in g.neighbors(v) if w in skeleton)
        start = min(v for v in comp if ends[0] in g.neighbors(v)) if ends else comp[0]
        interior = walk(g.neighbors, start, other_set)
        if len(interior) > 2 and interior[0] in g.neighbors(interior[-1]):
            raise ValueError("connector component is a cycle; not a path-star graph")
        if len(ends) == 2:
            chains.append((ends[0], ends[1], interior))
        elif len(ends) == 1:
            dangling.append((ends[0], interior))
        else:
            free.append(interior)
    return sorted(chains), dangling, free


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


class TestContractChainsReference:
    def test_random_graphs(self):
        rng = random.Random(71)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 20), rng.choice([0.08, 0.12, 0.2, 0.3]))
            g = subdivide(g, {e: rng.randint(0, 2) for e in g.edges() if rng.random() < 0.4})
            skeleton = {v for v in g.vertices() if g.degree(v) >= 3 or rng.random() < 0.2}
            if rng.random() < 0.2:  # connectors of degree 3 are rejected alike
                skeleton = set(rng.sample(g.vertices(), rng.randint(0, g.n)))
            assert outcome(_contract_chains, g, skeleton) == \
                outcome(contract_chains_reference, g, skeleton)

    @pytest.mark.parametrize("n", [50, 400, 2000])
    def test_path_star_graphs(self, n):
        rng = random.Random(n)
        for stars in ([1, 2], [2, 3, 4], [1, 3, 5, 6]):
            g = path_star_graph(NU, range(1, n + 1), stars)
            for plan in ({}, {e: rng.randint(1, 3) for e in g.edges() if rng.random() < 0.3}):
                h = subdivide(g, plan)
                skeleton = {v for v in h.vertices() if h.tag(v).kind == "star"
                            or (h.tag(v).kind == "path" and NU.letter_at(h.tag(v).pos) in stars)}
                want = contract_chains_reference(h, skeleton)
                assert want[0] and _contract_chains(h, skeleton) == want


class TestBuildPower:
    def test_figure_instance(self):
        g = path_star_graph(InfiniteWordSpec.power(2), range(1, 21), [1, 2, 3, 4, 5])
        td = build_power(g, 2, 3)
        assert validate_decomposition(g, td).ok
        assert width(td) <= (3 + 1) * (2 - 1) + 2

    def test_stars_within_base(self):
        g = path_star_graph(InfiniteWordSpec.power(2), range(1, 8), [1, 2])
        td = build_power(g, 2, 2)
        assert validate_decomposition(g, td).ok
        assert width(td) <= 2 + 2  # |M| + 2 with M = the two stars

    def test_obstruction(self):
        # base set M = first three stars; positions 1..16 connect the single
        # component to both star 4 (position 8) and star 5 (position 16)
        g = path_star_graph(InfiniteWordSpec.power(2), range(1, 17), [1, 2, 3, 4, 5])
        with pytest.raises(ObstructionError) as err:
            build_power(g, 2, 2)
        letters = sorted(g.tag(s).letter for s in err.value.stars)
        assert letters == [4, 5]

    def test_family_guard(self):
        g = path_star_graph(NU, range(1, 10), [1, 2])
        with pytest.raises(ValueError):
            build_power(g, 2, 2)


class TestBuildFibonacci:
    def test_prefix_33(self):
        g = path_star_graph(ETA, range(1, 34), range(1, 8))
        td = build_fibonacci(g, 2)
        assert validate_decomposition(g, td).ok
        assert width(td) <= 2 + 6

    def test_obstruction(self):
        # t = 2 makes M the first six stars; letters 7 (position 33) and 8
        # (position 54) both meet the single component
        g = path_star_graph(ETA, range(1, 55), range(1, 9))
        with pytest.raises(ObstructionError):
            build_fibonacci(g, 2)


class TestBuildArithmetic:
    def test_tiny(self):
        g = path_star_graph(NU, [1, 2], [1, 2])
        td = build_arithmetic(g, 2)
        assert validate_decomposition(g, td).ok
        assert width(td) <= 2 * 2 + 2 * 2 - 1

    def test_family_guard(self):
        g = path_star_graph(ETA, range(1, 10), [1, 2])
        with pytest.raises(ValueError):
            build_arithmetic(g, 3)

    def test_rejects_cycles_off_the_skeleton(self):
        # a triangle of connectors, and a path cycle that a walk would
        # otherwise order as if it were a path
        base = path_star_graph(NU, [1, 2], [1, 2])
        tags = {v: base.tag(v) for v in base.vertices()}
        tags.update({10: PLAIN, 11: PLAIN, 12: PLAIN})
        g = LabeledGraph(tags, base.edges() + [(10, 11), (11, 12), (10, 12)], origin=NU)
        with pytest.raises(ValueError, match="cycle"):
            build_arithmetic(g, 2)
        g = path_star_graph(NU, [1, 2, 3, 4, 5], [1, 2])
        g = LabeledGraph({v: g.tag(v) for v in g.vertices()}, g.edges() + [(1, 4)], origin=NU)
        with pytest.raises(ValueError, match="not a path"):
            build_arithmetic(g, 2)

    @pytest.mark.parametrize("extra", [
        [(1, 10), (10, 11), (11, 1)],           # a connector loop at path vertex 1
        [(1, 10), (10, 2), (1, 11), (11, 2)],   # two connectors between 1 and 2
    ])
    def test_every_connector_run_is_spliced(self, extra):
        base = path_star_graph(NU, [1, 2], [1, 2])
        tags = {v: base.tag(v) for v in base.vertices()}
        tags.update({10: PLAIN, 11: PLAIN})
        g = LabeledGraph(tags, base.edges() + extra, origin=NU)
        td = build_arithmetic(g, 2)
        assert validate_decomposition(g, td).ok

    def test_trunk_with_branches(self):
        # positions cut mid-block so components carry uncovered ends
        g = path_star_graph(NU, list(range(4, 21)) + list(range(24, 33)),
                            [1, 2, 3, 4])
        td = build_arithmetic(g, 4)
        assert validate_decomposition(g, td).ok

    def test_letters_outside_star_set_are_spliced(self):
        # stars {2,3,4} leave letter-1 and letter-5+ path vertices as
        # connectors that must be chained back in
        g = path_star_graph(NU, range(1, 30), [2, 3, 4])
        td = build_arithmetic(g, 3)
        assert validate_decomposition(g, td).ok

    def test_validity_across_samples(self):
        rng = random.Random(7)
        for _ in range(25):
            start = rng.randint(1, 40)
            length = rng.randint(2, 35)
            letters = sorted(rng.sample(range(1, 9), rng.randint(1, 5)))
            g = path_star_graph(NU, range(start, start + length), letters)
            t = rng.randint(2, 5)
            td = build_arithmetic(g, t)
            assert validate_decomposition(g, td).ok, (start, length, letters, t)

    def test_component_cut_on_both_sides(self):
        # positions 26..29 sit astride the block boundary at 28, so the
        # component reads "6 7 | 1 2" over stars {1,2,3,4,6,7}: a high cut
        # head followed by a low cut tail, with no covering window
        positions = list(range(1, 20)) + list(range(26, 30))
        g = path_star_graph(NU, positions, [1, 2, 3, 4, 6, 7])
        td = build_arithmetic(g, 4)
        assert validate_decomposition(g, td).ok
        assert width(td) <= 4 * 4 + 2 * 4 - 1


class TestOracleSandwich:
    def test_exact_below_builders(self):
        cases = [
            (path_star_graph(InfiniteWordSpec.power(2), range(1, 21), [1, 2, 3]),
             lambda g: build_power(g, 2, 3)),
            (path_star_graph(ETA, range(1, 20), [1, 2, 3, 4]),
             lambda g: build_fibonacci(g, 2)),
            (path_star_graph(NU, range(1, 15), [1, 2, 3]),
             lambda g: build_arithmetic(g, 3)),
        ]
        for g, builder in cases:
            td = builder(g)
            assert validate_decomposition(g, td).ok
            assert exact_treewidth(g) <= width(td)
            upper, htd = heuristic_treewidth_upper(g)
            assert validate_decomposition(g, htd).ok
            assert exact_treewidth(g) <= upper

    def test_reduction_inequality(self):
        # tw(G - U) <= tw(G) <= |U| + tw(G - U) for star subsets U
        rng = random.Random(29)
        for _ in range(12):
            start = rng.randint(1, 25)
            length = rng.randint(3, 12)
            letters = sorted(rng.sample(range(1, 7), rng.randint(1, 4)))
            spec = rng.choice([NU, InfiniteWordSpec.power(2), ETA])
            g = path_star_graph(spec, range(start, start + length), letters)
            if g.n > 18:
                continue
            tw = exact_treewidth(g)
            stars = list(g.star_nodes().values())
            for size in range(len(stars) + 1):
                u = stars[:size]
                rest = [v for v in g.vertices() if v not in set(u)]
                tw_rest = exact_treewidth(g.induced(rest))
                assert tw_rest <= tw <= len(u) + tw_rest
