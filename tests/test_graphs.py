"""Graph representation, generators, and witness validation tests."""

import itertools
import random

import pytest

from sailkit.graphs import (
    LabeledGraph,
    PLAIN,
    SailWitness,
    canonical_sail,
    complete_bipartite,
    components,
    complete_graph,
    contains_cycle_of_length,
    cycle_graph,
    girth,
    induced,
    is_t_sail_witness,
    line_graph,
    non_star_components,
    path_graph,
    path_star_graph,
    peel,
    simple_paths,
    star_tag,
    subdivide,
    walk,
    wall,
    wall_vertex_id,
)
from sailkit.obstructions import _find_cycle, _find_path
from sailkit.words import InfiniteWordSpec


def brute_force_girth(g):
    """Independent oracle: enumerate all simple cycles."""
    best = [None]
    order = {v: i for i, v in enumerate(g.vertices())}

    def dfs(start, u, depth, used):
        for w in g.neighbors(u):
            if w == start and depth >= 3:
                if best[0] is None or depth < best[0]:
                    best[0] = depth
            elif w not in used and order[w] > order[start]:
                used.add(w)
                dfs(start, w, depth + 1, used)
                used.discard(w)

    for start in g.vertices():
        dfs(start, start, 1, {start})
    return best[0]


def is_bipartite(g):
    color = {}
    for s in g.vertices():
        if s in color:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if v not in color:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


class TestWall:
    def test_sizes(self):
        assert wall(4, 4).n == 32
        assert wall(2, 2).n == 8
        for m, n in [(1, 1), (2, 3), (3, 2), (5, 4)]:
            assert wall(m, n).n == 2 * m * n

    def test_max_degree_three(self):
        g = wall(4, 4)
        assert max(g.degree(v) for v in g.vertices()) == 3

    def test_girth_is_five(self):
        # the coordinate formula puts skip edges along the half rows, which
        # closes five-vertex boundary bricks; interior bricks are hexagons
        g = wall(4, 4)
        assert girth(g) == 5
        assert girth(g) == brute_force_girth(g)
        assert not is_bipartite(g)

    def test_interior_brick_is_a_hexagon(self):
        g = wall(4, 4)
        brick = [wall_vertex_id(4, x, y)
                 for x, y in [(1, 1), (2, 1), (3, 1), (3, 2), (2, 2), (1, 2)]]
        sub = induced(g, brick)
        assert sub.n == 6 and sub.m == 6
        assert girth(sub) == 6


class TestLineGraph:
    def test_path(self):
        lg = line_graph(path_graph(4))
        assert lg.n == 3 and lg.m == 2
        assert sorted(lg.degree(v) for v in lg.vertices()) == [1, 1, 2]

    def test_triangle_fixed_point(self):
        lg = line_graph(cycle_graph(3))
        assert lg.n == 3 and lg.m == 3

    def test_claw_becomes_triangle(self):
        lg = line_graph(complete_bipartite(1, 3))
        assert lg.n == 3 and lg.m == 3

    def test_cycles_are_fixed_points(self):
        for n in (3, 4, 5, 6, 8):
            twice = line_graph(line_graph(cycle_graph(n)))
            assert twice.n == n and twice.m == n
            assert all(twice.degree(v) == 2 for v in twice.vertices())
            assert len(twice.connected_components()) == 1


class TestSubdivide:
    def test_triangle_to_hexagon(self):
        tri = cycle_graph(3)
        hexagon = subdivide(tri, {e: 1 for e in tri.edges()})
        assert hexagon.n == 6 and girth(hexagon) == 6

    def test_zero_counts_are_identity(self):
        g = wall(2, 2)
        again = subdivide(g, {e: 0 for e in g.edges()})
        assert again.to_json() == g.to_json()

    def test_k4_single_edge(self):
        s = subdivide(complete_graph(4), {(0, 1): 2})
        # replacing one of the six edges by a three-edge path
        assert s.n == 6 and s.m == 8

    def test_unknown_edge(self):
        with pytest.raises(ValueError):
            subdivide(complete_graph(3), {(0, 5): 1})

    def test_girth_monotone(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(4, 9)
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < 0.5]
            g = LabeledGraph({i: PLAIN for i in range(n)}, edges)
            if girth(g) is None:
                continue
            plan = {e: rng.randint(0, 2) for e in g.edges()}
            assert girth(subdivide(g, plan)) >= girth(g)


class TestCanonicalSail:
    def test_sizes(self):
        g7, _ = canonical_sail(7)
        assert g7.n == 35
        g1, w1 = canonical_sail(1)
        assert g1.n == 2 and g1.m == 1
        assert is_t_sail_witness(g1, w1).ok

    def test_witness_validates(self):
        for t in (1, 2, 3, 4, 5, 7):
            g, w = canonical_sail(t)
            assert is_t_sail_witness(g, w).ok

    def test_deleting_any_required_adjacency_invalidates(self):
        t = 4
        g, w = canonical_sail(t)
        for i in range(1, t + 1):
            for j in range(i, t + 1):
                # the single edge from star i into path j
                star = w.stars[i - 1]
                target = w.paths[j - 1][i - 1]
                edges = [e for e in g.edges() if e != tuple(sorted((star, target)))]
                damaged = LabeledGraph({v: g.tag(v) for v in g.vertices()}, edges)
                res = is_t_sail_witness(damaged, w)
                assert not res.ok
                assert any(f"({i}, {j})" in p for p in res.problems)


class TestPathStarGraph:
    def test_power2_prefix_adjacency(self):
        g = path_star_graph(InfiniteWordSpec.power(2), range(1, 9), [1, 2])
        assert sorted(g.neighbors(-1)) == [1, 3, 5, 7]
        assert sorted(g.neighbors(-2)) == [2, 6]

    def test_isolated_star(self):
        g = path_star_graph(InfiniteWordSpec.arithmetic(), [], [3])
        assert g.n == 1 and g.m == 0

    def test_consecutive_position_rule(self):
        g = path_star_graph(InfiniteWordSpec.arithmetic(), [3, 4, 5, 9, 10], [1, 2, 3])
        comps = non_star_components(g)
        assert comps == [[3, 4, 5], [9, 10]]

    def test_degree_structure(self):
        spec = InfiniteWordSpec.power(2)
        g = path_star_graph(spec, range(1, 31), [1, 2, 3, 4])
        word = [spec.letter_at(i) for i in range(1, 31)]
        for pos, v in g.path_vertices().items():
            assert g.degree(v) <= 3
        for letter, v in g.star_nodes().items():
            assert g.degree(v) == sum(1 for a in word if a == letter)

    def test_sparsity_inequality(self):
        # arboricity-two sampling: every induced subgraph has at most
        # 2(|U|-1) edges
        rng = random.Random(5)
        g = path_star_graph(InfiniteWordSpec.arithmetic(), range(1, 41),
                            [1, 2, 3, 4, 5])
        verts = g.vertices()
        for _ in range(200):
            size = rng.randint(2, len(verts))
            u = rng.sample(verts, size)
            h = g.induced(u)
            assert h.m <= 2 * (h.n - 1)

    def test_duplicate_guards(self):
        with pytest.raises(ValueError):
            LabeledGraph({0: star_tag(1), 1: star_tag(1)}, [])
        with pytest.raises(ValueError):
            LabeledGraph({0: PLAIN}, [(0, 0)])


class TestGirth:
    def test_examples(self):
        assert girth(cycle_graph(5)) == 5
        assert girth(path_graph(7)) is None
        assert girth(wall(4, 4)) == 5

    def test_against_brute_force(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(3, 9)
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < 0.4]
            g = LabeledGraph({i: PLAIN for i in range(n)}, edges)
            assert girth(g) == brute_force_girth(g)

    def test_cycle_length_query(self):
        assert contains_cycle_of_length(cycle_graph(6), 6)
        assert not contains_cycle_of_length(cycle_graph(6), 4)
        assert contains_cycle_of_length(complete_graph(4), 3)
        assert contains_cycle_of_length(complete_graph(4), 4)

    def test_cycle_length_query_past_the_recursion_limit(self):
        assert contains_cycle_of_length(cycle_graph(1500), 1500) is True


class TestInduced:
    def test_identity(self):
        g = wall(2, 2)
        assert induced(g, g.vertices()).to_json() == g.to_json()

    def test_clique_heredity(self):
        sub = induced(complete_graph(5), [0, 2, 4])
        assert sub.n == 3 and sub.m == 3

    def test_unknown_vertex(self):
        with pytest.raises(ValueError):
            induced(complete_graph(3), [0, 99])


class TestSerialization:
    def test_graph_json_round_trip(self):
        for g in (wall(3, 3),
                  path_star_graph(InfiniteWordSpec.power(2), range(1, 12), [1, 2, 3]),
                  subdivide(complete_graph(4), {(0, 1): 2})):
            text = g.to_json()
            assert LabeledGraph.from_json(text).to_json() == text

    def test_json_schema(self):
        g = path_star_graph(InfiniteWordSpec.arithmetic(), [1, 2], [1, 2])
        obj = g.to_obj()
        kinds = {v["tag"]["kind"] for v in obj["vertices"]}
        assert kinds == {"path", "star"}
        ids = [v["id"] for v in obj["vertices"]]
        assert ids == sorted(ids)
        assert all(u < v for u, v in obj["edges"])

    def test_dot_labels(self):
        g = path_star_graph(InfiniteWordSpec.arithmetic(), [1, 2], [1, 2])
        dot = g.to_dot()
        assert 'label="p1"' in dot and 'label="s2"' in dot

    def test_witness_round_trip(self):
        _, w = canonical_sail(3)
        assert SailWitness.from_obj(w.to_obj()) == w


class TestSubdividedWitness:
    def test_subdivided_path_edges(self):
        g, w = canonical_sail(3)
        path_edges = [e for e in g.edges() if e[0] > 0 and e[1] > 0]
        g2 = subdivide(g, {e: 1 for e in path_edges})
        w2 = SailWitness(stars=w.stars, paths=w.paths, subdivided=True)
        assert is_t_sail_witness(g2, w2).ok
        # the unsubdivided reading must fail on the stretched paths
        assert not is_t_sail_witness(g2, w).ok

    def test_subdivided_star_edges(self):
        g, w = canonical_sail(3)
        star_edges = [e for e in g.edges() if min(e) < 0]
        g2 = subdivide(g, {star_edges[0]: 2})
        w2 = SailWitness(stars=w.stars, paths=w.paths, subdivided=True)
        assert is_t_sail_witness(g2, w2).ok

    def test_dangling_reference(self):
        g, w = canonical_sail(2)
        bad = SailWitness(stars=(99,) + w.stars[1:], paths=w.paths)
        with pytest.raises(ValueError):
            is_t_sail_witness(g, bad)


def random_graph(rng, n, p):
    tags = {v: PLAIN for v in range(n)}
    return LabeledGraph(tags, [e for e in itertools.combinations(range(n), 2)
                               if rng.random() < p])


def random_paths_and_cycles(rng, n):
    """Disjoint paths and cycles on shuffled ids, so the walk order is not
    the id order."""
    ids = list(range(n))
    rng.shuffle(ids)
    edges, i = [], 0
    while i < n:
        size = rng.randint(1, n - i)
        run = ids[i:i + size]
        edges.extend(zip(run, run[1:]))
        if size >= 3 and rng.random() < 0.5:
            edges.append((run[-1], run[0]))
        i += size
    return LabeledGraph({v: PLAIN for v in range(n)}, edges)


class TestComponentsAndWalk:
    """`components` and `walk` against networkx on seeded random graphs."""

    def test_components_match_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(11)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 18), rng.choice([0.05, 0.1, 0.2, 0.4]))
            h = nx.Graph(g.edges())
            h.add_nodes_from(g.vertices())
            for vertices in (g.vertices(),
                             rng.sample(g.vertices(), rng.randint(0, g.n))):
                got = components(g.neighbors, vertices)
                sub = h.subgraph(vertices)
                first = {v: i for i, v in reversed(list(enumerate(vertices)))}
                want = sorted((sorted(c) for c in nx.connected_components(sub)),
                              key=lambda c: min(first[v] for v in c))
                assert got == want
                assert sorted(components(g.neighbors, set(vertices))) == sorted(want)

    def test_walk_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(12)
        for _ in range(200):
            g = random_paths_and_cycles(rng, rng.randint(1, 14))
            within = set(rng.sample(g.vertices(), rng.randint(1, g.n)))
            if rng.random() < 0.3:
                within = set(g.vertices())
            sub = nx.Graph(g.edges()).subgraph(within).copy()
            sub.add_nodes_from(within)
            start = rng.choice(sorted(within))
            comp = nx.node_connected_component(sub, start)
            order = walk(g.neighbors, start, within)
            assert sorted(order) == sorted(comp)
            assert all(sub.has_edge(a, b) for a, b in zip(order, order[1:]))
            if len(comp) > 2 and all(sub.degree(v) == 2 for v in comp):
                assert order[0] == min(comp) and sub.has_edge(order[-1], order[0])
                assert order[1] < order[-1]
            elif sub.degree(start) <= 1:
                assert order[0] == start
            else:
                assert order[0] < order[-1]

    def test_cycle_walk_start_and_direction(self):
        g = LabeledGraph({v: PLAIN for v in range(5)},
                         [(0, 4), (4, 1), (1, 3), (3, 2), (2, 0)])
        for start in range(5):
            assert walk(g.neighbors, start, set(range(5))) == [0, 2, 3, 1, 4]

    def test_path_walk_from_either_end_or_inside(self):
        g = path_graph(5)
        within = set(range(5))
        assert walk(g.neighbors, 4, within) == [4, 3, 2, 1, 0]
        assert walk(g.neighbors, 0, within) == [0, 1, 2, 3, 4]
        assert walk(g.neighbors, 2, within) == [0, 1, 2, 3, 4]
        assert walk(g.neighbors, 3, {1, 2, 3}) == [3, 2, 1]

    def test_branching_component_raises(self):
        g = complete_bipartite(1, 3)
        with pytest.raises(ValueError):
            walk(g.neighbors, 1, set(g.vertices()))
        assert walk(g.neighbors, 1, {0, 1, 2}) == [1, 0, 2]
        adj = {0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0}}
        with pytest.raises(ValueError):
            walk(adj.__getitem__, 0, adj)


# ---------------------------------------------------------------------------
# the recursive path searches and peel loops that `simple_paths` and `peel`
# replaced, kept as references
# ---------------------------------------------------------------------------

def find_path_reference(host, starts, allowed, k):
    """A simple path of k vertices, its other vertices inside `allowed`,
    from the first of `starts` that begins one; None if none does."""
    for start in starts:
        out = [start]

        def dfs(cur):
            if len(out) == k:
                return True
            for w in sorted(host.neighbors(cur)):
                if w in allowed and w not in out:
                    out.append(w)
                    if dfs(w):
                        return True
                    out.pop()
            return False

        if dfs(start):
            return out
    return None


def find_cycle_reference(host, allowed, k):
    """A simple cycle of at least k vertices inside `allowed`, or None."""
    for start in sorted(allowed):
        path = [start]

        def dfs(cur):
            for w in sorted(host.neighbors(cur)):
                if w == start and len(path) >= k:
                    return True
                if w in allowed and w not in path and w > start:
                    path.append(w)
                    if dfs(w):
                        return True
                    path.pop()
            return False

        if dfs(start):
            return path
    return None


def all_simple_paths_reference(g, comp_set):
    out = []

    def extend(path, used):
        out.append(tuple(path))
        for w in sorted(g.neighbors(path[-1])):
            if w in comp_set and w not in used:
                used.add(w)
                path.append(w)
                extend(path, used)
                path.pop()
                used.discard(w)

    for v in sorted(comp_set):
        extend([v], {v})
    return out


def contains_cycle_of_length_reference(g, k):
    order = {v: i for i, v in enumerate(g.vertices())}

    def dfs(start, u, depth, used):
        for w in g.neighbors(u):
            if w == start and depth == k:
                return True
            if depth < k and w not in used and order[w] > order[start]:
                used.add(w)
                if dfs(start, w, depth + 1, used):
                    return True
                used.discard(w)
        return False

    return any(dfs(start, start, 1, {start}) for start in g.vertices())


def strip_dangling_reference(host):
    keep = set(host.vertices())
    changed = True
    while changed:
        changed = False
        for v in list(keep):
            if sum(1 for w in host.neighbors(v) if w in keep) <= 1:
                keep.discard(v)
                changed = True
    return keep


def prune_dangling_reference(g, keep, removable):
    """The girth surgery's loop, with `removable` for its subdivision test."""
    keep = set(keep)
    changed = True
    while changed:
        changed = False
        for v in list(keep):
            if v in removable:
                live = sum(1 for x in g.neighbors(v) if x in keep)
                if live <= 1:
                    keep.discard(v)
                    changed = True
    return keep


class TestSimplePathsAndPeel:
    """`simple_paths` and `peel`, and the searches built on them, against
    the routines they replaced, on seeded random graphs."""

    def test_simple_paths_match_reference(self):
        rng = random.Random(41)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 12), rng.choice([0.15, 0.25, 0.35]))
            within = set(rng.sample(g.vertices(), rng.randint(0, min(g.n, 9))))
            want = all_simple_paths_reference(g, within)
            assert [p for v in sorted(within)
                    for p in simple_paths(g.neighbors, v, within)] == want
            max_len = rng.randint(1, 5)
            assert [p for v in sorted(within)
                    for p in simple_paths(g.neighbors, v, within, max_len)] == \
                [p for p in want if len(p) <= max_len]
            start = rng.choice(g.vertices())  # not always inside `within`
            assert list(simple_paths(g.neighbors, start, within)) == [
                p for p in all_simple_paths_reference(g, within | {start}) if p[0] == start]

    def test_path_and_cycle_searches_match_references(self):
        rng = random.Random(42)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.35, 0.5]))
            within = set(rng.sample(g.vertices(), rng.randint(0, g.n)))
            starts = rng.sample(g.vertices(), rng.randint(1, g.n))
            for k in range(1, 7):
                want = find_path_reference(g, starts, within, k)
                got = _find_path(g, starts, within, k, [10 ** 9])
                assert got == (None if want is None else tuple(want))
            for k in range(3, 8):
                want = find_cycle_reference(g, within, k)
                got = _find_cycle(g, within, k, [10 ** 9])
                assert got == (None if want is None else tuple(want))
            for k in range(3, min(g.n, 8) + 1):
                assert contains_cycle_of_length(g, k) == \
                    contains_cycle_of_length_reference(g, k)

    def test_peel_matches_references(self):
        rng = random.Random(43)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 12), rng.choice([0.1, 0.15, 0.25]))
            assert peel(g.neighbors, g.vertices()) == strip_dangling_reference(g)
            keep = rng.sample(g.vertices(), rng.randint(0, g.n))
            removable = set(rng.sample(g.vertices(), rng.randint(0, g.n)))
            assert peel(g.neighbors, keep, removable) == \
                prune_dangling_reference(g, keep, removable)
