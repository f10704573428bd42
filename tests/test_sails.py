"""Sail discovery, clique minors, and girth surgery tests."""

import itertools
import random

import pytest

from sailkit.errors import CapExceededError
from sailkit.graphs import (
    LabeledGraph,
    PLAIN,
    SailWitness,
    canonical_sail,
    contains_cycle_of_length,
    is_t_sail_witness,
    path_graph,
    path_star_graph,
    star_tag,
    subdivide,
)
from sailkit.sails import (
    MinorModel,
    SailConstructionError,
    build_sail_from_intervals,
    clique_minor_model,
    find_sail_witness,
    sail_girth_surgery,
    validate_minor_model,
)
from sailkit.decomposition import exact_treewidth
from sailkit.words import InfiniteWordSpec, find_increasing_intervals, prefix

NU = InfiniteWordSpec.arithmetic()
ETA = InfiniteWordSpec.fibonacci()
K2 = InfiniteWordSpec.power(2)


def interval_sail(spec, t, bound=5000):
    letters = list(range(1, t + 1))
    intervals = find_increasing_intervals(spec, letters, bound)
    return build_sail_from_intervals(spec, intervals, letters)


class TestBuildFromIntervals:
    def test_nu_four_sail(self):
        g, w = build_sail_from_intervals(
            NU, [(1, 1), (2, 3), (4, 6), (7, 10)], [1, 2, 3, 4])
        assert is_t_sail_witness(g, w).ok
        assert w.order == 4

    def test_single_letter(self):
        g, w = build_sail_from_intervals(NU, [(1, 1)], [1])
        assert is_t_sail_witness(g, w).ok

    def test_power2_three_sail(self):
        g, w = interval_sail(K2, 3)
        assert is_t_sail_witness(g, w).ok

    def test_pipeline_all_families(self):
        for token in ("nu", "kappa:2", "kappa:3", "eta"):
            spec = InfiniteWordSpec.from_token(token)
            for t in range(1, 7):
                g, w = interval_sail(spec, t)
                assert is_t_sail_witness(g, w).ok, (token, t)

    def test_bad_interval_reports_pair(self):
        # interval 2 misses letter 2 entirely: positions 4..5 of the
        # arithmetic word read "2 3", so letter 1 is missing instead
        with pytest.raises(SailConstructionError) as err:
            build_sail_from_intervals(NU, [(1, 1), (4, 5)], [1, 2])
        assert err.value.pair == (1, 2)
        # interval 3 at positions 5..6 reads "3 1": only letter 2 is missing
        with pytest.raises(SailConstructionError) as err:
            build_sail_from_intervals(NU, [(1, 1), (2, 3), (5, 6)], [1, 2, 3])
        assert err.value.pair == (2, 3)
        assert "(pair (2, 3))" in str(err.value)

    def test_overlapping_intervals(self):
        with pytest.raises(ValueError):
            build_sail_from_intervals(NU, [(1, 3), (3, 5)], [1, 2])


class TestFindSailWitness:
    def test_canonical(self):
        for t in (1, 2, 3):
            g, _ = canonical_sail(t)
            w = find_sail_witness(g, t)
            assert w is not None and is_t_sail_witness(g, w).ok

    def test_no_stars_means_none(self):
        assert find_sail_witness(path_graph(10), 2) is None

    def test_too_few_stars(self):
        g, _ = canonical_sail(2)
        assert find_sail_witness(g, 3) is None

    def test_cap(self):
        g = path_star_graph(NU, range(1, 60), [1, 2, 3])
        with pytest.raises(CapExceededError):
            find_sail_witness(g, 3, cap=40)

    def test_example_four_sail_search(self):
        # the five-component induced subgraph over the multiples of three:
        # its letter projections are pinned in test_example_projection below
        g = example_graph()
        w = find_sail_witness(g, 4, cap=200)
        assert w is not None
        assert is_t_sail_witness(g, w).ok

    def test_agrees_with_brute_force(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(40):
            g = random_sail_host(rng)
            if g.n > 14:
                continue
            for t in (2, 3):
                fast = find_sail_witness(g, t, cap=20)
                slow = brute_force_sail_exists(g, t)
                assert (fast is not None) == slow, (g.to_json(), t)
                if fast is not None:
                    assert is_t_sail_witness(g, fast).ok
                checked += 1
        assert checked >= 40


def example_graph():
    """Five disjoint path components of the arithmetic word whose
    letter-projections onto {3,6,...,24} realize a known 4-sail."""
    intervals = [(5, 20), (44, 63), (158, 185), (221, 245), (281, 308)]
    positions = [i for lo, hi in intervals for i in range(lo, hi + 1)]
    return path_star_graph(NU, positions, range(3, 25, 3))


def test_example_projection():
    word = prefix(NU, 310)
    targets = [
        [3, 3, 3, 3, 6],
        [9, 3, 6, 9, 3, 6, 9],
        [6, 9, 12, 15, 18, 3, 6, 9, 12, 15],
        [12, 15, 18, 21, 3, 6, 9, 12, 15],
        [6, 9, 12, 15, 18, 21, 24, 3, 6, 9],
    ]
    picked = set(range(3, 25, 3))
    intervals = [(5, 20), (44, 63), (158, 185), (221, 245), (281, 308)]
    for (lo, hi), want in zip(intervals, targets):
        proj = [word.letters[i - 1] for i in range(lo, hi + 1)
                if word.letters[i - 1] in picked]
        assert proj == want


def random_sail_host(rng):
    """Small random path-star-like graphs for the brute-force comparison."""
    kind = rng.random()
    if kind < 0.5:
        spec = rng.choice([NU, K2, ETA])
        start = rng.randint(1, 20)
        length = rng.randint(2, 9)
        letters = sorted(rng.sample(range(1, 6), rng.randint(1, 3)))
        return path_star_graph(spec, range(start, start + length), letters)
    if kind < 0.75:
        g, _ = canonical_sail(rng.randint(1, 3))
        return g
    # sparse random graph with explicit star tags
    n_star = rng.randint(1, 3)
    n_path = rng.randint(2, 8)
    tags = {-(i + 1): star_tag(i + 1) for i in range(n_star)}
    tags.update({i: PLAIN for i in range(n_path)})
    edges = set()
    for i in range(n_path - 1):
        if rng.random() < 0.8:
            edges.add((i, i + 1))
    for s in range(1, n_star + 1):
        for i in range(n_path):
            if rng.random() < 0.3:
                edges.add((-s, i))
    return LabeledGraph(tags, edges)


def brute_force_sail_exists(g, t):
    """Fully independent enumerator over vertex-subset decompositions:
    choose t disjoint path-inducing vertex subsets and an ordered star
    t-subset, then test coverage directly."""
    stars = list(g.star_nodes().values())
    if len(stars) < t:
        return False
    non_star = [v for v in g.vertices() if v not in set(stars)]

    path_sets = []
    for size in range(1, len(non_star) + 1):
        for combo in itertools.combinations(non_star, size):
            if _induces_path(g, combo):
                path_sets.append(frozenset(combo))

    def covers(star, vertex_set):
        return any(w in vertex_set for w in g.neighbors(star))

    for star_tuple in itertools.permutations(stars, t):
        def assign(j, used):
            if j == t:
                return True
            for ps in path_sets:
                if ps & used:
                    continue
                if all(covers(star_tuple[i], ps) for i in range(j + 1)):
                    if assign(j + 1, used | ps):
                        return True
            return False

        if assign(0, frozenset()):
            return True
    return False


def _induces_path(g, combo):
    combo_set = set(combo)
    degs = [sum(1 for w in g.neighbors(v) if w in combo_set) for v in combo]
    if len(combo) == 1:
        return True
    if sum(degs) != 2 * (len(combo) - 1):
        return False
    if max(degs) > 2 or degs.count(1) != 2:
        return False
    seen = {combo[0]}
    stack = [combo[0]]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w in combo_set and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(combo)


class TestCliqueMinor:
    def test_canonical_models(self):
        for t in (1, 4):
            g, w = canonical_sail(t)
            model = clique_minor_model(g, w)
            assert model.order == t
            assert validate_minor_model(g, model).ok

    def test_interval_sail_model(self):
        g, w = interval_sail(NU, 4)
        model = clique_minor_model(g, w)
        assert validate_minor_model(g, model).ok

    def test_subdivided_model(self):
        g, w = canonical_sail(3)
        path_edges = [e for e in g.edges() if e[0] > 0 and e[1] > 0]
        g2 = subdivide(g, {e: 1 for e in path_edges})
        w2 = SailWitness(stars=w.stars, paths=w.paths, subdivided=True)
        model = clique_minor_model(g2, w2)
        assert validate_minor_model(g2, model).ok

    def test_invalid_witness_rejected(self):
        g, w = canonical_sail(3)
        bad = SailWitness(stars=w.stars[::-1], paths=w.paths)
        with pytest.raises(ValueError):
            clique_minor_model(g, bad)

    def test_split_set_detected(self):
        g, w = canonical_sail(3)
        model = clique_minor_model(g, w)
        sets = list(model.branch_sets)
        sets[2] = sets[2] | {w.paths[0][0]}  # steal a vertex: overlap
        res = validate_minor_model(g, MinorModel(tuple(sets)))
        assert not res.ok
        assert any("share" in p for p in res.problems)

    def test_disconnected_set_detected(self):
        g, w = canonical_sail(3)
        # path 3's endpoints without its middle vertex
        sets = [frozenset({w.stars[0]} | set(w.paths[0])),
                frozenset({w.stars[1]} | set(w.paths[1])),
                frozenset({w.stars[2], w.paths[2][0], w.paths[2][2]})]
        res = validate_minor_model(g, MinorModel(tuple(sets)))
        assert not res.ok
        assert any("not connected" in p for p in res.problems)

    def test_lower_bound_chain(self):
        for spec, t in [(NU, 4), (K2, 4), (ETA, 3)]:
            g, w = interval_sail(spec, t)
            model = clique_minor_model(g, w)
            assert validate_minor_model(g, model).ok
            if g.n <= 22:
                assert exact_treewidth(g) >= t - 1


class TestGirthSurgery:
    def test_eta_twelve_sail(self):
        g, w = interval_sail(ETA, 12)
        assert contains_cycle_of_length(g, 4)
        residual, kept = sail_girth_surgery(g, w, 4)
        assert kept.order >= (12 - 4) // 2
        assert is_t_sail_witness(residual, kept).ok
        assert not contains_cycle_of_length(residual, 4)

    def test_nu_ten_sail(self):
        g, w = interval_sail(NU, 10)
        residual, kept = sail_girth_surgery(g, w, 4)
        assert kept.order >= 3
        assert is_t_sail_witness(residual, kept).ok
        assert not contains_cycle_of_length(residual, 4)

    def test_power_branch_removes_q_stars(self):
        spec = InfiniteWordSpec.power(5)
        g, w = interval_sail(spec, 11, bound=40000)
        residual, kept = sail_girth_surgery(g, w, 4)
        # q = 5 > m = 4, so the first five stars go, then alternates
        assert kept.stars == w.stars[5::2]
        assert is_t_sail_witness(residual, kept).ok
        assert not contains_cycle_of_length(residual, 4)

    def test_precondition(self):
        g, w = interval_sail(NU, 8)
        with pytest.raises(ValueError):
            sail_girth_surgery(g, w, 4)  # needs t > 2m

    def test_subdivided_input(self):
        g, w = interval_sail(ETA, 12)
        path_edges = [e for e in g.edges() if e[0] > 0 and e[1] > 0]
        plan = {e: 1 for i, e in enumerate(sorted(path_edges)) if i % 7 == 0}
        g2 = subdivide(g, plan)
        w2 = SailWitness(stars=w.stars, paths=w.paths, subdivided=True)
        assert is_t_sail_witness(g2, w2).ok
        residual, kept = sail_girth_surgery(g2, w2, 4)
        assert kept.order >= 4
        assert is_t_sail_witness(residual, kept).ok
        assert not contains_cycle_of_length(residual, 4)
