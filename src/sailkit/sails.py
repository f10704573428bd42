"""Sail discovery, clique-minor certification, and girth surgery.

A t-sail's witness orders t star nodes and t disjoint path components so
that star i meets component j whenever i <= j.  Contracting each star with
its own component gives a K_t minor, so a validated witness certifies
tree-width >= t-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import CapExceededError
from .graphs import (
    LabeledGraph,
    SailWitness,
    ValidationResult,
    _check_witness,
    components,
    non_star_components,
    path_star_graph,
    walk,
)
from .words import POWER, InfiniteWordSpec

FIND_SAIL_CAP = 40


@dataclass(frozen=True)
class MinorModel:
    """Pairwise-disjoint connected branch sets witnessing a clique minor."""

    branch_sets: tuple[frozenset, ...]

    @property
    def order(self) -> int:
        return len(self.branch_sets)

    def to_obj(self):
        return {"branchSets": [sorted(s) for s in self.branch_sets]}

    @classmethod
    def from_obj(cls, obj):
        return cls(tuple(frozenset(s) for s in obj["branchSets"]))


class SailConstructionError(ValueError):
    """Interval data does not produce a valid witness; names the failing pair."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


def build_sail_from_intervals(spec: InfiniteWordSpec, intervals, letters):
    """Materialize the graph and witness for interval-built sails.

    ``intervals`` come from `find_increasing_intervals`: interval k must
    contain occurrences of letters[0..k-1].  Star k of the witness is the
    star of letters[k-1] and path component k is interval k's position run;
    coverage (star i meets component j for i <= j) then holds because
    component j contains all of the first j letters.
    """
    letters = list(letters)
    intervals = [tuple(iv) for iv in intervals]
    if len(letters) != len(intervals):
        raise ValueError("need exactly one interval per letter")
    positions = set()
    for lo, hi in intervals:
        if lo < 1 or hi < lo:
            raise ValueError(f"bad interval ({lo}, {hi})")
        positions.update(range(lo, hi + 1))
    if len(positions) != sum(hi - lo + 1 for lo, hi in intervals):
        raise ValueError("intervals overlap")

    g = path_star_graph(spec, positions, letters)
    stars = g.star_nodes()
    witness = SailWitness(
        stars=tuple(stars[l] for l in letters),
        paths=tuple(tuple(range(lo, hi + 1)) for lo, hi in intervals),
    )
    problems, _ = _check_witness(g, witness)
    if problems:
        raise SailConstructionError(
            "intervals do not cover their letter sets: "
            + "; ".join(msg for msg, _ in problems),
            pair=next((pair for _, pair in problems if pair), None))
    return g, witness


# ---------------------------------------------------------------------------
# exhaustive witness search
# ---------------------------------------------------------------------------

def find_sail_witness(g: LabeledGraph, t: int, cap: int = FIND_SAIL_CAP):
    """Search for a validating t-sail witness; None means none exists.

    Stars are drawn from the star-tagged vertices; path components from
    subpaths of g minus all star nodes.  Only minimal covering windows are
    tried per slot, which preserves existence: any witness shrinks to one.
    Star tuples are tried in letter-lexicographic order and components in
    vertex order, so the result is deterministic.  Exact within the cap;
    larger graphs raise rather than return a silent "none".
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if t >= 3 and g.n > cap:
        raise CapExceededError(
            f"exhaustive sail search capped at {cap} vertices for t >= 3, got {g.n}")

    stars_by_letter = g.star_nodes()
    star_ids = list(stars_by_letter.values())
    if len(star_ids) < t:
        return None

    segments = _candidate_segments(g)
    if not segments:
        return None

    adjacency = {}
    for s in star_ids:
        adjacency[s] = frozenset(g.neighbors(s))

    for combo in permutations(star_ids, t):
        witness = _assign_components(g, combo, segments, adjacency)
        if witness is not None and not _check_witness(g, witness)[0]:
            return witness
    return None


def _candidate_segments(g):
    """All subpaths of g minus stars, as vertex tuples in path order."""
    segs = []
    for comp in non_star_components(g):
        comp_set = set(comp)
        try:
            order = walk(g.neighbors, comp[0], comp_set)
        except ValueError:
            segs.extend(_all_simple_paths(g, comp_set))
            continue
        k = len(order)
        if k > 2 and order[-1] in g.neighbors(order[0]):
            # cycle component: all arcs shorter than the full cycle
            for start in range(k):
                for length in range(1, k):
                    segs.append(tuple(order[(start + off) % k]
                                      for off in range(length)))
        else:
            for i in range(k):
                for j in range(i, k):
                    segs.append(tuple(order[i:j + 1]))
    uniq = {}
    for s in segs:
        key = s if s[0] <= s[-1] else tuple(reversed(s))
        uniq.setdefault(key, key)
    return sorted(uniq)


def _all_simple_paths(g, comp_set):
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


def _assign_components(g, combo, segments, adjacency):
    """Backtracking over slots 1..t; slot j needs a segment meeting the
    first j stars of combo, restricted to minimal covering segments."""
    t = len(combo)
    slot_candidates = []
    for j in range(1, t + 1):
        needed = combo[:j]
        cands = [seg for seg in segments
                 if _covers(seg, needed, adjacency) and _minimal(seg, needed, adjacency)]
        if not cands:
            return None
        slot_candidates.append(cands)

    used = set()
    chosen = []

    def backtrack(j):
        if j == t:
            return True
        for seg in slot_candidates[j]:
            if any(v in used for v in seg):
                continue
            used.update(seg)
            chosen.append(seg)
            if backtrack(j + 1):
                return True
            chosen.pop()
            used.difference_update(seg)
        return False

    if backtrack(0):
        return SailWitness(stars=tuple(combo), paths=tuple(chosen))
    return None


def _covers(seg, stars, adjacency):
    seg_set = set(seg)
    return all(seg_set & adjacency[s] for s in stars)


def _minimal(seg, stars, adjacency):
    if len(seg) == 1:
        return True
    for trimmed in (seg[1:], seg[:-1]):
        if _covers(trimmed, stars, adjacency):
            return False
    return True


# ---------------------------------------------------------------------------
# clique minors
# ---------------------------------------------------------------------------

def clique_minor_model(g: LabeledGraph, w: SailWitness) -> MinorModel:
    """Branch sets from a validated witness: set k is star k with its own
    path component, plus (for subdivided witnesses) the interiors of the
    chains realizing component connectivity and the star's coverage."""
    problems, chains = _check_witness(g, w)
    if problems:
        raise ValueError("witness does not validate: "
                         + "; ".join(msg for msg, _ in problems))
    sets = []
    for k in range(1, w.order + 1):
        members = {w.stars[k - 1]}
        members.update(w.paths[k - 1])
        for (kind, *rest), interiors in chains.items():
            if kind == "path" and rest[0] == k:
                members.update(interiors)
            elif kind == "cover" and rest[0] == k:
                members.update(interiors)
        sets.append(frozenset(members))
    model = MinorModel(tuple(sets))
    result = validate_minor_model(g, model)
    if not result.ok:
        raise ValueError("constructed model is invalid: " + "; ".join(result.problems))
    return model


def validate_minor_model(g: LabeledGraph, model: MinorModel) -> ValidationResult:
    """Disjointness, per-set connectivity, and pairwise joining edges."""
    problems = []
    for idx, s in enumerate(model.branch_sets, start=1):
        for v in s:
            if not g.has_vertex(v):
                raise ValueError(f"branch set {idx} references unknown vertex {v}")
        if not s:
            problems.append(f"branch set {idx} is empty")
            continue
        if len(components(g.neighbors, s)) > 1:
            problems.append(f"branch set {idx} is not connected")
    for i in range(len(model.branch_sets)):
        for j in range(i + 1, len(model.branch_sets)):
            a, b = model.branch_sets[i], model.branch_sets[j]
            if a & b:
                problems.append(f"branch sets {i + 1} and {j + 1} share vertices")
                continue
            if not any(x in b for u in a for x in g.neighbors(u)):
                problems.append(f"no edge joins branch sets {i + 1} and {j + 1}")
    return ValidationResult(not problems, tuple(problems))


# ---------------------------------------------------------------------------
# girth surgery
# ---------------------------------------------------------------------------

def sail_girth_surgery(g: LabeledGraph, w: SailWitness, m: int):
    """Remove low and alternating star nodes so no m-cycle survives.

    Drops the first m witness stars (the first q for power-family graphs
    with q > m), then every second remaining star, keeping odd ranks.  The
    kept stars and their own components form a witness of order
    ceil((t - r)/2) >= floor((t - m)/2).  Dangling subdivision chains left
    by removed stars are pruned.
    """
    if m <= 3:
        raise ValueError("cycle length m must be > 3")
    t = w.order
    if t <= 2 * m:
        raise ValueError(f"surgery needs t > 2m, got t={t}, m={m}")
    if g.origin is None:
        raise ValueError("surgery needs the graph's word family (origin) recorded")
    star_letters = [g.tag(s).letter for s in w.stars]
    if any(b <= a for a, b in zip(star_letters, star_letters[1:])):
        raise ValueError("witness stars must be in increasing letter order")

    r = m
    if g.origin.family == POWER and g.origin.q > m:
        r = g.origin.q
    kept_idx = list(range(r, t, 2))
    removed = [w.stars[i] for i in range(t) if i not in set(kept_idx)]

    keep = set(g.vertices()) - set(removed)
    # prune subdivision chains that dangle once their star is gone
    changed = True
    while changed:
        changed = False
        for v in list(keep):
            if g.tag(v).kind == "subdivision":
                live = sum(1 for x in g.neighbors(v) if x in keep)
                if live <= 1:
                    keep.discard(v)
                    changed = True
    residual = g.induced(keep)
    witness = SailWitness(
        stars=tuple(w.stars[i] for i in kept_idx),
        paths=tuple(w.paths[i] for i in kept_idx),
        subdivided=w.subdivided,
    )
    return residual, witness
