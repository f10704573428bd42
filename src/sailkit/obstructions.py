"""Fixed-pattern subdivision detection, wall surgery, and the separator check.

`contains_subdivision` is exact within its caps.  It layers three stages:

1. counting rejects (vertex, edge, and degree-sequence dominance) that can
   certify absence outright;
2. a structured matcher that suppresses degree-2 vertices on both sides and
   matches the resulting core multigraphs with chain-capacity dominance --
   this finds embeddings quickly in subdivision-shaped hosts but cannot
   certify absence.  Its restart rounds stop once a round ends with no
   attempt cut by its tick limit (later rounds would repeat it), and its
   path and cycle searches for pendants and coreless pattern components
   spend one tick of `fast_budget` per path they look at;
3. a full interleaved branch-vertex/path search, complete up to a node
   budget (budget exhaustion raises, it never reports a silent "none").

Stages 2 and 3 run without dangling host trees when the pattern has minimum
degree >= 2, and once per host block when it is 2-connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice

from .errors import CapExceededError
from .graphs import (
    LabeledGraph,
    ValidationResult,
    complete_bipartite,
    complete_graph,
    blocks,
    bfs,
    components,
    line_graph,
    path_star_graph,
    peel,
    simple_paths,
    suppress,
    wall,
)
from .words import InfiniteWordSpec

HOST_CAP = 60
PATTERN_CAP = 10
SEARCH_BUDGET = 300_000
WALL_SURGERY_CAP = 60  # max k*t


@dataclass(frozen=True)
class SubdivisionEmbedding:
    """Map of pattern vertices to host vertices plus one host path per
    pattern edge; paths include their endpoints and have pairwise disjoint
    interiors that avoid all mapped vertices."""

    branch_map: dict
    paths: dict  # (u, v) with u < v  ->  tuple of host vertices

    def to_obj(self):
        return {
            "branch": {str(p): h for p, h in sorted(self.branch_map.items())},
            "paths": {f"{u}-{v}": list(path) for (u, v), path in sorted(self.paths.items())},
        }


def validate_embedding(host: LabeledGraph, pattern: LabeledGraph,
                       emb: SubdivisionEmbedding) -> ValidationResult:
    """Independent re-validation of a subdivision embedding."""
    problems = []
    images = list(emb.branch_map.values())
    if len(set(images)) != len(images):
        problems.append("branch map is not injective")
    if set(emb.branch_map) != set(pattern.vertices()):
        problems.append("branch map does not cover the pattern's vertices")
    if set(emb.paths) != {tuple(e) for e in pattern.edges()}:
        problems.append("paths do not cover the pattern's edges")
        return ValidationResult(False, tuple(problems))
    image_set = set(images)
    seen_interior = set()
    for (u, v), path in emb.paths.items():
        if path[0] != emb.branch_map[u] or path[-1] != emb.branch_map[v]:
            if path[0] == emb.branch_map[v] and path[-1] == emb.branch_map[u]:
                path = tuple(reversed(path))
            else:
                problems.append(f"path for edge ({u}, {v}) has wrong endpoints")
                continue
        for a, b in zip(path, path[1:]):
            if not host.has_edge(a, b):
                problems.append(f"path for edge ({u}, {v}) uses non-edge ({a}, {b})")
        for x in path[1:-1]:
            if x in image_set:
                problems.append(f"path for edge ({u}, {v}) passes through branch vertex {x}")
            if x in seen_interior:
                problems.append(f"interior vertex {x} used by two paths")
            seen_interior.add(x)
    return ValidationResult(not problems, tuple(problems))


# ---------------------------------------------------------------------------
# stage 1: counting rejects
# ---------------------------------------------------------------------------

def _counting_reject(host, pattern):
    if pattern.n > host.n or pattern.m > host.m:
        return True
    hd = sorted((host.degree(v) for v in host.vertices()), reverse=True)
    pd = sorted((pattern.degree(v) for v in pattern.vertices()), reverse=True)
    for i, d in enumerate(pd):
        if i >= len(hd) or hd[i] < d:
            return True
    return False


# ---------------------------------------------------------------------------
# stage 2: suppressed-core matching
# ---------------------------------------------------------------------------

class _Core:
    """Suppression of degree-2 runs: core vertices (degree >= 3), chains
    between them, loops, pendant tails, and coreless components."""

    def __init__(self, g):
        self.core = [v for v in g.vertices() if g.degree(v) >= 3]
        core_set = set(self.core)
        self.chains = {}    # (u, w) u < w -> list of interior tuples (from u)
        self.loops = {}     # u -> list of interior tuples
        self.pendants = {}  # u -> list of interior tuples (include the tip)
        self.path_comps = []
        self.cycle_comps = []
        self.isolated = []
        for u, w in g.edges():
            if u in core_set and w in core_set:
                self.chains.setdefault((u, w), []).append(())
        for a, run, b in suppress(g.neighbors, g.vertices(), core_set):
            run = tuple(run)
            if a is None:
                if len(run) == 1:
                    self.isolated.append(run[0])
                elif len(run) > 2 and run[0] in g.neighbors(run[-1]):
                    self.cycle_comps.append(run)
                else:
                    self.path_comps.append(run)
            elif b is None:
                self.pendants.setdefault(a, []).append(run)
            elif a == b:
                self.loops.setdefault(a, []).append(run)
            else:
                self.chains.setdefault((a, b), []).append(run)
        # each list in the order a scan of its first core vertex's sorted
        # neighbours meets it
        for (u, w), items in self.chains.items():
            items.sort(key=lambda interior, w=w: interior[0] if interior else w)
        for items in chain(self.loops.values(), self.pendants.values()):
            items.sort()

    def chain_adjacency(self):
        """Core vertex -> the core vertices a chain joins it to."""
        adj = {u: set() for u in self.core}
        for u, w in self.chains:
            adj[u].add(w)
            adj[w].add(u)
        return adj


def _structured_match(host, stripped, pattern, budget=12_000_000):
    """Core-level topological-minor search; None means inconclusive.

    Both sides are suppressed.  Pattern core vertices are placed on host
    core vertices and every pattern chain is routed as a vertex-disjoint
    path in the host core multigraph whose total interior capacity covers
    the chain's interior; the result is then expanded back to host paths.
    Pattern pendants, coreless components, and isolated vertices are routed
    through whatever the core phase left unused in `host`; `stripped` is
    `host` without its dangling trees.  Any embedding found is re-validated,
    so this stage only errs on the side of "inconclusive"; absence is never
    concluded here.
    """
    hc = _Core(stripped)
    pc = _Core(pattern)
    if len(pc.core) > len(hc.core):
        return None
    if pc.loops and not hc.loops:
        return None

    # host core multigraph: edge list of (u, w, capacity, oriented interior)
    hedges = []
    hadj = {u: [] for u in hc.core}
    for (u, w), items in sorted(hc.chains.items()):
        for interior in items:
            idx = len(hedges)
            hedges.append((u, w, len(interior), interior))
            hadj[u].append(idx)
            hadj[w].append(idx)

    # pattern core order: each vertex chain-adjacent to an earlier one
    padj = pc.chain_adjacency()
    order = _connected_order(pc.core, pattern.degree, padj.__getitem__)

    pchains = []  # (a, b, interior) pattern chains, routed when both placed
    for (a, b), items in sorted(pc.chains.items()):
        for interior in items:
            pchains.append((a, b, interior))

    # hop distances in the host core multigraph, for candidate ordering, and
    # chain-hop distances between pattern cores: a pattern path of L chains
    # maps to a host path of at least L hops, and every extra hop burns one
    # spare host core, so images can exceed pattern distance only by the
    # number of spares still available
    core_adj = hc.chain_adjacency()
    hop_dist = {u: dict(bfs(core_adj.__getitem__, [u])) for u in hc.core}
    pdist = {u: dict(bfs(padj.__getitem__, [u])) for u in pc.core}

    # Each depth-0 anchor gets its own escalating tick budget: wrong
    # anchors on rigid hosts waste enormous subtrees, so restarts dominate
    # a single deep search.  Failure here only means "inconclusive".
    MAX_ALTERNATIVES = 6

    def attempt(anchor, round_budget):
        phi = {}
        used_nodes = set()
        used_edges = set()
        routes = {}
        ticks = [round_budget]
        unplaced = [len(pc.core)]
        slack = len(hc.core) - len(pc.core)
        big = len(hc.core) + len(pc.core)

        def spares():
            return len(hc.core) - len(used_nodes) - unplaced[0]

        def core_paths(src, dst, need):
            # H*-paths src -> dst with interior capacity >= need, increasing
            # hop count; every intermediate core burns one spare
            max_hops = min(spares() + 1, 4)
            for limit in range(1, max_hops + 1):
                results = []
                queue = [(src, (), 0)]
                while queue:
                    ticks[0] -= 1
                    if ticks[0] < 0:
                        return
                    node, hops, cap = queue.pop()
                    for ei in hadj[node]:
                        if ei in used_edges or any(ei == h[0] for h in hops):
                            continue
                        u, w, c, _ = hedges[ei]
                        other = w if node == u else u
                        if other == dst:
                            if len(hops) + 1 == limit and cap + c >= need:
                                results.append(hops + ((ei, other),))
                            continue
                        if other in used_nodes or any(other == h[1] for h in hops):
                            continue
                        if len(hops) + 1 < limit:
                            queue.append((other, hops + ((ei, other),), cap + c + 1))
                results.sort()
                yield from results

        def route(chain_ids, k):
            if ticks[0] < 0:
                return False
            if k == len(chain_ids):
                return place(len(phi))
            ci = chain_ids[k]
            a, b, interior = pchains[ci]
            tried = 0
            for hops in core_paths(phi[a], phi[b], len(interior)):
                if tried >= MAX_ALTERNATIVES:
                    break
                tried += 1
                through = [node for _, node in hops[:-1]]
                edges_used = [ei for ei, _ in hops]
                used_nodes.update(through)
                used_edges.update(edges_used)
                routes[ci] = hops
                if route(chain_ids, k + 1):
                    return True
                del routes[ci]
                used_nodes.difference_update(through)
                used_edges.difference_update(edges_used)
            return False

        def place(i):
            ticks[0] -= 1
            if ticks[0] < 0:
                return False
            if i == len(order):
                return True
            v = order[i]
            pending = [ci for ci, (a, b, _) in enumerate(pchains)
                       if (a == v and b in phi) or (b == v and a in phi)]
            if i == 0:
                cands = [anchor]
            else:
                scored = []
                for h in hc.core:
                    if h in used_nodes or stripped.degree(h) < pattern.degree(v):
                        continue
                    score = 0
                    ok = True
                    for u, hu in phi.items():
                        du = pdist[v].get(u, big)
                        dh = hop_dist[hu].get(h, big)
                        if dh > du + slack:
                            ok = False
                            break
                        score += dh
                    if ok:
                        scored.append((score, h))
                cands = [h for _, h in sorted(scored)]
            for h in cands:
                phi[v] = h
                used_nodes.add(h)
                unplaced[0] -= 1
                if route(pending, 0):
                    return True
                del phi[v]
                used_nodes.discard(h)
                unplaced[0] += 1
            return False

        if place(0):
            return phi, routes, round_budget - ticks[0]
        return None, None, round_budget - ticks[0]

    anchors = [h for h in hc.core
               if stripped.degree(h) >= pattern.degree(order[0])] if order else []
    phi = routes = None
    remaining_budget = budget
    if not order:
        phi, routes = {}, {}
    else:
        round_budget = 40_000
        while remaining_budget > 0 and phi is None:
            exhausted = True
            for anchor in anchors:
                limit = min(round_budget, remaining_budget)
                got_phi, got_routes, spent = attempt(anchor, limit)
                remaining_budget -= spent
                if got_phi is not None:
                    phi, routes = got_phi, got_routes
                    break
                exhausted = exhausted and spent <= limit
                if remaining_budget <= 0:
                    break
            if phi is None and exhausted:
                # no attempt was cut by its limit: every later round would
                # repeat the same searches
                return None
            round_budget *= 10
    if phi is None:
        return None
    # the path and cycle searches below spend what the rounds left
    ticks = [remaining_budget]

    branch_map = dict(phi)
    paths = {}
    used = set(phi.values())

    def lay(pseq, hseq, span):
        """Map pattern path pseq onto host path hseq, len(hseq) >= len(pseq).

        pseq[0] is already mapped to hseq[0]; interior pattern vertices are
        mapped one-to-one.  In span mode pseq[-1] is already mapped to
        hseq[-1] and the final pattern edge absorbs the host tail; otherwise
        pseq[-1] lands on hseq[len(pseq)-1] and the tail stays free.
        """
        L = len(pseq)
        for idx in range(1, L - 1):
            branch_map[pseq[idx]] = hseq[idx]
        if not span and L >= 2:
            branch_map[pseq[L - 1]] = hseq[L - 1]
        for idx in range(L - 2):
            a, b = pseq[idx], pseq[idx + 1]
            paths[(min(a, b), max(a, b))] = (hseq[idx], hseq[idx + 1])
        if L >= 2:
            a, b = pseq[-2], pseq[-1]
            tail = tuple(hseq[L - 2:]) if span else (hseq[L - 2], hseq[L - 1])
            paths[(min(a, b), max(a, b))] = tail
        used.update(hseq if span else hseq[:L])

    # expand routed chains to full host paths
    for ci, (a, b, interior) in enumerate(pchains):
        node = phi[a]
        hpath = [node]
        for ei, nxt in routes[ci]:
            u, w, _, chain_interior = hedges[ei]
            hpath.extend(chain_interior if node == u else tuple(reversed(chain_interior)))
            hpath.append(nxt)
            node = nxt
        lay([a] + list(interior) + [b], hpath, span=True)

    # pattern loops onto host loops at the same image
    free_loops = {v: sorted(items, key=len) for v, items in hc.loops.items()}
    for v, items in sorted(pc.loops.items()):
        for p_int in sorted(items, key=len, reverse=True):
            cands = [it for it in free_loops.get(phi[v], [])
                     if len(it) >= len(p_int) and not (set(it) & used)]
            if not cands:
                return None
            h_int = cands[0]
            free_loops[phi[v]].remove(h_int)
            lay([v] + list(p_int) + [v], [phi[v]] + list(h_int) + [phi[v]], span=True)

    # pendants grow into anything unused around their image
    for v, items in sorted(pc.pendants.items()):
        for p_int in sorted(items, key=len, reverse=True):
            unused = set(host.vertices()) - used
            found = _find_path(host, [phi[v]], unused, len(p_int) + 1, ticks)
            if found is None:
                return None
            lay([v] + list(p_int), found, span=False)

    # coreless pattern components anywhere unused in the original host
    unused_set = {x for x in host.vertices() if x not in used}
    for pcyc in sorted(pc.cycle_comps, key=len, reverse=True):
        cyc = _find_cycle(host, unused_set, len(pcyc), ticks)
        if cyc is None:
            return None
        branch_map[pcyc[0]] = cyc[0]
        lay(list(pcyc) + [pcyc[0]], list(cyc) + [cyc[0]], span=True)
        unused_set -= set(cyc)
    for ppath in sorted(pc.path_comps, key=len, reverse=True):
        found = _find_path(host, sorted(unused_set), unused_set, len(ppath), ticks)
        if found is None:
            return None
        branch_map[ppath[0]] = found[0]
        lay(list(ppath), found, span=False)
        unused_set -= set(found[:len(ppath)])
    for pv in pc.isolated:
        if not unused_set:
            return None
        pick = min(unused_set)
        branch_map[pv] = pick
        used.add(pick)
        unused_set.discard(pick)

    emb = SubdivisionEmbedding(branch_map, paths)
    return emb if validate_embedding(host, pattern, emb) else None


def _find_path(host, starts, allowed, k, ticks):
    """A simple path of k vertices, its other vertices inside `allowed`,
    from the first of `starts` that begins one; None if none does within
    the ticks left."""
    paths = chain.from_iterable(simple_paths(host.neighbors, start, allowed, k)
                                for start in starts)
    return _first(paths, lambda path: len(path) == k, ticks)


def _find_cycle(host, allowed, k, ticks):
    """A simple cycle of at least k vertices inside `allowed`, found from
    its minimum vertex; None if none is found within the ticks left."""
    paths = chain.from_iterable(
        simple_paths(host.neighbors, start, {w for w in allowed if w > start})
        for start in sorted(allowed))
    return _first(paths, lambda path: len(path) >= k and path[0] in host.neighbors(path[-1]),
                  ticks)


def _first(paths, wanted, ticks):
    """The first of `paths` that is `wanted`, spending one of ``ticks[0]``
    per path looked at; None when the paths or the ticks run out."""
    for path in islice(paths, max(ticks[0], 0)):
        ticks[0] -= 1
        if wanted(path):
            return path
    return None


# ---------------------------------------------------------------------------
# stage 3: full interleaved search
# ---------------------------------------------------------------------------

def _full_search(host, pattern, budget):
    p_order = _connected_order(pattern.vertices(), pattern.degree, pattern.neighbors)
    host_vs = host.vertices()
    images = {}
    used_interior = set()
    paths = {}
    counter = [budget]

    def tick():
        counter[0] -= 1
        if counter[0] < 0:
            raise CapExceededError(
                f"subdivision search budget {budget} exhausted"
                f" (host n={host.n}, pattern n={pattern.n})")

    def route_edges(pending, k):
        if k == len(pending):
            return place(len(images))
        a, b = pending[k]
        ha, hb = images[a], images[b]
        blocked = set(images.values()) | used_interior
        for path in _simple_paths(host, ha, hb, blocked, tick):
            interior = path[1:-1]
            used_interior.update(interior)
            paths[(min(a, b), max(a, b))] = path if a < b else tuple(reversed(path))
            if route_edges(pending, k + 1):
                return True
            del paths[(min(a, b), max(a, b))]
            used_interior.difference_update(interior)
        return False

    def place(i):
        tick()
        if i == len(p_order):
            return True
        v = p_order[i]
        pending = [(v, u) for u in pattern.neighbors(v) if u in images]
        for h in host_vs:
            if h in images.values() or h in used_interior:
                continue
            if host.degree(h) < pattern.degree(v):
                continue
            images[v] = h
            if route_edges(pending, 0):
                return True
            del images[v]
        return False

    if place(0):
        emb = SubdivisionEmbedding(dict(images), dict(paths))
        assert validate_embedding(host, pattern, emb).ok
        return emb
    return None


def _connected_order(vertices, degree, neighbors):
    """Vertices by (-degree, id), except that each next one is the first
    left that is adjacent to an earlier one, when any is."""
    order, placed = [], set()
    remaining = sorted(vertices, key=lambda v: (-degree(v), v))
    while remaining:
        nxt = next((v for v in remaining if not placed.isdisjoint(neighbors(v))),
                   remaining[0])
        order.append(nxt)
        placed.add(nxt)
        remaining.remove(nxt)
    return order


def _simple_paths(host, a, b, blocked, tick):
    """Simple a-b paths with interiors avoiding `blocked`, shortest first."""
    for limit in range(1, host.n + 1):
        found_longer = False
        stack = [(a, (a,))]
        while stack:
            tick()
            cur, path = stack.pop()
            if len(path) - 1 > limit:
                continue
            for w in sorted(host.neighbors(cur), reverse=True):
                if w == b:
                    if len(path) == limit:
                        yield path + (b,)
                    else:
                        found_longer = found_longer or len(path) < limit
                    continue
                if w in blocked or w in path:
                    continue
                if len(path) < limit:
                    stack.append((w, path + (w,)))
                    found_longer = True
        if not found_longer and limit > 1:
            return


def contains_subdivision(host: LabeledGraph, pattern: LabeledGraph, *,
                         host_cap: int = HOST_CAP, pattern_cap: int = PATTERN_CAP,
                         budget: int = SEARCH_BUDGET, fast_budget: int = 12_000_000):
    """An embedding of a subdivision of `pattern` in `host`, or None.

    None is exact: within the caps the search space is exhausted.  Caps and
    the search budget raise CapExceededError instead of guessing.
    `fast_budget` bounds the restart schedule of the structured first stage,
    which can only find embeddings, never certify absence; `budget` bounds
    the complete fallback search.

    Dangling host trees hold no vertex of a copy of a pattern of minimum
    degree >= 2, so they are peeled off.  A copy of a 2-connected pattern
    lies inside one host block, so then each block is searched on its own,
    with both budgets: CapExceededError means no block has the pattern and
    some block could not be decided.
    """
    if pattern.n > pattern_cap:
        raise CapExceededError(
            f"pattern has {pattern.n} vertices, cap is {pattern_cap}")
    if host.n > host_cap:
        raise CapExceededError(f"host has {host.n} vertices, cap is {host_cap}")
    if _counting_reject(host, pattern):
        return None
    if pattern.n == 0:
        return SubdivisionEmbedding({}, {})
    kept = peel(host.neighbors, host.vertices())
    stripped = host if len(kept) == host.n else host.induced(kept)
    if min(pattern.degree(v) for v in pattern.vertices()) < 2:
        return (_structured_match(host, stripped, pattern, fast_budget)
                or _full_search(host, pattern, budget))
    if len(blocks(pattern.neighbors, pattern.vertices())[0]) == 1:
        parts = blocks(stripped.neighbors, stripped.vertices())[0]
    else:
        parts = [stripped.vertices()]
    capped = None
    for part in parts:
        sub = stripped if len(part) == stripped.n else stripped.induced(part)
        if _counting_reject(sub, pattern):
            continue
        try:
            emb = (_structured_match(sub, sub, pattern, fast_budget)
                   or _full_search(sub, pattern, budget))
            if emb is not None:
                return emb
        except CapExceededError as exc:
            capped = exc
    if capped is not None:
        raise capped
    return None


# ---------------------------------------------------------------------------
# the four fixed obstruction patterns
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _kkw_patterns():
    w44 = wall(4, 4)
    return (
        ("K5", complete_graph(5)),
        ("K44", complete_bipartite(4, 4)),
        ("W4x4", w44),
        ("LW4x4", line_graph(w44)),
    )


def kkw_scan(g: LabeledGraph, *, host_cap: int = HOST_CAP,
             budget: int = SEARCH_BUDGET, fast_budget: int = 12_000_000) -> dict:
    """Presence of the four classical obstructions as subdivisions.

    Returns {"K5"|"K44"|"W4x4"|"LW4x4": "present"|"absent"|"cap"}.  Each
    entry decides whether g has a subdivision of the pattern as a subgraph,
    not as an induced subgraph.  The wall and line-graph entries use the
    fixed 4x4 patterns: "LW4x4" looks for a subdivision of L(W4x4), the
    line graph of the wall itself, not for the paper's line graph of a
    subdivided wall.  A "cap" entry means the search hit its budget, never
    a silent absence.
    """
    report = {}
    for name, pattern in _kkw_patterns():
        try:
            emb = contains_subdivision(g, pattern, host_cap=host_cap,
                                       pattern_cap=pattern.n, budget=budget,
                                       fast_budget=fast_budget)
            report[name] = "present" if emb is not None else "absent"
        except CapExceededError:
            report[name] = "cap"
    return report


# ---------------------------------------------------------------------------
# wall surgery
# ---------------------------------------------------------------------------

def wall_surgery(k: int, t: int, cap: int = WALL_SURGERY_CAP) -> LabeledGraph:
    """Delete the interiors of k-by-k brick blocks from a kt-brick-row wall.

    The base is `wall(kt, kt+1)`, which has exactly kt complete brick
    columns (the figure-style kt-by-kt brick wall; `wall(kt, kt)` itself is
    one brick column short, and its ragged right edge would leave cells too
    narrow for the girth bound).  Keeping the block-boundary rows (y
    divisible by k) and the t+1 zigzag columns that separate block columns
    leaves a t-by-t arrangement of long cells: a subdivision of the t-by-t
    wall with no cycle shorter than 8k-6.  k = 1 deletes nothing.
    """
    if k < 1 or t < 1:
        raise ValueError("k and t must be >= 1")
    if k * t > cap:
        raise CapExceededError(f"wall surgery capped at k*t <= {cap}, got {k * t}")
    m = k * t
    g = wall(m, m + 1)
    boundary_cols = set(range(0, m + 1, k))
    keep = []
    for v in g.vertices():
        x, y = divmod(v, m + 1)
        if y % k == 0 or (x // 2) in boundary_cols:
            keep.append(v)
    return g.induced(keep)


# ---------------------------------------------------------------------------
# separator property
# ---------------------------------------------------------------------------

def separator_check(spec: InfiniteWordSpec, positions, star_letters,
                    i: int, j: int, k: int) -> bool:
    """Does deleting every path vertex lettered x_1 or x_j separate star i
    from star k?  (Letters sorted ascending; indices are 1-based with
    1 < i < j < k <= n.)  True is the prediction for nested words."""
    letters = sorted(set(star_letters))
    n = len(letters)
    if not (1 < i < j < k <= n):
        raise ValueError(f"need 1 < i < j < k <= {n}, got ({i}, {j}, {k})")
    g = path_star_graph(spec, positions, letters)
    cut_letters = {letters[0], letters[j - 1]}
    blocked = set()
    for pos, v in g.path_vertices().items():
        if spec.letter_at(pos) in cut_letters:
            blocked.add(v)
    source = g.star_nodes()[letters[i - 1]]
    target = g.star_nodes()[letters[k - 1]]
    rest = [v for v in g.vertices() if v not in blocked and v != source]
    return target not in components(g.neighbors, [source] + rest)[0]
