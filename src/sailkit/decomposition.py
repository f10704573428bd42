"""Tree decompositions: validation, width, constructive builders, and the
exact tree-width oracle.

The three builders target graphs produced by `path_star_graph` for one word
family each.  The arithmetic builder produces a trunk of sliding-window bags
plus branch decompositions for path ends; the power and fibonacci builders
produce a star of caterpillars around a base bag of low star nodes.  Every
successful build validates against its input graph unconditionally; the
advertised width bounds additionally require the input to be free of large
sail structures.

The exact oracle is a memoized branch and bound over elimination prefixes
(dynamic programming over vertex subsets): eliminating a vertex set in any
order yields the same fill graph, so states are keyed by the eliminated
subset alone.  Upper bound from min-fill, lower bound from minor-min-width,
simplicial (fill degree <= 1) vertices eliminated eagerly.  Intended for
desk-scale verification, default cap 25 vertices.
"""

from __future__ import annotations

import heapq
import json
from itertools import chain

from .errors import CapExceededError, ObstructionError
from .graphs import (
    LabeledGraph,
    ValidationResult,
    _by_id,
    _each,
    _field,
    _int_list,
    _int_pairs,
    components,
    non_star_components,
    suppress,
    walk,
)
from .words import ARITHMETIC, FIBONACCI, POWER

EXACT_TW_CAP = 25


class TreeDecomposition:
    """A tree of bags over a host graph's vertices.

    Structural soundness (edges forming a tree) is checked by
    `validate_decomposition`, not the constructor, so malformed instances
    read from JSON can be diagnosed rather than rejected at parse time.
    """

    def __init__(self, bags, edges=()):
        self.bags = {node: frozenset(bag) for node, bag in dict(bags).items()}
        self.edges = []
        seen = set()
        for a, b in edges:
            if a not in self.bags or b not in self.bags:
                raise ValueError(f"tree edge ({a}, {b}) references unknown node")
            if a == b:
                raise ValueError(f"tree edge loop at node {a}")
            key = (min(a, b), max(a, b))
            if key not in seen:
                seen.add(key)
                self.edges.append(key)
        self.edges.sort()

    @property
    def n_nodes(self) -> int:
        return len(self.bags)

    def to_obj(self):
        return {
            "nodes": [{"id": i, "bag": sorted(self.bags[i])} for i in sorted(self.bags)],
            "edges": [list(e) for e in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_obj(cls, obj):
        bags = _each(_field(obj, "nodes", list, "decomposition"), "decomposition.nodes",
                     lambda node: (_field(node, "id", int),
                                   _int_list(_field(node, "bag", list), ".bag")))
        edges = _int_pairs(_field(obj, "edges", list, "decomposition"), "decomposition.edges")
        return cls(_by_id(bags, "decomposition.nodes"), edges)

    @classmethod
    def from_json(cls, text):
        return cls.from_obj(json.loads(text))

    def __repr__(self):
        return f"TreeDecomposition(nodes={self.n_nodes})"


def width(td: TreeDecomposition) -> int:
    """Maximum bag size minus one."""
    if not td.bags:
        raise ValueError("empty decomposition has no width")
    return max(len(bag) for bag in td.bags.values()) - 1


def validate_decomposition(g: LabeledGraph, td: TreeDecomposition) -> ValidationResult:
    """Check the three tree-decomposition conditions, returning all violations.

    Raises ValueError if the tree edges do not form a single tree.
    """
    nodes = sorted(td.bags)
    if not nodes:
        raise ValueError("decomposition has no nodes")
    adj = {i: set() for i in nodes}
    for a, b in td.edges:
        adj[a].add(b)
        adj[b].add(a)
    if len(td.edges) != len(nodes) - 1:
        raise ValueError(
            f"tree edges do not form a tree: {len(nodes)} nodes, {len(td.edges)} edges")
    if len(components(adj.__getitem__, nodes)) != 1:
        raise ValueError("tree edges do not form a connected tree")

    holding = {}  # vertex -> the nodes whose bags contain it
    for i in nodes:
        for v in td.bags[i]:
            holding.setdefault(v, set()).add(i)
    vertices = g.vertices()
    problems = [f"vertex {v} in no bag" for v in vertices if v not in holding]
    for v in sorted(holding.keys() - set(vertices)):
        problems.append(f"bag entry {v} is not a vertex of the graph")
    nowhere = frozenset()
    for u, v in g.edges():
        if holding.get(u, nowhere).isdisjoint(holding.get(v, nowhere)):
            problems.append(f"edge ({u}, {v}) not inside any bag")
    for v in vertices:
        if v in holding and len(components(adj.__getitem__, holding[v])) > 1:
            problems.append(f"bags containing vertex {v} are disconnected")
    return ValidationResult(not problems, tuple(problems))


# ---------------------------------------------------------------------------
# exact and heuristic tree-width
# ---------------------------------------------------------------------------

def _adjacency_masks(g):
    verts = g.vertices()
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for u, v in g.edges():
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return verts, adj


def _fill_degree(adj, eliminated, v):
    """Number of live vertices reachable from v through eliminated ones."""
    bit = 1 << v
    reach = adj[v] & ~eliminated & ~bit
    frontier = adj[v] & eliminated
    seen = bit
    while frontier:
        seen |= frontier
        grow = 0
        f = frontier
        while f:
            low = f & -f
            grow |= adj[low.bit_length() - 1]
            f ^= low
        reach |= grow & ~eliminated
        frontier = grow & eliminated & ~seen
    reach &= ~bit
    return reach.bit_count()


def _min_fill_order(g):
    """Greedy min-fill elimination order and the bags it produces.

    Picks the live vertex with the least (fill, degree, id) at every step.
    inner[x] counts the edges inside N(x), so fill(x) = C(deg x, 2) - inner[x];
    an elimination updates inner only around the eliminated vertex and the
    fill edges it adds, and a heap with lazily invalidated keys finds the
    minimum.
    """
    live = {v: set(g.neighbors(v)) for v in g.vertices()}
    inner = {v: sum(len(live[a] & ns) for a in ns) // 2 for v, ns in live.items()}

    def key(x):
        d = len(live[x])
        return (d * (d - 1) // 2 - inner[x], d, x)

    heap = [key(v) for v in live]
    heapq.heapify(heap)
    order, bags = [], []
    while live:
        k = heapq.heappop(heap)
        v = k[2]
        if v not in live or key(v) != k:
            continue
        ns = live.pop(v)
        order.append(v)
        bags.append({v} | ns)
        touched = set(ns)
        for a in ns:
            live[a].discard(v)
            inner[a] -= len(live[a] & ns)
        for a in ns:
            for b in ns:
                if a < b and b not in live[a]:
                    common = live[a] & live[b]
                    for x in common:
                        inner[x] += 1
                    inner[a] += len(common)
                    inner[b] += len(common)
                    touched |= common
                    live[a].add(b)
                    live[b].add(a)
        for x in touched:
            heapq.heappush(heap, key(x))
    return order, bags


def _minor_min_width(g):
    """Lower bound: repeatedly contract a minimum-degree vertex into its
    least-connected neighbor (Gogate & Dechter's minor-min-width)."""
    live = {v: set(g.neighbors(v)) for v in g.vertices()}
    lb = 0
    while live:
        d, v = min((len(ns), v) for v, ns in live.items())
        lb = max(lb, d)
        ns = live.pop(v)
        if ns:
            u = min((len(live[w] & ns), w) for w in ns)[1]
            merged = (live[u] | ns) - {u, v}
            for w in ns:
                live[w].discard(v)
            live[u] = merged
            for w in merged:
                live[w].add(u)
    return lb


def exact_treewidth(g: LabeledGraph, cap: int = EXACT_TW_CAP) -> int:
    """Exact tree-width of g; -1 for the empty graph.

    Branch and bound over elimination orderings with memoization on the
    eliminated vertex subset.  Deterministic: candidate vertices are tried
    in (fill degree, index) order.
    """
    n = g.n
    if n > cap:
        raise CapExceededError(f"exact tree-width capped at {cap} vertices, got {n}")
    if n == 0:
        return -1
    if g.m == 0:
        return 0

    _, adj = _adjacency_masks(g)
    _, fill_bags = _min_fill_order(g)
    ub = max(len(b) for b in fill_bags) - 1
    lb = _minor_min_width(g)
    if lb >= ub:
        return ub

    full = (1 << n) - 1
    best = ub
    memo = {}

    def search(eliminated, current):
        nonlocal best
        if eliminated == full:
            best = current
            return
        seen = memo.get(eliminated)
        if seen is not None and seen <= current:
            return
        memo[eliminated] = current

        cands = []
        rem = full & ~eliminated
        r = rem
        while r:
            low = r & -r
            v = low.bit_length() - 1
            cands.append((_fill_degree(adj, eliminated, v), v))
            r ^= low
        cands.sort()
        # a vertex of fill degree <= 1 is simplicial: safe to eliminate first
        if cands[0][0] <= 1:
            q, v = cands[0]
            nxt = max(current, q)
            if nxt < best:
                search(eliminated | (1 << v), nxt)
            return
        for q, v in cands:
            nxt = max(current, q)
            if nxt >= best:
                break
            search(eliminated | (1 << v), nxt)

    search(0, 0)
    return best


def heuristic_treewidth_upper(g: LabeledGraph):
    """Min-fill greedy upper bound and the matching valid decomposition.

    The min-fill order is built incrementally: each elimination updates fill
    counts around its neighbourhood only.  Ties break on (fill, degree, id),
    so the result is deterministic.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    order, bags = _min_fill_order(g)
    position = {v: i for i, v in enumerate(order)}
    td_bags = {i: bag for i, bag in enumerate(bags)}
    edges = []
    for i, bag in enumerate(bags):
        later = [position[v] for v in bag if position[v] > i]
        if later:
            edges.append((i, min(later)))
        elif i + 1 < len(bags):
            edges.append((i, i + 1))
    td = TreeDecomposition(td_bags, edges)
    return width(td), td


# ---------------------------------------------------------------------------
# shared builder helpers
# ---------------------------------------------------------------------------

def _letter_of(g, v):
    tag = g.tag(v)
    if tag.kind == "path":
        return g.origin.letter_at(tag.pos) if g.origin is not None else None
    return None


def _require_family(g, family, op):
    if g.origin is None or g.origin.family != family:
        got = g.origin.family if g.origin is not None else "none"
        raise ValueError(f"{op} requires a graph from the {family} family, got {got}")


class _Assembler:
    """Accumulates bags and tree edges; nodes are numbered in creation order."""

    def __init__(self):
        self.bags = []
        self.edges = []

    def add(self, bag, parent=None):
        node = len(self.bags)
        self.bags.append(frozenset(bag))
        if parent is not None:
            self.edges.append((parent, node))
        return node

    def first_containing(self, vertices):
        need = set(vertices)
        for i, bag in enumerate(self.bags):
            if need <= bag:
                return i
        return None

    def build(self):
        return TreeDecomposition(dict(enumerate(self.bags)), self.edges)


def _attach_caterpillar(asm, parent, base, run):
    """Chain of bags `base + {run[i], run[i+1]}` hanging off `parent`."""
    if len(run) == 1:
        return asm.add(base | {run[0]}, parent)
    node = parent
    for a, b in zip(run, run[1:]):
        node = asm.add(base | {a, b}, node)
    return node


def _star_of_branches(g, base_letters, op):
    """Common construction for the power and fibonacci builders.

    Root bag holds the base star set M; each star outside M hangs off the
    root in its own bag; each path component becomes a caterpillar of bags
    M (+ its extra star) + two consecutive vertices, attached accordingly.
    Raises ObstructionError if some component sees two stars outside M.
    """
    stars = g.star_nodes()
    base_ids = [stars[l] for l in base_letters]
    base = frozenset(base_ids)
    extra_ids = [v for l, v in stars.items() if l not in set(base_letters)]

    comps = non_star_components(g)
    comp_extra = []
    for comp in comps:
        touching = sorted(
            s for s in extra_ids if any(v in g.neighbors(s) for v in comp))
        if len(touching) > 1:
            letters = sorted(g.tag(s).letter for s in touching)
            raise ObstructionError(
                f"{op}: path component {comp} is adjacent to {len(touching)} star"
                f" nodes outside the base set (letters {letters}); this certifies"
                " a sail obstruction",
                component=comp, stars=touching)
        comp_extra.append(touching[0] if touching else None)

    asm = _Assembler()
    root = asm.add(base)
    extra_node = {s: asm.add(base | {s}, root) for s in extra_ids}

    for comp, extra in zip(comps, comp_extra):
        parent = extra_node[extra] if extra is not None else root
        comp_base = base | ({extra} if extra is not None else set())
        runs = _tree_runs(g, comp)
        _attach_component_tree(asm, parent, comp_base, comp, runs)
    return asm.build()


def _tree_runs(g, comp):
    """Edges of the component in rooted order (component must be a forest
    of paths or trees; cycles would make it not a path-star component)."""
    comp_set = set(comp)
    root = comp[0]
    seen = {root}
    order = []
    stack = [root]
    while stack:
        u = stack.pop()
        for w in sorted(g.neighbors(u)):
            if w in comp_set and w not in seen:
                seen.add(w)
                order.append((u, w))
                stack.append(w)
    if len(seen) != len(comp_set):
        raise ValueError("component is not connected")
    if len(order) != len(comp_set) - 1:
        raise ValueError("component contains a cycle; not a path-star component")
    return order


def _attach_component_tree(asm, parent, base, comp, runs):
    """One bag per component edge (plus a singleton bag for isolated
    vertices), mirroring the component's own tree shape."""
    if not runs:
        asm.add(base | {comp[0]}, parent)
        return
    edge_node = {}
    for u, w in runs:
        attach = edge_node.get(u, parent)
        edge_node[w] = asm.add(base | {u, w}, attach)


# ---------------------------------------------------------------------------
# the three builders
# ---------------------------------------------------------------------------

def build_power(g: LabeledGraph, q: int, t: int) -> TreeDecomposition:
    """Decomposition for power-word graphs: base set M of the first
    (t+1)(q-1) stars, one branch bag per extra star, caterpillars per path
    component.  Width <= (t+1)(q-1)+2 when no component needs two extra
    stars (otherwise ObstructionError)."""
    _require_family(g, POWER, "build_power")
    if g.origin.q != q:
        raise ValueError(f"graph is from the power({g.origin.q}) family, not power({q})")
    if t < 2:
        raise ValueError("t must be >= 2")
    letters = sorted(g.star_nodes())
    base = letters[: (t + 1) * (q - 1)]
    return _star_of_branches(g, base, "build_power")


def build_fibonacci(g: LabeledGraph, t: int) -> TreeDecomposition:
    """Decomposition for fibonacci-word graphs: same star-of-caterpillars
    shape with base set M of the first t+4 stars.  Width <= t+6 when no
    component needs two extra stars."""
    _require_family(g, FIBONACCI, "build_fibonacci")
    if t < 2:
        raise ValueError("t must be >= 2")
    letters = sorted(g.star_nodes())
    base = letters[: t + 4]
    return _star_of_branches(g, base, "build_fibonacci")


def build_arithmetic(g: LabeledGraph, t: int) -> TreeDecomposition:
    """Decomposition for arithmetic-word graphs.

    Skeleton vertices are the star nodes and the path vertices whose letter
    has a star in g; other vertices act as subdivisions and are spliced back
    in afterwards.  The trunk is a path of bags, one per window of t
    consecutive star letters, holding the window's stars, every skeleton run
    whose letters equal the window, the t-1 lowest stars, and every
    pre-factor vertex (a vertex immediately preceding a run of the first
    window).  Uncovered skeleton vertices can only form prefixes or
    suffixes of their components and become caterpillar branches.

    Width <= t*t + 2*t - 1 whenever g contains no subdivision of a t-sail.
    """
    _require_family(g, ARITHMETIC, "build_arithmetic")
    if t < 2:
        raise ValueError("t must be >= 2")

    stars = g.star_nodes()  # letter -> id, sorted by letter
    letters = list(stars)
    m = len(letters)
    rank = {l: i for i, l in enumerate(letters)}  # 0-based rank
    letter_set = set(letters)

    skeleton = set(stars.values())
    vletter = {}
    for v in g.vertices():
        l = _letter_of(g, v)
        if l is not None and l in letter_set:
            skeleton.add(v)
            vletter[v] = l

    chains, dangling, free = _contract_chains(g, skeleton)

    # contracted path adjacency between skeleton path vertices
    cadj = {v: set() for v in vletter}
    for u, v in chain(g.edges(), chains):
        if u in vletter and v in vletter:
            cadj[u].add(v)
            cadj[v].add(u)

    comps = _ordered_path_components(g, cadj)

    base_stars = [stars[l] for l in letters[: max(0, t - 1)]]
    n_windows = max(1, m - t + 1)
    windows = [letters[i: i + t] for i in range(n_windows)]

    # runs and pre-factor vertices
    run_members = [[] for _ in range(n_windows)]  # window -> list of runs
    covered = set()
    prefactors = set()
    first_window = letters[: t]
    for comp in comps:
        seq = [vletter[v] for v in comp]
        for start in range(len(comp) - t + 1):
            seg = seq[start: start + t]
            r = rank.get(seg[0])
            if r is None or r >= n_windows:
                continue
            if seg == windows[r]:
                run_members[r].append(comp[start: start + t])
                covered.update(comp[start: start + t])
        if m >= t:
            for l_idx in range(len(comp) - t):
                if seq[l_idx + 1: l_idx + t + 1] == first_window:
                    prefactors.add(comp[l_idx])

    asm = _Assembler()
    trunk = []
    for i in range(n_windows):
        bag = set(base_stars)
        bag.update(stars[l] for l in windows[i])
        bag.update(prefactors)
        for run in run_members[i]:
            bag.update(run)
        trunk.append(asm.add(bag, trunk[-1] if trunk else None))

    def lowest_trunk_with(vertex):
        for i in range(n_windows):
            if vertex in asm.bags[trunk[i]]:
                return trunk[i]
        return None

    def window_covering(piece_letters):
        lo = min(rank[l] for l in piece_letters)
        hi = max(rank[l] for l in piece_letters)
        i = max(0, min(hi - t + 1, lo, n_windows - 1))
        if set(piece_letters) <= set(windows[i]):
            return trunk[i]
        return None

    # branches for uncovered prefixes / suffixes / whole components
    for comp in comps:
        flags = [v in covered or v in prefactors for v in comp]
        if all(flags):
            continue
        if not any(flags):
            # a fully uncovered component is a cut head piece (letters of
            # consecutive ranks) possibly followed by low cut pieces whose
            # letters all lie among the base stars; the head anchors at its
            # window and the tail rides along on base-only bags
            ranks_seq = [rank[vletter[v]] for v in comp]
            split = len(comp)
            for idx in range(1, len(comp)):
                if ranks_seq[idx] <= ranks_seq[idx - 1]:
                    split = idx
                    break
            head, tail = comp[:split], comp[split:]
            if tail and any(rank[vletter[v]] > max(0, t - 2) for v in tail):
                raise ValueError(
                    "uncovered component tail uses letters outside the base"
                    " stars; graph violates the builder's structural"
                    " precondition")
            node = window_covering({vletter[v] for v in head})
            if node is None:
                raise ValueError(
                    "no trunk bag covers component letters "
                    f"{sorted({vletter[v] for v in head})}; graph violates the"
                    " builder's structural precondition")
            head_stars = {stars[vletter[v]] for v in head}
            node = _attach_caterpillar(asm, node, set(base_stars) | head_stars, head)
            if tail:
                node = asm.add(set(base_stars) | {head[-1], tail[0]}, node)
                _attach_caterpillar(asm, node, set(base_stars), tail)
            continue
        first_cov = flags.index(True)
        last_cov = len(flags) - 1 - flags[::-1].index(True)
        if not all(flags[first_cov: last_cov + 1]):
            raise ValueError(
                "uncovered skeleton vertices inside a component interior;"
                " graph violates the builder's structural precondition")
        if first_cov > 0:
            # the first covered vertex is the pre-factor sitting in every
            # trunk bag, so it anchors the branch and covers the joint edge
            piece = comp[:first_cov]
            anchor_vertex = comp[first_cov]
            node = window_covering({vletter[v] for v in piece})
            if node is None or anchor_vertex not in prefactors:
                raise ValueError(
                    "uncovered component prefix does not fit one star window;"
                    " graph violates the builder's structural precondition")
            branch_base = set(base_stars) | {stars[vletter[v]] for v in piece}
            _attach_caterpillar(asm, node, branch_base,
                                [anchor_vertex] + list(reversed(piece)))
        if last_cov < len(comp) - 1:
            piece = comp[last_cov + 1:]
            prev = comp[last_cov]
            piece_stars = {stars[vletter[v]] for v in piece}
            if not piece_stars <= set(base_stars):
                raise ValueError(
                    "uncovered component suffix uses letters outside the base"
                    " stars; graph violates the builder's structural precondition")
            anchor = lowest_trunk_with(prev)
            connector = asm.add(set(base_stars) | piece_stars | {prev, piece[0]},
                                anchor)
            _attach_caterpillar(asm, connector, set(base_stars) | piece_stars, piece)

    _splice_chains(asm, g, chains, dangling, free, trunk[0])
    return asm.build()


def _contract_chains(g, skeleton):
    """Split non-skeleton vertices into chains between two skeleton vertices,
    chains dangling off one, and free components touching none."""
    other = [v for v in g.vertices() if v not in skeleton]
    for v in other:
        if g.degree(v) > 2:
            raise ValueError(
                f"vertex {v} is neither a star, a lettered path vertex, nor a"
                " degree-<=2 connector; not a path-star graph for this builder")
    chains, dangling, free = {}, [], []
    for a, run, b in suppress(g.neighbors, g.vertices(), skeleton):
        if len(run) > 2 and run[0] in g.neighbors(run[-1]):
            raise ValueError("connector component is a cycle; not a path-star graph")
        if b is not None and a != b:
            chains[(a, b)] = run
        elif a is not None:
            dangling.append((a, run))
        else:
            free.append(run)
    return chains, dangling, free


def _ordered_path_components(g, cadj):
    """Contracted skeleton path components, each ordered end to end."""
    comps = []
    for comp in components(cadj.__getitem__, sorted(cadj)):
        order = walk(cadj.__getitem__, comp[0], cadj)
        if len(order) > 2 and order[0] in cadj[order[-1]]:
            raise ValueError("skeleton component is not a path")
        comps.append(order)
    return comps


def _splice_chains(asm, g, chains, dangling, free, fallback_node):
    for (u, w), interior in sorted(chains.items()):
        host = asm.first_containing({u, w})
        if host is None:
            raise ValueError(f"no bag contains both chain ends {u}, {w}")
        node = host
        for a, b in zip([u] + interior, interior + [w]):
            node = asm.add({a, b, w}, node)
    for u, interior in sorted(dangling):
        host = asm.first_containing({u})
        node = host if host is not None else fallback_node
        _attach_caterpillar(asm, node, set(), [u] + interior)
    for interior in free:
        _attach_caterpillar(asm, fallback_node, set(), interior)
