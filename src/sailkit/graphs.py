"""Finite labeled graphs: representation, generators, and structural queries.

Vertices carry tags (path vertex with its word position, star node with its
letter, subdivision vertex, or plain).  Graphs are immutable after
construction, so every query here is a pure function and safe to call
concurrently.

Vertex id conventions, chosen so ids are stable across instances:

* path-star graphs: path vertex at word position i has id i, the star node
  for letter l has id -l;
* walls: vertex (x, y) has id x*(m+1) + y (see `wall_vertex_id`);
* line graphs: edge ranks in sorted order;
* subdivision vertices: fresh ids above the current maximum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .errors import CapExceededError
from .words import InfiniteWordSpec, prefix as word_prefix

DEFAULT_POSITION_CAP = 1_000_000


@dataclass(frozen=True)
class VertexTag:
    kind: str  # "path" | "star" | "subdivision" | "plain"
    pos: int | None = None
    letter: int | None = None

    def to_obj(self):
        if self.kind == "path":
            return {"kind": "path", "pos": self.pos}
        if self.kind == "star":
            return {"kind": "star", "letter": self.letter}
        return {"kind": self.kind}

    @classmethod
    def from_obj(cls, obj, where="tag"):
        kind = _field(obj, "kind", str, where)
        if kind == "path":
            return cls("path", pos=_field(obj, "pos", int, where))
        if kind == "star":
            return cls("star", letter=_field(obj, "letter", int, where))
        if kind in ("subdivision", "plain"):
            return cls(kind)
        raise ValueError(f"{where}.kind: unknown tag kind {kind!r}")


def _field(obj, key, kind, where="", default=None):
    """``obj[key]``, checked to be of JSON type `kind` (int, str, bool, list
    or dict); `default` when the field is missing and a default is given.
    Anything else raises a ValueError naming `where` and `key`."""
    if type(obj) is not dict:
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        if default is None:
            raise ValueError(f"{where}: missing field {key!r}")
        return default
    value = obj[key]
    if type(value) is not kind:  # exact, so that true/false are not integers
        raise ValueError(f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _int_list(value, where=""):
    """`value` as a tuple of ints, or a ValueError naming `where`."""
    if type(value) is not list or not {int}.issuperset(map(type, value)):
        raise ValueError(f"{where}: expected a list of integers")
    return tuple(value)


def _int_pairs(items, where):
    """`items` as a list of int pairs, or a ValueError naming the first bad one."""
    for i, e in enumerate(items):
        if type(e) is not list or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
            raise ValueError(f"{where}[{i}]: expected a pair of integers")
    return [tuple(e) for e in items]


def _each(items, where, parse):
    """``[parse(item) for item in items]``; a ValueError from item i gets
    ``where[i]`` put before its message."""
    out = []
    for i, item in enumerate(items):
        try:
            out.append(parse(item))
        except ValueError as exc:
            raise ValueError(f"{where}[{i}]{exc}") from None
    return out


PLAIN = VertexTag("plain")
SUBDIVISION = VertexTag("subdivision")


def path_tag(pos: int) -> VertexTag:
    return VertexTag("path", pos=pos)


def star_tag(letter: int) -> VertexTag:
    return VertexTag("star", letter=letter)


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a structural check, with one message per violation."""

    ok: bool
    problems: tuple[str, ...] = ()

    def __bool__(self):
        return self.ok


class LabeledGraph:
    """Simple undirected graph with tagged vertices.

    ``origin`` optionally records the word family a path-star graph was
    built from; induced subgraphs and subdivisions inherit it.
    """

    def __init__(self, tags, edges, origin: InfiniteWordSpec | None = None):
        self._tags = dict(tags)
        adj = {v: set() for v in self._tags}
        edge_set = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u not in self._tags or v not in self._tags:
                raise ValueError(f"edge ({u}, {v}) references unknown vertex")
            a, b = (u, v) if u < v else (v, u)
            edge_set.add((a, b))
            adj[a].add(b)
            adj[b].add(a)
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}
        self._edges = frozenset(edge_set)
        self.origin = origin

        stars, positions = set(), set()
        for v, tag in self._tags.items():
            if tag.kind == "star":
                if tag.letter in stars:
                    raise ValueError(f"duplicate star node for letter {tag.letter}")
                stars.add(tag.letter)
            elif tag.kind == "path":
                if tag.pos in positions:
                    raise ValueError(f"duplicate path vertex for position {tag.pos}")
                positions.add(tag.pos)

    # -- basic queries ------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._tags)

    @property
    def m(self) -> int:
        return len(self._edges)

    def vertices(self):
        return sorted(self._tags)

    def edges(self):
        return sorted(self._edges)

    def has_vertex(self, v) -> bool:
        return v in self._tags

    def has_edge(self, u, v) -> bool:
        return (min(u, v), max(u, v)) in self._edges

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v) -> int:
        return len(self._adj[v])

    def tag(self, v) -> VertexTag:
        return self._tags[v]

    def star_nodes(self) -> dict:
        """Mapping letter -> vertex id of the star node, sorted by letter."""
        out = {}
        for v, tag in self._tags.items():
            if tag.kind == "star":
                out[tag.letter] = v
        return dict(sorted(out.items()))

    def path_vertices(self) -> dict:
        """Mapping word position -> vertex id, sorted by position."""
        out = {}
        for v, tag in self._tags.items():
            if tag.kind == "path":
                out[tag.pos] = v
        return dict(sorted(out.items()))

    def induced(self, vertex_subset) -> "LabeledGraph":
        keep = set(vertex_subset)
        missing = keep - set(self._tags)
        if missing:
            raise ValueError(f"unknown vertices: {sorted(missing)}")
        tags = {v: self._tags[v] for v in keep}
        edges = [(u, v) for u, v in self._edges if u in keep and v in keep]
        return LabeledGraph(tags, edges, origin=self.origin)

    def connected_components(self):
        return components(self._adj.__getitem__, sorted(self._tags))

    # -- serialization -------------------------------------------------

    def to_obj(self):
        return {
            "vertices": [{"id": v, "tag": self._tags[v].to_obj()} for v in sorted(self._tags)],
            "edges": [list(e) for e in sorted(self._edges)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_obj(cls, obj, origin=None):
        tags = _each(_field(obj, "vertices", list, "graph"), "graph.vertices",
                     lambda v: (_field(v, "id", int),
                                VertexTag.from_obj(_field(v, "tag", dict), ".tag")))
        edges = _int_pairs(_field(obj, "edges", list, "graph"), "graph.edges")
        return cls(dict(tags), edges, origin=origin)

    @classmethod
    def from_json(cls, text, origin=None):
        return cls.from_obj(json.loads(text), origin=origin)

    def to_dot(self) -> str:
        def label(v):
            tag = self._tags[v]
            if tag.kind == "path":
                return f"p{tag.pos}"
            if tag.kind == "star":
                return f"s{tag.letter}"
            if tag.kind == "subdivision":
                return f"d{v}"
            return f"v{v}"

        lines = ["graph {"]
        for v in sorted(self._tags):
            lines.append(f'  {v} [label="{label(v)}"];')
        for u, v in sorted(self._edges):
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        return f"LabeledGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class SailWitness:
    """Ordered star nodes plus ordered disjoint path components.

    Star i must be adjacent to (or, for subdivided witnesses, joined through
    degree-2 chains to) path component j for every i <= j.
    """

    stars: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]
    subdivided: bool = False

    @property
    def order(self) -> int:
        return len(self.stars)

    def to_obj(self):
        return {
            "stars": list(self.stars),
            "paths": [list(p) for p in self.paths],
            "subdivided": self.subdivided,
        }

    @classmethod
    def from_obj(cls, obj):
        return cls(
            stars=_int_list(_field(obj, "stars", list, "witness"), "witness.stars"),
            paths=tuple(_each(_field(obj, "paths", list, "witness"), "witness.paths", _int_list)),
            subdivided=_field(obj, "subdivided", bool, "witness", default=False),
        )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def wall_vertex_id(m: int, x: int, y: int) -> int:
    """Stable id of wall vertex (x, y) in an m-row wall."""
    return x * (m + 1) + y


def wall(m: int, n: int) -> LabeledGraph:
    """Brick wall with m rows of bricks, horizontal extent 2n columns.

    Columns x = 0 .. 2n-1; even columns carry rows y = 0 .. m-1 and odd
    columns rows y = 1 .. m.  Unit horizontal edges where both endpoints
    exist, skip edges (x, y)-(x+2, y) where the middle column has no vertex,
    and vertical edges at even x+y.  |V| = 2nm.
    """
    if m < 1 or n < 1:
        raise ValueError("wall needs m, n >= 1")
    coords = set()
    for x in range(2 * n):
        z = x % 2
        for y in range(m):
            coords.add((x, y + z))
    edges = []
    for x, y in coords:
        if (x + 1, y) in coords:
            edges.append(((x, y), (x + 1, y)))
        if (x + 2, y) in coords and (x + 1, y) not in coords:
            edges.append(((x, y), (x + 2, y)))
        if (x, y + 1) in coords and (x + y) % 2 == 0:
            edges.append(((x, y), (x, y + 1)))
    vid = {c: wall_vertex_id(m, *c) for c in coords}
    tags = {vid[c]: PLAIN for c in coords}
    return LabeledGraph(tags, [(vid[a], vid[b]) for a, b in edges])


def complete_graph(t: int) -> LabeledGraph:
    tags = {i: PLAIN for i in range(t)}
    return LabeledGraph(tags, combinations(range(t), 2))


def complete_bipartite(r: int, s: int) -> LabeledGraph:
    tags = {i: PLAIN for i in range(r + s)}
    return LabeledGraph(tags, [(i, r + j) for i in range(r) for j in range(s)])


def cycle_graph(k: int) -> LabeledGraph:
    tags = {i: PLAIN for i in range(k)}
    return LabeledGraph(tags, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k: int) -> LabeledGraph:
    tags = {i: PLAIN for i in range(k)}
    return LabeledGraph(tags, [(i, i + 1) for i in range(k - 1)])


def line_graph(g: LabeledGraph) -> LabeledGraph:
    """Graph on the edges of g; adjacency means sharing an endpoint."""
    base_edges = g.edges()
    tags = {i: PLAIN for i in range(len(base_edges))}
    edges = []
    for i, j in combinations(range(len(base_edges)), 2):
        if set(base_edges[i]) & set(base_edges[j]):
            edges.append((i, j))
    return LabeledGraph(tags, edges)


def subdivide(g: LabeledGraph, plan) -> LabeledGraph:
    """Replace each planned edge by a path through new degree-2 vertices.

    ``plan`` maps edges of g to the number of internal vertices to insert;
    count 0 leaves the edge alone.  Unplanned edges are unchanged.
    """
    normalized = {}
    for (u, v), count in plan.items():
        key = (min(u, v), max(u, v))
        if not g.has_edge(*key):
            raise ValueError(f"edge {key} not in graph")
        if count < 0:
            raise ValueError("subdivision count must be >= 0")
        normalized[key] = count

    tags = {v: g.tag(v) for v in g.vertices()}
    edges = []
    next_id = max(g.vertices(), default=0) + 1
    for u, v in g.edges():
        count = normalized.get((u, v), 0)
        if count == 0:
            edges.append((u, v))
            continue
        chain = list(range(next_id, next_id + count))
        next_id += count
        for w in chain:
            tags[w] = SUBDIVISION
        run = [u] + chain + [v]
        edges.extend(zip(run, run[1:]))
    return LabeledGraph(tags, edges, origin=g.origin)


def canonical_sail(t: int):
    """The triangular t-sail: path j has j vertices, star i meets vertex i
    of every path j >= i.  Returns the graph and its natural witness."""
    if t < 1:
        raise ValueError("t must be >= 1")
    tags = {}
    edges = []
    paths = []
    for i in range(1, t + 1):
        tags[-i] = star_tag(i)
    vid = 0
    for j in range(1, t + 1):
        row = []
        for i in range(1, j + 1):
            vid += 1
            tags[vid] = PLAIN
            row.append(vid)
            edges.append((-i, vid))
        edges.extend(zip(row, row[1:]))
        paths.append(tuple(row))
    g = LabeledGraph(tags, edges)
    witness = SailWitness(stars=tuple(range(-1, -t - 1, -1)), paths=tuple(paths))
    return g, witness


def path_star_graph(spec: InfiniteWordSpec, positions, star_letters,
                    cap: int = DEFAULT_POSITION_CAP) -> LabeledGraph:
    """Subgraph of the infinite path-star graph induced by the given
    positions and star letters.

    Path vertices at consecutive positions are adjacent; the star node for
    letter l is adjacent to every selected position whose word letter is l.
    Star nodes whose letter does not occur among the positions are allowed
    and come out isolated.
    """
    positions = sorted(set(positions))
    star_letters = sorted(set(star_letters))
    if positions and positions[0] < 1:
        raise ValueError("positions must be >= 1")
    if any(l < 1 for l in star_letters):
        raise ValueError("star letters must be >= 1")
    if positions and positions[-1] > cap:
        raise CapExceededError(f"position {positions[-1]} exceeds cap {cap}")

    letters = {}
    if positions:
        word = word_prefix(spec, positions[-1], cap=max(cap, positions[-1]))
        letters = {i: word.letters[i - 1] for i in positions}

    tags = {}
    edges = []
    for l in star_letters:
        tags[-l] = star_tag(l)
    star_set = set(star_letters)
    prev = None
    for i in positions:
        tags[i] = path_tag(i)
        if prev is not None and i == prev + 1:
            edges.append((prev, i))
        if letters[i] in star_set:
            edges.append((-letters[i], i))
        prev = i
    return LabeledGraph(tags, edges, origin=spec)


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------

def girth(g: LabeledGraph):
    """Length of a shortest cycle, or None for forests.

    BFS from every vertex; a non-tree edge seen at depths d(u), d(w) closes
    a walk of length d(u)+d(w)+1 through the root, which always contains a
    cycle no longer than that, and roots on a shortest cycle achieve it.
    """
    best = None
    vertices = g.vertices()
    for root in vertices:
        dist = {root: 0}
        parent = {root: None}
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if best is not None and dist[u] * 2 > best:
                break
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent[w] != u:
                    length = dist[u] + dist[w] + 1
                    if best is None or length < best:
                        best = length
    return best


def contains_cycle_of_length(g: LabeledGraph, k: int) -> bool:
    """Whether g has a simple cycle of exactly k vertices (k >= 3)."""
    if k < 3:
        raise ValueError("cycle length must be >= 3")
    within = set(g.vertices())
    for start in g.vertices():
        within.discard(start)  # each cycle is found from its minimum vertex
        for path in simple_paths(g.neighbors, start, within, k):
            if len(path) == k and start in g.neighbors(path[-1]):
                return True
    return False


def induced(g: LabeledGraph, vertex_subset) -> LabeledGraph:
    """Standard induced subgraph; tags and origin preserved."""
    return g.induced(vertex_subset)


def components(neighbors, vertices):
    """Connected components of the subgraph induced by `vertices`.

    ``neighbors(v)`` gives v's neighbours in the host graph (``g.neighbors``,
    or ``adj.__getitem__`` for a plain adjacency dict); only those in
    `vertices` are followed.  Each component is a sorted list, and
    components come in the order of their first vertex in `vertices`.
    """
    within = vertices if isinstance(vertices, (set, frozenset)) else set(vertices)
    seen, comps = set(), []
    for start in vertices:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            u = stack.pop()
            for w in neighbors(u):
                if w in within and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(sorted(comp))
    return comps


def walk(neighbors, start, within):
    """The path or cycle component of `start` inside `within`, in walk order.

    Each step goes to the smallest unvisited neighbour in `within`.  A path
    is walked from `start` when `start` is one of its ends, and from its
    smaller end otherwise.  A cycle is walked once, from its minimum vertex
    toward the smaller of that vertex's neighbours.  Raises ValueError when
    the component has a vertex with more than two neighbours in `within`.
    """
    seen = set()

    def run(cur):
        order = []
        while cur is not None:
            order.append(cur)
            seen.add(cur)
            ns = [w for w in neighbors(cur) if w in within]
            if len(ns) > 2:
                raise ValueError(f"vertex {cur} has {len(ns)} neighbours: "
                                 "component is not a path or a cycle")
            cur = min((w for w in ns if w not in seen), default=None)
        return order

    order = run(start)
    rest = [w for w in neighbors(start) if w in within and w not in seen]
    if rest:  # `start` lies inside a path: add the side not walked yet
        order = run(rest[0])[::-1] + order
        return order if order[0] < order[-1] else order[::-1]
    if len(order) > 2 and order[-1] in neighbors(start):
        i = order.index(min(order))
        order = order[i:] + order[:i]
        if order[-1] < order[1]:
            order = order[:1] + order[:0:-1]
    return order


def simple_paths(neighbors, start, within, max_len=None):
    """Simple paths from `start` whose other vertices lie in `within`, as
    tuples in depth-first preorder: ascending neighbours, each path before
    its extensions, none longer than `max_len` vertices.  Iterative, so a
    long path does not hit Python's recursion limit."""
    path, on_path, pending = [start], {start}, []
    while True:
        yield tuple(path)
        if max_len is None or len(path) < max_len:
            pending.append(iter(sorted(w for w in neighbors(path[-1]) if w in within)))
        else:
            on_path.discard(path.pop())
        while pending:
            w = next((w for w in pending[-1] if w not in on_path), None)
            if w is not None:
                break
            pending.pop()
            on_path.discard(path.pop())
        else:
            return
        path.append(w)
        on_path.add(w)


def peel(neighbors, vertices, removable=None):
    """What is left of `vertices` after repeatedly dropping a member of
    `removable` (any vertex when None) with at most one neighbour left; the
    result does not depend on the order of the drops."""
    left = set(vertices)
    removable = left if removable is None else removable
    count = {v: sum(1 for w in neighbors(v) if w in left) for v in left}
    queue = [v for v in left if count[v] <= 1 and v in removable]
    while queue:
        v = queue.pop()
        left.discard(v)
        for w in neighbors(v):
            if w in left:
                count[w] -= 1
                if count[w] == 1 and w in removable:
                    queue.append(w)
    return left


def non_star_components(g: LabeledGraph):
    """Connected components of g minus its star nodes, sorted.

    For path-star graphs these are the path components (maximal runs of
    consecutive positions plus any subdivision vertices threaded through
    them).
    """
    stars = set(g.star_nodes().values())
    return components(g.neighbors, [v for v in g.vertices() if v not in stars])


# ---------------------------------------------------------------------------
# sail witness validation
# ---------------------------------------------------------------------------

def is_t_sail_witness(g: LabeledGraph, w: SailWitness) -> ValidationResult:
    """Check the sail witness invariants against g.

    Only the required coverage adjacencies (star i to path j for i <= j)
    are checked; extra adjacencies do not fail the witness.  For subdivided
    witnesses, consecutive path vertices and star coverage may be realized
    through chains of unlisted degree-2 vertices; chains are matched
    greedily (shortest first) and may not share interior vertices.
    """
    problems, _ = _check_witness(g, w)
    return ValidationResult(not problems, tuple(msg for msg, _ in problems))


def _check_witness(g, w):
    """Shared checker; returns (problems, chains).

    ``problems`` lists (message, pair) in report order; ``pair`` is the
    (star, component) index pair of a missing coverage, None otherwise.

    ``chains`` maps ("path", k, a, b) or ("cover", i, j) to the tuple of
    interior vertices realizing that connection (empty for direct edges).
    """
    listed = list(w.stars) + [v for p in w.paths for v in p]
    for v in listed:
        if not g.has_vertex(v):
            raise ValueError(f"witness references unknown vertex {v}")

    if len(set(listed)) != len(listed):
        return [("witness vertices are not pairwise distinct", None)], {}
    if any(len(p) == 0 for p in w.paths):
        return [("empty path component", None)], {}
    if len(w.paths) != len(w.stars):
        return [(f"witness has {len(w.stars)} stars but {len(w.paths)} path"
                 " components", None)], {}

    problems = []
    listed_set = set(listed)
    used_interior = set()
    chains = {}

    def chain_interiors(src, targets):
        """Shortest path from src to any vertex in targets through unlisted,
        unused, degree-2 vertices; returns (target, interiors) or None."""
        best = None
        parent = {src: None}
        queue = [(src, 0)]
        head = 0
        while head < len(queue):
            u, d = queue[head]
            head += 1
            for x in sorted(g.neighbors(u)):
                if x in targets and x != src:
                    interiors = []
                    back = u
                    while back != src:
                        interiors.append(back)
                        back = parent[back]
                    cand = (d, x, tuple(reversed(interiors)))
                    if best is None or cand < best:
                        best = cand
                elif (x not in parent and x not in listed_set
                      and x not in used_interior and g.degree(x) == 2):
                    parent[x] = u
                    queue.append((x, d + 1))
        if best is None:
            return None
        return best[1], best[2]

    # path components: consecutive listed vertices adjacent (or chained)
    for k, comp in enumerate(w.paths, start=1):
        for a, b in zip(comp, comp[1:]):
            if g.has_edge(a, b):
                continue
            if not w.subdivided:
                problems.append(
                    (f"path component {k}: vertices {a} and {b} not adjacent", None))
                continue
            found = chain_interiors(a, {b})
            if found is None:
                problems.append(
                    (f"path component {k}: no subdivision chain joins {a} and {b}", None))
                continue
            _, interiors = found
            used_interior.update(interiors)
            chains[("path", k, a, b)] = interiors

    # coverage: star i sees component j for all i <= j
    for i, star in enumerate(w.stars, start=1):
        for j in range(i, len(w.paths) + 1):
            comp = set(w.paths[j - 1])
            if any(x in comp for x in g.neighbors(star)):
                continue
            if not w.subdivided:
                problems.append(
                    (f"missing coverage: star {i} not adjacent to path component {j}"
                     f" (pair ({i}, {j}))", (i, j)))
                continue
            found = chain_interiors(star, comp)
            if found is None:
                problems.append(
                    (f"missing coverage: star {i} not joined to path component {j}"
                     f" (pair ({i}, {j}))", (i, j)))
                continue
            _, interiors = found
            used_interior.update(interiors)
            chains[("cover", i, j)] = interiors

    return problems, chains
