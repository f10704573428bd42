"""Property tests of the JSON boundary: round trips of the four file
formats, and `from_obj` on arbitrary JSON raising only ValueError.

Derandomized with a small example count, so the suite stays deterministic
and fast."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sailkit.decomposition import TreeDecomposition  # noqa: E402
from sailkit.graphs import LabeledGraph, SailWitness, VertexTag  # noqa: E402
from sailkit.sails import MinorModel  # noqa: E402

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

ids = st.integers(-20, 40)


@st.composite
def graphs(draw):
    vertices = draw(st.lists(ids, unique=True, max_size=12))
    tags = {}
    for v in vertices:
        kind = draw(st.sampled_from(["plain", "subdivision", "path", "star"]))
        if kind == "path" and v not in {t.pos for t in tags.values()}:
            tags[v] = VertexTag("path", pos=v)
        elif kind == "star" and -v not in {t.letter for t in tags.values()}:
            tags[v] = VertexTag("star", letter=-v)
        else:
            tags[v] = VertexTag("plain" if kind in ("path", "star") else kind)
    pairs = [(a, b) for a in vertices for b in vertices if a < b]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return LabeledGraph(tags, edges)


@st.composite
def decompositions(draw):
    nodes = draw(st.lists(ids, unique=True, min_size=1, max_size=8))
    bags = {node: draw(st.frozensets(ids, max_size=5)) for node in nodes}
    edges = [(draw(st.sampled_from(nodes[:i])), node) for i, node in enumerate(nodes) if i]
    return TreeDecomposition(bags, edges)


@st.composite
def witnesses(draw):
    listed = draw(st.lists(ids, unique=True, max_size=12))
    t = draw(st.integers(0, len(listed) // 2))
    rest, paths = listed[t:], []
    for _ in range(t):
        cut = draw(st.integers(1, max(1, len(rest) - (t - len(paths) - 1))))
        paths.append(tuple(rest[:cut]))
        rest = rest[cut:]
    return SailWitness(tuple(listed[:t]), tuple(paths), draw(st.booleans()))


models = st.lists(st.frozensets(ids, max_size=5), max_size=5).map(
    lambda sets: MinorModel(tuple(sets)))

KEYS = ["vertices", "edges", "id", "tag", "kind", "pos", "letter", "nodes", "bag",
        "stars", "paths", "subdivided", "branchSets", "path", "star", "plain"]
json_values = st.recursive(
    st.none() | st.booleans() | ids | st.floats(allow_nan=False) | st.sampled_from(KEYS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS), inner,
                                                                max_size=4),
    max_leaves=20)


@st.composite
def corrupted(draw):
    """A valid object of one of the four formats with one value somewhere
    inside replaced by arbitrary JSON."""
    obj = draw(st.one_of(graphs().map(LabeledGraph.to_obj),
                         decompositions().map(TreeDecomposition.to_obj),
                         witnesses().map(SailWitness.to_obj),
                         models.map(MinorModel.to_obj)))
    node = obj
    while node:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
        else:
            node[key] = draw(json_values)
            break
    return obj


@SETTINGS
@given(graphs())
def test_graph_round_trip(g):
    back = LabeledGraph.from_obj(g.to_obj())
    assert back.to_obj() == g.to_obj()
    assert {v: back.tag(v) for v in back.vertices()} == {v: g.tag(v) for v in g.vertices()}


@SETTINGS
@given(decompositions())
def test_decomposition_round_trip(td):
    back = TreeDecomposition.from_obj(td.to_obj())
    assert (back.bags, back.edges) == (td.bags, td.edges)


@SETTINGS
@given(witnesses())
def test_witness_round_trip(w):
    assert SailWitness.from_obj(w.to_obj()) == w


@SETTINGS
@given(models)
def test_model_round_trip(model):
    assert MinorModel.from_obj(model.to_obj()) == model


@SETTINGS
@given(json_values | corrupted())
def test_from_obj_raises_only_value_error(obj):
    for parse in (LabeledGraph.from_obj, TreeDecomposition.from_obj,
                  SailWitness.from_obj, MinorModel.from_obj):
        try:
            parse(obj)
        except ValueError:
            pass
