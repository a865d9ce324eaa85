"""The observable graph contract, pinned as digests.

These SHA-256 digests were taken from the edge-scanning ``trace`` before the
relation graph was indexed by node.  They cover ``build_graph`` (nodes, edges
and dangling placeholders, in order) and ``export_edge_list`` on the fixtures
and on a 1,000-record cross-citing corpus, and the nodes and edges, in order,
of seeded ``trace`` queries on that corpus over every depth 0-3, direction and
predicate filter.  A change to any of them is a change to the contract, not an
optimisation.  The example tests below cover graphs the digests do not reach.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from helpers import FIXTURES, make_record
from knows_sidecar.errors import UnknownEntityError
from knows_sidecar.graph import Edge, QualifiedId, RelationGraph, build_graph, export_edge_list, trace
from knows_sidecar.model import EntityId, Ref, Relation
from knows_sidecar.serialization import load_record

FIXTURE_NAMES = ("bloom", "minimal", "moore", "techreport")
CORPUS_SIZE = 1000
DIRECTIONS = ("both", "forward", "backward")
FILTERS = (None, frozenset({"cites"}), frozenset({"supported_by", "limited_by"}), frozenset())
QUERIES_PER_CASE = 30

PAPER = EntityId("art", "paper")


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def _graph_digest(graph) -> str:
    return _digest(graph.nodes, graph.edges, graph.dangling, export_edge_list(graph))


def _cites(local: str, target: str) -> Relation:
    return Relation(
        id=EntityId("rel", local),
        subject_ref=Ref(PAPER),
        predicate="cites",
        object_ref=Ref(PAPER, record_id=target),
    )


def _corpus():
    """Generated records whose papers cite records i-1 and i+7.

    The last seven records cite papers beyond the corpus, which dangle.
    """
    out = []
    for i in range(CORPUS_SIZE):
        record = make_record(i)
        extra = (_cites("cites-next", f"10.9999/gen-{i + 7}"),)
        if i:
            extra = (_cites("cites-prev", f"10.9999/gen-{i - 1}"),) + extra
        out.append(replace(record, relations=record.relations + extra))
    return out


@pytest.fixture(scope="module")
def corpus_graph():
    return build_graph(_corpus())


FIXTURE_DIGESTS = {
    "bloom": "db194648fcc82a76a5c97b86c7640c0a3edc9f72987dd6ae10e1741e51e548df",
    "minimal": "9bc1833abdab24bd63d74d2118ddb3d68ac2d6743e9ba0246e800eed0988c5c8",
    "moore": "50ca17e5f692f0a0092da367c7bac350287b0d5594aa6be9a6e8bf43a646e84f",
    "techreport": "0884dacedeaf5f65a222d99a22594f1e2f11916eb595c0b697be859857638f5b",
}
CORPUS_DIGEST = "4c7bbe1d7538ae3ee47fa438a02d1f3a0ce419855f1a8e07890e06af047d927b"
TRACE_DIGESTS = {
    ("both", None): "5417437bc4d4a57e0dbf24711ed40c917ac346c87ef34b89234fd69e86079fec",
    ("both", frozenset({"cites"})): "01574e11a95265f121ce45e1635c6425408a153d099add5d87a56aabafadbfa8",
    ("both", frozenset({"limited_by", "supported_by"})): "7495fc5dbab96909c19f15429baad0929c43a7bb3d2c0f8174bb98ce72a64d8d",
    ("both", frozenset()): "bdfc0c43005a12118d28e623a5db1083a567a748c51d386e818f84de520d5281",
    ("forward", None): "16c2678310ab6643d512c162d7e71891161c420a32d6c8ea759103e47cb47c7b",
    ("forward", frozenset({"cites"})): "98d066233ffb6773a43aed82f3df873ac5f054a3a287ac0f1f2fda1377bfcdbb",
    ("forward", frozenset({"limited_by", "supported_by"})): "f3464de6a7734001c2c6ba563bfaa161effb00602732e070c47b9ca25889c021",
    ("forward", frozenset()): "2e12481a8457f06e83adc7e36738deca9c7764ffd6ceb31df805d6e8b7f0d679",
    ("backward", None): "ea3af1bd0bc4d3608297fb22589637c307cf1d9f87416164b0bee0bba9fb7dad",
    ("backward", frozenset({"cites"})): "06e221246b405ea850002514bbffc7879bcd3395eb1f0ab20205826597404fb9",
    ("backward", frozenset({"limited_by", "supported_by"})): "a35fe08bb2bfc31067239e418fe832e4b0c6bb55e9e182ebb9606b735693f3f8",
    ("backward", frozenset()): "e61dfd775507f899f4fc1b27d5c5f8bc274902253d0aa05ede0248f954c87fe8",
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_graph_digest(name):
    record, _ = load_record((FIXTURES / f"{name}.knows.yaml").read_bytes())
    assert _graph_digest(build_graph([record])) == FIXTURE_DIGESTS[name]


def test_corpus_graph_digest(corpus_graph):
    assert len(corpus_graph.dangling) == 7
    assert _graph_digest(corpus_graph) == CORPUS_DIGEST


def _queries(graph, direction, predicates):
    """Seeded (seed node, depth) pairs: half subject papers, half any node."""
    rng = random.Random(f"{direction}:{sorted(predicates) if predicates is not None else None}")
    papers = [n for n in graph.nodes if n.entity_id == PAPER]
    for i in range(QUERIES_PER_CASE):
        node = rng.choice(papers if i % 2 else graph.nodes)
        yield node, i // 2 % 4


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("predicates", FILTERS, ids=lambda p: "all" if p is None else "+".join(sorted(p)) or "none")
def test_trace_digest(corpus_graph, direction, predicates):
    results = []
    for node, depth in _queries(corpus_graph, direction, predicates):
        filt = None if predicates is None else set(predicates)
        sub = trace(node, corpus_graph, predicates=filt, depth=depth, direction=direction)
        results.append((sub.nodes, sub.edges, sub.dangling))
    assert _digest(*results) == TRACE_DIGESTS[(direction, predicates)]


def _q(name: str) -> QualifiedId:
    return QualifiedId("r", EntityId("art", name))


def _edge(subject: str, predicate: str, obj: str, rel: str) -> Edge:
    return Edge(_q(subject), predicate, _q(obj), QualifiedId("r", EntityId("rel", rel)))


# Nodes out of name order, an isolated node, and an edge to "x", which is no
# node; edges are listed so that hop order and position order differ.
HAND_BUILT = RelationGraph(
    nodes=(_q("c"), _q("a"), _q("b"), _q("d")),
    edges=(_edge("b", "cites", "x", "bx"), _edge("c", "supported_by", "b", "cb"), _edge("a", "cites", "b", "ab")),
)
AB, BX, CB = HAND_BUILT.edges[2], HAND_BUILT.edges[0], HAND_BUILT.edges[1]


@pytest.mark.parametrize(
    "seed, kwargs, nodes, edges",
    [
        ("a", dict(depth=2), "cab", (AB, BX, CB)),
        ("a", dict(depth=2, direction="forward"), "ab", (AB, BX)),
        ("b", dict(depth=1, direction="backward"), "cab", (CB, AB)),
        ("b", dict(depth=3, predicates={"cites"}), "ab", (BX, AB)),
        ("a", dict(depth=3, predicates=set()), "a", ()),
        ("d", dict(depth=3), "d", ()),
    ],
)
def test_trace_of_a_hand_built_graph(seed, kwargs, nodes, edges):
    sub = trace(_q(seed), HAND_BUILT, **kwargs)
    assert sub == RelationGraph(nodes=tuple(_q(n) for n in nodes), edges=edges)


def test_trace_of_a_trace():
    sub = trace(_q("a"), HAND_BUILT, depth=2)
    assert trace(_q("a"), sub, depth=2) == sub
    assert trace(_q("b"), sub, depth=1, direction="backward") == RelationGraph(
        nodes=(_q("c"), _q("a"), _q("b")), edges=(AB, CB)
    )
    with pytest.raises(UnknownEntityError):
        trace(_q("d"), sub)


def test_self_loop_and_duplicated_edge_are_each_kept_once_per_position():
    loop, ab = _edge("a", "cites", "a", "aa"), _edge("a", "cites", "b", "ab")
    graph = RelationGraph(nodes=(_q("a"), _q("b")), edges=(loop, ab, ab))
    for depth in (1, 2):
        assert trace(_q("a"), graph, depth=depth) == RelationGraph(nodes=graph.nodes, edges=(loop, ab, ab))
    assert trace(_q("b"), graph, depth=1) == RelationGraph(nodes=graph.nodes, edges=(ab, ab))
    assert trace(_q("b"), graph, depth=2) == RelationGraph(nodes=graph.nodes, edges=(ab, ab, loop))


def test_duplicated_node_keeps_every_copy():
    graph = RelationGraph(nodes=(_q("a"), _q("b"), _q("a")), edges=(_edge("a", "cites", "b", "ab"),))
    assert trace(_q("b"), graph).nodes == graph.nodes
    assert trace(_q("b"), graph, depth=0).nodes == (_q("b"),)


@pytest.mark.parametrize("seed", [_q("x"), QualifiedId("other", EntityId("art", "a")), _q("A")])
def test_seed_that_is_not_a_node_raises(seed):
    with pytest.raises(UnknownEntityError):
        trace(seed, HAND_BUILT, depth=2)
    with pytest.raises(UnknownEntityError):
        trace(seed, RelationGraph(nodes=(), edges=()), depth=0)
