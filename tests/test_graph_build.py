"""``build_graph`` against a plain copy of its earlier self, and the sharing it keeps.

A node is named by its rendered record_id and rendered entity ID, so records
whose record_ids render alike (``None`` and ``"None"``) share nodes, and every
edge's endpoints and relation ID are the node objects of their keys.
``build_graph`` takes each node key from the record walk's rendered IDs.  The
reference below is the earlier version, which rendered each key through
``QualifiedId.__str__``, and takes each endpoint and relation ID from the
nodes by that key.  On registries of generated records edited in memory
(repeated IDs within a record and across records that share a record_id,
unparseable entity IDs, local references to absent entities, remote ones to
present and absent records, raw-string and ``None`` endpoints, relation IDs
that are no ``EntityId``, predicates that are no string, and the record_ids
``None`` and ``"None"``, which render alike) the two give equal nodes, edges
and dangling placeholders in the same order, the same index, and the same
trace from every node.  On those registries, on the graph-contract corpus and
on two records whose record_ids render alike, every edge end ``build_graph``
gives is an object of its nodes.  ``export_edge_list`` is checked against its
earlier self the same way, and on a graph built by hand with predicates that
are no string.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import FIXTURES, make_record
from knows_sidecar.graph import (
    Edge,
    QualifiedId,
    RelationGraph,
    _Positions,
    build_graph,
    export_edge_list,
    trace,
)
from knows_sidecar.model import EntityId, KnowsRecord, Ref, Relation, as_ref
from knows_sidecar.serialization import load_record
from test_graph_contract import FIXTURE_NAMES, _corpus


def reference_build_graph(records: list[KnowsRecord]) -> RelationGraph:
    nodes: dict[str, QualifiedId] = {}
    dangling: list[QualifiedId] = []
    for record in records:
        for entity, _ in record.entities():
            if isinstance(entity.id, EntityId):
                q = QualifiedId(record.record_id, entity.id)
                nodes.setdefault(str(q), q)

    edges: list[Edge] = []
    subject_keys: list[str] = []
    object_keys: list[str] = []
    for record in records:
        for rel in record.relations:
            endpoints = []
            for ref in map(as_ref, (rel.subject_ref, rel.object_ref)):
                if ref is None:
                    endpoints = None
                    break
                rid = ref.record_id if ref.is_remote else record.record_id
                q = QualifiedId(rid, ref.entity)
                key = str(q)
                if key not in nodes:
                    nodes[key] = q
                    dangling.append(q)
                endpoints.append((key, nodes[key]))
            if (
                endpoints is None
                or not isinstance(rel.id, EntityId)
                or not isinstance(rel.predicate, str)
            ):
                continue
            (subject_key, subject), (object_key, obj) = endpoints
            edges.append(
                Edge(
                    subject=subject,
                    predicate=rel.predicate,
                    object=obj,
                    relation_id=nodes[str(QualifiedId(record.record_id, rel.id))],
                )
            )
            subject_keys.append(subject_key)
            object_keys.append(object_key)
    graph = RelationGraph(nodes=tuple(nodes.values()), edges=tuple(edges), dangling=tuple(dangling))
    index = (_Positions(list(nodes)), _Positions(subject_keys), _Positions(object_keys))
    object.__setattr__(graph, "_index", index)
    return graph


def reference_export_edge_list(graph: RelationGraph) -> str:
    lines = [f"# nodes={len(graph.nodes)} edges={len(graph.edges)}"]
    for edge in sorted(
        graph.edges, key=lambda e: (str(e.subject), e.predicate, str(e.object), str(e.relation_id))
    ):
        lines.append(f"{edge.subject}\t{edge.predicate}\t{edge.object}\t{edge.relation_id}")
    return "\n".join(lines)


def ends_off_the_nodes(graph):
    """The edge subjects, objects and relation IDs that are no object of ``graph.nodes``."""
    nodes = {id(q) for q in graph.nodes}
    return [q for e in graph.edges for q in (e.subject, e.object, e.relation_id) if id(q) not in nodes]


def assert_agrees(records):
    graph, expected = build_graph(records), reference_build_graph(records)
    assert graph.nodes == expected.nodes
    assert graph.edges == expected.edges
    assert graph.dangling == expected.dangling
    assert export_edge_list(graph) == reference_export_edge_list(expected)
    for got, want in zip(graph._index, expected._index, strict=True):
        assert (got.keys, got.last, got.before) == (want.keys, want.last, want.before)
    for node in expected.nodes:
        for direction in ("both", "forward", "backward"):
            assert trace(node, graph, depth=2, direction=direction) == trace(
                node, expected, depth=2, direction=direction
            )


# ---------------------------------------------------------------------------
# Registries edited in memory

PAPER, CLAIM = EntityId("art", "paper"), EntityId("stmt", "claim-0")
RECORD_IDS = ("r-a", "r-b", None, "None")
ENDPOINTS = (
    PAPER,
    CLAIM,
    EntityId("art", "ghost"),  # no such entity
    Ref(PAPER),
    Ref(PAPER, record_id="r-a"),
    Ref(EntityId("stmt", "claim-1"), record_id="r-b"),
    Ref(PAPER, record_id="None"),
    Ref(PAPER, record_id="r-absent"),
    "art:paper",
    None,
)
RELATION_IDS = (EntityId("rel", "x"), EntityId("rel", "y"), CLAIM, "rel:raw", None)
PREDICATES = ("cites", "supported_by", 7, None)
EDITS = ("none", "repeat", "raw_id")

relations = st.builds(
    Relation,
    id=st.sampled_from(RELATION_IDS),
    subject_ref=st.sampled_from(ENDPOINTS),
    predicate=st.sampled_from(PREDICATES),
    object_ref=st.sampled_from(ENDPOINTS),
)
record_specs = st.tuples(
    st.integers(0, 20),
    st.sampled_from(RECORD_IDS),
    st.lists(relations, max_size=4),
    st.sampled_from(EDITS),
)


def _record(seed, record_id, extra, edit) -> KnowsRecord:
    """``make_record(seed)`` under ``record_id``, with relations added and one entity edit:
    the first statement listed again, or its ID left an unparsed string."""
    record = make_record(seed)
    statements = record.statements
    if edit == "repeat":
        statements += statements[:1]
    elif edit == "raw_id":
        statements = (replace(statements[0], id=str(statements[0].id)), *statements[1:])
    return replace(record, record_id=record_id, statements=statements, relations=record.relations + tuple(extra))


def _relation(subject_ref, object_ref, id=EntityId("rel", "x"), predicate="cites"):
    return Relation(id=id, subject_ref=subject_ref, predicate=predicate, object_ref=object_ref)


# A relation left out for each reason: its parsed endpoints before the first
# unparseable one still become dangling placeholders.
DROPPED = [
    _relation(Ref(PAPER, record_id="r-gone-1"), None),
    _relation(None, Ref(PAPER, record_id="r-gone-2")),
    _relation(Ref(PAPER, record_id="r-gone-3"), Ref(PAPER, record_id="r-gone-4"), id="rel:raw"),
    _relation(Ref(PAPER, record_id="r-gone-5"), EntityId("art", "gone-6"), predicate=7),
]


@settings(deadline=None, max_examples=max(200, settings.default.max_examples))
@given(st.lists(record_specs, min_size=1, max_size=4))
@example([(0, "r-a", DROPPED, "none")])
@example([(0, None, [], "repeat"), (1, "None", [_relation(PAPER, Ref(PAPER, record_id="None"))], "none")])
def test_build_graph_agrees_with_the_reference(specs):
    assert_agrees([_record(*spec) for spec in specs])


@settings(deadline=None, max_examples=max(200, settings.default.max_examples))
@given(st.lists(record_specs, min_size=1, max_size=4))
@example([(0, None, [], "repeat"), (1, "None", [_relation(PAPER, Ref(PAPER, record_id="None"))], "none")])
def test_every_edge_end_is_a_node_of_a_generated_registry(specs):
    assert ends_off_the_nodes(build_graph([_record(*spec) for spec in specs])) == []


def test_a_dropped_relation_leaves_its_parsed_endpoints_dangling():
    graph = build_graph([_record(0, "r-a", DROPPED, "none")])
    assert [str(q) for q in graph.dangling] == [
        "r-gone-1#art:paper",
        "r-gone-3#art:paper",
        "r-gone-4#art:paper",
        "r-gone-5#art:paper",
        "r-a#art:gone-6",
    ]
    assert not any(e.relation_id.entity_id == EntityId("rel", "x") for e in graph.edges)


def test_export_of_a_hand_built_graph_formats_any_predicate():
    q = [QualifiedId("r", EntityId("art", name)) for name in "abc"]
    rel = QualifiedId("r", EntityId("rel", "x"))
    graph = RelationGraph(
        nodes=tuple(q),
        edges=(Edge(q[1], 7, q[2], rel), Edge(q[0], None, q[1], rel), Edge(q[1], 7, q[0], rel)),
    )
    assert export_edge_list(graph) == reference_export_edge_list(graph)
    assert export_edge_list(graph).splitlines()[1:] == [
        "r#art:a\tNone\tr#art:b\tr#rel:x",
        "r#art:b\t7\tr#art:a\tr#rel:x",
        "r#art:b\t7\tr#art:c\tr#rel:x",
    ]


# ---------------------------------------------------------------------------
# One QualifiedId per node


def _graph(name):
    if name == "corpus":
        return build_graph(_corpus())
    return build_graph([load_record((FIXTURES / f"{name}.knows.yaml").read_bytes())[0]])


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "corpus"])
def test_edges_share_the_node_objects(name):
    graph = _graph(name)
    node = {str(q): q for q in graph.nodes}
    assert len(node) == len(graph.nodes)
    for edge in graph.edges:
        for q in (edge.subject, edge.object, edge.relation_id):
            assert q is node[str(q)]
    reachable = {id(q) for q in graph.nodes + graph.dangling}
    reachable.update(id(q) for edge in graph.edges for q in (edge.subject, edge.object, edge.relation_id))
    assert len(reachable) == len(graph.nodes)


def _alike_record_ids():
    """``make_record(0)`` under record_id None beside ``make_record(1)`` under "None"."""
    return [replace(make_record(0), record_id=None), replace(make_record(1), record_id="None")]


@pytest.mark.parametrize("records", [_corpus, _alike_record_ids], ids=["corpus", "alike_record_ids"])
def test_every_edge_end_is_a_node(records):
    graph = build_graph(records())
    assert graph.edges
    assert ends_off_the_nodes(graph) == []
