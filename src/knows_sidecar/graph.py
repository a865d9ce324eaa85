"""Cross-record resolution, the typed relation graph, and version chains."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from .errors import (
    ClassMismatchError,
    CycleDetectedError,
    TypeMismatchError,
    UnknownEntityError,
    UnknownRecordError,
)
from .model import ENTITY_CLASS, EntityId, KnowsRecord, Ref, parse_ref


@dataclass(frozen=True)
class QualifiedId:
    """Registry-stable entity name, rendered ``record_id#prefix:local``."""

    record_id: str
    entity_id: EntityId

    def __str__(self) -> str:
        return f"{self.record_id}#{self.entity_id}"


@dataclass(frozen=True)
class Edge:
    subject: QualifiedId
    predicate: str
    object: QualifiedId
    relation_id: QualifiedId


@dataclass(frozen=True)
class RelationGraph:
    nodes: tuple[QualifiedId, ...]
    edges: tuple[Edge, ...]
    dangling: tuple[QualifiedId, ...] = ()

    def node_set(self) -> set[str]:
        return {str(n) for n in self.nodes}


class Registry:
    """In-memory map of record_id to record; many readers, one writer."""

    def __init__(self, records: Iterable[KnowsRecord] = ()) -> None:
        self._records: dict[str, KnowsRecord] = {}
        for record in records:
            self.add(record)

    def add(self, record: KnowsRecord) -> None:
        """Register ``record``; a missing record_id (None) is K001's finding."""
        record_id = record.record_id
        if record_id is not None and not isinstance(record_id, str):
            raise TypeMismatchError(
                f"record_id must be a string, not {type(record_id).__name__}"
            )
        self._records[record_id] = record

    def get(self, record_id: str) -> Optional[KnowsRecord]:
        return self._records.get(record_id)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._records

    def record_ids(self) -> list[str]:
        return list(self._records)

    def records(self) -> list[KnowsRecord]:
        return list(self._records.values())


def resolve(ref: Ref | EntityId | str, home: str, registry: Registry) -> tuple[QualifiedId, Any]:
    """Resolve a local or remote reference to (qualified id, entity).

    Local references resolve within ``home``; remote references first resolve
    their record_id in the registry.
    """
    if isinstance(ref, str):
        ref = parse_ref(ref)
    if isinstance(ref, EntityId):
        ref = Ref(ref)
    record_id = ref.record_id if ref.is_remote else home
    record = registry.get(record_id)
    if record is None:
        raise UnknownRecordError(f"record {record_id!r} not in registry")
    entity = record.entity_index().get(str(ref.entity))
    if entity is None:
        raise UnknownEntityError(f"{ref.entity} not found in record {record_id!r}")
    entity_class = ENTITY_CLASS[type(entity)]
    if entity_class != ref.entity.entity_class:
        raise ClassMismatchError(
            f"{ref.entity} names a {entity_class}, not a {ref.entity.entity_class}"
        )
    return QualifiedId(record_id, ref.entity), entity


def build_graph(records: list[KnowsRecord]) -> RelationGraph:
    """All entities as nodes; all relations as qualified, typed edges.

    Unresolved remote endpoints become dangling placeholder nodes so partial
    registries remain traversable.  A relation with an unparseable id or
    endpoint, or a predicate that is not a string, is left out; lint reports
    it (K001, K002).
    """
    nodes: list[QualifiedId] = []
    node_keys: set[str] = set()
    dangling: list[QualifiedId] = []

    def add_node(q: QualifiedId) -> None:
        if str(q) not in node_keys:
            node_keys.add(str(q))
            nodes.append(q)

    for record in records:
        for entity_id, _ in record.all_entity_ids():
            if isinstance(entity_id, EntityId):
                add_node(QualifiedId(record.record_id, entity_id))

    edges: list[Edge] = []
    for record in records:
        for rel in record.relations:
            endpoints = []
            for ref in (rel.subject_ref, rel.object_ref):
                if isinstance(ref, EntityId):
                    ref = Ref(ref)
                if not isinstance(ref, Ref):
                    endpoints = None
                    break
                rid = ref.record_id if ref.is_remote else record.record_id
                q = QualifiedId(rid, ref.entity)
                if str(q) not in node_keys:
                    add_node(q)
                    dangling.append(q)
                endpoints.append(q)
            if (
                endpoints is None
                or not isinstance(rel.id, EntityId)
                or not isinstance(rel.predicate, str)
            ):
                continue
            edges.append(
                Edge(
                    subject=endpoints[0],
                    predicate=rel.predicate,
                    object=endpoints[1],
                    relation_id=QualifiedId(record.record_id, rel.id),
                )
            )
    return RelationGraph(nodes=tuple(nodes), edges=tuple(edges), dangling=tuple(dangling))


@dataclass(frozen=True)
class VersionChain:
    links: tuple[str, ...]
    complete: bool


def version_chain(start: str, registry: Registry) -> VersionChain:
    """Follow ``replaces`` pointers newest-first until a record is missing."""
    if start not in registry:
        raise UnknownRecordError(f"record {start!r} not in registry")
    links: list[str] = []
    seen: set[str] = set()
    current: Optional[str] = start
    while current is not None:
        if current in seen:
            raise CycleDetectedError(f"version chain revisits {current!r}")
        record = registry.get(current)
        if record is None:
            return VersionChain(links=tuple(links), complete=False)
        seen.add(current)
        links.append(current)
        current = record.replaces
    return VersionChain(links=tuple(links), complete=True)


def trace(
    seed: QualifiedId,
    graph: RelationGraph,
    *,
    predicates: Optional[set[str]] = None,
    depth: int = 1,
    direction: str = "both",
) -> RelationGraph:
    """Subgraph reachable from ``seed`` within ``depth`` hops.

    Edges are followed in both directions by default; the predicate filter,
    when given, restricts which edges may be traversed.
    """
    if str(seed) not in graph.node_set():
        raise UnknownEntityError(f"seed {seed} is not a node of the graph")
    eligible = [
        e for e in graph.edges if predicates is None or e.predicate in predicates
    ]
    reached: set[str] = {str(seed)}
    frontier: set[str] = {str(seed)}
    used_edges: list[Edge] = []
    used_keys: set[int] = set()
    for _ in range(depth):
        if not frontier:
            break
        next_frontier: set[str] = set()
        for i, edge in enumerate(eligible):
            forward = direction in ("both", "forward") and str(edge.subject) in frontier
            backward = direction in ("both", "backward") and str(edge.object) in frontier
            if forward or backward:
                if i not in used_keys:
                    used_keys.add(i)
                    used_edges.append(edge)
                for endpoint in (str(edge.subject), str(edge.object)):
                    if endpoint not in reached:
                        reached.add(endpoint)
                        next_frontier.add(endpoint)
        frontier = next_frontier
    nodes = tuple(n for n in graph.nodes if str(n) in reached)
    edges = tuple(
        e for e in used_edges if str(e.subject) in reached and str(e.object) in reached
    )
    return RelationGraph(nodes=nodes, edges=edges)


def export_edge_list(graph: RelationGraph) -> str:
    """Line-oriented export with a summary header; stable ordering."""
    lines = [f"# nodes={len(graph.nodes)} edges={len(graph.edges)}"]
    for edge in sorted(
        graph.edges, key=lambda e: (str(e.subject), e.predicate, str(e.object), str(e.relation_id))
    ):
        lines.append(f"{edge.subject}\t{edge.predicate}\t{edge.object}\t{edge.relation_id}")
    return "\n".join(lines)
