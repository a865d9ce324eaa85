"""Cross-record resolution, the typed relation graph, and version chains."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Iterator, Optional

from .errors import (
    ClassMismatchError,
    CycleDetectedError,
    TypeMismatchError,
    UnknownEntityError,
    UnknownRecordError,
)
from .model import ENTITY_CLASS, EntityId, KnowsRecord, Ref, as_ref, parse_ref


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


class _Positions:
    """Where each key occurs in a sequence, chained: ``last[key]``, then ``before[i]`` from
    each position ``i`` until -1.  Flat, as a list per key costs the GC an object per node."""

    def __init__(self, keys: Iterable[str]) -> None:
        self.last: dict[str, int] = {}
        self.before: list[int] = []
        for i, key in enumerate(keys):
            self.before.append(self.last.get(key, -1))
            self.last[key] = i

    def of(self, key: str) -> Iterator[int]:
        i = self.last.get(key, -1)
        while i >= 0:
            yield i
            i = self.before[i]


@dataclass(frozen=True)
class RelationGraph:
    nodes: tuple[QualifiedId, ...]
    edges: tuple[Edge, ...]
    dangling: tuple[QualifiedId, ...] = ()

    @cached_property
    def _index(self) -> tuple[_Positions, _Positions, _Positions]:
        """Node, edge subject and edge object positions; build_graph presets it."""
        return (
            _Positions(map(str, self.nodes)),
            _Positions(str(e.subject) for e in self.edges),
            _Positions(str(e.object) for e in self.edges),
        )


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

    def records(self) -> list[KnowsRecord]:
        return list(self._records.values())


def resolve(ref: Ref | EntityId | str, home: str, registry: Registry) -> tuple[QualifiedId, Any]:
    """Resolve a local or remote reference to (qualified id, entity).

    Local references resolve within ``home``; remote references first resolve
    their record_id in the registry.
    """
    ref = parse_ref(ref) if isinstance(ref, str) else as_ref(ref)
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

    Edges are indexed by node, each key rendered once, for :func:`trace`.
    Unresolved remote endpoints become dangling placeholder nodes so partial
    registries remain traversable.  A relation with an unparseable id or
    endpoint, or a predicate that is not a string, is left out; lint reports
    it (K001, K002).
    """
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
                endpoints.append((key, q))
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
                    relation_id=QualifiedId(record.record_id, rel.id),
                )
            )
            subject_keys.append(subject_key)
            object_keys.append(object_key)
    graph = RelationGraph(nodes=tuple(nodes.values()), edges=tuple(edges), dangling=tuple(dangling))
    index = (_Positions(nodes), _Positions(subject_keys), _Positions(object_keys))
    object.__setattr__(graph, "_index", index)
    return graph


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
    when given, restricts which edges may be traversed.  A hop reads only the
    edges at its frontier.  Nodes come in graph order; edges by hop, then position.
    """
    nodes, subjects, objects = graph._index
    if str(seed) not in nodes.last:
        raise UnknownEntityError(f"seed {seed} is not a node of the graph")
    ends = [p for p, way in ((subjects, "forward"), (objects, "backward")) if direction in ("both", way)]
    reached: set[str] = {str(seed)}
    frontier: set[str] = {str(seed)}
    used_edges: list[Edge] = []
    used_keys: set[int] = set()
    for _ in range(depth):
        if not frontier:
            break
        next_frontier: set[str] = set()
        incident = {i for key in frontier for end in ends for i in end.of(key)}
        for i in sorted(incident - used_keys):
            edge = graph.edges[i]
            if predicates is not None and edge.predicate not in predicates:
                continue
            used_keys.add(i)
            used_edges.append(edge)
            for endpoint in (str(edge.subject), str(edge.object)):
                if endpoint not in reached:
                    reached.add(endpoint)
                    next_frontier.add(endpoint)
        frontier = next_frontier
    positions = sorted(i for key in reached for i in nodes.of(key))
    return RelationGraph(nodes=tuple(graph.nodes[i] for i in positions), edges=tuple(used_edges))


def export_edge_list(graph: RelationGraph) -> str:
    """Line-oriented export with a summary header; stable ordering."""
    lines = [f"# nodes={len(graph.nodes)} edges={len(graph.edges)}"]
    for edge in sorted(
        graph.edges, key=lambda e: (str(e.subject), e.predicate, str(e.object), str(e.relation_id))
    ):
        lines.append(f"{edge.subject}\t{edge.predicate}\t{edge.object}\t{edge.relation_id}")
    return "\n".join(lines)
