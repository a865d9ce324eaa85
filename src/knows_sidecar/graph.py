"""Cross-record resolution, the relation graph, and version chains."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Optional

from .errors import (
    ClassMismatchError,
    CycleDetectedError,
    TypeMismatchError,
    UnknownEntityError,
    UnknownRecordError,
)
from .model import ENTITY_CLASS, EntityId, KnowsRecord, Ref, as_ref, parse_ref, shown


@dataclass(frozen=True, slots=True)
class QualifiedId:
    """Registry-stable entity name, rendered ``record_id#prefix:local``; a record_id that
    is not a string renders as ``model.shown`` shows it."""

    record_id: str
    entity_id: EntityId

    def __str__(self) -> str:
        if type(self.record_id) is str:
            return f"{self.record_id}#{self.entity_id}"
        return f"{shown(self.record_id, str)}#{self.entity_id}"


@dataclass(frozen=True, slots=True)
class Edge:
    subject: QualifiedId
    predicate: str
    object: QualifiedId
    relation_id: QualifiedId


class _Positions:
    """Where each key occurs in a sequence, chained: ``last[key]``, then ``before[i]`` from
    each position ``i`` until -1; ``keys[i]`` is the key at ``i``.  Flat, as a list per key
    costs the GC an object per node."""

    def __init__(self, keys: list[str]) -> None:
        self.keys = keys
        self.last: dict[str, int] = {}
        self.before: list[int] = []
        for i, key in enumerate(keys):
            self.before.append(self.last.get(key, -1))
            self.last[key] = i


@dataclass(frozen=True)
class RelationGraph:
    nodes: tuple[QualifiedId, ...]
    edges: tuple[Edge, ...]
    dangling: tuple[QualifiedId, ...] = ()

    @cached_property
    def _index(self) -> tuple[_Positions, _Positions, _Positions]:
        """Node, edge subject and edge object positions and keys.  build_graph presets it
        from the keys it built; a graph built any other way renders them here, once."""
        return (
            _Positions([str(n) for n in self.nodes]),
            _Positions([str(e.subject) for e in self.edges]),
            _Positions([str(e.object) for e in self.edges]),
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
    ref = as_ref(ref) or parse_ref(ref)
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
    """All entities as nodes; all relations as qualified edges, each with its predicate.

    A node is named by its key, its rendered record_id (as :class:`QualifiedId` renders
    it, once per record) and rendered entity ID (the ID its record's walk rendered), and
    the first entity to declare a key is its node: records whose record_ids render alike
    (None and "None") share nodes.  Every edge's endpoints and relation ID are the node
    objects of their keys, one :class:`QualifiedId` per node.  Edges are indexed by node,
    each endpoint key rendered once, for :func:`trace`.
    Unresolved remote endpoints become dangling placeholder nodes so partial registries
    remain traversable.  A relation with an unparseable id or endpoint, or a predicate
    that is not a string, is left out; lint reports it (K001, K002).
    """
    nodes: dict[str, QualifiedId] = {}
    for record in records:
        home, (pairs, _, ids, _) = record.record_id, record._walk
        label = home if type(home) is str else shown(home, str)
        for (entity, _), rendered in zip(pairs, ids):
            key = f"{label}#{rendered}"
            if key not in nodes and isinstance(entity.id, EntityId):
                nodes[key] = QualifiedId(home, entity.id)

    dangling: list[QualifiedId] = []
    edges: list[Edge] = []
    subject_keys: list[str] = []
    object_keys: list[str] = []
    for record in records:
        home = record.record_id
        label = home if type(home) is str else shown(home, str)
        for rel in record.relations:
            ends = []
            for ref in (rel.subject_ref, rel.object_ref):
                if isinstance(ref, EntityId):
                    rid, name, entity = home, label, ref
                elif isinstance(ref, Ref):
                    rid, name, entity = home, label, ref.entity
                    if ref.record_id is not None:
                        rid = name = ref.record_id
                else:
                    break
                # As EntityId.__str__ renders it, which the walk's IDs are.
                key = f"{name}#{entity.prefix}:{entity.local}"
                q = nodes.get(key)
                if q is None:
                    q = nodes[key] = QualifiedId(rid, entity)
                    dangling.append(q)
                ends.append((key, q))
            if len(ends) == 2 and isinstance(rel.id, EntityId) and isinstance(rel.predicate, str):
                (subject_key, subject), (object_key, obj) = ends
                relation_id = nodes[f"{label}#{rel.id.prefix}:{rel.id.local}"]
                edges.append(Edge(subject, rel.predicate, obj, relation_id))
                subject_keys.append(subject_key)
                object_keys.append(object_key)
    graph = RelationGraph(nodes=tuple(nodes.values()), edges=tuple(edges), dangling=tuple(dangling))
    index = (_Positions(list(nodes)), _Positions(subject_keys), _Positions(object_keys))
    object.__setattr__(graph, "_index", index)
    return graph


@dataclass(frozen=True, slots=True)
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


_DIRECTIONS = ("both", "forward", "backward")


def trace(
    seed: QualifiedId,
    graph: RelationGraph,
    *,
    predicates: Optional[set[str]] = None,
    depth: int = 1,
    direction: str = "both",
) -> RelationGraph:
    """Subgraph reachable from ``seed`` within ``depth`` hops.

    Edges are followed in both directions by default (``direction`` is
    ``both``, ``forward`` or ``backward``); the predicate filter, when given,
    restricts which edges may be traversed.  A hop reads only the edges at its
    frontier, and their endpoint keys by position, as ``build_graph`` rendered
    them; only the seed is rendered here.  Nodes come in graph order; edges by
    hop, then position.
    """
    if direction not in _DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}; expected {', '.join(_DIRECTIONS)}")
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    nodes, subjects, objects = graph._index
    seed_key = str(seed)
    if seed_key not in nodes.last:
        raise UnknownEntityError(f"seed {seed} is not a node of the graph")
    ends = [p for p, way in ((subjects, "forward"), (objects, "backward")) if direction in ("both", way)]
    edges, subject_keys, object_keys = graph.edges, subjects.keys, objects.keys
    reached: set[str] = {seed_key}
    frontier: list[str] = [seed_key]
    used_edges: list[Edge] = []
    used: set[int] = set()
    for _ in range(depth):
        if not frontier:
            break
        incident: set[int] = set()
        for end in ends:
            last, before = end.last, end.before
            for key in frontier:
                i = last.get(key, -1)
                while i >= 0:
                    incident.add(i)
                    i = before[i]
        frontier = []
        for i in sorted(incident - used):
            edge = edges[i]
            if predicates is not None and edge.predicate not in predicates:
                continue
            used.add(i)
            used_edges.append(edge)
            for key in (subject_keys[i], object_keys[i]):
                if key not in reached:
                    reached.add(key)
                    frontier.append(key)
    positions: list[int] = []
    last, before = nodes.last, nodes.before
    for key in reached:
        i = last.get(key, -1)
        while i >= 0:
            positions.append(i)
            i = before[i]
    positions.sort()
    return RelationGraph(nodes=tuple(graph.nodes[i] for i in positions), edges=tuple(used_edges))


def export_edge_list(graph: RelationGraph) -> str:
    """Line-oriented export with a summary header; stable ordering."""
    rows = sorted((str(e.subject), e.predicate, str(e.object), str(e.relation_id)) for e in graph.edges)
    lines = [f"# nodes={len(graph.nodes)} edges={len(graph.edges)}"]
    lines.extend(f"{subject}\t{predicate}\t{obj}\t{rel}" for subject, predicate, obj, rel in rows)
    return "\n".join(lines)
