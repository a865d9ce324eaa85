"""Typed domain model for KnowsRecord v0.9, and the one table of its shape.

Every entity and metadata block of the sidecar format is an immutable
dataclass, and the dataclasses are the only place the record shape is
written down.  Field order, YAML key and required-ness come from
``dataclasses.fields``: a field without a default is required.  Nesting comes
from the type hints: a dataclass is a nested object, ``tuple[X, ...]`` a list
of X, ``Optional[X]`` an optional X.  ``field(metadata=...)`` carries the rest:

* ``enum``: the closed vocabulary, a frozenset;
* ``minLength``, ``pattern``, ``format``, ``minimum``, ``maximum`` (inclusive;
  NaN fails them), ``minItems``, ``minProperties``: JSON Schema keywords;
* ``exactly_one_of``: two keys of which each item must hold exactly one;
* ``key``: the YAML key, where it is not the attribute name;
* ``targets``: on a reference field, the entity classes it may name locally,
  a frozenset (absent: any class);
* ``missing``: the value loaded when the key is absent;
* ``load`` / ``emit``: a converter applied to a non-None value at load or at
  emission, in place of the one the type hint selects; ``raw``: keep the
  loaded value as it is.

:mod:`knows_sidecar.serialization` compiles its loaders and emitters from
this table and :mod:`knows_sidecar.schema` builds ``RECORD_SCHEMA`` from it.
``ENTITY_LISTS`` and ``REF_FIELDS`` read from it which fields hold entities
and which name one; the linter and the graph walk records through them.
``PREDICATE_MATRIX`` is the one list of relation predicates: its keys are
``Relation.predicate``'s vocabulary and its values the (subject prefix,
object prefix) pairs each admits, which K005 checks.  Enumerated fields are
stored as plain strings so that a record loaded from disk can carry
out-of-vocabulary values for the linter to report.

Kept state: what a value derives once and keeps lives in its instance
``__dict__``, beside the fields, written by a ``functools.cached_property``
(or, for the loaded tree, by the loader).  It belongs to the object:
equality and repr ignore it, ``dataclasses.replace`` starts without it, and
``copy.deepcopy`` copies it.  A record keeps its entity walk (``_walk``)
and, when loaded, its parsed tree (``_source_tree``).  Each dataclass value
a root field of ``KnowsRecord`` holds, alone or as a list item, keeps its
K001 findings (``_k001``), relative to itself; :mod:`knows_sidecar.schema`
sets that property on the class when it compiles ``RECORD_SCHEMA``, since
this module cannot import the schema.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime
from functools import cache, cached_property
from types import MappingProxyType
from typing import Any, ClassVar, Mapping, Optional, Union, get_args, get_origin, get_type_hints

from .errors import MalformedError, UnknownPrefixError

SCHEMA_URI = "https://knows.dev/schema/record-0.9.json"

# ID prefixes and the entity class each one names.
PREFIX_CLASS = {
    "art": "artifact",
    "stmt": "statement",
    "ev": "evidence",
    "rel": "relation",
    "act": "action",
    "rep": "representation",
}
CLASS_PREFIX = {cls: prefix for prefix, cls in PREFIX_CLASS.items()}

# The relation predicates, each with the (subject prefix, object prefix)
# pairs it admits: ``Relation.predicate``'s vocabulary and K005's table.
_S, _A, _E = "stmt", "art", "ev"
PREDICATE_MATRIX: dict[str, frozenset[tuple[str, str]]] = {
    "supported_by": frozenset({(_S, _E), (_S, _S)}),
    "challenged_by": frozenset({(_S, _E), (_S, _S)}),
    "depends_on": frozenset({(_S, _S), (_S, _A), (_A, _S), (_A, _A)}),
    "limited_by": frozenset({(_S, _S), (_A, _S)}),
    "uses": frozenset({(_A, _A), (_S, _A)}),
    "evaluates_on": frozenset({(_A, _A), (_S, _A)}),
    "implements": frozenset({(_A, _A), (_S, _A)}),
    "documents": frozenset({(_S, _A), (_A, _A)}),
    "cites": frozenset({(_A, _A)}),
    "same_as": frozenset((p, p) for p in PREFIX_CLASS),
    "supersedes": frozenset({(_S, _S), (_A, _A)}),
    "retracts": frozenset({(_S, _S), (_A, _A)}),
}

_SEMVER_PATTERN = r"^\d+\.\d+\.\d+$"
_PROFILE_PATTERN = r"^.+@[1-9]\d*$"
_CONFIDENCE_LEVELS = frozenset({"low", "medium", "high"})


def _meta(default: Any = MISSING, **metadata: Any) -> Any:
    """A dataclass field carrying shape metadata (see the module docstring)."""
    return field(default=default, metadata=metadata)


def _vocab(*values: str, default: Any = MISSING) -> Any:
    """A string field whose value must come from ``values``."""
    return field(default=default, metadata={"enum": frozenset(values)})


# ---------------------------------------------------------------------------
# Identifiers and references


@dataclass(frozen=True)
class EntityId:
    """A prefixed local identifier, rendered ``<prefix>:<local>``."""

    prefix: str
    local: str

    def __str__(self) -> str:
        return f"{self.prefix}:{self.local}"

    @property
    def entity_class(self) -> str:
        return PREFIX_CLASS[self.prefix]


@dataclass(frozen=True)
class Ref:
    """A local entity reference, or a remote one qualified by a record_id."""

    entity: EntityId
    record_id: Optional[str] = None

    @property
    def is_remote(self) -> bool:
        return self.record_id is not None

    def __str__(self) -> str:
        if self.record_id is not None:
            return f"{self.record_id}#{self.entity}"
        return str(self.entity)


_LOCAL_FORBIDDEN = re.compile(r"[#\s]")


def parse_entity_id(text: str) -> EntityId:
    """Parse ``<prefix>:<local>`` into an :class:`EntityId`.

    Raises :class:`UnknownPrefixError` for a prefix outside the closed set and
    :class:`MalformedError` for a missing colon, empty local part, embedded
    whitespace, or an embedded ``#``.
    """
    if not isinstance(text, str) or ":" not in text:
        raise MalformedError(f"entity id must be '<prefix>:<local>': {text!r}")
    prefix, _, local = text.partition(":")
    if not local or _LOCAL_FORBIDDEN.search(local):
        raise MalformedError(f"bad local part in entity id: {text!r}")
    if prefix not in PREFIX_CLASS:
        raise UnknownPrefixError(f"unknown id prefix {prefix!r} in {text!r}")
    return EntityId(prefix, local)


def parse_ref(text: str) -> Ref:
    """Parse a local or ``record_id#local_id`` cross-record reference."""
    if not isinstance(text, str):
        raise MalformedError(f"reference must be a string: {text!r}")
    if text.count("#") > 1:
        raise MalformedError(f"reference admits at most one '#': {text!r}")
    if "#" in text:
        record_id, _, local = text.partition("#")
        if not record_id:
            raise MalformedError(f"empty record_id in reference: {text!r}")
        return Ref(parse_entity_id(local), record_id=record_id)
    return Ref(parse_entity_id(text))


@dataclass(frozen=True)
class SpecVersion:
    major: int
    minor: int
    patch: int

    def __str__(self) -> str:
        return f"{self.major}.{self.minor}.{self.patch}"


_SEMVER_RE = re.compile(r"^(\d+)\.(\d+)\.(\d+)$")


def parse_spec_version(text: str) -> SpecVersion:
    m = _SEMVER_RE.match(text) if isinstance(text, str) else None
    if m is None:
        raise MalformedError(f"version must be a dotted triple 'M.m.p': {text!r}")
    return SpecVersion(int(m.group(1)), int(m.group(2)), int(m.group(3)))


def reader_accepts(record_version: SpecVersion, reader_version: SpecVersion) -> bool:
    """A reader refuses records whose major version exceeds its own."""
    return record_version.major <= reader_version.major


@dataclass(frozen=True)
class Profile:
    name: str
    major: int

    def __str__(self) -> str:
        return f"{self.name}@{self.major}"


def parse_profile(text: str) -> Profile:
    """Parse ``<name>@<major>``; the major version must be a positive integer."""
    if not isinstance(text, str) or "@" not in text:
        raise MalformedError(f"profile must be '<name>@<major>': {text!r}")
    name, _, major_text = text.rpartition("@")
    if not name:
        raise MalformedError(f"empty profile name: {text!r}")
    if not major_text.isdecimal() or int(major_text) < 1:
        raise MalformedError(f"profile major must be a positive integer: {text!r}")
    return Profile(name, int(major_text))


# Value types written in YAML as strings, each with its parser.
STRING_PARSERS = {
    EntityId: parse_entity_id,
    Ref: parse_ref,
    SpecVersion: parse_spec_version,
    Profile: parse_profile,
}


# ---------------------------------------------------------------------------
# Entity building blocks


@dataclass(frozen=True)
class Identifiers:
    doi: Optional[str] = _meta(None, minLength=1)
    arxiv: Optional[str] = _meta(None, minLength=1)
    isbn: Optional[str] = _meta(None, minLength=1)
    url: Optional[str] = _meta(None, minLength=1)

    def any_present(self) -> bool:
        return any(v is not None for v in (self.doi, self.arxiv, self.isbn, self.url))


@dataclass(frozen=True)
class Locator:
    type: str = _vocab("path", "url")
    value: str = _meta(minLength=1)


@dataclass(frozen=True)
class Representation:
    id: EntityId = _meta(minLength=1)
    media_type: str = _meta(minLength=1)
    locator: Locator


@dataclass(frozen=True)
class SourceAnchor:
    representation_ref: EntityId = _meta(minLength=1)
    locator_type: str = _vocab("section", "table", "figure", "page", "equation", "other")
    locator: str = _meta(minLength=1)


@dataclass(frozen=True)
class Confidence:
    claim_strength: str = _meta(enum=_CONFIDENCE_LEVELS)
    extraction_fidelity: str = _meta(enum=_CONFIDENCE_LEVELS)


@dataclass(frozen=True)
class Observation:
    metric: str = _meta(minLength=1)
    value: Optional[float] = _meta(None, raw=True)
    unit: Optional[str] = None
    qualitative_value: Optional[str] = _meta(None, minLength=1)


@dataclass(frozen=True)
class Actor:
    name: str = _meta(minLength=1)
    type: str = _vocab("person", "organization", "agent")


@dataclass(frozen=True)
class Provenance:
    origin: str = _vocab("author", "third_party", "machine", "other")
    actor: Actor
    generated_at: str = _meta(format="date-time")
    method: Optional[str] = None
    verification: Optional[str] = None
    x_extensions: Optional[dict[str, Any]] = None


@dataclass(frozen=True)
class SafetyPolicy:
    sandbox_required: bool
    network: bool
    secrets_required: bool
    side_effects: str = _vocab("none", "temporary_files_only", "persistent", "external")


@dataclass(frozen=True)
class ActionInterface:
    kind: str = _vocab("http", "cli", "other")
    locator: str = _meta(minLength=1)


@dataclass(frozen=True)
class Artifact:
    id: EntityId = _meta(minLength=1)
    artifact_type: str = _vocab(
        "paper", "repository", "dataset", "model", "benchmark", "software", "website", "other"
    )
    role: str = _vocab("subject", "supporting", "cited")
    title: str = _meta(minLength=1)
    identifiers: Optional[Identifiers] = _meta(None, minProperties=1)
    representations: tuple[Representation, ...] = ()
    x_extensions: Optional[dict[str, Any]] = None


@dataclass(frozen=True)
class Statement:
    id: EntityId = _meta(minLength=1)
    statement_type: str = _vocab(
        "claim", "assumption", "limitation", "method", "question", "definition"
    )
    text: str = _meta(minLength=1)
    about_ref: Ref = _meta(minLength=1, targets=frozenset({"artifact", "statement"}))
    status: str = _vocab("asserted", "retracted", "superseded", "under_review")
    modality: Optional[str] = _vocab(
        "empirical", "theoretical", "descriptive", "normative", default=None
    )
    source_anchors: tuple[SourceAnchor, ...] = ()
    confidence: Optional[Confidence] = None
    provenance: Optional[Provenance] = None
    x_extensions: Optional[dict[str, Any]] = None


@dataclass(frozen=True)
class Evidence:
    id: EntityId = _meta(minLength=1)
    evidence_type: str = _vocab(
        "table_result",
        "figure",
        "experiment_run",
        "citation_backed",
        "artifact_run",
        "proof",
        "case_study",
        "clinical_trial",
        "survey_result",
        "qualitative_analysis",
        "statistical_test",
        "observation",
        "simulation",
        "other",
    )
    summary: str = _meta(minLength=1)
    source_anchors: tuple[SourceAnchor, ...] = ()
    observations: tuple[Observation, ...] = _meta((), exactly_one_of=("value", "qualitative_value"))
    provenance: Optional[Provenance] = None
    x_extensions: Optional[dict[str, Any]] = None


@dataclass(frozen=True)
class Relation:
    id: EntityId = _meta(minLength=1)
    subject_ref: Ref = _meta(minLength=1)
    predicate: str = _vocab(*PREDICATE_MATRIX)
    object_ref: Ref = _meta(minLength=1)
    citation_intent: Optional[str] = _vocab(
        "supports",
        "extends",
        "uses_method",
        "compares_to",
        "contradicts",
        "reviews",
        "cites_data",
        "background",
        "other",
        default=None,
    )
    x_extensions: Optional[dict[str, Any]] = None


@dataclass(frozen=True)
class Action:
    id: EntityId = _meta(minLength=1)
    action_type: str = _vocab("download", "run", "query", "deploy", "other")
    label: str = _meta(minLength=1)
    target_ref: Ref = _meta(minLength=1)
    interface: ActionInterface
    safety: SafetyPolicy
    x_extensions: Optional[dict[str, Any]] = None


# Entity dataclass -> the entity class its ID prefix names.
ENTITY_CLASS = {
    Artifact: "artifact",
    Representation: "representation",
    Statement: "statement",
    Evidence: "evidence",
    Relation: "relation",
    Action: "action",
}


# ---------------------------------------------------------------------------
# Record-level metadata


@dataclass(frozen=True)
class VersionTriple:
    spec: SpecVersion = _meta(pattern=_SEMVER_PATTERN, emit=str)
    record: str = _meta(minLength=1, load=str)
    source: str = _meta(minLength=1)


@dataclass(frozen=True)
class Freshness:
    as_of: str = _meta(format="date-time")
    update_policy: str = _vocab("versioned", "living", "frozen")
    stale_after: Optional[str] = _meta(None, format="date-time")


@dataclass(frozen=True)
class Coverage:
    statements: str = _vocab("none", "partial", "main_claims_only", "full")
    evidence: str = _vocab("none", "partial", "key_evidence_only", "full")


@dataclass(frozen=True)
class Author:
    name: str = _meta(minLength=1)
    affiliation: Optional[str] = None
    role: Optional[str] = None
    orcid: Optional[str] = None


@dataclass(frozen=True)
class ExternalMetadataRef:
    standard: str = _vocab(
        "datacite", "codemeta", "citation_cff", "croissant", "model_card", "ro_crate"
    )
    locator: str = _meta(minLength=1)


@dataclass(frozen=True)
class KnowsRecord:
    """Root sidecar document.

    Instances are value objects: two records loaded from differently ordered
    YAML compare equal.  Kept state: see the module docstring.
    """

    # The YAML tree ``serialization.load_record`` parsed the record from, read
    # by ``serialization.document_tree``; None on a record built in memory.
    _source_tree: ClassVar[Optional[dict[str, Any]]] = None

    schema_uri: str = _meta(minLength=1, key="$schema", missing=SCHEMA_URI)
    knows_version: SpecVersion = _meta(pattern=_SEMVER_PATTERN)
    record_id: str = _meta(minLength=1, pattern=r"^[^#]+$")
    profile: Profile = _meta(pattern=_PROFILE_PATTERN)
    subject_ref: EntityId = _meta(minLength=1, targets=frozenset({"artifact"}))
    title: str = _meta(minLength=1)
    summary: str = _meta(minLength=1)
    authors: tuple[Author, ...] = _meta(minItems=1)
    license: str = _meta(minLength=1)
    coverage: Coverage
    artifacts: tuple[Artifact, ...]
    statements: tuple[Statement, ...]
    evidence: tuple[Evidence, ...]
    relations: tuple[Relation, ...]
    provenance: Provenance
    version: VersionTriple
    freshness: Freshness
    abstract: Optional[str] = None
    venue: Optional[str] = None
    year: Optional[int] = None
    keywords: tuple[str, ...] = ()
    record_status: Optional[str] = _vocab("active", "superseded", "retracted", default=None)
    replaces: Optional[str] = _meta(None, minLength=1, pattern=r"^[^#]+$")
    actions: tuple[Action, ...] = ()
    resources: tuple[Any, ...] = ()
    external_metadata_refs: tuple[ExternalMetadataRef, ...] = ()
    extensions: Optional[dict[str, Any]] = None

    @cached_property
    def _walk(self) -> tuple[tuple[tuple[Any, str], ...], dict[str, Any]]:
        """Entities with their paths, and the index over them."""
        pairs: list[tuple[Any, str]] = []
        index: dict[str, Any] = {}

        def visit(owner: Any, base: str) -> None:
            for name in ENTITY_LISTS[type(owner)]:
                for i, entity in enumerate(getattr(owner, name)):
                    path = f"{base}{name}/{i}"
                    pairs.append((entity, path))
                    index.setdefault(str(entity.id), entity)
                    if ENTITY_LISTS[type(entity)]:
                        visit(entity, path + "/")

        visit(self, "")
        return tuple(pairs), index

    def entities(self) -> tuple[tuple[Any, str], ...]:
        """Every entity with its path, in document order."""
        return self._walk[0]

    def all_entity_ids(self) -> list[tuple[EntityId, str]]:
        """Every entity ID in the record with the path of its owner."""
        return [(entity.id, path) for entity, path in self._walk[0]]

    def entity_index(self) -> Mapping[str, Any]:
        """Rendered entity ID -> entity, first in document order wins; read-only."""
        return MappingProxyType(self._walk[1])

    def subject_artifact(self) -> Optional[Artifact]:
        for art in self.artifacts:
            if str(art.id) == str(self.subject_ref):
                return art
        return None


@dataclass(frozen=True)
class Slot:
    """One field of the shape table, its type hint taken apart.

    ``kind`` is the value type (the item type when ``many``): ``str``,
    ``int``, ``float``, ``bool``, ``dict``, ``Any``, or a dataclass.
    """

    name: str
    key: str
    required: bool
    kind: Any
    many: bool
    meta: Mapping[str, Any]


@cache
def slots(cls: type) -> tuple[Slot, ...]:
    """The fields of a model dataclass in declaration order."""
    hints = get_type_hints(cls)
    out = []
    for f in fields(cls):
        hint = hints[f.name]
        if get_origin(hint) is Union:
            hint = next(arg for arg in get_args(hint) if arg is not type(None))
        many = get_origin(hint) is tuple
        if many:
            hint = get_args(hint)[0]
        required = f.default is MISSING and f.default_factory is MISSING
        key = f.metadata.get("key", f.name)
        out.append(Slot(f.name, key, required, get_origin(hint) or hint, many, f.metadata))
    return tuple(out)


# Per entity-owning class: the fields holding lists of entities, and the
# reference fields other than ``id`` as (name, targets or None).
_OWNERS = (KnowsRecord, *ENTITY_CLASS)
ENTITY_LISTS = {
    cls: tuple(s.name for s in slots(cls) if s.many and s.kind in ENTITY_CLASS) for cls in _OWNERS
}
REF_FIELDS = {
    cls: tuple(
        (s.name, s.meta.get("targets"))
        for s in slots(cls)
        if s.kind in (Ref, EntityId) and s.name != "id"
    )
    for cls in _OWNERS
}


def as_ref(value: Any) -> Optional[Ref]:
    """A parsed reference or entity ID as a :class:`Ref`; None for anything else."""
    if isinstance(value, Ref):
        return value
    if isinstance(value, EntityId):
        return Ref(value)
    return None


def parse_timestamp(text: str) -> datetime:
    """Parse an RFC 3339 timestamp; raises :class:`MalformedError`."""
    if not isinstance(text, str):
        raise MalformedError(f"timestamp must be a string: {text!r}")
    try:
        return datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise MalformedError(f"bad timestamp {text!r}") from exc


def is_timestamp(text: Any) -> bool:
    try:
        parse_timestamp(text)
    except MalformedError:
        return False
    return True
