"""Typed domain model for KnowsRecord v0.9, and the one table of its shape.

Every entity and metadata block of the sidecar format is an immutable
dataclass that cannot be subclassed (``_Sealed``), and the dataclasses are
the only place the record shape is written down.  Field order, YAML key and
required-ness come from ``dataclasses.fields``: a field without a default is
required.  Nesting comes from the type hints: a dataclass is a nested object,
``tuple[X, ...]`` a list of X, ``Optional[X]`` an optional X.  ``field(metadata=...)`` carries the rest:

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
(or, for a loaded record's K001 findings, by the loader, and for an entity's
K002 facts, by the first lint that reads them).  It belongs to the
object: equality and repr ignore it, a copy made by :func:`replaced` (which
the package uses) or ``dataclasses.replace`` starts without it, and
``copy.deepcopy`` copies it.  A record keeps its entity walk
(``_walk``), made by one flat loop over ``ENTITY_LISTS`` that renders each
parsed ID inline: the entities with their paths, the index by rendered ID,
each entity's rendered ID (the index's own strings) and the repeated IDs,
which K002-K004 and the graph read instead of rendering IDs again.  A record,
and each dataclass value a root field of ``KnowsRecord`` holds, alone or as a
list item, keeps its K001 findings (``_k001``), relative to itself: a loaded
record's are those of the tree it was parsed from, which it does not keep;
any other value's are those of walking its fields, which finds what checking
its emitted tree would.  :mod:`knows_sidecar.schema` sets that property on the classes when it
compiles ``RECORD_SCHEMA``, since this module cannot import the schema.  Each
entity that names others (a statement, evidence, relation or action) keeps
what K002 decides of it alone (``_k002``, see :mod:`knows_sidecar.linter`):
each local reference field's rendered target and class, each source
anchor's rendered ``representation_ref``, or the message of a finding no
index can mend; lint joins those with each record's index, so an entity
shared by records that index it differently gets each one's findings.  The
leaf values written as strings keep nothing and are atomic: copying one
returns it (see ``_Atomic``).  So a dataclass of the package has an
instance ``__dict__`` exactly when it keeps state: ``KnowsRecord``, the
classes root fields hold, and ``graph.RelationGraph`` (``_index``).  Every
other one is slotted (``slots=True``): a value that keeps nothing carries no
per-instance dict, which is most of a record's objects.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from datetime import datetime
from functools import cache, cached_property
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional, Union, get_args, get_origin, get_type_hints

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
# Rendering raw values in messages

# How ``repr`` shows each collection met again inside itself; a set never is.
_RECURSION = {list: "[...]", tuple: "(...)", dict: "{...}", set: ""}
# Collections nested deeper than this show as "...".
_SHOWN_DEPTH = 100


def shown(value: Any, show: Callable[[Any], str] = repr, outer: Optional[set] = None) -> str:
    """``show(value)``, but with the items of each set sorted and a depth bound.

    A set iterates in an order that string hashing and insertion history
    decide, so ``show`` alone would word one message differently from run to
    run, and for a record and its deep copy.  A collection inside more than
    ``_SHOWN_DEPTH`` others shows as ``...``, so a value loaded from a deeply
    nested document renders in linear time on a bounded stack.  ``outer``
    holds the ids of the collections being shown around ``value``.
    """
    kind = type(value)
    if kind not in _RECURSION:
        return show(value)
    if outer is None:
        outer = set()
    elif id(value) in outer:
        return _RECURSION[kind]
    if len(outer) >= _SHOWN_DEPTH:
        return "..."
    outer.add(id(value))
    if kind is dict:
        pairs = [f"{shown(k, repr, outer)}: {shown(v, repr, outer)}" for k, v in value.items()]
        text = "{" + ", ".join(pairs) + "}"
    else:
        items = [shown(v, repr, outer) for v in value]
        if kind is set:
            text = "{" + ", ".join(sorted(items)) + "}" if items else "set()"
        elif kind is tuple:
            text = "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
        else:
            text = "[" + ", ".join(items) + "]"
    outer.discard(id(value))
    return text


def as_text(value: Any) -> str:
    """``str(value)`` as :func:`shown` words it, so a loaded value reads alike on every run."""
    return shown(value, str)


# ---------------------------------------------------------------------------
# Identifiers and references


class _Sealed:
    """A model class, which cannot be subclassed.

    The package looks model values up by their exact class (``ENTITY_LISTS``,
    ``REF_FIELDS``, ``ENTITY_CLASS``, K001's walk of a field's value), so a
    subclass could only be handled by a second path.  Subclassing a model
    dataclass raises ``TypeError``; the class ``@dataclass(slots=True)``
    re-creates has the same bases, which are not dataclasses, so it is allowed.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for base in cls.__bases__:
            if is_dataclass(base):
                raise TypeError(f"model class {base.__name__} cannot be subclassed")


class _Atomic(_Sealed):
    """A value that copying returns as it is, as ``decimal.Decimal`` does.

    For the leaf values written as strings: frozen, and built by their parsers
    from str and int fields only, so a copy could share every part anyway.
    """

    __slots__ = ()

    def __copy__(self) -> Any:
        return self

    def __deepcopy__(self, memo: dict) -> Any:
        return self


@dataclass(frozen=True, slots=True)
class EntityId(_Atomic):
    """A prefixed local identifier, rendered ``<prefix>:<local>``."""

    prefix: str
    local: str

    def __str__(self) -> str:
        return f"{self.prefix}:{self.local}"

    @property
    def entity_class(self) -> str:
        return PREFIX_CLASS[self.prefix]


@dataclass(frozen=True, slots=True)
class Ref(_Atomic):
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
# Each prefix as the one ``PREFIX_CLASS`` key object, so parsed ids share it.
_PREFIX_KEYS = {prefix: prefix for prefix in PREFIX_CLASS}


def parse_entity_id(text: str) -> EntityId:
    """Parse ``<prefix>:<local>`` into an :class:`EntityId`.

    Raises :class:`UnknownPrefixError` for a prefix outside the closed set and
    :class:`MalformedError` for a missing colon, empty local part, embedded
    whitespace, or an embedded ``#``.
    """
    if not isinstance(text, str) or ":" not in text:
        raise MalformedError(f"entity id must be '<prefix>:<local>': {shown(text)}")
    prefix, _, local = text.partition(":")
    if not local or _LOCAL_FORBIDDEN.search(local):
        raise MalformedError(f"bad local part in entity id: {text!r}")
    key = _PREFIX_KEYS.get(prefix)
    if key is None:
        raise UnknownPrefixError(f"unknown id prefix {prefix!r} in {text!r}")
    return EntityId(key, local)


def parse_ref(text: str) -> Ref:
    """Parse a local or ``record_id#local_id`` cross-record reference."""
    if not isinstance(text, str):
        raise MalformedError(f"reference must be a string: {shown(text)}")
    if text.count("#") > 1:
        raise MalformedError(f"reference admits at most one '#': {text!r}")
    if "#" in text:
        record_id, _, local = text.partition("#")
        if not record_id:
            raise MalformedError(f"empty record_id in reference: {text!r}")
        return Ref(parse_entity_id(local), record_id=record_id)
    return Ref(parse_entity_id(text))


@dataclass(frozen=True, slots=True)
class SpecVersion(_Atomic):
    major: int
    minor: int
    patch: int

    def __str__(self) -> str:
        return f"{self.major}.{self.minor}.{self.patch}"


# The parsers read digits and the end of a string as the K001 ``pattern`` of
# their field does under ECMA-262 (ASCII digits, ``$`` only at the end), so a
# value that parses emits back to a string with the same K001 outcome.
_SEMVER_RE = re.compile(r"(\d+)\.(\d+)\.(\d+)\Z", re.ASCII)
_PROFILE_MAJOR_RE = re.compile(r"[1-9]\d*\Z", re.ASCII)


def _decimal(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than ``int`` converts
        raise MalformedError(f"number of {len(digits)} digits is too long") from None


def parse_spec_version(text: str) -> SpecVersion:
    m = _SEMVER_RE.match(text) if isinstance(text, str) else None
    if m is None:
        raise MalformedError(f"version must be a dotted triple 'M.m.p': {shown(text)}")
    return SpecVersion(*map(_decimal, m.groups()))


def reader_accepts(record_version: SpecVersion, reader_version: SpecVersion) -> bool:
    """A reader refuses records whose major version exceeds its own."""
    return record_version.major <= reader_version.major


@dataclass(frozen=True, slots=True)
class Profile(_Atomic):
    name: str
    major: int

    def __str__(self) -> str:
        return f"{self.name}@{self.major}"


def parse_profile(text: str) -> Profile:
    """Parse ``<name>@<major>``; the major version is a positive integer in ASCII
    digits, with no leading zero."""
    if not isinstance(text, str) or "@" not in text:
        raise MalformedError(f"profile must be '<name>@<major>': {shown(text)}")
    name, _, major_text = text.rpartition("@")
    if not name:
        raise MalformedError(f"empty profile name: {text!r}")
    if not _PROFILE_MAJOR_RE.match(major_text):
        raise MalformedError(f"profile major must be a positive integer: {text!r}")
    return Profile(name, _decimal(major_text))


# Value types written in YAML as strings, each with its parser.
STRING_PARSERS = {
    EntityId: parse_entity_id,
    Ref: parse_ref,
    SpecVersion: parse_spec_version,
    Profile: parse_profile,
}


# ---------------------------------------------------------------------------
# Entity building blocks


@dataclass(frozen=True, slots=True)
class Identifiers(_Sealed):
    doi: Optional[str] = _meta(None, minLength=1)
    arxiv: Optional[str] = _meta(None, minLength=1)
    isbn: Optional[str] = _meta(None, minLength=1)
    url: Optional[str] = _meta(None, minLength=1)

    def any_present(self) -> bool:
        return any(v is not None for v in (self.doi, self.arxiv, self.isbn, self.url))


@dataclass(frozen=True, slots=True)
class Locator(_Sealed):
    type: str = _vocab("path", "url")
    value: str = _meta(minLength=1)


@dataclass(frozen=True, slots=True)
class Representation(_Sealed):
    id: EntityId = _meta(minLength=1)
    media_type: str = _meta(minLength=1)
    locator: Locator


@dataclass(frozen=True, slots=True)
class SourceAnchor(_Sealed):
    representation_ref: EntityId = _meta(minLength=1)
    locator_type: str = _vocab("section", "table", "figure", "page", "equation", "other")
    locator: str = _meta(minLength=1)


@dataclass(frozen=True, slots=True)
class Confidence(_Sealed):
    claim_strength: str = _meta(enum=_CONFIDENCE_LEVELS)
    extraction_fidelity: str = _meta(enum=_CONFIDENCE_LEVELS)


@dataclass(frozen=True, slots=True)
class Observation(_Sealed):
    metric: str = _meta(minLength=1)
    value: Optional[float] = _meta(None, raw=True)
    unit: Optional[str] = None
    qualitative_value: Optional[str] = _meta(None, minLength=1)


@dataclass(frozen=True, slots=True)
class Actor(_Sealed):
    name: str = _meta(minLength=1)
    type: str = _vocab("person", "organization", "agent")


@dataclass(frozen=True)
class Provenance(_Sealed):
    origin: str = _vocab("author", "third_party", "machine", "other")
    actor: Actor
    generated_at: str = _meta(format="date-time")
    method: Optional[str] = None
    verification: Optional[str] = None
    x_extensions: Optional[dict[str, Any]] = None


@dataclass(frozen=True, slots=True)
class SafetyPolicy(_Sealed):
    sandbox_required: bool
    network: bool
    secrets_required: bool
    side_effects: str = _vocab("none", "temporary_files_only", "persistent", "external")


@dataclass(frozen=True, slots=True)
class ActionInterface(_Sealed):
    kind: str = _vocab("http", "cli", "other")
    locator: str = _meta(minLength=1)


@dataclass(frozen=True)
class Artifact(_Sealed):
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
class Statement(_Sealed):
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
class Evidence(_Sealed):
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
class Relation(_Sealed):
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
class Action(_Sealed):
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
class VersionTriple(_Sealed):
    spec: SpecVersion = _meta(pattern=_SEMVER_PATTERN, emit=as_text)
    record: str = _meta(minLength=1, load=as_text)
    source: str = _meta(minLength=1)


@dataclass(frozen=True)
class Freshness(_Sealed):
    as_of: str = _meta(format="date-time")
    update_policy: str = _vocab("versioned", "living", "frozen")
    stale_after: Optional[str] = _meta(None, format="date-time")


@dataclass(frozen=True)
class Coverage(_Sealed):
    statements: str = _vocab("none", "partial", "main_claims_only", "full")
    evidence: str = _vocab("none", "partial", "key_evidence_only", "full")


@dataclass(frozen=True)
class Author(_Sealed):
    name: str = _meta(minLength=1)
    affiliation: Optional[str] = None
    role: Optional[str] = None
    orcid: Optional[str] = None


@dataclass(frozen=True)
class ExternalMetadataRef(_Sealed):
    standard: str = _vocab(
        "datacite", "codemeta", "citation_cff", "croissant", "model_card", "ro_crate"
    )
    locator: str = _meta(minLength=1)


@dataclass(frozen=True)
class KnowsRecord(_Sealed):
    """Root sidecar document.

    Instances are value objects: two records loaded from differently ordered
    YAML compare equal.  Kept state: see the module docstring.
    """

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
    def _walk(self) -> tuple[tuple, dict[str, Any], tuple[str, ...], tuple[tuple[str, str, str], ...]]:
        """Entities with their paths, the index over them, their rendered IDs
        in the same order, and each repeated ID as (path, ID, first path)."""
        pairs: list[tuple[Any, str]] = []
        index: dict[str, Any] = {}
        ids: list[str] = []
        repeated: list[tuple[str, str]] = []  # (path, ID) of each entity whose ID came before
        listed: list[tuple[Any, str]] = []  # entities an entity lists, not yet visited
        for name in ENTITY_LISTS[KnowsRecord]:
            for i, entity in enumerate(getattr(self, name)):
                path = f"{name}/{i}"
                while True:
                    eid = entity.id
                    rendered = f"{eid.prefix}:{eid.local}" if type(eid) is EntityId else shown(eid, str)
                    if rendered not in index:
                        index[rendered] = entity
                    else:
                        repeated.append((path, rendered))
                    pairs.append((entity, path))
                    ids.append(rendered)
                    inner = ENTITY_LISTS[type(entity)]
                    if inner:  # visited next, before the entities listed after this one
                        listed[:0] = [
                            (each, f"{path}/{n}/{j}")
                            for n in inner
                            for j, each in enumerate(getattr(entity, n))
                        ]
                    if not listed:
                        break
                    entity, path = listed.pop(0)
        first: dict[str, str] = {}  # rendered ID -> path of its first entity, once one repeats
        if repeated:
            for rendered, (_, path) in zip(ids, pairs):
                first.setdefault(rendered, path)
        repeats = tuple((path, rendered, first[rendered]) for path, rendered in repeated)
        return tuple(pairs), index, tuple(ids), repeats

    def entities(self) -> tuple[tuple[Any, str], ...]:
        """Every entity with its path, in document order."""
        return self._walk[0]

    def entity_index(self) -> Mapping[str, Any]:
        """Rendered entity ID -> entity, first in document order wins; read-only."""
        return MappingProxyType(self._walk[1])

    def subject_artifact(self) -> Optional[Artifact]:
        subject = shown(self.subject_ref, str)
        for art in self.artifacts:
            if shown(art.id, str) == subject:
                return art
        return None


@dataclass(frozen=True, slots=True)
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


def replaced(value: Any, /, **changes: Any) -> Any:
    """A copy of ``value``, a model value that keeps state, with ``changes``
    made, as ``dataclasses.replace`` makes one but without calling ``__init__``.

    The copy's ``__dict__`` is filled with the fields only, so no kept state
    carries over.  A name that is not a field raises ``TypeError``, as it does
    for ``dataclasses.replace``; so does a slotted value, which has no
    ``__dict__`` (build it directly instead).
    """
    cls = type(value)
    names = cls.__dataclass_fields__
    if not names.keys() >= changes.keys():
        unknown = ", ".join(sorted(changes.keys() - names.keys()))
        raise TypeError(f"{cls.__name__} has no field named {unknown}")
    state = vars(value)
    made = object.__new__(cls)
    fresh = vars(made)
    for name in names:
        fresh[name] = state[name]
    fresh.update(changes)
    return made


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
        raise MalformedError(f"timestamp must be a string: {shown(text)}")
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
