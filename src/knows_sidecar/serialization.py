"""Lossless YAML reading and writing of KnowsRecords.

Loading is deliberately lenient: structural problems (missing fields, unknown
keys, out-of-vocabulary enum values) never abort the load.  They stay visible
in the retained document tree so the linter can report them, and enum-valued
fields keep their raw strings.  Emission is canonical: root fields in declared
order, entity fields in declaration order, so two emissions of the same record
are byte-identical.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from typing import Any, Optional

import yaml

from . import model
from .errors import MalformedError, RecordSyntaxError, TypeMismatchError
from .model import (
    Action,
    ActionInterface,
    Actor,
    Artifact,
    Author,
    Confidence,
    Coverage,
    EntityId,
    Evidence,
    ExternalMetadataRef,
    Freshness,
    Identifiers,
    KnowsRecord,
    Locator,
    Observation,
    Profile,
    Provenance,
    Ref,
    Relation,
    Representation,
    SafetyPolicy,
    SourceAnchor,
    SpecVersion,
    Statement,
    VersionTriple,
    parse_entity_id,
    parse_profile,
    parse_ref,
    parse_spec_version,
)


@dataclass(frozen=True)
class UnknownFieldEntry:
    path: str
    key: str


@dataclass(frozen=True)
class UnknownFieldLog:
    entries: tuple[UnknownFieldEntry, ...]


@dataclass(frozen=True)
class SourceDocument:
    """Raw bytes plus the generic YAML tree they decode to."""

    raw: bytes
    tree: dict[str, Any]


_SOURCE_ATTR = "_knows_source_document"


def attach_source(record: KnowsRecord, doc: SourceDocument) -> None:
    object.__setattr__(record, _SOURCE_ATTR, doc)


def source_of(record: KnowsRecord) -> Optional[SourceDocument]:
    return getattr(record, _SOURCE_ATTR, None)


def document_tree(record: KnowsRecord) -> dict[str, Any]:
    """The record's retained source tree, or its canonical re-emission."""
    doc = source_of(record)
    if doc is not None:
        return doc.tree
    return record_to_tree(record)


# ---------------------------------------------------------------------------
# Loading

# libyaml's parser when PyYAML was built with it.  It accepts a tab after a
# plain scalar, rejects surrogate escapes such as "\ud800", loads a bare ``!``
# tag as '' rather than None, and skips U+FEFF at the start of a line;
# otherwise it builds the pure loader's trees.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_record(data: bytes | str) -> tuple[KnowsRecord, UnknownFieldLog]:
    """Decode one YAML document into a typed record plus an unknown-field log.

    Raises :class:`RecordSyntaxError` for malformed YAML or multi-document
    streams and :class:`TypeMismatchError` when the root is not a mapping.
    """
    if isinstance(data, str):
        raw = data.encode("utf-8")
    else:
        raw = bytes(data)
    text = raw.decode("utf-8-sig")
    try:
        docs = list(yaml.load_all(text, Loader=_LOADER))
    except yaml.YAMLError as exc:
        raise RecordSyntaxError(f"invalid YAML: {exc}") from exc
    docs = [d for d in docs if d is not None]
    if len(docs) != 1:
        raise RecordSyntaxError(f"expected exactly one YAML document, got {len(docs)}")
    tree = docs[0]
    if not isinstance(tree, dict):
        raise TypeMismatchError("record root must be a mapping")

    log: list[UnknownFieldEntry] = []
    record = _record_from_tree(tree, log)
    attach_source(record, SourceDocument(raw=raw, tree=tree))
    return record, UnknownFieldLog(tuple(log))


def _log_extension_keys(value: Any, path: str, log: list[UnknownFieldEntry]) -> None:
    if isinstance(value, dict):
        for key in value:
            log.append(UnknownFieldEntry(path=path, key=str(key)))


def _id(value: Any) -> Any:
    """Parse an entity ID leniently, keeping the raw value on failure."""
    try:
        return parse_entity_id(value)
    except MalformedError:
        return value


def _ref(value: Any) -> Any:
    try:
        return parse_ref(value)
    except MalformedError:
        return value


def _str_or_none(value: Any) -> Optional[str]:
    return value if isinstance(value, str) else None


def _mapping(value: Any) -> dict[str, Any]:
    return value if isinstance(value, dict) else {}


def _sequence(value: Any) -> list[Any]:
    return value if isinstance(value, list) else []


def _maybe(ctor, value: Any, path: str, log: list[UnknownFieldEntry]):
    if not isinstance(value, dict):
        return None
    return ctor(value, path, log)


def _identifiers(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> Identifiers:
    return Identifiers(
        doi=_str_or_none(m.get("doi")),
        arxiv=_str_or_none(m.get("arxiv")),
        isbn=_str_or_none(m.get("isbn")),
        url=_str_or_none(m.get("url")),
    )


def _locator(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> Locator:
    return Locator(type=m.get("type"), value=m.get("value"))


def _representation(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> Representation:
    return Representation(
        id=_id(m.get("id")),
        media_type=m.get("media_type"),
        locator=_maybe(_locator, m.get("locator"), f"{path}/locator", log),
    )


def _source_anchor(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> SourceAnchor:
    return SourceAnchor(
        representation_ref=_id(m.get("representation_ref")),
        locator_type=m.get("locator_type"),
        locator=m.get("locator"),
    )


def _anchors(value: Any, path: str, log: list[UnknownFieldEntry]) -> tuple[SourceAnchor, ...]:
    return tuple(
        _source_anchor(item, f"{path}/{i}", log)
        for i, item in enumerate(_sequence(value))
        if isinstance(item, dict)
    )


def _confidence(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> Confidence:
    return Confidence(
        claim_strength=m.get("claim_strength"),
        extraction_fidelity=m.get("extraction_fidelity"),
    )


def _actor(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> Actor:
    return Actor(name=m.get("name"), type=m.get("type"))


def _provenance(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> Provenance:
    x = m.get("x_extensions")
    _log_extension_keys(x, f"{path}/x_extensions", log)
    return Provenance(
        origin=m.get("origin"),
        actor=_maybe(_actor, m.get("actor"), f"{path}/actor", log),
        generated_at=m.get("generated_at"),
        method=_str_or_none(m.get("method")),
        verification=_str_or_none(m.get("verification")),
        x_extensions=x if isinstance(x, dict) else None,
    )


def _x_extensions(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> Optional[dict[str, Any]]:
    x = m.get("x_extensions")
    _log_extension_keys(x, f"{path}/x_extensions", log)
    return x if isinstance(x, dict) else None


def _artifact(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> Artifact:
    return Artifact(
        id=_id(m.get("id")),
        artifact_type=m.get("artifact_type"),
        role=m.get("role"),
        title=m.get("title"),
        identifiers=_maybe(_identifiers, m.get("identifiers"), f"{path}/identifiers", log),
        representations=tuple(
            _representation(item, f"{path}/representations/{i}", log)
            for i, item in enumerate(_sequence(m.get("representations")))
            if isinstance(item, dict)
        ),
        x_extensions=_x_extensions(m, path, log),
    )


def _statement(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> Statement:
    return Statement(
        id=_id(m.get("id")),
        statement_type=m.get("statement_type"),
        text=m.get("text"),
        about_ref=_ref(m.get("about_ref")),
        status=m.get("status"),
        modality=_str_or_none(m.get("modality")),
        source_anchors=_anchors(m.get("source_anchors"), f"{path}/source_anchors", log),
        confidence=_maybe(_confidence, m.get("confidence"), f"{path}/confidence", log),
        provenance=_maybe(_provenance, m.get("provenance"), f"{path}/provenance", log),
        x_extensions=_x_extensions(m, path, log),
    )


def _observation(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> Observation:
    return Observation(
        metric=m.get("metric"),
        value=m.get("value"),
        unit=_str_or_none(m.get("unit")),
        qualitative_value=_str_or_none(m.get("qualitative_value")),
    )


def _evidence(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> Evidence:
    return Evidence(
        id=_id(m.get("id")),
        evidence_type=m.get("evidence_type"),
        summary=m.get("summary"),
        source_anchors=_anchors(m.get("source_anchors"), f"{path}/source_anchors", log),
        observations=tuple(
            _observation(item, f"{path}/observations/{i}", log)
            for i, item in enumerate(_sequence(m.get("observations")))
            if isinstance(item, dict)
        ),
        provenance=_maybe(_provenance, m.get("provenance"), f"{path}/provenance", log),
        x_extensions=_x_extensions(m, path, log),
    )


def _relation(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> Relation:
    return Relation(
        id=_id(m.get("id")),
        subject_ref=_ref(m.get("subject_ref")),
        predicate=m.get("predicate"),
        object_ref=_ref(m.get("object_ref")),
        citation_intent=_str_or_none(m.get("citation_intent")),
        x_extensions=_x_extensions(m, path, log),
    )


def _interface(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> ActionInterface:
    return ActionInterface(kind=m.get("kind"), locator=m.get("locator"))


def _safety(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> SafetyPolicy:
    return SafetyPolicy(
        sandbox_required=m.get("sandbox_required"),
        network=m.get("network"),
        secrets_required=m.get("secrets_required"),
        side_effects=m.get("side_effects"),
    )


def _action(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> Action:
    return Action(
        id=_id(m.get("id")),
        action_type=m.get("action_type"),
        label=m.get("label"),
        target_ref=_ref(m.get("target_ref")),
        interface=_maybe(_interface, m.get("interface"), f"{path}/interface", log),
        safety=_maybe(_safety, m.get("safety"), f"{path}/safety", log),
        x_extensions=_x_extensions(m, path, log),
    )


def _author(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> Author:
    return Author(
        name=m.get("name"),
        affiliation=_str_or_none(m.get("affiliation")),
        role=_str_or_none(m.get("role")),
        orcid=_str_or_none(m.get("orcid")),
    )


def _coverage(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> Coverage:
    return Coverage(statements=m.get("statements"), evidence=m.get("evidence"))


def _version_triple(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> VersionTriple:
    spec = m.get("spec")
    try:
        spec = parse_spec_version(spec)
    except MalformedError:
        pass
    record = m.get("record")
    return VersionTriple(
        spec=spec,
        record=str(record) if record is not None else None,
        source=m.get("source") if isinstance(m.get("source"), str) else m.get("source"),
    )


def _freshness(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> Freshness:
    return Freshness(
        as_of=m.get("as_of"),
        update_policy=m.get("update_policy"),
        stale_after=_str_or_none(m.get("stale_after")),
    )


def _external_ref(m: dict[str, Any], path: str, log: list[UnknownFieldEntry]) -> ExternalMetadataRef:
    return ExternalMetadataRef(standard=m.get("standard"), locator=m.get("locator"))


def _record_from_tree(tree: dict[str, Any], log: list[UnknownFieldEntry]) -> KnowsRecord:
    for key in tree:
        if key not in model.ROOT_FIELDS:
            log.append(UnknownFieldEntry(path="", key=str(key)))
    extensions = tree.get("extensions")
    _log_extension_keys(extensions, "extensions", log)

    knows_version = tree.get("knows_version")
    try:
        knows_version = parse_spec_version(knows_version)
    except MalformedError:
        pass
    profile = tree.get("profile")
    try:
        profile = parse_profile(profile)
    except MalformedError:
        pass

    return KnowsRecord(
        schema_uri=tree.get("$schema", model.SCHEMA_URI),
        knows_version=knows_version,
        record_id=tree.get("record_id"),
        profile=profile,
        subject_ref=_id(tree.get("subject_ref")),
        title=tree.get("title"),
        summary=tree.get("summary"),
        authors=tuple(
            _author(item, f"authors/{i}", log)
            for i, item in enumerate(_sequence(tree.get("authors")))
            if isinstance(item, dict)
        ),
        license=tree.get("license"),
        coverage=_maybe(_coverage, tree.get("coverage"), "coverage", log),
        artifacts=tuple(
            _artifact(item, f"artifacts/{i}", log)
            for i, item in enumerate(_sequence(tree.get("artifacts")))
            if isinstance(item, dict)
        ),
        statements=tuple(
            _statement(item, f"statements/{i}", log)
            for i, item in enumerate(_sequence(tree.get("statements")))
            if isinstance(item, dict)
        ),
        evidence=tuple(
            _evidence(item, f"evidence/{i}", log)
            for i, item in enumerate(_sequence(tree.get("evidence")))
            if isinstance(item, dict)
        ),
        relations=tuple(
            _relation(item, f"relations/{i}", log)
            for i, item in enumerate(_sequence(tree.get("relations")))
            if isinstance(item, dict)
        ),
        provenance=_maybe(_provenance, tree.get("provenance"), "provenance", log),
        version=_maybe(_version_triple, tree.get("version"), "version", log),
        freshness=_maybe(_freshness, tree.get("freshness"), "freshness", log),
        abstract=_str_or_none(tree.get("abstract")),
        venue=_str_or_none(tree.get("venue")),
        year=tree.get("year") if isinstance(tree.get("year"), int) else None,
        keywords=tuple(k for k in _sequence(tree.get("keywords")) if isinstance(k, str)),
        record_status=_str_or_none(tree.get("record_status")),
        replaces=_str_or_none(tree.get("replaces")),
        actions=tuple(
            _action(item, f"actions/{i}", log)
            for i, item in enumerate(_sequence(tree.get("actions")))
            if isinstance(item, dict)
        ),
        resources=tuple(_sequence(tree.get("resources"))),
        external_metadata_refs=tuple(
            _external_ref(item, f"external_metadata_refs/{i}", log)
            for i, item in enumerate(_sequence(tree.get("external_metadata_refs")))
            if isinstance(item, dict)
        ),
        extensions=extensions if isinstance(extensions, dict) else None,
    )


# ---------------------------------------------------------------------------
# Emission


def _drop_none(m: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in m.items() if v is not None}


def _render_id(value: Any) -> Any:
    return str(value) if isinstance(value, (EntityId, Ref)) else value


def _identifiers_tree(v: Identifiers) -> dict[str, Any]:
    return _drop_none({"doi": v.doi, "arxiv": v.arxiv, "isbn": v.isbn, "url": v.url})


def _locator_tree(v: Optional[Locator]) -> Optional[dict[str, Any]]:
    if v is None:
        return None
    return _drop_none({"type": v.type, "value": v.value})


def _representation_tree(v: Representation) -> dict[str, Any]:
    return _drop_none(
        {
            "id": _render_id(v.id),
            "media_type": v.media_type,
            "locator": _locator_tree(v.locator),
        }
    )


def _anchor_tree(v: SourceAnchor) -> dict[str, Any]:
    return _drop_none(
        {
            "representation_ref": _render_id(v.representation_ref),
            "locator_type": v.locator_type,
            "locator": v.locator,
        }
    )


def _provenance_tree(v: Optional[Provenance]) -> Optional[dict[str, Any]]:
    if v is None:
        return None
    actor = None
    if v.actor is not None:
        actor = _drop_none({"name": v.actor.name, "type": v.actor.type})
    return _drop_none(
        {
            "origin": v.origin,
            "actor": actor,
            "generated_at": v.generated_at,
            "method": v.method,
            "verification": v.verification,
            "x_extensions": v.x_extensions,
        }
    )


def _artifact_tree(v: Artifact) -> dict[str, Any]:
    return _drop_none(
        {
            "id": _render_id(v.id),
            "artifact_type": v.artifact_type,
            "role": v.role,
            "title": v.title,
            "identifiers": _identifiers_tree(v.identifiers) if v.identifiers else None,
            "representations": [_representation_tree(r) for r in v.representations] or None,
            "x_extensions": v.x_extensions,
        }
    )


def _confidence_tree(v: Optional[Confidence]) -> Optional[dict[str, Any]]:
    if v is None:
        return None
    return _drop_none(
        {"claim_strength": v.claim_strength, "extraction_fidelity": v.extraction_fidelity}
    )


def _statement_tree(v: Statement) -> dict[str, Any]:
    return _drop_none(
        {
            "id": _render_id(v.id),
            "statement_type": v.statement_type,
            "text": v.text,
            "about_ref": _render_id(v.about_ref),
            "status": v.status,
            "modality": v.modality,
            "source_anchors": [_anchor_tree(a) for a in v.source_anchors] or None,
            "confidence": _confidence_tree(v.confidence),
            "provenance": _provenance_tree(v.provenance),
            "x_extensions": v.x_extensions,
        }
    )


def _observation_tree(v: Observation) -> dict[str, Any]:
    return _drop_none(
        {
            "metric": v.metric,
            "value": v.value,
            "unit": v.unit,
            "qualitative_value": v.qualitative_value,
        }
    )


def _evidence_tree(v: Evidence) -> dict[str, Any]:
    return _drop_none(
        {
            "id": _render_id(v.id),
            "evidence_type": v.evidence_type,
            "summary": v.summary,
            "source_anchors": [_anchor_tree(a) for a in v.source_anchors] or None,
            "observations": [_observation_tree(o) for o in v.observations] or None,
            "provenance": _provenance_tree(v.provenance),
            "x_extensions": v.x_extensions,
        }
    )


def _relation_tree(v: Relation) -> dict[str, Any]:
    return _drop_none(
        {
            "id": _render_id(v.id),
            "subject_ref": _render_id(v.subject_ref),
            "predicate": v.predicate,
            "object_ref": _render_id(v.object_ref),
            "citation_intent": v.citation_intent,
            "x_extensions": v.x_extensions,
        }
    )


def _action_tree(v: Action) -> dict[str, Any]:
    interface = None
    if v.interface is not None:
        interface = _drop_none({"kind": v.interface.kind, "locator": v.interface.locator})
    safety = None
    if v.safety is not None:
        safety = _drop_none(
            {
                "sandbox_required": v.safety.sandbox_required,
                "network": v.safety.network,
                "secrets_required": v.safety.secrets_required,
                "side_effects": v.safety.side_effects,
            }
        )
    return _drop_none(
        {
            "id": _render_id(v.id),
            "action_type": v.action_type,
            "label": v.label,
            "target_ref": _render_id(v.target_ref),
            "interface": interface,
            "safety": safety,
            "x_extensions": v.x_extensions,
        }
    )


def _author_tree(v: Author) -> dict[str, Any]:
    return _drop_none(
        {"name": v.name, "affiliation": v.affiliation, "role": v.role, "orcid": v.orcid}
    )


def record_to_tree(record: KnowsRecord) -> dict[str, Any]:
    """Build the canonical document tree: root fields in declared order."""
    version = None
    if record.version is not None:
        version = _drop_none(
            {
                "spec": str(record.version.spec) if record.version.spec is not None else None,
                "record": record.version.record,
                "source": record.version.source,
            }
        )
    freshness = None
    if record.freshness is not None:
        freshness = _drop_none(
            {
                "as_of": record.freshness.as_of,
                "update_policy": record.freshness.update_policy,
                "stale_after": record.freshness.stale_after,
            }
        )
    coverage = None
    if record.coverage is not None:
        coverage = _drop_none(
            {"statements": record.coverage.statements, "evidence": record.coverage.evidence}
        )
    tree: dict[str, Any] = {
        "$schema": record.schema_uri,
        "knows_version": str(record.knows_version)
        if isinstance(record.knows_version, SpecVersion)
        else record.knows_version,
        "record_id": record.record_id,
        "profile": str(record.profile)
        if isinstance(record.profile, Profile)
        else record.profile,
        "subject_ref": _render_id(record.subject_ref),
        "title": record.title,
        "summary": record.summary,
        "authors": [_author_tree(a) for a in record.authors],
        "license": record.license,
        "coverage": coverage,
        "artifacts": [_artifact_tree(a) for a in record.artifacts],
        "statements": [_statement_tree(s) for s in record.statements],
        "evidence": [_evidence_tree(e) for e in record.evidence],
        "relations": [_relation_tree(r) for r in record.relations],
        "provenance": _provenance_tree(record.provenance),
        "version": version,
        "freshness": freshness,
    }
    optional: dict[str, Any] = {
        "abstract": record.abstract,
        "venue": record.venue,
        "year": record.year,
        "keywords": list(record.keywords) or None,
        "record_status": record.record_status,
        "replaces": record.replaces,
        "actions": [_action_tree(a) for a in record.actions] or None,
        "resources": list(record.resources) or None,
        "external_metadata_refs": [
            _drop_none({"standard": r.standard, "locator": r.locator})
            for r in record.external_metadata_refs
        ]
        or None,
        "extensions": record.extensions,
    }
    tree.update(_drop_none(optional))
    return {k: v for k, v in tree.items() if v is not None}


# libyaml's emitter writes the pure emitter's bytes only for trees in a
# narrower domain.  Outside it libyaml escapes code points above U+FFFF,
# raises on lone surrogates, escapes U+0085 differently, folds long
# double-quoted lines at other columns, and picks the ``? key`` form for other
# keys (it measures keys in bytes, the pure emitter in characters).  Deeply
# nested trees stay on the pure path too, so one too deep for Python's
# recursion limit fails there as it always did.  Trees outside the domain go
# through the pure emitter, so every byte is the same.
_C_DUMPER = getattr(yaml, "CSafeDumper", None)
_C_UNSAFE_CHAR = re.compile("[\x85\ud800-\udfff\U00010000-\U0010ffff]").search
_C_MAX_STR = 10_000  # even escaped (6 columns a character), far inside the width of 100000
_C_MAX_KEY = 64
_C_MAX_DEPTH = 64
_C_SCALARS = frozenset({bool, int, float, type(None), datetime.date, datetime.datetime})


def _in_c_domain(tree: Any) -> bool:
    """True when libyaml emits ``tree`` exactly as the pure emitter does.

    A list or mapping met twice (a YAML alias) also sends the tree to the
    pure emitter, which keeps this walk linear on alias-heavy trees.
    """
    stack = [(tree, 0)]
    seen: set[int] = set()
    while stack:
        node, depth = stack.pop()
        kind = type(node)
        if kind is str:
            if len(node) > _C_MAX_STR or (not node.isascii() and _C_UNSAFE_CHAR(node)):
                return False
        elif kind is dict or kind is list:
            if depth == _C_MAX_DEPTH or id(node) in seen:
                return False
            seen.add(id(node))
            if kind is list:
                stack.extend((value, depth + 1) for value in node)
                continue
            for key, value in node.items():
                if not (
                    type(key) is str
                    and 0 < len(key) <= _C_MAX_KEY
                    and key.isascii()
                    and key.isprintable()
                ):
                    return False
                stack.append((value, depth + 1))
        elif kind not in _C_SCALARS:
            return False
    return True


def emit_record(record: KnowsRecord) -> bytes:
    """Serialize a record canonically; two emissions are byte-identical."""
    tree = record_to_tree(record)
    dumper = _C_DUMPER if _C_DUMPER is not None and _in_c_domain(tree) else yaml.SafeDumper
    text = yaml.dump(
        tree,
        Dumper=dumper,
        sort_keys=False,
        allow_unicode=True,
        default_flow_style=False,
        width=100000,
    )
    return text.encode("utf-8")
