"""The seven deterministic record checks with stable error codes.

Codes map one-to-one to the check list and never renumber:

K001 schema, K002 cross-reference integrity, K003 ID uniqueness,
K004 ID prefix conventions, K005 relation predicate constraints,
K006 artifact discoverability, K007 optional URL liveness.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from sys import intern
from typing import Any, Callable, Mapping, Optional, Union

# Imported for its effect: it gives every record its K001 findings, ``_k001``.
from . import schema  # noqa: F401
from .model import (
    CLASS_PREFIX,
    ENTITY_CLASS,
    PREDICATE_MATRIX,
    PREFIX_CLASS,
    REF_FIELDS,
    Artifact,
    EntityId,
    KnowsRecord,
    Ref,
    Representation,
    shown,
)
# Kept only for ``bench/tracer.py``, which wraps this name; no package code calls it.
from .serialization import record_to_tree as document_tree  # noqa: F401

UrlProbe = Callable[[str], int]

# Probes K007 keeps in flight at once.
_MAX_IN_FLIGHT = 8


class LintCode(str, Enum):
    SCHEMA = "K001"
    CROSSREF = "K002"
    ID_UNIQUE = "K003"
    ID_PREFIX = "K004"
    PREDICATE = "K005"
    DISCOVERABILITY = "K006"
    URL_LIVENESS = "K007"


@dataclass(frozen=True, slots=True)
class LintFinding:
    code: LintCode
    severity: str  # "error" | "warning"
    path: str
    message: str


@dataclass(frozen=True, slots=True)
class LintReport:
    findings: tuple[LintFinding, ...]
    checks_run: int

    @property
    def passed(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)


def _err(code: LintCode, path: str, message: str) -> LintFinding:
    return LintFinding(code=code, severity="error", path=path, message=message)


def _warn(code: LintCode, path: str, message: str) -> LintFinding:
    return LintFinding(code=code, severity="warning", path=path, message=message)


# ---------------------------------------------------------------------------
# Check 1: schema


def check_schema(record: KnowsRecord) -> list[LintFinding]:
    """The structural violations ``record`` keeps (K001; see :mod:`knows_sidecar.schema`)."""
    return [_err(LintCode.SCHEMA, path, message) for path, message in record._k001]


# ---------------------------------------------------------------------------
# Check 2: cross-reference integrity


def _named(value: Any) -> Optional[EntityId]:
    """The entity a parsed reference or entity ID names, building no ``Ref``;
    None for anything else."""
    if type(value) is Ref:
        return value.entity
    if type(value) is EntityId:
        return value
    return None


def _facts(owner: Any) -> tuple[tuple[Union[str, int], Optional[str], Optional[str]], ...]:
    """What K002 decides of ``owner`` alone, as (where, rendered target, what
    the target must be): each local reference field, by name, with the class
    it names, and each source anchor, by index, with None (a representation
    of the record).  A reference no index can mend has no rendered target but
    its finding's message.  Remote refs are grammar-checked only, which parsing did.
    Targets are interned: records name few IDs, and name them alike."""
    facts = []
    for name, targets in REF_FIELDS[type(owner)]:
        value = getattr(owner, name)
        if type(value) is Ref:
            if value.record_id is not None:
                continue
            entity = value.entity  # a parsed local reference, the common case
        else:
            entity = value if type(value) is EntityId else None
        if entity is None:
            facts.append((name, None, f"unparseable reference {shown(value)}"))
            continue
        cls = PREFIX_CLASS[entity.prefix]
        if targets is not None and cls not in targets:
            facts.append((name, None, f"reference {entity} may only target {sorted(targets)}"))
        else:
            facts.append((name, intern(f"{entity.prefix}:{entity.local}"), cls))
    if type(owner) in _ANCHORED:
        for j, anchor in enumerate(owner.source_anchors):
            ref = anchor.representation_ref
            if type(ref) is EntityId:
                facts.append((j, intern(f"{ref.prefix}:{ref.local}"), None))
            else:
                facts.append((j, None, f"unparseable reference {shown(ref)}"))
    return tuple(facts) if facts else ()


# The entity classes with source anchors, and those with anything for K002 to
# check, which keep their facts (``_k002``) in their instance ``__dict__``.
_ANCHORED = frozenset(cls for cls in ENTITY_CLASS if "source_anchors" in cls.__dataclass_fields__)
_REFERRING = _ANCHORED | {cls for cls in ENTITY_CLASS if REF_FIELDS[cls]}


def _join(
    facts: tuple, path: str, index: Mapping[str, Any], local_reps: set[str], findings: list[LintFinding]
) -> None:
    """Check the ``facts`` of the owner at ``path`` ("" for the record) against its record."""
    for key, rendered, known in facts:
        if rendered is None:
            message = known
        elif known is None:  # a source anchor, which names a representation of this record
            if rendered in local_reps:
                continue
            message = f"dangling reference {rendered}"
        else:
            target = index.get(rendered)
            if target is None:
                message = f"dangling reference {rendered}"
            elif ENTITY_CLASS[type(target)] != known:
                message = f"reference {rendered} resolves to a {ENTITY_CLASS[type(target)]}"
            else:
                continue
        if type(key) is int:
            key = f"source_anchors/{key}/representation_ref"
        findings.append(_err(LintCode.CROSSREF, f"{path}/{key}" if path else key, message))


def _artifact_ids(record: KnowsRecord) -> list[str]:
    """The rendered ID of each of ``record.artifacts``, read from its walk,
    which visits them first and in order."""
    pairs, _, ids, _ = record._walk
    artifacts = record.artifacts
    rendered: list[str] = []
    for (entity, _), each in zip(pairs, ids):
        if len(rendered) == len(artifacts):
            break
        if entity is artifacts[len(rendered)]:
            rendered.append(each)
    return rendered


def check_crossrefs(record: KnowsRecord) -> list[LintFinding]:
    """Join each entity's kept facts, ``_k002``, with the record; check its subject."""
    findings: list[LintFinding] = []
    pairs, index, ids, _ = record._walk
    local_reps = {rendered for (e, _), rendered in zip(pairs, ids) if type(e) is Representation}
    subject_ref = shown(record.subject_ref, str)

    _join(_facts(record), "", index, local_reps, findings)
    for artifact, rendered in zip(record.artifacts, _artifact_ids(record)):
        if rendered == subject_ref:  # the first such artifact is the subject
            if artifact.role != "subject":
                message = f"{subject_ref} does not have role=subject"
                findings.append(_err(LintCode.CROSSREF, "subject_ref", message))
            break
    for (entity, path), rendered in zip(pairs, ids):
        kind = type(entity)
        if kind in _REFERRING:
            state = entity.__dict__
            facts = state.get("_k002")
            if facts is None:  # kept as a ``cached_property`` would keep it, without its lock
                facts = state["_k002"] = _facts(entity)
            if facts:
                _join(facts, path, index, local_reps, findings)
        elif kind is Artifact and entity.role == "subject" and rendered != subject_ref:
            message = f"extra subject artifact {rendered}; subject_ref names {subject_ref}"
            findings.append(_err(LintCode.CROSSREF, path, message))
    return findings


# ---------------------------------------------------------------------------
# Check 3: ID uniqueness (one namespace across all entity kinds)


def check_id_uniqueness(record: KnowsRecord) -> list[LintFinding]:
    return [
        _err(LintCode.ID_UNIQUE, path, f"duplicate entity id {rendered} (first declared at {first})")
        for path, rendered, first in record._walk[3]
    ]


# ---------------------------------------------------------------------------
# Check 4: ID prefix conventions


def check_id_prefixes(record: KnowsRecord) -> list[LintFinding]:
    findings: list[LintFinding] = []
    for entity, path in record.entities():
        cls = ENTITY_CLASS[type(entity)]
        expected = CLASS_PREFIX[cls]
        if not isinstance(entity.id, EntityId):
            message = f"unparseable entity id {shown(entity.id)}"
        elif entity.id.prefix != expected:
            message = f"{cls} id must use prefix '{expected}:', got {entity.id}"
        else:
            continue
        findings.append(_err(LintCode.ID_PREFIX, f"{path}/id", message))
    return findings


# ---------------------------------------------------------------------------
# Check 5: relation predicate constraints


def check_predicates(record: KnowsRecord) -> list[LintFinding]:
    findings: list[LintFinding] = []
    for i, rel in enumerate(record.relations):
        if rel.citation_intent is not None and rel.predicate != "cites":
            message = "citation_intent is only allowed with predicate 'cites'"
            findings.append(_err(LintCode.PREDICATE, f"relations/{i}", message))
        if not isinstance(rel.predicate, str):
            continue  # a non-string predicate is K001's finding
        allowed = PREDICATE_MATRIX.get(rel.predicate)
        if allowed is None:
            continue  # out-of-vocabulary predicate is K001's finding
        subject, obj = _named(rel.subject_ref), _named(rel.object_ref)
        if subject is None or obj is None:
            continue  # unparseable endpoints are K002's findings
        pair = (subject.prefix, obj.prefix)
        if pair not in allowed:
            message = f"predicate '{rel.predicate}' does not admit ({pair[0]} -> {pair[1]})"
            findings.append(_err(LintCode.PREDICATE, f"relations/{i}", message))
    return findings


# ---------------------------------------------------------------------------
# Check 6: artifact discoverability


def check_discoverability(record: KnowsRecord) -> list[LintFinding]:
    findings: list[LintFinding] = []
    subject = shown(record.subject_ref, str)
    for i, (art, rendered) in enumerate(zip(record.artifacts, _artifact_ids(record))):
        has_identifier = art.identifiers is not None and art.identifiers.any_present()
        has_representation = any(
            rep.locator is not None and rep.locator.value for rep in art.representations
        )
        if not has_identifier and not has_representation:
            message = f"artifact {rendered} has neither an identifier nor a located representation"
            findings.append(_err(LintCode.DISCOVERABILITY, f"artifacts/{i}", message))
        if rendered == subject and not has_representation:
            message = f"subject artifact {rendered} must carry at least one representation"
            findings.append(_err(LintCode.DISCOVERABILITY, f"artifacts/{i}", message))
    return findings


# ---------------------------------------------------------------------------
# Check 7: optional URL liveness


def _record_urls(record: KnowsRecord) -> list[tuple[str, str]]:
    urls: list[tuple[str, str]] = []
    for i, art in enumerate(record.artifacts):
        if art.identifiers is not None and art.identifiers.url:
            urls.append((f"artifacts/{i}/identifiers/url", art.identifiers.url))
        for j, rep in enumerate(art.representations):
            if rep.locator is not None and rep.locator.type == "url" and rep.locator.value:
                urls.append((f"artifacts/{i}/representations/{j}/locator", rep.locator.value))
    return urls


def check_url_liveness(
    record: KnowsRecord,
    fetcher: UrlProbe,
    *,
    as_errors: bool = False,
) -> list[LintFinding]:
    """Probe every url-type locator and identifiers.url; failures become K007."""
    targets = _record_urls(record)
    findings: list[LintFinding] = []

    def probe(url: str) -> Optional[int]:
        try:
            return fetcher(url)
        except Exception:
            return None

    if targets:
        with ThreadPoolExecutor(max_workers=_MAX_IN_FLIGHT) as pool:
            statuses = list(pool.map(probe, (url for _, url in targets)))
        for (path, url), status in zip(targets, statuses):
            if status is None or not (200 <= status < 400):
                mk = _err if as_errors else _warn
                message = f"url {shown(url, str)} is not live (status {status})"
                findings.append(mk(LintCode.URL_LIVENESS, path, message))
    return findings


# ---------------------------------------------------------------------------
# Driver


def lint(
    record: KnowsRecord,
    *,
    fetcher: Optional[UrlProbe] = None,
    liveness_errors: bool = False,
) -> LintReport:
    """Run checks K001-K006, plus K007 through ``fetcher`` when one is given.

    Violations become findings; lint itself never raises on record content.
    Findings are sorted by (path, code) so reports are canonical.
    """
    findings: list[LintFinding] = []
    findings.extend(check_schema(record))
    findings.extend(check_crossrefs(record))
    findings.extend(check_id_uniqueness(record))
    findings.extend(check_id_prefixes(record))
    findings.extend(check_predicates(record))
    findings.extend(check_discoverability(record))
    checks_run = 6
    if fetcher is not None:
        findings.extend(
            check_url_liveness(record, fetcher, as_errors=liveness_errors)
        )
        checks_run = 7
    # str(): a non-string root key is its own K001 path.
    findings.sort(key=lambda f: (str(f.path), f.code.value))
    return LintReport(findings=tuple(findings), checks_run=checks_run)


def render_lines(report: LintReport) -> str:
    """Machine-readable line format: ``<code> <severity> <path> <message>``."""
    return "\n".join(
        f"{f.code.value} {f.severity} {f.path or '.'} {f.message}" for f in report.findings
    )


def render_text(report: LintReport) -> str:
    lines = [f"{f.code.value} [{f.severity}] {f.path or '.'}: {f.message}" for f in report.findings]
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"{verdict} ({report.checks_run}/7 checks)")
    return "\n".join(lines)
