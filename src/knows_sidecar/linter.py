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
from typing import Any, Callable, Optional

from . import schema
from .model import CLASS_PREFIX, ENTITY_CLASS, PREFIX_CLASS, EntityId, KnowsRecord, Ref
from .serialization import document_tree

UrlProbe = Callable[[str], int]


class LintCode(str, Enum):
    SCHEMA = "K001"
    CROSSREF = "K002"
    ID_UNIQUE = "K003"
    ID_PREFIX = "K004"
    PREDICATE = "K005"
    DISCOVERABILITY = "K006"
    URL_LIVENESS = "K007"


@dataclass(frozen=True)
class LintFinding:
    code: LintCode
    severity: str  # "error" | "warning"
    path: str
    message: str


@dataclass(frozen=True)
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


def check_schema(tree: Any, record: KnowsRecord) -> list[LintFinding]:
    """Structural violations of the raw document tree (K001)."""
    return [
        _err(LintCode.SCHEMA, path, message) for path, message in schema.validate_tree(tree)
    ]


# ---------------------------------------------------------------------------
# Check 2: cross-reference integrity


def _check_local_ref(
    ref: Any,
    path: str,
    index: dict[str, Any],
    allowed_classes: Optional[set[str]] = None,
) -> list[LintFinding]:
    """Resolve one reference field; remote refs are grammar-checked only."""
    if not isinstance(ref, (Ref, EntityId)):
        return [_err(LintCode.CROSSREF, path, f"unparseable reference {ref!r}")]
    if isinstance(ref, Ref):
        if ref.is_remote:
            return []
        entity_id = ref.entity
    else:
        entity_id = ref
    if allowed_classes is not None and entity_id.entity_class not in allowed_classes:
        return [
            _err(
                LintCode.CROSSREF,
                path,
                f"reference {entity_id} may only target {sorted(allowed_classes)}",
            )
        ]
    target = index.get(str(entity_id))
    if target is None:
        return [_err(LintCode.CROSSREF, path, f"dangling reference {entity_id}")]
    target_class = ENTITY_CLASS[type(target)]
    if target_class != entity_id.entity_class:
        return [
            _err(
                LintCode.CROSSREF,
                path,
                f"reference {entity_id} resolves to a {target_class}",
            )
        ]
    return []


def check_crossrefs(record: KnowsRecord, registry: Optional[dict[str, Any]] = None) -> list[LintFinding]:
    findings: list[LintFinding] = []
    index = record.entity_index()
    local_reps = {str(r.id) for a in record.artifacts for r in a.representations}

    findings.extend(_check_local_ref(record.subject_ref, "subject_ref", index, {"artifact"}))
    subject = record.subject_artifact()
    if subject is not None and subject.role != "subject":
        findings.append(
            _err(LintCode.CROSSREF, "subject_ref", f"{record.subject_ref} does not have role=subject")
        )
    for i, art in enumerate(record.artifacts):
        if art.role == "subject" and str(art.id) != str(record.subject_ref):
            findings.append(
                _err(
                    LintCode.CROSSREF,
                    f"artifacts/{i}",
                    f"extra subject artifact {art.id}; subject_ref names {record.subject_ref}",
                )
            )

    def check_anchors(anchors, base: str) -> None:
        for j, anchor in enumerate(anchors):
            path = f"{base}/source_anchors/{j}/representation_ref"
            ref = anchor.representation_ref
            if not isinstance(ref, EntityId):
                findings.append(_err(LintCode.CROSSREF, path, f"unparseable reference {ref!r}"))
            elif str(ref) not in local_reps:
                findings.append(_err(LintCode.CROSSREF, path, f"dangling reference {ref}"))

    for i, stmt in enumerate(record.statements):
        findings.extend(
            _check_local_ref(
                stmt.about_ref, f"statements/{i}/about_ref", index, {"artifact", "statement"}
            )
        )
        check_anchors(stmt.source_anchors, f"statements/{i}")
    for i, ev in enumerate(record.evidence):
        check_anchors(ev.source_anchors, f"evidence/{i}")
    for i, rel in enumerate(record.relations):
        findings.extend(_check_local_ref(rel.subject_ref, f"relations/{i}/subject_ref", index))
        findings.extend(_check_local_ref(rel.object_ref, f"relations/{i}/object_ref", index))
    for i, act in enumerate(record.actions):
        findings.extend(_check_local_ref(act.target_ref, f"actions/{i}/target_ref", index))

    if registry is not None and record.replaces is not None and record.replaces not in registry:
        findings.append(
            _warn(LintCode.CROSSREF, "replaces", f"replaced record {record.replaces!r} not in registry")
        )
    return findings


# ---------------------------------------------------------------------------
# Check 3: ID uniqueness (one namespace across all entity kinds)


def check_id_uniqueness(record: KnowsRecord) -> list[LintFinding]:
    findings: list[LintFinding] = []
    seen: dict[str, str] = {}
    for entity_id, path in record.all_entity_ids():
        rendered = str(entity_id)
        if rendered in seen:
            findings.append(
                _err(
                    LintCode.ID_UNIQUE,
                    path,
                    f"duplicate entity id {rendered} (first declared at {seen[rendered]})",
                )
            )
        else:
            seen[rendered] = path
    return findings


# ---------------------------------------------------------------------------
# Check 4: ID prefix conventions


def check_id_prefixes(record: KnowsRecord) -> list[LintFinding]:
    findings: list[LintFinding] = []
    collections = [
        ("artifacts", record.artifacts, "artifact"),
        ("statements", record.statements, "statement"),
        ("evidence", record.evidence, "evidence"),
        ("relations", record.relations, "relation"),
        ("actions", record.actions, "action"),
    ]
    for name, entities, cls in collections:
        for i, entity in enumerate(entities):
            _check_prefix(entity.id, f"{name}/{i}/id", cls, findings)
            if cls == "artifact":
                for j, rep in enumerate(entity.representations):
                    _check_prefix(
                        rep.id, f"{name}/{i}/representations/{j}/id", "representation", findings
                    )
    return findings


def _check_prefix(entity_id: Any, path: str, cls: str, findings: list[LintFinding]) -> None:
    expected = CLASS_PREFIX[cls]
    if not isinstance(entity_id, EntityId):
        findings.append(
            _err(LintCode.ID_PREFIX, path, f"unparseable entity id {entity_id!r}")
        )
    elif entity_id.prefix != expected:
        findings.append(
            _err(
                LintCode.ID_PREFIX,
                path,
                f"{cls} id must use prefix '{expected}:', got {entity_id}",
            )
        )


# ---------------------------------------------------------------------------
# Check 5: relation predicate constraints


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


def _declared_prefix(ref: Any) -> Optional[str]:
    if isinstance(ref, Ref):
        return ref.entity.prefix
    if isinstance(ref, EntityId):
        return ref.prefix
    return None


def check_predicates(record: KnowsRecord) -> list[LintFinding]:
    findings: list[LintFinding] = []
    for i, rel in enumerate(record.relations):
        path = f"relations/{i}"
        if rel.citation_intent is not None and rel.predicate != "cites":
            findings.append(
                _err(
                    LintCode.PREDICATE,
                    path,
                    "citation_intent is only allowed with predicate 'cites'",
                )
            )
        if not isinstance(rel.predicate, str):
            continue  # a non-string predicate is K001's finding
        allowed = PREDICATE_MATRIX.get(rel.predicate)
        if allowed is None:
            continue  # out-of-vocabulary predicate is K001's finding
        subject = _declared_prefix(rel.subject_ref)
        obj = _declared_prefix(rel.object_ref)
        if subject is None or obj is None:
            continue  # unparseable endpoints are K002's findings
        if (subject, obj) not in allowed:
            findings.append(
                _err(
                    LintCode.PREDICATE,
                    path,
                    f"predicate '{rel.predicate}' does not admit ({subject} -> {obj})",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Check 6: artifact discoverability


def check_discoverability(record: KnowsRecord) -> list[LintFinding]:
    findings: list[LintFinding] = []
    for i, art in enumerate(record.artifacts):
        has_identifier = art.identifiers is not None and art.identifiers.any_present()
        has_representation = any(
            rep.locator is not None and rep.locator.value for rep in art.representations
        )
        if not has_identifier and not has_representation:
            findings.append(
                _err(
                    LintCode.DISCOVERABILITY,
                    f"artifacts/{i}",
                    f"artifact {art.id} has neither an identifier nor a located representation",
                )
            )
        if str(art.id) == str(record.subject_ref) and not has_representation:
            findings.append(
                _err(
                    LintCode.DISCOVERABILITY,
                    f"artifacts/{i}",
                    f"subject artifact {art.id} must carry at least one representation",
                )
            )
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
    max_in_flight: int = 8,
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
        with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
            statuses = list(pool.map(probe, (url for _, url in targets)))
        for (path, url), status in zip(targets, statuses):
            if status is None or not (200 <= status < 400):
                mk = _err if as_errors else _warn
                findings.append(
                    mk(LintCode.URL_LIVENESS, path, f"url {url} is not live (status {status})")
                )
    return findings


# ---------------------------------------------------------------------------
# Driver


def lint(
    record: KnowsRecord,
    *,
    check_urls: bool = False,
    fetcher: Optional[UrlProbe] = None,
    liveness_errors: bool = False,
    registry: Optional[dict[str, Any]] = None,
) -> LintReport:
    """Run checks K001-K006, plus K007 when ``check_urls`` is set.

    Violations become findings; lint itself never raises on record content.
    Findings are sorted by (path, code) so reports are canonical.
    """
    tree = document_tree(record)
    findings: list[LintFinding] = []
    findings.extend(check_schema(tree, record))
    findings.extend(check_crossrefs(record, registry=registry))
    findings.extend(check_id_uniqueness(record))
    findings.extend(check_id_prefixes(record))
    findings.extend(check_predicates(record))
    findings.extend(check_discoverability(record))
    checks_run = 6
    if check_urls:
        if fetcher is None:
            raise ValueError("check_urls requires a fetcher")
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
