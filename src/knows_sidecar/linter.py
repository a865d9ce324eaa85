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
from typing import Any, Callable, Mapping, Optional

from . import schema
from .model import (
    CLASS_PREFIX,
    ENTITY_CLASS,
    PREDICATE_MATRIX,
    REF_FIELDS,
    Artifact,
    EntityId,
    KnowsRecord,
    Representation,
    as_ref,
)
from .serialization import document_tree, typed_root

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


# How ``repr`` shows each collection met again inside itself; a set never is.
_RECURSION = {list: "[...]", tuple: "(...)", dict: "{...}", set: ""}


def _shown(value: Any, show: Callable[[Any], str] = repr, outer: frozenset = frozenset()) -> str:
    """``show(value)``, but with the items of each set sorted.

    A set iterates in an order that string hashing and insertion history
    decide, so ``show`` alone would word one finding differently from run to
    run, and for a record and its deep copy.
    """
    kind = type(value)
    if kind not in _RECURSION:
        return show(value)
    if id(value) in outer:
        return _RECURSION[kind]
    outer |= {id(value)}
    if kind is dict:
        pairs = (f"{_shown(k, repr, outer)}: {_shown(v, repr, outer)}" for k, v in value.items())
        return "{" + ", ".join(pairs) + "}"
    items = [_shown(v, repr, outer) for v in value]
    if kind is set:
        return "{" + ", ".join(sorted(items)) + "}" if items else "set()"
    if kind is tuple:
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
    return "[" + ", ".join(items) + "]"


# ---------------------------------------------------------------------------
# Check 1: schema


def check_schema(tree: Any) -> list[LintFinding]:
    """Structural violations of a document tree or a typed root (K001)."""
    return [
        _err(LintCode.SCHEMA, path, message) for path, message in schema.validate_tree(tree)
    ]


# ---------------------------------------------------------------------------
# Check 2: cross-reference integrity


def _check_refs(
    owner: Any, base: str, index: Mapping[str, Any], findings: list[LintFinding]
) -> None:
    """Resolve the reference fields of ``owner``; remote refs are grammar-checked only."""
    for name, targets in REF_FIELDS[type(owner)]:
        value = getattr(owner, name)
        ref = as_ref(value)
        if ref is None:
            message = f"unparseable reference {_shown(value)}"
        elif ref.is_remote:
            continue
        elif targets is not None and ref.entity.entity_class not in targets:
            message = f"reference {ref.entity} may only target {sorted(targets)}"
        else:
            target = index.get(str(ref.entity))
            if target is None:
                message = f"dangling reference {ref.entity}"
            elif ENTITY_CLASS[type(target)] != ref.entity.entity_class:
                message = f"reference {ref.entity} resolves to a {ENTITY_CLASS[type(target)]}"
            else:
                continue
        findings.append(_err(LintCode.CROSSREF, base + name, message))


def check_crossrefs(record: KnowsRecord, registry: Optional[dict[str, Any]] = None) -> list[LintFinding]:
    findings: list[LintFinding] = []
    index = record.entity_index()
    entities = record.entities()
    local_reps = {str(e.id) for e, _ in entities if type(e) is Representation}

    _check_refs(record, "", index, findings)
    subject = record.subject_artifact()
    if subject is not None and subject.role != "subject":
        message = f"{_shown(record.subject_ref, str)} does not have role=subject"
        findings.append(_err(LintCode.CROSSREF, "subject_ref", message))
    for entity, path in entities:
        _check_refs(entity, path + "/", index, findings)
        if (
            type(entity) is Artifact
            and entity.role == "subject"
            and str(entity.id) != str(record.subject_ref)
        ):
            findings.append(
                _err(
                    LintCode.CROSSREF,
                    path,
                    f"extra subject artifact {_shown(entity.id, str)}; "
                    f"subject_ref names {_shown(record.subject_ref, str)}",
                )
            )
        # Source anchors name representations of this record only.
        for j, anchor in enumerate(getattr(entity, "source_anchors", ())):
            anchor_path = f"{path}/source_anchors/{j}/representation_ref"
            ref = anchor.representation_ref
            if not isinstance(ref, EntityId):
                message = f"unparseable reference {_shown(ref)}"
                findings.append(_err(LintCode.CROSSREF, anchor_path, message))
            elif str(ref) not in local_reps:
                findings.append(_err(LintCode.CROSSREF, anchor_path, f"dangling reference {ref}"))

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
    for entity, path in record.entities():
        rendered = _shown(entity.id, str) if type(entity.id) in _RECURSION else str(entity.id)
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
    for entity, path in record.entities():
        cls = ENTITY_CLASS[type(entity)]
        expected = CLASS_PREFIX[cls]
        if not isinstance(entity.id, EntityId):
            message = f"unparseable entity id {_shown(entity.id)}"
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
        subject, obj = as_ref(rel.subject_ref), as_ref(rel.object_ref)
        if subject is None or obj is None:
            continue  # unparseable endpoints are K002's findings
        pair = (subject.entity.prefix, obj.entity.prefix)
        if pair not in allowed:
            findings.append(
                _err(
                    LintCode.PREDICATE,
                    path,
                    f"predicate '{rel.predicate}' does not admit ({pair[0]} -> {pair[1]})",
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
                    f"artifact {_shown(art.id, str)} has neither an identifier nor a located "
                    "representation",
                )
            )
        if str(art.id) == str(record.subject_ref) and not has_representation:
            findings.append(
                _err(
                    LintCode.DISCOVERABILITY,
                    f"artifacts/{i}",
                    f"subject artifact {_shown(art.id, str)} must carry at least one "
                    "representation",
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
    # K001 on a record built in memory reads the findings its root field
    # values keep, so a copy sharing entities re-checks only what it changed.
    tree = typed_root(record) if record._source_tree is None else document_tree(record)
    findings: list[LintFinding] = []
    findings.extend(check_schema(tree))
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
