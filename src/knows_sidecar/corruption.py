"""Seeded corruption injection for measuring what the linter can catch.

Three corruption kinds: removing a relation-referenced limitation statement
(a structural break the cross-reference check detects), doubling-plus-one a
numeric observation value (structurally silent), and raising a statement's
claim strength one level (also structurally silent).  Target choice is
uniform under a caller-supplied seed so studies replay exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .errors import NotApplicableError
from .linter import lint
from .model import Confidence, EntityId, KnowsRecord, Observation, Statement, as_ref, replaced, shown


class InjectionKind(str, Enum):
    OMIT_LIMITATION = "omit_limitation"
    WRONG_NUMBER = "wrong_number"
    INFLATE_CONFIDENCE = "inflate_confidence"


_STRENGTH_UP = {"low": "medium", "medium": "high"}


def _referenced_locals(record: KnowsRecord) -> set[str]:
    refs: set[str] = set()
    for rel in record.relations:
        for ref in map(as_ref, (rel.subject_ref, rel.object_ref)):
            if ref is not None and not ref.is_remote:
                refs.add(str(ref.entity))
    return refs


def _limitation_targets(record: KnowsRecord) -> list[Statement]:
    referenced = _referenced_locals(record)
    return [
        s
        for s in record.statements
        if s.statement_type == "limitation"
        and isinstance(s.id, EntityId)
        and str(s.id) in referenced
    ]


def _numeric_targets(record: KnowsRecord) -> list[tuple[int, int]]:
    targets = []
    for i, ev in enumerate(record.evidence):
        for j, obs in enumerate(ev.observations):
            if isinstance(obs.value, (int, float)) and not isinstance(obs.value, bool):
                targets.append((i, j))
    return targets


def _confidence_targets(record: KnowsRecord) -> list[int]:
    # A loaded record keeps a claim strength that is not a string as it is.
    return [
        i
        for i, s in enumerate(record.statements)
        if s.confidence is not None
        and isinstance(s.confidence.claim_strength, str)
        and s.confidence.claim_strength in _STRENGTH_UP
    ]


def _omit_limitation(record: KnowsRecord, victim: Statement) -> tuple[str, KnowsRecord]:
    statements = tuple(s for s in record.statements if s is not victim)
    return str(victim.id), replaced(record, statements=statements)


def _wrong_number(record: KnowsRecord, target: tuple[int, int]) -> tuple[str, KnowsRecord]:
    i, j = target
    ev = record.evidence[i]
    obs = ev.observations[j]
    new_obs = Observation(obs.metric, obs.value * 2 + 1, obs.unit, obs.qualitative_value)
    observations = tuple(
        new_obs if k == j else o for k, o in enumerate(ev.observations)
    )
    evidence = tuple(
        replaced(e, observations=observations) if k == i else e
        for k, e in enumerate(record.evidence)
    )
    return f"{shown(ev.id, str)}/observations/{j}", replaced(record, evidence=evidence)


def _inflate_confidence(record: KnowsRecord, i: int) -> tuple[str, KnowsRecord]:
    stmt = record.statements[i]
    new_conf = Confidence(
        claim_strength=_STRENGTH_UP[stmt.confidence.claim_strength],
        extraction_fidelity=stmt.confidence.extraction_fidelity,
    )
    statements = tuple(
        replaced(s, confidence=new_conf) if k == i else s
        for k, s in enumerate(record.statements)
    )
    return shown(stmt.id, str), replaced(record, statements=statements)


# Per kind: the record's targets, the corruption of one target (its label and
# the corrupted record), and why a record without targets is not applicable.
_KINDS: dict[InjectionKind, tuple[Callable, Callable, str]] = {
    InjectionKind.OMIT_LIMITATION: (
        _limitation_targets,
        _omit_limitation,
        "no relation-referenced limitation statement",
    ),
    InjectionKind.WRONG_NUMBER: (_numeric_targets, _wrong_number, "no numeric observation value"),
    InjectionKind.INFLATE_CONFIDENCE: (
        _confidence_targets,
        _inflate_confidence,
        "no statement with raisable claim strength",
    ),
}


def applicable(record: KnowsRecord, kind: InjectionKind) -> bool:
    """Whether the record offers at least one target for this corruption."""
    targets, _, _ = _KINDS[InjectionKind(kind)]
    return bool(targets(record))


@dataclass(frozen=True, slots=True)
class Injection:
    kind: InjectionKind
    target: str
    record: KnowsRecord


def inject(record: KnowsRecord, kind: InjectionKind, seed: int) -> Injection:
    """Apply one seeded corruption; raises when no target qualifies."""
    kind = InjectionKind(kind)
    find_targets, corrupt, reason = _KINDS[kind]
    targets = find_targets(record)
    if not targets:
        raise NotApplicableError(reason)
    # ``choice`` of one item returns it for every seed; seeding costs more than the rest.
    chosen = targets[0] if len(targets) == 1 else random.Random(seed).choice(targets)
    target, corrupted = corrupt(record, chosen)
    return Injection(kind, target, corrupted)


@dataclass(frozen=True, slots=True)
class KindResult:
    kind: InjectionKind
    applicable: int
    detected: int


@dataclass(frozen=True, slots=True)
class DetectionReport:
    corpus_size: int
    results: tuple[KindResult, ...]

    def by_kind(self, kind: InjectionKind) -> KindResult:
        for result in self.results:
            if result.kind is InjectionKind(kind):
                return result
        raise KeyError(kind)


def run_study(corpus: Sequence[KnowsRecord], seed: int = 0) -> DetectionReport:
    """Inject each applicable corruption into each record and lint the result.

    A corruption counts as detected when the corrupted record fails lint.
    Per-record seeds derive from the study seed so the run replays exactly
    regardless of corpus iteration order changes upstream.
    """
    results = []
    for kind in InjectionKind:
        n_applicable = 0
        n_detected = 0
        for index, record in enumerate(corpus):
            try:
                corrupted = inject(record, kind, seed=seed * 100003 + index)
            except NotApplicableError:
                continue
            n_applicable += 1
            if not lint(corrupted.record).passed:
                n_detected += 1
        results.append(KindResult(kind=kind, applicable=n_applicable, detected=n_detected))
    return DetectionReport(corpus_size=len(corpus), results=tuple(results))


def render_report(report: DetectionReport) -> str:
    lines = [f"records {report.corpus_size}", "kind applicable detected"]
    for result in report.results:
        lines.append(f"{result.kind.value} {result.applicable} {result.detected}")
    return "\n".join(lines)
