"""Sidecar consumption: deterministic retrieval, composition, and fallback.

The retrieval scorer is an offline keyword-overlap convenience, fully
deterministic so answers are reproducible.  The composer is pluggable; the
reference composer concatenates retrieved texts and scores confidence as the
best term overlap with the query.  Fallback escalates to page-marked document
passages when the sidecar-only answer is weak or hedged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional, Protocol, Sequence, Union

from .errors import MalformedError, ProviderFailureError
from .linter import lint
from .model import (
    Evidence,
    KnowsRecord,
    SourceAnchor,
    SpecVersion,
    Statement,
    parse_timestamp,
    reader_accepts,
)

READER_VERSION = SpecVersion(0, 9, 0)

DEFAULT_TAU = 0.7
DEFAULT_HEDGING_PHRASES = (
    "insufficient evidence",
    "unclear from the sidecar",
    "does not discuss",
    "cannot determine",
)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> set[str]:
    """Case-folded alphanumeric tokens."""
    return set(_TOKEN_RE.findall(text.casefold()))


@dataclass(frozen=True)
class Query:
    text: str
    k: int = 5

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")


@dataclass(frozen=True)
class ScoredEntity:
    entity: Union[Statement, Evidence]
    score: float
    rank: int


def _entity_terms(entity: Union[Statement, Evidence]) -> set[str]:
    if isinstance(entity, Statement):
        terms = tokenize(entity.text or "")
    else:
        terms = tokenize(entity.summary or "")
        for obs in entity.observations:
            if obs.metric:
                terms |= tokenize(obs.metric)
    return terms


def score_entity(entity: Union[Statement, Evidence], query_terms: set[str]) -> float:
    """Fraction of query terms present in the entity's terms."""
    if not query_terms:
        return 0.0
    return len(query_terms & _entity_terms(entity)) / len(query_terms)


def retrieve_top_k(record: KnowsRecord, query: Query) -> list[ScoredEntity]:
    """Top-k statements and evidence by query-term overlap.

    Ties break by record order (statements before evidence, list order
    within); zero-score entities are excluded.
    """
    query_terms = tokenize(query.text)
    pool: list[Union[Statement, Evidence]] = list(record.statements) + list(record.evidence)
    scored = [
        (score_entity(entity, query_terms), position, entity)
        for position, entity in enumerate(pool)
    ]
    scored = [item for item in scored if item[0] > 0.0]
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [
        ScoredEntity(entity=entity, score=score, rank=rank)
        for rank, (score, _, entity) in enumerate(scored[: query.k], start=1)
    ]


def collect_anchors(results: Sequence[ScoredEntity]) -> list[SourceAnchor]:
    """Union of result anchors, deduplicated, input order preserved."""
    seen: set[tuple] = set()
    anchors: list[SourceAnchor] = []
    for result in results:
        for anchor in result.entity.source_anchors:
            key = (str(anchor.representation_ref), anchor.locator_type, anchor.locator)
            if key not in seen:
                seen.add(key)
                anchors.append(anchor)
    return anchors


@dataclass(frozen=True)
class Passage:
    page: int
    text: str


@dataclass(frozen=True)
class CitationTrace:
    used: tuple[str, ...] = ()
    anchors: tuple[SourceAnchor, ...] = ()
    passages: tuple[Passage, ...] = ()
    overridden: tuple[str, ...] = ()


@dataclass(frozen=True)
class ComposedAnswer:
    status: str  # answer | partial | abstain | not_found
    text: str
    confidence: float
    trace: CitationTrace
    reason: str = ""
    baseline_required: bool = False


class ComposerPort(Protocol):
    """Pluggable realization of answer composition.

    Must honor the abstain contract: empty results and passages compose to an
    empty answer with confidence 0.
    """

    def __call__(
        self,
        query: Query,
        results: Sequence[ScoredEntity],
        anchors: Sequence[SourceAnchor],
        passages: Optional[Sequence[Passage]] = None,
        record_id: Optional[str] = None,
    ) -> tuple[str, float]: ...


def reference_composer(
    query: Query,
    results: Sequence[ScoredEntity],
    anchors: Sequence[SourceAnchor],
    passages: Optional[Sequence[Passage]] = None,
    record_id: Optional[str] = None,
) -> tuple[str, float]:
    """Deterministic composition: rank-ordered texts prefixed by their IDs.

    Passages, when supplied, come first (the source document is authoritative
    for content); confidence is the best query-term overlap over everything
    consumed.
    """
    parts: list[str] = []
    confidence = 0.0
    query_terms = tokenize(query.text)
    for passage in passages or ():
        parts.append(f"[page {passage.page}] {passage.text}")
        if query_terms:
            confidence = max(
                confidence, len(query_terms & tokenize(passage.text)) / len(query_terms)
            )
    for result in results:
        entity_text = (
            result.entity.text if isinstance(result.entity, Statement) else result.entity.summary
        )
        qualified = f"{record_id}#{result.entity.id}" if record_id else str(result.entity.id)
        parts.append(f"[{qualified}] {entity_text}")
        confidence = max(confidence, result.score)
    if not parts:
        return "", 0.0
    return "\n".join(parts), confidence


def detect_hedging(
    text: str, phrases: Sequence[str] = DEFAULT_HEDGING_PHRASES
) -> bool:
    """Whole-phrase hedging detection over the case-folded text."""
    folded = text.casefold()
    return any(phrase.casefold() in folded for phrase in phrases)


# ---------------------------------------------------------------------------
# Freshness-aware cache


def _instant(text: str) -> datetime:
    """Parse a timestamp, reading one without an offset as UTC."""
    moment = parse_timestamp(text)
    return moment if moment.tzinfo is not None else moment.replace(tzinfo=timezone.utc)


# The deadline of an entry whose ``stale_after`` does not parse: stale at once.
_ALREADY_STALE = datetime.min.replace(tzinfo=timezone.utc)


@dataclass(frozen=True)
class CacheEntry:
    record: KnowsRecord
    stale_after: Optional[datetime] = None


class SidecarCache:
    """Record cache keyed by (record_id, version.record), freshness-aware."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], CacheEntry] = {}
        self._latest: dict[str, tuple[str, str]] = {}

    def put(self, record: KnowsRecord, *, now: Optional[str] = None) -> None:
        version = record.version.record if record.version else ""
        key = (record.record_id, version)
        stale_after = record.freshness.stale_after if record.freshness else None
        if stale_after is not None:
            try:
                stale_after = _instant(stale_after)
            except MalformedError:
                stale_after = _ALREADY_STALE
        self._entries[key] = CacheEntry(record=record, stale_after=stale_after)
        self._latest[record.record_id] = key

    def get(self, key: tuple[str, str], now: str) -> Optional[KnowsRecord]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.stale_after is not None and _instant(now) >= entry.stale_after:
            return None
        return entry.record

    def get_latest(self, record_id: str, now: str) -> Optional[KnowsRecord]:
        key = self._latest.get(record_id)
        if key is None:
            return None
        return self.get(key, now)

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# Page providers


class PageProvider(Protocol):
    """Supplies page-marked document passages for fallback."""

    def __call__(self, pages: Optional[Sequence[int]] = None) -> list[Passage]: ...


_PAGE_MARKER_RE = re.compile(r"^\[PAGE (\d+)\]\s*$", re.MULTILINE)


def parse_page_markers(text: str) -> dict[int, str]:
    """Split ``[PAGE n]``-delimited text into a page -> text map."""
    pages: dict[int, str] = {}
    matches = list(_PAGE_MARKER_RE.finditer(text))
    for i, match in enumerate(matches):
        start = match.end()
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        pages[int(match.group(1))] = text[start:end].strip()
    return pages


def page_file_provider(text: str) -> PageProvider:
    """Provider backed by a ``[PAGE n]``-marked text blob."""
    page_map = parse_page_markers(text)

    def provide(pages: Optional[Sequence[int]] = None) -> list[Passage]:
        wanted = sorted(page_map) if pages is None else [p for p in pages if p in page_map]
        return [Passage(page=p, text=page_map[p]) for p in wanted]

    return provide


# ---------------------------------------------------------------------------
# The consumption protocol


def _now_utc() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _anchor_pages(anchors: Sequence[SourceAnchor]) -> Optional[list[int]]:
    pages: list[int] = []
    for anchor in anchors:
        if anchor.locator_type == "page":
            match = re.search(r"\d+", anchor.locator or "")
            if match:
                pages.append(int(match.group()))
    return sorted(set(pages)) or None


def _not_found(reason: str, passages: tuple[Passage, ...] = ()) -> ComposedAnswer:
    return ComposedAnswer(
        status="not_found",
        text="",
        confidence=0.0,
        trace=CitationTrace(passages=passages),
        reason=reason,
        baseline_required=True,
    )


def _overridden_entities(
    results: Sequence[ScoredEntity], passages: Sequence[Passage], record_id: str
) -> tuple[str, ...]:
    """Sidecar entities whose numeric observations the passages do not echo."""
    passage_text = " ".join(p.text for p in passages)
    passage_numbers = set(re.findall(r"-?\d+(?:\.\d+)?", passage_text))
    overridden: list[str] = []
    for result in results:
        entity = result.entity
        if not isinstance(entity, Evidence):
            continue
        values = [obs.value for obs in entity.observations if obs.value is not None]
        if not values:
            continue
        # A float has an integer spelling only when finite and integral.
        echoed = any(
            str(v) in passage_numbers
            or (not isinstance(v, float) or v.is_integer()) and str(int(v)) in passage_numbers
            for v in values
            if isinstance(v, (int, float))
        )
        if not echoed:
            overridden.append(f"{record_id}#{entity.id}")
    return tuple(overridden)


def consume(
    query: Query,
    artifact_id: str,
    *,
    mode: str = "only",
    tau: float = DEFAULT_TAU,
    registry,
    passage_source: Optional[PageProvider] = None,
    cache: Optional[SidecarCache] = None,
    now: Optional[str] = None,
    composer: ComposerPort = reference_composer,
) -> ComposedAnswer:
    """Answer a query from a sidecar, optionally falling back to passages.

    ``mode`` is ``only`` or ``fallback``; fallback requires a passage source.
    A missing, version-refused, or lint-failing sidecar yields ``not_found``
    flagged as requiring the baseline document read.
    """
    if mode not in ("only", "fallback"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "fallback" and passage_source is None:
        raise ValueError("fallback mode requires a passage_source")
    now = now or _now_utc()

    record = cache.get_latest(artifact_id, now) if cache is not None else None
    if record is None:
        record = registry.get(artifact_id)
        if record is not None and cache is not None:
            cache.put(record, now=now)
    if record is None:
        return _not_found(f"no sidecar for {artifact_id!r}", _raw_passages(passage_source))
    if isinstance(record.knows_version, SpecVersion) and not reader_accepts(
        record.knows_version, READER_VERSION
    ):
        return _not_found(
            f"record major version {record.knows_version} exceeds reader {READER_VERSION}",
            _raw_passages(passage_source),
        )
    if not lint(record).passed:
        return _not_found("sidecar fails structural validation", _raw_passages(passage_source))

    results = retrieve_top_k(record, query)
    anchors = collect_anchors(results)
    text, confidence = composer(
        query, results, anchors, passages=None, record_id=record.record_id
    )
    used = tuple(f"{record.record_id}#{r.entity.id}" for r in results)
    stage1 = ComposedAnswer(
        status="answer" if results else "abstain",
        text=text,
        confidence=confidence if results else 0.0,
        trace=CitationTrace(used=used, anchors=tuple(anchors)),
        reason="" if results else f"Sidecar does not discuss: {query.text}",
    )

    confident = results and confidence >= tau and not detect_hedging(text)
    if mode == "only" or confident:
        return stage1

    try:
        passages = list(passage_source(_anchor_pages(anchors)))
    except Exception as exc:
        raise ProviderFailureError(f"passage source failed: {exc}") from exc

    text2, confidence2 = composer(
        query, results, anchors, passages=passages, record_id=record.record_id
    )
    overridden = _overridden_entities(results, passages, record.record_id)
    trace2 = CitationTrace(
        used=used,
        anchors=tuple(anchors),
        passages=tuple(passages),
        overridden=overridden,
    )
    if (not results and not passages) or confidence2 <= 0.0:
        return ComposedAnswer(
            status="abstain", text="", confidence=0.0, trace=trace2, reason=stage1.reason
        )
    return ComposedAnswer(status="answer", text=text2, confidence=confidence2, trace=trace2)


def _raw_passages(passage_source: Optional[PageProvider]) -> tuple[Passage, ...]:
    if passage_source is None:
        return ()
    try:
        return tuple(passage_source(None))
    except Exception:
        return ()
