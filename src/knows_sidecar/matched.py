"""Validation gates for structured answer objects produced by agents.

An answer object carries six fields: item_id, status, confidence, answer,
evidence, and reason.  Three gates score a batch of raw outputs against the
page-marked context the agent saw: parse rate, page-echo rate (cited pages
exist in the context), and quote-verbatim rate (cited quotes appear in the
cited page after light normalization).
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Mapping, Sequence, Union

from . import schema
from .errors import EmptyInputError

STATUS_VALUES = frozenset({"answer", "partial", "abstain", "not_found"})
SOURCE_VALUES = frozenset({"paper"})
SUPPORT_VALUES = frozenset({"direct", "indirect"})

PARSE_THRESHOLD = 0.95
PAGE_ECHO_THRESHOLD = 0.90
QUOTE_VERBATIM_THRESHOLD = 0.80


@dataclass(frozen=True, slots=True)
class MatchedEvidence:
    source: str = field(metadata={"enum": SOURCE_VALUES})
    page: int = field(metadata={"minimum": 0})
    quote: str
    support: str = field(metadata={"enum": SUPPORT_VALUES})


@dataclass(frozen=True, slots=True)
class MatchedOutput:
    item_id: str = field(metadata={"minLength": 1})
    status: str = field(metadata={"enum": STATUS_VALUES})
    confidence: float = field(metadata={"minimum": 0, "maximum": 1})
    answer: str
    evidence: tuple[MatchedEvidence, ...]
    reason: str


# The answer shape as JSON Schema, derived from the field table above.
ANSWER_SCHEMA = schema.object_schema(MatchedOutput)
_validate_answer = schema.validator(ANSWER_SCHEMA)


def parse_matched_output(raw: Union[str, bytes, Mapping[str, Any]]) -> MatchedOutput:
    """Parse and structurally validate one answer object.

    Raises ``ValueError`` on malformed or too deeply nested JSON, missing or
    extra fields, and out-of-range or out-of-vocabulary values.
    """
    if isinstance(raw, (str, bytes)):
        try:
            obj = json.loads(raw)
        except RecursionError:
            raise ValueError("answer object nested too deeply") from None
    else:
        obj = dict(raw) if isinstance(raw, Mapping) else raw
    problems = _validate_answer(obj)
    if problems:
        path, message = problems[0]
        raise ValueError(f"{path}: {message}" if path else message)
    evidence = tuple(MatchedEvidence(**entry) for entry in obj["evidence"])
    return MatchedOutput(**{**obj, "confidence": float(obj["confidence"]), "evidence": evidence})


_WS_RE = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Unicode NFKC plus whitespace collapse, for tolerant quote matching."""
    text = unicodedata.normalize("NFKC", text)
    for src, dst in (("‘", "'"), ("’", "'"), ("“", '"'), ("”", '"'), ("–", "-"), ("—", "-")):
        text = text.replace(src, dst)
    return _WS_RE.sub(" ", text).strip()


@lru_cache(maxsize=64)
def _normalized_page(page_text: str) -> str:
    """A context page normalized once for all the quotes a batch cites in it."""
    return normalize_text(page_text)


def quote_in_page(quote: str, page_text: str) -> bool:
    """Contiguous-substring check of the normalized quote in the normalized page."""
    return normalize_text(quote) in _normalized_page(page_text)


@dataclass(frozen=True, slots=True)
class ItemVerdict:
    parse_ok: bool
    page_echo_ok: bool
    quote_verbatim_ok: bool
    error: str = ""


def validate_matched_output(
    raw: Union[str, bytes, Mapping[str, Any]],
    context_pages: Mapping[int, str],
) -> ItemVerdict:
    """Score one raw output against the pages its agent was shown.

    A parse failure fails all three gates for the item.  An item with no
    evidence entries passes the page and quote gates vacuously.
    """
    try:
        parsed = parse_matched_output(raw)
    except (ValueError, TypeError) as exc:
        return ItemVerdict(False, False, False, error=str(exc))
    page_ok = all(entry.page in context_pages for entry in parsed.evidence)
    quote_ok = all(
        entry.page in context_pages
        and quote_in_page(entry.quote, context_pages[entry.page])
        for entry in parsed.evidence
    )
    return ItemVerdict(True, page_ok, quote_ok)


@dataclass(frozen=True, slots=True)
class GateReport:
    total: int
    parse_rate: float
    page_echo_rate: float
    quote_verbatim_rate: float
    verdicts: tuple[ItemVerdict, ...] = field(repr=False, default=())

    @property
    def passed(self) -> bool:
        return (
            self.parse_rate >= PARSE_THRESHOLD
            and self.page_echo_rate >= PAGE_ECHO_THRESHOLD
            and self.quote_verbatim_rate >= QUOTE_VERBATIM_THRESHOLD
        )


def gate_report(verdicts: Sequence[ItemVerdict]) -> GateReport:
    """Aggregate per-item verdicts into batch rates; boundary values pass."""
    if not verdicts:
        raise EmptyInputError("gate report needs at least one item")
    n = len(verdicts)
    return GateReport(
        total=n,
        parse_rate=sum(v.parse_ok for v in verdicts) / n,
        page_echo_rate=sum(v.page_echo_ok for v in verdicts) / n,
        quote_verbatim_rate=sum(v.quote_verbatim_ok for v in verdicts) / n,
        verdicts=tuple(verdicts),
    )


def render_gate_report(report: GateReport) -> str:
    lines = [
        f"items {report.total}",
        f"parse_rate {report.parse_rate:.3f} (threshold {PARSE_THRESHOLD})",
        f"page_echo_rate {report.page_echo_rate:.3f} (threshold {PAGE_ECHO_THRESHOLD})",
        f"quote_verbatim_rate {report.quote_verbatim_rate:.3f} (threshold {QUOTE_VERBATIM_THRESHOLD})",
        "PASS" if report.passed else "FAIL",
    ]
    return "\n".join(lines)
