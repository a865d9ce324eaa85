"""Record projections for ablation studies, plus token accounting.

Each projection drops whole collections (never individual fields inside a
retained entity) so the result is still a valid record.  The four projections
of a record share every other root field, so :func:`emit_projections` emits
each shared root run once; the bytes are those of emitting each projection on
its own.  Token counts use a pluggable tokenizer; the default approximates
subword tokenizers as one token per four UTF-8 bytes, rounded up.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Optional, Union

from .model import KnowsRecord, replaced
from .serialization import emit_record, emit_records


class ProjectionCondition(str, Enum):
    FULL = "full"
    MINUS_RELATIONS = "minus_relations"
    MINUS_EVIDENCE = "minus_evidence"
    STATEMENTS_ONLY = "statements_only"


def project(record: KnowsRecord, condition: Union[ProjectionCondition, str]) -> KnowsRecord:
    """Return the record under an ablation condition.

    ``full`` is the identity.  ``minus_relations`` drops relations;
    ``minus_evidence`` additionally drops evidence; ``statements_only``
    additionally drops actions and per-statement source anchors, keeping
    statement provenance.  Dropped collections become empty, so outputs
    still satisfy the required-field set.
    """
    condition = ProjectionCondition(condition)
    if condition is ProjectionCondition.FULL:
        return record
    if condition is ProjectionCondition.MINUS_RELATIONS:
        return replaced(record, relations=())
    if condition is ProjectionCondition.MINUS_EVIDENCE:
        return replaced(record, relations=(), evidence=())
    statements = tuple(replaced(s, source_anchors=()) for s in record.statements)
    return replaced(record, relations=(), evidence=(), actions=(), statements=statements)


TokenizerPort = Callable[[bytes], int]


def byte_tokenizer(data: bytes) -> int:
    """ceil(utf-8 bytes / 4), the conventional bytes-per-token estimate."""
    return math.ceil(len(data) / 4)


def count_tokens(
    payload: Union[str, bytes], tokenizer: Optional[TokenizerPort] = None
) -> int:
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return (tokenizer or byte_tokenizer)(payload)


def record_tokens(
    record: KnowsRecord,
    condition: Union[ProjectionCondition, str] = ProjectionCondition.FULL,
    tokenizer: Optional[TokenizerPort] = None,
) -> int:
    """Token cost of the canonical emission of a projected record."""
    return count_tokens(emit_record(project(record, condition)), tokenizer)


def emit_projections(record: KnowsRecord) -> dict[str, bytes]:
    """The canonical emission of the record under each projection condition.

    Each root run the projections share is emitted once; every value equals
    ``emit_record(project(record, condition))``.
    """
    projected = [project(record, condition) for condition in ProjectionCondition]
    return {
        condition.value: data
        for condition, data in zip(ProjectionCondition, emit_records(projected))
    }


def token_report(
    record: KnowsRecord, tokenizer: Optional[TokenizerPort] = None
) -> dict[str, int]:
    """Token cost per projection condition, counted on :func:`emit_projections`.

    Each shared root run is emitted once, byte-identical to a canonical
    emission of each projection.
    """
    return {
        name: count_tokens(data, tokenizer) for name, data in emit_projections(record).items()
    }
