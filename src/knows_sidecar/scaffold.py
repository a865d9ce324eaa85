"""Structurally valid record skeletons from bibliographic metadata.

The generator is deterministic and desk-testable: content extraction is a
pluggable port whose reference implementation returns nothing, and prose
placeholders use a grep-able ``TODO:`` prefix that still satisfies the
non-empty-string invariants.  Every output passes lint checks K001-K006.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Protocol

from .errors import InvalidInputError
from .model import (
    Actor,
    Artifact,
    Author,
    Coverage,
    EntityId,
    Evidence,
    Freshness,
    Identifiers,
    KnowsRecord,
    Locator,
    Observation,
    Profile,
    Provenance,
    Ref,
    SCHEMA_URI,
    Representation,
    SourceAnchor,
    SpecVersion,
    Statement,
    VersionTriple,
)

DEFAULT_TIMESTAMP = "1970-01-01T00:00:00Z"


@dataclass(frozen=True, slots=True)
class CandidateStatement:
    statement_type: str
    text: str
    anchor_hint: Optional[str] = None


@dataclass(frozen=True, slots=True)
class CandidateEvidence:
    evidence_type: str
    summary: str
    observations: tuple[Observation, ...] = ()


@dataclass(frozen=True, slots=True)
class ExtractedContent:
    statements: tuple[CandidateStatement, ...] = ()
    evidence: tuple[CandidateEvidence, ...] = ()


class ExtractorPort(Protocol):
    """Seam for content extraction from a document locator."""

    def __call__(self, locator: Locator) -> ExtractedContent: ...


def null_extractor(locator: Locator) -> ExtractedContent:
    """Reference extractor: extracts nothing; the scaffold stays valid."""
    return ExtractedContent()


@dataclass(frozen=True, slots=True)
class ScaffoldInput:
    title: str
    authors: tuple[Author, ...]
    identifiers: Optional[Identifiers] = None
    profile: Profile = Profile("paper", 1)
    source_locator: Optional[Locator] = None
    license: str = "CC-BY-4.0"


_SLUG_RE = re.compile(r"[^a-z0-9]+")


def slugify(text: str) -> str:
    slug = _SLUG_RE.sub("-", text.lower()).strip("-")
    return slug[:60] or "item"


class _IdAllocator:
    """Slugified, collision-suffixed entity IDs (``stmt:<slug>-2``)."""

    def __init__(self) -> None:
        self._taken: set[str] = set()

    def allocate(self, prefix: str, text: str) -> EntityId:
        base = slugify(text)
        local = base
        n = 1
        while f"{prefix}:{local}" in self._taken:
            n += 1
            local = f"{base}-{n}"
        self._taken.add(f"{prefix}:{local}")
        return EntityId(prefix, local)


def scaffold_record(
    spec: ScaffoldInput,
    extractor: Optional[ExtractorPort] = None,
    *,
    now: str = DEFAULT_TIMESTAMP,
) -> KnowsRecord:
    """Build a skeleton record around one subject artifact.

    Raises :class:`InvalidInputError` when the title is empty or no authors
    are given.
    """
    if not spec.title or not spec.title.strip():
        raise InvalidInputError("scaffold requires a non-empty title")
    if not spec.authors:
        raise InvalidInputError("scaffold requires at least one author")

    ids = _IdAllocator()
    subject_id = ids.allocate("art", "paper")
    # Subject discoverability requires a representation; default to the
    # conventional sibling document when no source locator is supplied.
    locator = spec.source_locator or Locator(type="path", value="paper.pdf")
    representation = Representation(
        id=ids.allocate("rep", "pdf"),
        media_type=_media_type_for(locator),
        locator=locator,
    )
    subject = Artifact(
        id=subject_id,
        artifact_type="paper",
        role="subject",
        title=spec.title,
        identifiers=spec.identifiers,
        representations=(representation,),
    )

    extracted = (extractor or null_extractor)(locator)
    statements = tuple(
        Statement(
            id=ids.allocate("stmt", cand.text),
            statement_type=cand.statement_type,
            text=cand.text,
            about_ref=Ref(subject_id),
            status="asserted",
            source_anchors=(
                SourceAnchor(
                    representation_ref=representation.id,
                    locator_type="other",
                    locator=cand.anchor_hint or "TODO: anchor",
                ),
            ),
        )
        for cand in extracted.statements
    )
    evidence = tuple(
        Evidence(
            id=ids.allocate("ev", cand.summary),
            evidence_type=cand.evidence_type,
            summary=cand.summary,
            observations=cand.observations,
            source_anchors=(
                SourceAnchor(
                    representation_ref=representation.id,
                    locator_type="other",
                    locator="TODO: anchor",
                ),
            ),
        )
        for cand in extracted.evidence
    )

    record_id = None
    if spec.identifiers is not None:
        record_id = spec.identifiers.doi or spec.identifiers.arxiv
    if record_id is None:
        record_id = slugify(spec.title)

    return KnowsRecord(
        schema_uri=SCHEMA_URI,
        knows_version=SpecVersion(0, 9, 0),
        record_id=record_id,
        profile=spec.profile,
        subject_ref=subject_id,
        title=spec.title,
        summary="TODO: summary",
        authors=spec.authors,
        license=spec.license,
        coverage=Coverage(statements="partial", evidence="partial"),
        artifacts=(subject,),
        statements=statements,
        evidence=evidence,
        relations=(),
        provenance=Provenance(
            origin="author", actor=Actor(name="TODO: actor", type="person"), generated_at=now
        ),
        version=VersionTriple(spec=SpecVersion(0, 9, 0), record="1", source="TODO: source"),
        freshness=Freshness(as_of=now, update_policy="versioned"),
    )


def _media_type_for(locator: Locator) -> str:
    value = locator.value.lower()
    if value.endswith(".pdf"):
        return "application/pdf"
    if value.endswith(".tex"):
        return "application/x-tex"
    if value.endswith((".md", ".markdown")):
        return "text/markdown"
    return "application/octet-stream"


def sidecar_filename(document_path: str) -> str:
    """Conventional sidecar name: ``<stem>.knows.yaml`` next to the document."""
    stem = re.sub(r"\.[A-Za-z0-9]+$", "", document_path)
    return f"{stem}.knows.yaml"
