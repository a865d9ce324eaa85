"""Seeded generators and fixture paths shared across the test suite."""

from __future__ import annotations

import random
from pathlib import Path

import jsonschema

from knows_sidecar import schema
from knows_sidecar.model import (
    Action,
    ActionInterface,
    Actor,
    Artifact,
    Author,
    Confidence,
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
    Relation,
    Representation,
    SafetyPolicy,
    SourceAnchor,
    SpecVersion,
    Statement,
    VersionTriple,
    SCHEMA_URI,
    is_timestamp,
)

FIXTURES = Path(__file__).parent / "fixtures"

# The moore fixture with an extension value 3,000 lists deep, deeper than
# Python's recursion limit.
DEEP_DOC = (
    (FIXTURES / "moore.knows.yaml").read_text()
    + "extensions:\n  x_deep: "
    + "[" * 3000
    + "x"
    + "]" * 3000
    + "\n"
)

# The moore fixture with one value a list 3,000 deep, which loads but is
# deeper than Python's recursion limit (and the one Hypothesis raises it to
# while a test runs), by the field that holds it.
_DEEP_LIST = b"[" * 3000 + b"]" * 3000
DEEP_VALUE_DOCS = {
    field: (FIXTURES / "moore.knows.yaml").read_bytes().replace(old, head + _DEEP_LIST + tail, 1)
    for field, old, head, tail in (
        ("role", b"role: subject", b"role: ", b""),
        ("version.spec", b"spec: 0.9.0", b"spec: ", b""),
        ("version.record", b"record: '1'", b"record: ", b""),
        ("record_id", b"record_id: moore-1965", b"record_id: ", b""),
        ("evidence id", b"id: ev:density-trend", b"id: ", b""),
        ("url locator", b"{type: path, value: 'moore1965.pdf'}", b"{type: url, value: ", b"}"),
    )
}

# The moore fixture with a ``!!set`` as a statement's status and as its record version.
SET_VALUES_DOC = (
    (FIXTURES / "moore.knows.yaml").read_bytes()
    .replace(b"status: asserted", b"status: !!set {alpha, beta, gamma, delta}", 1)
    .replace(b"record: '1'", b"record: !!set {alpha, beta, gamma, delta}", 1)
)

# The bloom fixture with a claim strength that is a list, not a string.
LIST_CLAIM_STRENGTH_DOC = (FIXTURES / "bloom.knows.yaml").read_bytes().replace(
    b"\nstatements:\n  - ",
    b"\nstatements:\n  - confidence: {claim_strength: [high], extraction_fidelity: high}\n    ",
    1,
)

# The moore fixture with its title anchored and aliased from inside a
# ``!!pairs``, ``!!omap`` or ``!!set`` extension value.
ALIAS_DOCS = [
    (FIXTURES / "moore.knows.yaml").read_bytes() + tail
    for tail in (
        b"title: &x [1]\nextensions: {x_p: !!pairs [{k: *x}]}\n",
        b"title: &x [1]\nextensions: {x_o: !!omap [{k: *x}]}\n",
        b"title: &d 2024-01-01\nextensions: {x_s: !!set {? *d}}\n",
    )
]

_FORMATS = jsonschema.FormatChecker()


@_FORMATS.checks("date-time")
def _rfc3339(value):
    return not isinstance(value, str) or is_timestamp(value)


# An off-the-shelf validator of RECORD_SCHEMA, reading date-time as K001 does.
RECORD_ORACLE = jsonschema.Draft202012Validator(schema.RECORD_SCHEMA, format_checker=_FORMATS)

_WORDS = (
    "ablation anchor audit batch cache census cohort corpus decay delta "
    "domain echo fidelity filter gauge grid harness index ledger lattice "
    "margin metric outcome panel phase pilot probe quota ratio replay "
    "sample series signal stratum survey tally tier trace trial yield"
).split()

_TS = "2026-03-01T00:00:00Z"


def _phrase(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def _maybe_extensions(rng: random.Random):
    if rng.random() < 0.5:
        return None
    payload = {
        "x_note": _phrase(rng, 3),
        "x_run": rng.randrange(1000),
    }
    if rng.random() < 0.5:
        payload["x_tags"] = [rng.choice(_WORDS) for _ in range(rng.randrange(1, 4))]
    if rng.random() < 0.3:
        payload["x_nested"] = {"depth": rng.randrange(5), "label": rng.choice(_WORDS)}
    return payload


def make_record(
    seed: int,
    *,
    numeric: bool = True,
    soft_confidence: bool = True,
    limitation: bool = True,
    extensions: bool = True,
    replaces: str | None = None,
    record_id: str | None = None,
) -> KnowsRecord:
    """One lint-clean record, deterministic in the seed.

    ``numeric`` controls whether any observation carries a numeric value,
    ``soft_confidence`` whether any statement has a raisable claim strength,
    and ``limitation`` whether a relation-referenced limitation exists.
    """
    rng = random.Random(seed)
    rid = record_id or f"10.9999/gen-{seed}"
    rep = Representation(
        id=EntityId("rep", "pdf"),
        media_type="application/pdf",
        locator=Locator(type="path", value="paper.pdf"),
    )
    subject = Artifact(
        id=EntityId("art", "paper"),
        artifact_type="paper",
        role="subject",
        title=_phrase(rng, 5).title(),
        identifiers=Identifiers(doi=rid),
        representations=(rep,),
        x_extensions=_maybe_extensions(rng) if extensions else None,
    )
    n_cited = rng.randrange(0, 3)
    cited = tuple(
        Artifact(
            id=EntityId("art", f"cited-{i}"),
            artifact_type="paper",
            role="cited",
            title=_phrase(rng, 4).title(),
            identifiers=Identifiers(doi=f"{rid}.c{i}"),
        )
        for i in range(n_cited)
    )

    def anchor() -> SourceAnchor:
        return SourceAnchor(
            representation_ref=EntityId("rep", "pdf"),
            locator_type=rng.choice(["section", "table", "page"]),
            locator=str(rng.randrange(1, 30)),
        )

    n_claims = rng.randrange(2, 5)
    statements = []
    for i in range(n_claims):
        strength = "high"
        if soft_confidence and i == 0:
            strength = rng.choice(["low", "medium"])
        statements.append(
            Statement(
                id=EntityId("stmt", f"claim-{i}"),
                statement_type="claim",
                text=f"Claim {i}: {_phrase(rng, 8)}.",
                about_ref=Ref(EntityId("art", "paper")),
                status="asserted",
                modality=rng.choice(["empirical", "descriptive"]),
                source_anchors=(anchor(),),
                confidence=Confidence(claim_strength=strength, extraction_fidelity="high"),
                x_extensions=_maybe_extensions(rng) if extensions else None,
            )
        )
    if limitation:
        statements.append(
            Statement(
                id=EntityId("stmt", "scope-limit"),
                statement_type="limitation",
                text=f"Scope limit: {_phrase(rng, 6)}.",
                about_ref=Ref(EntityId("art", "paper")),
                status="asserted",
                source_anchors=(anchor(),),
            )
        )

    evidence = []
    for i in range(rng.randrange(1, 4)):
        if numeric:
            obs = Observation(
                metric=f"delta_{rng.choice(_WORDS)}_{i}",
                value=float(rng.randrange(-50, 200)),
                unit="pp",
            )
        else:
            obs = Observation(
                metric=f"finding_{i}",
                qualitative_value=_phrase(rng, 5),
            )
        evidence.append(
            Evidence(
                id=EntityId("ev", f"e{i}"),
                evidence_type=rng.choice(["table_result", "figure", "experiment_run"]),
                summary=f"Series {i}: {_phrase(rng, 6)}.",
                source_anchors=(anchor(),),
                observations=(obs,),
                x_extensions=_maybe_extensions(rng) if extensions else None,
            )
        )

    relations = []
    for i in range(min(n_claims, len(evidence))):
        relations.append(
            Relation(
                id=EntityId("rel", f"support-{i}"),
                subject_ref=Ref(EntityId("stmt", f"claim-{i}")),
                predicate="supported_by",
                object_ref=Ref(EntityId("ev", f"e{i}")),
            )
        )
    if limitation:
        relations.append(
            Relation(
                id=EntityId("rel", "limited"),
                subject_ref=Ref(EntityId("art", "paper")),
                predicate="limited_by",
                object_ref=Ref(EntityId("stmt", "scope-limit")),
            )
        )
    for i, art in enumerate(cited):
        relations.append(
            Relation(
                id=EntityId("rel", f"cites-{i}"),
                subject_ref=Ref(EntityId("art", "paper")),
                predicate="cites",
                object_ref=Ref(art.id),
                citation_intent=rng.choice(["background", "uses_method", "compares_to"]),
            )
        )

    actions = ()
    if rng.random() < 0.4:
        actions = (
            Action(
                id=EntityId("act", "download"),
                action_type="download",
                label="Fetch the source document",
                target_ref=Ref(EntityId("art", "paper")),
                interface=ActionInterface(kind="http", locator=f"https://example.org/{seed}.pdf"),
                safety=SafetyPolicy(
                    sandbox_required=False,
                    network=True,
                    secrets_required=False,
                    side_effects="temporary_files_only",
                ),
            ),
        )

    return KnowsRecord(
        schema_uri=SCHEMA_URI,
        knows_version=SpecVersion(0, 9, 0),
        record_id=rid,
        profile=Profile("paper", 1),
        subject_ref=EntityId("art", "paper"),
        title=_phrase(rng, 5).title(),
        summary=f"Generated study record: {_phrase(rng, 10)}.",
        authors=(Author(name=f"Author {seed % 97}"),),
        license="CC-BY-4.0",
        coverage=Coverage(statements="partial", evidence="partial"),
        artifacts=(subject,) + cited,
        statements=tuple(statements),
        evidence=tuple(evidence),
        relations=tuple(relations),
        provenance=Provenance(
            origin="machine",
            actor=Actor(name="generator", type="agent"),
            generated_at=_TS,
        ),
        version=VersionTriple(spec=SpecVersion(0, 9, 0), record="1", source="v1"),
        freshness=Freshness(
            as_of=_TS,
            update_policy="versioned",
            stale_after="2027-03-01T00:00:00Z" if rng.random() < 0.5 else None,
        ),
        replaces=replaces,
        extensions=_maybe_extensions(rng) if extensions else None,
        actions=actions,
    )
