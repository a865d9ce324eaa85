"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed and imports nothing from the
package under test or from the test suite, so neither a program change nor a
test edit can move the benchmark's inputs.  Records are produced as plain
document trees and serialized by :func:`dump_yaml`, a small block-style
writer that quotes every string, so the bytes do not depend on the program's
own emitter either.  Each planted fault carries its expected outcome beside
it for the oracles.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass, field

SCHEMA_URI = "https://knows.dev/schema/record-0.9.json"
NOW = "2026-06-01T00:00:00Z"  # the fixed clock every workload passes to the program
TS = "2026-03-01T00:00:00Z"
STALE_PAST = "2026-05-01T00:00:00Z"
STALE_FUTURE = "2099-01-01T00:00:00Z"

WORDS = tuple(
    (
        "ablation anchor audit batch cache census cohort corpus decay delta domain "
        "echo fidelity filter gauge grid harness index ledger lattice margin metric "
        "outcome panel phase pilot probe quota ratio replay sample series signal "
        "stratum survey tally tier trace trial yield basin cipher dune ember fjord "
        "glacier harbor isotope jetty kernel lagoon meadow nebula orbit prism quartz "
        "reef summit tundra umbra vertex willow zenith alloy beacon canopy dynamo "
        "estuary flux geyser helix inlet jasper"
    ).split()
)
# Words that never occur in any generated record or page: queries built from
# them retrieve nothing.
OFF_WORDS = ("mauve", "pebble", "sonnet", "tangerine", "violin", "walrus", "yodel", "zither")
HEDGE_PHRASE = "insufficient evidence"

# Planted structural faults and the lint codes each one must produce.
FAULT_CODES = {
    "dangling_object": frozenset({"K002"}),
    "duplicate_id": frozenset({"K003"}),
    "wrong_prefix": frozenset({"K004"}),
    "bad_predicate_pair": frozenset({"K005"}),
    "missing_license": frozenset({"K001"}),
    "bad_enum": frozenset({"K001"}),
    "no_representation": frozenset({"K002", "K006"}),
}


# ---------------------------------------------------------------------------
# YAML writer


def _scalar(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, float)):
        return repr(value)
    return json.dumps(value, ensure_ascii=False)


def _emit(value, indent: int, out: list[str]) -> None:
    pad = " " * indent
    if isinstance(value, dict):
        for key, item in value.items():
            _emit_entry(f"{pad}{key}:", item, indent, out)
    else:
        for item in value:
            if isinstance(item, dict) and item:
                lines: list[str] = []
                _emit(item, indent + 2, lines)
                lines[0] = f"{pad}- " + lines[0][indent + 2 :]
                out.extend(lines)
            else:
                _emit_entry(f"{pad}-", item, indent, out)


def _emit_entry(head: str, item, indent: int, out: list[str]) -> None:
    if isinstance(item, (dict, list)) and item:
        out.append(head)
        _emit(item, indent + 2, out)
    elif isinstance(item, dict):
        out.append(f"{head} {{}}")
    elif isinstance(item, list):
        out.append(f"{head} []")
    else:
        out.append(f"{head} {_scalar(item)}")


def dump_yaml(tree: dict) -> bytes:
    """Block-style YAML with every string double-quoted; deterministic."""
    lines: list[str] = []
    _emit(tree, 0, lines)
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Record trees


def phrase(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(n))


def _anchor(page: int) -> dict:
    return {"representation_ref": "rep:pdf", "locator_type": "page", "locator": str(page)}


def _claim(rng: random.Random, i: int, words: int, pages: int, soft: bool, hedged: bool) -> dict:
    text = f"Claim {i}: {phrase(rng, words)}"
    if hedged:
        text += f"; {HEDGE_PHRASE} for {rng.choice(WORDS)}"
    return {
        "id": f"stmt:claim-{i}",
        "statement_type": "claim",
        "text": text + ".",
        "about_ref": "art:paper",
        "status": "asserted",
        "modality": rng.choice(["empirical", "descriptive"]),
        "source_anchors": [_anchor(rng.randrange(1, pages + 1))],
        "confidence": {
            "claim_strength": rng.choice(["low", "medium"]) if soft else "high",
            "extraction_fidelity": "high",
        },
    }


def _evidence(rng: random.Random, i: int, words: int, pages: int, numeric: bool) -> dict:
    if numeric:
        obs = {
            "metric": f"delta_{rng.choice(WORDS)}_{i}",
            "value": float(rng.randrange(-50, 200)),
            "unit": "pp",
        }
    else:
        obs = {"metric": f"finding_{i}", "qualitative_value": phrase(rng, 4)}
    return {
        "id": f"ev:e{i}",
        "evidence_type": rng.choice(["table_result", "figure", "experiment_run"]),
        "summary": f"Series {i}: {phrase(rng, words)}.",
        "source_anchors": [_anchor(rng.randrange(1, pages + 1))],
        "observations": [obs],
    }


def record_tree(
    rng: random.Random,
    rid: str,
    *,
    claims: int = 3,
    evidence: int = 2,
    words: int = 9,
    pages: int = 4,
    cites: tuple[str, ...] = (),
    replaces: str | None = None,
    knows_version: str = "0.9.0",
    stale_after: str | None = None,
    limitation: bool = True,
    numeric: bool = True,
    soft: bool = True,
    hedged: bool = False,
) -> dict:
    """One lint-clean record tree.

    ``cites`` are record_ids whose subject artifact this record cites;
    ``soft`` gives claim 0 a raisable claim strength and ``hedged`` puts the
    hedging phrase into claim 0's text.
    """
    statements = [
        _claim(rng, i, words, pages, soft and i == 0, hedged and i == 0) for i in range(claims)
    ]
    if limitation:
        statements.append(
            {
                "id": "stmt:scope-limit",
                "statement_type": "limitation",
                "text": f"Scope limit: {phrase(rng, words // 2 + 1)}.",
                "about_ref": "art:paper",
                "status": "asserted",
                "source_anchors": [_anchor(rng.randrange(1, pages + 1))],
            }
        )
    evs = [_evidence(rng, i, words, pages, numeric) for i in range(evidence)]
    relations = [
        {
            "id": f"rel:support-{i}",
            "subject_ref": f"stmt:claim-{i}",
            "predicate": "supported_by",
            "object_ref": f"ev:e{i}",
        }
        for i in range(min(claims, evidence))
    ]
    if limitation:
        relations.append(
            {
                "id": "rel:limited",
                "subject_ref": "art:paper",
                "predicate": "limited_by",
                "object_ref": "stmt:scope-limit",
            }
        )
    for i, target in enumerate(cites):
        relations.append(
            {
                "id": f"rel:cites-{i}",
                "subject_ref": "art:paper",
                "predicate": "cites",
                "object_ref": f"{target}#art:paper",
                "citation_intent": rng.choice(["background", "uses_method", "compares_to"]),
            }
        )
    freshness = {"as_of": TS, "update_policy": "versioned"}
    if stale_after is not None:
        freshness["stale_after"] = stale_after
    tree = {
        "$schema": SCHEMA_URI,
        "knows_version": knows_version,
        "record_id": rid,
        "profile": "paper@1",
        "subject_ref": "art:paper",
        "title": phrase(rng, 5).title(),
        "summary": f"Generated record: {phrase(rng, 8)}.",
        "authors": [{"name": f"Author {rng.randrange(97)}"}],
        "license": "CC-BY-4.0",
        "coverage": {"statements": "partial", "evidence": "partial"},
        "artifacts": [
            {
                "id": "art:paper",
                "artifact_type": "paper",
                "role": "subject",
                "title": phrase(rng, 5).title(),
                "identifiers": {"doi": rid},
                "representations": [
                    {
                        "id": "rep:pdf",
                        "media_type": "application/pdf",
                        "locator": {"type": "path", "value": "paper.pdf"},
                    }
                ],
            }
        ],
        "statements": statements,
        "evidence": evs,
        "relations": relations,
        "provenance": {
            "origin": "machine",
            "actor": {"name": "generator", "type": "agent"},
            "generated_at": TS,
        },
        "version": {"spec": "0.9.0", "record": "1", "source": "v1"},
        "freshness": freshness,
    }
    if replaces is not None:
        tree["replaces"] = replaces
    return tree


def _relation(rid: str, subject: str, predicate: str, obj: str) -> dict:
    return {"id": rid, "subject_ref": subject, "predicate": predicate, "object_ref": obj}


def plant_fault(tree: dict, fault: str) -> dict:
    """A copy of a clean tree carrying one structural fault from FAULT_CODES."""
    tree = copy.deepcopy(tree)
    statements, relations = tree["statements"], tree["relations"]
    if fault == "dangling_object":
        relations.append(_relation("rel:dangling", "stmt:claim-0", "supported_by", "ev:missing"))
    elif fault == "duplicate_id":
        statements.append(dict(statements[0]))
    elif fault == "wrong_prefix":
        misfiled = {"id": "stmt:misfiled-evidence", "evidence_type": "figure", "summary": "Misfiled."}
        tree["evidence"].append(misfiled)
    elif fault == "bad_predicate_pair":
        relations.append(_relation("rel:bad-pair", "stmt:claim-0", "cites", "art:paper"))
    elif fault == "missing_license":
        del tree["license"]
    elif fault == "bad_enum":
        statements[0]["status"] = "pending"
    elif fault == "no_representation":
        del tree["artifacts"][0]["representations"]
    else:
        raise ValueError(f"unknown fault {fault!r}")
    return tree


def source_pages(rng: random.Random, tree: dict, pages: int) -> dict[int, str]:
    """Page texts of the source document; some echo the record's numbers."""
    numbers = [
        obs["value"] for ev in tree["evidence"] for obs in ev.get("observations", ()) if "value" in obs
    ]
    out = {}
    for page in range(1, pages + 1):
        body = phrase(rng, 30)
        if numbers and rng.random() < 0.5:
            body += f" measured {int(rng.choice(numbers))} pp"
        out[page] = body + "."
    return out


def page_blob(pages: dict[int, str]) -> str:
    """``[PAGE n]``-marked text, the format of the ``--passages`` file."""
    return "".join(f"[PAGE {page}]\n{text}\n" for page, text in pages.items())


# ---------------------------------------------------------------------------
# Corpora per workload


@dataclass
class CliFile:
    name: str
    data: bytes
    tree: dict
    fault: str | None
    expected_codes: frozenset


@dataclass
class CliCorpus:
    files: list[CliFile]


CLI_MIN_BYTES = 1536
CLI_MAX_BYTES = 64 * 1024


def cli_corpus(seed: int, n_files: int = 48, fault_share: float = 0.1) -> CliCorpus:
    """Files whose sizes are stratified log-uniform over 1.5-64 KiB.

    The sizes are the same for every seed; the seed picks the content and
    which files carry a fault, one in each equal run of sizes.
    """
    rng = random.Random(f"cli:{seed}")
    faults = sorted(FAULT_CODES)
    n_faulty = max(1, round(n_files * fault_share))
    offset = rng.random()
    faulty = {int((j + offset) * n_files / n_faulty) for j in range(n_faulty)}
    files = []
    for k in range(n_files):
        quantile = (k + 0.5) / n_files
        target = CLI_MIN_BYTES * (CLI_MAX_BYTES / CLI_MIN_BYTES) ** quantile
        tree = _sized_tree(rng, f"10.7000/cli-{seed}-{k}", target)
        fault = None
        if k in faulty:
            fault = faults[k % len(faults)]
            tree = plant_fault(tree, fault)
        files.append(
            CliFile(
                name=f"f{k:03d}.knows.yaml",
                data=dump_yaml(tree),
                tree=tree,
                fault=fault,
                expected_codes=FAULT_CODES[fault] if fault else frozenset(),
            )
        )
    return CliCorpus(files=files)


def _sized_tree(rng: random.Random, rid: str, target: float) -> dict:
    """Claim/evidence pairs up to ``target`` bytes, topped up by the abstract."""
    words = rng.randrange(8, 16)

    def build(n: int) -> tuple[dict, int]:
        tree = record_tree(
            random.Random(rng.random()),
            rid,
            claims=max(1, n),
            evidence=n,
            words=words,
            pages=8,
            limitation=n > 0,
        )
        return tree, len(dump_yaml(tree))

    _, base = build(0)
    _, one = build(1)
    n = max(0, int((target - base) / max(1, one - base)))
    tree, size = build(n)
    while n > 0 and size > target:
        n -= 1
        tree, size = build(n)
    filler = []
    while size + len(" ".join(filler)) + 12 < target:
        filler.append(rng.choice(WORDS))
    if filler:
        tree["abstract"] = " ".join(filler)
    return tree


@dataclass
class AgentCorpus:
    trees: dict[str, dict]
    pages: dict[str, dict[int, str]]
    lint_ok: dict[str, bool]
    unknown_ids: tuple[str, ...]


def agent_corpus(seed: int, n_records: int) -> AgentCorpus:
    """Registry records: ~5% planted lint failures, ~5% knows_version 1.x."""
    rng = random.Random(f"agent:{seed}")
    trees, pages, lint_ok = {}, {}, {}
    faults = sorted(FAULT_CODES)
    for i in range(n_records):
        rid = f"10.7100/a{seed}-{i}"
        roll = rng.random()
        tree = record_tree(
            rng,
            rid,
            claims=rng.randrange(2, 4),
            evidence=rng.randrange(1, 3),
            words=rng.randrange(5, 9),
            knows_version="1.0.0" if 0.05 <= roll < 0.10 else "0.9.0",
            stale_after=rng.choice([None, STALE_PAST, STALE_FUTURE]),
            hedged=rng.random() < 0.15,
        )
        if roll < 0.05:
            tree = plant_fault(tree, faults[i % len(faults)])
        trees[rid] = tree
        pages[rid] = source_pages(rng, tree, 4)
        lint_ok[rid] = roll >= 0.05
    unknown = tuple(f"10.7100/missing-{seed}-{i}" for i in range(20))
    return AgentCorpus(trees=trees, pages=pages, lint_ok=lint_ok, unknown_ids=unknown)


@dataclass
class GraphCorpus:
    trees: list[dict]
    chains: list[list[str]]  # oldest first; heads may replace a missing record


def _balanced(rng: random.Random, values, n: int) -> list:
    """``n`` values cycling through ``values``, so each occurs as often as
    ``n`` allows, in seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def graph_corpus(seed: int, n_records: int) -> GraphCorpus:
    """Records with 0-5 cross-record cites and ``replaces`` chains 1-8 long.

    Chain lengths, cite counts and claim counts are balanced, so every seed
    gives the same totals; the seed picks the order, the cited records and
    which chains are incomplete.
    """
    rng = random.Random(f"graph:{seed}")
    rids = [f"10.7200/g{seed}-{i}" for i in range(n_records)]
    chains: list[list[str]] = []
    start = 0
    while start < n_records:
        for length in _balanced(rng, range(1, 9), 8):
            chains.append(rids[start : start + length])
            start += length
            if start >= n_records:
                break
    replaces: dict[str, str] = {}
    incomplete = set(rng.sample(range(len(chains)), round(0.2 * len(chains))))
    for c, chain in enumerate(chains):
        if c in incomplete:
            replaces[chain[0]] = f"10.7200/retired-{seed}-{c}"
        for older, newer in zip(chain, chain[1:]):
            replaces[newer] = older
    n_cites = _balanced(rng, range(6), n_records)
    n_claims = _balanced(rng, (1, 2), n_records)
    trees = []
    for i, rid in enumerate(rids):
        cites = tuple(
            rng.choice(rids) if rng.random() < 0.9 else f"10.7200/external-{seed}-{rng.randrange(500)}"
            for _ in range(n_cites[i])
        )
        trees.append(
            record_tree(
                rng,
                rid,
                claims=n_claims[i],
                evidence=1,
                words=4,
                cites=cites,
                replaces=replaces.get(rid),
            )
        )
    return GraphCorpus(trees=trees, chains=chains)


@dataclass
class MatchedItem:
    raw: str
    parse_ok: bool
    page_ok: bool
    quote_ok: bool


@dataclass
class MatchedBatch:
    pages: dict[int, str]
    items: list[MatchedItem] = field(default_factory=list)


@dataclass
class AuditCorpus:
    trees: list[dict]
    flags: list[tuple[bool, bool, bool]]  # (limitation, numeric, soft) per record
    batches: list[MatchedBatch]


def audit_corpus(seed: int, n_records: int = 200, n_batches: int = 40, batch_size: int = 20) -> AuditCorpus:
    rng = random.Random(f"audit:{seed}")
    trees, flags = [], []
    for i in range(n_records):
        flag = (rng.random() < 0.8, rng.random() < 0.7, rng.random() < 0.6)
        trees.append(
            record_tree(
                rng,
                f"10.7300/s{seed}-{i}",
                claims=rng.randrange(2, 6),
                evidence=rng.randrange(1, 4),
                words=rng.randrange(6, 14),
                limitation=flag[0],
                numeric=flag[1],
                soft=flag[2],
            )
        )
        flags.append(flag)
    batches = [matched_batch(rng, batch_size) for _ in range(n_batches)]
    return AuditCorpus(trees=trees, flags=flags, batches=batches)


_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def matched_batch(rng: random.Random, size: int) -> MatchedBatch:
    """Answer objects over six pages, with planted failures of each gate."""
    plain = {page: phrase(rng, 40) for page in range(1, 7)}
    pages = dict(plain)
    items = []
    for n in range(size):
        page = rng.randrange(1, 7)
        words = plain[page].split()
        start = rng.randrange(0, len(words) - 6)
        quote = " ".join(words[start : start + rng.randrange(3, 7)])
        kind = rng.choices(
            [
                "plain",
                "nfkc",
                "punct",
                "space",
                "no_evidence",
                "wrong_page",
                "not_verbatim",
                "bad_json",
                "bad_field",
            ],
            weights=[30, 10, 10, 10, 10, 10, 10, 5, 5],
        )[0]
        parse_ok = page_ok = quote_ok = True
        if kind == "nfkc":
            # The page spells the quoted span with full-width digits and
            # ligatures; the quote keeps the plain spelling.
            quote = f"{quote} {n}{page}"
            spelled = quote.translate(_FULLWIDTH).replace("fi", "ﬁ").replace("fl", "ﬂ")
            pages[page] = f"{pages[page]} {spelled}"
        elif kind == "punct":
            pages[page] = f"{pages[page]} “{words[start]}” — {words[start + 1]}"
            quote = f'"{words[start]}" - {words[start + 1]}'
        elif kind == "space":
            quote = quote.replace(" ", "  \n ", 1)
        elif kind == "wrong_page":
            page, page_ok, quote_ok = 40 + n, False, False
        elif kind == "not_verbatim":
            quote, quote_ok = f"{quote} {rng.choice(OFF_WORDS)}", False
        obj = {
            "item_id": f"item-{n}",
            "status": "answer",
            "confidence": round(rng.random(), 3),
            "answer": phrase(rng, 6),
            "evidence": [{"source": "paper", "page": page, "quote": quote, "support": "direct"}],
            "reason": "",
        }
        if kind == "no_evidence":
            obj.update(status="abstain", evidence=[], reason="not in the excerpt")
        raw = json.dumps(obj, ensure_ascii=False)
        if kind == "bad_json":
            raw, parse_ok, page_ok, quote_ok = raw[: len(raw) // 2], False, False, False
        elif kind == "bad_field":
            obj["status"] = "maybe"
            raw, parse_ok, page_ok, quote_ok = json.dumps(obj), False, False, False
        items.append(MatchedItem(raw=raw, parse_ok=parse_ok, page_ok=page_ok, quote_ok=quote_ok))
    return MatchedBatch(pages=pages, items=items)


def rotation(i: int, step: float) -> float:
    """The i-th point of the sequence ``i * step mod 1``.

    For an irrational step every prefix is spread evenly over [0, 1), so an
    op mix drawn from it is the same, in every seed and up to any stopping
    point, and two sequences with independent steps do not correlate.  The
    workloads draw op kinds from these and op content from the seed.
    """
    return (i * step) % 1.0


GOLDEN = (math.sqrt(5) - 1) / 2
SQRT2 = math.sqrt(2) - 1
SQRT3 = math.sqrt(3) - 1
