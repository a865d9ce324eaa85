"""Acceptance suite: ten end-to-end criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines for
passing criteria as well.
"""

import json
import random

from helpers import FIXTURES, make_record
from knows_sidecar import cli
from knows_sidecar.consumer import parse_page_markers
from knows_sidecar.corruption import InjectionKind, inject, run_study
from knows_sidecar.graph import Registry, build_graph, resolve, trace
from knows_sidecar.errors import UnknownEntityError, UnknownRecordError
from knows_sidecar.linter import LintCode, lint
from knows_sidecar.matched import gate_report, validate_matched_output
from knows_sidecar.model import (
    Author,
    Identifiers,
    SpecVersion,
    reader_accepts,
)
from knows_sidecar.projection import ProjectionCondition, project, record_tokens, token_report
from knows_sidecar.scaffold import (
    CandidateEvidence,
    CandidateStatement,
    ExtractedContent,
    ScaffoldInput,
    scaffold_record,
)
from knows_sidecar.serialization import emit_record, load_record

MOORE_QUESTION = (
    "Why does Moore argue that heat dissipation will not be a fundamental "
    "barrier to integrating tens of thousands of components on a single chip?"
)
BLOOM_QUESTION = (
    "What are the six levels of Bloom's original taxonomy in order from lowest "
    "to highest, and what cognitive activity does each level represent?"
)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def fixture_record(name):
    record, _ = load_record((FIXTURES / name).read_bytes())
    return record


def test_criterion_01_golden_fixtures_lint_clean():
    ok = True
    for name in ("minimal.knows.yaml", "techreport.knows.yaml"):
        report = lint(fixture_record(name))
        ok = ok and report.passed and not report.findings
    verdict(1, ok, "minimal and tech-report fixtures: zero errors, zero warnings")


def test_criterion_02_detection_profile_exact():
    corpus = []
    for i in range(15):
        corpus.append(
            make_record(
                1000 + i,
                limitation=True,
                numeric=i < 10,
                soft_confidence=i % 2 == 0 or i < 1,  # exactly 8 of 15
            )
        )
    soft = sum(1 for r in corpus if any(
        s.confidence and s.confidence.claim_strength in ("low", "medium") for s in r.statements
    ))
    numeric = sum(1 for r in corpus if any(
        o.value is not None for e in r.evidence for o in e.observations
    ))
    assert (len(corpus), numeric, soft) == (15, 10, 8)
    assert all(lint(r).passed for r in corpus)

    report = run_study(corpus, seed=17)
    omit = report.by_kind(InjectionKind.OMIT_LIMITATION)
    wrong = report.by_kind(InjectionKind.WRONG_NUMBER)
    inflate = report.by_kind(InjectionKind.INFLATE_CONFIDENCE)
    ok = (
        (omit.applicable, omit.detected) == (15, 15)
        and (wrong.applicable, wrong.detected) == (10, 0)
        and (inflate.applicable, inflate.detected) == (8, 0)
    )
    verdict(2, ok, f"detection 15/15, 0/10, 0/8 (got {omit.detected}/{omit.applicable}, "
                   f"{wrong.detected}/{wrong.applicable}, {inflate.detected}/{inflate.applicable})")


def test_criterion_03_corruption_properties():
    rng = random.Random(3)
    structural_hits = 0
    for i in range(200):
        record = make_record(2000 + i)
        result = inject(record, InjectionKind.OMIT_LIMITATION, seed=rng.randrange(10**9))
        report = lint(result.record)
        if any(f.code is LintCode.CROSSREF and f.severity == "error" for f in report.findings):
            structural_hits += 1
    silent_passes = 0
    for i in range(200):
        record = make_record(3000 + i)
        kind = InjectionKind.WRONG_NUMBER if i % 2 else InjectionKind.INFLATE_CONFIDENCE
        result = inject(record, kind, seed=rng.randrange(10**9))
        if lint(result.record).passed:
            silent_passes += 1
    ok = structural_hits == 200 and silent_passes == 200
    verdict(3, ok, f"structural K002 {structural_hits}/200, semantic silent {silent_passes}/200")


def test_criterion_04_round_trip_500():
    failures = 0
    for i in range(500):
        record = make_record(4000 + i, extensions=True)
        first, _ = load_record(emit_record(record))
        second, _ = load_record(emit_record(first))
        if second != first:
            failures += 1
    ok = failures == 0
    verdict(4, ok, f"load(emit(load(b))) == load(b) for 500 records ({failures} failures)")


def test_criterion_05_version_gate():
    reader = SpecVersion(0, 9, 0)
    ok = (
        not reader_accepts(SpecVersion(1, 0, 0), reader)
        and reader_accepts(SpecVersion(0, 10, 0), reader)
    )
    verdict(5, ok, "0.9.0 reader refuses 1.0.0 and accepts 0.10.0")


def test_criterion_06_transcript_status_sequence(capsys):
    code_bloom = cli.main(["query", str(FIXTURES / "bloom.knows.yaml"), BLOOM_QUESTION, "--mode", "only"])
    bloom = json.loads(capsys.readouterr().out)
    code_abstain = cli.main(["query", str(FIXTURES / "moore.knows.yaml"), MOORE_QUESTION, "--mode", "only"])
    abstain = json.loads(capsys.readouterr().out)
    code_fb = cli.main([
        "query", str(FIXTURES / "moore.knows.yaml"), MOORE_QUESTION,
        "--mode", "fallback", "--passages", str(FIXTURES / "moore_pages.txt"),
    ])
    fallback = json.loads(capsys.readouterr().out)
    ok = (
        (code_bloom, bloom["status"]) == (0, "answer")
        and (code_abstain, abstain["status"], abstain["confidence"], abstain["text"])
        == (1, "abstain", 0.0, "")
        and (code_fb, fallback["status"], fallback["pages"]) == (0, "answer", [3, 4])
    )
    verdict(6, ok, "Bloom answer; Moore abstain at confidence 0; Moore fallback cites pages 3 and 4")


def test_criterion_07_matched_output_gates():
    verdicts = []
    for matched, context in (
        ("bloom_matched.json", "bloom_context.txt"),
        ("moore_matched.json", "moore_pages.txt"),
    ):
        items = json.loads((FIXTURES / matched).read_text())
        pages = parse_page_markers((FIXTURES / context).read_text())
        verdicts.extend(validate_matched_output(item, pages) for item in items)
    report = gate_report(verdicts)
    ok = (report.parse_rate, report.page_echo_rate, report.quote_verbatim_rate) == (1.0, 1.0, 1.0)
    verdict(7, ok, f"gates {report.parse_rate:.0%}/{report.page_echo_rate:.0%}/"
                   f"{report.quote_verbatim_rate:.0%} on the transcript objects")


def test_criterion_08_projection_monotone_and_valid():
    conditions = list(ProjectionCondition)
    ok = True
    for i in range(200):
        record = make_record(5000 + i)
        counts = [record_tokens(record, c) for c in conditions]
        if counts != sorted(counts, reverse=True):
            ok = False
            break
        if not all(lint(project(record, c)).passed for c in conditions):
            ok = False
            break
    golden = token_report(fixture_record("techreport.knows.yaml"))
    frozen = {"full": 5455, "minus_relations": 4516, "minus_evidence": 3248, "statements_only": 2520}
    ok = ok and golden == frozen
    ratio = golden["statements_only"] / golden["full"]
    verdict(8, ok, f"monotone + lint-clean on 200 records; frozen ratio {ratio:.4f} (2520/5455)")


def test_criterion_09_graph_oracle_1000():
    rng = random.Random(9)
    records = [make_record(6000 + i) for i in range(5)]
    registry = Registry(records)
    graph = build_graph(records)
    table = {
        (r.record_id, str(entity.id)): r.entity_index()[str(entity.id)]
        for r in records
        for entity, _ in r.entities()
    }
    locals_ = sorted({k[1] for k in table})
    ids = [r.record_id for r in records]

    def brute(seed, depth, predicates, direction):
        eligible = [e for e in graph.edges if predicates is None or e.predicate in predicates]
        reached, frontier = {seed}, {seed}
        for _ in range(depth):
            nxt = set()
            for e in eligible:
                s, o = str(e.subject), str(e.object)
                if direction in ("both", "forward") and s in frontier and o not in reached:
                    nxt.add(o)
                if direction in ("both", "backward") and o in frontier and s not in reached:
                    nxt.add(s)
            reached |= nxt
            frontier = nxt
        return reached

    mismatches = 0
    for _ in range(1000):
        home = rng.choice(ids)
        target = rng.choice(locals_)
        text = target if rng.random() < 0.5 else f"{rng.choice(ids)}#{target}"
        expected_home = home if "#" not in text else text.split("#", 1)[0]
        try:
            qid, entity = resolve(text, home, registry)
            if (qid.record_id, str(qid.entity_id)) != (expected_home, target):
                mismatches += 1
            if entity is not table.get((expected_home, target)):
                mismatches += 1
        except (UnknownEntityError, UnknownRecordError):
            if (expected_home, target) in table:
                mismatches += 1
        node = rng.choice(graph.nodes)
        depth = rng.randrange(0, 4)
        direction = rng.choice(["both", "forward", "backward"])
        predicates = None if rng.random() < 0.5 else {"cites", "supported_by", "limited_by"}
        sub = trace(node, graph, predicates=predicates, depth=depth, direction=direction)
        if {str(n) for n in sub.nodes} != brute(str(node), depth, predicates, direction):
            mismatches += 1
    verdict(9, mismatches == 0, f"resolve/trace vs brute force: {mismatches} mismatches in 1000 queries")


def test_criterion_10_scaffold_validity_100():
    rng = random.Random(10)
    words = "alpha beta gamma delta epsilon zeta eta theta".split()
    failures = 0
    for i in range(100):
        title = " ".join(rng.choice(words) for _ in range(rng.randrange(2, 6))).title()
        spec = ScaffoldInput(
            title=title,
            authors=tuple(Author(name=f"Author {j}") for j in range(rng.randrange(1, 4))),
            identifiers=Identifiers(doi=f"10.77/{i}") if rng.random() < 0.5 else None,
        )
        extractor = None
        if rng.random() < 0.5:
            extracted = ExtractedContent(
                statements=tuple(
                    CandidateStatement(statement_type="claim", text=f"Finding {j} about {title}")
                    for j in range(rng.randrange(0, 4))
                ),
                evidence=tuple(
                    CandidateEvidence(evidence_type="figure", summary=f"Series {j} for {title}")
                    for j in range(rng.randrange(0, 3))
                ),
            )
            extractor = lambda locator, extracted=extracted: extracted
        record = scaffold_record(spec, extractor)
        if not lint(record).passed:
            failures += 1
    verdict(10, failures == 0, f"100 random scaffolds lint clean ({failures} failures)")
