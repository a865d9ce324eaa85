from dataclasses import replace

import pytest

from helpers import LIST_CLAIM_STRENGTH_DOC, make_record
from knows_sidecar.corruption import (
    InjectionKind,
    applicable,
    inject,
    render_report,
    run_study,
)
from knows_sidecar.errors import NotApplicableError
from knows_sidecar.linter import LintCode, lint
from knows_sidecar.serialization import load_record


class TestApplicability:
    def test_full_record_offers_all_kinds(self):
        record = make_record(0)
        assert all(applicable(record, kind) for kind in InjectionKind)

    def test_unreferenced_limitation_does_not_qualify(self):
        record = make_record(1)
        relations = tuple(r for r in record.relations if str(r.id) != "rel:limited")
        assert not applicable(replace(record, relations=relations), InjectionKind.OMIT_LIMITATION)

    def test_qualitative_only_record(self):
        record = make_record(2, numeric=False)
        assert not applicable(record, InjectionKind.WRONG_NUMBER)

    def test_high_confidence_cannot_inflate(self):
        record = make_record(3, soft_confidence=False)
        assert not applicable(record, InjectionKind.INFLATE_CONFIDENCE)

    def test_claim_strength_that_is_not_a_string_does_not_qualify(self):
        record, _ = load_record(LIST_CLAIM_STRENGTH_DOC)
        assert not applicable(record, InjectionKind.INFLATE_CONFIDENCE)
        report = run_study([record])
        assert report.by_kind(InjectionKind.INFLATE_CONFIDENCE).applicable == 0

    def test_inject_raises_without_target(self):
        record = make_record(4, numeric=False)
        with pytest.raises(NotApplicableError):
            inject(record, InjectionKind.WRONG_NUMBER, seed=0)


class TestInject:
    def test_omit_removes_statement_and_breaks_lint(self):
        record = make_record(5)
        result = inject(record, InjectionKind.OMIT_LIMITATION, seed=1)
        assert len(result.record.statements) == len(record.statements) - 1
        report = lint(result.record)
        assert not report.passed
        assert any(f.code is LintCode.CROSSREF for f in report.findings)

    def test_wrong_number_doubles_plus_one(self):
        record = make_record(6)
        result = inject(record, InjectionKind.WRONG_NUMBER, seed=1)
        originals = {
            (str(e.id), o.metric): o.value
            for e in record.evidence
            for o in e.observations
            if o.value is not None
        }
        changed = [
            ((str(e.id), o.metric), o.value)
            for e in result.record.evidence
            for o in e.observations
            if o.value is not None and o.value != originals[(str(e.id), o.metric)]
        ]
        assert len(changed) == 1
        key, new_value = changed[0]
        assert new_value == originals[key] * 2 + 1
        assert lint(result.record).passed  # structurally silent

    def test_inflate_raises_one_level(self):
        record = make_record(7)
        result = inject(record, InjectionKind.INFLATE_CONFIDENCE, seed=1)
        pairs = [
            (a.confidence.claim_strength, b.confidence.claim_strength)
            for a, b in zip(record.statements, result.record.statements)
            if a.confidence and a.confidence != b.confidence
        ]
        assert pairs in ([("low", "medium")], [("medium", "high")])
        assert lint(result.record).passed

    def test_seed_determinism(self):
        record = make_record(8)
        a = inject(record, InjectionKind.OMIT_LIMITATION, seed=42)
        b = inject(record, InjectionKind.OMIT_LIMITATION, seed=42)
        assert a == b

    def test_original_record_untouched(self):
        record = make_record(9)
        snapshot = record
        inject(record, InjectionKind.WRONG_NUMBER, seed=3)
        assert record == snapshot


class TestStudy:
    def test_detection_profile(self):
        corpus = [make_record(100 + i) for i in range(8)]
        report = run_study(corpus, seed=7)
        omit = report.by_kind(InjectionKind.OMIT_LIMITATION)
        assert omit.applicable == 8 and omit.detected == 8
        for kind in (InjectionKind.WRONG_NUMBER, InjectionKind.INFLATE_CONFIDENCE):
            assert report.by_kind(kind).detected == 0

    def test_replayable(self):
        corpus = [make_record(200 + i) for i in range(5)]
        assert run_study(corpus, seed=3) == run_study(corpus, seed=3)

    def test_render(self):
        report = run_study([make_record(300)], seed=0)
        lines = render_report(report).splitlines()
        assert lines[0] == "records 1"
        assert len(lines) == 2 + len(InjectionKind)
