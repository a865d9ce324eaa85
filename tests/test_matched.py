import json
import math

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import FIXTURES
from knows_sidecar import matched
from knows_sidecar.consumer import parse_page_markers
from knows_sidecar.errors import EmptyInputError
from knows_sidecar.matched import (
    ANSWER_SCHEMA,
    STATUS_VALUES,
    ItemVerdict,
    gate_report,
    normalize_text,
    parse_matched_output,
    quote_in_page,
    render_gate_report,
    validate_matched_output,
)


def good_item(**overrides):
    item = {
        "item_id": "q:1",
        "status": "answer",
        "confidence": 0.9,
        "answer": "Forty-two.",
        "evidence": [
            {"source": "paper", "page": 2, "quote": "the answer is forty-two", "support": "direct"}
        ],
        "reason": "Stated plainly.",
    }
    item.update(overrides)
    return item


CONTEXT = {2: "Deep in chapter two, the answer is forty-two, as expected."}


class TestParse:
    def test_well_formed(self):
        out = parse_matched_output(json.dumps(good_item()))
        assert out.item_id == "q:1"
        assert out.evidence[0].page == 2

    def test_accepts_mapping_input(self):
        assert parse_matched_output(good_item()).status == "answer"

    @pytest.mark.parametrize(
        "mutation",
        [
            {"status": "maybe"},
            {"confidence": 1.5},
            {"confidence": "high"},
            {"confidence": True},
            {"answer": 42},
            {"evidence": "none"},
            {"evidence": [{"source": "paper", "page": -1, "quote": "q", "support": "direct"}]},
            {"evidence": [{"source": "web", "page": 1, "quote": "q", "support": "direct"}]},
            {"evidence": [{"source": "paper", "page": 1, "quote": "q", "support": "maybe"}]},
            {"evidence": [{"source": "paper", "page": 1.5, "quote": "q", "support": "direct"}]},
            {"item_id": ""},
            {"extra": 1},
            {"confidence": float("nan")},
            {"confidence": float("inf")},
            {"evidence": [{"source": "paper", "page": 2.0, "quote": "q", "support": "direct"}]},
            "[1]",
        ],
    )
    def test_rejects_structural_problems(self, mutation):
        raw = good_item(**mutation) if isinstance(mutation, dict) else mutation
        with pytest.raises(ValueError):
            parse_matched_output(raw)

    def test_rejects_missing_field(self):
        item = good_item()
        del item["reason"]
        with pytest.raises(ValueError):
            parse_matched_output(item)

    def test_rejects_bad_json(self):
        with pytest.raises(ValueError):
            parse_matched_output("{not json")

    def test_schema_requires_six_fields_and_is_closed(self):
        fields = ["item_id", "status", "confidence", "answer", "evidence", "reason"]
        assert ANSWER_SCHEMA["required"] == fields
        assert list(ANSWER_SCHEMA["properties"]) == fields
        assert ANSWER_SCHEMA["additionalProperties"] is False
        entry = ANSWER_SCHEMA["properties"]["evidence"]["items"]
        assert entry["required"] == ["source", "page", "quote", "support"]
        assert entry["additionalProperties"] is False


# ---------------------------------------------------------------------------
# The parser against an off-the-shelf validator of ANSWER_SCHEMA

_ANSWER_ORACLE = jsonschema.Draft202012Validator(ANSWER_SCHEMA)

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(),
    st.text(max_size=3),
    st.sampled_from(["answer", "paper", "direct", "indirect"]),
    st.lists(st.integers(), max_size=1),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
evidence_entries = st.fixed_dictionaries(
    {
        "source": st.just("paper"),
        "page": st.integers(0, 9),
        "quote": st.text(max_size=5),
        "support": st.sampled_from(["direct", "indirect"]),
    }
)


@st.composite
def answer_objects(draw):
    """Well-formed answer objects with up to three fields set to junk, dropped or added."""
    evidence = draw(st.lists(evidence_entries, max_size=2))
    obj = {
        "item_id": draw(st.text(max_size=3)),
        "status": draw(st.sampled_from(sorted(STATUS_VALUES))),
        "confidence": draw(st.one_of(st.floats(0, 1), st.integers(0, 1))),
        "answer": draw(st.text(max_size=3)),
        "evidence": evidence,
        "reason": draw(st.text(max_size=3)),
    }
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from([obj, *evidence]))
        op = draw(st.sampled_from(["set", "delete", "add"]))
        if op == "add":
            target[draw(st.text(max_size=2))] = draw(junk)
        elif target:
            key = draw(st.sampled_from(sorted(target)))
            if op == "set":
                target[key] = draw(junk)
            else:
                del target[key]
    return obj


def _pinned_divergence(obj) -> bool:
    """JSON Schema accepts these and the parser does not.

    JSON Schema counts an integral float such as ``page: 2.0`` as an integer,
    and a NaN confidence fails neither bound there; the parser rejects both.
    """
    confidence = obj.get("confidence")
    if isinstance(confidence, float) and math.isnan(confidence):
        return True
    evidence = obj.get("evidence")
    return isinstance(evidence, list) and any(
        isinstance(entry, dict) and isinstance(entry.get("page"), float) and entry["page"].is_integer()
        for entry in evidence
    )


@settings(deadline=None)
@given(answer_objects())
@example(good_item(evidence=[{"source": "paper", "page": 2.0, "quote": "q", "support": "direct"}]))
@example(good_item(confidence=float("nan")))
def test_parser_agrees_with_jsonschema(obj):
    try:
        parse_matched_output(obj)
    except ValueError:
        parsed = False
    else:
        parsed = True
    assert parsed == (_ANSWER_ORACLE.is_valid(obj) and not _pinned_divergence(obj))


class TestNormalization:
    def test_whitespace_collapse(self):
        assert normalize_text("a\n  b\tc ") == "a b c"

    def test_punctuation_variants(self):
        assert normalize_text("it’s “fine” — ok") == "it's \"fine\" - ok"

    def test_quote_matching(self):
        page = "He said:  “the answer\nis  forty-two” loudly."
        assert quote_in_page('the answer is forty-two"', page)
        assert not quote_in_page('the answer is forty-two"', page, normalize=False)

    def test_a_batch_normalizes_each_page_once(self, monkeypatch):
        pages = {1: "Only this test cites “page one”.", 2: "And\n\tpage  two — here."}
        quotes = ['"page one"', "page two - here", "page  one", "not there", "And page"]
        items = [
            good_item(evidence=[{"source": "paper", "page": 1 + n % 2, "quote": q, "support": "direct"}])
            for n, q in enumerate(quotes)
        ]
        normalized = []

        def counted(text):
            normalized.append(text)
            return normalize_text(text)

        monkeypatch.setattr(matched, "normalize_text", counted)
        verdicts = [validate_matched_output(item, pages).quote_verbatim_ok for item in items]
        assert verdicts == [True, True, True, False, False]
        assert sorted(t for t in normalized if t in pages.values()) == sorted(pages.values())


class TestValidate:
    def test_all_gates_pass(self):
        verdict = validate_matched_output(good_item(), CONTEXT)
        assert (verdict.parse_ok, verdict.page_echo_ok, verdict.quote_verbatim_ok) == (
            True,
            True,
            True,
        )

    def test_parse_failure_fails_everything(self):
        verdict = validate_matched_output("{broken", CONTEXT)
        assert verdict == ItemVerdict(False, False, False, error=verdict.error)
        assert verdict.error

    def test_json_nested_too_deeply_fails_parse(self):
        verdict = validate_matched_output("[" * 200_000, CONTEXT)
        assert verdict == ItemVerdict(False, False, False, error=verdict.error)
        assert verdict.error

    def test_missing_page_fails_echo(self):
        item = good_item(
            evidence=[{"source": "paper", "page": 9, "quote": "x", "support": "direct"}]
        )
        verdict = validate_matched_output(item, CONTEXT)
        assert verdict.parse_ok and not verdict.page_echo_ok and not verdict.quote_verbatim_ok

    def test_wrong_quote_fails_verbatim_only(self):
        item = good_item(
            evidence=[{"source": "paper", "page": 2, "quote": "no such words", "support": "direct"}]
        )
        verdict = validate_matched_output(item, CONTEXT)
        assert verdict.parse_ok and verdict.page_echo_ok and not verdict.quote_verbatim_ok

    def test_empty_evidence_is_vacuously_fine(self):
        item = good_item(status="abstain", answer="", evidence=[], confidence=0.0)
        verdict = validate_matched_output(item, CONTEXT)
        assert verdict.page_echo_ok and verdict.quote_verbatim_ok

    def test_strict_mode(self):
        item = good_item(
            evidence=[
                {"source": "paper", "page": 2, "quote": "the answer  is forty-two", "support": "direct"}
            ]
        )
        assert validate_matched_output(item, CONTEXT).quote_verbatim_ok
        assert not validate_matched_output(item, CONTEXT, normalize=False).quote_verbatim_ok


class TestGates:
    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyInputError):
            gate_report([])

    def test_boundary_rates_pass(self):
        # 20 items: 19 parse (0.95), 18 echo (0.90), 16 verbatim (0.80)
        verdicts = (
            [ItemVerdict(True, True, True)] * 16
            + [ItemVerdict(True, True, False)] * 2
            + [ItemVerdict(True, False, False)]
            + [ItemVerdict(False, False, False)]
        )
        report = gate_report(verdicts)
        assert (report.parse_rate, report.page_echo_rate, report.quote_verbatim_rate) == (
            0.95,
            0.90,
            0.80,
        )
        assert report.passed

    def test_below_boundary_fails(self):
        verdicts = [ItemVerdict(True, True, True)] * 15 + [ItemVerdict(True, True, False)] * 5
        assert not gate_report(verdicts).passed  # verbatim 0.75 < 0.80

    def test_render(self):
        text = render_gate_report(gate_report([ItemVerdict(True, True, True)]))
        assert text.endswith("PASS")


class TestTranscriptFixtures:
    @pytest.mark.parametrize(
        "matched,context",
        [
            ("bloom_matched.json", "bloom_context.txt"),
            ("moore_matched.json", "moore_pages.txt"),
        ],
    )
    def test_transcripts_clear_all_gates(self, matched, context):
        items = json.loads((FIXTURES / matched).read_text())
        pages = parse_page_markers((FIXTURES / context).read_text())
        verdicts = [validate_matched_output(item, pages) for item in items]
        report = gate_report(verdicts)
        assert report.parse_rate == 1.0
        assert report.page_echo_rate == 1.0
        assert report.quote_verbatim_rate == 1.0
