from dataclasses import fields, replace
from decimal import Decimal
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, strategies as st

from helpers import DEEP_DOC, FIXTURES, make_record
from knows_sidecar import serialization
from knows_sidecar.errors import EmissionError, RecordSyntaxError, TypeMismatchError
from knows_sidecar.linter import check_schema
from knows_sidecar.model import Author, EntityId, Observation, Profile, SpecVersion
from knows_sidecar.projection import token_report
from knows_sidecar.scaffold import CandidateEvidence, ExtractedContent, ScaffoldInput, scaffold_record
from knows_sidecar.schema import validate_tree
from knows_sidecar.serialization import (
    emit_record,
    load_record,
    record_to_tree,
)


def load_fixture(name: str):
    record, log = load_record((FIXTURES / name).read_bytes())
    return record, log


class TestLoad:
    def test_minimal_fixture(self):
        record, log = load_fixture("minimal.knows.yaml")
        assert record.record_id == "10.1234/example"
        assert record.knows_version == SpecVersion(0, 9, 0)
        assert record.subject_ref == EntityId("art", "paper")
        assert record.artifacts[0].representations[0].locator.value == "paper.pdf"
        assert record.version.record == "1"
        assert not log.entries

    def test_findings_retained_not_the_tree(self):
        text = (FIXTURES / "minimal.knows.yaml").read_text() + "x_unknown: 1\n"
        record, _ = load_record(text)
        tree = serialization._documents(text)[0]
        assert record._k001 == tuple(validate_tree(tree)) == (("x_unknown", "unknown field"),)
        assert set(vars(record)) == {f.name for f in fields(record)} | {"_k001"}

    def test_bom_tolerated(self):
        raw = (FIXTURES / "minimal.knows.yaml").read_bytes()
        record, _ = load_record(b"\xef\xbb\xbf" + raw)
        assert record.record_id == "10.1234/example"

    def test_multi_document_rejected(self):
        with pytest.raises(RecordSyntaxError):
            load_record("a: 1\n---\nb: 2\n")

    def test_invalid_yaml_rejected(self):
        with pytest.raises(RecordSyntaxError):
            load_record("a: [unclosed\n")

    def test_non_mapping_root_rejected(self):
        with pytest.raises(TypeMismatchError):
            load_record("- just\n- a list\n")

    def test_missing_fields_do_not_abort(self):
        record, _ = load_record("record_id: r1\nstatements: []\n")
        assert record.record_id == "r1"
        assert record.title is None
        assert record.artifacts == ()

    def test_bad_enum_kept_as_string(self):
        record, _ = load_record(
            "statements:\n"
            "  - id: stmt:x\n"
            "    statement_type: hunch\n"
            "    text: t\n"
            "    about_ref: art:paper\n"
            "    status: asserted\n"
        )
        assert record.statements[0].statement_type == "hunch"

    def test_unparseable_id_kept_raw(self):
        record, _ = load_record("subject_ref: 'not an id'\n")
        assert record.subject_ref == "not an id"

    def test_profile_major_parses_only_decimal_digits(self):
        # Only ASCII digits, as K001's pattern reads ``\d``: an Arabic-Indic
        # three stays raw, and so does a superscript two.
        assert load_record("profile: paper@\u0663\n")[0].profile == "paper@\u0663"
        assert load_record("profile: paper@\u00b2\n")[0].profile == "paper@\u00b2"
        assert load_record("profile: paper@3\n")[0].profile == Profile("paper", 3)

    @given(
        st.sampled_from(["knows_version", "profile"]),
        st.one_of(
            st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
            st.lists(
                st.sampled_from(["0", "1", "9", ".", "@", "p", "\n", "\r", "\u2028", "\u0663", "\u00b2"]),
                max_size=7,
            ).map("".join),
        ),
    )
    @example("knows_version", "0.9.0\n")
    @example("knows_version", "\u0660.\u0669.\u0660")
    @example("profile", "paper@\u0661")
    @example("profile", "paper@01")
    def test_a_parsed_string_keeps_its_k001_outcome_through_emission(self, name, text):
        tree = yaml.safe_load((FIXTURES / "minimal.knows.yaml").read_bytes())
        tree[name] = text
        record, _ = load_record(yaml.safe_dump(tree, allow_unicode=True, sort_keys=False))
        reloaded, _ = load_record(emit_record(record))
        assert check_schema(reloaded) == check_schema(record)

    def test_unknown_root_key_logged(self):
        record, log = load_record("record_id: r1\nbogus_key: 1\n")
        assert any(e.key == "bogus_key" and e.path == "" for e in log.entries)

    def test_x_extension_keys_logged(self):
        record, log = load_record(
            "artifacts:\n"
            "  - id: art:paper\n"
            "    artifact_type: paper\n"
            "    role: subject\n"
            "    title: T\n"
            "    x_extensions: {x_lab: 42}\n"
        )
        assert record.artifacts[0].x_extensions == {"x_lab": 42}
        assert any(e.key == "x_lab" for e in log.entries)


class TestEmit:
    def test_deterministic(self):
        record, _ = load_fixture("techreport.knows.yaml")
        assert emit_record(record) == emit_record(record)

    def test_root_order_canonical(self):
        record, _ = load_fixture("minimal.knows.yaml")
        keys = list(record_to_tree(record))
        assert keys[:5] == ["$schema", "knows_version", "record_id", "profile", "subject_ref"]
        assert keys.index("provenance") < keys.index("version") < keys.index("freshness")

    def test_key_order_independent_equality(self):
        raw = (FIXTURES / "minimal.knows.yaml").read_text()
        lines = raw.splitlines(keepends=True)
        # move the license line after coverage; content is unchanged
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("license:"))
        moved = lines[:idx] + lines[idx + 1 :]
        cov_end = next(i for i, ln in enumerate(moved) if ln.startswith("artifacts:"))
        moved = moved[:cov_end] + [lines[idx]] + moved[cov_end:]
        a, _ = load_record(raw)
        b, _ = load_record("".join(moved))
        assert a == b
        assert emit_record(a) == emit_record(b)

    @pytest.mark.parametrize("seed", range(25))
    def test_round_trip_value_equality(self, seed):
        record = make_record(seed)
        first, _ = load_record(emit_record(record))
        second, _ = load_record(emit_record(first))
        assert first == second

    def test_extensions_survive_round_trip(self):
        record = make_record(11, extensions=True)
        loaded, _ = load_record(emit_record(record))
        assert loaded.extensions == record.extensions
        for a, b in zip(record.statements, loaded.statements):
            assert b.x_extensions == a.x_extensions

    def test_value_nested_too_deeply_is_an_emission_error(self):
        deep = "x"
        for _ in range(3000):
            deep = [deep]
        record = replace(make_record(3), extensions={"x_deep": deep})
        with pytest.raises(EmissionError, match="nested too deeply"):
            emit_record(record)
        with pytest.raises(EmissionError):
            token_report(record)

    def test_value_with_no_yaml_form_is_an_emission_error(self):
        def extractor(locator):
            observation = Observation(metric="gain", value=Decimal("1.5"))
            return ExtractedContent(evidence=(CandidateEvidence("table", "Gains", (observation,)),))

        spec = ScaffoldInput(title="T", authors=(Author(name="A"),))
        cases = [
            (scaffold_record(spec, extractor), "Decimal"),
            (replace(make_record(3), extensions={"x_o": object()}), "object"),
        ]
        for record, kind in cases:
            with pytest.raises(EmissionError, match=f"a {kind} value has no YAML form"):
                emit_record(record)
            with pytest.raises(EmissionError, match=kind):
                token_report(record)

    def test_pure_loader_rejects_a_document_nested_too_deeply(self, monkeypatch):
        # libyaml loads it; emitting it is the EmissionError above.
        monkeypatch.setattr(serialization, "_LOADER", yaml.SafeLoader)
        with pytest.raises(RecordSyntaxError, match="nested too deeply"):
            load_record(DEEP_DOC)

    def test_version_record_is_string(self):
        record, _ = load_record(
            (FIXTURES / "minimal.knows.yaml").read_text().replace("record: '1'", "record: 1")
        )
        assert record.version.record == "1"
