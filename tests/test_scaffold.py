import pytest

from knows_sidecar.errors import InvalidInputError
from knows_sidecar.linter import lint
from knows_sidecar.model import Author, Identifiers, Locator, Profile
from knows_sidecar.scaffold import (
    CandidateEvidence,
    CandidateStatement,
    ExtractedContent,
    ScaffoldInput,
    scaffold_record,
    sidecar_filename,
    slugify,
)
from knows_sidecar.serialization import emit_record, load_record


def basic_input(**overrides):
    fields = dict(
        title="A Study of Sidecar Generation",
        authors=(Author(name="Pat Writer"),),
    )
    fields.update(overrides)
    return ScaffoldInput(**fields)


class TestScaffold:
    def test_minimal_lints_clean(self):
        record = scaffold_record(basic_input())
        assert lint(record).passed

    def test_subject_wiring(self):
        record = scaffold_record(basic_input())
        subject = record.subject_artifact()
        assert subject is not None
        assert subject.role == "subject"
        assert subject.representations  # discoverability needs one

    def test_record_id_prefers_doi(self):
        record = scaffold_record(basic_input(identifiers=Identifiers(doi="10.5/x")))
        assert record.record_id == "10.5/x"

    def test_record_id_falls_back_to_slug(self):
        record = scaffold_record(basic_input())
        assert record.record_id == slugify("A Study of Sidecar Generation")

    def test_empty_title_rejected(self):
        with pytest.raises(InvalidInputError):
            scaffold_record(basic_input(title="   "))

    def test_no_authors_rejected(self):
        with pytest.raises(InvalidInputError):
            scaffold_record(basic_input(authors=()))

    def test_extractor_output_becomes_entities(self):
        def extractor(locator):
            return ExtractedContent(
                statements=(
                    CandidateStatement(statement_type="claim", text="First finding here"),
                    CandidateStatement(statement_type="claim", text="First finding here"),
                ),
                evidence=(CandidateEvidence(evidence_type="figure", summary="A trend line"),),
            )

        record = scaffold_record(basic_input(), extractor)
        assert len(record.statements) == 2
        assert len(record.evidence) == 1
        ids = [str(s.id) for s in record.statements]
        assert len(set(ids)) == 2  # collision got a suffix
        assert lint(record).passed

    def test_custom_locator_media_type(self):
        record = scaffold_record(
            basic_input(source_locator=Locator(type="path", value="paper.tex"))
        )
        rep = record.subject_artifact().representations[0]
        assert rep.media_type == "application/x-tex"
        assert rep.locator.value == "paper.tex"

    def test_deterministic(self):
        a = scaffold_record(basic_input())
        b = scaffold_record(basic_input())
        assert emit_record(a) == emit_record(b)

    def test_emitted_scaffold_reloads_and_lints(self):
        record = scaffold_record(basic_input(profile=Profile("paper", 1)))
        loaded, log = load_record(emit_record(record))
        assert lint(loaded).passed
        assert not log.entries


class TestNaming:
    def test_sidecar_filename(self):
        assert sidecar_filename("papers/study.pdf") == "papers/study.knows.yaml"
        assert sidecar_filename("study") == "study.knows.yaml"

    def test_slugify(self):
        assert slugify("Hello, World!") == "hello-world"
        assert slugify("!!!") == "item"
        assert len(slugify("x" * 200)) <= 60
