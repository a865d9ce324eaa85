from dataclasses import replace

import pytest

from helpers import FIXTURES, make_record
from knows_sidecar.consumer import (
    Passage,
    Query,
    SidecarCache,
    collect_anchors,
    consume,
    detect_hedging,
    page_file_provider,
    parse_page_markers,
    reference_composer,
    retrieve_top_k,
    score_entity,
    tokenize,
)
from knows_sidecar.errors import ProviderFailureError
from knows_sidecar.graph import Registry
from knows_sidecar.model import SpecVersion
from knows_sidecar.serialization import load_record

BLOOM_QUESTION = (
    "What are the six levels of Bloom's original taxonomy in order from lowest "
    "to highest, and what cognitive activity does each level represent?"
)
MOORE_QUESTION = (
    "Why does Moore argue that heat dissipation will not be a fundamental "
    "barrier to integrating tens of thousands of components on a single chip?"
)


def fixture_record(name):
    record, _ = load_record((FIXTURES / name).read_bytes())
    return record


class TestScoring:
    def test_tokenize_folds_and_splits(self):
        assert tokenize("Bloom's TAXONOMY, v2!") == {"bloom", "s", "taxonomy", "v2"}

    def test_score_is_query_term_fraction(self):
        record = fixture_record("bloom.knows.yaml")
        stmt = record.statements[0]
        terms = tokenize("six levels taxonomy order")
        assert score_entity(stmt, terms) == 0.75  # "order" absent, "orders" present

    def test_observation_metrics_count_as_terms(self):
        record = fixture_record("moore.knows.yaml")
        ev = record.evidence[0]
        assert score_entity(ev, tokenize("elements per device")) == 1.0

    def test_ranked_retrieval(self):
        record = fixture_record("bloom.knows.yaml")
        results = retrieve_top_k(record, Query(BLOOM_QUESTION))
        assert [str(r.entity.id) for r in results] == ["stmt:c1", "ev:six-levels"]
        assert results[0].rank == 1
        assert results[0].score >= results[1].score > 0

    def test_zero_scores_excluded(self):
        record = fixture_record("moore.knows.yaml")
        assert retrieve_top_k(record, Query(MOORE_QUESTION)) == []

    def test_k_truncates(self):
        record = fixture_record("bloom.knows.yaml")
        assert len(retrieve_top_k(record, Query(BLOOM_QUESTION, k=1))) == 1

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_rejected(self, k):
        with pytest.raises(ValueError, match="k must be at least 1"):
            Query(BLOOM_QUESTION, k=k)

    def test_tie_break_by_record_order(self):
        record = make_record(21)
        # give two statements identical texts so their scores tie
        stmts = list(record.statements)
        stmts[1] = replace(stmts[1], text=stmts[0].text)
        tied = replace(record, statements=tuple(stmts))
        results = retrieve_top_k(tied, Query(stmts[0].text))
        first_two = [str(r.entity.id) for r in results[:2]]
        assert first_two == [str(stmts[0].id), str(stmts[1].id)]


class TestComposer:
    def test_empty_inputs_compose_empty(self):
        assert reference_composer(Query("anything"), [], []) == ("", 0.0)

    def test_anchor_collection_dedupes(self):
        record = fixture_record("bloom.knows.yaml")
        results = retrieve_top_k(record, Query(BLOOM_QUESTION))
        anchors = collect_anchors(results + results)
        assert len(anchors) == 2

    def test_hedging_detection(self):
        assert detect_hedging("There is Insufficient Evidence to answer.")
        assert detect_hedging("Sidecar does not discuss heat.")
        assert not detect_hedging("A confident and direct answer.")
        assert detect_hedging("totally unclear", phrases=("unclear",))


class TestPages:
    def test_parse_markers(self):
        pages = parse_page_markers("[PAGE 1]\nalpha\n[PAGE 2]\nbeta\n")
        assert pages == {1: "alpha", 2: "beta"}

    def test_provider_filters_and_sorts(self):
        provider = page_file_provider("[PAGE 2]\nb\n[PAGE 1]\na\n")
        assert provider() == [Passage(1, "a"), Passage(2, "b")]
        assert provider([2, 9]) == [Passage(2, "b")]


class TestCache:
    def test_hit_and_miss(self):
        record = make_record(30)
        cache = SidecarCache()
        cache.put(record)
        key = (record.record_id, record.version.record)
        assert cache.get(key, "2026-06-01T00:00:00Z") is record
        assert cache.get(("other", "1"), "2026-06-01T00:00:00Z") is None

    def test_stale_entries_expire(self):
        record = make_record(30)
        record = replace(record, freshness=replace(record.freshness, stale_after="2026-06-01T00:00:00Z"))
        cache = SidecarCache()
        cache.put(record)
        key = (record.record_id, record.version.record)
        assert cache.get(key, "2026-05-31T23:59:59Z") is record
        assert cache.get(key, "2026-06-01T00:00:00Z") is None  # boundary is stale

    def test_versions_are_distinct_entries(self):
        r1 = make_record(31)
        r2 = replace(r1, version=replace(r1.version, record="2"))
        cache = SidecarCache()
        cache.put(r1)
        cache.put(r2)
        assert len(cache) == 2
        assert cache.get_latest(r1.record_id, "2026-06-01T00:00:00Z") is r2


    @pytest.mark.parametrize("stale_after", ["soon", "2027-01-01T00:00:00"])
    def test_warm_cache_answers_as_cold(self, stale_after):
        # "soon" fails lint; a deadline without an offset passes it and reads as UTC.
        text = (FIXTURES / "moore.knows.yaml").read_text()
        policy = "  update_policy: frozen\n"
        text = text.replace(policy, f"{policy}  stale_after: '{stale_after}'\n")
        record, _ = load_record(text)
        assert record.freshness.stale_after == stale_after
        registry, cache = Registry([record]), SidecarCache()
        answers = [
            consume(
                Query(MOORE_QUESTION),
                record.record_id,
                registry=registry,
                cache=cache,
                now="2026-06-01T00:00:00Z",
            )
            for _ in range(2)
        ]
        assert answers[0] == answers[1]
        assert len(cache) == 1

    def test_unparseable_deadline_is_stale_at_once(self):
        record = make_record(30)
        record = replace(record, freshness=replace(record.freshness, stale_after="soon"))
        cache = SidecarCache()
        cache.put(record)
        assert cache.get_latest(record.record_id, "2000-01-01T00:00:00Z") is None

    def test_deadline_without_offset_reads_as_utc(self):
        record = make_record(30)
        freshness = replace(record.freshness, stale_after="2026-06-01T00:00:00")
        record = replace(record, freshness=freshness)
        cache = SidecarCache()
        cache.put(record)
        assert cache.get_latest(record.record_id, "2026-06-01T01:59:59+02:00") is record
        assert cache.get_latest(record.record_id, "2026-06-01T00:00:00") is None


class TestConsume:
    def setup_method(self):
        self.bloom = fixture_record("bloom.knows.yaml")
        self.moore = fixture_record("moore.knows.yaml")
        self.registry = Registry([self.bloom, self.moore])
        self.pages = page_file_provider((FIXTURES / "moore_pages.txt").read_text())

    def test_only_mode_answer(self):
        answer = consume(Query(BLOOM_QUESTION), "bloom-1956", mode="only", registry=self.registry)
        assert answer.status == "answer"
        assert "bloom-1956#stmt:c1" in answer.trace.used
        assert answer.confidence > 0

    def test_only_mode_abstain_is_honest(self):
        answer = consume(Query(MOORE_QUESTION), "moore-1965", mode="only", registry=self.registry)
        assert answer.status == "abstain"
        assert answer.confidence == 0.0
        assert answer.text == ""
        assert detect_hedging(answer.reason)

    def test_fallback_reaches_pages(self):
        answer = consume(
            Query(MOORE_QUESTION),
            "moore-1965",
            mode="fallback",
            registry=self.registry,
            passage_source=self.pages,
        )
        assert answer.status == "answer"
        assert sorted({p.page for p in answer.trace.passages}) == [3, 4]
        assert answer.confidence > 0

    def test_fallback_skipped_when_confident(self):
        def forbidden(pages=None):
            raise AssertionError("passage source consulted")

        answer = consume(
            Query(BLOOM_QUESTION),
            "bloom-1956",
            mode="fallback",
            tau=0.2,
            registry=self.registry,
            passage_source=forbidden,
        )
        assert answer.status == "answer"
        assert answer.trace.passages == ()

    def test_fallback_requires_source(self):
        with pytest.raises(ValueError):
            consume(Query("q"), "bloom-1956", mode="fallback", registry=self.registry)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            consume(Query("q"), "bloom-1956", mode="verbose", registry=self.registry)

    def test_missing_record_not_found(self):
        answer = consume(Query("q"), "absent", registry=self.registry)
        assert answer.status == "not_found"
        assert answer.baseline_required

    def test_major_version_refused(self):
        newer = replace(self.bloom, knows_version=SpecVersion(1, 0, 0))
        answer = consume(Query(BLOOM_QUESTION), "bloom-1956", registry=Registry([newer]))
        assert answer.status == "not_found"
        assert answer.baseline_required

    def test_minor_version_accepted(self):
        newer = replace(self.bloom, knows_version=SpecVersion(0, 10, 0))
        answer = consume(Query(BLOOM_QUESTION), "bloom-1956", registry=Registry([newer]))
        assert answer.status == "answer"

    def test_invalid_record_not_found(self):
        broken = replace(self.bloom, statements=())  # dangles rel:c1-support
        answer = consume(Query(BLOOM_QUESTION), "bloom-1956", registry=Registry([broken]))
        assert answer.status == "not_found"

    def test_cache_serves_fresh_entry(self):
        cache = SidecarCache()
        consume(Query(BLOOM_QUESTION), "bloom-1956", registry=self.registry, cache=cache)
        assert len(cache) == 1

        class Tripwire:
            def get(self, record_id):
                raise AssertionError("registry consulted despite cache")

        answer = consume(Query(BLOOM_QUESTION), "bloom-1956", registry=Tripwire(), cache=cache)
        assert answer.status == "answer"

    def test_provider_failure_is_reported(self):
        def broken(pages=None):
            raise OSError("disk gone")

        with pytest.raises(ProviderFailureError):
            consume(
                Query(MOORE_QUESTION),
                "moore-1965",
                mode="fallback",
                registry=self.registry,
                passage_source=broken,
            )

    @pytest.mark.parametrize(
        "value, overridden", [(".inf", True), (".nan", True), ("65000.0", False), ("65000", False)]
    )
    def test_override_spells_only_finite_integral_values_as_integers(self, value, overridden):
        text = (FIXTURES / "moore.knows.yaml").read_text().replace("value: 65000", f"value: {value}")
        record, _ = load_record(text)
        answer = consume(
            Query("How many elements per device by 1975 does the density trend plot show?"),
            "moore-1965",
            mode="fallback",
            tau=2.0,
            registry=Registry([record]),
            passage_source=page_file_provider("[PAGE 2]\nsome 65000 elements per device\n"),
        )
        assert answer.status == "answer"
        assert ("moore-1965#ev:density-trend" in answer.trace.overridden) is overridden

    def test_stage2_trace_is_superset_of_stage1(self):
        stage1 = consume(
            Query(BLOOM_QUESTION), "bloom-1956", mode="only", registry=self.registry
        )
        stage2 = consume(
            Query(BLOOM_QUESTION),
            "bloom-1956",
            mode="fallback",
            tau=1.1,  # force escalation even though stage 1 answered
            registry=self.registry,
            # page 18 matches the stmt:c1 page anchor, so fallback fetches it
            passage_source=page_file_provider("[PAGE 18]\nbloom taxonomy levels\n"),
        )
        assert set(stage1.trace.used) <= set(stage2.trace.used)
        assert stage2.trace.passages
