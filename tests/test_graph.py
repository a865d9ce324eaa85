import random
from dataclasses import replace

import pytest

from helpers import FIXTURES, make_record
from knows_sidecar.errors import (
    ClassMismatchError,
    CycleDetectedError,
    TypeMismatchError,
    UnknownEntityError,
    UnknownRecordError,
)
from knows_sidecar.graph import (
    QualifiedId,
    Registry,
    build_graph,
    export_edge_list,
    resolve,
    trace,
    version_chain,
)
from knows_sidecar.model import EntityId, Ref, Relation
from knows_sidecar.serialization import load_record


def fixture_record(name):
    record, _ = load_record((FIXTURES / name).read_bytes())
    return record


class TestResolve:
    def setup_method(self):
        self.records = [make_record(s) for s in (1, 2, 3)]
        self.registry = Registry(self.records)
        self.home = self.records[0].record_id

    def test_local(self):
        qid, entity = resolve("stmt:claim-0", self.home, self.registry)
        assert str(qid) == f"{self.home}#stmt:claim-0"
        assert entity.statement_type == "claim"

    def test_remote(self):
        other = self.records[1].record_id
        qid, entity = resolve(f"{other}#art:paper", self.home, self.registry)
        assert qid.record_id == other
        assert entity.role == "subject"

    def test_unknown_record(self):
        with pytest.raises(UnknownRecordError):
            resolve("nowhere#art:paper", self.home, self.registry)

    def test_unknown_entity(self):
        with pytest.raises(UnknownEntityError):
            resolve("stmt:nonexistent", self.home, self.registry)

    def test_class_mismatch(self):
        record = self.records[0]
        lying = replace(
            record,
            statements=(replace(record.statements[0], id=EntityId("stmt", "claim-x")),)
            + record.statements[1:],
            evidence=(replace(record.evidence[0], id=EntityId("stmt", "claim-x")),)
            + record.evidence[1:],
        )
        registry = Registry([lying])
        # stmt:claim-x names a statement first, so the statement wins; force
        # the mismatch through an evidence-only id declared with stmt prefix
        mismatched = replace(
            record,
            evidence=(replace(record.evidence[0], id=EntityId("stmt", "odd")),)
            + record.evidence[1:],
        )
        registry = Registry([mismatched])
        with pytest.raises(ClassMismatchError):
            resolve("stmt:odd", mismatched.record_id, registry)


class TestRegistry:
    @pytest.mark.parametrize("record_id", [["x"], {"x": 1}, 42])
    def test_non_string_record_id_is_type_mismatch(self, record_id):
        record = replace(make_record(1), record_id=record_id)
        with pytest.raises(TypeMismatchError):
            Registry([record])

    def test_missing_record_id_is_left_to_the_linter(self):
        record = replace(make_record(1), record_id=None)
        assert Registry([record]).get(None) is record


class TestBuildGraph:
    def test_fixture_counts(self):
        record = fixture_record("techreport.knows.yaml")
        graph = build_graph([record])
        assert len(graph.edges) == 33
        # every entity is a node: 15 artifacts + 1 representation + 21
        # statements + 15 evidence + 33 relations + 2 actions
        assert len(graph.nodes) == 15 + 1 + 21 + 15 + 33 + 2
        assert graph.dangling == ()

    def test_named_edge_present(self):
        record = fixture_record("techreport.knows.yaml")
        graph = build_graph([record])
        assert any(
            e.predicate == "documents"
            and str(e.subject).endswith("#stmt:knows-sidecar-specification")
            and str(e.object).endswith("#art:paper")
            for e in graph.edges
        )

    def test_unresolved_remote_becomes_dangling(self):
        record = make_record(4)
        remote = Relation(
            id=EntityId("rel", "away"),
            subject_ref=Ref(EntityId("art", "paper")),
            predicate="cites",
            object_ref=Ref(EntityId("art", "paper"), record_id="10.1/absent"),
        )
        graph = build_graph([replace(record, relations=record.relations + (remote,))])
        assert any(str(q) == "10.1/absent#art:paper" for q in graph.dangling)

    def test_export_format(self):
        graph = build_graph([make_record(6)])
        lines = export_edge_list(graph).splitlines()
        assert lines[0] == f"# nodes={len(graph.nodes)} edges={len(graph.edges)}"
        body = lines[1:]
        assert body == sorted(body)
        assert all(len(line.split("\t")) == 4 for line in body)


class TestVersionChain:
    def test_complete_chain(self):
        r1 = make_record(10, record_id="10.9/a-v1")
        r2 = make_record(11, record_id="10.9/a-v2", replaces="10.9/a-v1")
        r3 = make_record(12, record_id="10.9/a-v3", replaces="10.9/a-v2")
        chain = version_chain("10.9/a-v3", Registry([r1, r2, r3]))
        assert chain.links == ("10.9/a-v3", "10.9/a-v2", "10.9/a-v1")
        assert chain.complete

    def test_incomplete_chain(self):
        r2 = make_record(11, record_id="10.9/b-v2", replaces="10.9/b-v1")
        chain = version_chain("10.9/b-v2", Registry([r2]))
        assert chain.links == ("10.9/b-v2",)
        assert not chain.complete

    def test_cycle_detected(self):
        r1 = make_record(13, record_id="10.9/c-v1", replaces="10.9/c-v2")
        r2 = make_record(14, record_id="10.9/c-v2", replaces="10.9/c-v1")
        with pytest.raises(CycleDetectedError):
            version_chain("10.9/c-v1", Registry([r1, r2]))

    def test_unknown_start(self):
        with pytest.raises(UnknownRecordError):
            version_chain("10.9/none", Registry([]))


class TestTrace:
    def setup_method(self):
        self.record = fixture_record("techreport.knows.yaml")
        self.graph = build_graph([self.record])
        self.seed = QualifiedId(self.record.record_id, EntityId("art", "paper"))

    def test_depth_zero_is_seed_only(self):
        sub = trace(self.seed, self.graph, depth=0)
        assert [str(n) for n in sub.nodes] == [str(self.seed)]
        assert sub.edges == ()

    def test_unknown_seed(self):
        with pytest.raises(UnknownEntityError):
            trace(QualifiedId("x", EntityId("art", "nope")), self.graph)

    def test_predicate_filter(self):
        sub = trace(self.seed, self.graph, predicates={"cites"}, depth=1)
        assert sub.edges
        assert all(e.predicate == "cites" for e in sub.edges)

    def test_direction_forward(self):
        sub = trace(self.seed, self.graph, predicates={"cites"}, depth=1, direction="forward")
        assert all(str(e.subject) == str(self.seed) for e in sub.edges)


def _brute_reachable(edges, seed, depth, predicates, direction):
    eligible = [e for e in edges if predicates is None or e.predicate in predicates]
    reached = {seed}
    frontier = {seed}
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


def test_resolve_and_trace_match_brute_force():
    rng = random.Random(2026)
    records = [make_record(100 + i) for i in range(5)]
    registry = Registry(records)
    graph = build_graph(records)
    entity_table = {
        (r.record_id, str(eid)): r.entity_index()[str(eid)]
        for r in records
        for eid, _ in r.all_entity_ids()
    }
    all_prefixed = sorted({key[1] for key in entity_table})
    record_ids = [r.record_id for r in records]

    checked = 0
    for _ in range(1000):
        home = rng.choice(record_ids)
        if rng.random() < 0.2:
            # nonexistent targets must raise
            with pytest.raises((UnknownEntityError, UnknownRecordError)):
                resolve("stmt:never-declared", home, registry)
            with pytest.raises(UnknownRecordError):
                resolve("10.404/none#art:paper", home, registry)
            continue
        target = rng.choice(all_prefixed)
        text = target if rng.random() < 0.5 else f"{home}#{target}"
        if (home, target) in entity_table:
            qid, entity = resolve(text, home, registry)
            assert (str(qid.record_id), str(qid.entity_id)) == (home, target)
            assert entity is entity_table[(home, target)]
        else:
            with pytest.raises(UnknownEntityError):
                resolve(text, home, registry)
        checked += 1

        node = rng.choice(graph.nodes)
        depth = rng.randrange(0, 4)
        direction = rng.choice(["both", "forward", "backward"])
        predicates = None if rng.random() < 0.5 else {"cites", "supported_by"}
        sub = trace(node, graph, predicates=predicates, depth=depth, direction=direction)
        expected = _brute_reachable(graph.edges, str(node), depth, predicates, direction)
        assert {str(n) for n in sub.nodes} == expected
    assert checked > 500
