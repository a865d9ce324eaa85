"""Self-tests of the benchmark: seeded inputs are byte-deterministic and
every oracle rejects a deliberately corrupted output.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import corpus as gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from knows_sidecar import linter, serialization  # noqa: E402


def _digest(seed: int) -> str:
    h = hashlib.sha256()
    for f in gen.cli_corpus(seed, n_files=6).files:
        h.update(f.data)
    agent = gen.agent_corpus(seed, 40)
    for rid, tree in agent.trees.items():
        h.update(gen.dump_yaml(tree) + gen.page_blob(agent.pages[rid]).encode())
    for tree in gen.graph_corpus(seed, 40).trees:
        h.update(gen.dump_yaml(tree))
    audit = gen.audit_corpus(seed, n_records=20, n_batches=3)
    for tree in audit.trees:
        h.update(gen.dump_yaml(tree))
    for batch in audit.batches:
        h.update(json.dumps(batch.pages).encode())
        h.update("".join(item.raw for item in batch.items).encode())
    return h.hexdigest()


def test_generator_is_byte_deterministic_in_its_seed():
    assert _digest(5) == _digest(5)
    assert _digest(5) != _digest(6)


@pytest.mark.parametrize("fault", sorted(gen.FAULT_CODES))
def test_planted_fault_gets_its_expected_codes(fault):
    import random

    tree = gen.plant_fault(gen.record_tree(random.Random(fault), "10.7000/fault"), fault)
    record, _ = serialization.load_record(gen.dump_yaml(tree))
    codes = {f.code.value for f in linter.lint(record).findings if f.severity == "error"}
    assert codes == gen.FAULT_CODES[fault]


def _run(workload, seed: int, n: int):
    state = workload.fresh(workload.setup(seed), 1)
    done = []
    for op in itertools.islice(workload.ops(state), n):
        done.append((op, workload.run(state, op)))
    assert all(workload.check(state, op, out) for op, out in done)
    return state, done


def test_windows_share_no_record_object(monkeypatch):
    monkeypatch.setattr(workloads, "GRAPH_RECORDS", 30)
    w = workloads.GraphTrace()
    base = w.setup(3)
    states = [base] + [w.fresh(base, window) for window in (0, 1, 2)] + [w.fresh(base, 1, epoch=1)]
    ids = [{id(r) for r in state["registry"].records()} for state in states]
    assert all(a.isdisjoint(b) for a, b in itertools.combinations(ids, 2))


def test_each_epoch_gets_an_op_stream_of_its_own(monkeypatch):
    monkeypatch.setattr(workloads, "GRAPH_RECORDS", 30)
    w = workloads.GraphTrace()
    base = w.setup(3)
    streams = [
        [op[:4] for op in itertools.islice(w.ops(w.fresh(base, 1, epoch)), 30)] for epoch in (0, 1, 0)
    ]
    assert streams[0] == streams[2] != streams[1]


def test_each_op_is_scaled_by_the_references_around_it():
    # Taken before op 0, after op 0, after op 2 and after op 3.
    references = [(0, 1.0), (1, 2.0), (3, 4.0), (4, 8.0)]
    assert run._scales(references, 4) == [
        run.REFERENCE_MS / 2.0,  # median of 1, 2, 4
        run.REFERENCE_MS / 3.0,  # median of 1, 2, 4, 8
        run.REFERENCE_MS / 3.0,
        run.REFERENCE_MS / 4.0,  # median of 2, 4, 8
    ]


def test_graph_reference_walk_is_one_cycle_through_every_entry():
    cycle = run._walk_cycle()
    i, steps = cycle[0], 1
    while i != 0:
        i, steps = cycle[i], steps + 1
    assert steps == run.WALK_SIZE


def test_audit_ops_never_repeat_a_record_or_study_seed():
    w = workloads.AuditBatch()
    base = w.setup(3)
    seen_ids, seen_seeds = set(), set()
    for window in (0, 1, 2):
        for _, chunk, study_seed, _, token_record, _ in itertools.islice(w.ops(w.fresh(base, window)), 25):
            ids = [r.record_id for r in chunk] + [token_record.record_id]
            assert seen_ids.isdisjoint(ids) and study_seed not in seen_seeds
            seen_ids.update(ids[:-1])
            seen_seeds.add(study_seed)


def test_agent_oracle_rejects_a_wrong_status(monkeypatch):
    monkeypatch.setattr(workloads, "AGENT_RECORDS", 60)
    w = workloads.AgentQuery()
    state, done = _run(w, 3, 150)
    statuses = {out.status for op, out in done if op[0] == "query"}
    assert statuses == {"answer", "abstain", "not_found"}
    for op, out in done:
        if op[0] == "query":
            other = "abstain" if out.status != "abstain" else "answer"
            assert not w.check(state, op, dataclasses.replace(out, status=other))


def test_graph_oracle_rejects_a_missing_trace_edge(monkeypatch):
    monkeypatch.setattr(workloads, "GRAPH_RECORDS", 80)
    w = workloads.GraphTrace()
    state, done = _run(w, 3, 120)
    traces = [(op, out) for op, out in done if op[0] == "trace" and out[2].edges]
    assert traces
    for op, (qualified, entity, result) in traces:
        broken = dataclasses.replace(result, edges=result.edges[:-1])
        assert not w.check(state, op, (qualified, entity, broken))
    chain_op, chain = next((op, out) for op, out in done if op[0] == "chain")
    assert not w.check(state, chain_op, dataclasses.replace(chain, complete=not chain.complete))


def test_audit_oracle_rejects_an_off_by_one_token_count_and_a_flipped_gate():
    w = workloads.AuditBatch()
    state, done = _run(w, 3, 3)
    op, (report, tokens, gates) = done[0]
    off_by_one = dict(tokens, minus_evidence=tokens["minus_evidence"] + 1)
    assert not w.check(state, op, (report, off_by_one, gates))
    verdicts = list(gates.verdicts)
    verdicts[0] = dataclasses.replace(verdicts[0], quote_verbatim_ok=not verdicts[0].quote_verbatim_ok)
    assert not w.check(state, op, (report, tokens, dataclasses.replace(gates, verdicts=tuple(verdicts))))
    flipped_rate = dataclasses.replace(gates, parse_rate=1.0 - gates.parse_rate)
    assert not w.check(state, op, (report, tokens, flipped_rate))
    rows = tuple(dataclasses.replace(r, detected=r.detected + 1) for r in report.results)
    assert not w.check(state, op, (dataclasses.replace(report, results=rows), tokens, gates))


def test_cli_oracle_rejects_a_wrong_exit_code_or_finding(tmp_path):
    w = workloads.CliFiles(tmp_path)
    state, done = _run(w, 3, 40)
    kinds = {op[0] for op, _ in done}
    assert kinds == {"lint", "project", "query", "gen"}
    for op, (code, out, err) in done:
        assert not w.check(state, op, (code + 1, out, err))
    lint_op, (code, out, err) = next(
        (op, o) for op, o in done if op[0] == "lint" and state["corpus"].files[op[1]].fault
    )
    assert not w.check(state, lint_op, (code, "", err))
    w.close(state)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_tracer_finds_every_seam_and_restores_it():
    from knows_sidecar import consumer, model

    before = (serialization.yaml, consumer.consume, model.KnowsRecord.entity_index)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert serialization.yaml is not before[0]
    finally:
        tracer.uninstall()
    assert (serialization.yaml, consumer.consume, model.KnowsRecord.entity_index) == before
    assert consumer.consume.__kwdefaults__["composer"] is consumer.reference_composer
