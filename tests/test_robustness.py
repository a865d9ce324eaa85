"""Whatever a record file holds, the toolchain fails only in documented ways.

A Hypothesis strategy mutates the fixture trees: it sets values to junk (sets
among it), adds keys, removes keys and points slots at containers elsewhere in
the tree, which the document writes as YAML aliases.  Each mutated document
goes through ``load_record``, ``lint``, ``emit_record``, ``build_graph``,
``trace``, ``export_edge_list``, ``token_report``, a ``Registry`` with
``resolve`` of every entity ID, ``consume`` in ``only`` mode (twice) and
``fallback`` mode through one ``SidecarCache``, and ``run_study`` over the one
record.  ``lint`` never raises; every other stage raises only ``KnowsError``,
and the second ``only`` answer equals the first.  On the same documents, K001
finds nothing exactly when an off-the-shelf JSON Schema validator accepts the
tree, but for one pinned divergence; and emitting the four projections
together, each shared root run once, gives the bytes and token counts of
emitting each projection alone.  Copies of the loaded records made with
``dataclasses.replace``, and copies derived from those, lint as the reference
path does: K001 on the re-emitted tree.

The default profile runs a modest number of examples.  For a long run:

    HYPOTHESIS_PROFILE=fuzz pytest tests/test_robustness.py
"""

import copy
import datetime
from dataclasses import fields, replace

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from helpers import ALIAS_DOCS, DEEP_DOC, FIXTURES, LIST_CLAIM_STRENGTH_DOC, RECORD_ORACLE
from knows_sidecar.consumer import Query, SidecarCache, consume, page_file_provider
from knows_sidecar.corruption import run_study
from knows_sidecar.errors import EmissionError, KnowsError
from knows_sidecar.graph import Registry, build_graph, export_edge_list, resolve, trace
from knows_sidecar.linter import (
    check_crossrefs,
    check_discoverability,
    check_id_prefixes,
    check_id_uniqueness,
    check_predicates,
    check_schema,
    lint,
)
from knows_sidecar.projection import (
    ProjectionCondition,
    byte_tokenizer,
    emit_projections,
    project,
    token_report,
)
from knows_sidecar.schema import validate_tree
from knows_sidecar.serialization import document_tree, emit_record, load_record

SMALL_TREES = [
    yaml.safe_load((FIXTURES / f"{name}.knows.yaml").read_bytes())
    for name in ("bloom", "minimal", "moore")
]
# The techreport fixture costs ten times the others; draw it 1 time in 10.
BASE_TREES = SMALL_TREES * 3 + [yaml.safe_load((FIXTURES / "techreport.knows.yaml").read_bytes())]
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

WORDS = [
    "", " ", "x", "art:paper", "art:", "art:a b", "stmt:x#y", "zz:top", "rec#art:paper",
    "a#b#c", "rep:pdf", "ev:e0", "cites", "supported_by", "same_as", "0.9.0", "9.0.0", "1.2",
    "paper@1", "paper@0", "2026-01-01T00:00:00Z", "2026-13-01", "url", "path", "high", "full",
]
KEYS = [
    "zzz", "id", "x_extensions", "extensions", "$schema", "predicate", "subject_ref",
    "object_ref", "relations", "actions", "replaces", "record_id", "value", "citation_intent",
    "year",
]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.sampled_from(WORDS),
    st.text(st.characters(max_codepoint=0x17F), max_size=6),
)
keys = st.one_of(st.sampled_from(KEYS), st.integers(0, 3))
junk = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(keys, inner, max_size=3),
        st.sets(st.one_of(keys, st.sampled_from(WORDS)), max_size=3),
    ),
    max_leaves=6,
)


def _slots(tree):
    """Every (container, key) in ``tree``."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            out.append((node, key))
            if isinstance(value, (dict, list)):
                stack.append(value)
    return out


@st.composite
def mutated_documents(draw):
    tree = copy.deepcopy(draw(st.sampled_from(BASE_TREES)))
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(tree)
        op = draw(st.sampled_from(["set", "add", "delete", "alias"]))
        if op == "set":
            container, key = draw(st.sampled_from(slots))
            container[key] = draw(junk)
        elif op == "alias":
            # A slot outside a container's subtree points at it: YAML's &id / *id.
            target = draw(st.sampled_from([c[k] for c, k in slots if isinstance(c[k], (dict, list))]))
            inside = {id(target)} | {id(c) for c, _ in _slots(target)}
            outside = [(c, k) for c, k in slots if id(c) not in inside]
            if outside:
                container, key = draw(st.sampled_from(outside))
                container[key] = target
        elif op == "add":
            dicts = [tree] + [c[k] for c, k in slots if isinstance(c[k], dict)]
            draw(st.sampled_from(dicts))[draw(keys)] = draw(junk)
        else:
            container, key = draw(st.sampled_from([(c, k) for c, k in slots if isinstance(c, dict)]))
            del container[key]
    return yaml.dump(tree, Dumper=_DUMPER, sort_keys=False, allow_unicode=True).encode("utf-8")


def _graph_stages(record):
    graph = build_graph([record])
    export_edge_list(graph)
    if graph.nodes:
        export_edge_list(trace(graph.nodes[0], graph, predicates={"cites"}, depth=2))


PAGES = page_file_provider((FIXTURES / "moore_pages.txt").read_text())
QUERY = Query("heat dissipation of components on a single chip")
NOW = "2026-05-01T00:00:00Z"


def _registry_stages(record):
    registry = Registry([record])
    for entity_id, _ in record.all_entity_ids():
        try:
            resolve(str(entity_id), record.record_id, registry)
        except KnowsError:
            pass
    cache = SidecarCache()
    answer = consume(QUERY, record.record_id, mode="only", registry=registry, cache=cache, now=NOW)
    # The same query through the now warm cache answers the same, without raising.
    try:
        again = consume(QUERY, record.record_id, mode="only", registry=registry, cache=cache, now=NOW)
    except KnowsError as exc:
        raise AssertionError(f"warm cache raised {exc!r}") from exc
    assert again == answer
    # A tau no answer reaches, so fallback always reads the passages.
    consume(
        QUERY, record.record_id, mode="fallback", tau=2.0, registry=registry,
        passage_source=PAGES, cache=cache, now=NOW,
    )


def _study_stage(record):
    run_study([record])


@settings(deadline=None)
@given(mutated_documents())
@example(LIST_CLAIM_STRENGTH_DOC)
def test_stages_fail_only_with_knows_errors(doc):
    try:
        record, _ = load_record(doc)
    except KnowsError:
        return
    lint(record)
    for stage in (emit_record, _graph_stages, token_report, _registry_stages, _study_stage):
        try:
            stage(record)
        except KnowsError:
            pass


@settings(deadline=None)
@given(mutated_documents())
@example((FIXTURES / "moore.knows.yaml").read_bytes() + b"year: 2026.0\n")
def test_k001_agrees_with_jsonschema(doc):
    try:
        record, _ = load_record(doc)
    except KnowsError:
        return
    tree = document_tree(record)
    findings = validate_tree(tree)
    # The pinned divergence: JSON Schema counts an integral float such as
    # ``year: 2026.0`` as an integer, and K001 reports "expected integer".
    year = tree.get("year")
    pinned = isinstance(year, float) and year.is_integer()
    assert (not findings) == (RECORD_ORACLE.is_valid(tree) and not pinned)
    if pinned:
        assert ("year", "expected integer") in findings


def _moore_with(**fields):
    """The moore fixture with root fields set, aliases written as YAML aliases."""
    tree = dict(BASE_TREES[2], **fields)
    return yaml.dump(tree, Dumper=yaml.SafeDumper, sort_keys=False, allow_unicode=True).encode("utf-8")


SHARED_LIST = ["a", {"b": 1}]
WHEN = datetime.datetime(2026, 1, 1, tzinfo=datetime.timezone.utc)


def _line_tokenizer(data: bytes) -> int:
    return data.count(b"\n")


@settings(deadline=None)
@given(mutated_documents())
@example(_moore_with(resources=SHARED_LIST, extensions={"x_r": SHARED_LIST}))
@example(_moore_with(title=SHARED_LIST, resources=[SHARED_LIST]))
@example(_moore_with(title=WHEN, extensions={"x_t": WHEN}))
@example(_moore_with(extensions={"x_a": SHARED_LIST, "x_b": SHARED_LIST}))
@example(_moore_with(title="Heat \U0001f600 on one chip"))
@example(DEEP_DOC.encode("utf-8"))
@example(ALIAS_DOCS[0])
@example(ALIAS_DOCS[1])
@example(ALIAS_DOCS[2])
def test_shared_runs_emit_as_each_projection_alone(doc):
    try:
        record, _ = load_record(doc)
    except KnowsError:
        return
    try:
        reference = {c.value: emit_record(project(record, c)) for c in ProjectionCondition}
    except EmissionError:
        with pytest.raises(EmissionError):
            emit_projections(record)
        with pytest.raises(EmissionError):
            token_report(record)
        return
    assert emit_projections(record) == reference
    for tokenizer in (byte_tokenizer, _line_tokenizer):
        expected = {name: tokenizer(data) for name, data in reference.items()}
        assert token_report(record, tokenizer) == expected


# The root fields whose values keep their own K001 findings.
LIST_FIELDS = [
    "authors", "artifacts", "statements", "evidence", "relations", "actions",
    "external_metadata_refs",
]
SINGLE_FIELDS = ["coverage", "provenance", "version", "freshness"]
edits = st.one_of(
    st.tuples(st.sampled_from(LIST_FIELDS), st.sampled_from(["drop", "reverse", "repeat", "fresh", "edit"])),
    st.tuples(st.sampled_from(SINGLE_FIELDS), st.sampled_from(["fresh", "edit", "none"])),
)


def _blank_first_field(value):
    return replace(value, **{fields(value)[0].name: ""})


def _edited(record, name, op):
    """A copy sharing every value of ``record`` but the ones ``op`` makes or moves."""
    value = getattr(record, name)
    if op == "none" or value is None:
        return replace(record, **{name: None})
    if name in SINGLE_FIELDS:
        return replace(record, **{name: replace(value) if op == "fresh" else _blank_first_field(value)})
    if op == "drop":
        value = value[1:]
    elif op == "reverse":
        value = value[::-1]
    elif op == "repeat":
        value = value + value[:1]
    elif value:
        first = replace(value[0]) if op == "fresh" else _blank_first_field(value[0])
        value = (first, *value[1:])
    return replace(record, **{name: value})


def _reference_findings(record):
    """What lint finds by the reference path: K001 on the re-emitted tree."""
    findings = check_schema(document_tree(record)) + check_crossrefs(record)
    for check in (check_id_uniqueness, check_id_prefixes, check_predicates, check_discoverability):
        findings += check(record)
    findings.sort(key=lambda f: (str(f.path), f.code.value))
    return tuple(findings)


@settings(deadline=None)
@given(mutated_documents(), st.lists(edits, max_size=3))
def test_in_memory_lint_agrees_with_the_reference_path(doc, changes):
    try:
        record, _ = load_record(doc)
    except KnowsError:
        return
    # Cold: no value of the copy has kept findings yet.
    copied = replace(record)
    assert lint(copied).findings == _reference_findings(copied)
    # Warm: each derived copy is linted after the values it shares were.
    for name, op in changes:
        copied = _edited(copied, name, op)
        assert lint(copied).findings == _reference_findings(copied)
    assert lint(copy.deepcopy(copied)).findings == _reference_findings(copied)
