"""Whatever a record file holds, the toolchain fails only in documented ways.

A Hypothesis strategy mutates the fixture trees: it sets values to junk (sets
among it), adds keys, removes keys and points slots at containers elsewhere in
the tree, which the document writes as YAML aliases.  Each mutated document
goes through ``load_record``, ``lint``, ``emit_record``, ``build_graph``,
``trace`` (which must trace as on the same graph rebuilt by hand, whose keys
are rendered anew), ``export_edge_list``, ``token_report``, a ``Registry`` with
``resolve`` of every entity ID, ``consume`` in ``only`` mode (twice) and
``fallback`` mode through one ``SidecarCache``, and ``run_study`` over the one
record.  ``lint`` never raises; every other stage raises only ``KnowsError``,
and the second ``only`` answer equals the first.  On the same documents, K001
finds nothing exactly when an off-the-shelf JSON Schema validator accepts the
tree, but for two pinned divergences; and emitting the four projections
together, each shared root run once, gives the bytes and token counts of
emitting each projection alone.  Copies of the loaded records made with
``dataclasses.replace``, and copies derived from those, lint as the reference
path does: K001 on the re-emitted tree.  With junk put in their fields as
well, a copy's kept K001 findings, and each of its values', equal those of
emitting the value's tree and checking it, or both raise alike.

The default profile runs a modest number of examples.  For a long run:

    HYPOTHESIS_PROFILE=fuzz pytest tests/test_robustness.py
"""

import copy
import datetime
import os
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from helpers import (
    ALIAS_DOCS,
    DEEP_DOC,
    DEEP_VALUE_DOCS,
    FIXTURES,
    LIST_CLAIM_STRENGTH_DOC,
    RECORD_ORACLE,
    SET_VALUES_DOC,
    make_record,
)
from knows_sidecar import model, schema, serialization
from knows_sidecar.consumer import Query, SidecarCache, consume, page_file_provider
from knows_sidecar.corruption import run_study
from knows_sidecar.errors import EmissionError, KnowsError
from knows_sidecar.graph import RelationGraph, Registry, build_graph, export_edge_list, resolve, trace
from knows_sidecar.linter import (
    LintCode,
    LintFinding,
    check_crossrefs,
    check_discoverability,
    check_id_prefixes,
    check_id_uniqueness,
    check_predicates,
    lint,
)
from knows_sidecar.model import KnowsRecord
from knows_sidecar.projection import (
    ProjectionCondition,
    byte_tokenizer,
    emit_projections,
    project,
    token_report,
)
from knows_sidecar.schema import validate_tree
from knows_sidecar.serialization import emit_record, load_record, record_to_tree

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
    # The keys build_graph keeps trace as the keys a graph built by hand renders.
    rendered = RelationGraph(graph.nodes, graph.edges, graph.dangling)
    for seed in graph.nodes:
        for direction in ("both", "forward", "backward"):
            for depth in range(4):
                for predicates in (None, {"cites"}):
                    kwargs = dict(predicates=predicates, depth=depth, direction=direction)
                    assert trace(seed, graph, **kwargs) == trace(seed, rendered, **kwargs)


PAGES = page_file_provider((FIXTURES / "moore_pages.txt").read_text())
QUERY = Query("heat dissipation of components on a single chip")
NOW = "2026-05-01T00:00:00Z"


def _registry_stages(record):
    registry = Registry([record])
    for entity, _ in record.entities():
        try:
            resolve(entity.id, record.record_id, registry)
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
@example(DEEP_VALUE_DOCS["role"])
@example(DEEP_VALUE_DOCS["version.spec"])
@example(DEEP_VALUE_DOCS["version.record"])
@example(DEEP_VALUE_DOCS["record_id"])
@example(DEEP_VALUE_DOCS["evidence id"])
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


def test_set_values_lint_and_emit_alike_under_every_hash_seed():
    # A set iterates in an order that string hashing decides, so a message or a
    # string that showed one as it iterates would change with PYTHONHASHSEED.
    script = (
        "import sys\n"
        "from knows_sidecar.linter import lint\n"
        "from knows_sidecar.serialization import emit_record, load_record\n"
        "record, _ = load_record(sys.stdin.buffer.read())\n"
        "print(lint(record).findings, flush=True)\n"
        "sys.stdout.buffer.write(emit_record(record))\n"
    )
    src = str(Path(serialization.__file__).parents[1])
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script],
            input=SET_VALUES_DOC,
            capture_output=True,
            check=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
        ).stdout
        for seed in (1, 2)
    }
    assert len(outputs) == 1
    output = outputs.pop()
    assert b"value {'alpha', 'beta', 'delta', 'gamma'} not in enumeration" in output
    assert b"record: '{''alpha'', ''beta'', ''delta'', ''gamma''}'" in output


def _parsed_tree(doc):
    """The tree of ``doc``, parsed again as ``load_record`` parses it."""
    return serialization._documents(doc.decode("utf-8-sig"))[0]


@settings(deadline=None)
@given(mutated_documents())
@example((FIXTURES / "bloom.knows.yaml").read_bytes())
@example((FIXTURES / "minimal.knows.yaml").read_bytes())
@example((FIXTURES / "moore.knows.yaml").read_bytes())
@example((FIXTURES / "techreport.knows.yaml").read_bytes())
def test_a_loaded_record_keeps_its_findings_and_not_its_tree(doc):
    try:
        record, _ = load_record(doc)
    except KnowsError:
        return
    assert record._k001 == tuple(validate_tree(_parsed_tree(doc)))
    lint(record)
    assert set(vars(record)) - {f.name for f in fields(record)} <= {"_k001", "_walk"}


# Each ``pattern`` of the record schema as ECMA-262 reads it, written out for
# Python's ``re``: ``$`` only at the end, ``.`` no line terminator, ``\d`` ASCII.
ECMA_PATTERNS = {
    r"^\d+\.\d+\.\d+$": r"^[0-9]+\.[0-9]+\.[0-9]+\Z",
    r"^.+@[1-9]\d*$": "^[^\n\r\u2028\u2029]+@[1-9][0-9]*\\Z",
    r"^[^#]+$": r"^[^#]+\Z",
}


def _ecma_pins(node, value, path=""):
    """The findings K001 makes where the library's reading of ``pattern`` differs.

    The library searches with Python's ``re``, where ``$`` also matches before
    a final newline, ``.`` matches ``\\r``, U+2028 and U+2029, and ``\\d``
    any decimal digit; K001 reads ``pattern`` as ECMA-262 does.
    """
    if isinstance(value, str) and "pattern" in node:
        pattern = node["pattern"]
        if re.search(pattern, value) and not re.search(ECMA_PATTERNS[pattern], value):
            yield path, f"string does not match {pattern}"
    elif isinstance(value, dict):
        for key, sub in node.get("properties", {}).items():
            if key in value:
                yield from _ecma_pins(sub, value[key], f"{path}/{key}" if path else key)


@settings(deadline=None)
@given(mutated_documents())
@example((FIXTURES / "moore.knows.yaml").read_bytes() + b"year: 2026.0\n")
@example((FIXTURES / "minimal.knows.yaml").read_bytes().replace(b"profile: paper@1", b'profile: "paper@1\\n"'))
@example((FIXTURES / "minimal.knows.yaml").read_bytes().replace(b"profile: paper@1", b'profile: "a\\rb@1"'))
def test_k001_agrees_with_jsonschema(doc):
    try:
        load_record(doc)
    except KnowsError:
        return
    tree = _parsed_tree(doc)
    findings = validate_tree(tree)
    # The pinned divergences: JSON Schema counts an integral float such as
    # ``year: 2026.0`` as an integer, and K001 reports "expected integer";
    # the library matches ``profile: "paper@1\n"`` and ``"a\rb@1"``, and K001 does not.
    year = tree.get("year")
    pinned = isinstance(year, float) and year.is_integer()
    ecma = list(_ecma_pins(schema.RECORD_SCHEMA, tree))
    assert (not findings) == (RECORD_ORACLE.is_valid(tree) and not pinned and not ecma)
    if pinned:
        assert ("year", "expected integer") in findings
    for pin in ecma:
        assert pin in findings


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
# Two runs that each hold a value twice: each run's walk numbers its anchors from id001.
@example(_moore_with(title=[SHARED_LIST, SHARED_LIST], extensions={"x_a": [WHEN], "x_b": [WHEN]}))
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
    findings = [
        LintFinding(LintCode.SCHEMA, "error", path, message)
        for path, message in validate_tree(record_to_tree(record))
    ]
    findings += check_crossrefs(record)
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


# ---------------------------------------------------------------------------
# The K001 walk over an in-memory value's fields against emitting its tree.

def _tree_validator(slot):
    """A validator of the node a root field's values fill."""
    node = schema.RECORD_SCHEMA["properties"][slot.key]
    return schema.validator(node["items"] if slot.many else node)


# The classes whose values keep their findings, each with its tree validator.
_KEPT_CLASSES = {
    slot.kind: _tree_validator(slot)
    for slot in model.slots(KnowsRecord)
    if is_dataclass(slot.kind) and slot.kind not in model.STRING_PARSERS
}


def _outcome(compute):
    """What ``compute()`` gives: its findings as a tuple, or the type and args of what it raises."""
    try:
        return tuple(compute())
    except Exception as exc:  # every exception is compared, whatever it is
        return type(exc), exc.args


def _oracle_k001(value):
    """Emit the value's tree, then check it."""
    if type(value) is KnowsRecord:
        return _outcome(lambda: validate_tree(record_to_tree(value)))
    return _outcome(lambda: _KEPT_CLASSES[type(value)](serialization._emitter(type(value))(value)))


def _places(value, path=()):
    """Every (path, field value, slot) of the model dataclasses under ``value``, items included."""
    if type(value) in (tuple, list):
        for i, item in enumerate(value):
            yield from _places(item, (*path, i))
    elif is_dataclass(value) and not isinstance(value, tuple(model.STRING_PARSERS)):
        for slot in model.slots(type(value)):
            field = getattr(value, slot.name)
            yield (*path, slot.name), field, slot
            yield from _places(field, (*path, slot.name))


def _set(value, path, new):
    """``value`` with what ``path`` names (field names and item indices) set to ``new``."""
    if not path:
        return new
    head, *rest = path
    if isinstance(head, int):
        items = list(value)
        items[head] = _set(items[head], rest, new)
        return type(value)(items)
    return replace(value, **{head: _set(getattr(value, head), rest, new)})


def _junk_for(field, slot):
    """Values the package never builds for a field: a list for a tuple, a dict item, None."""
    out = [None]
    if is_dataclass(slot.kind) and slot.kind not in model.STRING_PARSERS:
        if slot.many and type(field) is tuple:
            out += [list(field), (*field, {"id": "x"})]
        elif type(field) is slot.kind:
            out.append({"id": "x"})
    return out


# Where junk goes: a field of a model class (True), or any other field that is set (False).
junk_edits = st.lists(st.tuples(st.booleans(), st.integers(0), st.integers(0)), max_size=2)


@settings(deadline=None, max_examples=max(300, settings.default.max_examples))
@given(mutated_documents(), st.lists(edits, max_size=3), junk_edits)
# Moore's observation loses its value, so neither alternative holds.
@example((FIXTURES / "moore.knows.yaml").read_bytes(), [("evidence", "fresh")], [(False, 48, 0)])
def test_walked_findings_equal_the_emitted_trees(doc, changes, junk):
    try:
        record, _ = load_record(doc)
    except KnowsError:
        return
    record = replace(record)
    for name, op in changes:
        record = _edited(record, name, op)
    for nested, where, which in junk:
        places = [
            (path, field, slot)
            for path, field, slot in _places(record)
            if (len(_junk_for(field, slot)) > 1 if nested else field is not None)
        ]
        if places:
            path, field, slot = places[where % len(places)]
            choices = _junk_for(field, slot)
            record = _set(record, path, choices[which % len(choices)])
    assert _outcome(lambda: record._k001) == _oracle_k001(record)
    for slot in model.slots(KnowsRecord):
        if slot.kind in _KEPT_CLASSES:
            value = getattr(record, slot.name)
            for item in value if slot.many and isinstance(value, (tuple, list)) else [value]:
                if type(item) is slot.kind:
                    assert _outcome(lambda: item._k001) == _oracle_k001(item)


def test_a_record_raises_on_the_first_field_in_emission_order():
    # The first statement raises on its confidence, the later actions field on
    # its item: emitting the record's tree raises on the statement first.
    record, _ = load_record((FIXTURES / "moore.knows.yaml").read_bytes())
    first = replace(record.statements[0], confidence={"claim_strength": "high"})
    record = replace(record, statements=(first, *record.statements[1:]), actions=({"id": "x"},))
    expected = _oracle_k001(record)
    assert expected == (AttributeError, ("'dict' object has no attribute 'claim_strength'",))
    assert _outcome(lambda: record._k001) == expected


def test_tuple_fields_the_walk_cannot_adopt_are_emitted():
    # A list for the tuple is emitted and its tree checked.
    record = make_record(1)
    *kept, last = record.statements
    copied = replace(record, statements=[*kept, replace(last, text="")])
    expected = validate_tree(record_to_tree(copied))
    assert (f"statements/{len(kept)}/text", "string must be non-empty") in expected
    assert copied._k001 == tuple(expected)
    assert lint(replace(copied)).findings == _reference_findings(copied)
