"""K001's step tables and the flat entity walk against plain copies of their earlier selves.

``schema`` compiles each object node into a step table that one loop per
object reads, checking each leaf inline, and ``KnowsRecord._walk`` walks the
entity lists in one flat loop.  The references below are the earlier
versions: a compiler that gives every schema node a closure, and a walk that
recurses through a closure per entity owner.  The reference compiler keeps no
findings (it installs no ``_k001``) and walks the values a root field holds
itself, so it never reads the state the package keeps.  On mutated fixture
trees, on records edited in memory with junk put in their fields, on JSON
values drawn for ``matched.ANSWER_SCHEMA`` and on every corrupted copy of
the benchmark's audit corpus at seed 1, the two give the same findings in
the same order, or raise the same exception with the same message, and the
walks give the same four outputs, holding the same objects.

The default profile runs a modest number of examples.  For a long run:

    HYPOTHESIS_PROFILE=fuzz pytest tests/test_schema_walk.py
"""

import importlib.util
import math
import sys
from dataclasses import is_dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

import yaml
from hypothesis import assume, example, given, settings, strategies as st

from helpers import FIXTURES, make_record
from knows_sidecar import model, schema, serialization
from knows_sidecar.corruption import InjectionKind, inject
from knows_sidecar.errors import KnowsError, NotApplicableError
from knows_sidecar.matched import ANSWER_SCHEMA
from knows_sidecar.model import ENTITY_LISTS, KnowsRecord, is_timestamp, shown
from knows_sidecar.schema import RECORD_SCHEMA, _ecma_search, validate_tree
from knows_sidecar.serialization import load_record
from test_robustness import (
    _edited,
    _junk_for,
    _parsed_tree,
    _places,
    _set,
    edits,
    junk_edits,
    mutated_documents,
)

CORPUS_PATH = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"


# ---------------------------------------------------------------------------
# The reference compiler: one closure per schema node, no kept findings.

_Check = Callable[[Any, Any, list], None]

_CLASSES = dict(string=str, integer=int, number=(int, float), boolean=bool, array=list, object=dict)

_TESTS = {
    "minLength": lambda n: (lambda v: len(v) >= n, "string must be non-empty"),
    "pattern": lambda p: (_ecma_search(p), f"string does not match {p}"),
    "format": lambda _: (is_timestamp, "not a valid RFC 3339 timestamp"),  # date-time
    "minimum": lambda m: (lambda v: v >= m, f"number must be >= {m}"),
    "maximum": lambda m: (lambda v: v <= m, f"number must be <= {m}"),
    "minItems": lambda n: (lambda v: len(v) >= n, "at least one item required"),
    "minProperties": lambda n: (lambda v: len(v) >= n, "at least one field required"),
}


def _compile(schema: Mapping[str, Any], cls: Any = None) -> tuple[_Check, Optional[_Check]]:
    expected = schema.get("type")
    classes = _CLASSES.get(expected, object)
    numeric = expected in ("integer", "number")  # a bool is never a number
    members = frozenset(schema["enum"]) if "enum" in schema else None
    tests = [make(schema[key]) for key, make in _TESTS.items() if key in schema]
    walk = walk_value = None
    if expected == "object":
        walk, walk_value = _object_walks(schema, cls, tests)
    if "items" in schema:
        check_item, walk_item = _compile(schema["items"], cls)
        walk = _items_walk(check_item)
        if walk_item is not None:
            walk_value = _tuple_walk(walk_item, tests)

    def check(value: Any, path: Any, problems: list) -> None:
        if not isinstance(value, classes) or (numeric and isinstance(value, bool)):
            problems.append((path, f"expected {expected}"))
            return
        if members is not None:
            try:
                known = value in members
            except TypeError:  # a list or a mapping is never a member
                known = False
            if not known:
                problems.append((path, f"value {shown(value)} not in enumeration"))
                return
        for test, message in tests:
            if not test(value):
                problems.append((path, message))
        if walk is not None:
            walk(value, path, problems)

    return check, walk_value


def _adopter(cls: type, many: bool, walk_value: _Check) -> Callable[[Any], Optional[_Check]]:
    if not many:
        return lambda value: walk_value if type(value) is cls else None

    def adopt(value: Any) -> Optional[_Check]:
        if type(value) is not tuple:
            return None
        for item in value:
            if type(item) is not cls:
                return None
        return walk_value

    return adopt


def _object_walks(schema: Mapping[str, Any], cls: Any, tests: list) -> tuple[_Check, Optional[_Check]]:
    required = dict.fromkeys(schema.get("required", ()))
    slots = model.slots(cls) if is_dataclass(cls) else ()
    kinds = {slot.key: slot.kind for slot in slots}
    nodes = {key: _compile(sub, kinds.get(key)) for key, sub in schema.get("properties", {}).items()}
    properties = {key: check for key, (check, _) in nodes.items()}
    closed = schema.get("additionalProperties") is False
    one_of = [
        (frozenset(b["required"]), frozenset(b.get("not", {}).get("required", ())))
        for b in schema.get("oneOf", ())
    ]

    def shape(value: Mapping[str, Any], path: Any, problems: list) -> None:
        if not value.keys() >= required.keys():
            for key in required:
                if key not in value:
                    problems.append(((key, path), "required field missing"))

    def alternatives(value: Mapping[str, Any], path: Any, problems: list) -> None:
        hits = 0
        for needed, excluded in one_of:
            hits += value.keys() >= needed and value.keys().isdisjoint(excluded)
        if hits != 1:
            problems.append((path, "exactly one alternative must hold"))

    def walk(value: dict, path: Any, problems: list) -> None:
        shape(value, path, problems)
        if closed and not value.keys() <= properties.keys():
            for key in value:
                if key not in properties:
                    problems.append(((key, path), "unknown field"))
        for key, check in properties.items():
            if key in value:
                check(value[key], (key, path), problems)
        if one_of:
            alternatives(value, path, problems)

    if not slots:
        return walk, None
    emit_steps = serialization._emit_steps(cls)
    steps = []
    for (attr, key, convert), slot in zip(emit_steps, slots):
        check, walk_value = nodes[key]
        adopt = None if walk_value is None else _adopter(slot.kind, slot.many, walk_value)
        steps.append((attr, key, adopt, convert, check, slot.many and not slot.required))
    keys = [key for _, key, *_ in steps]

    def walk_fields(value: Any, path: Any, problems: list) -> None:
        start = len(problems)
        absent = []
        for attr, key, adopt, convert, check, drop_empty in steps:
            field = getattr(value, attr)
            if field is not None:
                adopted = adopt and adopt(field)
                if adopted is not None:
                    check = adopted
                    if drop_empty and not field:
                        field = None
                elif convert is not None:
                    field = convert(field)
            if field is None:
                absent.append(key)
            else:
                check(field, (key, path), problems)
        if tests or one_of or not required.keys().isdisjoint(absent):
            present = dict.fromkeys(keys)
            for key in absent:
                del present[key]
            head: list = []
            for test, message in tests:
                if not test(present):
                    head.append((path, message))
            shape(present, path, head)
            problems[start:start] = head
            if one_of:
                alternatives(present, path, problems)

    return walk, walk_fields


def _tuple_walk(walk_item: _Check, tests: list) -> _Check:
    def walk(items: tuple, path: Any, problems: list) -> None:
        for test, message in tests:
            if not test(items):
                problems.append((path, message))
        for i, item in enumerate(items):
            walk_item(item, (str(i), path), problems)

    return walk


def _items_walk(check_item: _Check) -> _Check:
    def walk(value: list, path: Any, problems: list) -> None:
        for i, item in enumerate(value):
            check_item(item, (str(i), path), problems)

    return walk


def _render(path: Any) -> Any:
    if path is None:
        return ""
    key, parent = path
    rendered = _render(parent)
    return f"{rendered}/{key}" if rendered else key


def _findings(check: _Check, value: Any) -> list[tuple[str, str]]:
    problems: list = []
    check(value, None, problems)
    return [(_render(path), message) for path, message in problems]


def reference_validator(schema: Mapping[str, Any]) -> Callable[[Any], list[tuple[str, str]]]:
    check, _ = _compile(schema)
    return lambda value: _findings(check, value)


_check_record, _walk_record = _compile(RECORD_SCHEMA, KnowsRecord)


def _root_value_walk(slot: model.Slot) -> _Check:
    """The reference walk of a value that root field holds (an item, for a tuple)."""
    node = RECORD_SCHEMA["properties"][slot.key]
    return _compile(node["items"] if slot.many else node, slot.kind)[1]


# The classes whose values keep their findings, each with its reference walk.
KEPT = {
    slot.kind: _root_value_walk(slot)
    for slot in model.slots(KnowsRecord)
    if is_dataclass(slot.kind) and "_k001" in vars(slot.kind)
}


def reference_k001(value: Any) -> tuple[tuple[str, str], ...]:
    """What a value of ``KnowsRecord`` or a kept class keeps as ``_k001``."""
    walk = _walk_record if type(value) is KnowsRecord else KEPT[type(value)]
    return tuple(_findings(walk, value))


# ---------------------------------------------------------------------------
# The reference entity walk: a closure that recurses per entity owner.


def reference_walk(record: KnowsRecord) -> tuple:
    pairs: list[tuple[Any, str]] = []
    index: dict[str, Any] = {}
    ids: list[str] = []
    repeats: list[tuple[str, str, str]] = []
    first: dict[str, str] = {}

    def visit(owner: Any, base: str) -> None:
        for name in ENTITY_LISTS[type(owner)]:
            for i, entity in enumerate(getattr(owner, name)):
                path = f"{base}{name}/{i}"
                rendered = shown(entity.id, str)
                if rendered in index:
                    repeats.append((path, rendered, first[rendered]))
                else:
                    index[rendered] = entity
                    first[rendered] = path
                pairs.append((entity, path))
                ids.append(rendered)
                if ENTITY_LISTS[type(entity)]:
                    visit(entity, path + "/")

    visit(record, "")
    return tuple(pairs), index, tuple(ids), tuple(repeats)


# ---------------------------------------------------------------------------
# Comparisons


def _outcome(compute: Callable[[], Any]) -> Any:
    try:
        return "ok", compute()
    except Exception as exc:  # the two sides must raise alike
        return type(exc), str(exc)


def _walk_shape(walk: tuple) -> tuple:
    """The four walk outputs, each entity as the object it is."""
    pairs, index, ids, repeats = walk
    return [(id(e), path) for e, path in pairs], [(k, id(e)) for k, e in index.items()], ids, repeats


def assert_walks_agree(record: KnowsRecord) -> None:
    got, want = _outcome(lambda: record._walk), _outcome(lambda: reference_walk(record))
    if got[0] == want[0] == "ok":
        got, want = _walk_shape(got[1]), _walk_shape(want[1])
    assert got == want


def assert_k001_agrees(record: KnowsRecord) -> None:
    """An in-memory record's kept findings, and each kept value's, are the reference's."""
    assert _outcome(lambda: record._k001) == _outcome(lambda: reference_k001(record))
    for slot in model.slots(KnowsRecord):
        if slot.kind in KEPT:
            value = getattr(record, slot.name)
            for item in value if slot.many and isinstance(value, (tuple, list)) else [value]:
                if type(item) is slot.kind:
                    assert _outcome(lambda: item._k001) == _outcome(lambda: reference_k001(item))


def assert_tree_agrees(tree: Any) -> None:
    assert _outcome(lambda: validate_tree(tree)) == _outcome(lambda: _findings(_check_record, tree))


# ---------------------------------------------------------------------------
# Mutated fixture trees: the tree check, and the loaded record's walks.


MOORE = yaml.safe_load((FIXTURES / "moore.knows.yaml").read_bytes())


def _moore_doc(**fields: Any) -> bytes:
    tree = dict(MOORE, **fields)
    return yaml.dump(tree, Dumper=yaml.SafeDumper, sort_keys=False, allow_unicode=True).encode("utf-8")


def _observations(*items: dict) -> bytes:
    evidence = [dict(MOORE["evidence"][0], observations=list(items)), *MOORE["evidence"][1:]]
    return _moore_doc(evidence=evidence)


@settings(deadline=None)
@given(mutated_documents())
@example(_moore_doc(year=2026.0))  # stays "expected integer"
@example(_moore_doc(year=True))
@example(_moore_doc(profile="paper@1\n"))
@example(_moore_doc(authors=[]))
@example(_moore_doc(record_status=["active"]))
@example(_observations({"metric": "m", "value": 1, "qualitative_value": "q"}))
@example(_observations({"metric": "m"}))
def test_trees_and_loaded_records_agree_with_the_reference(doc):
    assert_tree_agrees(_parsed_tree(doc))
    try:
        record, _ = load_record(doc)
    except KnowsError:
        return
    assert_walks_agree(record)
    assert_k001_agrees(replace(record))


# ---------------------------------------------------------------------------
# Records edited in memory, with junk put in their fields


@st.composite
def edited_records(draw):
    try:
        record, _ = load_record(draw(mutated_documents()))
    except KnowsError:
        assume(False)
    record = replace(record)
    for name, op in draw(st.lists(edits, max_size=3)):
        record = _edited(record, name, op)
    for nested, where, which in draw(junk_edits):
        places = [
            (path, field, slot)
            for path, field, slot in _places(record)
            if (len(_junk_for(field, slot)) > 1 if nested else field is not None)
        ]
        if places:
            path, field, slot = places[where % len(places)]
            choices = _junk_for(field, slot)
            record = _set(record, path, choices[which % len(choices)])
    return record


BASE = make_record(1)


def _first_statement(**changes: Any) -> KnowsRecord:
    return replace(BASE, statements=(replace(BASE.statements[0], **changes), *BASE.statements[1:]))


def _first_observation(**changes: Any) -> KnowsRecord:
    record = load_record((FIXTURES / "moore.knows.yaml").read_bytes())[0]
    evidence = record.evidence[0]
    observation = replace(evidence.observations[0], **changes)
    return replace(record, evidence=(replace(evidence, observations=(observation,)), *record.evidence[1:]))


@settings(deadline=None)
@given(edited_records())
@example(replace(BASE, year=True))
@example(replace(BASE, year=2026.0))
@example(replace(BASE, profile="paper@1\n"))
@example(_first_statement(status=["asserted"]))
@example(_first_statement(source_anchors=()))  # an optional empty tuple drops its key
@example(replace(BASE, keywords=(), actions=()))
@example(replace(BASE, authors=()))  # minItems
@example(_first_observation(qualitative_value="q"))  # both alternatives
@example(_first_observation(value=None))  # neither
@example(replace(BASE, statements=(*BASE.statements, {"id": "stmt:x"})))  # raises on the mapping's ``id``
def test_in_memory_records_agree_with_the_reference(record):
    assert_k001_agrees(record)
    assert_walks_agree(record)
    # Warm: a copy sharing the values whose findings are now kept.
    copied = replace(record)
    assert_k001_agrees(copied)
    assert_walks_agree(copied)


# ---------------------------------------------------------------------------
# Answer objects

ANSWER_KEYS = ["item_id", "status", "confidence", "answer", "evidence", "reason", "zzz"]
EVIDENCE_KEYS = ["source", "page", "quote", "support", "zzz"]
VALID_EVIDENCE = {"source": "paper", "page": 2, "quote": "q", "support": "direct"}
VALID_ANSWER = {
    "item_id": "q1", "status": "answer", "confidence": 0.5, "answer": "a",
    "evidence": [VALID_EVIDENCE], "reason": "r",
}
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(),
    st.sampled_from(["", "x", "answer", "abstain", "paper", "direct", "indirect"]),
    st.text(max_size=3),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(ANSWER_KEYS + EVIDENCE_KEYS), inner, max_size=4),
    ),
    max_leaves=8,
)


@st.composite
def answer_values(draw):
    """Any JSON value, or a valid answer object with a few keys set or removed."""
    if draw(st.booleans()):
        return draw(json_values)
    evidence = [dict(VALID_EVIDENCE) for _ in range(draw(st.integers(0, 2)))]
    answer = dict(VALID_ANSWER, evidence=evidence)
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from([answer, *evidence]))
        key = draw(st.sampled_from(sorted(target) + ["zzz"]))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(json_values)
    return answer


_validate_answer = schema.validator(ANSWER_SCHEMA)
_reference_answer = reference_validator(ANSWER_SCHEMA)


@settings(deadline=None)
@given(answer_values())
@example(dict(VALID_ANSWER, confidence=math.nan))
@example(dict(VALID_ANSWER, evidence=[dict(VALID_EVIDENCE, page=True)]))
@example(dict(VALID_ANSWER, status=["answer"]))
@example(dict(VALID_ANSWER, evidence=[dict(VALID_EVIDENCE, page=2.0)]))
def test_answer_objects_agree_with_the_reference(value):
    assert _outcome(lambda: _validate_answer(value)) == _outcome(lambda: _reference_answer(value))


# ---------------------------------------------------------------------------
# The benchmark's corrupted audit corpus


def _bench_corpus():
    """``bench/corpus.py``, loaded by path; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("bench_corpus", CORPUS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_the_corrupted_audit_corpus_agrees_with_the_reference():
    corpus = _bench_corpus()
    records = []
    for tree in corpus.audit_corpus(1).trees:
        assert_tree_agrees(tree)
        records.append(load_record(corpus.dump_yaml(tree))[0])
    injected = 0
    for kind in InjectionKind:
        for index, record in enumerate(records):
            try:
                corrupted = inject(record, kind, seed=1 * 100003 + index).record
            except NotApplicableError:
                continue
            injected += 1
            assert_k001_agrees(corrupted)
            assert_walks_agree(corrupted)
    assert injected == 422
