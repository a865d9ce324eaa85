"""K002's kept facts and ``model.replaced``, the copy the package makes.

Each entity class with references to check keeps what K002 decides of an
entity alone, ``_k002``: each local reference's rendered target and class,
each source anchor's rendered ``representation_ref``, or the message of a
finding no index can mend.  ``check_crossrefs`` joins those with the record
it lints.  So lint must report, for any record, what a K002 that keeps
nothing reports (``test_entity_checks.reference_lint``), whichever records
shared its entities and were linted first: the record-contract mutations,
corrupted by each injection kind, and copies that drop or reorder entities
so that a shared entity meets another index.  Copies made with ``replaced``
and ``dataclasses.replace`` start with no kept state, and ``copy.deepcopy``
copies it, ``_k002`` as ``_k001``.  ``replaced`` makes what
``dataclasses.replace`` makes, for every model class that keeps state.

The default profile runs a modest number of examples.  For a long run:

    HYPOTHESIS_PROFILE=fuzz pytest tests/test_kept_facts.py
"""

import copy
from dataclasses import fields, is_dataclass, replace

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from helpers import make_record
from knows_sidecar import model
from knows_sidecar.corruption import InjectionKind, inject
from knows_sidecar.errors import KnowsError
from knows_sidecar.linter import _REFERRING as REFERRING, lint
from knows_sidecar.model import ENTITY_LISTS, KnowsRecord, replaced
from knows_sidecar.serialization import load_record
from test_entity_checks import reference_lint
from test_record_contract import _full_tree, mutate

# The model dataclasses that keep state (an instance ``__dict__``).
KEEPING = [
    cls
    for cls in vars(model).values()
    if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == model.__name__
    and "__slots__" not in vars(cls)
]


def _loaded(seed):
    """The record of record-contract mutation ``seed``, or None where loading refuses it."""
    try:
        return load_record(mutate(seed))[0]
    except KnowsError:
        return None


def _kept(value):
    """The names of what ``value`` keeps beside its fields."""
    return set(vars(value)) - {f.name for f in fields(value)}


def _assert_lints_as_the_reference(record):
    assert lint(record).findings == reference_lint(record)


def test_the_entities_that_name_others_keep_facts_after_lint():
    assert {cls.__name__ for cls in REFERRING} == {"Statement", "Evidence", "Relation", "Action"}
    assert set(REFERRING) <= set(KEEPING)
    record = make_record(0)
    lint(record)
    for entity, _ in record.entities():
        kept = "_k002" in getattr(entity, "__dict__", {})
        assert kept == (type(entity) in REFERRING)


# Each injection: its kind, its seed, and whether it corrupts the previous copy
# (else the loaded record).
injections = st.lists(
    st.tuples(st.sampled_from(list(InjectionKind)), st.integers(0, 2**32 - 1), st.booleans()),
    max_size=4,
)


@settings(deadline=None)
@given(st.integers(0, 10**6), injections, st.booleans())
@example(3, [(InjectionKind.OMIT_LIMITATION, 0, False)], False)
def test_lint_of_corrupted_copies_equals_the_reference(seed, chain, source_first):
    record = _loaded(seed)
    if record is None:
        return
    copies = []
    for kind, injection_seed, again in chain:
        base = copies[-1] if again and copies else record
        try:
            copies.append(inject(base, kind, injection_seed).record)
        except KnowsError:
            continue
    for each in [record, *copies] if source_first else [*copies[::-1], record]:
        _assert_lints_as_the_reference(each)


def _with_other_index(record, name, where, op):
    """A copy sharing every entity of ``record`` but one list, dropped from or reordered."""
    items = getattr(record, name)
    i = where % len(items)
    if op == "drop":
        return replaced(record, **{name: items[:i] + items[i + 1 :]})
    return replaced(record, **{name: items[::-1]})


@settings(deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(ENTITY_LISTS[KnowsRecord]),
    st.integers(0, 50),
    st.sampled_from(["drop", "reverse"]),
    st.booleans(),
)
def test_a_shared_entity_gets_each_records_own_findings(seed, name, where, op, source_first):
    record = _loaded(seed)
    if record is None or not getattr(record, name):
        return
    other = _with_other_index(record, name, where, op)
    for each in (record, other) if source_first else (other, record):
        _assert_lints_as_the_reference(each)


@pytest.mark.parametrize("source_first", [True, False])
def test_a_dropped_target_dangles_only_in_the_copy_without_it(source_first):
    record = make_record(1)
    limited = next(s for s in record.statements if s.statement_type == "limitation")
    other = replaced(record, statements=tuple(s for s in record.statements if s is not limited))
    for each in (record, other) if source_first else (other, record):
        _assert_lints_as_the_reference(each)
    message = f"dangling reference {limited.id}"
    assert not [f for f in lint(record).findings if f.message == message]
    assert [f for f in lint(other).findings if f.message == message]


def test_a_target_of_another_class_resolves_so_only_in_its_record():
    record = make_record(0)
    statement = record.statements[0]
    swapped = replaced(record.evidence[0], id=statement.id)
    other = replaced(record, statements=record.statements[1:], evidence=(swapped, *record.evidence[1:]))
    for each in (other, record):
        _assert_lints_as_the_reference(each)
    assert f"reference {statement.id} resolves to a evidence" in {f.message for f in lint(other).findings}


@settings(deadline=None)
@given(st.integers(0, 10**6))
def test_copies_carry_kept_facts_as_they_carry_k001(seed):
    record = _loaded(seed)
    if record is None:
        return
    lint(record)
    values = [record]
    for entity, _ in record.entities():
        if type(entity) not in REFERRING:
            continue
        try:
            entity._k001
        except Exception:  # emitting some loaded values raises; the walk raises alike
            continue
        assert _kept(entity) == {"_k001", "_k002"}
        values.append(entity)
    for value in values:
        for made in (replaced(value), replace(value)):
            assert made == value and not _kept(made)
        deep = copy.deepcopy(value)
        assert _kept(deep) == _kept(value)
        for name in _kept(value):
            assert vars(deep)[name] == vars(value)[name]
    # A copy of a shared entity lints as the reference, cold and warm alike.
    for made in (replaced(record), copy.deepcopy(record)):
        _assert_lints_as_the_reference(made)


# ---------------------------------------------------------------------------
# ``replaced`` against ``dataclasses.replace``


def _instances(value, out):
    """Each value of a class that keeps state under ``value``, by class."""
    if type(value) in (tuple, list):
        for item in value:
            _instances(item, out)
    elif type(value) in KEEPING:
        out.setdefault(type(value), []).append(value)
        for f in fields(value):
            _instances(getattr(value, f.name), out)


FULL = load_record(yaml.safe_dump(_full_tree()))[0]
INSTANCES: dict = {}
_instances(FULL, INSTANCES)
lint(FULL)  # every value of the full record then keeps what lint keeps


def test_every_class_that_keeps_state_has_an_instance():
    assert set(INSTANCES) == set(KEEPING)


@st.composite
def changes(draw):
    cls = draw(st.sampled_from(KEEPING))
    value = draw(st.sampled_from(INSTANCES[cls]))
    names = draw(st.lists(st.sampled_from([f.name for f in fields(cls)]), unique=True, max_size=4))
    others = [getattr(each, name) for each in INSTANCES[cls] for name in names]
    junk = st.one_of(st.none(), st.integers(), st.text(max_size=3), st.sampled_from(others or [None]))
    return value, {name: draw(junk) for name in names}


@settings(deadline=None)
@given(changes())
def test_replaced_makes_what_dataclasses_replace_makes(drawn):
    value, edits = drawn
    made, expected = replaced(value, **edits), replace(value, **edits)
    assert type(made) is type(expected) and made == expected
    assert vars(made) == vars(expected)
    assert list(vars(made)) == [f.name for f in fields(value)]


@pytest.mark.parametrize("cls", KEEPING, ids=lambda cls: cls.__name__)
def test_replaced_refuses_a_name_that_is_not_a_field(cls):
    value = INSTANCES[cls][0]
    first = fields(value)[0].name
    for edits in ({"nope": 1}, {first: getattr(value, first), "_k001": ()}):
        with pytest.raises(TypeError):
            replace(value, **edits)
        with pytest.raises(TypeError, match="has no field named"):
            replaced(value, **edits)


def test_replaced_refuses_a_slotted_value():
    with pytest.raises(TypeError):
        replaced(FULL.statements[0].confidence, claim_strength="low")
