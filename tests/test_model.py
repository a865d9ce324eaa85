import copy
import importlib
import pickle
import pkgutil
from dataclasses import fields, is_dataclass, replace
from functools import cached_property

import pytest
from hypothesis import given, strategies as st

import knows_sidecar
from helpers import FIXTURES, make_record
from knows_sidecar import model, schema
from knows_sidecar.errors import MalformedError, UnknownPrefixError
from knows_sidecar.graph import RelationGraph
from knows_sidecar.linter import lint
from knows_sidecar.model import (
    EntityId,
    KnowsRecord,
    Profile,
    Ref,
    SpecVersion,
    as_ref,
    parse_entity_id,
    parse_profile,
    parse_ref,
    parse_spec_version,
    parse_timestamp,
    reader_accepts,
)
from knows_sidecar.schema import validate_tree
from knows_sidecar.serialization import load_record


class TestEntityId:
    def test_parse_round_trip(self):
        eid = parse_entity_id("stmt:main-claim")
        assert eid == EntityId("stmt", "main-claim")
        assert str(eid) == "stmt:main-claim"
        assert eid.entity_class == "statement"

    @pytest.mark.parametrize("prefix", ["art", "stmt", "ev", "rel", "act", "rep"])
    def test_all_prefixes(self, prefix):
        assert parse_entity_id(f"{prefix}:x").prefix == prefix

    def test_unknown_prefix(self):
        with pytest.raises(UnknownPrefixError):
            parse_entity_id("doc:x")

    @pytest.mark.parametrize("bad", ["plain", "stmt:", "stmt:a b", "stmt:a#b", "", None, 7])
    def test_malformed(self, bad):
        with pytest.raises(MalformedError):
            parse_entity_id(bad)

    def test_unknown_prefix_is_malformed(self):
        # callers may catch the broad class only
        assert issubclass(UnknownPrefixError, MalformedError)

    def test_parsed_ids_share_the_prefix_object(self):
        key = next(prefix for prefix in model.PREFIX_CLASS if prefix == "stmt")
        first, second = parse_entity_id("stmt:a"), parse_entity_id("".join(["stmt", ":b"]))
        assert first.prefix is second.prefix is key

    local_part = st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.:",
        min_size=1,
        max_size=20,
    )

    @given(prefix=st.sampled_from(["art", "stmt", "ev", "rel", "act", "rep"]), local=local_part)
    def test_render_parse_inverse(self, prefix, local):
        rendered = str(EntityId(prefix, local))
        assert parse_entity_id(rendered) == EntityId(prefix, local)


class TestRef:
    def test_local(self):
        ref = parse_ref("ev:e1")
        assert not ref.is_remote
        assert str(ref) == "ev:e1"

    def test_remote(self):
        ref = parse_ref("10.1234/x#stmt:claim")
        assert ref.is_remote
        assert ref.record_id == "10.1234/x"
        assert ref.entity == EntityId("stmt", "claim")
        assert str(ref) == "10.1234/x#stmt:claim"

    @pytest.mark.parametrize("bad", ["a#b#c", "#stmt:x", "rid#", "rid#nope"])
    def test_malformed(self, bad):
        with pytest.raises(MalformedError):
            parse_ref(bad)


@pytest.mark.parametrize(
    "text, parse",
    [
        ("stmt:claim", parse_entity_id),
        ("ev:e1", parse_ref),
        ("10.1234/x#stmt:claim", parse_ref),
        ("0.9.0", parse_spec_version),
        ("paper@1", parse_profile),
    ],
)
def test_parsed_leaf_values_are_atomic_under_copy(text, parse):
    value = parse(text)
    assert copy.copy(value) is value and copy.deepcopy(value) is value
    # A deep copy of what holds them shares them, and still copies the holder.
    holder = [value]
    copied = copy.deepcopy(holder)
    assert copied is not holder and copied[0] is value


def test_a_deep_copied_record_shares_only_its_leaf_values():
    record, _ = load_record((FIXTURES / "moore.knows.yaml").read_bytes())
    copied = copy.deepcopy(record)
    assert copied == record and copied.statements[0] is not record.statements[0]
    assert copied.statements[0].id is record.statements[0].id
    assert copied.knows_version is record.knows_version and copied.profile is record.profile


class TestVersions:
    def test_parse(self):
        assert parse_spec_version("0.9.0") == SpecVersion(0, 9, 0)
        assert str(SpecVersion(1, 2, 3)) == "1.2.3"

    @pytest.mark.parametrize("bad", ["0.9", "v1.0.0", "1.0.0.0", "", "a.b.c", "0.9.0\n", "\u0660.\u0669.\u0660"])
    def test_malformed(self, bad):
        with pytest.raises(MalformedError):
            parse_spec_version(bad)

    def test_more_digits_than_int_converts(self):
        with pytest.raises(MalformedError):
            parse_spec_version("9" * 5000 + ".0.0")

    def test_reader_gate(self):
        reader = SpecVersion(0, 9, 0)
        assert not reader_accepts(SpecVersion(1, 0, 0), reader)
        assert reader_accepts(SpecVersion(0, 10, 0), reader)
        assert reader_accepts(SpecVersion(0, 9, 0), reader)

    @given(
        a=st.tuples(st.integers(0, 5), st.integers(0, 20), st.integers(0, 20)),
        b=st.tuples(st.integers(0, 5), st.integers(0, 20), st.integers(0, 20)),
    )
    def test_gate_is_major_only(self, a, b):
        record, reader = SpecVersion(*a), SpecVersion(*b)
        assert reader_accepts(record, reader) == (record.major <= reader.major)


class TestProfile:
    def test_parse(self):
        assert parse_profile("paper@1") == Profile("paper", 1)
        assert parse_profile("name@with@2") == Profile("name@with", 2)

    @pytest.mark.parametrize(
        "bad", ["paper", "paper@0", "paper@-1", "@1", "paper@x", "paper@\u00b2", "paper@\u0661", "paper@01", "paper@1\n"]
    )
    def test_malformed(self, bad):
        with pytest.raises(MalformedError):
            parse_profile(bad)

    def test_more_digits_than_int_converts(self):
        with pytest.raises(MalformedError):
            parse_profile("paper@" + "9" * 5000)


class TestTimestamp:
    def test_zulu(self):
        ts = parse_timestamp("2026-04-18T00:00:00Z")
        assert ts.year == 2026

    def test_offset(self):
        assert parse_timestamp("2026-04-18T05:00:00+02:00")

    @pytest.mark.parametrize("bad", ["yesterday", "2026-13-01T00:00:00Z", None])
    def test_malformed(self, bad):
        with pytest.raises(MalformedError):
            parse_timestamp(bad)


class TestEntityIndex:
    def test_built_once_and_read_only(self):
        record = make_record(4)
        first = record.entity_index()
        assert "_walk" in vars(record)
        assert record.entity_index() == first
        assert first["stmt:claim-0"] is record.statements[0]
        with pytest.raises(TypeError):
            first["stmt:claim-0"] = None

    def test_memo_is_not_part_of_the_record(self):
        record = make_record(4)
        fresh = make_record(4)
        record.entity_index()
        assert record == fresh and repr(record) == repr(fresh)
        assert copy.deepcopy(record).entity_index() == record.entity_index()

    def test_replace_gets_a_fresh_index(self):
        record = make_record(4)
        assert "stmt:claim-1" in record.entity_index()
        fewer = replace(record, statements=record.statements[:1])
        assert "stmt:claim-1" not in fewer.entity_index()
        assert "stmt:claim-1" in record.entity_index()


class TestKeptState:
    """A record's and a value's K001 findings follow the object."""

    @staticmethod
    def loaded_with_unknown_key():
        raw = (FIXTURES / "minimal.knows.yaml").read_bytes() + b"x_unknown: 1\n"
        record, _ = load_record(raw)
        return record

    @staticmethod
    def k001(record):
        return [(f.path, f.message) for f in lint(record).findings if f.code.value == "K001"]

    def test_deepcopy_keeps_the_loaded_findings(self):
        record = self.loaded_with_unknown_key()
        copied = copy.deepcopy(record)
        assert copied == record
        # A re-emitted tree cannot hold the unknown key, so only the kept findings show it.
        assert self.k001(copied) == [("x_unknown", "unknown field")]

    def test_replace_drops_the_loaded_findings(self):
        record = self.loaded_with_unknown_key()
        edited = replace(record, title="")
        assert self.k001(edited) == [("title", "string must be non-empty")]
        assert self.k001(record) == [("x_unknown", "unknown field")]

    @staticmethod
    def with_untitled_artifact():
        """A record built in memory whose last artifact has an empty title."""
        record = make_record(4)
        *kept, last = record.artifacts
        return replace(record, artifacts=(*kept, replace(last, title="")))

    def test_lint_keeps_findings_on_root_field_values(self):
        record = self.with_untitled_artifact()
        path = f"artifacts/{len(record.artifacts) - 1}/title"
        assert self.k001(record) == [(path, "string must be non-empty")]
        assert record.artifacts[-1]._k001 == (("title", "string must be non-empty"),)
        assert vars(record.coverage)["_k001"] == ()
        # Findings are relative to the value, so a moved value keeps them.
        moved = replace(record, artifacts=record.artifacts[::-1])
        assert self.k001(moved) == [("artifacts/0/title", "string must be non-empty")]

    def test_deepcopy_keeps_the_entity_findings(self):
        record = self.with_untitled_artifact()
        lint(record)
        copied = copy.deepcopy(record)
        assert copied == record and repr(copied) == repr(record)
        assert vars(copied.artifacts[-1])["_k001"] == (("title", "string must be non-empty"),)
        assert self.k001(copied) == self.k001(record)

    def test_replace_starts_without_the_entity_findings(self):
        record = self.with_untitled_artifact()
        lint(record)
        fixed = replace(record.artifacts[-1], title="Fixed")
        assert "_k001" not in vars(fixed)
        assert self.k001(replace(record, artifacts=(*record.artifacts[:-1], fixed))) == []

    def test_values_of_other_classes_take_the_emitted_path(self):
        record = make_record(4)
        # A value of another class is emitted, so it raises as `record_to_tree` does.
        with pytest.raises(AttributeError):
            lint(replace(record, artifacts=record.statements))
        # A tree is checked as a tree: a model value in it is not an object, and
        # its kept findings are not read, even at the node its class fills.
        assert ("artifacts/0", "expected object") in validate_tree({"artifacts": [record.coverage]})
        assert ("artifacts/0", "expected object") in validate_tree({"artifacts": [record.artifacts[0]]})

    def test_the_values_of_root_fields_keep_findings(self):
        # EntityId, SpecVersion, Profile and Ref values are written as strings.
        kept = {c for c in vars(model).values() if isinstance(c, type) and "_k001" in vars(c)}
        assert all(isinstance(vars(cls)["_k001"], cached_property) for cls in kept)
        assert kept == {
            model.KnowsRecord, model.Author, model.Coverage, model.Artifact, model.Statement,
            model.Evidence, model.Relation, model.Provenance, model.VersionTriple,
            model.Freshness, model.Action, model.ExternalMetadataRef,
        }
        record = self.with_untitled_artifact()
        lint(record)
        assert "_k001" not in vars(replace(record))
        assert vars(copy.deepcopy(record))["_k001"] == vars(record)["_k001"] != ()

    def test_lint_reports_the_findings_every_record_keeps(self):
        planted = (("title", "planted"),)
        for record in (self.loaded_with_unknown_key(), make_record(4)):
            vars(record)["_k001"] = planted
            assert self.k001(record) == [("title", "planted")]

    def test_an_in_memory_record_is_validated_once(self, monkeypatch):
        calls = []
        findings = schema._findings

        def counted(walk, value):
            calls.append(value)
            return findings(walk, value)

        monkeypatch.setattr(schema, "_findings", counted)
        record = self.with_untitled_artifact()
        first = self.k001(record)
        assert first != [] and sum(value is record for value in calls) == 1
        walked = len(calls)
        assert self.k001(record) == first and len(calls) == walked


class TestEntityLayout:
    def test_reference_fields_and_targets_come_from_the_table(self):
        assert {cls.__name__: refs for cls, refs in model.REF_FIELDS.items() if refs} == {
            "KnowsRecord": (("subject_ref", frozenset({"artifact"})),),
            "Statement": (("about_ref", frozenset({"artifact", "statement"})),),
            "Relation": (("subject_ref", None), ("object_ref", None)),
            "Action": (("target_ref", None),),
        }

    def test_entity_lists_come_from_the_table(self):
        assert {cls.__name__: names for cls, names in model.ENTITY_LISTS.items() if names} == {
            "KnowsRecord": ("artifacts", "statements", "evidence", "relations", "actions"),
            "Artifact": ("representations",),
        }
        assert set(model.ENTITY_LISTS) == {KnowsRecord, *model.ENTITY_CLASS}

    def test_entities_in_document_order(self):
        record = make_record(4)
        expected = []
        for i, art in enumerate(record.artifacts):
            expected.append((art, f"artifacts/{i}"))
            for j, rep in enumerate(art.representations):
                expected.append((rep, f"artifacts/{i}/representations/{j}"))
        for name in ("statements", "evidence", "relations", "actions"):
            expected += [(e, f"{name}/{i}") for i, e in enumerate(getattr(record, name))]
        assert any("representations" in path for _, path in expected)
        assert list(record.entities()) == expected

    def test_model_classes_cannot_be_subclassed(self):
        # Lint and K001 look a value's class up exactly, so no subclass reaches them.
        classes = [
            cls for cls in _package_dataclasses() if cls.__module__ == model.__name__ and cls is not model.Slot
        ]
        assert len(classes) == 25
        for cls in classes:
            with pytest.raises(TypeError, match=f"^model class {cls.__name__} cannot be subclassed$"):
                type(f"Sub{cls.__name__}", (cls,), {})

    def test_as_ref(self):
        local = EntityId("stmt", "x")
        remote = Ref(local, record_id="rec")
        assert as_ref(local) == Ref(local)
        assert as_ref(remote) is remote
        assert as_ref("stmt:x") is None and as_ref(None) is None


def _package_dataclasses():
    """Every dataclass the package's modules define."""
    found = []
    for info in pkgutil.iter_modules(knows_sidecar.__path__):
        module = importlib.import_module(f"{knows_sidecar.__name__}.{info.name}")
        found += [
            value
            for value in vars(module).values()
            if isinstance(value, type) and is_dataclass(value) and value.__module__ == module.__name__
        ]
    return found


def _keeps_state(cls):
    return any(isinstance(value, cached_property) for value in vars(cls).values())


def _has_dict(cls):
    return any("__dict__" in vars(base) for base in cls.__mro__)


def _values(value, found):
    """The dataclass values under ``value``, first of each class, into ``found``."""
    if isinstance(value, tuple):
        for item in value:
            _values(item, found)
    elif is_dataclass(value):
        found.setdefault(type(value), value)
        for f in fields(value):
            _values(getattr(value, f.name), found)


class TestLayout:
    """A dataclass carries a ``__dict__`` exactly when it keeps state; the rest are slotted."""

    def test_only_the_classes_that_keep_state_have_a_dict(self):
        classes = _package_dataclasses()
        keeping = {KnowsRecord, RelationGraph} | {cls for cls in classes if "_k001" in vars(cls)}
        assert {cls for cls in classes if _keeps_state(cls)} == keeping
        assert {cls for cls in classes if _has_dict(cls)} == keeping

    def test_every_other_dataclass_is_slotted(self):
        stateless = [cls for cls in _package_dataclasses() if not _keeps_state(cls)]
        assert len(stateless) == 37
        assert [cls for cls in stateless if "__slots__" not in vars(cls)] == []

    def test_slotted_record_values_copy_pickle_and_replace(self):
        found = {}
        for seed in range(10):
            _values(make_record(seed), found)
        slotted = {cls: value for cls, value in found.items() if "__slots__" in vars(cls)}
        # Slot describes a field of the shape table; a record holds none.
        expected = {
            cls
            for cls in _package_dataclasses()
            if cls.__module__ == model.__name__ and "__slots__" in vars(cls)
        }
        assert slotted.keys() == expected - {model.Slot}
        for value in slotted.values():
            copies = [copy.deepcopy(value), replace(value)]
            copies += [
                pickle.loads(pickle.dumps(value, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
            ]
            for other in copies:
                assert other == value and hash(other) == hash(value)
