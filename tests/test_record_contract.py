"""The observable record contract, pinned as digests.

These SHA-256 digests were taken from the hand-written loaders, emitters and
schema dicts before the record shape moved into one field table.  They cover
the JSON Schema, the canonical emission of the fixtures and of generated
records, and, for seeded mutations of the fixture trees, the emitted bytes,
the unknown-field log, the raw-tree schema findings and the lint findings.
A change to any of them is a change to the contract, not a refactor.
"""

import copy
import hashlib
import json
import random

import yaml

from helpers import FIXTURES, make_record
from knows_sidecar import schema
from knows_sidecar.linter import lint
from knows_sidecar.serialization import document_tree, emit_record, load_record

FIXTURE_NAMES = ("bloom", "minimal", "moore", "techreport")
FIXTURE_TREES = {
    name: yaml.safe_load((FIXTURES / f"{name}.knows.yaml").read_bytes()) for name in FIXTURE_NAMES
}


def _full_tree():
    """The moore fixture with every optional field and extension map filled in."""
    tree = copy.deepcopy(FIXTURE_TREES["moore"])
    tree["artifacts"][0]["x_extensions"] = {"x_mirror": "https://example.org/m.pdf"}
    stmt = tree["statements"][0]
    stmt["source_anchors"] = [{"representation_ref": "rep:pdf", "locator_type": "page", "locator": "2"}]
    stmt["confidence"] = {"claim_strength": "medium", "extraction_fidelity": "high"}
    stmt["provenance"] = dict(tree["provenance"], x_extensions={"x_run": 3})
    stmt["x_extensions"] = {"x_note": "forecast", "x_tags": ["a", "b"]}
    tree["evidence"][0]["observations"].append({"metric": "trend", "qualitative_value": "doubling"})
    tree["evidence"][0]["x_extensions"] = {"x_axis": "log"}
    tree["relations"][0]["x_extensions"] = {"x_weight": 0.5}
    tree["provenance"]["x_extensions"] = {"x_tool": "curator"}
    tree.update(
        abstract="A forecast of component density.",
        venue="Electronics",
        year=1965,
        keywords=["scaling", "density"],
        record_status="active",
        replaces="moore-1964",
        actions=copy.deepcopy(FIXTURE_TREES["techreport"]["actions"][:1]),
        resources=[{"name": "errata"}, "note"],
        external_metadata_refs=[{"standard": "datacite", "locator": "https://example.org/m.xml"}],
        extensions={"x_site": "mirror", "x_depth": {"k": 1}},
    )
    tree["actions"][0]["target_ref"] = "art:paper"
    return tree


# The techreport fixture costs twenty times the others; draw it 1 time in 20.
BASES = [FIXTURE_TREES[n] for n in ("bloom", "minimal", "moore")] + [_full_tree()] * 2
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

MUTATIONS = 1000
JUNK = (
    None, True, False, 0, -7, 2.5, 1e300, "", " ", "x", "TODO", "art:", "art:a b",
    "stmt:x#y", "foo:bar", "ev:e0", "rep:pdf", "rec#art:paper", "a#b#c", "#art:x",
    "not-a-date", "2026-02-30T00:00:00Z", "2026-03-01", "1.2", "v1.2.3", "0.9.0",
    "paper@0", "paper@1", "cites", "supported_by", "other", "none", "high", "url",
    [], ["x", 1], [{"id": "art:z"}], {}, {"k": "v"}, {"x_note": [1, 2]}, {"id": None},
)
UNKNOWN_KEYS = ("zzz", "x_extra", "id", "$schema", 7)
EXTENSION_MAPS = ({"x_a": 1, "x_b": [1, 2]}, {"note": "n", 3: None}, {"k": {"deep": True}})


def _slots(tree):
    """Every (container, key) in ``tree``, in document order."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            out.append((node, key))
            if isinstance(value, (dict, list)):
                stack.append(value)
    return out


def mutate(seed: int) -> bytes:
    """One fixture tree with 1-3 junk values, an added key, or a key removed."""
    rng = random.Random(seed)
    base = FIXTURE_TREES["techreport"] if rng.random() < 0.05 else rng.choice(BASES)
    tree = copy.deepcopy(base)
    kind = rng.random()
    slots = _slots(tree)
    if kind < 0.7:
        for _ in range(rng.randint(1, 3)):
            container, key = rng.choice(slots)
            container[key] = copy.deepcopy(rng.choice(JUNK))
            slots = _slots(tree)
    elif kind < 0.9:
        dicts = [c[k] for c, k in slots if isinstance(c[k], dict)]
        if rng.random() < 0.6:
            # An extension map on the root or on an entity; its keys are logged.
            if rng.random() < 0.3:
                target, key = tree, "extensions"
            else:
                target, key = rng.choice([d for d in dicts if "id" in d or "origin" in d]), "x_extensions"
            target[key] = copy.deepcopy(rng.choice(EXTENSION_MAPS))
        else:
            rng.choice([tree] + dicts)[rng.choice(UNKNOWN_KEYS)] = copy.deepcopy(rng.choice(JUNK))
    else:
        container, key = rng.choice([(c, k) for c, k in slots if isinstance(c, dict)])
        del container[key]
    return yaml.dump(tree, Dumper=_DUMPER, sort_keys=False, allow_unicode=True).encode("utf-8")


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def test_record_schema_digest():
    assert digest([json.dumps(schema.RECORD_SCHEMA)]) == (
        "4d763b6cd81a0e30b09cec7ea007f7da337e6e8c3970062db837ff2a8e5e8cb1"
    )


def test_fixture_and_generated_emission_digest():
    docs = [(FIXTURES / f"{n}.knows.yaml").read_bytes() for n in FIXTURE_NAMES]
    docs.append(yaml.safe_dump(_full_tree()))
    parts = [emit_record(load_record(doc)[0]) for doc in docs]
    parts += [emit_record(make_record(seed)) for seed in range(200)]
    assert digest(parts) == "bc07e365a27e80a046c17673f991abb254dfede142bb2905d1e9faa602f3391e"


def test_mutated_tree_digests():
    emitted, logs, findings, lints = [], [], [], []
    for seed in range(MUTATIONS):
        record, log = load_record(mutate(seed))
        emitted.append(emit_record(record))
        logs.append([(e.path, e.key) for e in log.entries])
        findings.append(schema.validate_tree(document_tree(record)))
        lints.append([(f.code.value, f.severity, f.path, f.message) for f in lint(record).findings])
    assert {
        "emitted": digest(emitted),
        "logs": digest(logs),
        "validate_tree": digest(findings),
        "lint": digest(lints),
    } == {
        "emitted": "5fdb1b32bce91c411b85883552837507235778684ef2d23fa11c5c7adae58677",
        "logs": "6d4ffd306a754c7e04dca98381e4d52b7f3008ccbd70421ee3e53f62e0d12658",
        "validate_tree": "f4da98ab726fff4f8984d524bc7d88150d45f75b384fd8735e16750ab3793e35",
        "lint": "6e20777b0ee8d58c28760a8f82218c17bf7ce3b913b2a8a29ac742c71573b824",
    }
