"""K002-K006 read the record's one entity walk; a plain copy of them is the reference.

``KnowsRecord._walk`` keeps each entity's rendered ID and the repeated IDs, and
the checks read those instead of rendering IDs, building ``Ref`` objects and
formatting paths again.  The reference checks below are the straightforward
versions that do all of that per call.  On fixture and generated records
edited in memory (IDs and references set to parsed, raw, remote and
wrong-prefix values, an entity object listed twice, anchors naming missing
or non-representation IDs, extra subject artifacts, artifacts stripped of
identifiers and representations) and on every corrupted
copy of the benchmark's audit corpus at seed 1, ``lint`` reports exactly the
findings of the reference, in the same order.
"""

import importlib.util
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Any, Mapping

from hypothesis import example, given, settings, strategies as st

from helpers import FIXTURES, make_record
from knows_sidecar import linter
from knows_sidecar.corruption import InjectionKind, inject
from knows_sidecar.errors import NotApplicableError
from knows_sidecar.linter import LintCode, LintFinding, check_schema, lint
from knows_sidecar.model import (
    CLASS_PREFIX,
    ENTITY_CLASS,
    PREDICATE_MATRIX,
    PREFIX_CLASS,
    REF_FIELDS,
    Artifact,
    EntityId,
    Ref,
    Representation,
    SourceAnchor,
    as_ref,
    shown,
)
from knows_sidecar.serialization import load_record

CORPUS_PATH = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"


def _err(code, path, message):
    return LintFinding(code=code, severity="error", path=path, message=message)


# ---------------------------------------------------------------------------
# The reference checks: every ID rendered, every reference made a ``Ref``.


def _reference_refs(owner: Any, base: str, index: Mapping[str, Any], findings: list) -> None:
    for name, targets in REF_FIELDS[type(owner)]:
        value = getattr(owner, name)
        ref = as_ref(value)
        if ref is None:
            message = f"unparseable reference {shown(value)}"
        elif ref.is_remote:
            continue
        elif targets is not None and ref.entity.entity_class not in targets:
            message = f"reference {ref.entity} may only target {sorted(targets)}"
        else:
            target = index.get(str(ref.entity))
            if target is None:
                message = f"dangling reference {ref.entity}"
            elif ENTITY_CLASS[type(target)] != ref.entity.entity_class:
                message = f"reference {ref.entity} resolves to a {ENTITY_CLASS[type(target)]}"
            else:
                continue
        findings.append(_err(LintCode.CROSSREF, base + name, message))


def reference_crossrefs(record):
    findings = []
    index = record.entity_index()
    entities = record.entities()
    local_reps = {shown(e.id, str) for e, _ in entities if type(e) is Representation}
    _reference_refs(record, "", index, findings)
    subject = record.subject_artifact()
    if subject is not None and subject.role != "subject":
        message = f"{shown(record.subject_ref, str)} does not have role=subject"
        findings.append(_err(LintCode.CROSSREF, "subject_ref", message))
    for entity, path in entities:
        _reference_refs(entity, path + "/", index, findings)
        if (
            type(entity) is Artifact
            and entity.role == "subject"
            and shown(entity.id, str) != shown(record.subject_ref, str)
        ):
            message = (
                f"extra subject artifact {shown(entity.id, str)}; "
                f"subject_ref names {shown(record.subject_ref, str)}"
            )
            findings.append(_err(LintCode.CROSSREF, path, message))
        for j, anchor in enumerate(getattr(entity, "source_anchors", ())):
            anchor_path = f"{path}/source_anchors/{j}/representation_ref"
            ref = anchor.representation_ref
            if not isinstance(ref, EntityId):
                findings.append(_err(LintCode.CROSSREF, anchor_path, f"unparseable reference {shown(ref)}"))
            elif str(ref) not in local_reps:
                findings.append(_err(LintCode.CROSSREF, anchor_path, f"dangling reference {ref}"))
    return findings


def reference_id_uniqueness(record):
    findings = []
    seen = {}
    for entity, path in record.entities():
        rendered = shown(entity.id, str)
        if rendered in seen:
            message = f"duplicate entity id {rendered} (first declared at {seen[rendered]})"
            findings.append(_err(LintCode.ID_UNIQUE, path, message))
        else:
            seen[rendered] = path
    return findings


def reference_id_prefixes(record):
    findings = []
    for entity, path in record.entities():
        cls = ENTITY_CLASS[type(entity)]
        expected = CLASS_PREFIX[cls]
        if not isinstance(entity.id, EntityId):
            message = f"unparseable entity id {shown(entity.id)}"
        elif entity.id.prefix != expected:
            message = f"{cls} id must use prefix '{expected}:', got {entity.id}"
        else:
            continue
        findings.append(_err(LintCode.ID_PREFIX, f"{path}/id", message))
    return findings


def reference_predicates(record):
    findings = []
    for i, rel in enumerate(record.relations):
        path = f"relations/{i}"
        if rel.citation_intent is not None and rel.predicate != "cites":
            message = "citation_intent is only allowed with predicate 'cites'"
            findings.append(_err(LintCode.PREDICATE, path, message))
        if not isinstance(rel.predicate, str):
            continue
        allowed = PREDICATE_MATRIX.get(rel.predicate)
        if allowed is None:
            continue
        subject, obj = as_ref(rel.subject_ref), as_ref(rel.object_ref)
        if subject is None or obj is None:
            continue
        pair = (subject.entity.prefix, obj.entity.prefix)
        if pair not in allowed:
            message = f"predicate '{rel.predicate}' does not admit ({pair[0]} -> {pair[1]})"
            findings.append(_err(LintCode.PREDICATE, path, message))
    return findings


def reference_discoverability(record):
    findings = []
    for i, art in enumerate(record.artifacts):
        has_identifier = art.identifiers is not None and art.identifiers.any_present()
        has_representation = any(
            rep.locator is not None and rep.locator.value for rep in art.representations
        )
        if not has_identifier and not has_representation:
            message = (
                f"artifact {shown(art.id, str)} has neither an identifier nor a located representation"
            )
            findings.append(_err(LintCode.DISCOVERABILITY, f"artifacts/{i}", message))
        if shown(art.id, str) == shown(record.subject_ref, str) and not has_representation:
            message = f"subject artifact {shown(art.id, str)} must carry at least one representation"
            findings.append(_err(LintCode.DISCOVERABILITY, f"artifacts/{i}", message))
    return findings


REFERENCE_CHECKS = (
    check_schema,
    reference_crossrefs,
    reference_id_uniqueness,
    reference_id_prefixes,
    reference_predicates,
    reference_discoverability,
)


def _outcome(compute):
    try:
        return compute()
    except Exception as exc:  # the two paths must raise alike
        return type(exc), str(exc)


def reference_lint(record):
    findings = [finding for check in REFERENCE_CHECKS for finding in check(record)]
    findings.sort(key=lambda f: (str(f.path), f.code.value))
    return tuple(findings)


def assert_agrees(record):
    assert _outcome(lambda: lint(record).findings) == _outcome(lambda: reference_lint(record))


# ---------------------------------------------------------------------------
# Records edited in memory


BASES = [
    load_record((FIXTURES / f"{name}.knows.yaml").read_bytes())[0]
    for name in ("bloom", "minimal", "moore", "techreport")
] + [make_record(seed) for seed in range(4)]


def _pools(record):
    """Kinds of value an ID or reference field may be set to, drawn from ``record``."""
    ids = [e.id for e, _ in record.entities()]
    parsed = [i for i in ids if type(i) is EntityId][:4] or [EntityId("art", "paper")]
    missing = [EntityId("rep", "missing"), EntityId("stmt", "missing"), EntityId("ev", "missing")]
    return [
        ids,
        [str(i) for i in parsed],  # raw strings that render as an existing ID
        [EntityId(prefix, i.local) for i in parsed[:2] for prefix in PREFIX_CLASS],
        [Ref(i) for i in parsed + missing],
        [Ref(i, record_id="10.9999/elsewhere") for i in parsed[:2] + missing],
        missing,
        [None, 7, "", "art:", "rep:pdf", ["rep:pdf"], {"b", "a"}],
    ]


def _replace_at(owner, parts, edit):
    """``owner`` with the value at the path ``parts`` (name, index, ...) edited."""
    if not parts:
        return edit(owner)
    name, i, *rest = parts
    items = list(getattr(owner, name))
    items[int(i)] = _replace_at(items[int(i)], rest, edit)
    return replace(owner, **{name: tuple(items)})


OPS = ["id", "ref", "anchor", "repeat", "subject", "bare", "subject_ref"]


@st.composite
def edited_records(draw):
    record = draw(st.sampled_from(BASES))
    for _ in range(draw(st.integers(1, 4))):
        pool = draw(st.sampled_from(_pools(record)))
        op = draw(st.sampled_from(OPS))
        if op == "subject_ref":
            record = replace(record, subject_ref=draw(st.sampled_from(pool)))
            continue
        entities = record.entities()
        if not entities:
            continue
        entity, path = draw(st.sampled_from(entities))
        parts = path.split("/")
        if op == "id":
            edit = lambda e: replace(e, id=draw(st.sampled_from(pool)))  # noqa: E731
        elif op == "ref" and REF_FIELDS[type(entity)]:
            name = draw(st.sampled_from([n for n, _ in REF_FIELDS[type(entity)]]))
            edit = lambda e: replace(e, **{name: draw(st.sampled_from(pool))})  # noqa: E731
        elif op == "anchor" and hasattr(entity, "source_anchors"):
            anchor = SourceAnchor(representation_ref=draw(st.sampled_from(pool)), locator_type="page", locator="1")
            edit = lambda e: replace(e, source_anchors=(*e.source_anchors, anchor))  # noqa: E731
        elif op == "subject" and type(entity) is Artifact:
            edit = lambda e: replace(e, role="subject")  # noqa: E731
        elif op == "bare" and type(entity) is Artifact:
            edit = lambda e: replace(e, identifiers=None, representations=())  # noqa: E731
        elif op == "repeat":
            # The same entity object listed twice.
            *parts, name, i = parts
            edit = lambda o: replace(o, **{name: (*getattr(o, name), getattr(o, name)[int(i)])})  # noqa: E731
        else:
            continue
        record = _replace_at(record, parts, edit)
    return record


def _same_id_on_two_classes():
    record = make_record(0)
    return replace(record, statements=(replace(record.statements[0], id=record.evidence[0].id), *record.statements[1:]))


@settings(deadline=None, max_examples=max(300, settings.default.max_examples))
@given(edited_records())
@example(_same_id_on_two_classes())
@example(replace(make_record(1), statements=(make_record(1).statements[0],) * 2))
def test_lint_agrees_with_the_reference_checks(record):
    assert_agrees(record)


def _bench_corpus():
    """``bench/corpus.py``, loaded by path; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("bench_corpus", CORPUS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_lint_agrees_with_the_reference_checks_on_the_corrupted_audit_corpus():
    corpus = _bench_corpus()
    records = [load_record(corpus.dump_yaml(tree))[0] for tree in corpus.audit_corpus(1).trees]
    injected = 0
    for kind in InjectionKind:
        for index, record in enumerate(records):
            try:
                corrupted = inject(record, kind, seed=1 * 100003 + index).record
            except NotApplicableError:
                continue
            injected += 1
            assert lint(corrupted).findings == reference_lint(corrupted)
    assert injected == 422


# ---------------------------------------------------------------------------
# The per-layer seams

SEAMS = [
    "check_schema",
    "check_crossrefs",
    "check_id_uniqueness",
    "check_id_prefixes",
    "check_predicates",
    "check_discoverability",
]


def test_lint_calls_each_check_once_by_its_module_name(monkeypatch):
    """The benchmark's tracer times each layer by wrapping these names."""
    assert sorted(n for n in vars(linter) if n.startswith("check_")) == sorted([*SEAMS, "check_url_liveness"])
    calls = Counter()
    for name in SEAMS:
        def counted(record, _name=name, _check=getattr(linter, name)):
            calls[_name] += 1
            return _check(record)

        monkeypatch.setattr(linter, name, counted)
    linter.lint(make_record(0))
    assert calls == Counter(SEAMS)
