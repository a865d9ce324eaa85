import copy
from dataclasses import is_dataclass, replace

import pytest
import yaml

from helpers import DEEP_VALUE_DOCS, FIXTURES, RECORD_ORACLE, make_record
from knows_sidecar import linter, model, schema, serialization
from knows_sidecar.graph import Registry, resolve
from knows_sidecar.linter import (
    LintCode,
    check_url_liveness,
    lint,
    render_lines,
    render_text,
)
from knows_sidecar.model import Confidence
from knows_sidecar.serialization import load_record, record_to_tree


def load_fixture(name: str):
    record, _ = load_record((FIXTURES / name).read_bytes())
    return record


def findings_with(report, code):
    return [f for f in report.findings if f.code is code]


# ---------------------------------------------------------------------------
# K001 via two independent routes over the same schema document

def oracle_valid(tree) -> bool:
    return RECORD_ORACLE.is_valid(tree)


def _mutations(tree):
    """Assorted structural edits, valid and invalid alike."""
    muts = []

    def edited(fn):
        t = copy.deepcopy(tree)
        fn(t)
        muts.append(t)

    edited(lambda t: t)  # identity
    edited(lambda t: t.pop("license"))
    edited(lambda t: t.update({"surprise": 1}))
    edited(lambda t: t.update({"knows_version": "0.9"}))
    edited(lambda t: t.update({"profile": "paper@0"}))
    edited(lambda t: t.update({"record_id": "has#hash"}))
    edited(lambda t: t.update({"summary": ""}))
    edited(lambda t: t.update({"authors": []}))
    edited(lambda t: t.update({"year": 2026}))
    edited(lambda t: t.update({"year": "2026"}))
    edited(lambda t: t["coverage"].update({"statements": "most"}))
    edited(lambda t: t["freshness"].update({"as_of": "yesterday"}))
    edited(lambda t: t["provenance"].pop("actor"))
    edited(lambda t: t["provenance"]["actor"].update({"type": "robot"}))
    edited(lambda t: t["artifacts"][0].pop("title"))
    edited(lambda t: t["artifacts"][0].update({"identifiers": {}}))
    edited(lambda t: t["artifacts"][0].update({"x_extensions": {"x_any": [1, 2]}}))
    if tree.get("statements"):
        edited(lambda t: t["statements"][0].update({"statement_type": "hunch"}))
        edited(lambda t: t["statements"][0].update({"extra_field": True}))
        edited(lambda t: t["statements"][0].pop("about_ref"))
    if tree.get("evidence"):
        def both_values(t):
            obs = t["evidence"][0]["observations"][0]
            obs["value"] = 1.0
            obs["qualitative_value"] = "q"
        edited(both_values)

        def neither_value(t):
            obs = t["evidence"][0]["observations"][0]
            obs.pop("value", None)
            obs.pop("qualitative_value", None)
        edited(neither_value)
    if tree.get("relations"):
        edited(lambda t: t["relations"][0].update({"predicate": "refutes"}))
    if tree.get("actions"):
        edited(lambda t: t["actions"][0]["safety"].update({"network": "yes"}))
    return muts


@pytest.mark.parametrize("seed", range(12))
def test_validator_agrees_with_jsonschema_oracle(seed):
    tree = record_to_tree(make_record(seed))
    for i, mutated in enumerate(_mutations(tree)):
        ours = not schema.validate_tree(mutated)
        theirs = oracle_valid(mutated)
        assert ours == theirs, f"seed {seed} mutation {i}: ours={ours} oracle={theirs}"


def test_fixture_trees_pass_both_validators():
    for name in ("minimal.knows.yaml", "techreport.knows.yaml", "bloom.knows.yaml"):
        record = load_fixture(name)
        tree = record_to_tree(record)
        assert not schema.validate_tree(tree)
        assert oracle_valid(tree)


@pytest.mark.parametrize("key, value", [("profile", "paper@1\n"), ("knows_version", "\u0660.\u0669.\u0660")])
def test_pattern_reads_as_ecma_262(key, value):
    # JSON Schema's ``$`` matches only at the end of the string, not before a
    # final newline, and its ``\d`` only an ASCII digit, not an Arabic-Indic one.
    expected = [(key, f"string does not match {schema.RECORD_SCHEMA['properties'][key]['pattern']}")]
    tree = yaml.safe_load((FIXTURES / "minimal.knows.yaml").read_bytes())
    loaded, _ = load_record(yaml.safe_dump(dict(tree, **{key: value}), allow_unicode=True))
    built = replace(load_fixture("minimal.knows.yaml"), **{key: value})
    for record in (loaded, built):
        assert [(f.path, f.message) for f in findings_with(lint(record), LintCode.SCHEMA)] == expected


def _with_one_new_value(record):
    """Copies of ``record`` that share all but one new statement, evidence or confidence."""
    copies = [replace(record)]
    if record.statements:
        first, *rest = record.statements
        copies.append(replace(record, statements=(replace(first, text=first.text + "!"), *rest)))
        strength = Confidence(claim_strength="high", extraction_fidelity="low")
        copies.append(replace(record, statements=(replace(first, confidence=strength), *rest)))
    if record.evidence:
        first, *rest = record.evidence
        copies.append(replace(record, evidence=(replace(first, summary=first.summary + "!"), *rest)))
    return copies


def _refuse(*args, **kwargs):
    raise AssertionError("K001 emitted a tree")


def test_in_memory_k001_emits_no_tree(monkeypatch):
    records = [load_fixture(path.name) for path in sorted(FIXTURES.glob("*.knows.yaml"))]
    records += [make_record(seed) for seed in range(4)]
    expected = [[lint(copy).findings for copy in _with_one_new_value(r)] for r in records]
    # The tree builders: each class's one emitter, ``KnowsRecord``'s included.
    classes = [c for c in vars(model).values() if is_dataclass(c) and c not in model.STRING_PARSERS]
    assert model.KnowsRecord in classes
    for cls in classes:
        monkeypatch.setattr(serialization._emitter(cls), "__code__", _refuse.__code__)
    with pytest.raises(AssertionError, match="emitted a tree"):
        serialization.record_to_tree(records[0])
    with pytest.raises(AssertionError, match="emitted a tree"):
        serialization._emitter(model.Statement)(records[0].statements[0])
    assert [[lint(copy).findings for copy in _with_one_new_value(r)] for r in records] == expected


# ---------------------------------------------------------------------------
# Whole-report behavior


def test_non_string_root_key_is_a_finding():
    doc = b"3: x\nzzz: y\n" + (FIXTURES / "minimal.knows.yaml").read_bytes()
    report = lint(load_record(doc)[0])
    paths = [f.path for f in findings_with(report, LintCode.SCHEMA)]
    assert paths == [3, "zzz"]


def test_clean_record_passes():
    report = lint(load_fixture("techreport.knows.yaml"))
    assert report.passed
    assert report.checks_run == 6
    assert report.findings == ()


def test_findings_sorted_and_rendered():
    record, _ = load_record(
        "record_id: r1\n"
        "statements:\n"
        "  - id: stmt:dup\n"
        "    statement_type: claim\n"
        "    text: t\n"
        "    about_ref: art:gone\n"
        "    status: asserted\n"
        "  - id: stmt:dup\n"
        "    statement_type: claim\n"
        "    text: t\n"
        "    about_ref: art:gone\n"
        "    status: asserted\n"
    )
    report = lint(record)
    assert not report.passed
    ordering = [(f.path, f.code.value) for f in report.findings]
    assert ordering == sorted(ordering)
    lines = render_lines(report).splitlines()
    assert all(line.split()[0].startswith("K00") for line in lines)
    assert render_text(report).endswith("FAIL (6/7 checks)")


# ---------------------------------------------------------------------------
# K002 cross references


def test_dangling_relation_endpoint_is_k002():
    record = make_record(3)
    broken = replace(record, statements=record.statements[:-1])
    report = lint(broken)
    assert findings_with(report, LintCode.CROSSREF)


def test_subject_ref_must_name_subject_artifact():
    record, _ = load_record(
        (FIXTURES / "minimal.knows.yaml").read_text().replace("role: subject", "role: cited")
    )
    report = lint(record)
    assert any(
        f.path == "subject_ref" for f in findings_with(report, LintCode.CROSSREF)
    )


def test_extra_subject_artifact_flagged():
    raw = (FIXTURES / "minimal.knows.yaml").read_text()
    raw += (
        "actions: []\n"
    )
    record, _ = load_record(raw)
    extra = replace(record.artifacts[0], id=record.artifacts[0].id.__class__("art", "other"))
    record2 = replace(record, artifacts=record.artifacts + (extra,))
    report = lint(record2)
    assert any("extra subject" in f.message for f in findings_with(report, LintCode.CROSSREF))


def test_remote_refs_not_resolved_locally():
    record = make_record(5)
    from knows_sidecar.model import EntityId, Ref, Relation

    remote = Relation(
        id=EntityId("rel", "remote"),
        subject_ref=Ref(EntityId("art", "paper")),
        predicate="cites",
        object_ref=Ref(EntityId("art", "elsewhere"), record_id="10.1/other"),
    )
    report = lint(replace(record, relations=record.relations + (remote,)))
    assert report.passed


def test_anchor_must_point_at_local_representation():
    record = make_record(7)
    from knows_sidecar.model import EntityId

    stmt = record.statements[0]
    bad_anchor = replace(stmt.source_anchors[0], representation_ref=EntityId("rep", "ghost"))
    stmt2 = replace(stmt, source_anchors=(bad_anchor,))
    report = lint(replace(record, statements=(stmt2,) + record.statements[1:]))
    assert any(
        "source_anchors" in f.path for f in findings_with(report, LintCode.CROSSREF)
    )


def test_anchor_naming_another_class_is_dangling():
    # Anchors are checked against the local representations, not by target class.
    tree = yaml.safe_load((FIXTURES / "bloom.knows.yaml").read_bytes())
    tree["statements"][0]["source_anchors"][0]["representation_ref"] = "ev:e0"
    record, _ = load_record(yaml.safe_dump(tree, sort_keys=False))
    assert [(f.path, f.message) for f in findings_with(lint(record), LintCode.CROSSREF)] == [
        ("statements/0/source_anchors/0/representation_ref", "dangling reference ev:e0")
    ]


# ---------------------------------------------------------------------------
# K003 / K004


def test_duplicate_id_reported_once_with_first_path():
    record, _ = load_record(
        "artifacts:\n"
        "  - {id: 'art:a', artifact_type: paper, role: subject, title: T}\n"
        "evidence:\n"
        "  - {id: 'art:a', evidence_type: figure, summary: S}\n"
    )
    dups = findings_with(lint(record), LintCode.ID_UNIQUE)
    assert len(dups) == 1
    assert "artifacts/0" in dups[0].message
    assert dups[0].path == "evidence/0"


def test_first_declaration_wins_in_lint_index_and_resolve():
    # A top-level artifact reuses the ID of an earlier artifact's representation.
    tree = yaml.safe_load((FIXTURES / "techreport.knows.yaml").read_bytes())
    tree["artifacts"][1]["id"] = "rep:paper-pdf"
    record, _ = load_record(yaml.safe_dump(tree, sort_keys=False))
    dups = findings_with(lint(record), LintCode.ID_UNIQUE)
    assert [(f.path, f.message) for f in dups] == [
        (
            "artifacts/1",
            "duplicate entity id rep:paper-pdf (first declared at artifacts/0/representations/0)",
        )
    ]
    first = record.artifacts[0].representations[0]
    assert record.entity_index()["rep:paper-pdf"] is first
    _, entity = resolve("rep:paper-pdf", record.record_id, Registry([record]))
    assert entity is first


def test_wrong_prefix_is_k004():
    record, _ = load_record(
        "statements:\n"
        "  - id: ev:mislabeled\n"
        "    statement_type: claim\n"
        "    text: t\n"
        "    about_ref: art:paper\n"
        "    status: asserted\n"
    )
    assert findings_with(lint(record), LintCode.ID_PREFIX)


def test_set_values_read_alike_in_findings():
    # 8 and 0 share a slot of a small set, which then iterates in insertion order.
    def findings(items):
        record, _ = load_record(
            "artifacts:\n"
            f"  - {{id: !!set {{{items}}}, artifact_type: paper, role: subject, title: T}}\n"
            f"  - {{id: [!!set {{{items}}}], artifact_type: paper, role: cited, title: T}}\n"
            f"  - {{id: [!!set {{{items}}}], artifact_type: paper, role: cited, title: T}}\n"
            "relations:\n"
            f"  - {{id: 'rel:r', subject_ref: !!set {{{items}}}, predicate: cites, object_ref: 'art:a'}}\n"
        )
        return [(f.code, f.path, f.message) for f in lint(record).findings if f.code is not LintCode.SCHEMA]

    shown = findings("8, 0")
    assert shown == findings("0, 8")
    assert (LintCode.ID_PREFIX, "artifacts/0/id", "unparseable entity id {0, 8}") in shown
    assert (LintCode.CROSSREF, "relations/0/subject_ref", "unparseable reference {0, 8}") in shown
    assert (
        LintCode.ID_UNIQUE, "artifacts/2", "duplicate entity id [{0, 8}] (first declared at artifacts/1)"
    ) in shown


# ---------------------------------------------------------------------------
# K005 predicates


@pytest.mark.parametrize(
    "subject,predicate,obj,ok",
    [
        ("stmt:a", "supported_by", "ev:b", True),
        ("stmt:a", "supported_by", "stmt:b", True),
        ("art:a", "supported_by", "ev:b", False),
        ("stmt:a", "challenged_by", "art:b", False),
        ("stmt:a", "depends_on", "art:b", True),
        ("art:a", "depends_on", "stmt:b", True),
        ("art:a", "limited_by", "stmt:b", True),
        ("stmt:a", "limited_by", "art:b", False),
        ("art:a", "cites", "art:b", True),
        ("stmt:a", "cites", "art:b", False),
        ("stmt:a", "documents", "art:b", True),
        ("art:a", "documents", "stmt:b", False),
        ("ev:a", "same_as", "ev:b", True),
        ("ev:a", "same_as", "stmt:b", False),
        ("stmt:a", "supersedes", "stmt:b", True),
        ("stmt:a", "supersedes", "art:b", False),
        ("art:a", "retracts", "art:b", True),
    ],
)
def test_predicate_matrix(subject, predicate, obj, ok):
    record, _ = load_record(
        "relations:\n"
        f"  - {{id: 'rel:r', subject_ref: '{subject}', predicate: {predicate}, object_ref: '{obj}'}}\n"
    )
    found = findings_with(lint(record), LintCode.PREDICATE)
    assert (not found) == ok


def test_citation_intent_requires_cites():
    record, _ = load_record(
        "relations:\n"
        "  - {id: 'rel:r', subject_ref: 'stmt:a', predicate: supported_by,"
        " object_ref: 'ev:b', citation_intent: background}\n"
    )
    assert findings_with(lint(record), LintCode.PREDICATE)


@pytest.mark.parametrize("predicate", ["[cites]", "{p: cites}"])
def test_unhashable_predicate_is_k001_not_a_crash(predicate):
    record, _ = load_record(
        "relations:\n"
        f"  - {{id: 'rel:r', subject_ref: 'art:a', predicate: {predicate}, object_ref: 'art:b'}}\n"
    )
    report = lint(record)
    assert any(f.path.startswith("relations/0") for f in findings_with(report, LintCode.SCHEMA))
    assert not findings_with(report, LintCode.PREDICATE)


def test_remote_endpoint_checked_by_declared_prefix():
    record, _ = load_record(
        "relations:\n"
        "  - {id: 'rel:r', subject_ref: 'art:a', predicate: cites,"
        " object_ref: 'other#stmt:b'}\n"
    )
    assert findings_with(lint(record), LintCode.PREDICATE)


# ---------------------------------------------------------------------------
# K006 discoverability


def test_artifact_without_identifier_or_locator_fails():
    record, _ = load_record(
        "artifacts:\n"
        "  - {id: 'art:bare', artifact_type: paper, role: cited, title: T}\n"
    )
    assert findings_with(lint(record), LintCode.DISCOVERABILITY)


def test_subject_needs_representation_even_with_identifier():
    raw = (FIXTURES / "minimal.knows.yaml").read_text()
    raw = raw.replace(
        "    representations:\n"
        "      - id: rep:pdf\n"
        "        media_type: application/pdf\n"
        "        locator: {type: path, value: 'paper.pdf'}\n",
        "",
    )
    record, _ = load_record(raw)
    assert findings_with(lint(record), LintCode.DISCOVERABILITY)


# ---------------------------------------------------------------------------
# K007 liveness (offline probes only)


def test_liveness_warning_by_default():
    record = load_fixture("techreport.knows.yaml")
    findings = check_url_liveness(record, fetcher=lambda url: 404)
    assert findings
    assert all(f.severity == "warning" for f in findings)


def test_liveness_message_shows_a_deep_url_within_bounds():
    record, _ = load_record(DEEP_VALUE_DOCS["url locator"])
    (finding,) = findings_with(lint(record, fetcher=lambda url: 404), LintCode.URL_LIVENESS)
    assert finding.path == "artifacts/0/representations/0/locator"
    assert finding.message.startswith("url [[[")
    assert finding.message.endswith("]]] is not live (status 404)")
    assert "..." in finding.message


def test_liveness_errors_flag():
    record = load_fixture("techreport.knows.yaml")
    report = lint(record, fetcher=lambda url: 500, liveness_errors=True)
    assert report.checks_run == 7
    assert not report.passed


def test_liveness_accepts_redirects_and_tolerates_exceptions():
    record = load_fixture("techreport.knows.yaml")
    assert not check_url_liveness(record, fetcher=lambda url: 302)

    def boom(url):
        raise OSError("no network")

    assert check_url_liveness(record, fetcher=boom)


def test_lint_never_probes_without_flag(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("probe attempted")

    monkeypatch.setattr(linter, "check_url_liveness", forbidden)
    report = lint(load_fixture("techreport.knows.yaml"))
    assert report.checks_run == 6
