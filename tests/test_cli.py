import json
from pathlib import Path

import pytest
import yaml

from helpers import ALIAS_DOCS, DEEP_DOC, FIXTURES, LIST_CLAIM_STRENGTH_DOC, make_record
from knows_sidecar import cli
from knows_sidecar.projection import project
from knows_sidecar.serialization import emit_record, load_record

MOORE_QUESTION = (
    "Why does Moore argue that heat dissipation will not be a fundamental "
    "barrier to integrating tens of thousands of components on a single chip?"
)


def run(*argv):
    return cli.main(list(argv))


def fx(name):
    return str(FIXTURES / name)


class TestGen:
    def test_writes_lint_clean_record(self, tmp_path, capsys):
        out = tmp_path / "x.knows.yaml"
        code = run("gen", "--title", "Desk Study", "--author", "A. Person", "--out", str(out))
        assert code == 0
        assert out.exists()
        assert "PASS" in capsys.readouterr().out
        assert run("lint", str(out)) == 0

    def test_missing_out_is_usage_error(self, capsys):
        assert run("gen", "--title", "T", "--author", "A") == 2

    @pytest.mark.parametrize(
        "argv",
        [["--author", "A", "--profile", "paper@0"], ["--author", "A", "--title", " "], []],
        ids=["profile_major_zero", "blank_title", "no_author"],
    )
    def test_bad_input_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x.knows.yaml"
        try:
            code = run("gen", "--title", "T", "--out", str(out), *argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "gen" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_path_is_io_error(self, tmp_path):
        target = tmp_path / "missing-dir" / "x.yaml"
        code = run("gen", "--title", "T", "--author", "A", "--out", str(target))
        assert code == 3

    def test_calls_share_the_parser_but_no_state(self, tmp_path, capsys):
        first, second = tmp_path / "a.knows.yaml", tmp_path / "b.knows.yaml"
        assert run("gen", "--title", "T", "--author", "A", "--author", "B", "--out", str(first)) == 0
        assert run("gen", "--title", "T", "--author", "C", "--out", str(second)) == 0
        authors = [a["name"] for a in yaml.safe_load(second.read_text())["authors"]]
        assert authors == ["C"]
        assert cli.build_parser() is cli.build_parser()

    def test_out_defaults_beside_source(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("gen", "--title", "T", "--author", "A", "--source", "doc.pdf") == 0
        assert (tmp_path / "doc.knows.yaml").exists()


class TestLint:
    def test_pass(self, capsys):
        assert run("lint", fx("minimal.knows.yaml")) == 0
        assert "PASS (6/7 checks)" in capsys.readouterr().out

    def test_fail(self, tmp_path, capsys):
        bad = tmp_path / "bad.knows.yaml"
        bad.write_text((FIXTURES / "minimal.knows.yaml").read_text().replace("role: subject", "role: cited"))
        assert run("lint", str(bad)) == 1
        assert "K002" in capsys.readouterr().out

    def test_lines_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.knows.yaml"
        bad.write_text((FIXTURES / "minimal.knows.yaml").read_text().replace("license: CC-BY-4.0\n", ""))
        assert run("lint", str(bad), "--format", "lines") == 1
        out = capsys.readouterr().out
        assert out.startswith("K001 error license")
        assert "PASS" not in out and "FAIL" not in out

    def test_superscript_profile_major_is_a_finding(self, tmp_path, capsys):
        bad = tmp_path / "sup.yaml"
        text = (FIXTURES / "minimal.knows.yaml").read_text()
        bad.write_text(text.replace("profile: paper@1", "profile: paper@\u00b2"), encoding="utf-8")
        assert run("lint", str(bad), "--format", "lines") == 1
        assert capsys.readouterr().out.startswith("K001 error profile")

    def test_missing_file_is_io_error(self):
        assert run("lint", "no/such/file.yaml") == 3

    def test_unparseable_file_is_io_error(self, tmp_path):
        bad = tmp_path / "broken.yaml"
        bad.write_text("a: [unclosed\n")
        assert run("lint", str(bad)) == 3

    @pytest.mark.parametrize(
        "body", [b"a: !!timestamp nope\n", b"a: !!int abc\n", b"a: !!bool x\n", b"a: \xff\n"]
    )
    def test_unreadable_scalar_or_bytes_is_io_error(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(body)
        assert run("lint", str(bad)) == 3
        assert "cannot parse" in capsys.readouterr().err

    def test_no_network_env_blocks_probes(self, monkeypatch, capsys):
        def forbidden(url):
            raise AssertionError("network probe attempted")

        monkeypatch.setattr(cli, "_default_fetcher", forbidden)
        monkeypatch.setenv("KNOWS_NO_NETWORK", "1")
        assert run("lint", fx("techreport.knows.yaml"), "--check-urls") == 0
        assert "(6/7 checks)" in capsys.readouterr().out

    def test_check_urls_uses_fetcher(self, monkeypatch, capsys):
        monkeypatch.delenv("KNOWS_NO_NETWORK", raising=False)
        monkeypatch.setattr(cli, "_default_fetcher", lambda url: 200)
        assert run("lint", fx("techreport.knows.yaml"), "--check-urls") == 0
        assert "(7/7 checks)" in capsys.readouterr().out


class TestQuery:
    def test_answer_exit_zero(self, capsys):
        code = run("query", fx("bloom.knows.yaml"), "six levels taxonomy order")
        assert code == 0
        assert json.loads(capsys.readouterr().out)["status"] == "answer"

    def test_abstain_exit_one(self, capsys):
        code = run("query", fx("moore.knows.yaml"), MOORE_QUESTION)
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "abstain"
        assert payload["confidence"] == 0.0

    def test_fallback_requires_passages(self):
        code = run("query", fx("moore.knows.yaml"), MOORE_QUESTION, "--mode", "fallback")
        assert code == 2

    def test_fallback_cites_pages(self, capsys):
        code = run(
            "query",
            fx("moore.knows.yaml"),
            MOORE_QUESTION,
            "--mode",
            "fallback",
            "--passages",
            fx("moore_pages.txt"),
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["pages"] == [3, 4]

    def test_passages_not_utf8_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "pages.txt"
        bad.write_bytes(b"[PAGE 1]\nheat \xff\n")
        code = run(
            "query",
            fx("moore.knows.yaml"),
            MOORE_QUESTION,
            "--mode",
            "fallback",
            "--passages",
            str(bad),
        )
        assert code == 3
        assert f"cannot read {bad}" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-1", "two"])
    def test_k_below_one_is_usage_error(self, k, capsys):
        with pytest.raises(SystemExit) as exc:
            run("query", fx("bloom.knows.yaml"), "six levels taxonomy order", "-k", k)
        assert exc.value.code == 2
        assert "argument -k" in capsys.readouterr().err

    def test_k_one_answers_from_the_top_result(self, capsys):
        code = run("query", fx("bloom.knows.yaml"), "six levels taxonomy order", "-k", "1")
        assert code == 0
        assert json.loads(capsys.readouterr().out)["used"] == ["bloom-1956#stmt:c1"]

    def test_lines_format(self, capsys):
        run("query", fx("bloom.knows.yaml"), "six levels taxonomy order", "--format", "lines")
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "status answer"
        assert lines[1].startswith("confidence ")


class TestGraph:
    def test_edge_list(self, capsys):
        assert run("graph", fx("techreport.knows.yaml")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# nodes=")
        assert "edges=33" in lines[0]

    def test_seed_trace(self, capsys):
        code = run(
            "graph",
            fx("techreport.knows.yaml"),
            "--seed",
            "art:paper",
            "--predicates",
            "cites",
        )
        assert code == 0
        body = capsys.readouterr().out.splitlines()[1:]
        assert body and all("\tcites\t" in line for line in body)

    def test_non_string_predicates_are_left_out(self, tmp_path, capsys):
        tree = yaml.safe_load((FIXTURES / "moore.knows.yaml").read_bytes())
        for i, predicate in enumerate((["cites"], 1.5, None)):
            tree["relations"].append(
                {"id": f"rel:odd-{i}", "subject_ref": "art:paper", "predicate": predicate,
                 "object_ref": "art:paper"}
            )
        path = tmp_path / "odd.knows.yaml"
        path.write_text(yaml.safe_dump(tree))
        assert run("graph", str(path)) == 0
        assert "edges=1" in capsys.readouterr().out
        assert run("graph", str(path), "--seed", "art:paper", "--predicates", "cites") == 0

    def test_unknown_seed_exit_one(self):
        assert run("graph", fx("techreport.knows.yaml"), "--seed", "art:ghost") == 1

    @pytest.mark.parametrize(
        "present, expected",
        [
            (("v1", "v2", "v3"), ["v3", "v2", "v1"]),
            (("v2", "v3"), ["v3", "v2", "# chain incomplete: earliest predecessor not in registry"]),
        ],
    )
    def test_chain(self, tmp_path, capsys, monkeypatch, present, expected):
        replaces = {"v1": None, "v2": "v1", "v3": "v2"}
        paths = []
        for i, rid in enumerate(present):
            path = tmp_path / f"{rid}.knows.yaml"
            path.write_bytes(emit_record(make_record(i, record_id=rid, replaces=replaces[rid])))
            paths.append(str(path))

        def no_graph(records):
            raise AssertionError("--chain reads no graph")

        monkeypatch.setattr(cli, "build_graph", no_graph)
        assert run("graph", *paths, "--chain", "v3") == 0
        assert capsys.readouterr().out.splitlines() == expected


CONDITIONS = ["full", "minus_relations", "minus_evidence", "statements_only"]
# The frozen token counts of the techreport fixture, in CONDITIONS order.
TECHREPORT_TOKENS = [5455, 4516, 3248, 2520]


class TestProject:
    @pytest.mark.parametrize("condition", CONDITIONS)
    def test_projection_lints_clean(self, tmp_path, condition):
        out = tmp_path / "p.knows.yaml"
        code = run(
            "project", fx("techreport.knows.yaml"), "--condition", condition, "--out", str(out)
        )
        assert code == 0
        assert run("lint", str(out)) == 0

    @pytest.mark.parametrize("tokens", [(), ("--tokens",)])
    @pytest.mark.parametrize("condition", CONDITIONS)
    def test_out_is_the_projection_emitted(self, tmp_path, condition, tokens):
        out = tmp_path / "p.knows.yaml"
        path = fx("techreport.knows.yaml")
        assert run("project", path, "--condition", condition, "--out", str(out), *tokens) == 0
        record, _ = load_record(Path(path).read_bytes())
        assert out.read_bytes() == emit_record(project(record, condition))

    def test_tokens_report(self, tmp_path, capsys):
        out = tmp_path / "p.knows.yaml"
        run(
            "project",
            fx("techreport.knows.yaml"),
            "--condition",
            "statements_only",
            "--out",
            str(out),
            "--tokens",
        )
        err = capsys.readouterr().err
        counts = {}
        for line in err.splitlines():
            if line.startswith("# tokens "):
                name, value = line.removeprefix("# tokens ").split("=")
                counts[name] = int(value)
        assert counts == dict(zip(CONDITIONS, TECHREPORT_TOKENS))
        assert f"# savings_vs_full={1 - 2520 / 5455:.4f}" in err

    @pytest.mark.parametrize("doc", ALIAS_DOCS, ids=["pairs", "omap", "set"])
    def test_tokens_out_keeps_aliases(self, tmp_path, doc):
        path = tmp_path / "alias.knows.yaml"
        path.write_bytes(doc)
        alone, together = tmp_path / "alone.knows.yaml", tmp_path / "together.knows.yaml"
        assert run("project", str(path), "--out", str(alone)) == 0
        assert run("project", str(path), "--out", str(together), "--tokens") == 0
        assert together.read_bytes() == alone.read_bytes()
        assert b"&id001" in alone.read_bytes()

    @pytest.mark.parametrize("tokens", [(), ("--tokens",)])
    def test_value_nested_too_deeply_is_io_error(self, tmp_path, capsys, tokens):
        deep = tmp_path / "deep.knows.yaml"
        deep.write_text(DEEP_DOC)
        out = tmp_path / "p.knows.yaml"
        assert run("project", str(deep), "--condition", "full", "--out", str(out), *tokens) == 3
        assert "nested too deeply" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_condition_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("project", fx("techreport.knows.yaml"), "--condition", "tiny")
        assert exc.value.code == 2


class TestAudit:
    def test_corpus_study(self, tmp_path, capsys):
        for i in range(4):
            record = make_record(400 + i)
            (tmp_path / f"r{i}.knows.yaml").write_bytes(emit_record(record))
        assert run("audit", "--corpus", str(tmp_path), "--study-seed", "5") == 0
        out = capsys.readouterr().out
        assert "omit_limitation 4 4" in out
        assert "wrong_number 4 0" in out

    def test_corpus_with_list_claim_strength(self, tmp_path, capsys):
        (tmp_path / "b.knows.yaml").write_bytes(LIST_CLAIM_STRENGTH_DOC)
        assert run("audit", "--corpus", str(tmp_path)) == 0
        assert "inflate_confidence 0 0" in capsys.readouterr().out

    def test_gate_mode(self, capsys):
        code = run(
            "audit",
            "--matched",
            fx("bloom_matched.json"),
            "--context",
            fx("bloom_context.txt"),
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_failing_gates_exit_one(self, tmp_path):
        items = json.loads((FIXTURES / "bloom_matched.json").read_text())
        items[0]["evidence"][0]["quote"] = "never said this"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(items))
        code = run("audit", "--matched", str(bad), "--context", fx("bloom_context.txt"))
        assert code == 1

    def test_matched_file_nested_too_deeply_is_parse_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        assert run("audit", "--matched", str(deep), "--context", fx("bloom_context.txt")) == 3
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["matched", "context"])
    def test_file_not_utf8_is_io_error(self, tmp_path, capsys, which):
        paths = {"matched": fx("bloom_matched.json"), "context": fx("bloom_context.txt")}
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b'[{"item_id": "a\xff"}]')
        paths[which] = str(bad)
        assert run("audit", "--matched", paths["matched"], "--context", paths["context"]) == 3
        assert f"cannot read {bad}" in capsys.readouterr().err

    def test_mixed_modes_are_usage_error(self, tmp_path):
        code = run(
            "audit",
            "--corpus",
            str(tmp_path),
            "--matched",
            fx("bloom_matched.json"),
            "--context",
            fx("bloom_context.txt"),
        )
        assert code == 2

    def test_no_mode_is_usage_error(self):
        assert run("audit") == 2

    def test_empty_corpus_is_io_error(self, tmp_path):
        assert run("audit", "--corpus", str(tmp_path)) == 3
