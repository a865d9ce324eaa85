"""The four benchmark workloads.

Each workload is closed loop with one client and no threads.  ``setup``
builds the program state from the seed (generation, files written, registry
load, initial graph build); ``ops`` yields the seeded operation stream and
keeps the benchmark's own model of the state, so every operation carries
what its oracle needs; ``run`` is the timed call into the program; ``check``
is the oracle, run after each op outside its timing.  Each window of a run
(the warm-up, the timed phase, each traced window) runs on its own ``fresh``
state, so nothing the program caches in one window is found warm in another.
A workload whose writes make later ops dearer refreshes its state every
``epoch_ops`` ops, so the ops of a run see the same state sizes however many
of them the host completes in the run's time.

The program is called through module attributes (``graph.trace``, not a
name imported at load time) so that the traced run's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import itertools
import math
import random
import shutil
from pathlib import Path

import yaml

import corpus as gen
import oracles
from knows_sidecar import cli, consumer, corruption, graph, matched, projection, serialization

AGENT_RECORDS = 300
GRAPH_RECORDS = 300
PREDICATE_FILTERS = (None, frozenset({"cites"}), frozenset({"supported_by", "limited_by"}))


def load_tree(tree: dict):
    record, _ = serialization.load_record(gen.dump_yaml(tree))
    return record


# Window 0 is the warm-up and windows 1, 2, ... are measured.  The warm-up's op
# stream is seeded apart from the timed windows', so it warms the code and
# none of the timed ops' inputs.
WARM_UP = 0


def _rng(name: str, state: dict) -> random.Random:
    """The op stream's random source; the warm-up's and each epoch's are
    seeded apart."""
    warm_up = ":warm-up" if state["window"] == WARM_UP else ""
    epoch = f":epoch-{state['epoch']}" if state["epoch"] else ""
    return random.Random(f"{name}:{state['seed']}{warm_up}{epoch}")


def _renamed(record, suffix: str):
    return dataclasses.replace(record, record_id=record.record_id + suffix)


class Workload:
    name = ""
    # Keys of ``setup``'s state that hold program objects.  ``fresh`` gives
    # each window a deep copy of them, as set-up left them.
    live: tuple[str, ...] = ()
    # Ops after which a window continues on a fresh state (None: never).
    epoch_ops: int | None = None
    # The reference task whose time tracks the host's speed for these ops
    # (see ``run.REFERENCE_TASKS``).
    reference = "yaml_parse"

    def fresh(self, base: dict, window: int, epoch: int = 0) -> dict:
        """The state one window (or one epoch of it) runs on, sharing no
        program object with ``base`` or with another window or epoch."""
        return dict(base, window=window, epoch=epoch, **copy.deepcopy({key: base[key] for key in self.live}))

    def close(self, base) -> None:
        """Release what ``setup`` created outside memory."""


class CliFiles(Workload):
    """``knows`` commands in-process over an on-disk corpus of 1.5-64 KiB files."""

    name = "cli_files"

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def setup(self, seed: int):
        corpus = gen.cli_corpus(seed)
        root = self.workdir / f"cli-{seed}"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        for f in corpus.files:
            (root / f.name).write_bytes(f.data)
        return dict(seed=seed, corpus=corpus, root=root)

    def close(self, base) -> None:
        shutil.rmtree(base["root"], ignore_errors=True)

    def fresh(self, base: dict, window: int, epoch: int = 0) -> dict:
        folder = base["root"] / f"window-{window}-{epoch}"
        (folder / "out").mkdir(parents=True)
        return dict(base, window=window, epoch=epoch, folder=folder, out=folder / "out")

    # Every block of ten ops has six lints, two projects, a query and a gen;
    # each kind walks the size-ordered files by its own rotation.  So any
    # prefix of the stream, however many ops a run completes, has the same
    # mix of commands and sizes, and its p90 does not move with the count.
    BLOCK = ("lint", "project", "lint", "query", "lint", "lint", "project", "lint", "gen", "lint")

    def ops(self, state):
        rng = _rng("cli-ops", state)
        files = state["corpus"].files
        # The warm-up walks the files from a different point of each rotation.
        seen = dict.fromkeys(self.BLOCK, 7919 if state["window"] == WARM_UP else 0)
        for i in itertools.count():
            kind = self.BLOCK[i % len(self.BLOCK)]
            j = seen[kind]
            seen[kind] += 1
            k = int(gen.rotation(j, gen.GOLDEN) * len(files))
            tree = files[k].tree
            if kind != "gen":
                # Each command reads a copy of its own, with the window and op
                # in a leading YAML comment: as with one process per command,
                # no path- or content-keyed cache is ever warm for it.
                path = str(state["folder"] / f"{i:06d}-{files[k].name}")
                Path(path).write_bytes(b"# window %d op %d\n" % (state["window"], i) + files[k].data)
            if kind == "lint":
                yield ("lint", k, ["lint", path, "--format", "lines"])
            elif kind == "project":
                condition = oracles.CONDITIONS[j % 4]
                out = str(state["out"] / f"project-{i}.knows.yaml")
                yield ("project", k, ["project", path, "--condition", condition, "--tokens", "--out", out])
            elif kind == "query":
                claim = rng.choice(tree["statements"])["text"].rstrip(".").split()
                if rng.random() < 0.7:
                    words = rng.sample(claim, min(4, len(claim)))
                else:
                    words = rng.sample(gen.OFF_WORDS, 3)
                yield ("query", k, ["query", path, " ".join(words), "--mode", "only", "--format", "lines"])
            else:
                out = str(state["out"] / f"gen-{i}.knows.yaml")
                argv = ["gen", "--title", gen.phrase(rng, 4).title(), "--author", f"Author {i}"]
                argv += ["--doi", f"10.7999/gen-{state['seed']}-{i}", "--out", out, "--format", "lines"]
                yield ("gen", k, argv)

    def run(self, state, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op[2])
        return code, out.getvalue(), err.getvalue()

    def check(self, state, op, output) -> bool:
        kind, k, argv = op
        code, out, err = output
        f = state["corpus"].files[k]
        if kind == "lint":
            return oracles.lint_output_ok(code, out, f.expected_codes)
        if kind == "query":
            expected = oracles.expected_answer(f.tree, f.fault is None, argv[2], "only", {})
            return oracles.query_output_ok(code, out, expected)
        path = Path(argv[argv.index("--out") + 1])
        if kind == "gen":
            tree = yaml.safe_load(path.read_bytes())
            return (
                code == 0
                and out.strip() == f"wrote {path}"
                and (tree["title"], tree["authors"][0]["name"], tree["record_id"])
                == (argv[2], argv[4], argv[6])
            )
        condition = argv[argv.index("--condition") + 1]
        data = path.read_bytes()
        record, _ = serialization.load_record(data)
        counts = oracles.project_tokens(err)
        dropped = {
            "full": (),
            "minus_relations": ("relations",),
            "minus_evidence": ("relations", "evidence"),
            "statements_only": ("relations", "evidence", "actions"),
        }[condition]
        return (
            code == 0
            and oracles.tokens_monotone(counts)
            and counts[condition] == math.ceil(len(data) / 4)
            and serialization.emit_record(record) == data
            and all(getattr(record, name) == () for name in dropped)
        )


class AgentQuery(Workload):
    """Library ``consume`` over an in-memory registry, with versioned writes."""

    name = "agent_query"
    live = ("registry", "cache")

    def setup(self, seed: int):
        corpus = gen.agent_corpus(seed, AGENT_RECORDS)
        registry = graph.Registry(load_tree(tree) for tree in corpus.trees.values())
        return dict(seed=seed, corpus=corpus, registry=registry, cache=consumer.SidecarCache())

    def fresh(self, base: dict, window: int, epoch: int = 0) -> dict:
        # Passage providers are closures, which a deep copy would share.
        pages = base["corpus"].pages
        return dict(
            super().fresh(base, window, epoch),
            providers={rid: consumer.page_file_provider(gen.page_blob(p)) for rid, p in pages.items()},
            no_pages=consumer.page_file_provider(""),
        )

    def ops(self, state):
        c = state["corpus"]
        rng = _rng("agent-ops", state)
        trees, lint_ok = dict(c.trees), dict(c.lint_ok)
        clean = [rid for rid, t in trees.items() if lint_ok[rid] and t["knows_version"] == "0.9.0"]
        hedged = [rid for rid in clean if gen.HEDGE_PHRASE in trees[rid]["statements"][0]["text"]]
        failing = [rid for rid in trees if not lint_ok[rid]]
        future = [rid for rid, t in trees.items() if t["knows_version"] != "0.9.0"]
        versions = dict.fromkeys(trees, 1)
        for i in itertools.count():
            roll = gen.rotation(i, gen.GOLDEN)
            if roll < 1 / 50:
                rid = rng.choice(clean)
                versions[rid] += 1
                text = f"Claim 0: {gen.phrase(rng, 6)}."
                drop = rng.random() < 0.3
                tree = dict(trees[rid])
                tree["statements"] = [
                    dict(s, text=text) if s["id"] == "stmt:claim-0" else s
                    for s in tree["statements"]
                    if not (drop and s["id"] == "stmt:scope-limit")
                ]
                tree["version"] = dict(tree["version"], record=str(versions[rid]))
                trees[rid] = tree
                lint_ok[rid] = lint_ok[rid] and not drop
                yield ("write", rid, str(versions[rid]), text, drop)
                continue
            mode = "fallback" if gen.rotation(i, gen.SQRT2) < 0.3 else "only"
            roll = (roll - 1 / 50) / (1 - 1 / 50)
            if roll < 0.1:  # hedged claim: confident, but fallback must fetch pages
                rid = rng.choice(hedged)
                query = rng.sample(trees[rid]["statements"][0]["text"].split()[2:], 4)
            elif roll < 0.7:
                rid = rng.choice(clean)
                claims = [s for s in trees[rid]["statements"] if s["statement_type"] == "claim"]
                words = rng.choice(claims)["text"].rstrip(".").split()[2:]
                if roll < 0.45:
                    query = rng.sample(words, 4)
                else:  # half on-topic: retrieval succeeds below the threshold
                    query = rng.sample(words, 2) + rng.sample(gen.OFF_WORDS, 2)
            elif roll < 0.8:
                rid, query = rng.choice(clean), rng.sample(gen.OFF_WORDS, 3)
            else:  # not_found by unknown id, lint gate or version gate
                rid = rng.choice([c.unknown_ids, failing, future][int((roll - 0.8) * 15)])
                query = [gen.phrase(rng, 3)]
            yield ("query", rid, " ".join(query), mode, trees.get(rid), lint_ok.get(rid, False))

    def run(self, state, op):
        if op[0] == "write":
            _, rid, version, text, drop = op
            record = state["registry"].get(rid)
            statements = tuple(
                dataclasses.replace(s, text=text) if str(s.id) == "stmt:claim-0" else s
                for s in record.statements
                if not (drop and str(s.id) == "stmt:scope-limit")
            )
            record = dataclasses.replace(
                record,
                statements=statements,
                version=dataclasses.replace(record.version, record=version),
            )
            state["registry"].add(record)
            state["cache"].put(record, now=gen.NOW)
            return record
        _, rid, text, mode, _, _ = op
        return consumer.consume(
            consumer.Query(text=text),
            rid,
            mode=mode,
            registry=state["registry"],
            passage_source=state["providers"].get(rid, state["no_pages"]) if mode == "fallback" else None,
            cache=state["cache"],
            now=gen.NOW,
        )

    def check(self, state, op, output) -> bool:
        if op[0] == "write":
            return output.version.record == op[2] and state["registry"].get(op[1]) is not None
        _, rid, text, mode, tree, lint_ok = op
        pages = state["corpus"].pages.get(rid, {})
        return oracles.answer_ok(output, oracles.expected_answer(tree, lint_ok, text, mode, pages))


class GraphTrace(Workload):
    """Resolve + bounded trace and version-chain walks; writes rebuild the graph."""

    name = "graph_trace"
    live = ("registry", "graph")
    # Each write grows the registry, and trace cost follows its size: ten
    # writes per epoch keep it within 4% of the set-up size.
    epoch_ops = 250
    reference = "parse_and_walk"

    def setup(self, seed: int):
        corpus = gen.graph_corpus(seed, GRAPH_RECORDS)
        registry = graph.Registry(load_tree(tree) for tree in corpus.trees)
        return dict(seed=seed, corpus=corpus, registry=registry, graph=graph.build_graph(registry.records()))

    def fresh(self, base: dict, window: int, epoch: int = 0) -> dict:
        return dict(super().fresh(base, window, epoch), oracle=(0, None))

    def ops(self, state):
        c = state["corpus"]
        rng = _rng("graph-ops", state)
        trees = list(c.trees)
        by_id = {t["record_id"]: t for t in trees}
        replaces = {t["record_id"]: t.get("replaces") for t in trees}
        heads = [chain[-1] for chain in c.chains]
        for i in itertools.count():
            roll = gen.rotation(i, gen.GOLDEN)
            if roll < 1 / 25:
                chain = rng.randrange(len(heads))
                base = heads[chain]
                new = f"{base}~{len(trees)}"
                tree = dict(by_id[base], record_id=new, replaces=base)
                trees.append(tree)
                by_id[new], replaces[new], heads[chain] = tree, base, new
                yield ("write", base, new, len(trees), trees)
            elif roll < 0.16:
                start = heads[rng.randrange(len(heads))]
                yield ("chain", start, oracles.expected_chain(start, replaces))
            else:
                tree = rng.choice(trees)
                rid = tree["record_id"]
                entity = rng.choice(
                    [tree["subject_ref"]] + [e["id"] for key in ("statements", "evidence") for e in tree[key]]
                )
                if rng.random() < 0.5:
                    ref, home = entity, rid
                else:
                    ref, home = f"{rid}#{entity}", rng.choice(trees)["record_id"]
                depth = 1 + int(gen.rotation(i, gen.SQRT2) * 3)
                predicates = PREDICATE_FILTERS[int(gen.rotation(i, gen.SQRT3) * 3)]
                yield ("trace", ref, home, f"{rid}#{entity}", depth, predicates, len(trees), trees)

    def run(self, state, op):
        if op[0] == "write":
            registry = state["registry"]
            registry.add(dataclasses.replace(registry.get(op[1]), record_id=op[2], replaces=op[1]))
            state["graph"] = graph.build_graph(registry.records())
            return state["graph"]
        if op[0] == "chain":
            return graph.version_chain(op[1], state["registry"])
        _, ref, home, _, depth, predicates, _, _ = op
        qualified, entity = graph.resolve(ref, home, state["registry"])
        return qualified, entity, graph.trace(
            qualified, state["graph"], predicates=set(predicates) if predicates else None, depth=depth
        )

    def _oracle(self, state, trees: list, n: int) -> oracles.GraphOracle:
        # The op stream's list of trees only grows, so its first ``n`` are
        # the registry as the op saw it; ops are checked in order.
        if state["oracle"][0] != n:
            state["oracle"] = (n, oracles.GraphOracle(trees[:n]))
        return state["oracle"][1]

    def check(self, state, op, output) -> bool:
        if op[0] == "chain":
            return (output.links, output.complete) == op[2]
        if op[0] == "write":
            oracle = self._oracle(state, op[4], op[3])
            return len(output.edges) == len(oracle.edges) and {str(n) for n in output.nodes} == oracle.nodes
        _, _, _, expected, depth, predicates, n, trees = op
        qualified, entity, result = output
        if str(qualified) != expected or f"{qualified.record_id}#{entity.id}" != expected:
            return False
        nodes, edges = self._oracle(state, trees, n).trace(expected, depth, predicates)
        return oracles.trace_ok(result, nodes, edges)


class AuditBatch(Workload):
    """Corruption study, token report and answer-object gates per batch."""

    name = "audit_batch"
    chunk = 20

    def setup(self, seed: int):
        corpus = gen.audit_corpus(seed)
        return dict(seed=seed, corpus=corpus, records=[load_tree(t) for t in corpus.trees], emitted={})

    def ops(self, state):
        # Every op gets records renamed for it and a study seed of its own, so
        # no record, corrupted copy or projection is seen twice in a run.
        # The renamed ids are all one length, so a record emits as many bytes
        # under every name it gets.
        records, window = state["records"], state["window"]
        n = len(records)
        for i in itertools.count():
            suffix = f".w{window}.{i:06d}"
            start = (i * self.chunk) % n
            yield (
                start,
                [_renamed(r, suffix) for r in records[start : start + self.chunk]],
                (state["seed"] * 10 + window) * 1_000_000 + i,
                i % n,
                _renamed(records[i % n], suffix),
                i % len(state["corpus"].batches),
            )

    def run(self, state, op):
        _, chunk, study_seed, _, token_record, batch_index = op
        report = corruption.run_study(chunk, seed=study_seed)
        tokens = projection.token_report(token_record)
        batch = state["corpus"].batches[batch_index]
        verdicts = [matched.validate_matched_output(item.raw, batch.pages) for item in batch.items]
        return report, tokens, matched.gate_report(verdicts)

    def check(self, state, op, output) -> bool:
        start, _, _, token_index, token_record, batch_index = op
        report, tokens, gates = output
        if token_index not in state["emitted"]:
            # Byte counts from the program's own emitter: this checks the
            # token accounting; emission is checked on cli_files round trips.
            record = token_record
            state["emitted"][token_index] = {
                c: len(serialization.emit_record(projection.project(record, c))) for c in oracles.CONDITIONS
            }
        return (
            oracles.detection_ok(report, state["corpus"].flags[start : start + self.chunk])
            and oracles.tokens_ok(tokens, state["emitted"][token_index])
            and oracles.gates_ok(gates, state["corpus"].batches[batch_index].items)
        )
