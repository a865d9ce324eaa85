"""Span tracing from outside the program, for the traced run's per-layer numbers.

The tracer replaces public module-level names of the package (and two class
attributes) with timing wrappers, and restores them afterwards; it edits no
source.  A span records name, start, end, parent span and op id, and spans
are kept in memory until the run writes them out.  A seam that no longer
exists is listed as absent and its metrics read 0.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import random
import statistics
import time
from collections import defaultdict

# (module, attribute, span name).  A name imported into several modules is
# wrapped in each, under one span name.
SEAMS = [
    ("serialization", "load_record", "serialization.load_record"),
    ("cli", "load_record", "serialization.load_record"),
    ("serialization", "emit_record", "serialization.emit_record"),
    ("cli", "emit_record", "serialization.emit_record"),
    ("projection", "emit_record", "serialization.emit_record"),
    ("serialization", "record_to_tree", "serialization.record_to_tree"),
    ("linter", "document_tree", "linter.document_tree"),
    ("linter", "check_schema", "linter.check_schema"),
    ("schema", "validate_tree", "schema.validate_tree"),
    ("linter", "check_crossrefs", "linter.check_crossrefs"),
    ("linter", "check_id_uniqueness", "linter.check_id_uniqueness"),
    ("linter", "check_id_prefixes", "linter.check_id_prefixes"),
    ("linter", "check_predicates", "linter.check_predicates"),
    ("linter", "check_discoverability", "linter.check_discoverability"),
    ("consumer", "lint", "linter.lint"),
    ("corruption", "lint", "linter.lint"),
    ("cli", "lint", "linter.lint"),
    ("consumer", "consume", "consumer.consume"),
    ("cli", "consume", "consumer.consume"),
    ("consumer", "retrieve_top_k", "consumer.retrieve_top_k"),
    ("consumer", "detect_hedging", "consumer.detect_hedging"),
    ("graph", "build_graph", "graph.build_graph"),
    ("graph", "trace", "graph.trace"),
    ("graph", "resolve", "graph.resolve"),
    ("graph", "version_chain", "graph.version_chain"),
    ("projection", "token_report", "projection.token_report"),
    ("corruption", "inject", "corruption.inject"),
    ("corruption", "run_study", "corruption.run_study"),
    ("matched", "normalize_text", "matched.normalize_text"),
    ("matched", "quote_in_page", "matched.quote_in_page"),
    ("matched", "validate_matched_output", "matched.validate_matched_output"),
    ("matched", "gate_report", "matched.gate_report"),
    ("cli", "scaffold_record", "scaffold.scaffold_record"),
    ("cli", "main", "cli.main"),
]

_PER_OP = "ms/op"
_SELF = [
    "serialization.yaml_parse",
    "serialization.load_record",
    "serialization.yaml_dump",
    "serialization.emit_record",
    "serialization.record_to_tree",
    "linter.lint",
    "linter.check_schema",
    "schema.validate_tree",
    "linter.check_crossrefs",
    "linter.check_id_uniqueness",
    "linter.check_id_prefixes",
    "linter.check_predicates",
    "linter.check_discoverability",
    "consumer.consume",
    "consumer.retrieve_top_k",
    "consumer.reference_composer",
    "consumer.passage_source",
    "consumer.detect_hedging",
    "model.KnowsRecord.entity_index",
    "graph.build_graph",
    "graph.trace",
    "graph.resolve",
    "graph.version_chain",
    "projection.token_report",
    "corruption.inject",
    "corruption.run_study",
    "matched.normalize_text",
    "matched.quote_in_page",
    "scaffold.scaffold_record",
    "cli.main",
]
_CALLS = [
    "serialization.yaml_parse",
    "serialization.load_record",
    "serialization.emit_record",
    "serialization.record_to_tree",
    "linter.lint",
    "consumer.consume",
    "model.KnowsRecord.entity_index",
]
STATUSES = ("answer", "abstain", "not_found")
CURVE_SIZES = (100, 1000, 10000)

# Every per-layer metric the traced run reports, with its unit.  Times and
# counts are per op of the traced phase, so runs of different length compare.
PER_LAYER = (
    [(f"{name}.self_ms", _PER_OP) for name in _SELF]
    + [(f"{name}.calls", "count/op") for name in _CALLS]
    + [
        ("linter.lint.repeat_ratio", "ratio"),
        ("consumer.consume.lint_share", "ratio"),
        ("consumer.fallback.ratio", "ratio"),
        ("consumer.cache.hit_ratio", "ratio"),
        ("consumer.detect_hedging.hit_ratio", "ratio"),
    ]
    + [(f"consumer.status.{s}.share", "ratio") for s in STATUSES]
    + [
        ("graph.trace.result_edges", "count/call"),
        ("projection.token_report.emit_calls", "count/call"),
        ("matched.normalize_text.calls_per_item", "count/item"),
    ]
    + [(f"graph.trace.p50_ms.n{n}", "ms") for n in CURVE_SIZES]
    + [(f"graph.build_graph.ms.n{n}", "ms") for n in CURVE_SIZES]
    + [
        ("bench.op.ms", _PER_OP),
        ("bench.attributed.share", "ratio"),
        ("bench.trace.overhead", "ratio"),
    ]
)


class _YamlProxy:
    """Stands in for the ``yaml`` module inside ``serialization``."""

    def __init__(self, real, tracer) -> None:
        self._real = real
        self.safe_dump = tracer.wrap("serialization.yaml_dump", real.safe_dump)
        # Materialize inside the span so the parse is timed where it happens.
        self.safe_load_all = tracer.wrap(
            "serialization.yaml_parse", lambda *a, **k: list(real.safe_load_all(*a, **k))
        )

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op: int | None = None
        self.active = False
        self.counts: dict[str, int] = defaultdict(int)
        self.linted: dict[int, object] = {}
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, on_call=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op])
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index][1:3] = start, end
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    def run_op(self, fn, *args):
        """Call ``fn`` as one traced op under a root ``bench.op`` span."""
        self.op = 0 if self.op is None else self.op + 1
        self.active = True
        try:
            return self.wrap("bench.op", fn)(*args)
        finally:
            self.active = False

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.absent = []
        pkg = "knows_sidecar"
        mods = {
            name: importlib.import_module(f"{pkg}.{name}")
            for name in (
                "cli",
                "consumer",
                "corruption",
                "graph",
                "linter",
                "matched",
                "model",
                "projection",
                "schema",
                "serialization",
            )
        }
        hooks = {
            "linter.lint": self._on_lint,
            "consumer.consume": self._on_consume,
            "consumer.detect_hedging": lambda a, k, r: self._count("hedged", bool(r)),
            "graph.trace": lambda a, k, r: self._count("trace_edges", len(r.edges)),
        }
        for module, attr, name in SEAMS:
            owner = mods[module]
            if not hasattr(owner, attr):
                self.absent.append(f"{module}.{attr}")
                continue
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), hooks.get(name)))

        serialization = mods["serialization"]
        if hasattr(serialization, "yaml"):
            self._patch(serialization, "yaml", _YamlProxy(serialization.yaml, self))
        else:
            self.absent.append("serialization.yaml")
        record_cls = getattr(mods["model"], "KnowsRecord", None)
        if record_cls is not None and hasattr(record_cls, "entity_index"):
            traced = self.wrap("model.KnowsRecord.entity_index", record_cls.entity_index)
            self._patch(record_cls, "entity_index", traced)
        else:
            self.absent.append("model.KnowsRecord.entity_index")

        consumer = mods["consumer"]
        consume = next(
            (orig for owner, attr, orig in self._restore if (owner, attr) == (consumer, "consume")),
            None,
        )
        defaults = getattr(consume, "__kwdefaults__", None) or {}
        if "composer" in defaults:
            self._patch_default(defaults, "composer", self.wrap(
                "consumer.reference_composer",
                defaults["composer"],
                lambda a, k, r: self._count("fallback_fetch", k.get("passages") is not None),
            ))
        else:
            self.absent.append("consumer.consume(composer=)")
        cache_cls = getattr(consumer, "SidecarCache", None)
        if cache_cls is not None and hasattr(cache_cls, "get_latest"):
            self._patch(cache_cls, "get_latest", self.wrap(
                "consumer.SidecarCache.get_latest",
                cache_cls.get_latest,
                lambda a, k, r: self._count("cache_hit", r is not None),
            ))
        else:
            self.absent.append("consumer.SidecarCache.get_latest")
        provider = getattr(consumer, "page_file_provider", None)
        if provider is not None:
            self._patch(
                consumer,
                "page_file_provider",
                lambda *a, **k: self.wrap("consumer.passage_source", provider(*a, **k)),
            )
        else:
            self.absent.append("consumer.page_file_provider")

    def _patch_default(self, defaults: dict, key: str, value) -> None:
        self._restore.append((defaults, key, defaults[key]))
        defaults[key] = value

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # -- counters ----------------------------------------------------------

    def _count(self, key: str, hit) -> None:
        self.counts[key + ".calls"] += 1
        self.counts[key + ".hits"] += int(hit)

    def _on_lint(self, args, kwargs, result) -> None:
        record = args[0] if args else kwargs.get("record")
        self._count("lint_repeat", id(record) in self.linted)
        self.linted[id(record)] = record  # held so that ids are never reused

    def _on_consume(self, args, kwargs, result) -> None:
        self._count("fallback_mode", kwargs.get("mode") == "fallback")
        for status in STATUSES:
            self._count(f"status.{status}", result.status == status)

    # -- reduction ---------------------------------------------------------

    def metrics(self, ops: int, overhead: float, curve: dict[str, float]) -> dict[str, float]:
        durations = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                child[parent] += durations[i]
        self_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, _, _, _, _) in enumerate(self.spans):
            self_ms[name] += (durations[i] - child[i]) * 1000
            calls[name] += 1
        emits_in_report = sum(
            1
            for name, _, _, parent, _ in self.spans
            if name == "serialization.emit_record" and self._under(parent, "projection.token_report")
        )
        lint_in_consume = sum(
            durations[i]
            for i, s in enumerate(self.spans)
            if s[0] == "linter.lint" and self._under(s[3], "consumer.consume")
        )
        consume_total = sum(d for d, s in zip(durations, self.spans) if s[0] == "consumer.consume")
        op_total = sum(d for d, s in zip(durations, self.spans) if s[0] == "bench.op")

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def share(key: str) -> float:
            return ratio(self.counts[key + ".hits"], self.counts[key + ".calls"])

        out = {f"{n}.self_ms": self_ms.get(n, 0.0) / ops for n in _SELF}
        out.update({f"{n}.calls": calls.get(n, 0) / ops for n in _CALLS})
        out["linter.lint.repeat_ratio"] = share("lint_repeat")
        out["consumer.consume.lint_share"] = ratio(lint_in_consume, consume_total)
        out["consumer.fallback.ratio"] = ratio(
            self.counts["fallback_fetch.hits"], self.counts["fallback_mode.hits"]
        )
        out["consumer.cache.hit_ratio"] = share("cache_hit")
        out["consumer.detect_hedging.hit_ratio"] = share("hedged")
        out.update({f"consumer.status.{s}.share": share(f"status.{s}") for s in STATUSES})
        out["graph.trace.result_edges"] = ratio(
            self.counts["trace_edges.hits"], self.counts["trace_edges.calls"]
        )
        out["projection.token_report.emit_calls"] = ratio(
            emits_in_report, calls.get("projection.token_report", 0)
        )
        out["matched.normalize_text.calls_per_item"] = ratio(
            calls.get("matched.normalize_text", 0), calls.get("matched.validate_matched_output", 0)
        )
        out.update(curve)
        out["bench.op.ms"] = op_total * 1000 / ops
        out["bench.attributed.share"] = ratio(op_total - self_ms.get("bench.op", 0.0) / 1000, op_total)
        out["bench.trace.overhead"] = overhead
        return out

    def _under(self, index, name: str) -> bool:
        while index is not None:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def write(self, path, header: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(dict(header, absent=self.absent)) + "\n")
            for name, start, end, parent, op in self.spans:
                record = {
                    "name": name,
                    "start_ms": (start - origin) * 1000,
                    "end_ms": (end - origin) * 1000,
                    "parent": parent,
                    "op": op,
                }
                out.write(json.dumps(record) + "\n")


def size_curve(records, seed: int) -> dict[str, float]:
    """Graph build time and depth-2 trace p50 at 10^2, 10^3 and 10^4 records.

    Larger corpora are renamed replicas of ``records`` whose cross-record
    references are renamed with them, so the graph's shape repeats.
    """
    from knows_sidecar import graph

    def renamed(record, k: int):
        suffix = f"~r{k}"

        def ref(r):
            if getattr(r, "record_id", None):
                return dataclasses.replace(r, record_id=r.record_id + suffix)
            return r

        return dataclasses.replace(
            record,
            record_id=record.record_id + suffix,
            replaces=record.replaces + suffix if record.replaces else None,
            relations=tuple(
                dataclasses.replace(rel, subject_ref=ref(rel.subject_ref), object_ref=ref(rel.object_ref))
                for rel in record.relations
            ),
        )

    rng = random.Random(f"curve:{seed}")
    out = {}
    for n in CURVE_SIZES:
        corpus = [
            records[i] if i < len(records) else renamed(records[i % len(records)], i // len(records))
            for i in range(n)
        ]
        builds = []
        for _ in range(3 if n < 10000 else 1):
            start = time.perf_counter()
            built = graph.build_graph(corpus)
            builds.append(time.perf_counter() - start)
        times = []
        for _ in range(11):
            record = rng.choice(corpus)
            start = time.perf_counter()
            graph.trace(graph.QualifiedId(record.record_id, record.subject_ref), built, depth=2)
            times.append(time.perf_counter() - start)
        out[f"graph.build_graph.ms.n{n}"] = statistics.median(builds) * 1000
        out[f"graph.trace.p50_ms.n{n}"] = statistics.median(times) * 1000
    return out
