"""Independent oracles for the benchmark's outputs.

Each oracle recomputes an expected result from the generator's document
trees and metadata, without calling the package under test, and compares
the program's output against it.  Every ``*_ok`` function returns True when
the output is correct.  The workloads run them right after each op, outside
its timing.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict, deque
from dataclasses import dataclass

HEDGING_PHRASES = (
    "insufficient evidence",
    "unclear from the sidecar",
    "does not discuss",
    "cannot determine",
)
READER_MAJOR = 0
TAU = 0.7
K = 5
CONDITIONS = ("full", "minus_relations", "minus_evidence", "statements_only")

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokens(text: str) -> set[str]:
    return set(_TOKEN_RE.findall(text.casefold()))


# ---------------------------------------------------------------------------
# Consumption: retrieval, gates and fallback


@dataclass(frozen=True)
class Expected:
    status: str
    confidence: float
    used: tuple[str, ...]
    pages: tuple[int, ...]


def _pool(tree: dict) -> list[tuple[str, str, set[str], list[dict]]]:
    """(id, composed text, terms, anchors) for statements then evidence."""
    pool = []
    for stmt in tree.get("statements", ()):
        pool.append((stmt["id"], stmt["text"], tokens(stmt["text"]), stmt.get("source_anchors", [])))
    for ev in tree.get("evidence", ()):
        terms = tokens(ev["summary"])
        for obs in ev.get("observations", ()):
            terms |= tokens(obs["metric"])
        pool.append((ev["id"], ev["summary"], terms, ev.get("source_anchors", [])))
    return pool


def expected_answer(
    tree: dict | None,
    lint_ok: bool,
    query: str,
    mode: str,
    pages: dict[int, str],
    tau: float = TAU,
    k: int = K,
) -> Expected:
    """What ``consume`` must return for one query, derived from the spec."""
    all_pages = tuple(sorted(pages))
    not_found = Expected("not_found", 0.0, (), all_pages if mode == "fallback" else ())
    if tree is None or int(tree["knows_version"].split(".")[0]) > READER_MAJOR or not lint_ok:
        return not_found
    rid = tree["record_id"]
    terms = tokens(query)
    scored = []
    for position, (eid, text, entity_terms, anchors) in enumerate(_pool(tree)):
        score = len(terms & entity_terms) / len(terms) if terms else 0.0
        if score > 0:
            scored.append((-score, position, eid, text, anchors))
    top = sorted(scored)[:k]
    used = tuple(f"{rid}#{eid}" for _, _, eid, _, _ in top)
    confidence = -top[0][0] if top else 0.0
    stage1 = Expected("answer" if top else "abstain", confidence, used, ())
    text = "\n".join(f"[{rid}#{eid}] {body}" for _, _, eid, body, _ in top).casefold()
    hedged = any(phrase in text for phrase in HEDGING_PHRASES)
    if mode == "only" or (top and confidence >= tau and not hedged):
        return stage1
    anchor_pages = sorted(
        {
            int(m.group())
            for _, _, _, _, anchors in top
            for a in anchors
            if a["locator_type"] == "page" and (m := re.search(r"\d+", a["locator"]))
        }
    )
    wanted = [p for p in anchor_pages if p in pages] if anchor_pages else sorted(pages)
    best = confidence
    for page in wanted:
        if terms:
            best = max(best, len(terms & tokens(pages[page])) / len(terms))
    if (not top and not wanted) or best <= 0.0:
        return Expected("abstain", 0.0, used, tuple(wanted))
    return Expected("answer", best, used, tuple(wanted))


def answer_ok(answer, expected: Expected) -> bool:
    """Compare a ``ComposedAnswer`` with the recomputed expectation."""
    return (
        answer.status == expected.status
        and abs(answer.confidence - expected.confidence) < 1e-12
        and tuple(answer.trace.used) == expected.used
        and tuple(p.page for p in answer.trace.passages) == expected.pages
    )


# ---------------------------------------------------------------------------
# Graph: brute-force BFS over edges derived from the trees


def tree_edges(tree: dict) -> list[tuple[str, str, str, str]]:
    """(subject, predicate, object, relation) qualified edges of one record."""
    rid = tree["record_id"]

    def qualify(ref: str) -> str:
        return ref if "#" in ref else f"{rid}#{ref}"

    return [
        (qualify(r["subject_ref"]), r["predicate"], qualify(r["object_ref"]), f"{rid}#{r['id']}")
        for r in tree.get("relations", ())
    ]


def tree_nodes(tree: dict) -> list[str]:
    rid = tree["record_id"]
    out = []
    for art in tree.get("artifacts", ()):
        out.append(f"{rid}#{art['id']}")
        out.extend(f"{rid}#{rep['id']}" for rep in art.get("representations", ()))
    for key in ("statements", "evidence", "relations", "actions"):
        out.extend(f"{rid}#{e['id']}" for e in tree.get(key, ()))
    return out


class GraphOracle:
    """Adjacency over one registry state, for exhaustive trace checks."""

    def __init__(self, trees: list[dict]) -> None:
        self.edges = [e for t in trees for e in tree_edges(t)]
        self.nodes = {n for t in trees for n in tree_nodes(t)}
        self.nodes.update(n for s, _, o, _ in self.edges for n in (s, o))
        self.adjacent: dict[str, list[int]] = defaultdict(list)
        for i, (s, _, o, _) in enumerate(self.edges):
            self.adjacent[s].append(i)
            if o != s:
                self.adjacent[o].append(i)

    def trace(self, seed: str, depth: int, predicates) -> tuple[set[str], Counter]:
        """Nodes within ``depth`` hops, and every edge touching a node
        fewer than ``depth`` hops out, both directions."""
        dist = {seed: 0}
        queue = deque([seed])
        used: set[int] = set()
        while queue:
            node = queue.popleft()
            if dist[node] >= depth:
                continue
            for i in self.adjacent.get(node, ()):
                s, p, o, _ = self.edges[i]
                if predicates is not None and p not in predicates:
                    continue
                used.add(i)
                for other in (s, o):
                    if other not in dist:
                        dist[other] = dist[node] + 1
                        queue.append(other)
        return set(dist), Counter(self.edges[i] for i in used)


def trace_ok(result, expected_nodes: set[str], expected_edges: Counter) -> bool:
    nodes = [str(n) for n in result.nodes]
    edges = Counter(
        (str(e.subject), e.predicate, str(e.object), str(e.relation_id)) for e in result.edges
    )
    return len(nodes) == len(set(nodes)) and set(nodes) == expected_nodes and edges == expected_edges


def expected_chain(start: str, replaces: dict[str, str | None]) -> tuple[tuple[str, ...], bool]:
    links, current = [], start
    while current is not None:
        if current not in replaces:
            return tuple(links), False
        links.append(current)
        current = replaces[current]
    return tuple(links), True


# ---------------------------------------------------------------------------
# Audit: detection profile, token accounting, answer-object gates


def detection_ok(report, flags: list[tuple[bool, bool, bool]]) -> bool:
    """Structural faults are all caught; semantic faults are all silent."""
    limitation, numeric, soft = (sum(f[i] for f in flags) for i in range(3))
    rows = {r.kind.value: (r.applicable, r.detected) for r in report.results}
    return report.corpus_size == len(flags) and rows == {
        "omit_limitation": (limitation, limitation),
        "wrong_number": (numeric, 0),
        "inflate_confidence": (soft, 0),
    }


def tokens_monotone(counts: dict[str, int]) -> bool:
    """One count per condition, non-increasing as collections drop."""
    return list(counts) == list(CONDITIONS) and all(
        counts[a] >= counts[b] for a, b in zip(CONDITIONS, CONDITIONS[1:])
    )


def tokens_ok(counts: dict[str, int], emitted_bytes: dict[str, int]) -> bool:
    """ceil(bytes / 4) of each condition's emission, and monotone."""
    return tokens_monotone(counts) and all(counts[c] == math.ceil(emitted_bytes[c] / 4) for c in CONDITIONS)


def gates_ok(report, items) -> bool:
    """Each item's three verdicts and the batch rates match the plants."""
    n = len(items)
    if report.total != n or len(report.verdicts) != n:
        return False
    for verdict, item in zip(report.verdicts, items):
        if (verdict.parse_ok, verdict.page_echo_ok, verdict.quote_verbatim_ok) != (
            item.parse_ok,
            item.page_ok,
            item.quote_ok,
        ):
            return False
    return (
        report.parse_rate == sum(i.parse_ok for i in items) / n
        and report.page_echo_rate == sum(i.page_ok for i in items) / n
        and report.quote_verbatim_rate == sum(i.quote_ok for i in items) / n
    )


# ---------------------------------------------------------------------------
# CLI output


def lint_output_ok(code: int, stdout: str, expected_codes: frozenset) -> bool:
    """``lint --format lines``: exit 1 with exactly the planted codes, else 0
    and no findings."""
    found = {line.split()[0] for line in stdout.splitlines() if line.split()[1:2] == ["error"]}
    return code == (1 if expected_codes else 0) and found == set(expected_codes)


def query_output_ok(code: int, stdout: str, expected: Expected) -> bool:
    """``query --mode only --format lines``: status, used ids and exit code."""
    lines = stdout.splitlines()
    status = [line.split(" ", 1)[1] for line in lines if line.startswith("status ")]
    used = tuple(line.split(" ", 1)[1] for line in lines if line.startswith("used "))
    return status == [expected.status] and used == expected.used and code == (
        0 if expected.status == "answer" else 1
    )


_TOKENS_LINE = re.compile(r"^# tokens (\w+)=(\d+)$", re.MULTILINE)


def project_tokens(stderr: str) -> dict[str, int]:
    return {name: int(count) for name, count in _TOKENS_LINE.findall(stderr)}
