"""The ``knows`` command line tool.

Exit codes are stable: 0 success, 1 failed lint / failed gates / an abstain
or not_found answer, 2 usage errors, 3 I/O or parse errors.  Setting
``KNOWS_NO_NETWORK=1`` disables URL probing regardless of flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import urllib.request
from functools import cache
from pathlib import Path
from typing import Optional, Sequence

from . import corruption, matched
from .consumer import Query, consume, page_file_provider, parse_page_markers
from .errors import InvalidInputError, KnowsError, MalformedError
from .graph import Registry, build_graph, export_edge_list, resolve, trace, version_chain
from .linter import LintReport, lint, render_lines, render_text
from .model import Author, Identifiers, Locator, Profile, parse_profile
from .projection import ProjectionCondition, count_tokens, emit_projections, project
from .scaffold import ScaffoldInput, scaffold_record, sidecar_filename
from .serialization import emit_record, load_record

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _read_record(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _IoFailure(f"cannot read {path}: {exc}")
    try:
        record, _ = load_record(data)
    except KnowsError as exc:
        raise _IoFailure(f"cannot parse {path}: {exc}")
    return record


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _IoFailure(f"cannot read {path}: {exc}")


class _IoFailure(Exception):
    pass


def _default_fetcher(url: str) -> int:
    request = urllib.request.Request(url, method="HEAD")
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status


def _no_network() -> bool:
    return os.environ.get("KNOWS_NO_NETWORK") == "1"


def _print_report(report: LintReport, fmt: str) -> int:
    """Print a lint report in ``--format`` and return the exit code it earns."""
    if fmt == "lines":
        rendered = render_lines(report)
        if rendered:
            print(rendered)
    else:
        print(render_text(report))
    return EXIT_OK if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args: argparse.Namespace) -> int:
    identifiers = None
    if args.doi or args.arxiv or args.url:
        identifiers = Identifiers(doi=args.doi, arxiv=args.arxiv, url=args.url)
    locator = None
    if args.source:
        kind = "url" if args.source.startswith(("http://", "https://")) else "path"
        locator = Locator(type=kind, value=args.source)
    spec = ScaffoldInput(
        title=args.title,
        authors=tuple(Author(name=name) for name in args.author),
        identifiers=identifiers,
        profile=args.profile,
        source_locator=locator,
        license=args.license,
    )
    try:
        record = scaffold_record(spec)
    except InvalidInputError as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = args.out
    if out is None and args.source and not args.source.startswith(("http://", "https://")):
        out = sidecar_filename(args.source)
    if out is None:
        print("gen: no output path; pass --out or a --source path", file=sys.stderr)
        return EXIT_USAGE
    try:
        Path(out).write_bytes(emit_record(record))
    except OSError as exc:
        print(f"gen: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    report = lint(record)
    print(f"wrote {out}")
    return _print_report(report, args.format)


def cmd_lint(args: argparse.Namespace) -> int:
    record = _read_record(args.file)
    check_urls = args.check_urls and not _no_network()
    report = lint(
        record,
        check_urls=check_urls,
        fetcher=_default_fetcher if check_urls else None,
        liveness_errors=args.liveness_errors,
    )
    return _print_report(report, args.format)


def cmd_query(args: argparse.Namespace) -> int:
    record = _read_record(args.file)
    registry = Registry([record])
    passage_source = None
    if args.passages:
        passage_source = page_file_provider(_read_text(args.passages))
    if args.mode == "fallback" and passage_source is None:
        print("query: fallback mode requires --passages", file=sys.stderr)
        return EXIT_USAGE
    answer = consume(
        Query(text=args.question, k=args.k),
        record.record_id,
        mode=args.mode,
        tau=args.tau,
        registry=registry,
        passage_source=passage_source,
    )
    pages = sorted({p.page for p in answer.trace.passages})
    if args.format == "lines":
        print(f"status {answer.status}")
        print(f"confidence {answer.confidence:.4f}")
        for used in answer.trace.used:
            print(f"used {used}")
        for page in pages:
            print(f"page {page}")
        if answer.reason:
            print(f"reason {answer.reason}")
    else:
        payload = {
            "status": answer.status,
            "confidence": round(answer.confidence, 4),
            "text": answer.text,
            "reason": answer.reason,
            "used": list(answer.trace.used),
            "pages": pages,
            "baseline_required": answer.baseline_required,
        }
        print(json.dumps(payload, indent=2))
    return EXIT_OK if answer.status in ("answer", "partial") else EXIT_FAIL


def cmd_graph(args: argparse.Namespace) -> int:
    records = [_read_record(path) for path in args.files]
    registry = Registry(records)
    if args.chain:
        chain = version_chain(args.chain, registry)
        for record_id in chain.links:
            print(record_id)
        if not chain.complete:
            print("# chain incomplete: earliest predecessor not in registry")
        return EXIT_OK
    graph = build_graph(records)
    if args.seed:
        try:
            home = records[0].record_id
            qualified, _ = resolve(args.seed, home, registry)
        except KnowsError as exc:
            print(f"graph: {exc}", file=sys.stderr)
            return EXIT_FAIL
        predicates = set(args.predicates.split(",")) if args.predicates else None
        graph = trace(qualified, graph, predicates=predicates, depth=args.depth)
    print(export_edge_list(graph))
    return EXIT_OK


def cmd_project(args: argparse.Namespace) -> int:
    record = _read_record(args.file)
    if args.tokens:
        emitted = emit_projections(record)
        payload = emitted[args.condition]
    else:
        payload = emit_record(project(record, args.condition))
    if args.out:
        try:
            Path(args.out).write_bytes(payload)
        except OSError as exc:
            print(f"project: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(payload.decode("utf-8"))
    if args.tokens:
        counts = {name: count_tokens(data) for name, data in emitted.items()}
        full = counts["full"]
        for name, count in counts.items():
            print(f"# tokens {name}={count}", file=sys.stderr)
        savings = 1.0 - counts[args.condition] / full if full else 0.0
        print(f"# savings_vs_full={savings:.4f}", file=sys.stderr)
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    if args.corpus and args.matched:
        print("audit: --corpus and --matched are mutually exclusive", file=sys.stderr)
        return EXIT_USAGE
    if args.corpus:
        paths = sorted(Path(args.corpus).glob("*.knows.yaml"))
        if not paths:
            print(f"audit: no *.knows.yaml files under {args.corpus}", file=sys.stderr)
            return EXIT_IO
        records = [_read_record(str(p)) for p in paths]
        report = corruption.run_study(records, seed=args.study_seed)
        print(corruption.render_report(report))
        omit = report.by_kind(corruption.InjectionKind.OMIT_LIMITATION)
        silent = [
            report.by_kind(corruption.InjectionKind.WRONG_NUMBER),
            report.by_kind(corruption.InjectionKind.INFLATE_CONFIDENCE),
        ]
        ok = omit.detected == omit.applicable and all(r.detected == 0 for r in silent)
        return EXIT_OK if ok else EXIT_FAIL
    if args.matched:
        if not args.context:
            print("audit: --matched requires --context", file=sys.stderr)
            return EXIT_USAGE
        matched_text = _read_text(args.matched)
        context_text = _read_text(args.context)
        try:
            raw_items = json.loads(matched_text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise _IoFailure(f"cannot parse {args.matched}: {exc}")
        if not isinstance(raw_items, list):
            raw_items = [raw_items]
        pages = parse_page_markers(context_text)
        verdicts = [matched.validate_matched_output(item, pages) for item in raw_items]
        report = matched.gate_report(verdicts)
        print(matched.render_gate_report(report))
        return EXIT_OK if report.passed else EXIT_FAIL
    print("audit: pass either --corpus or --matched", file=sys.stderr)
    return EXIT_USAGE


# ---------------------------------------------------------------------------
# Parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _profile(text: str) -> Profile:
    try:
        return parse_profile(text)
    except MalformedError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="knows", description="Sidecar record toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=["text", "lines"], default="text")

    p = sub.add_parser("gen", help="scaffold a new sidecar record", parents=[shared])
    p.add_argument("--title", required=True)
    p.add_argument("--author", action="append", default=[], help="repeatable")
    p.add_argument("--doi")
    p.add_argument("--arxiv")
    p.add_argument("--url")
    p.add_argument("--source", help="path or URL of the source document")
    p.add_argument("--out", help="output path; defaults to <source>.knows.yaml")
    p.add_argument("--profile", type=_profile, default="paper@1")
    p.add_argument("--license", default="CC-BY-4.0")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("lint", help="run the record checks", parents=[shared])
    p.add_argument("file")
    p.add_argument("--check-urls", action="store_true")
    p.add_argument("--liveness-errors", action="store_true")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("query", help="answer a question from a sidecar", parents=[shared])
    p.add_argument("file")
    p.add_argument("question")
    p.add_argument("--mode", choices=["only", "fallback"], default="only")
    p.add_argument("--tau", type=float, default=0.7)
    p.add_argument("-k", type=_positive_int, default=5)
    p.add_argument("--passages", help="[PAGE n]-marked text file for fallback")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("graph", help="relation graph over one or more records", parents=[shared])
    p.add_argument("files", nargs="+")
    p.add_argument("--seed", help="entity reference to trace from")
    p.add_argument("--predicates", help="comma-separated predicate filter")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--chain", help="record_id whose version chain to print")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("project", help="emit a record under an ablation condition", parents=[shared])
    p.add_argument("file")
    p.add_argument(
        "--condition",
        choices=[c.value for c in ProjectionCondition],
        default="full",
    )
    p.add_argument("--out")
    p.add_argument("--tokens", action="store_true", help="report token counts on stderr")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("audit", help="corruption study or answer-object gates", parents=[shared])
    p.add_argument("--corpus", help="directory of *.knows.yaml records")
    p.add_argument("--study-seed", type=int, default=0)
    p.add_argument("--matched", help="JSON file of structured answer objects")
    p.add_argument("--context", help="[PAGE n]-marked context the agent saw")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _IoFailure as exc:
        print(f"knows: {exc}", file=sys.stderr)
        return EXIT_IO
    except KnowsError as exc:
        print(f"knows: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
