"""The CLI's exit-code contract, for whatever file a command reads.

``knows`` exits 0 on success, 1 on a failed check or answer, 2 on a usage
error and 3 on an I/O or parse error (the ``cli`` docstring).  Hypothesis draws
a command (``lint``, ``query`` in both modes, ``project --tokens --out``,
``graph`` alone, with a seed and a depth or with ``--chain``, ``audit --corpus``
or ``audit --matched``) and the file it reads: a document of the robustness
mutation strategy, or raw bytes that are not UTF-8, empty, or nested 5,000
deep; examples add record files with one value nested 3,000 deep.
``cli.main`` returns 0-3 and raises nothing but argparse's usage exit.
A record file that ``load_record`` rejects gives 3; one it accepts never
does, every output path being writable, unless the record cannot be emitted
(``project``).

The default profile runs a modest number of examples.  For a long run:

    HYPOTHESIS_PROFILE=fuzz pytest tests/test_cli_exit_codes.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from helpers import DEEP_VALUE_DOCS, FIXTURES
from knows_sidecar import cli
from knows_sidecar.errors import KnowsError
from knows_sidecar.projection import emit_projections
from knows_sidecar.serialization import load_record
from test_robustness import mutated_documents

PAGES = str(FIXTURES / "moore_pages.txt")
RAW = [
    b"record_id: caf\xe9\n",
    b"",
    b"[" * 5000 + b"]" * 5000,
    b"a: " + b"{a: " * 5000 + b"1" + b"}" * 5000,
    (FIXTURES / "moore_matched.json").read_bytes(),
]
MOORE = (FIXTURES / "moore.knows.yaml").read_bytes()
NON_STRING_RECORD_ID = MOORE.replace(
    b"record_id: moore-1965", b"record_id: [moore-1965]", 1
)

# "{file}", "{out}" and "{dir}" stand for paths made when the command runs.
commands = st.one_of(
    st.just(["lint", "{file}"]),
    st.sampled_from(["only", "fallback"]).map(
        lambda mode: ["query", "{file}", "cost per component", "--mode", mode, "--passages", PAGES]
    ),
    st.just(["project", "{file}", "--tokens", "--out", "{out}"]),
    st.just(["graph", "{file}"]),
    st.tuples(st.sampled_from(["art:paper", "stmt:scaling", "ev:absent"]), st.integers(-2, 3)).map(
        lambda s: ["graph", "{file}", "--seed", s[0], "--depth", str(s[1])]
    ),
    st.sampled_from(["moore-1965", "10.9999/absent"]).map(lambda c: ["graph", "{file}", "--chain", c]),
    st.just(["audit", "--corpus", "{dir}"]),
    st.just(["audit", "--matched", "{file}", "--context", PAGES]),
)
files = st.one_of(mutated_documents(), st.sampled_from(RAW))


def _exit_code(argv) -> int:
    """What ``knows`` exits with: main's return, or argparse's usage exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


def _expected(argv, data: bytes) -> set[int]:
    if "--depth" in argv and int(argv[argv.index("--depth") + 1]) < 0:
        return {cli.EXIT_USAGE}
    if argv[:2] == ["audit", "--matched"]:
        try:
            json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError):
            return {cli.EXIT_IO}
        return {cli.EXIT_OK, cli.EXIT_FAIL}
    try:
        record, _ = load_record(data)
    except KnowsError:
        return {cli.EXIT_IO}
    if argv[0] == "project":
        try:
            emit_projections(record)
        except KnowsError:
            return {cli.EXIT_IO}
    return {cli.EXIT_OK, cli.EXIT_FAIL}


@settings(deadline=None)
@given(commands, files)
@example(["audit", "--matched", "{file}", "--context", PAGES], RAW[0])
@example(["query", "{file}", "q", "--mode", "only", "--passages", PAGES], NON_STRING_RECORD_ID)
@example(["graph", "{file}", "--seed", "art:paper", "--depth", "2"], NON_STRING_RECORD_ID)
@example(["graph", "{file}", "--chain", "10.9999/absent"], MOORE)
@example(["lint", "{file}"], DEEP_VALUE_DOCS["role"])
@example(["lint", "{file}"], DEEP_VALUE_DOCS["version.record"])
@example(["project", "{file}", "--tokens", "--out", "{out}"], DEEP_VALUE_DOCS["version.spec"])
@example(["audit", "--corpus", "{dir}"], DEEP_VALUE_DOCS["version.spec"])
@example(["audit", "--corpus", "{dir}"], DEEP_VALUE_DOCS["evidence id"])
@example(["graph", "{file}"], DEEP_VALUE_DOCS["record_id"])
def test_exit_code_follows_the_contract(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp, "corpus")
        corpus.mkdir()
        path = corpus / "drawn.knows.yaml"
        path.write_bytes(data)
        paths = {"{file}": str(path), "{out}": str(Path(tmp, "out.knows.yaml")), "{dir}": str(corpus)}
        argv = [paths.get(arg, arg) for arg in command]
        assert _exit_code(argv) in _expected(command, data)
