"""The YAML paths agree with PyYAML's own, and every emitted record reads back.

``serialization`` parses and emits with libyaml whenever PyYAML was built
with it, and with the pure-Python loader and emitter otherwise.  These tests
hold the emitted bytes to ``yaml.dump`` with the same dumper on any tree,
hold every record emission accepts to reloading to the same bytes, hold the
two loaders to the same trees, and pin the few documents on which the
loaders are known to differ.  They also hold ``serialization``'s event walks
to PyYAML's own passes, and check that the libyaml path makes no per-node
call into PyYAML's Python resolver or constructor.
"""

import dataclasses
import datetime
import gc
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from helpers import FIXTURES, make_record
from knows_sidecar import cli, projection, serialization
from knows_sidecar.errors import EmissionError, RecordSyntaxError
from knows_sidecar.linter import LintCode, lint
from knows_sidecar.model import shown
from knows_sidecar.schema import validate_tree
from knows_sidecar.serialization import emit_record, load_record, record_to_tree

# The options that make yaml.dump write what emit_record writes.
EMIT_OPTIONS = dict(sort_keys=False, allow_unicode=True, default_flow_style=False, width=100000)

needs_libyaml = pytest.mark.skipif(
    not getattr(yaml, "__with_libyaml__", False), reason="PyYAML built without libyaml"
)

BASE, _ = load_record((FIXTURES / "moore.knows.yaml").read_bytes())


def reference_dump(tree) -> bytes:
    """``yaml.dump`` of a tree with ``serialization``'s dumper."""
    return yaml.dump(tree, Dumper=serialization._DUMPER, **EMIT_OPTIONS).encode("utf-8")


def walk_dump(tree) -> bytes:
    return serialization._dump(tree, serialization._Walk())


def pure_dump(tree) -> str:
    """A comparable rendering of a loaded tree (NaN-safe, alias-safe)."""
    return yaml.dump(tree, Dumper=yaml.SafeDumper, allow_unicode=False, sort_keys=False)


# ---------------------------------------------------------------------------
# Generated trees.  libyaml's emitter writes the pure emitter's bytes only on
# a narrower domain, and its edges are where an emitter is most likely to
# write what its loader does not read back, so the trees crowd around them.

# Characters libyaml's emitter writes like the pure one, then those it does not.
PLAIN_CHARS = (
    "\x00\x01\x07\t\n\x0b\x0c\r\x1b\x1f\x7f\x80\x9f\xa0\xad\u2028\u2029\ufeff\ufffd"
    "\ufffe\uffff\ud7ff\ue000:#-?&*!|>'\"%@`,[]{}\\ \u00e9\u4e2d"
)
DIVERGING_CHARS = "\x85\ud800\udcff\U0001d465\U0001f600\U00020000\U0010ffff"
YAML_WORDS = [
    "yes", "No", "on", "OFF", "true", "False", "~", "null", "1e3", "0x1F", "0o17",
    "012", "1_000", ".inf", "-.nan", "2024-01-01", "2024-01-01T00:00:00Z",
    "2001-12-14 21:59:43.10 -5", "12:30:45", "<<", "=", "-", "--- x", "...",
    "- a", "a: b", "a #b", "&x", "*x", "!x", "|", "> x", "%x", "@x", "", " ",
]

bmp_chars = st.one_of(
    st.sampled_from(PLAIN_CHARS),
    st.characters(max_codepoint=0xFFFF, exclude_categories=["Cs"], exclude_characters="\x85"),
    st.sampled_from("abc xyz019._/"),
)
any_chars = st.one_of(bmp_chars, st.sampled_from(DIVERGING_CHARS), st.characters(codec=None))


def _text(chars, max_len):
    # Long strings are repeated words, so they carry breaks and escapes.
    long = st.builds(
        lambda word, n, sep: sep.join([word] * n)[:max_len],
        st.text(chars, min_size=1, max_size=12),
        st.integers(1, 2500),
        st.sampled_from([" ", "", "\n", "\x01 "]),
    )
    words = st.sampled_from(YAML_WORDS)
    short = st.text(chars, max_size=30)
    return st.one_of(short, short, words, st.builds(str.__add__, words, short), long)


def _trees(text, key):
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        st.floats(),
        text,
        st.dates(),
        st.datetimes(),
        st.datetimes(timezones=st.just(datetime.timezone.utc)),
    )
    inner = st.recursive(
        scalars,
        lambda kids: st.one_of(st.lists(kids, max_size=4), st.dictionaries(key, kids, max_size=4)),
        max_leaves=25,
    )
    return text, scalars, st.dictionaries(key, inner, max_size=4)


ascii_keys = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1, max_size=64)
# Inside libyaml's domain: BMP text up to 10,000 characters without U+0085,
# keys of 1-64 printable ASCII characters.
IN_DOMAIN = _trees(_text(bmp_chars, 10_000), ascii_keys)
# One step outside it: a key or a string that libyaml emits differently.
BOUNDARY_KEYS = ["", "\r", "a\rb", "\x85", "\U0001d465", "k" * 127, "k" * 128, "\u00e9" * 65]
DIVERGING_KEYS = st.one_of(
    st.sampled_from(BOUNDARY_KEYS),
    st.sampled_from(BOUNDARY_KEYS),
    st.integers(65, 135).map(lambda n: "k" * n),
    st.integers(30, 70).map(lambda n: "\u00e9" * n),
    st.builds(str.__add__, ascii_keys, st.sampled_from("\x00\t\n\r\x7f")),
    st.one_of(st.integers(), st.none(), st.booleans()),
)
DIVERGING_TEXT = st.builds(
    lambda head, ch, tail: head + ch + tail,
    st.text(bmp_chars, max_size=20),
    st.sampled_from(DIVERGING_CHARS),
    st.text(bmp_chars, max_size=20),
)
ANYWHERE = _trees(_text(any_chars, 30_000), st.one_of(ascii_keys, DIVERGING_KEYS, _text(any_chars, 30)))


@st.composite
def records(draw):
    """A fixture record carrying generated content where the schema allows any."""
    kind = draw(
        st.sampled_from(["in_domain", "diverging_key", "diverging_key", "diverging_text", "anywhere"])
    )
    text, scalars, extensions = ANYWHERE if kind == "anywhere" else IN_DOMAIN
    tree = draw(extensions)
    if kind == "diverging_key":
        tree[draw(DIVERGING_KEYS)] = draw(scalars)
    elif kind == "diverging_text":
        tree["x_text"] = draw(DIVERGING_TEXT)
    statement = dataclasses.replace(BASE.statements[0], text=draw(text))
    return dataclasses.replace(
        BASE,
        title=draw(scalars),
        statements=(statement,) + BASE.statements[1:],
        extensions=tree,
    )


@settings(deadline=None)
@given(records())
# The pure emitter counts a key's "!!str" tag against its simple-key limit.
@example(dataclasses.replace(BASE, extensions={"k" * 127: 1}))
def test_emission_matches_yaml_dump(record):
    try:
        expected = reference_dump(record_to_tree(record))
    except UnicodeEncodeError:  # libyaml's emitter, on a lone surrogate
        with pytest.raises(EmissionError, match="UTF-8"):
            emit_record(record)
        return
    assert emit_record(record) == expected


def _nested(depth):
    tree = "leaf"
    for _ in range(depth):
        tree = {"k": tree}
    return tree


def with_text(text):
    """The moore fixture with its first statement's text replaced."""
    statement = dataclasses.replace(BASE.statements[0], text=text)
    return dataclasses.replace(BASE, statements=(statement,) + BASE.statements[1:])


def with_probe(value):
    return dataclasses.replace(BASE, extensions={"x_probe": value})


SHARED = ["x"]


@settings(deadline=None)
@given(records())
@example(with_text("first\x85second"))  # NEL written raw reloads as a space
@example(with_text("x\udcff"))  # UTF-8 cannot encode a lone surrogate
def test_emission_round_trips(record):
    assert_round_trips(record)


def assert_round_trips(record):
    try:
        data = emit_record(record)
    except EmissionError as exc:
        assert "UTF-8" in str(exc)
        return
    reloaded, _ = load_record(data)
    assert emit_record(reloaded) == data


# Each tree here makes libyaml's emitter write other bytes than the pure one,
# or (an alias) was once kept from it.  These trees took the pure emitter
# while the two emitters were chosen per tree; each now takes ``_DUMPER``
# like any other, and is held to its bytes and to reading back.
OUT_OF_DOMAIN = {
    "non_bmp": "x \U0001d465",
    "emoji": "\U0001f600",
    "lone_surrogate": "T \udcff",
    "nel": "first\x85second",
    "empty_key": {"": 1},
    "cr_key": {"a\rb": 1},
    "key_127": {"k" * 127: 1},
    "key_128": {"k" * 128: 1},
    "long_non_ascii_key": {"\u00e9" * 65: 1},
    "long_double_quoted": "wo\x01rd " * 30000,
    "int_key": {1: "a"},
    "deep": _nested(80),
    "bytes": b"\x00\x01",
    "set": {"a", "b"},
    "alias": {"a": SHARED, "b": SHARED},
}


@pytest.mark.parametrize("value", OUT_OF_DOMAIN.values(), ids=list(OUT_OF_DOMAIN))
def test_out_of_domain_trees_take_the_pure_path(value):
    record = with_probe(value)
    try:
        expected = reference_dump(record_to_tree(record))
    except UnicodeEncodeError:  # libyaml's emitter, on a lone surrogate
        with pytest.raises(EmissionError, match="UTF-8"):
            emit_record(record)
        return
    # yaml.dump writes a set's items in hash order; emit_record sorts them.
    if not isinstance(value, set):
        assert emit_record(record) == expected
    assert_round_trips(record)


# Trees SafeDumper's representer gives anchors, with values it writes as
# ``!!set``, ``!!binary`` and sequences (tuples), and values it cannot write.
# A set has at most one item: yaml.dump writes a set's items in hash order.
exotic_leaves = st.one_of(
    IN_DOMAIN[1],
    IN_DOMAIN[1],
    IN_DOMAIN[1],
    st.binary(max_size=8),
    st.sets(st.one_of(st.integers(), ascii_keys, st.dates()), max_size=1),
    st.just(()),
    st.sampled_from([Decimal("1.5"), object(), frozenset({1})]),
)
exotic_keys = st.one_of(ascii_keys, st.integers(), st.dates(), st.tuples(ascii_keys, st.integers()))
EXOTIC = st.recursive(
    exotic_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3), st.dictionaries(exotic_keys, kids, max_size=3), st.tuples(kids, kids)
    ),
    max_leaves=12,
)


@st.composite
def aliased_trees(draw):
    """An exotic tree in which some slots hold a value met elsewhere in it, or an ancestor."""
    tree = draw(st.dictionaries(ascii_keys, EXOTIC, max_size=4))
    slots, shared = [], []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            slots.extend((node, key) for key in node)
            shared.extend(key for key in node if not isinstance(key, str))
        if isinstance(node, list):
            slots.extend((node, i) for i in range(len(node)))
        if isinstance(node, (dict, list, tuple, set, datetime.date)):
            shared.append(node)
        if isinstance(node, (list, tuple)):
            stack.extend(node)
        elif isinstance(node, dict):
            stack.extend(node.values())
    for _ in range(draw(st.integers(0, 4))):
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        value = draw(st.sampled_from(shared))
        if isinstance(container, dict) and draw(st.booleans()):
            try:
                container[value] = draw(exotic_leaves)  # the value as a key too
            except TypeError:  # unhashable
                pass
        else:
            container[key] = value
    return tree


RECURSIVE = ["x"]
RECURSIVE.append(RECURSIVE)
DAY = datetime.date(2024, 1, 1)
# Three values, each met again after the one it holds: anchors id001-id003
# are numbered in the order the values are met again.
INNER = ["a"]
MIDDLE = ["b", INNER]
OUTER = ["c", MIDDLE]


@needs_libyaml
@settings(deadline=None)
@given(IN_DOMAIN[2])
@example({"date": datetime.date(2024, 1, 1), "at": datetime.datetime(2024, 1, 1, 12, 30)})
@example({"floats": [math.nan, math.inf, -math.inf, -0.0, 1e300], "ints": [2**70, -(2**64)]})
@example({"flags": [True, False, None], "nested": {"a": [{"b": []}, {}]}})
def test_node_path_matches_representer(tree):
    expected = yaml.dump(tree, Dumper=yaml.CSafeDumper, **EMIT_OPTIONS).encode("utf-8")
    assert walk_dump(tree) == (expected if tree else b"")


@settings(deadline=None)
@given(st.one_of(ANYWHERE[2], aliased_trees()))
@example({"a": RECURSIVE})
@example({"a": [Decimal("1.5")]})
@example({"t": (DAY,), "s": {DAY}, DAY: 1})
@example({"k" * 127: 1})  # the "!!str" tag counts against the simple-key limit
@example({"t": ()})  # exempt from anchors, still an empty sequence
@example({"first": OUTER, "inner": INNER, "middle": MIDDLE, "outer": OUTER})
@example({"s": "T \udcff"})
def test_walk_matches_representer(tree):
    try:
        expected = reference_dump(tree)
    except yaml.representer.RepresenterError:
        with pytest.raises(EmissionError, match="no YAML form"):
            walk_dump(tree)
        return
    except UnicodeEncodeError:  # libyaml's emitter, on a lone surrogate
        with pytest.raises(EmissionError, match="UTF-8"):
            walk_dump(tree)
        return
    assert walk_dump(tree) == (expected if tree else b"")


def test_set_items_emit_in_one_order_under_every_hash_seed():
    data = (FIXTURES / "minimal.knows.yaml").read_bytes()
    data += b"extensions: {x_s: !!set {alpha, beta, gamma, delta}}\n"
    script = (
        "import sys\n"
        "from knows_sidecar.serialization import emit_record, load_record\n"
        "sys.stdout.buffer.write(emit_record(load_record(sys.stdin.buffer.read())[0]))\n"
    )
    src = str(Path(serialization.__file__).parents[1])
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script],
            input=data,
            capture_output=True,
            check=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
        ).stdout
        for seed in range(1, 5)
    }
    assert len(outputs) == 1
    items = b"".join(b"    %s: null\n" % word for word in (b"alpha", b"beta", b"delta", b"gamma"))
    assert b"  x_s: !!set\n" + items in outputs.pop()


@needs_libyaml
def test_libyaml_classes_are_used():
    assert serialization._LOADER is yaml.CSafeLoader
    assert serialization._DUMPER is yaml.CSafeDumper


@needs_libyaml
def test_gen_refuses_a_title_utf8_cannot_encode(tmp_path, capsys):
    # A non-UTF-8 argv byte reaches Python as a lone surrogate.
    out = tmp_path / "o.knows.yaml"
    assert cli.main(["gen", "--title", "T \udcff", "--author", "A", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("gen: ")
    assert not out.exists()


def test_pure_emitter_refuses_a_lone_surrogate(monkeypatch, tmp_path, capsys):
    # The pure emitter would write "x\uDCFF", which libyaml's loader refuses.
    monkeypatch.setattr(serialization, "_DUMPER", yaml.SafeDumper)
    with pytest.raises(EmissionError, match="UTF-8"):
        emit_record(dataclasses.replace(make_record(0), title="x\udcff"))
    out = tmp_path / "o.knows.yaml"
    assert cli.main(["gen", "--title", "T \udcff", "--author", "A", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("gen: ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# Loading: both loaders build the same trees

# No bare "!" tag and no U+FEFF: both are pinned differences, tested below.
DOC_CHARS = ":-[]{}#&*|>'\"%@,?\n\n\t  abc01.\\~\x85\u2028\u00e9\U0001d465"
doc_styles = st.fixed_dictionaries(
    {
        "default_flow_style": st.sampled_from([False, True, None]),
        "canonical": st.booleans(),
        "allow_unicode": st.booleans(),
        "width": st.sampled_from([20, 80, 100000]),
        "explicit_start": st.booleans(),
        "default_style": st.sampled_from([None, '"', "'", "|", ">"]),
    }
)


# Long strings make parsing slower, not different.
DOC_TREES = _trees(_text(any_chars, 500), st.one_of(ascii_keys, DIVERGING_KEYS))[2]


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(["text", "dumped", "mutated"]))
    if kind == "text":
        return draw(st.text(st.sampled_from(DOC_CHARS), max_size=60))
    tree = draw(DOC_TREES)
    doc = yaml.dump(tree, Dumper=yaml.SafeDumper, **draw(doc_styles))
    if kind == "mutated":
        at = draw(st.integers(0, len(doc)))
        doc = doc[:at] + draw(st.text(st.sampled_from(DOC_CHARS), max_size=4)) + doc[at:]
    return doc


def _outcome(doc, loader):
    try:
        return "tree", pure_dump(list(yaml.load_all(doc, Loader=loader)))
    except yaml.YAMLError:
        return "rejected", None
    except Exception as exc:  # a constructor fault; both loaders share it
        return "raised", type(exc)


@needs_libyaml
@settings(deadline=None)
@given(documents())
def test_loaders_build_equal_trees(doc):
    pure = _outcome(doc, yaml.SafeLoader)
    fast = _outcome(doc, yaml.CSafeLoader)
    if "rejected" not in (pure[0], fast[0]):
        assert fast == pure


# Tokens that send a node off the one-pass construction, or past it.
CONSTRUCT_TOKENS = [
    "&a ", "*a", "<<: ", "=", "? ", "!!map ", "!!seq ", "!!set ", "!!omap ", "!!str ",
    "!!binary ", "!!timestamp ",
]


@st.composite
def tagged_documents(draw):
    doc = draw(documents())
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(doc)))
        doc = doc[:at] + draw(st.sampled_from(CONSTRUCT_TOKENS)) + doc[at:]
    return doc


def _stock_documents(doc, loader_class):
    """Each document's object, built by PyYAML's composer and ``construct_document``."""
    loader = loader_class(doc)
    try:
        docs = []
        while loader.check_node():
            docs.append(loader.construct_document(loader.get_node()))
        return docs
    finally:
        loader.dispose()


def _walked_documents(doc, loader_class):
    loader = loader_class(doc)
    try:
        return serialization._walk_events(loader)
    finally:
        loader.dispose()


def _outcome_of(load, doc, loader_class):
    """The documents' trees, or the type and message of the exception raised."""
    try:
        return "tree", pure_dump(load(doc, loader_class))
    except Exception as exc:
        return "raised", type(exc), str(exc)


LOADER_CLASSES = [
    yaml.SafeLoader,
    pytest.param(getattr(yaml, "CSafeLoader", None), marks=needs_libyaml, id="CSafeLoader"),
]


@pytest.mark.parametrize("loader_class", LOADER_CLASSES)
@settings(deadline=None)
@given(tagged_documents())
@example("a: &a [b, *a]\n")
@example("a: &a {b: 1}\nc:\n  <<: *a\n  d: 2\n")
@example("a: !!map x\n")
@example("a: " + "[" * 150 + "]" * 150 + "\n")
@example("")
@example("---\n---\n")
@example("? a\n")
@example("a: 2026-02-30\n")  # the timestamp constructor raises ValueError
@example("a: =\n")
@example("a: ! x\n")
# The composers reject a reused anchor.
@example("a: &x 1\nb: &x 2\n")
@example("a: &x [1]\nb: &x [2]\n")
# The two sides of the walk's depth cap.
@example("a: " + "[" * 100 + "]" * 100 + "\n")
@example("a: " + "[" * 101 + "]" * 101 + "\n")
@example("a: &x 1\n---\nb: *x\n")  # anchors reset per document
@example("&k a: *k\n")
@example("a: &k b\n*k : 1\n")
@example("!!str 1: a\n")
@example("a: &s !!str 1\nb: *s\n")
@example("a: !custom x\n")
@example("a: &x\n")
def test_construction_matches_construct_document(loader_class, doc):
    stock = _outcome_of(_stock_documents, doc, loader_class)
    with mock.patch.object(serialization, "_LOADER", loader_class):
        assert _outcome_of(lambda d, _: serialization._documents(d), doc, loader_class) == stock
    walked = _outcome_of(_walked_documents, doc, loader_class)
    if walked[0] == "tree":
        assert walked == stock


@pytest.fixture(params=["libyaml", "pure"])
def loader(request, monkeypatch):
    if request.param == "libyaml":
        if not getattr(yaml, "__with_libyaml__", False):
            pytest.skip("PyYAML built without libyaml")
        monkeypatch.setattr(serialization, "_LOADER", yaml.CSafeLoader)
    else:
        monkeypatch.setattr(serialization, "_LOADER", yaml.SafeLoader)
    return request.param


MALFORMED = [
    "a: [unclosed\n",
    "a: {b: 1\n",
    "a: 'unterminated\n",
    'a: "unterminated\n',
    'a: "\\q"\n',
    "a: 1\n b: 2\n",
    "a:\n\t- 1\n",
    "a: *undefined\n",
    "- a\nb: c\n",
    "a: b: c\n",
    "? a\n? b\n- c\n",
    "a: \x00\n",
    "a: \x1b\n",
    "%YAML 2.0\n---\na: 1\n",
    "? [a]\n: 1\n",
    "a: 1\n---\nb: 2\n",
    # Tagged scalars the tag cannot read; PyYAML's constructors raise
    # AttributeError, ValueError, KeyError and IndexError on these.
    "a: !!timestamp nope\n",
    "a: !!int abc\n",
    "a: !!bool x\n",
    "a: !!int ''\n",
    # Tags the node's kind cannot take, a merge of a scalar and an unknown tag.
    "a: !!map x\n",
    "a: !!seq x\n",
    "a: !!set [1]\n",
    "a: !!str {b: 1}\n",
    "a: {<<: 1}\n",
    "a: !custom x\n",
    # Not UTF-8, and a str that UTF-8 cannot encode.
    b"a: \xff\n",
    "a: \udcff\n",
]


@pytest.mark.parametrize("doc", MALFORMED)
def test_malformed_yaml_is_record_syntax_error(loader, doc):
    with pytest.raises(RecordSyntaxError):
        load_record(doc)


def test_load_and_emit_leave_no_garbage(loader):
    # Garbage here is a reference cycle, which keeps a node graph or a dumper
    # alive until the cyclic collector runs.
    for path in sorted(FIXTURES.glob("*.knows.yaml")):
        data = path.read_bytes()
        gc.collect()
        gc.disable()
        try:
            record, _ = load_record(data)
            emit_record(record)
            projection.emit_projections(record)
            assert gc.collect() == 0, path.name
        finally:
            gc.enable()


def _refuse(*args, **kwargs):
    raise AssertionError("a per-node pass of PyYAML's ran")


@needs_libyaml
def test_libyaml_path_makes_no_per_node_python_calls(monkeypatch):
    # The event walks resolve plain scalars themselves; the node-graph passes
    # call these once per node, and construct_document is the fallback.
    for owner, name in [
        (yaml.resolver.BaseResolver, "resolve"),
        (yaml.resolver.BaseResolver, "descend_resolver"),
        (yaml.resolver.BaseResolver, "ascend_resolver"),
        (yaml.CSafeLoader, "construct_document"),
    ]:
        monkeypatch.setattr(owner, name, _refuse)
    records = [load_record(path.read_bytes())[0] for path in sorted(FIXTURES.glob("*.knows.yaml"))]
    # The walk builds explicitly tagged scalars, anchors and aliases too.
    techreport = (FIXTURES / "techreport.knows.yaml").read_bytes()
    for tail in (
        b"x_note: !!str 2026\n",
        b"x_a: &a [1]\nx_b: *a\n",
        b"x_t: &t 2024-01-01\nx_u: *t\n",
    ):
        records.append(load_record(techreport + tail)[0])
    for record in records + [make_record(seed) for seed in range(4)]:
        reloaded, _ = load_record(emit_record(record))
        assert emit_record(reloaded) == emit_record(record)
        projection.emit_projections(record)


@pytest.mark.parametrize("depth", [500, 3000])
def test_deeply_nested_entity_id_loads_and_lints(loader, depth):
    nested = "art:paper"
    for _ in range(depth):
        nested = [nested]
    text = (FIXTURES / "minimal.knows.yaml").read_text()
    doc = text.replace("id: art:paper", "id: " + "[" * depth + "art:paper" + "]" * depth)
    try:
        record, _ = load_record(doc)
    except RecordSyntaxError:
        # The pure composer recurses once per level.
        assert loader == "pure"
        return
    messages = [f.message for f in lint(record).findings if f.code == LintCode.ID_PREFIX]
    # Shown 100 lists deep; a value no deeper shows as repr does.
    assert messages == ["unparseable entity id " + "[" * 100 + "..." + "]" * 100]
    for _ in range(depth - 100):
        nested = nested[0]
    assert shown(nested) == repr(nested)


# Documents on which libyaml's loader differs from the pure one.
@needs_libyaml
@pytest.mark.parametrize(
    "doc,pure,fast",
    [
        # YAML allows a tab after a plain scalar; the pure scanner does not.
        ('a: b"\t\n', RecordSyntaxError, {"a": 'b"'}),
        # A surrogate escape is not a Unicode scalar value.
        ('a: "\\ud800"\n', {"a": "\ud800"}, RecordSyntaxError),
        # A bare "!" tag resolves to the empty string.
        ("a: !\n", {"a": None}, {"a": ""}),
        # libyaml skips U+FEFF at the start of a line as a byte order mark.
        ("a: 1\n\ufeffb: 2\n", {"a": 1, "\ufeffb": 2}, RecordSyntaxError),
    ],
    ids=["tab_after_plain", "surrogate_escape", "bare_tag", "bom_at_line_start"],
)
def test_pinned_loader_differences(monkeypatch, doc, pure, fast):
    for loader, expected in ((yaml.SafeLoader, pure), (yaml.CSafeLoader, fast)):
        monkeypatch.setattr(serialization, "_LOADER", loader)
        if expected is RecordSyntaxError:
            with pytest.raises(RecordSyntaxError):
                load_record(doc)
        else:
            record, _ = load_record(doc)
            tree = serialization._documents(doc)[0]
            assert tree == expected
            assert record._k001 == tuple(validate_tree(tree))
