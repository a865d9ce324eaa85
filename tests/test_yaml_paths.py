"""The libyaml and pure-Python YAML paths agree.

``serialization`` parses with libyaml whenever PyYAML was built with it, and
emits with libyaml only for trees where libyaml's emitter writes the pure
emitter's bytes.  These tests hold the emitted bytes to the pure emitter on
any tree, hold the two loaders to the same trees, and pin the few documents
on which the loaders are known to differ.  They also hold ``serialization``'s
one-pass construction and representation to PyYAML's own passes.
"""

import dataclasses
import datetime
import gc
import math
from decimal import Decimal

import pytest
import yaml
from hypothesis import assume, example, given, settings, strategies as st

from helpers import FIXTURES
from knows_sidecar import cli, projection, serialization
from knows_sidecar.errors import EmissionError, RecordSyntaxError
from knows_sidecar.model import Author, parse_profile
from knows_sidecar.scaffold import ScaffoldInput, scaffold_record
from knows_sidecar.serialization import emit_record, load_record, record_to_tree

# The options emit_record has always passed to the pure emitter.
EMIT_OPTIONS = dict(sort_keys=False, allow_unicode=True, default_flow_style=False, width=100000)

needs_libyaml = pytest.mark.skipif(
    not getattr(yaml, "__with_libyaml__", False), reason="PyYAML built without libyaml"
)

BASE, _ = load_record((FIXTURES / "moore.knows.yaml").read_bytes())


def pure_emit(record) -> bytes:
    return yaml.dump(record_to_tree(record), Dumper=yaml.SafeDumper, **EMIT_OPTIONS).encode("utf-8")


def walk_dump(tree):
    """``serialization._dump`` of a tree, and whether it went to libyaml's emitter."""
    walk = serialization._Walk()
    return serialization._dump(tree, walk), walk.c_domain


def pure_dump(tree) -> str:
    """A comparable rendering of a loaded tree (NaN-safe, alias-safe)."""
    return yaml.dump(tree, Dumper=yaml.SafeDumper, allow_unicode=False, sort_keys=False)


# ---------------------------------------------------------------------------
# Generated trees, in and out of libyaml's emitter domain

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
def test_emission_matches_pure_emitter(record):
    assert emit_record(record) == pure_emit(record)


@needs_libyaml
@settings(deadline=None)
@given(IN_DOMAIN[2])
@example({"date": datetime.date(2024, 1, 1), "at": datetime.datetime(2024, 1, 1, 12, 30)})
@example({"floats": [math.nan, math.inf, -math.inf, -0.0, 1e300], "ints": [2**70, -(2**64)]})
@example({"flags": [True, False, None], "nested": {"a": [{"b": []}, {}]}})
def test_node_path_matches_representer(tree):
    data, c_domain = walk_dump(tree)
    assume(c_domain)
    expected = yaml.dump(tree, Dumper=yaml.CSafeDumper, **EMIT_OPTIONS).encode("utf-8")
    assert data == (expected if tree else b"")


# Trees SafeDumper's representer gives anchors, with values it writes as
# ``!!set``, ``!!binary`` and sequences (tuples), and values it cannot write.
exotic_leaves = st.one_of(
    IN_DOMAIN[1],
    IN_DOMAIN[1],
    IN_DOMAIN[1],
    st.binary(max_size=8),
    st.sets(st.one_of(st.integers(), ascii_keys, st.dates()), max_size=3),
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


@settings(deadline=None)
@given(aliased_trees())
@example({"a": RECURSIVE})
@example({"a": [Decimal("1.5")]})
@example({"t": (DAY,), "s": {DAY}, DAY: 1})
def test_walk_matches_representer(tree):
    try:
        expected = yaml.dump(tree, Dumper=yaml.SafeDumper, **EMIT_OPTIONS).encode("utf-8")
    except yaml.representer.RepresenterError:
        with pytest.raises(EmissionError, match="no YAML form"):
            walk_dump(tree)
        return
    assert walk_dump(tree)[0] == (expected if tree else b"")


def _nested(depth):
    tree = "leaf"
    for _ in range(depth):
        tree = {"k": tree}
    return tree


# Each tree here makes libyaml's emitter write other bytes than the pure one,
# or (an alias) is kept from it.
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
}
SHARED = ["x"]
OUT_OF_DOMAIN["alias"] = {"a": SHARED, "b": SHARED}


@pytest.mark.parametrize("value", OUT_OF_DOMAIN.values(), ids=list(OUT_OF_DOMAIN))
def test_out_of_domain_trees_take_the_pure_path(value):
    record = dataclasses.replace(BASE, extensions={"x_probe": value})
    assert not walk_dump(record_to_tree(record))[1]
    assert emit_record(record) == pure_emit(record)


def test_fixtures_emit_through_libyaml():
    for path in sorted(FIXTURES.glob("*.knows.yaml")):
        record, _ = load_record(path.read_bytes())
        assert walk_dump(record_to_tree(record))[1], path.name


@needs_libyaml
def test_libyaml_classes_are_used():
    assert serialization._LOADER is yaml.CSafeLoader
    assert serialization._C_DUMPER is yaml.CSafeDumper


def test_gen_with_surrogate_escaped_title(tmp_path):
    # A non-UTF-8 argv byte reaches Python as a lone surrogate.
    out = tmp_path / "o.knows.yaml"
    assert cli.main(["gen", "--title", "T \udcff", "--author", "A", "--out", str(out)]) == 0
    expected = scaffold_record(
        ScaffoldInput(
            title="T \udcff",
            authors=(Author(name="A"),),
            profile=parse_profile("paper@1"),
        )
    )
    written = out.read_bytes()
    assert written == pure_emit(expected)
    assert b'\ntitle: "T \\uDCFF"\n' in written


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


def _constructed(doc, loader_class, construct):
    """Each document's tree, or the exception its construction raised."""
    loader = loader_class(doc)
    try:
        docs = []
        while loader.check_node():
            docs.append(construct(loader, loader.get_node()))
        return "tree", pure_dump(docs)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    finally:
        loader.dispose()


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
def test_construction_matches_construct_document(loader_class, doc):
    fast = _constructed(doc, loader_class, serialization._construct_document)
    stock = _constructed(doc, loader_class, lambda loader, node: loader.construct_document(node))
    assert fast == stock


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
            assert record._source_tree == expected
