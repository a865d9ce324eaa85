"""Lossless YAML reading and writing of KnowsRecords.

Loading is deliberately lenient: structural problems (missing fields, unknown
keys, out-of-vocabulary enum values) never abort the load.  They stay visible
in the retained document tree so the linter can report them, and enum-valued
fields keep their raw strings.  Emission is canonical: root fields in declared
order, entity fields in declaration order, so two emissions of the same record
are byte-identical.  Both directions run on plans compiled once per dataclass
from the field table in :mod:`knows_sidecar.model`.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass, is_dataclass
from functools import cache
from typing import Any, Callable, Optional, Sequence

import yaml
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

from . import model
from .errors import EmissionError, MalformedError, RecordSyntaxError, TypeMismatchError
from .model import KnowsRecord


@dataclass(frozen=True)
class UnknownFieldEntry:
    path: str
    key: str


@dataclass(frozen=True)
class UnknownFieldLog:
    entries: tuple[UnknownFieldEntry, ...]


def document_tree(record: KnowsRecord) -> dict[str, Any]:
    """The tree a loaded record was parsed from, or its canonical re-emission."""
    tree = record._source_tree
    return record_to_tree(record) if tree is None else tree


# ---------------------------------------------------------------------------
# Loading

# libyaml's parser when PyYAML was built with it.  It accepts a tab after a
# plain scalar, rejects surrogate escapes such as "\ud800", loads a bare ``!``
# tag as '' rather than None, and skips U+FEFF at the start of a line;
# otherwise it builds the pure loader's trees.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_record(data: bytes | str) -> tuple[KnowsRecord, UnknownFieldLog]:
    """Decode one YAML document into a typed record plus an unknown-field log.

    Raises :class:`RecordSyntaxError` for bytes that are not UTF-8 (or a str
    with a lone surrogate), malformed YAML or multi-document streams and
    :class:`TypeMismatchError` when the root is not a mapping.
    """
    try:
        raw = data.encode("utf-8") if isinstance(data, str) else bytes(data)
        text = raw.decode("utf-8-sig")
    except UnicodeError as exc:
        raise RecordSyntaxError(f"not UTF-8: {exc}") from exc
    try:
        loader = _LOADER(text)
        try:
            docs = []
            while loader.check_node():
                docs.append(_construct_document(loader, loader.get_node()))
        finally:
            loader.dispose()
    except yaml.YAMLError as exc:
        raise RecordSyntaxError(f"invalid YAML: {exc}") from exc
    except (AttributeError, LookupError, ValueError) as exc:
        # PyYAML's constructors raise these for an explicitly tagged scalar
        # that its tag cannot read, such as ``!!int abc`` or ``!!bool x``.
        raise RecordSyntaxError(f"invalid YAML: bad tagged scalar ({exc!r})") from exc
    except RecursionError as exc:
        # The pure loader recurses once per level of nesting.
        raise RecordSyntaxError("invalid YAML: nested too deeply") from exc
    docs = [d for d in docs if d is not None]
    if len(docs) != 1:
        raise RecordSyntaxError(f"expected exactly one YAML document, got {len(docs)}")
    tree = docs[0]
    if not isinstance(tree, dict):
        raise TypeMismatchError("record root must be a mapping")

    log: list[UnknownFieldEntry] = []
    for key in tree:
        if key not in _ROOT_KEYS:
            log.append(UnknownFieldEntry(path="", key=str(key)))
    # Root extensions are logged before any entity's x_extensions.
    _extension_map(tree.get("extensions"), "", "extensions", log)
    record = _load_root(tree, "", "", log)
    # The record is frozen; kept state goes straight into its instance dict.
    vars(record)["_source_tree"] = tree
    return record, UnknownFieldLog(tuple(log))


_STR = "tag:yaml.org,2002:str"
_MAP = "tag:yaml.org,2002:map"
_SEQ = "tag:yaml.org,2002:seq"
# Keys PyYAML's mapping constructor rewrites: ``<<`` merges, ``=`` is a string.
_REWRITTEN_KEYS = frozenset({"tag:yaml.org,2002:merge", "tag:yaml.org,2002:value"})
_MAX_CONSTRUCT_DEPTH = 100
_BUILDING = object()


class _Unbuilt(Exception):
    """A node the one-pass construction leaves to PyYAML's own pass."""


def _construct(node: Any, depth: int, memo: dict, construct: Callable[[Any], Any]) -> Any:
    """Build the object of a node graph in one recursive walk.

    Plain strings, mappings and sequences are built here; every other scalar
    goes to the loader's own ``construct``, whose memo keeps an aliased
    timestamp one object.  ``memo`` maps each collection node to its object,
    so an alias shares it.  Raises :class:`_Unbuilt` for what PyYAML's
    generic pass handles otherwise: a recursive alias, a merge or ``=`` key,
    a collection key, any other collection tag, and deep nesting.
    """
    kind = node.__class__
    if kind is ScalarNode:
        return node.value if node.tag == _STR else construct(node)
    data = memo.get(node)
    if data is not None:
        if data is _BUILDING:
            raise _Unbuilt
        return data
    if depth > _MAX_CONSTRUCT_DEPTH:
        raise _Unbuilt
    memo[node] = _BUILDING
    depth += 1
    if kind is MappingNode and node.tag == _MAP:
        data = {}
        for key_node, value_node in node.value:
            if key_node.__class__ is not ScalarNode or key_node.tag in _REWRITTEN_KEYS:
                raise _Unbuilt
            key = key_node.value if key_node.tag == _STR else construct(key_node)
            data[key] = _construct(value_node, depth, memo, construct)
    elif kind is SequenceNode and node.tag == _SEQ:
        data = [_construct(item, depth, memo, construct) for item in node.value]
    else:
        raise _Unbuilt
    memo[node] = data
    return data


def _construct_document(loader: Any, node: Any) -> Any:
    """The object of one document: :func:`_construct`, else PyYAML's own pass.

    A scalar tagged as a collection (``!!map x``) leaves a deferred
    generator on the loader, which PyYAML's pass runs and raises on; so does
    any node the walk gives up on.  Either way the loader's state is reset
    and ``construct_document`` builds the tree or raises its own first error.
    """
    try:
        data = _construct(node, 0, {}, loader.construct_object)
        if not loader.state_generators:
            return data
    except Exception:
        pass
    finally:
        loader.constructed_objects = {}
    loader.recursive_objects = {}
    loader.state_generators = []
    return loader.construct_document(node)


def _sequence(value: Any) -> list[Any]:
    return value if isinstance(value, list) else []


def _lenient(parse: Callable[[Any], Any]) -> Callable[..., Any]:
    """Parse a value, keeping the raw value when it does not parse."""

    def convert(value: Any, path: str, key: str, log: list[UnknownFieldEntry]) -> Any:
        try:
            return parse(value)
        except MalformedError:
            return value

    return convert


def _instance_of(kind: type) -> Callable[..., Any]:
    """Keep a value of type ``kind``; anything else loads as None."""

    def convert(value: Any, path: str, key: str, log: list[UnknownFieldEntry]) -> Any:
        return value if isinstance(value, kind) else None

    return convert


def _items(item: Callable[..., Any]) -> Callable[..., tuple]:
    """Load a list of objects, skipping items that are not mappings."""

    def convert(value: Any, path: str, key: str, log: list[UnknownFieldEntry]) -> tuple:
        if not isinstance(value, list):
            return ()
        path = f"{path}/{key}" if path else key
        return tuple(item(v, path, i, log) for i, v in enumerate(value) if isinstance(v, dict))

    return convert


def _extension_map(value: Any, path: str, key: str, log: list[UnknownFieldEntry]) -> Any:
    """Keep a mapping of extension keys, logging each key."""
    if not isinstance(value, dict):
        return None
    path = f"{path}/{key}" if path else key
    for name in value:
        log.append(UnknownFieldEntry(path=path, key=str(name)))
    return value


def _load_converter(slot: model.Slot, log_extensions: bool) -> Optional[Callable[..., Any]]:
    """How one field loads, or None to keep the value as it is."""
    meta, kind = slot.meta, slot.kind
    if "load" in meta:
        load = meta["load"]
        return lambda v, *_: None if v is None else load(v)
    if meta.get("raw"):
        return None
    if slot.many:
        if is_dataclass(kind):
            return _items(_loader(kind))
        if kind is Any:
            return lambda v, *_: tuple(_sequence(v))
        return lambda v, *_: tuple(x for x in _sequence(v) if isinstance(x, kind))
    if kind is dict:
        return _extension_map if log_extensions else _instance_of(dict)
    if kind in model.STRING_PARSERS:
        return _lenient(model.STRING_PARSERS[kind])
    if is_dataclass(kind):
        return _loader(kind)
    if not slot.required:
        return _instance_of(kind)
    return None


@cache
def _loader(cls: type, log_extensions: bool = True) -> Callable[..., Any]:
    """Compile the lenient loader of one dataclass from its field table.

    Each step is (key, value when the key is absent, converter or None).  A
    converter is called as ``convert(value, path, key, log)``, where ``path``
    is the path of the mapping that holds ``key``.  The loader is itself a
    converter: a value that is not a mapping loads as None.
    """
    steps = tuple(
        (slot.key, slot.meta.get("missing"), _load_converter(slot, log_extensions))
        for slot in model.slots(cls)
    )

    def load(tree: Any, path: str, key: Any, log: list[UnknownFieldEntry]) -> Any:
        if not isinstance(tree, dict):
            return None
        path = f"{path}/{key}" if path else key
        args = []
        for k, missing, convert in steps:
            value = tree.get(k, missing)
            args.append(value if convert is None else convert(value, path, k, log))
        return cls(*args)

    return load


_ROOT_KEYS = frozenset(slot.key for slot in model.slots(KnowsRecord))
_load_root = _loader(KnowsRecord, log_extensions=False)


# ---------------------------------------------------------------------------
# Emission

_RENDERED = tuple(model.STRING_PARSERS)


def _render(value: Any) -> Any:
    return str(value) if isinstance(value, _RENDERED) else value


def _typed(kind: type, emit: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Keep a value of exactly ``kind`` as it is; emit anything else."""
    return lambda v: v if type(v) is kind else emit(v)


def _emit_converter(slot: model.Slot, typed: bool) -> Optional[Callable[[Any], Any]]:
    """How one field emits, or None to emit the value as it is."""
    kind = slot.kind
    if "emit" in slot.meta:
        return slot.meta["emit"]
    if slot.many:
        if is_dataclass(kind):
            item = _typed(kind, _emitter(kind)) if typed else _emitter(kind)
            if slot.required:
                return lambda v: [item(x) for x in v]
            return lambda v: [item(x) for x in v] or None
        return lambda v: list(v) or None
    if kind in model.STRING_PARSERS:
        return _render
    if is_dataclass(kind):
        return _typed(kind, _emitter(kind)) if typed else _emitter(kind)
    return None


@cache
def _emit_steps(cls: type, typed: bool = False) -> tuple:
    """Each field of ``cls`` as (attribute, key, converter or None)."""
    return tuple((slot.name, slot.key, _emit_converter(slot, typed)) for slot in model.slots(cls))


@cache
def _emitter(cls: type, typed: bool = False) -> Callable[..., dict[str, Any]]:
    """Compile the canonical tree builder of one dataclass from its field table.

    A converter sees only values that are not None; a None value or result
    drops the key, and an optional list that is empty drops it too.  When
    ``typed``, a field's dataclass value (or item) of exactly its declared
    class stays as it is.  Passing a slice of ``_emit_steps(cls, typed)``
    builds the tree of those fields only.
    """

    def emit(obj: Any, steps: tuple = _emit_steps(cls, typed)) -> dict[str, Any]:
        tree = {}
        for attr, key, convert in steps:
            value = getattr(obj, attr)
            if value is not None and convert is not None:
                value = convert(value)
            if value is not None:
                tree[key] = value
        return tree

    return emit


_emit_root = _emitter(KnowsRecord)

# The canonical root with each value (or list item) of exactly the class its
# root field declares left as it is, for K001 to read the findings it keeps
# (see :mod:`knows_sidecar.schema`); everything else emits as in the tree.
typed_root = _emitter(KnowsRecord, typed=True)


def record_to_tree(record: KnowsRecord) -> dict[str, Any]:
    """Build the canonical document tree: root fields in declared order."""
    return _emit_root(record)


# Each tree is represented by one walk, :func:`_node`, which also picks the
# emitter: libyaml's writes the pure emitter's bytes only for trees in a
# narrower domain.  Outside it libyaml escapes code points above U+FFFF,
# raises on lone surrogates, escapes U+0085 differently, folds long
# double-quoted lines at other columns, and picks the ``? key`` form for other
# keys (it measures keys in bytes, the pure emitter in characters).  Deep
# nesting, aliases and values of other kinds stay on the pure emitter too.
_C_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
_C_UNSAFE_CHAR = re.compile("[\x85\ud800-\udfff\U00010000-\U0010ffff]").search
_C_MAX_STR = 10_000  # even escaped (6 columns a character), far inside the width of 100000
_C_MAX_KEY = 64
_C_MAX_DEPTH = 64
_C_DATES = frozenset({datetime.date, datetime.datetime})
_COLLECTIONS = frozenset({dict, list, tuple, set})
# Scalars the representer never gives an anchor, by exact type.
_UNALIASED = frozenset({bool, int, float, type(None)})
_ignore_aliases = yaml.representer.SafeRepresenter.ignore_aliases
_REPRESENTERS = yaml.representer.SafeRepresenter.yaml_representers
# It is never handed a value with children, so its ``alias_key`` stays None.
_REPRESENTER = yaml.representer.SafeRepresenter()


class _Walk(dict):
    """The memo of one :func:`_node` walk: the node of each aliasable value, by id.

    ``aliased`` tells that a value was met twice; ``c_domain`` that libyaml's
    emitter writes the pure emitter's bytes for the tree.
    """

    aliased = False
    c_domain = True


def _represent(value: Any) -> Any:
    """The node ``SafeRepresenter``'s own function for the type of ``value`` builds."""
    represent = _REPRESENTERS.get(type(value))
    if represent is None:
        raise EmissionError(f"cannot emit record: a {type(value).__name__} value has no YAML form")
    return represent(_REPRESENTER, value)


def _node(value: Any, depth: int, walk: _Walk) -> Any:
    """The node ``SafeDumper`` represents ``value`` by, unsorted and in block style.

    Each value ``ignore_aliases`` does not exempt is memoized in ``walk``
    before its children, so a value met twice, or inside itself, is one node,
    which the serializer writes with an anchor and aliases.  A set is a
    ``!!set`` mapping with null values and a tuple a sequence.  Raises
    :class:`EmissionError` for a value of a type with no representer.
    """
    kind = type(value)
    if kind is str:
        if len(value) > _C_MAX_STR or (not value.isascii() and _C_UNSAFE_CHAR(value)):
            walk.c_domain = False
        return ScalarNode(_STR, value)
    if kind in _UNALIASED:
        return _REPRESENTERS[kind](_REPRESENTER, value)
    if kind is not dict and kind is not list:
        if kind not in _C_DATES:
            walk.c_domain = False
        if _ignore_aliases(None, value):
            return _represent(value)
    node = walk.get(id(value))
    if node is not None:
        walk.aliased = True
        walk.c_domain = False
        return node
    if kind not in _COLLECTIONS:
        node = walk[id(value)] = _represent(value)
        return node
    if depth >= _C_MAX_DEPTH:
        walk.c_domain = False
    depth += 1
    if kind is dict:
        node = walk[id(value)] = MappingNode(_MAP, [], flow_style=False)
        pairs = node.value
        for k, v in value.items():
            if type(k) is str:
                if not (0 < len(k) <= _C_MAX_KEY and k.isascii() and k.isprintable()):
                    walk.c_domain = False
                pairs.append((ScalarNode(_STR, k), _node(v, depth, walk)))
            else:
                walk.c_domain = False
                pairs.append((_node(k, depth, walk), _node(v, depth, walk)))
    elif kind is set:
        node = walk[id(value)] = MappingNode("tag:yaml.org,2002:set", [], flow_style=False)
        node.value = [(_node(k, depth, walk), _node(None, depth, walk)) for k in value]
    else:
        node = walk[id(value)] = SequenceNode(_SEQ, [], flow_style=False)
        node.value = [_node(v, depth, walk) for v in value]
    return node


def _dump(tree: dict[Any, Any], walk: _Walk) -> bytes:
    """The block-style YAML of a root mapping, b"" when it is empty, walked in ``walk``."""
    if not tree:
        return b""
    try:
        node = _node(tree, 0, walk)
        dumper = _C_DUMPER if walk.c_domain else yaml.SafeDumper
        text = yaml.serialize(node, Dumper=dumper, allow_unicode=True, width=100000)
    except RecursionError as exc:
        raise EmissionError("cannot emit record: a value is nested too deeply") from exc
    return text.encode("utf-8")


_ROOT_STEPS = _emit_steps(KnowsRecord)


def _runs(records: Sequence[KnowsRecord]) -> list[tuple[int, int]]:
    """Split the root fields into runs, as (start, stop) step indices.

    A maximal stretch of fields whose values are the same objects in every
    record is one run; each other field is a run of its own.
    """
    first, rest = records[0], records[1:]
    runs: list[tuple[int, int]] = []
    start = 0
    for i, (attr, _, _) in enumerate(_ROOT_STEPS):
        value = getattr(first, attr)
        if any(getattr(r, attr) is not value for r in rest):
            if start < i:
                runs.append((start, i))
            runs.append((i, i + 1))
            start = i + 1
    if start < len(_ROOT_STEPS):
        runs.append((start, len(_ROOT_STEPS)))
    return runs


def emit_records(records: Sequence[KnowsRecord]) -> list[bytes]:
    """Serialize records canonically, emitting each root run they share once.

    Records that share field values, as ``dataclasses.replace`` copies do,
    split their root fields into the same runs (see :func:`_runs`).  Each
    distinct run is dumped once, and a record's bytes join its runs' bytes.
    Entries of a block-style root mapping do not depend on their neighbours,
    so the join is byte-identical to dumping the record's whole tree, as
    long as no node of that tree gets a YAML anchor: anchors are numbered
    across the document.  A record with a value met twice, within one run or
    across two (their walks memoize the same id), is dumped whole.

    Raises :class:`EmissionError` for a value nested too deeply, or of a type
    with no YAML form.
    """
    if not records:
        return []
    runs = _runs(records)
    # Each run keeps its tree, so no id is reused, the ids its walk memoized
    # (None when it met a value twice) and its bytes; its nodes are dropped.
    dumped: dict[tuple[int, int], tuple[dict[str, Any], Optional[frozenset[int]], bytes]] = {}
    out = []
    for record in records:
        parts = []
        for start, stop in runs:
            # The first field's value tells the run apart: a stretch is shared.
            key = (start, id(getattr(record, _ROOT_STEPS[start][0])))
            if key not in dumped:
                tree = _emit_root(record, _ROOT_STEPS[start:stop])
                walk = _Walk()
                data = _dump(tree, walk)
                dumped[key] = (tree, None if walk.aliased else frozenset(walk), data)
            parts.append(dumped[key])
        ids = [memo for _, memo, _ in parts]
        if len(ids) == 1 or None not in ids and all(
            a.isdisjoint(b) for i, a in enumerate(ids) for b in ids[i + 1 :]
        ):
            out.append(b"".join(data for _, _, data in parts) or b"{}\n")
        else:
            out.append(_dump({k: v for tree, _, _ in parts for k, v in tree.items()}, _Walk()))
    return out


def emit_record(record: KnowsRecord) -> bytes:
    """Serialize a record canonically; two emissions are byte-identical.

    The one-record case of :func:`emit_records`: one run holds every field.
    Raises :class:`EmissionError` for a value nested too deeply, or of a type
    with no YAML form.
    """
    return emit_records((record,))[0]
