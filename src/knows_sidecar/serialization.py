"""Lossless YAML reading and writing of KnowsRecords.

Loading is deliberately lenient: structural problems (missing fields, unknown
keys, out-of-vocabulary enum values) never abort the load.  The record keeps
the K001 findings of the parsed tree, for the linter to report, and drops the
tree; enum-valued fields keep their raw strings.  Emission is canonical: root
fields in declared order, entity fields in declaration order, so two
emissions of the same record are byte-identical.  Both directions run on
plans compiled once per dataclass from the field table in
:mod:`knows_sidecar.model`.
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass
from functools import cache
from typing import Any, Callable, Optional, Sequence

import yaml
from yaml.events import (
    AliasEvent,
    DocumentEndEvent,
    DocumentStartEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
    StreamEndEvent,
    StreamStartEvent,
)
from yaml.nodes import ScalarNode

from . import model
from .errors import EmissionError, MalformedError, RecordSyntaxError, TypeMismatchError
from .model import KnowsRecord


@dataclass(frozen=True, slots=True)
class UnknownFieldEntry:
    path: str
    key: str


@dataclass(frozen=True, slots=True)
class UnknownFieldLog:
    entries: tuple[UnknownFieldEntry, ...]


# ---------------------------------------------------------------------------
# Loading

# libyaml's parser when PyYAML was built with it.  It accepts a tab after a
# plain scalar, rejects surrogate escapes such as "\ud800", loads a bare ``!``
# tag as '' rather than None, and skips U+FEFF at the start of a line;
# otherwise it builds the pure loader's trees.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_record(data: bytes | str) -> tuple[KnowsRecord, UnknownFieldLog]:
    """Decode one YAML document into a KnowsRecord plus an unknown-field log.

    The record keeps the K001 findings of the parsed tree (``_k001``, see
    :mod:`knows_sidecar.model`), not the tree.  Raises
    :class:`RecordSyntaxError` for bytes that are not UTF-8 (or a str with a
    lone surrogate), malformed YAML or multi-document streams and
    :class:`TypeMismatchError` when the root is not a mapping.
    """
    try:
        raw = data.encode("utf-8") if isinstance(data, str) else bytes(data)
        text = raw.decode("utf-8-sig")
    except UnicodeError as exc:
        raise RecordSyntaxError(f"not UTF-8: {exc}") from exc
    try:
        docs = _documents(text)
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
    from . import schema  # not at module level: schema imports this module

    # The record is frozen; kept state goes straight into its instance dict.
    # The tree is not kept, only its K001 findings.
    vars(record)["_k001"] = tuple(schema.validate_tree(tree))
    return record, UnknownFieldLog(tuple(log))


_STR = "tag:yaml.org,2002:str"
_MAP = "tag:yaml.org,2002:map"
_SEQ = "tag:yaml.org,2002:seq"
_SET = "tag:yaml.org,2002:set"
# The tags a plain scalar may resolve to, by its first character, in the order
# ``Resolver.resolve`` tries them; a scalar no pattern matches is a string.
# Both loaders and the dumper resolve with these (and ``Resolver`` has no
# wildcard patterns, which ``resolve`` would try for every first character).
_IMPLICIT = {
    first: tuple((tag, regexp.match) for tag, regexp in resolvers)
    for first, resolvers in yaml.resolver.Resolver.yaml_implicit_resolvers.items()
}
# The function ``SafeConstructor`` builds each scalar tag with.  Merge (``<<``)
# and value (``=``) scalars have none, and the collection tags' functions
# defer their work to the stock passes' loop.
_SCALARS = {
    f"tag:yaml.org,2002:{name}": getattr(yaml.constructor.SafeConstructor, f"construct_yaml_{name}")
    for name in ("str", "null", "bool", "int", "float", "binary", "timestamp")
}
_MAX_CONSTRUCT_DEPTH = 100


def _plain_tag(value: str) -> str:
    """The tag ``Resolver.resolve`` gives a plain scalar reading ``value``."""
    for tag, match in _IMPLICIT.get(value[:1], ()):
        if match(value):
            return tag
    return _STR


class _Unbuilt(Exception):
    """A document the event walk leaves to PyYAML's own passes."""


def _documents(text: str) -> list[Any]:
    """The object of each document in ``text``: :func:`_walk_events`, else ``yaml.load_all``.

    When the walk gives up, or anything in it raises, PyYAML's own passes
    build the same objects or raise their own first error.
    """
    loader = _LOADER(text)
    try:
        return _walk_events(loader)
    except Exception:  # re-raised, or not, by the stock passes below
        pass
    finally:
        loader.dispose()
    return list(yaml.load_all(text, Loader=_LOADER))


def _walk_events(loader: Any) -> list[Any]:
    """Build each document's object from the loader's events, with :func:`_built`."""
    next_event = loader.get_event
    next_event()  # the stream start
    docs = []
    while next_event().__class__ is DocumentStartEvent:
        docs.append(_built(loader, next_event(), 0, {}))  # anchors reset per document
        next_event()  # the document end
    return docs


def _built(loader: Any, event: Any, depth: int, anchors: dict[str, Any]) -> Any:
    """The object of the node that ``event`` starts, reading the rest of it from ``loader``.

    A plain scalar is resolved here, and a scalar is built by
    ``SafeConstructor``'s function for its tag (a quoted untagged one is a
    string).  An untagged mapping or sequence is a dict or list, anchored
    before its children, so an alias inside it is the collection itself; an
    alias is the object its anchor names in the document (``anchors``), as
    ``construct_object``'s memo makes it.  ``depth`` counts the collections
    around the node.  Raises :class:`_Unbuilt` for what PyYAML's passes treat
    otherwise: a reused anchor, a collection, custom or bare ``!`` tag, a
    merge or ``=`` scalar, and nesting past ``_MAX_CONSTRUCT_DEPTH`` levels.
    An undefined alias raises ``KeyError``, and a collection key ``TypeError``.
    """
    kind = event.__class__
    if kind is ScalarEvent:
        value, tag = event.value, event.tag
        if tag is None and event.implicit[0]:  # _plain_tag, inlined: most scalars are plain
            for resolved, match in _IMPLICIT.get(value[:1], ()):
                if match(value):
                    tag = resolved
                    break
        if tag is not None:
            construct = _SCALARS.get(tag)
            if construct is None:
                raise _Unbuilt
            value = construct(loader, ScalarNode(tag, value))
    elif kind is AliasEvent:
        return anchors[event.anchor]
    elif event.tag is not None or depth > _MAX_CONSTRUCT_DEPTH:
        raise _Unbuilt
    else:
        value = {} if kind is MappingStartEvent else []
    anchor = event.anchor
    if anchor is not None:
        if anchor in anchors:
            raise _Unbuilt
        anchors[anchor] = value
    if kind is ScalarEvent:
        return value
    next_event = loader.get_event
    depth += 1
    event = next_event()
    if kind is SequenceStartEvent:
        while event.__class__ is not SequenceEndEvent:
            value.append(_built(loader, event, depth, anchors))
            event = next_event()
    else:
        while event.__class__ is not MappingEndEvent:
            key = _built(loader, event, depth, anchors)
            value[key] = _built(loader, next_event(), depth, anchors)
            event = next_event()
    return value


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


def _emit_converter(slot: model.Slot) -> Optional[Callable[[Any], Any]]:
    """How one field emits, or None to emit the value as it is."""
    kind = slot.kind
    if "emit" in slot.meta:
        return slot.meta["emit"]
    if slot.many:
        if is_dataclass(kind):
            item = _emitter(kind)
            if slot.required:
                return lambda v: [item(x) for x in v]
            return lambda v: [item(x) for x in v] or None
        return lambda v: list(v) or None
    if kind in model.STRING_PARSERS:
        return _render
    if is_dataclass(kind):
        return _emitter(kind)
    return None


@cache
def _emit_steps(cls: type) -> tuple:
    """Each field of ``cls`` as (attribute, key, converter or None)."""
    return tuple((slot.name, slot.key, _emit_converter(slot)) for slot in model.slots(cls))


@cache
def _emitter(cls: type) -> Callable[..., dict[str, Any]]:
    """Compile the canonical tree builder of one dataclass from its field table, once per class.

    A converter sees only values that are not None; a None value or result
    drops the key, and an optional list that is empty drops it too.  Passing
    a slice of ``_emit_steps(cls)`` builds the tree of those fields only.
    """

    def emit(obj: Any, steps: tuple = _emit_steps(cls)) -> dict[str, Any]:
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


def record_to_tree(record: KnowsRecord) -> dict[str, Any]:
    """Build the canonical document tree: root fields in declared order."""
    return _emit_root(record)


# Each tree is represented by one walk, :func:`_events`, and written by one
# emitter, chosen once as ``_LOADER`` is: libyaml's when PyYAML was built with
# it, else the pure one.  libyaml's writes U+0085 as "\N" and every other
# string so that ``_LOADER`` reads it back; it raises ``UnicodeEncodeError``
# on a lone surrogate, which UTF-8 cannot encode.
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
_COLLECTIONS = frozenset({dict, list, tuple, set})
# Scalars the representer never gives an anchor, by exact type.
_UNALIASED = frozenset({bool, int, float, type(None)})
_ignore_aliases = yaml.representer.SafeRepresenter.ignore_aliases
_REPRESENTERS = yaml.representer.SafeRepresenter.yaml_representers
# It is never handed a value with children, so its ``alias_key`` stays None.
_REPRESENTER = yaml.representer.SafeRepresenter()
# What the serializer writes around a document, and after each collection.
_OPEN = (StreamStartEvent(), DocumentStartEvent())
_CLOSE = (DocumentEndEvent(), StreamEndEvent())
_MAP_END = MappingEndEvent()
_SEQ_END = SequenceEndEvent()
# A string event's implicit flags, as plain and as quoted text.
_PLAIN_STR = (True, True)
_QUOTED_STR = (False, True)


class _Walk(dict):
    """The memo of one :func:`_events` walk: the first event of each aliasable value, by id.

    ``anchors`` counts the anchors given so far, so it is non-zero exactly
    when a value was met twice.
    """

    anchors = 0


def _scalar(value: Any) -> ScalarEvent:
    """The event of the scalar node ``SafeRepresenter``'s own function for ``value`` builds."""
    represent = _REPRESENTERS.get(type(value))
    if represent is None:
        raise EmissionError(f"cannot emit record: a {type(value).__name__} value has no YAML form")
    node = represent(_REPRESENTER, value)
    tag, text = node.tag, node.value
    return ScalarEvent(None, tag, (_plain_tag(text) == tag, tag == _STR), text, style=node.style)


def _set_order(item: Any) -> tuple:
    """Where a set's item goes among the others: its scalar's (tag, value), or each of a tuple's."""
    if type(item) is tuple:
        return _SEQ, tuple(map(_set_order, item))
    event = _scalar(item)
    return event.tag, event.value


def _events(value: Any, walk: _Walk, out: list) -> None:
    """Append the events ``SafeDumper`` serializes ``value`` to, unsorted and in block style.

    Each value ``ignore_aliases`` does not exempt is memoized in ``walk``
    by its first event, before its children.  A value met again, or inside
    itself, is an alias of that event, which gets the serializer's next
    anchor (``id001``, ...) when it has none.  A set is a ``!!set`` mapping
    with null values, its items in :func:`_set_order` rather than hash order,
    and a tuple a sequence.  Raises :class:`EmissionError` for a value of a
    type with no representer.
    """
    kind = type(value)
    if kind is str:
        out.append(ScalarEvent(None, _STR, _PLAIN_STR if _plain_tag(value) == _STR else _QUOTED_STR, value))
        return
    if kind in _UNALIASED:
        out.append(_scalar(value))
        return
    aliased = kind is dict or kind is list or not _ignore_aliases(None, value)
    if aliased:
        first = walk.get(id(value))
        if first is not None:
            if first.anchor is None:
                walk.anchors += 1
                first.anchor = f"id{walk.anchors:03d}"
            out.append(AliasEvent(first.anchor))
            return
    if kind not in _COLLECTIONS:
        event = _scalar(value)
    elif kind is dict:
        event = MappingStartEvent(None, _MAP, True, flow_style=False)
    elif kind is set:
        event = MappingStartEvent(None, _SET, False, flow_style=False)
    else:
        event = SequenceStartEvent(None, _SEQ, True, flow_style=False)
    if aliased:
        walk[id(value)] = event
    out.append(event)
    if kind is dict:
        for k, v in value.items():
            _events(k, walk, out)
            _events(v, walk, out)
        out.append(_MAP_END)
    elif kind is set:
        for k in sorted(value, key=_set_order):
            _events(k, walk, out)
            out.append(_scalar(None))
        out.append(_MAP_END)
    elif kind in _COLLECTIONS:
        for v in value:
            _events(v, walk, out)
        out.append(_SEQ_END)


def _dump(tree: dict[Any, Any], walk: _Walk) -> bytes:
    """The block-style YAML of a root mapping, b"" when it is empty, walked in ``walk``."""
    if not tree:
        return b""
    events = [*_OPEN]
    try:
        _events(tree, walk, events)
    except RecursionError as exc:
        raise EmissionError("cannot emit record: a value is nested too deeply") from exc
    events += _CLOSE
    try:
        if issubclass(_DUMPER, yaml.emitter.Emitter):  # the pure emitter escapes lone surrogates
            for event in events:
                if type(event) is ScalarEvent:
                    event.value.encode("utf-8")
        return yaml.emit(events, Dumper=_DUMPER, allow_unicode=True, width=100000).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise EmissionError(f"cannot emit record: UTF-8 cannot encode a string ({exc.reason})") from exc


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

    Raises :class:`EmissionError` for a value nested too deeply, of a type
    with no YAML form, or a string UTF-8 cannot encode (a lone surrogate).
    """
    if not records:
        return []
    runs = _runs(records)
    # Each run keeps its tree, so no id is reused, the ids its walk memoized
    # (None when it met a value twice) and its bytes; its events are dropped.
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
                dumped[key] = (tree, None if walk.anchors else frozenset(walk), data)
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

    The one-record case of :func:`emit_records`: one run holds every field,
    and it raises as that does.
    """
    return emit_records((record,))[0]
