"""Structural schemas built from model field tables, and their validators.

``RECORD_SCHEMA`` is the JSON Schema the ``$schema`` root key points at,
expressed as a plain dict so tests can cross-check it with an off-the-shelf
validator; it and :func:`object_schema` are built from dataclass field tables.
:func:`validator` compiles a schema once, into one step table per object
node, which one loop per object reads, checking each leaf inline.
:func:`validate_tree` is the compiled ``RECORD_SCHEMA``, which checks trees.
The same tables walk the fields of a record built in memory, and of each
value it holds, without emitting a tree.  Every record keeps its
findings as ``_k001``, which the linter's check 1 reports, so its verdict is
that of validating the record's tree by the schema.
"""

from __future__ import annotations

import re
from dataclasses import is_dataclass
from functools import cached_property, partial
from typing import Any, Callable, Mapping

from . import model, serialization
from .model import is_timestamp, shown

_JSON_TYPES = {
    str: "string",
    **dict.fromkeys(model.STRING_PARSERS, "string"),
    int: "integer",
    float: "number",
    bool: "boolean",
    dict: "object",
}


def _value_schema(kind: Any, meta: Any) -> dict[str, Any]:
    if "enum" in meta:
        return {"enum": sorted(meta["enum"])}
    if kind not in _JSON_TYPES:
        return _object_schema(kind, meta)
    schema = {"type": _JSON_TYPES[kind]}
    for keyword in ("minLength", "pattern", "format", "minimum", "maximum"):
        if keyword in meta:
            schema[keyword] = meta[keyword]
    return schema


def _slot_schema(slot: model.Slot) -> dict[str, Any]:
    if not slot.many:
        return _value_schema(slot.kind, slot.meta)
    schema: dict[str, Any] = {"type": "array"}
    if "minItems" in slot.meta:
        schema["minItems"] = slot.meta["minItems"]
    if slot.kind is not Any:
        schema["items"] = _value_schema(slot.kind, slot.meta)
    return schema


def _object_schema(cls: type, meta: Any) -> dict[str, Any]:
    """A closed object: the dataclass's fields plus the field's object keywords."""
    slots = model.slots(cls)
    schema: dict[str, Any] = {"type": "object", "additionalProperties": False}
    if "minProperties" in meta:
        schema["minProperties"] = meta["minProperties"]
    required = [slot.key for slot in slots if slot.required]
    if required:
        schema["required"] = required
    schema["properties"] = {slot.key: _slot_schema(slot) for slot in slots}
    if "exactly_one_of" in meta:
        a, b = meta["exactly_one_of"]
        schema["oneOf"] = [
            {"required": [a], "not": {"required": [b]}},
            {"required": [b], "not": {"required": [a]}},
        ]
    return schema


def object_schema(cls: type) -> dict[str, Any]:
    """The JSON Schema of a dataclass written in the field table's terms."""
    return _object_schema(cls, {})


RECORD_SCHEMA: dict[str, Any] = {"$id": model.SCHEMA_URI, **object_schema(model.KnowsRecord)}


# ---------------------------------------------------------------------------
# Compiler for the schema subset above.  Each node compiles once, at import,
# into a ``_Node``; an object node holds a step table, one step per property
# in schema order, each compiled to one of two operations.  A leaf (a node
# with neither properties nor items) is checked inline by the object's loop,
# as ``_Node.check`` checks it and in the same order; a nested node is handed
# to its ``check``, which descends into the object or array.  A check appends
# (path, message) pairs, where ``path`` is a (key, parent) chain, None at the
# root, rendered only at the end, so the loop builds a path only for a
# finding or for a value it descends into.  A value of the wrong type or
# outside the enumeration gets no further checks; the enumeration's message
# shows the value with ``model.shown``.
#
# An object node that a model dataclass fills also walks a value of that
# class: the same loop checks its fields as it checks the value's emitted
# tree, without emitting it.  It reads each field (``model.slots``), converts
# it with the converter of ``serialization._emit_steps`` and checks what the
# tree would hold.  A field that holds a value of exactly its declared class,
# or a tuple of them, is walked in turn instead; anything else there (a list,
# an item of another class) is emitted and its tree checked.  Each field is
# converted and checked before the next, in emission order, and only
# converting raises (walking a value converts its fields), so every finding,
# its order and any exception are those of emitting the tree and checking it.
#
# Each value of a class that a root field of ``KnowsRecord`` holds keeps the
# findings of its walk, ``_k001``, with paths relative to it, computed once
# per value; the record's walk reads them.  A record keeps its own:
# ``load_record`` presets them from the parsed tree, and one built in memory
# computes them once by walking its fields.

_CLASSES = dict(string=str, integer=int, number=(int, float), boolean=bool, array=list, object=dict)

# A ``$`` or ``.`` outside an escape and a character class, and what it skips over.
_BARE = re.compile(r"\\.|\[(?:\\.|[^\]])*\]|[$.]", re.S)
# What a bare ``$`` and ``.`` read as in ECMA-262: the end, and any character
# but a line terminator.
_ECMA = {"$": r"\Z", ".": "[^\n\r\u2028\u2029]"}


def _ecma_search(pattern: str) -> Callable[[str], Any]:
    """``search`` by ``pattern`` read as JSON Schema's ECMA-262 reads it.

    There ``$`` matches only at the end of the string, not before a final
    newline; ``.`` matches no line terminator (``\\n``, ``\\r``, U+2028,
    U+2029); and ``\\d`` and ``\\w`` match only ASCII characters.
    """
    text = _BARE.sub(lambda m: _ECMA.get(m[0], m[0]), pattern)
    return re.compile(text, re.ASCII).search


# Keyword -> its value -> (test on a value of the node's type, message); NaN
# fails both bounds.  ``minLength`` is read inline (``_Node.min_length``).
# ``minItems`` and ``minProperties`` test a length only, so a walk hands them a
# tuple of items, or a dict of the keys a tree would hold.
_TESTS = {
    "pattern": lambda p: (_ecma_search(p), f"string does not match {p}"),
    "format": lambda _: (is_timestamp, "not a valid RFC 3339 timestamp"),  # date-time
    "minimum": lambda m: (lambda v: v >= m, f"number must be >= {m}"),
    "maximum": lambda m: (lambda v: v <= m, f"number must be <= {m}"),
    "minItems": lambda n: (lambda v: len(v) >= n, "at least one item required"),
    "minProperties": lambda n: (lambda v: len(v) >= n, "at least one field required"),
}


class _Node:
    """One compiled schema node.

    ``typed`` is false for a node with no ``type``, such as an enumeration
    alone, which tests no class.  ``min_length`` is the ``minLength`` keyword
    (None when absent) and ``tests`` pairs each other keyword test with its
    message; a node without them skips both.  An array node
    has its ``items`` node.  An object node has ``steps``, one per property,
    as (key, node, leaf, attribute, converter, walked, kept): ``leaf`` is the
    property's operation, true when its node has neither steps nor items, so
    that an object's loop checks the value inline, and false when the loop
    calls the node's ``check`` to descend.  When a dataclass ``cls``
    fills the node, the last four describe the field of that key: its name,
    its emission converter, the node whose class a value of the field (an
    item, for a tuple) is walked by, or None, and whether such a value keeps
    its findings.
    """

    __slots__ = (
        "mismatch", "classes", "typed", "numeric", "members", "min_length", "tests", "items",
        "cls", "steps", "keys", "required", "closed", "one_of",
    )

    def check(self, value: Any, path: Any, problems: list) -> None:
        """Check ``value``, a tree, at this node."""
        if self.typed and (not isinstance(value, self.classes) or (self.numeric and type(value) is bool)):
            problems.append((path, self.mismatch))
            return
        if self.members is not None:
            try:
                known = value in self.members
            except TypeError:  # a list or a mapping is never a member
                known = False
            if not known:
                problems.append((path, f"value {shown(value)} not in enumeration"))
                return
        if self.min_length is not None and len(value) < self.min_length:
            problems.append((path, "string must be non-empty"))
        if self.tests:
            for test, message in self.tests:
                if not test(value):
                    problems.append((path, message))
        if self.steps is not None:
            self.walk(value, path, problems)
        elif self.items is not None:
            for i, item in enumerate(value):
                self.items.check(item, (str(i), path), problems)

    def walk(self, value: Any, path: Any, problems: list, fields: bool = False) -> None:
        """Check the properties of a mapping at this object node or, with
        ``fields``, the fields of a value of ``cls`` as its emitted tree's."""
        if fields:
            start = len(problems)
            absent = []
        else:
            if not value.keys() >= self.required.keys():
                for key in self.required:
                    if key not in value:
                        problems.append(((key, path), "required field missing"))
            if self.closed and not value.keys() <= self.keys.keys():
                for key in value:
                    if key not in self.keys:
                        problems.append(((key, path), "unknown field"))
        for key, node, leaf, attr, convert, walked, kept in self.steps:
            if not fields:
                if key not in value:
                    continue
                item = value[key]
            else:
                item = getattr(value, attr)
                if item is None:
                    absent.append(key)
                    continue
                if walked is node:
                    if type(item) is walked.cls:
                        if not kept:
                            walked.walk(item, (key, path), problems, True)
                        elif item._k001:
                            _rebase(item._k001, (key, path), problems)
                        continue
                elif walked is not None and type(item) is tuple:
                    # Kept findings are read as the items' classes are checked:
                    # an item of another class has the tuple emitted, and an
                    # item before it raises here as emitting it would.
                    cls, found = walked.cls, not kept
                    for each in item:
                        if type(each) is not cls:
                            break
                        if not found and each._k001:  # most kept items have no findings
                            found = True
                    else:
                        if not item and key not in self.required:
                            absent.append(key)  # as an optional empty list drops its key
                            continue
                        for test, message in node.tests:
                            if not test(item):
                                problems.append(((key, path), message))
                        if found:
                            here = (key, path)
                            for i, each in enumerate(item):
                                if not kept:
                                    walked.walk(each, (str(i), here), problems, True)
                                elif each._k001:
                                    _rebase(each._k001, (str(i), here), problems)
                        continue
                if convert is not None:
                    item = convert(item)
                    if item is None:
                        absent.append(key)
                        continue
            # The value the tree holds at ``key``: a leaf checked as ``node.check`` checks one.
            if leaf:
                if node.typed and (not isinstance(item, node.classes) or (node.numeric and type(item) is bool)):
                    problems.append(((key, path), node.mismatch))
                    continue
                if node.members is not None:
                    try:
                        known = item in node.members
                    except TypeError:
                        known = False
                    if not known:
                        problems.append(((key, path), f"value {shown(item)} not in enumeration"))
                        continue
                if node.min_length is not None and len(item) < node.min_length:
                    problems.append(((key, path), "string must be non-empty"))
                if node.tests:
                    for test, message in node.tests:
                        if not test(item):
                            problems.append(((key, path), message))
            else:
                node.check(item, (key, path), problems)
        if not fields:
            if self.one_of:
                _alternatives(self.one_of, value, path, problems)
        elif self.tests or self.one_of or not self.required.keys().isdisjoint(absent):
            # The keys the emitted tree holds: its size and its required keys
            # are checked before its fields, its alternatives after.
            present = dict(self.keys)
            for key in absent:
                del present[key]
            head: list = []
            for test, message in self.tests:
                if not test(present):
                    head.append((path, message))
            for key in self.required:
                if key not in present:
                    head.append(((key, path), "required field missing"))
            problems[start:start] = head
            if self.one_of:
                _alternatives(self.one_of, present, path, problems)


def _alternatives(one_of: tuple, value: Mapping[str, Any], path: Any, problems: list) -> None:
    hits = 0
    for needed, excluded in one_of:
        hits += value.keys() >= needed and value.keys().isdisjoint(excluded)
    if hits != 1:
        problems.append((path, "exactly one alternative must hold"))


def _rebase(findings: tuple[tuple[str, str], ...], path: Any, problems: list) -> None:
    """Append kept ``findings``, each under ``path``."""
    for key, message in findings:
        problems.append(((key, path) if key else path, message))


def _compile(schema: Mapping[str, Any], cls: Any = None) -> _Node:
    """The node of ``schema``, which values of ``cls`` fill when it is a dataclass."""
    node = _Node()
    expected = schema.get("type")
    node.mismatch = f"expected {expected}"
    node.classes = _CLASSES.get(expected, object)
    node.typed = node.classes is not object
    node.numeric = expected in ("integer", "number")  # a bool is never a number
    node.members = frozenset(schema["enum"]) if "enum" in schema else None
    node.min_length = schema.get("minLength")
    node.tests = tuple(make(schema[key]) for key, make in _TESTS.items() if key in schema)
    node.items = _compile(schema["items"], cls) if "items" in schema else None
    node.cls = cls if expected == "object" and is_dataclass(cls) else None
    node.steps = None
    if expected == "object":
        _compile_object(node, schema)
    return node


def _compile_object(node: _Node, schema: Mapping[str, Any]) -> None:
    """Give an object node its steps, and what it checks of a mapping's keys."""
    cls = node.cls
    slots = {slot.key: slot for slot in model.slots(cls)} if cls else {}
    converters = {key: convert for _, key, convert in serialization._emit_steps(cls)} if cls else {}
    steps = []
    for key, sub in schema.get("properties", {}).items():
        slot = slots.get(key)
        child = _compile(sub, slot and slot.kind)
        walked = child.items if slot is not None and slot.many else child
        if walked is None or walked.cls is None:
            walked = None
        kept = walked is not None and cls is model.KnowsRecord
        if kept:  # a root field's value keeps the findings of its walk
            _keep_findings(walked)
        attr = slot and slot.name
        leaf = child.steps is None and child.items is None
        steps.append((key, child, leaf, attr, converters.get(key), walked, kept))
    node.keys = dict.fromkeys(key for key, *_ in steps)
    node.required = dict.fromkeys(schema.get("required", ()))
    node.closed = schema.get("additionalProperties") is False
    node.one_of = tuple(
        (frozenset(b["required"]), frozenset(b.get("not", {}).get("required", ())))
        for b in schema.get("oneOf", ())
    )
    if steps or node.required or node.closed or node.one_of:
        node.steps = tuple(steps)


def _keep_findings(node: _Node) -> None:
    """Give ``node.cls`` the kept state ``_k001``: the findings of a value's walk, computed once.

    An item schema takes keywords from its field, so a class that kept its
    findings for two root fields could keep the wrong ones: each fills one.
    """
    cls = node.cls
    if "_k001" in vars(cls):
        raise TypeError(f"{cls.__name__} fills more than one root field of KnowsRecord")
    walk = partial(node.walk, fields=True)
    kept = cached_property(lambda value: tuple(_findings(walk, value)))
    kept.__set_name__(cls, "_k001")
    cls._k001 = kept


def _render(path: Any) -> Any:
    """A (key, parent) chain as "a/0/b"; a key under an empty path stays as it is."""
    if path is None:
        return ""
    key, parent = path
    rendered = _render(parent)
    return f"{rendered}/{key}" if rendered else key


def _findings(walk: Callable[[Any, Any, list], None], value: Any) -> list[tuple[str, str]]:
    problems: list = []
    walk(value, None, problems)
    return [(_render(path), message) for path, message in problems]


def validator(schema: Mapping[str, Any]) -> Callable[[Any], list[tuple[str, str]]]:
    """Compile ``schema`` once: the result lists a value's violations as (path, message)."""
    check = _compile(schema).check
    return lambda value: _findings(check, value)


_RECORD = _compile(RECORD_SCHEMA, model.KnowsRecord)
_check_record = _RECORD.check


def validate_tree(tree: Any) -> list[tuple[str, str]]:
    """Structural violations of a raw document tree as (path, message) pairs."""
    return _findings(_check_record, tree)


_keep_findings(_RECORD)
