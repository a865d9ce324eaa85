"""Structural schemas built from model field tables, and their validators.

``RECORD_SCHEMA`` is the JSON Schema the ``$schema`` root key points at,
expressed as a plain dict so tests can cross-check it with an off-the-shelf
validator; it and :func:`object_schema` are built from dataclass field tables.
:func:`validator` compiles a schema once, into one closure per schema node.
:func:`validate_tree` is the compiled ``RECORD_SCHEMA``, which checks trees.
The same compilation walks the fields of a record built in memory, and of
each value it holds, without emitting a tree.  Every record keeps its
findings as ``_k001``, which the linter's check 1 reports, so its verdict is
that of validating the record's tree by the schema.
"""

from __future__ import annotations

import re
from dataclasses import is_dataclass
from functools import cached_property
from typing import Any, Callable, Mapping, Optional

from . import model, serialization
from .model import is_timestamp

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
# Compiler for the schema subset above: each node compiles once into
# ``check(value, path, problems)``, appending (path, message) pairs.  ``path``
# is a (key, parent) chain, None at the root, rendered only for a problem.  A
# value of the wrong type or outside the enumeration gets no further checks.
#
# A node that a model dataclass fills (for an array, its items) also compiles
# ``walk_value``: it checks a value of that class (for an array, a tuple of
# them) as ``check`` checks the value's emitted tree, without emitting it.  It
# reads each field (``model.slots``), converts it with the converter of
# ``serialization._emit_steps`` and checks what the tree would hold.  A field
# that holds a value of exactly its declared class, or a tuple of them, is
# walked in turn instead; anything else there (a list, an item of another
# class, a subclass) is emitted and its tree checked.  Each field is converted
# and checked before the next, in emission order, and only converting raises
# (walking a value converts its fields), so every finding, its order and any
# exception are those of emitting the tree and checking it.
#
# Each value of a class that a root field of ``KnowsRecord`` holds keeps the
# findings of its walk, ``_k001``, with paths relative to it, computed once
# per value; the record's walk reads them.  A record keeps its own:
# ``load_record`` presets them from the parsed tree, and one built in memory
# computes them once by walking its fields.

_Check = Callable[[Any, Any, list], None]

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


# Keyword -> its value -> (test on a value of the node's type, message); NaN fails both bounds.
# ``minItems`` and ``minProperties`` test a length only, so a walk hands them a
# tuple of items, or a dict of the keys a tree would hold.
_TESTS = {
    "minLength": lambda n: (lambda v: len(v) >= n, "string must be non-empty"),
    "pattern": lambda p: (_ecma_search(p), f"string does not match {p}"),
    "format": lambda _: (is_timestamp, "not a valid RFC 3339 timestamp"),  # date-time
    "minimum": lambda m: (lambda v: v >= m, f"number must be >= {m}"),
    "maximum": lambda m: (lambda v: v <= m, f"number must be <= {m}"),
    "minItems": lambda n: (lambda v: len(v) >= n, "at least one item required"),
    "minProperties": lambda n: (lambda v: len(v) >= n, "at least one field required"),
}


def _compile(
    schema: Mapping[str, Any], cls: Any = None, kept: bool = False
) -> tuple[_Check, Optional[_Check]]:
    """The node's check and, when a dataclass ``cls`` fills the node, its ``walk_value``.

    At a root field's node (``kept``), a value of ``cls`` keeps the findings of its walk.
    """
    expected = schema.get("type")
    classes = _CLASSES.get(expected, object)
    numeric = expected in ("integer", "number")  # a bool is never a number
    members = frozenset(schema["enum"]) if "enum" in schema else None
    tests = [make(schema[key]) for key, make in _TESTS.items() if key in schema]
    walk = walk_value = None
    if expected == "object":
        walk, walk_value = _object_walks(schema, cls, tests)
    if "items" in schema:
        check_item, walk_item = _compile(schema["items"], cls, kept)
        walk = _items_walk(check_item)
        if walk_item is not None:
            walk_value = _tuple_walk(walk_item, tests)
    elif kept and walk_value is not None:
        walk_fields = walk_value
        _keep_findings(cls, lambda value: tuple(_findings(walk_fields, value)))
        walk_value = _read_kept

    def check(value: Any, path: Any, problems: list) -> None:
        if not isinstance(value, classes) or (numeric and isinstance(value, bool)):
            problems.append((path, f"expected {expected}"))
            return
        if members is not None:
            try:
                known = value in members
            except TypeError:  # a list or a mapping is never a member
                known = False
            if not known:
                problems.append((path, f"value {value!r} not in enumeration"))
                return
        for test, message in tests:
            if not test(value):
                problems.append((path, message))
        if walk is not None:
            walk(value, path, problems)

    return check, walk_value


def _keep_findings(cls: type, findings: Callable[[Any], tuple[tuple[str, str], ...]]) -> None:
    """Give ``cls`` the kept state ``_k001``: ``findings`` of a value, computed once.

    An item schema takes keywords from its field, so a class that kept its
    findings for two root fields could keep the wrong ones: each fills one.
    """
    if "_k001" in vars(cls):
        raise TypeError(f"{cls.__name__} fills more than one root field of KnowsRecord")
    kept = cached_property(findings)
    kept.__set_name__(cls, "_k001")
    cls._k001 = kept


def _read_kept(value: Any, path: Any, problems: list) -> None:
    """Append the findings ``value`` keeps, each under ``path``."""
    for key, message in value._k001:
        problems.append(((key, path) if key else path, message))


def _adopter(cls: type, many: bool, walk_value: _Check) -> Callable[[Any], Optional[_Check]]:
    """``walk_value`` for a field's value of exactly ``cls`` (if ``many``, a tuple of them), else None."""
    if not many:
        return lambda value: walk_value if type(value) is cls else None

    def adopt(value: Any) -> Optional[_Check]:
        if type(value) is not tuple:
            return None
        for item in value:
            if type(item) is not cls:
                return None
        return walk_value

    return adopt


def _object_walks(schema: Mapping[str, Any], cls: Any, tests: list) -> tuple[_Check, Optional[_Check]]:
    """The walk of an object node's mapping and, when ``cls`` is a dataclass, of its fields.

    The second walks any value with the fields of ``cls``, checking each
    field as soon as it is converted.
    """
    required = dict.fromkeys(schema.get("required", ()))
    slots = model.slots(cls) if is_dataclass(cls) else ()
    kinds = {slot.key: slot.kind for slot in slots}
    nodes = {
        key: _compile(sub, kinds.get(key), cls is model.KnowsRecord)
        for key, sub in schema.get("properties", {}).items()
    }
    properties = {key: check for key, (check, _) in nodes.items()}
    closed = schema.get("additionalProperties") is False
    one_of = [
        (frozenset(b["required"]), frozenset(b.get("not", {}).get("required", ())))
        for b in schema.get("oneOf", ())
    ]

    def shape(value: Mapping[str, Any], path: Any, problems: list) -> None:
        if not value.keys() >= required.keys():
            for key in required:
                if key not in value:
                    problems.append(((key, path), "required field missing"))

    def alternatives(value: Mapping[str, Any], path: Any, problems: list) -> None:
        hits = 0
        for needed, excluded in one_of:
            hits += value.keys() >= needed and value.keys().isdisjoint(excluded)
        if hits != 1:
            problems.append((path, "exactly one alternative must hold"))

    def walk(value: dict, path: Any, problems: list) -> None:
        shape(value, path, problems)
        if closed and not value.keys() <= properties.keys():
            for key in value:
                if key not in properties:
                    problems.append(((key, path), "unknown field"))
        for key, check in properties.items():
            if key in value:
                check(value[key], (key, path), problems)
        if one_of:
            alternatives(value, path, problems)

    if not slots:
        return walk, None
    emit_steps = serialization._emit_steps(cls)
    # Per field: (attribute, key, adopter or None, converter or None, check,
    # whether an adopted empty tuple drops the key, as an optional empty list does).
    steps = []
    for (attr, key, convert), slot in zip(emit_steps, slots):
        check, walk_value = nodes[key]
        adopt = None if walk_value is None else _adopter(slot.kind, slot.many, walk_value)
        steps.append((attr, key, adopt, convert, check, slot.many and not slot.required))
    keys = [key for _, key, *_ in steps]

    def walk_fields(value: Any, path: Any, problems: list) -> None:
        start = len(problems)
        absent = []
        for attr, key, adopt, convert, check, drop_empty in steps:
            field = getattr(value, attr)
            if field is not None:
                adopted = adopt and adopt(field)
                if adopted is not None:
                    check = adopted
                    if drop_empty and not field:
                        field = None
                elif convert is not None:
                    field = convert(field)
            if field is None:
                absent.append(key)
            else:
                check(field, (key, path), problems)
        if tests or one_of or not required.keys().isdisjoint(absent):
            # The keys the emitted tree holds: its size and its required keys
            # are checked before its fields, its alternatives after.
            present = dict.fromkeys(keys)
            for key in absent:
                del present[key]
            head: list = []
            for test, message in tests:
                if not test(present):
                    head.append((path, message))
            shape(present, path, head)
            problems[start:start] = head
            if one_of:
                alternatives(present, path, problems)

    return walk, walk_fields


def _tuple_walk(walk_item: _Check, tests: list) -> _Check:
    """Check a tuple as its emitted list: each item by ``walk_item``."""
    kept = walk_item is _read_kept

    def walk(items: tuple, path: Any, problems: list) -> None:
        for test, message in tests:
            if not test(items):
                problems.append((path, message))
        for i, item in enumerate(items):
            if not kept or item._k001:  # most kept items have no findings
                walk_item(item, (str(i), path), problems)

    return walk


def _items_walk(check_item: _Check) -> _Check:
    def walk(value: list, path: Any, problems: list) -> None:
        for i, item in enumerate(value):
            check_item(item, (str(i), path), problems)

    return walk


def _render(path: Any) -> Any:
    """A (key, parent) chain as "a/0/b"; a key under an empty path stays as it is."""
    if path is None:
        return ""
    key, parent = path
    rendered = _render(parent)
    return f"{rendered}/{key}" if rendered else key


def _findings(check: _Check, value: Any) -> list[tuple[str, str]]:
    problems: list = []
    check(value, None, problems)
    return [(_render(path), message) for path, message in problems]


def validator(schema: Mapping[str, Any]) -> Callable[[Any], list[tuple[str, str]]]:
    """Compile ``schema`` once: the result lists a value's violations as (path, message)."""
    check, _ = _compile(schema)
    return lambda value: _findings(check, value)


_check_record, _walk_record = _compile(RECORD_SCHEMA, model.KnowsRecord)


def validate_tree(tree: Any) -> list[tuple[str, str]]:
    """Structural violations of a raw document tree as (path, message) pairs."""
    return _findings(_check_record, tree)


_keep_findings(model.KnowsRecord, lambda record: tuple(_findings(_walk_record, record)))
