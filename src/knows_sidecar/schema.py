"""Structural schemas built from model field tables, and their validators.

``RECORD_SCHEMA`` is the JSON Schema the ``$schema`` root key points at,
expressed as a plain dict so tests can cross-check it with an off-the-shelf
validator; it and :func:`object_schema` are built from dataclass field tables.
:func:`validator` compiles a schema once, into one closure per schema node.
:func:`validate_tree` is the compiled ``RECORD_SCHEMA``; the linter's check 1
is built on it, so its verdict is that of validating the tree by the schema.
"""

from __future__ import annotations

import re
from dataclasses import is_dataclass
from functools import cached_property
from typing import Any, Callable, Mapping

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


def _kept_nodes() -> dict[int, type]:
    """The classes whose values root fields hold, by the id of the node they fill.

    An item schema takes keywords from its field, so a class that kept its
    findings for two root fields could keep the wrong ones: each fills one.
    """
    nodes = {}
    for slot in model.slots(model.KnowsRecord):
        if is_dataclass(slot.kind) and slot.kind not in _JSON_TYPES:
            node = RECORD_SCHEMA["properties"][slot.key]
            nodes[id(node["items"] if slot.many else node)] = slot.kind
    if len(set(nodes.values())) != len(nodes):
        raise TypeError("a dataclass fills more than one root field of KnowsRecord")
    return nodes


_KEPT_NODES = _kept_nodes()


# ---------------------------------------------------------------------------
# Compiler for the schema subset above: each node compiles once into
# ``check(value, path, problems)``, appending (path, message) pairs.  ``path``
# is a (key, parent) chain, None at the root, rendered only for a problem.  A
# value of the wrong type or outside the enumeration gets no further checks.
# A ``RECORD_SCHEMA`` node that a root field's dataclass values fill reads a
# value of exactly that class (see ``serialization.typed_root``) as the
# findings it keeps, ``_k001``: the node's check of its emitted tree, with
# paths relative to the value, computed once per value.

_Check = Callable[[Any, Any, list], None]

_CLASSES = dict(string=str, integer=int, number=(int, float), boolean=bool, array=list, object=dict)

# Keyword -> its value -> (test on a value of the node's type, message); NaN fails both bounds.
_TESTS = {
    "minLength": lambda n: (lambda v: len(v) >= n, "string must be non-empty"),
    "pattern": lambda p: (re.compile(p).search, f"string does not match {p}"),
    "format": lambda _: (is_timestamp, "not a valid RFC 3339 timestamp"),  # date-time
    "minimum": lambda m: (lambda v: v >= m, f"number must be >= {m}"),
    "maximum": lambda m: (lambda v: v <= m, f"number must be <= {m}"),
    "minItems": lambda n: (lambda v: len(v) >= n, "at least one item required"),
    "minProperties": lambda n: (lambda v: len(v) >= n, "at least one field required"),
}


def _compile(schema: Mapping[str, Any]) -> _Check:
    expected = schema.get("type")
    classes = _CLASSES.get(expected, object)
    numeric = expected in ("integer", "number")  # a bool is never a number
    members = frozenset(schema["enum"]) if "enum" in schema else None
    tests = [make(schema[key]) for key, make in _TESTS.items() if key in schema]
    walk = _object_walk(schema) if expected == "object" else None
    if "items" in schema:
        walk = _items_walk(_compile(schema["items"]))
    typed = _KEPT_NODES.get(id(schema))

    def check(value: Any, path: Any, problems: list) -> None:
        if not isinstance(value, classes) or (numeric and isinstance(value, bool)):
            if type(value) is typed:
                for key, message in value._k001:
                    problems.append(((key, path) if key else path, message))
                return
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

    if typed is not None:
        _keep_findings(typed, check)
    return check


def _keep_findings(cls: type, check: _Check) -> None:
    """Give ``cls`` the kept state ``_k001``: ``check``'s findings on a value."""
    emit = serialization._emitter(cls)

    def findings(value: Any) -> tuple[tuple[str, str], ...]:
        problems: list = []
        check(emit(value), None, problems)
        return tuple((_render(path), message) for path, message in problems)

    kept = cached_property(findings)
    kept.__set_name__(cls, "_k001")
    cls._k001 = kept


def _object_walk(schema: Mapping[str, Any]) -> _Check:
    required = dict.fromkeys(schema.get("required", ()))
    properties = {key: _compile(sub) for key, sub in schema.get("properties", {}).items()}
    closed = schema.get("additionalProperties") is False
    one_of = [(b["required"], b.get("not", {}).get("required", ())) for b in schema.get("oneOf", ())]

    def walk(value: dict, path: Any, problems: list) -> None:
        if not value.keys() >= required.keys():
            for key in required:
                if key not in value:
                    problems.append(((key, path), "required field missing"))
        if closed and not value.keys() <= properties.keys():
            for key in value:
                if key not in properties:
                    problems.append(((key, path), "unknown field"))
        for key, check in properties.items():
            if key in value:
                check(value[key], (key, path), problems)
        if one_of:
            hits = 0
            for needed, excluded in one_of:
                hits += all(k in value for k in needed) and not any(k in value for k in excluded)
            if hits != 1:
                problems.append((path, "exactly one alternative must hold"))

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


def validator(schema: Mapping[str, Any]) -> Callable[[Any], list[tuple[str, str]]]:
    """Compile ``schema`` once: the result lists a value's violations as (path, message)."""
    check = _compile(schema)

    def validate(value: Any) -> list[tuple[str, str]]:
        problems: list = []
        check(value, None, problems)
        return [(_render(path), message) for path, message in problems]

    return validate


# Structural violations of a raw document tree as (path, message) pairs.
validate_tree = validator(RECORD_SCHEMA)
