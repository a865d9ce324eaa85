"""Structural schema for KnowsRecord v0.9 documents.

``RECORD_SCHEMA`` is the JSON Schema the ``$schema`` root key points at,
expressed as a plain dict so tests can cross-check it with an off-the-shelf
validator.  It is built once, at import, from the field table of the model
dataclasses.  :func:`validate_tree` is an independent evaluator for the schema
subset used here; the linter's check 1 is built on it so its verdict stays
equivalent to validating the raw tree against the schema.
"""

from __future__ import annotations

import re
from typing import Any

from . import model
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
    for keyword in ("minLength", "pattern", "format"):
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


RECORD_SCHEMA: dict[str, Any] = {"$id": model.SCHEMA_URI, **_object_schema(model.KnowsRecord, {})}


# ---------------------------------------------------------------------------
# Evaluator for the schema subset above


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}


def _evaluate(value: Any, schema: dict[str, Any], path: str) -> list[tuple[str, str]]:
    problems: list[tuple[str, str]] = []

    expected = schema.get("type")
    if expected is not None and not _TYPE_CHECKS[expected](value):
        problems.append((path, f"expected {expected}"))
        return problems

    if "enum" in schema and value not in schema["enum"]:
        problems.append((path, f"value {value!r} not in enumeration"))
        return problems

    if isinstance(value, str):
        if len(value) < schema.get("minLength", 0):
            problems.append((path, "string must be non-empty"))
        pattern = schema.get("pattern")
        if pattern is not None and re.search(pattern, value) is None:
            problems.append((path, f"string does not match {pattern}"))
        if schema.get("format") == "date-time" and not is_timestamp(value):
            problems.append((path, "not a valid RFC 3339 timestamp"))

    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                problems.append((_join(path, key), "required field missing"))
        props = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in props:
                    problems.append((_join(path, key), "unknown field"))
        if len(value) < schema.get("minProperties", 0):
            problems.append((path, "at least one field required"))
        for key, sub in props.items():
            if key in value:
                problems.extend(_evaluate(value[key], sub, _join(path, key)))
        one_of = schema.get("oneOf")
        if one_of is not None:
            hits = 0
            for branch in one_of:
                ok = all(k in value for k in branch.get("required", ()))
                negated = branch.get("not", {}).get("required", ())
                ok = ok and not any(k in value for k in negated)
                hits += ok
            if hits != 1:
                problems.append((path, "exactly one alternative must hold"))

    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            problems.append((path, "at least one item required"))
        items = schema.get("items")
        if items is not None:
            for i, item in enumerate(value):
                problems.extend(_evaluate(item, items, _join(path, str(i))))

    return problems


def _join(path: str, key: str) -> str:
    return f"{path}/{key}" if path else key


def validate_tree(tree: Any) -> list[tuple[str, str]]:
    """Structural violations of a raw document tree as (path, message) pairs."""
    return _evaluate(tree, RECORD_SCHEMA, "")
