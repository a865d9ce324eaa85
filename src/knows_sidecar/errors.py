"""Exception hierarchy shared across the toolchain."""

from __future__ import annotations


class KnowsError(Exception):
    """Base class for all toolchain errors."""


class MalformedError(KnowsError, ValueError):
    """A textual value does not match its grammar."""


class UnknownPrefixError(MalformedError):
    """An entity ID uses a prefix outside the closed six-member set."""


class RecordSyntaxError(KnowsError):
    """The byte sequence is not a well-formed single YAML document."""


class EmissionError(KnowsError):
    """A record cannot be written as YAML, e.g. a value nested too deeply."""


class TypeMismatchError(KnowsError):
    """The document root is not the expected node kind (e.g. scalar where mapping expected)."""


class UnknownRecordError(KnowsError):
    """A remote reference names a record absent from the registry."""


class UnknownEntityError(KnowsError):
    """A reference names a local ID absent from its record."""


class ClassMismatchError(KnowsError):
    """A reference's prefix disagrees with the class of the resolved entity."""


class CycleDetectedError(KnowsError):
    """A version chain revisits a record_id."""


class InvalidInputError(KnowsError, ValueError):
    """Scaffold input is missing mandatory content."""


class NotApplicableError(KnowsError):
    """A corruption kind cannot be applied to the given record."""


class ProviderFailureError(KnowsError):
    """A passage provider raised while fetching fallback pages."""


class EmptyInputError(KnowsError, ValueError):
    """An aggregate was requested over zero items."""
