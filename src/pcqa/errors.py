"""Exception and warning types shared across the toolkit, and its two parameter rules."""

import numbers


class Error(Exception):
    """Base class for all toolkit errors."""


class ParseError(Error):
    """Malformed input file: bad header, bad value, unsupported layout."""


class TruncationError(ParseError):
    """File body ends before the declared element count."""


class SchemaError(ParseError):
    """Input table is missing required columns."""


class DuplicateKeyError(ParseError):
    """Input table repeats a primary key that must be unique."""


class ValidationError(Error):
    """Loaded values violate a container invariant (non-finite coordinate,
    out-of-range color, non-unit normal)."""


class DomainError(Error):
    """Operation invoked outside its domain: empty cloud, parameter out of
    range, missing attribute required by the requested computation."""


class DegenerateCloudWarning(UserWarning):
    """Geometry was too degenerate for the usual computation and a documented
    fallback was applied."""


def check_integer(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """DomainError naming `name` unless `value` is a numbers.Integral in [minimum, maximum]."""
    if not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{name} must be <= {maximum}, got {value}")


def check_choice(what: str, value, choices) -> None:
    """DomainError "unknown `what` 'value'" unless `value` is a str in `choices`."""
    if not isinstance(value, str) or value not in choices:
        raise DomainError(f"unknown {what} '{value}'")
