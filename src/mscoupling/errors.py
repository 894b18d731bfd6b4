"""Exception hierarchy shared across the toolkit.

All domain errors derive from :class:`CouplingError` so callers (and the
CLI) can distinguish bad input data from genuine I/O failures, which are
left as the builtin ``OSError`` family.
"""

from __future__ import annotations


def _shown(value: object) -> str:
    """``repr(value)`` cut to at most 80 characters, for echoing an input value in a message."""
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


class CouplingError(Exception):
    """Base class for all domain-level errors raised by this package."""


class DuplicateService(CouplingError):
    """A service id was declared twice in the same graph."""


class UnknownService(CouplingError):
    """An operation referenced a service id that is not in the graph."""


class SelfDependency(CouplingError):
    """A dependency edge named the same service as source and target."""


class EmptyGraph(CouplingError):
    """An operation requiring at least one service ran on an empty graph."""


class UnconnectedPair(CouplingError):
    """A pair metric was requested for two services with no dependencies."""


class ParseError(CouplingError):
    """An input document could not be parsed.

    ``line`` is 1-based when known, else None.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(CouplingError):
    """A parsed document violated a schema or content constraint."""
