"""Exception types raised across the package.

Everything derives from MWTreesError so callers can catch library failures
with a single except clause.  Errors that point at a specific edge carry its
0-based index in ``edge_index``; errors raised for one member of a stack of
matrices carry its position in ``index``.  :func:`refuse_change` is the
AttributeError of an attempt to change an immutable object.
"""

from __future__ import annotations


class MWTreesError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrixError(MWTreesError):
    """A matrix that had to be inverted is singular to working precision."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NonFiniteError(MWTreesError, ValueError):
    """A matrix holds inf or NaN, as when sums of huge weights overflow
    float range.  Also a ValueError, which it was before it was typed."""


class NotSymmetricError(MWTreesError):
    """A routine that requires a symmetric matrix got an asymmetric one."""


class NotSPDError(MWTreesError):
    """A matrix (or edge weight) is not symmetric positive definite."""

    def __init__(self, message: str, edge_index: int | None = None,
                 index: int | None = None):
        super().__init__(message)
        self.edge_index = edge_index
        self.index = index


class NotConnectedError(MWTreesError):
    """The graph is not connected."""


class NotATreeError(MWTreesError):
    """The graph is not a tree."""


class IsATreeError(MWTreesError):
    """The graph is a tree, but the operation needs a cycle somewhere."""


class SameVertexError(MWTreesError):
    """Two distinct vertices were required but the same one was given twice."""


class SingularWeightError(MWTreesError):
    """An edge weight that had to be inverted is singular."""

    def __init__(self, message: str, edge_index: int, endpoints: tuple[int, int]):
        super().__init__(message)
        self.edge_index = edge_index
        self.endpoints = endpoints


class NotInvertibleError(MWTreesError):
    """The requested closed-form inverse does not exist for this input."""

    def __init__(self, message: str, reason: str = ""):
        super().__init__(message)
        self.reason = reason or message


class BadConfigError(MWTreesError):
    """A generator configuration is out of its documented domain."""


class GraphFileError(MWTreesError):
    """A graph file could not be read or written, or failed to parse or
    validate."""

    def __init__(self, message: str, problems: list[str] | None = None):
        super().__init__(message)
        self.problems = list(problems or [])


def refuse_change(obj, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of the package's immutable
    classes: AttributeError, for any attribute."""
    raise AttributeError(f"cannot assign to or delete {name!r}: "
                         f"{type(obj).__name__} is immutable")
