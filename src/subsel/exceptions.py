"""Exception types raised by subsel.

All input-contract violations derive from :class:`InputError` (a ValueError),
so callers can catch one type at an API boundary while tests can distinguish
the specific failure. Out-of-range indices raise the builtin IndexError;
an index or count that is not an integer raises InputError (:func:`_integer`).
"""

from __future__ import annotations

import numbers


class InputError(ValueError):
    """Base class for all input-contract violations.

    ``row`` holds the index of the offending input row (or triple) when one
    is known, so a caller that read the input from a file can name its line.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def _integer(name: str, value) -> int:
    """``value`` as an int, or InputError naming ``name``; numpy integers count, ``bool`` does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


class DegenerateInputError(InputError):
    """Input is structurally unusable (empty, zero-variance row, all-zero row)."""


class ConstraintViolationError(InputError):
    """A value violates a domain constraint (e.g. a negative similarity).

    ``position`` holds the offending (row, col) when known.
    """

    def __init__(self, message: str, position: tuple[int, int] | None = None):
        super().__init__(message, None if position is None else position[0])
        self.position = position


class NegativeCosineError(ConstraintViolationError):
    """A cosine similarity of two input rows is negative.

    ``position`` holds the two rows and ``value`` the cosine, so a caller
    that read the rows from a file can name both lines.
    """

    def __init__(self, message: str, position: tuple[int, int], value: float):
        super().__init__(message, position)
        self.value = value


class TripleValidationError(InputError):
    """A sparse (row, col, value) triple failed validation.

    ``row`` is the position of the offending triple in the input sequence and
    ``triple`` is its content, so callers that read triples from a file can
    map the failure back to a line.
    """

    def __init__(self, message: str, row: int, triple: tuple):
        super().__init__(message, row)
        self.triple = triple


class AlreadySelectedError(InputError):
    """A candidate was offered to gain/update but is already selected."""


class EnumerationBoundError(InputError):
    """Brute-force enumeration was refused because C(n, k) is too large."""


class ApproximationFailure(AssertionError):
    """Greedy fell below the guaranteed fraction of the exhaustive optimum.

    Carries both subsets for post-mortem inspection.
    """

    def __init__(self, message: str, greedy_set, opt_set):
        super().__init__(message)
        self.greedy_set = tuple(greedy_set)
        self.opt_set = tuple(opt_set)
