"""Exception hierarchy shared by all bidisk modules.

Two branches matter for callers: ``InputError`` covers bad arguments,
violated preconditions, and malformed files (CLI exit code 2), while
``NumericalError`` covers failures of the computation itself (exit code 3).
"""

from __future__ import annotations


class BidiskError(Exception):
    """Base class for all structured errors raised by this package.

    A solver error carries the order ``n`` its message names (None when it
    names none) and the ``stage`` that failed: ``"assemble"``, ``"factor"``,
    ``"solve"`` or ``"certify"`` (None outside a solve).
    """

    exit_code = 3

    def __init__(self, *args, n=None, stage=None):
        super().__init__(*args)
        self.n, self.stage = n, stage


class InputError(BidiskError):
    """Invalid argument, violated precondition, or malformed input data."""

    exit_code = 2


class ArgumentError(InputError, ValueError):
    """An argument value is out of range or malformed.

    Also a ``ValueError``, so callers that catch the built-in exception for
    a bad argument keep working.
    """


class GridSizeError(InputError):
    """A series operation would exceed the configured coefficient-grid cap."""


class DomainError(InputError):
    """An evaluation point lies outside the open unit disk."""


class DivergentKernelError(DomainError):
    """Reproducing-kernel norm requested at a point where the series diverges."""


class PatternViolationError(InputError):
    """A series has support off the requested diagonal pattern."""


class BasisSizeError(InputError):
    """A least-squares basis exceeds the configured solver cap."""


class CoefficientRangeError(InputError):
    """A requested cutoff exceeds the coefficients stored on a measure."""


class UnsupportedRateError(InputError):
    """No decay-rate gauge is defined for this space parameter."""


class InsufficientPointsError(InputError):
    """Too few data points for the requested fit or verdict."""


class NumericalError(BidiskError):
    """The computation failed for numerical reasons."""


class SingularReciprocalError(NumericalError):
    """Reciprocal series requested for a function with near-vanishing constant term."""


class ConditioningError(NumericalError):
    """Gram factorization failed or its certificates exceeded tolerance."""

    def __init__(self, message, cond_estimate=None, **where):
        super().__init__(message, **where)
        self.cond_estimate = cond_estimate


class MonotonicityError(NumericalError):
    """A distance scan increased where it must be nonincreasing."""


class DegenerateFitError(NumericalError):
    """Rate fit requested on data containing nonpositive values."""
