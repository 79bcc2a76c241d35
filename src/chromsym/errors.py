"""Exception types shared across the package, and the one size-limit policy.

The transition, cycle-sum, P-tableau, coloring and reduction engines refuse a
Hessenberg function longer than :data:`MAX_N`; the acyclic-orientation
enumeration, which tries all 2^|E| edge masks, stops at
:data:`MAX_N_ORIENTATIONS`.  Each checks once, at its entry point, and raises
:class:`SizeLimitExceeded`.
"""

MAX_N = 8

# Summed over every m of length n there are 7.0e6 orientation masks at n = 7
# and 9.2e8 at n = 8, and the sink suite tries each of them.
MAX_N_ORIENTATIONS = 7


class NotDivisible(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class InvariantViolation(ArithmeticError):
    """Raised when an internal invariant of a construction fails.

    These checks are raises rather than asserts so they still run under
    ``python -O``.
    """


class PoleAtPoint(ZeroDivisionError):
    """Raised when a rational function is evaluated at a root of its denominator."""


class SizeMismatch(ValueError):
    """Raised when a partition and a content vector have different sizes."""


class DegreeMismatch(ValueError):
    """Raised when symmetric functions of different degrees are combined."""


class SizeLimitExceeded(ValueError):
    """Raised when an engine is asked for n above its limit in this module."""


def check_size(n: int, limit: int = MAX_N) -> None:
    """Refuse an input of length n above the limit."""
    if n > limit:
        raise SizeLimitExceeded(f"n = {n} exceeds the limit {limit}")


class NotProper(ValueError):
    """Raised when a coloring violates an edge constraint."""


class InvalidFilling(ValueError):
    """Raised when a filling does not satisfy the row/column poset conditions."""


class IsBaseTableau(ValueError):
    """Raised when the peel step is applied to the single-column base tableau."""


class NotFlat(ValueError):
    """Raised when a flat-only reduction step is applied to a non-flat function."""


class NotNonFlat(ValueError):
    """Raised when a non-flat-only reduction step is applied elsewhere."""
