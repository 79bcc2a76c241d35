"""Exception types shared across the package, and the one size limit.

The transition, cycle-sum, P-tableau, coloring, acyclic-orientation and
reduction engines refuse a Hessenberg function longer than :data:`MAX_N`.
Each checks once, at its entry point, and raises :class:`SizeLimitExceeded`.
"""

MAX_N = 8


class NotDivisible(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class NotCyclotomic(ArithmeticError):
    """Raised when a denominator is not plus or minus a product of Phi_d, d >= 2."""


class InvariantViolation(ArithmeticError):
    """Raised when an internal invariant of a construction fails.

    These checks are raises rather than asserts so they still run under
    ``python -O``.
    """


class SizeMismatch(ValueError):
    """Raised when a partition and a content vector have different sizes."""


class DegreeMismatch(ValueError):
    """Raised when symmetric functions of different degrees are combined."""


class SizeLimitExceeded(ValueError):
    """Raised when an engine is asked for n above :data:`MAX_N`."""


def check_size(n: int) -> None:
    """Refuse an input of length n above the limit."""
    if n > MAX_N:
        raise SizeLimitExceeded(f"n = {n} exceeds the limit {MAX_N}")


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
