"""Exception types shared across the package, and the one size limit.

The transition, cycle-sum, P-tableau, coloring, acyclic-orientation and
reduction engines pass m through one gate, :func:`.hessenberg.check_hess`, before
they read it.  It raises :class:`SizeLimitExceeded` for an m longer than
:data:`MAX_N`, and :class:`NotHessenberg` for any other m that is not a Hessenberg function.

One rule decides what an engine keeps, in the caches :func:`.hessenberg.per_m` declares.  A per-m
result that a suite reads again for another m is kept for the process: ``transition._e_parts``,
``gfunctions._cycle_sums``, ``ptableaux.s_fun``, ``modular.reduce_to_paths``.  Per-m scratch, read
again only for the same m, is kept for the latest m alone (``per_m(1)``): ``transition._table``,
``gfunctions._cycle_stats``, ``ptableaux._value_masks``, ``orientations._incident``,
``coloring._class_counts``, and ``transition.insertion_runs`` for one (tableau, r).  A table no m
decides is kept for the process, as the size limit bounds it: ``transition._weight``,
``transition._step``, ``ptableaux._diagram``, ``gfunctions._term``, ``gfunctions._e_term``.
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


class NotHessenberg(ValueError):
    """Raised when an engine is given an m that is not a Hessenberg function."""


def check_size(n: int) -> None:
    """Refuse an input of length n above the limit."""
    if n > MAX_N:
        raise SizeLimitExceeded(f"n = {n} exceeds the limit {MAX_N}")


class InvalidFilling(ValueError):
    """Raised when a filling does not satisfy the row/column poset conditions."""


class IsBaseTableau(ValueError):
    """Raised when the peel step is applied to the single-column base tableau."""
