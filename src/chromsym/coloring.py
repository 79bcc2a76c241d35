"""Chromatic quasisymmetric function via proper colorings: the oracle.

The independent oracle the rest of the package is checked against, straight
from Stanley's definition of X: it never touches the transition, cycle-sum,
tableau, orientation or modular-law code.  Colorings are counted one
monomial-content class per partition.  A proper coloring with content
(k_1, k_2, ...) is a sequence of disjoint stable sets S_1, S_2, ... with
|S_i| = k_i covering [n], color 1 the smallest.  For a Hessenberg function a
vertex u extends an increasing stable set exactly when m(last) < u, since m
is nondecreasing, so the stable sets of each size come from one pruned
search.  When S_i is laid on top of the set P already colored, each j in S_i
has a larger color than all of P, so the inv it adds is the number of its
neighbours u > j in P: the increment depends on P and S_i alone, not on how
P was colored.  The q^inv count of a state (colored set, class sizes left)
is therefore memoized, at most 2^n states per suffix of the content.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotProper, check_size
from .hessenberg import Hess, area, edges
from .partitions import partitions
from .qpoly import QPoly
from .symfunc import SymFun


def is_proper(m: Hess, colors: tuple[int, ...]) -> bool:
    return all(colors[i - 1] != colors[j - 1] for i, j in edges(m))


def inv_coloring(m: Hess, colors: tuple[int, ...]) -> int:
    """Number of edges (i, j), i < j, whose smaller endpoint gets the larger color."""
    if not is_proper(m, colors):
        raise NotProper(f"{colors} is not proper for {m}")
    return sum(1 for i, j in edges(m) if colors[i - 1] > colors[j - 1])


Stable = dict[int, list[tuple[int, int]]]
Memo = dict[tuple[int, tuple[int, ...]], dict[int, int]]


@lru_cache(maxsize=1)
def _class_counts(m: Hess) -> tuple[Stable, Memo]:
    """The stable sets of m by size and the memo of :func:`_count`, for the latest m only."""
    n = len(m)
    # stable[k]: (S, later) for each stable set S of size k, as bitmasks (bit j-1 for j).
    # later holds the neighbours u > j of its members j, the intervals (j, m(j)], which
    # are disjoint because S is stable, so |later & P| is the inv S adds on top of P.
    stable: Stable = {}

    def grow(mask: int, later: int, size: int, first: int) -> None:
        stable.setdefault(size, []).append((mask, later))
        for u in range(first, n):
            grow(mask | 1 << u, later | (1 << m[u]) - (1 << u + 1), size + 1, m[u])

    grow(0, 0, 0, 0)
    del grow  # its closure cell refers to it; that cycle would hold stable until a gc
    return stable, {}


def _count(stable: Stable, memo: Memo, placed: int, sizes: tuple[int, ...]) -> dict[int, int]:
    """q^inv counts of coloring the vertices outside placed with classes of the given sizes.

    A module-level function, not a closure: a closure that calls itself holds
    itself, and so the memo, in a cycle until a gc.
    """
    if not sizes:
        return {0: 1}
    if (placed, sizes) not in memo:
        out: dict[int, int] = {}
        for mask, later in stable.get(sizes[0], ()):
            if not mask & placed:
                inc = (later & placed).bit_count()
                for inv, c in _count(stable, memo, placed | mask, sizes[1:]).items():
                    out[inv + inc] = out.get(inv + inc, 0) + c
        memo[placed, sizes] = out
    return memo[placed, sizes]


def content_coefficient(m: Hess, multiplicities: dict[int, int]) -> QPoly:
    """Sum of q^inv over proper colorings using each color a prescribed number of times."""
    n = len(m)
    check_size(n)
    if sum(multiplicities.values()) != n or min(multiplicities.values()) < 0:
        raise ValueError("multiplicities must be nonnegative and use every vertex exactly once")
    # Only the order of the colors matters, so color c stands for the c-th smallest.
    sizes = tuple(multiplicities[c] for c in sorted(multiplicities) if multiplicities[c] > 0)
    total = [0] * (area(m) + 1)
    for inv, c in _count(*_class_counts(m), 0, sizes).items():
        total[inv] = c
    return QPoly(total)


@lru_cache(maxsize=None)
def x_colorings(m: Hess) -> SymFun:
    """The chromatic quasisymmetric function, in the monomial basis.

    The coefficient of m_lam is the inv-generating polynomial of proper
    colorings whose color multiset is exactly lam (color i used lam_i times);
    symmetry makes the choice of representative monomial irrelevant.
    """
    n = len(m)
    check_size(n)
    coeffs = {lam: content_coefficient(m, dict(enumerate(lam, 1))) for lam in partitions(n)}
    return SymFun(n, "m", coeffs)
