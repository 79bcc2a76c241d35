"""Chromatic quasisymmetric function via proper colorings: the oracle.

The independent oracle the rest of the package is checked against, straight
from Stanley's definition of X: it never touches the transition, cycle-sum,
tableau, orientation or modular-law code.  Colorings are counted one
monomial-content class per partition.  A backtracking search colors vertices
1..n in order from what is left of the class's multiset.  The earlier
neighbours of j form the interval [lo(j), j): a color one of them has is
pruned at once, and inv grows by those holding a larger color.  Each proper
coloring reached adds 1 to the coefficient of q^inv.
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


def content_coefficient(m: Hess, multiplicities: dict[int, int]) -> QPoly:
    """Sum of q^inv over proper colorings using each color a prescribed number of times."""
    n = len(m)
    if sum(multiplicities.values()) != n or min(multiplicities.values()) < 0:
        raise ValueError("multiplicities must be nonnegative and use every vertex exactly once")
    # Only the order of the colors matters, so color c stands for the c-th smallest.
    left = [multiplicities[c] for c in sorted(multiplicities) if multiplicities[c] > 0]
    # the earlier neighbours of v (0-based) are [lo[v], v): those u with m(u) > v
    lo = [next(u for u in range(v + 1) if m[u] > v) for v in range(n)]
    color = [0] * n
    total = [0] * (area(m) + 1)

    def place(v: int, inv: int) -> None:
        # earlier neighbours form a clique: ``larger`` of their colors exceed c
        taken = color[lo[v] : v]
        larger = len(taken)
        for c, count in enumerate(left):
            if c in taken:
                larger -= 1
            elif not count:
                continue
            elif v == n - 1:
                total[inv + larger] += 1
            else:
                left[c] = count - 1
                color[v] = c
                place(v + 1, inv + larger)
                left[c] = count

    place(0, 0)
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
    coeffs = {}
    for lam in partitions(n):
        poly = content_coefficient(m, {i + 1: lam[i] for i in range(len(lam))})
        if not poly.is_zero():
            coeffs[lam] = poly
    return SymFun(n, "m", coeffs)
