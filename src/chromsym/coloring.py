"""Brute-force chromatic quasisymmetric function via proper colorings.

This is the independent oracle the rest of the package is checked against:
it never touches the transition-probability, cycle-sum, or tableau code
paths.  Colorings are enumerated one monomial-content class at a time, which
both bounds the search and reads off monomial coefficients directly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .errors import NotProper, check_size
from .hessenberg import Hess, edges
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


def _multiset_permutations(pool: dict[int, int], size: int) -> Iterator[tuple[int, ...]]:
    if size == 0:
        yield ()
        return
    for value in sorted(pool):
        if pool[value] == 0:
            continue
        pool[value] -= 1
        for rest in _multiset_permutations(pool, size - 1):
            yield (value,) + rest
        pool[value] += 1


def content_coefficient(m: Hess, multiplicities: dict[int, int]) -> QPoly:
    """Sum of q^inv over proper colorings using each color a prescribed number of times."""
    n = len(m)
    if sum(multiplicities.values()) != n:
        raise ValueError("multiplicities must use every vertex exactly once")
    total = [0] * (len(edges(m)) + 1)
    edge_list = edges(m)
    for colors in _multiset_permutations(dict(multiplicities), n):
        inv = 0
        for i, j in edge_list:
            a, b = colors[i - 1], colors[j - 1]
            if a == b:
                inv = -1
                break
            if a > b:
                inv += 1
        if inv >= 0:
            total[inv] += 1
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
