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
is therefore memoized, at most 2^n states per suffix of the content; the last
class is the complement, looked up among the stable sets by complement.  A
count sum c_i q^i is packed as :func:`.qpoly.pack` packs it, at 2^64 per
coefficient, so a sub-count times q^inc is one shift; :func:`.qpoly.unpack`
checks the bound (a state counts at most MAX_N! colorings).
"""

from __future__ import annotations

from .hessenberg import Hess, check_hess, per_m
from .partitions import partitions
from .qpoly import QPoly, unpack
from .symfunc import SymFun


Stable = dict[int, list[tuple[int, int]]]
Memo = dict[tuple[int, ...], dict[int, int]]


@per_m(1)
def _class_counts(m: Hess) -> tuple[Stable, dict[int, int], Memo]:
    """The stable sets of m by size and by complement, and :func:`_count`'s memo, for the latest m."""
    n = len(m)
    # stable[k]: (S, later) for each stable set S of size k, as bitmasks (bit j-1 for j).
    # later holds the neighbours u > j of its members j, the intervals (j, m(j)], which
    # are disjoint because S is stable, so |later & P| is the inv S adds on top of P.
    stable: Stable = {}
    rest: dict[int, int] = {}  # the complement of S in [n] -> later

    def grow(mask: int, later: int, size: int, first: int) -> None:
        stable.setdefault(size, []).append((mask, later))
        rest[(1 << n) - 1 ^ mask] = later
        for u in range(first, n):
            grow(mask | 1 << u, later | (1 << m[u]) - (1 << u + 1), size + 1, m[u])

    grow(0, 0, 0, 0)
    del grow  # its closure cell refers to it; that cycle would hold stable until a gc
    return stable, rest, {}


def _count(stable: Stable, rest: dict[int, int], memo: Memo, placed: int, sizes: tuple[int, ...]) -> int:
    """The packed q^inv count of coloring the vertices outside placed with classes of
    the given sizes, which fill them; the sub-counts are memoized here, read before a call.

    A module-level function, not a closure: a closure that calls itself holds
    itself, and so the memo, in a cycle until a gc.
    """
    if len(sizes) == 1:  # the last class is the complement of placed, if that is stable
        later = rest.get(placed)
        return 0 if later is None else 1 << 64 * (later & placed).bit_count()
    out, tail = 0, sizes[1:]
    counts = memo.setdefault(tail, {})
    for mask, later in stable.get(sizes[0], ()):
        if not mask & placed:
            sub = counts.get(grown := placed | mask)
            if sub is None:
                sub = counts[grown] = _count(stable, rest, memo, grown, tail)
            out += sub << 64 * (later & placed).bit_count()
    return out


def content_coefficient(m: Hess, multiplicities: dict[int, int]) -> QPoly:
    """Sum of q^inv over proper colorings using each color a prescribed number of times."""
    stable, rest, memo = _class_counts(m)
    if sum(multiplicities.values()) != len(m) or min(multiplicities.values()) < 0:
        raise ValueError("multiplicities must be nonnegative and use every vertex exactly once")
    # Only the order of the colors matters, so color c stands for the c-th smallest.
    sizes = tuple(multiplicities[c] for c in sorted(multiplicities) if multiplicities[c] > 0)
    return unpack(_count(stable, rest, memo, 0, sizes))


def x_colorings(m: Hess) -> SymFun:
    """The chromatic quasisymmetric function, counted in the monomial basis.

    The coefficient of m_lam is the inv-generating polynomial of proper
    colorings whose color multiset is exactly lam (color i used lam_i times);
    symmetry makes the choice of representative monomial irrelevant.
    """
    n = len(check_hess(m))
    coeffs = {lam: content_coefficient(m, dict(enumerate(lam, 1))) for lam in partitions(n)}
    return SymFun(n, "m", coeffs)
