"""Hessenberg functions and their Dyck-path, poset, and graph views.

A Hessenberg function of length n is a weakly increasing tuple m with
i <= m(i) <= n.  It encodes a natural unit interval order (i < j in the poset
iff m(i) < j) whose incomparability graph has the edges (i, j) for
i < j <= m(i).  Functions here are plain 1-based tuples, validated at
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import InvariantViolation

Hess = tuple[int, ...]


def hess_error(m: tuple[int, ...]) -> str | None:
    """Why m is not a Hessenberg function, or None when it is one."""
    n = len(m)
    if n == 0:
        return "a Hessenberg function has positive length"
    for i, v in enumerate(m, start=1):
        if not i <= v <= n:
            return f"value {v} at position {i} violates {i} <= m({i}) <= {n}"
    if any(m[i] > m[i + 1] for i in range(n - 1)):
        return f"{m} is not weakly increasing"
    return None


def hess(values) -> Hess:
    """Validate and normalize a Hessenberg function."""
    if isinstance(values, str):
        values = [int(x) for x in values.replace(",", " ").split()]
    m = tuple(int(v) for v in values)
    error = hess_error(m)
    if error is not None:
        raise ValueError(error)
    return m


def area(m: Hess) -> int:
    """Cells between the Dyck path and the diagonal."""
    return sum(v - i for i, v in enumerate(m, start=1))


def edges(m: Hess) -> tuple[tuple[int, int], ...]:
    """Incomparability-graph edges (i, j) with i < j <= m(i)."""
    return tuple((i, j) for i in range(1, len(m) + 1) for j in range(i + 1, m[i - 1] + 1))


def poset_less(m: Hess, i: int, j: int) -> bool:
    """True when i precedes j in the natural unit interval order."""
    n = len(m)
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"vertices must lie in [1, {n}]")
    return m[i - 1] < j


def hsum(m1: Hess, m2: Hess) -> Hess:
    """Concatenation whose graph is the disjoint union of the two graphs."""
    n1 = len(m1)
    return m1 + tuple(v + n1 for v in m2)


def path(n: int) -> Hess:
    """The Hessenberg function whose graph is the path on n vertices."""
    if n < 1:
        raise ValueError("paths need at least one vertex")
    if n == 1:
        return (1,)
    return tuple(range(2, n + 1)) + (n,)


@lru_cache(maxsize=None)
def enumerate_hess(n: int) -> tuple[Hess, ...]:
    """All Hessenberg functions of length n (Catalan many), lexicographic."""

    def gen(i: int, lo: int) -> Iterator[Hess]:
        if i > n:
            yield ()
            return
        for v in range(max(lo, i), n + 1):
            for tail in gen(i + 1, v):
                yield (v,) + tail

    return tuple(gen(1, 1))


def path_components(m: Hess) -> tuple[int, ...] | None:
    """Component sizes (in vertex order) when every component is a path.

    The components are intervals: m(i) > i joins i to i + 1, and m(i) = i
    cuts [1, i] off from the rest, since m(j) <= m(i) for every j <= i.  So
    they end exactly at the fixed points of m.  An interval with m(i) <= i + 1
    throughout has only the consecutive pairs as edges, a path; m(i) >= i + 2
    puts i, i + 1 and i + 2 on a triangle.  Returns None in that case.
    """
    if any(v > i + 1 for i, v in enumerate(m, start=1)):
        return None
    ends = [i for i, v in enumerate(m, start=1) if v == i]
    return tuple(b - a for a, b in zip([0] + ends, ends))


@dataclass(frozen=True)
class UnionOfPaths:
    parts: tuple[int, ...]


@dataclass(frozen=True)
class Flat:
    alpha: int
    beta: int


@dataclass(frozen=True)
class NonFlat:
    alpha: int
    beta: int


def classify(m: Hess) -> UnionOfPaths | Flat | NonFlat:
    """Sort a Hessenberg function into the three reduction cases.

    When m is not a union of paths, alpha is the largest value in [n-1] that
    is missed by m while alpha+1 is attained with min preimage < alpha; the
    function is flat when m(alpha) = m(alpha+1).
    """
    parts = path_components(m)
    if parts is not None:
        return UnionOfPaths(parts)
    n = len(m)
    values = set(m)
    for a in range(n - 1, 0, -1):
        if a in values or (a + 1) not in values:
            continue
        beta = min(i for i in range(1, n + 1) if m[i - 1] == a + 1)
        if beta < a:
            if m[a - 1] == m[a]:
                return Flat(a, beta)
            # the largest-alpha choice forces the step to be exactly one
            if m[a] != m[a - 1] + 1:
                raise InvariantViolation(f"non-flat step broken at {m}")
            return NonFlat(a, beta)
    raise InvariantViolation(f"no split point found for non-path {m}")
