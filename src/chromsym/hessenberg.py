"""Hessenberg functions and their Dyck-path, poset, and graph views.

A Hessenberg function of length n is a weakly increasing tuple m with
i <= m(i) <= n.  It encodes a natural unit interval order (i < j in the poset
iff m(i) < j) whose incomparability graph has the edges (i, j) for
i < j <= m(i).  Functions here are plain 1-based tuples of ints, and
:func:`check_hess` is the one gate every engine passes m through, also on
every miss of a cache declared with :func:`per_m`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import lru_cache, wraps

from .errors import NotHessenberg, check_size

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


def check_hess(m: Hess) -> Hess:
    """m itself, when it is a Hessenberg function (a tuple of ints) within the size limit;
    else :class:`.SizeLimitExceeded`, checked first, or :class:`.NotHessenberg`."""
    check_size(len(m))
    if type(m) is not tuple:
        raise NotHessenberg(f"{m!r} is not a tuple")
    for i, v in enumerate(m, start=1):
        if type(v) is not int:
            raise NotHessenberg(f"entry {v!r} at position {i} is not an int")
    if (error := hess_error(m)) is not None:
        raise NotHessenberg(error)
    return m


_passed = lru_cache(maxsize=1, typed=True)(lambda *m: check_hess(m))  # nested misses gate m once


def per_m(maxsize: int | None) -> Callable:
    """Declare a cache of f(m) by Hessenberg function m, the one way an engine keeps one.
    It is keyed by m's entries and their types, so only a tuple of the same ints as an m
    already gated hits; a miss passes m through the gate, which keeps the latest m it passed."""

    def declare(f: Callable) -> Callable:
        keyed = lru_cache(maxsize=maxsize, typed=True)(lambda *m: f(_passed(*m)))
        cached = wraps(f)(lambda m: keyed(*m) if type(m) is tuple else check_hess(m))
        cached.cache_info, cached.cache_clear = keyed.cache_info, keyed.cache_clear
        return cached

    return declare


def hess(values) -> Hess:
    """A Hessenberg function from a string of entries, or from any iterable of ints."""
    if isinstance(values, str):
        fields = [f.strip() for f in values.split(",")] if "," in values else values.split()
        check_size(len(fields))  # before any entry is read
        if "" in fields:
            raise ValueError(f"{values!r} has an empty entry")
        values = [int(x) for x in fields]
    return check_hess(tuple(values))


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
    return tuple(range(2, n + 1)) + (n,)


@lru_cache(maxsize=None)
def enumerate_hess(n: int) -> tuple[Hess, ...]:
    """All Hessenberg functions of length n (Catalan many), lexicographic; none for n < 1."""

    def gen(i: int, lo: int) -> Iterator[Hess]:
        if i > n:
            yield ()
            return
        for v in range(max(lo, i), n + 1):
            for tail in gen(i + 1, v):
                yield (v,) + tail

    return tuple(gen(1, 1)) if n > 0 else ()


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
