"""Cycle-sum refinements of the chromatic symmetric function.

The degree-k function attached to a Hessenberg function m is a signed,
q-weighted sum over the permutations bounded by m (sigma(i) <= m(i) for all
i), organized by cycle type.  Cycles are written with their smallest element
first and ordered by increasing minima, so the first cycle is the one
containing 1; the weight of sigma counts graph edges (i, j) whose larger end
precedes the smaller in the resulting word.

:func:`_cycle_stats` counts while it searches: it builds the cycle words
themselves, keeping weight and cycle sizes as it goes, and never forms sigma;
:func:`bounded_permutations`, :func:`cycle_word` and :func:`wt` state the
definition directly.  Every ``gfun(m, k)``, ``g_cap`` and ``g_total`` is built
once per m, adding up the signed products h_d * omega(rho_mu), which are
cached by (d, mu), with :func:`chromsym.symfunc.combination`, which
accumulates their integer q-coefficients in place.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import mul
from typing import Iterator

from .errors import check_size
from .hessenberg import Hess, edges
from .partitions import compositions
from .qpoly import ONE, QPoly, q_int
from .symfunc import SymFun, combination, h_to_e, omega

Perm = tuple[int, ...]


def bounded_permutations(m: Hess) -> Iterator[Perm]:
    """All permutations sigma with sigma(i) <= m(i), position by position."""
    n = len(m)
    used = [False] * (n + 1)
    sigma = [0] * n

    def fill(i: int) -> Iterator[Perm]:
        if i == n:
            yield tuple(sigma)
            return
        for v in range(1, m[i] + 1):
            if not used[v]:
                used[v] = True
                sigma[i] = v
                yield from fill(i + 1)
                used[v] = False

    yield from fill(0)


def cycle_word(sigma: Perm) -> tuple[int, ...]:
    """Concatenated cycle decomposition, smallest elements first, minima increasing."""
    n = len(sigma)
    seen = [False] * (n + 1)
    word: list[int] = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        v = start
        while not seen[v]:
            seen[v] = True
            word.append(v)
            v = sigma[v - 1]
    return tuple(word)


def cycle_sizes(sigma: Perm) -> tuple[int, ...]:
    """Cycle sizes ordered by increasing cycle minima (first contains 1)."""
    n = len(sigma)
    seen = [False] * (n + 1)
    sizes = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        size, v = 0, start
        while not seen[v]:
            seen[v] = True
            size += 1
            v = sigma[v - 1]
        sizes.append(size)
    return tuple(sizes)


def wt(m: Hess, sigma: Perm) -> int:
    """Edges (i, j), i < j <= m(i), with j before i in the cycle word."""
    word = cycle_word(sigma)
    pos = [0] * (len(sigma) + 1)
    for idx, v in enumerate(word):
        pos[v] = idx
    return sum(1 for i, j in edges(m) if pos[j] < pos[i])


@lru_cache(maxsize=None)
def rho(k: int) -> SymFun:
    """Degree-k building block solved from [n]_q h_n = sum h_{n-i} rho_i."""
    if k < 0:
        raise ValueError("rho requires k >= 0")
    if k == 0:
        return SymFun.one()
    lower = ((-1, h_to_e(k - i) * rho(i)) for i in range(1, k))
    return combination(k, [(q_int(k), h_to_e(k)), *lower])


@lru_cache(maxsize=None)
def _omega_rho(k: int) -> SymFun:
    return omega(rho(k))


@lru_cache(maxsize=None)
def _omega_rho_product(parts: tuple[int, ...]) -> SymFun:
    out = SymFun.one()
    for p in parts:
        out = out * _omega_rho(p)
    return out


@lru_cache(maxsize=None)
def _cycle_stats(m: Hess) -> dict[tuple[int, tuple[int, ...]], QPoly]:
    """Aggregate q^wt by (size of the cycle containing 1, sorted other sizes).

    A cycle opens at the smallest unplaced vertex s; from its last vertex u it
    closes (sigma(u) = s <= m(u)) or goes on to an unplaced v <= m(u).  Placing
    x adds its placed neighbours y in ``up[x]`` = {x < y <= m(x)} to the weight.
    """
    check_size(len(m))
    n = len(m)
    up = [0] + [(1 << m[x - 1] + 1) - (1 << x + 1) for x in range(1, n + 1)]
    n_edges = sum(b.bit_count() for b in up)
    full = (1 << n + 1) - 1  # bit 0 is always set, so placed + 1 flips the lowest free bit
    stats: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    sizes: list[int] = []

    def extend(placed: int, s: int, u: int, size: int, w: int) -> None:
        sizes.append(size)
        if placed == full:
            key = (sizes[0], tuple(sorted(sizes[1:], reverse=True)))
            stats.setdefault(key, [0] * (n_edges + 1))[w] += 1
        else:
            t = ((placed + 1) & ~placed).bit_length() - 1
            extend(placed | 1 << t, t, t, 1, w + (up[t] & placed).bit_count())
        sizes.pop()
        for v in range(s + 1, m[u - 1] + 1):
            if not placed >> v & 1:
                extend(placed | 1 << v, s, v, size + 1, w + (up[v] & placed).bit_count())

    extend(3, 1, 1, 1, 0)
    del extend  # its closure cell refers to it; that cycle would hold stats until a gc
    return {key: QPoly(counts) for key, counts in stats.items()}


@lru_cache(maxsize=None)
def _term(d: int, rest: tuple[int, ...]) -> SymFun:
    """(-1)^d h_d times the product of omega(rho_p) over p in rest."""
    term = h_to_e(d) * _omega_rho_product(rest)
    return -term if d % 2 else term


@lru_cache(maxsize=None)
def _gfuns(m: Hess) -> tuple[SymFun, ...]:
    """gfun(m, k) for every k in [0, n): first cycles of size t1 >= n - k, d = t1 - (n - k)."""
    n = len(m)
    stats = _cycle_stats(m).items()
    return tuple(
        combination(k, ((c, _term(k - n + t1, rest)) for (t1, rest), c in stats if t1 >= n - k))
        for k in range(n)
    )


def gfun(m: Hess, k: int) -> SymFun:
    """The degree-k cycle-sum function, in the elementary basis.

    Sums over bounded permutations whose first cycle has size at least n - k;
    a first cycle of size n - k + d contributes with sign (-1)^d through h_d.
    """
    n = len(m)
    if not 0 <= k < n:
        raise ValueError(f"k must lie in [0, {n})")
    return _gfuns(m)[k]


def g_cap(m: Hess, k: int) -> SymFun:
    """e_k times the degree-(n-k) cycle-sum function."""
    n = len(m)
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    return _g_caps(m)[k - 1]


def g_total(m: Hess) -> SymFun:
    return _g_caps(m)[-1]


@lru_cache(maxsize=None)
def _g_caps(m: Hess) -> tuple[SymFun, ...]:
    """g_cap(m, k) for k = 1, ..., n, each product formed once, then their sum."""
    n = len(m)
    caps = [SymFun.e_term((k,)) * gfun(m, n - k) for k in range(1, n + 1)]
    return (*caps, combination(n, ((1, cap) for cap in caps)))


@lru_cache(maxsize=None)
def x_cycle_sum(m: Hess) -> SymFun:
    """The chromatic quasisymmetric function as a full cycle-type sum."""
    stats = _cycle_stats(m).items()
    return combination(len(m), ((c, _omega_rho_product((t1,) + rest)) for (t1, rest), c in stats))


@lru_cache(maxsize=None)
def closed_g(degree: int) -> SymFun:
    """Composition sum matching the cycle-sum function of a path.

    Equals gfun(path(n), degree) for any path length n > degree; this is a
    path-only identity, not valid for general m.
    """
    terms = (
        (reduce(mul, (q_int(part) - ONE for part in alpha), ONE), SymFun.e_term(alpha))
        for alpha in compositions(degree)
    )
    return combination(degree, terms)


def path_e_closed(n: int, k: int) -> SymFun:
    """Closed form of the degree-n refinement at column k for the path."""
    return SymFun.e_term((k,)) * closed_g(n - k)


def path_x_closed(n: int) -> SymFun:
    """Closed form of the chromatic quasisymmetric function of the path."""
    return combination(n, ((q_int(k), path_e_closed(n, k)) for k in range(1, n + 1)))
