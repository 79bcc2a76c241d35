"""Cycle-sum refinements of the chromatic symmetric function.

The degree-k function attached to a Hessenberg function m is a signed,
q-weighted sum over the permutations bounded by m (sigma(i) <= m(i) for all
i), organized by cycle type.  Cycles are written with their smallest element
first and ordered by increasing minima, so the first cycle is the one
containing 1; the weight of sigma counts graph edges (i, j) whose larger end
precedes the smaller in the resulting word.

:func:`_cycle_stats` counts while it searches: it builds the cycle words
themselves, keeping weight and cycle sizes as it goes, and never forms sigma.
The definition stated directly (bounded permutations, cycle words, cycle
sizes and the weight) lives in ``tests/test_gfunctions.py``, as the
reference the search is checked against.  Every ``gfun(m, k)``, ``g_cap``
and ``g_total`` is built once per m, adding up the signed products
h_d * omega(rho_mu), which are cached by (d, mu), with
:func:`chromsym.symfunc.combination`, which accumulates their integer
q-coefficients in place.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import add, mul

from .hessenberg import Hess, per_m
from .partitions import compositions
from .qpoly import ONE, QPoly, q_int
from .symfunc import SymFun, combination, h_to_e, omega


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


@per_m(1)
def _cycle_stats(m: Hess) -> dict[tuple[int, tuple[int, ...]], QPoly]:
    """Aggregate q^wt by (size of the cycle containing 1, sorted other sizes).

    A cycle opens at the smallest unplaced vertex s; from its last vertex u it
    closes (sigma(u) = s <= m(u)) or goes on to an unplaced v <= m(u).  Placing
    x adds its placed neighbours y in ``up[x]`` = {x < y <= m(x)} to the weight.
    A permutation is done once every vertex is placed, and is tallied under its
    cycle sizes in order; each distinct tuple is sorted into its key once, at the end.
    """
    n = len(m)
    up = [0] + [(1 << m[x - 1] + 1) - (1 << x + 1) for x in range(1, n + 1)]
    n_edges = sum(b.bit_count() for b in up)
    full = (1 << n + 1) - 1  # bit 0 is always set, so placed + 1 flips the lowest free bit
    by_sizes: dict[tuple[int, ...], list[int]] = {}
    sizes: list[int] = []

    def extend(placed: int, s: int, u: int, size: int, w: int) -> None:
        sizes.append(size)
        if placed == full:
            counts = by_sizes.get(done := tuple(sizes))
            if counts is None:
                counts = by_sizes[done] = [0] * (n_edges + 1)
            counts[w] += 1
            sizes.pop()
            return
        t = ((placed + 1) & ~placed).bit_length() - 1
        extend(placed | 1 << t, t, t, 1, w + (up[t] & placed).bit_count())
        sizes.pop()
        for v in range(s + 1, m[u - 1] + 1):
            if not placed >> v & 1:
                extend(placed | 1 << v, s, v, size + 1, w + (up[v] & placed).bit_count())

    extend(3, 1, 1, 1, 0)
    del extend  # its closure cell refers to it; that cycle would hold by_sizes until a gc
    stats: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    for (t1, *rest), counts in by_sizes.items():
        key = (t1, tuple(sorted(rest, reverse=True)))
        stats[key] = list(map(add, stats[key], counts)) if key in stats else counts
    return {key: QPoly._trusted(counts) for key, counts in stats.items()}


@lru_cache(maxsize=None)
def _term(d: int, rest: tuple[int, ...]) -> SymFun:
    """(-1)^d h_d times the product of omega(rho_p) over p in rest."""
    term = h_to_e(d) * _omega_rho_product(rest)
    return -term if d % 2 else term


_e_term = lru_cache(maxsize=None)(SymFun.e_term)  # e_k for the caps, one per degree k <= n


@per_m(None)
def _cycle_sums(m: Hess) -> tuple[tuple[SymFun, ...], tuple[SymFun, ...], SymFun]:
    """gfun(m, k) for k in [0, n), with first cycles of size t1 >= n - k and
    d = t1 - (n - k); g_cap(m, k) for k in [1, n]; and g_total, their sum."""
    n = len(m)
    stats = _cycle_stats(m).items()
    gs = tuple(
        combination(k, ((c, _term(k - n + t1, rest)) for (t1, rest), c in stats if t1 >= n - k))
        for k in range(n)
    )
    caps = tuple(_e_term((k,)) * gs[n - k] for k in range(1, n + 1))
    return gs, caps, combination(n, ((1, cap) for cap in caps))


def gfun(m: Hess, k: int) -> SymFun:
    """The degree-k cycle-sum function, in the elementary basis.

    Sums over bounded permutations whose first cycle has size at least n - k;
    a first cycle of size n - k + d contributes with sign (-1)^d through h_d.
    """
    gs = _cycle_sums(m)[0]  # m is gated before k is read against n
    if not 0 <= k < len(gs):
        raise ValueError(f"k must lie in [0, {len(gs)})")
    return gs[k]


def g_cap(m: Hess, k: int) -> SymFun:
    """e_k times the degree-(n-k) cycle-sum function."""
    caps = _cycle_sums(m)[1]  # m is gated before k is read against n
    if not 1 <= k <= len(caps):
        raise ValueError(f"k must lie in [1, {len(caps)}]")
    return caps[k - 1]


def g_total(m: Hess) -> SymFun:
    return _cycle_sums(m)[2]


def x_cycle_sum(m: Hess) -> SymFun:
    """The chromatic quasisymmetric function as a full cycle-type sum."""
    by_type: dict[tuple[int, ...], QPoly] = {}  # the stats that share a sorted full cycle type
    for (t1, rest), c in _cycle_stats(m).items():
        key = tuple(sorted((t1, *rest), reverse=True))
        by_type[key] = by_type[key] + c if key in by_type else c
    return combination(len(m), ((c, _omega_rho_product(key)) for key, c in by_type.items()))


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
