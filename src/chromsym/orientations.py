"""Acyclic orientations, sinks, and their link to tableau statistics.

An orientation is an int mask over ``edges(m)``: bit idx set means edge idx,
(i, j) with i < j, is directed (i, j), toward its larger endpoint, and bit
idx clear means (j, i).  So theta = 6 on the edges ((1, 2), (1, 3), (2, 3))
of m = (3, 3, 3) directs them (2, 1), (1, 3) and (2, 3), and its ascents are
its set bits, ``theta.bit_count()``.  The sinks of an acyclic orientation are
pairwise comparable in the poset, so a smallest sink always exists; the
tests check that on every orientation up to n = 4, and nothing here relies
on it.  :func:`theta_of` raises :class:`InvariantViolation` when an edge
joins two entries of one row, since such an edge climbs no row.

:func:`enumerate_ao` backtracks over the edges, pruning at the first directed
cycle, and :func:`ao_tally` reads sinks and ascents off the same pass.
:func:`hook_theta_counts` counts hook P-tableaux by orientation inside their
search, so the binomial check compares two independent computations.
"""

from __future__ import annotations

from collections import Counter

from .coloring import x_colorings
from .errors import InvalidFilling, InvariantViolation
from .hessenberg import Hess, check_hess, edges, per_m
from .ptableaux import Filling, entry_rows, pt_masks, s_fun
from .qpoly import ZERO, QPoly
from .symfunc import SymFun


def _acyclic(m: Hess) -> list[tuple[int, int]]:
    """Every acyclic orientation with the mask of its edges' tails, in
    increasing orientation order.

    The last edge is decided first, (j, i) before (i, j).  A choice closing
    a cycle is pruned; ``reach[v]`` is the set of vertices v reaches, v included.
    """
    n = len(check_hess(m))
    choices = [  # per edge (i, j), (tail, head, bit of theta) for (j, i) and then (i, j)
        ((j, i, 0), (i, j, 1 << idx)) for idx, (i, j) in enumerate(edges(m))
    ]
    out = [] if choices else [(0, 0)]

    def orient(idx: int, theta: int, tails: int, reach: list[int]) -> None:
        for tail, head, bit in choices[idx]:
            gained = reach[head]  # now reached by every vertex that reaches tail
            if gained >> tail & 1:
                continue
            if idx > 1:
                after = [r | gained if r >> tail & 1 else r for r in reach]
                orient(idx - 1, theta | bit, tails | 1 << tail, after)
            elif idx:  # edge 0 reads only its endpoints' entries of the next reach list
                for tail0, head0, bit0 in choices[0]:
                    if not (reach[head0] | (gained if reach[head0] >> tail & 1 else 0)) >> tail0 & 1:
                        out.append((theta | bit | bit0, tails | 1 << tail | 1 << tail0))
            else:
                out.append((theta | bit, tails | 1 << tail))

    if choices:
        orient(len(choices) - 1, 0, 0, [1 << v for v in range(n + 1)])
    del orient  # its closure cell refers to it; that cycle would hold out until a gc
    return out


def enumerate_ao(m: Hess, require_1_sink: bool = False) -> tuple[int, ...]:
    """All acyclic orientations in increasing order; optionally only those where
    1 is a sink, the tail of no edge."""
    return tuple(theta for theta, tails in _acyclic(m) if not (require_1_sink and tails & 2))


def ao_tally(m: Hess) -> tuple[dict[int, QPoly], dict[int, QPoly], list[tuple[int, int]]]:
    """In one pass, the ascent polynomials by sink count of all acyclic orientations
    and of those where 1 is a sink (the tail of no edge), and the latter in
    increasing order with their sink counts."""
    acyclic = _acyclic(m)  # the gate, before edges(m) reads m
    n, width, sink1 = len(m), len(edges(m)) + 1, []
    everything, corner = ([[0] * width for _ in range(n + 1)] for _ in range(2))
    for theta, tails in acyclic:
        ell, ups = n - tails.bit_count(), theta.bit_count()
        everything[ell][ups] += 1
        if not tails & 2:
            corner[ell][ups] += 1
            sink1.append((theta, ell))
    polys = ({ell: QPoly._trusted(c) for ell, c in enumerate(t) if any(c)} for t in (everything, corner))
    return *polys, sink1


def ao_sink_poly(m: Hess, require_1_sink: bool = False) -> dict[int, QPoly]:
    """Ascent-generating polynomial of acyclic orientations, by sink count."""
    return ao_tally(m)[1 if require_1_sink else 0]


@per_m(1)
def _incident(m: Hess) -> tuple[tuple[int, int], ...]:
    """Per vertex 1..n, the masks of all its edges and of its edges to smaller vertices."""
    both, down = [0] * (len(m) + 1), [0] * (len(m) + 1)
    for idx, (i, j) in enumerate(edges(m)):
        both[i] |= 1 << idx
        both[j] |= 1 << idx
        down[j] |= 1 << idx
    return tuple(zip(both, down))[1:]


def sinks(m: Hess, theta: int) -> set[int]:
    """Vertices no edge leaves: each edge down is set, each edge up clear."""
    return {v for v, (both, down) in enumerate(_incident(m), 1) if theta & both == down}


def theta_of(m: Hess, rows: Filling) -> int:
    """Orient each edge toward its endpoint lying in the higher row."""
    pos = entry_rows(rows)
    if set(pos) != set(range(1, len(check_hess(m)) + 1)):
        raise InvalidFilling("the filling must use 1..n exactly once")
    theta = 0  # rows are chains, so every edge climbs rows and no cycle can close
    for idx, (i, j) in enumerate(edges(m)):
        if pos[i] == pos[j]:
            raise InvariantViolation(f"edge ({i}, {j}) joins two entries of one row")
        if pos[j] < pos[i]:
            theta |= 1 << idx
    return theta


def length_distribution(f: SymFun) -> dict[int, QPoly]:
    """Elementary-basis coefficients of f summed by partition length."""
    out: dict[int, QPoly] = {}
    for lam, c in f.coeffs.items():
        ell = len(lam)
        out[ell] = out.get(ell, ZERO) + c
    return {ell: c for ell, c in out.items() if not c.is_zero()}


def sink_distribution(m: Hess, source: str = "X") -> dict[int, QPoly]:
    """Length-graded coefficient sums of X (coloring side) or S (corner side)."""
    if source == "X":
        f = x_colorings(m)
    elif source == "S":
        f = s_fun(m)
    else:
        raise ValueError("source must be 'X' or 'S'")
    return length_distribution(f)


def hook_theta_counts(m: Hess, i: int) -> Counter[int]:
    """How many primed P-tableaux of the hook with i cells in row 1 map onto each orientation."""
    return pt_masks(m, (i,) + (1,) * (len(m) - i), corner1=True)


def sink_subset_count(m: Hess, theta: int, i: int) -> int:
    """Hook-shape primed P-tableaux mapping onto a fixed orientation.

    For an orientation with ell sinks including vertex 1, the count matches
    binomial(ell - 1, i - 1); the caller compares.  A lookup into
    :func:`hook_theta_counts`, which a caller with many orientations reads once.
    """
    return hook_theta_counts(m, i)[theta]
