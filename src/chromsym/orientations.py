"""Acyclic orientations, sinks, and their link to tableau statistics.

An orientation is an int mask over ``edges(m)``: bit idx set means edge idx,
(i, j) with i < j, is directed (i, j), toward its larger endpoint, and bit
idx clear means (j, i).  So theta = 6 on the edges ((1, 2), (1, 3), (2, 3))
of m = (3, 3, 3) directs them (2, 1), (1, 3) and (2, 3), and its ascents are
its set bits.  Sinks of an acyclic orientation are pairwise comparable in
the poset, so a smallest sink always exists; both facts are checked rather
than assumed, and a failed check raises :class:`InvariantViolation`.

:func:`enumerate_ao` backtracks over the edges, pruning at the first directed
cycle, and never calls :func:`theta_of`, which the binomial check compares
it with.  :func:`hook_theta_counts` buckets the hook P-tableaux by orientation.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .coloring import x_colorings
from .errors import InvalidFilling, InvariantViolation, check_size
from .hessenberg import Hess, edges, poset_less
from .partitions import Partition
from .ptableaux import Filling, entry_rows, enumerate_pt, s_fun
from .qpoly import ZERO, QPoly
from .symfunc import SymFun


def enumerate_ao(m: Hess, require_1_sink: bool = False) -> tuple[int, ...]:
    """All acyclic orientations, in increasing mask order; optionally only
    those where vertex 1 is a sink.

    The last edge is decided first, (j, i) before (i, j).  A choice closing
    a cycle is pruned; ``reach[v]`` is the set of vertices v reaches, v included.
    """
    n = len(m)
    check_size(n)
    edge_list = edges(m)
    out = []

    def orient(idx: int, theta: int, reach: list[int]) -> None:
        if idx < 0:
            out.append(theta)
            return
        i, j = edge_list[idx]
        for bit in (0,) if require_1_sink and i == 1 else (0, 1):
            tail, head = (i, j) if bit else (j, i)
            if reach[head] >> tail & 1:
                continue
            gained = reach[head]  # now reached by every vertex that reaches tail
            orient(idx - 1, theta | bit << idx, [r | gained if r >> tail & 1 else r for r in reach])

    orient(len(edge_list) - 1, 0, [1 << v for v in range(n + 1)])
    del orient  # its closure cell refers to it; that cycle would hold out until a gc
    return tuple(out)


def asc(m: Hess, theta: int) -> int:
    """Edges directed toward their larger endpoint."""
    return theta.bit_count()


@lru_cache(maxsize=None)
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


def smallest_sink(m: Hess, theta: int) -> int:
    """Minimal sink in the poset order; sinks are pairwise comparable."""
    ss = sorted(sinks(m, theta))
    for a in ss:
        for b in ss:
            if a != b:
                if not (poset_less(m, a, b) or poset_less(m, b, a)):
                    raise InvariantViolation(f"incomparable sinks {a}, {b} in {theta}")
    for a in ss:
        if all(a == b or poset_less(m, a, b) for b in ss):
            return a
    raise InvariantViolation("no minimal sink found")


def theta_of(m: Hess, rows: Filling) -> int:
    """Orient each edge toward its endpoint lying in the higher row."""
    pos = entry_rows(rows)
    if set(pos) != set(range(1, len(m) + 1)):
        raise InvalidFilling("the filling must use 1..n exactly once")
    return _theta(edges(m), pos)


def _theta(edge_list: tuple[tuple[int, int], ...], pos: dict[int, int]) -> int:
    """Rows are chains, so every edge climbs rows and no cycle can close."""
    theta = 0
    for idx, (i, j) in enumerate(edge_list):
        if pos[i] == pos[j]:
            raise InvariantViolation(f"edge ({i}, {j}) joins two entries of one row")
        if pos[j] < pos[i]:
            theta |= 1 << idx
    return theta


def ao_sink_poly(m: Hess, require_1_sink: bool = False) -> dict[int, QPoly]:
    """Ascent-generating polynomial of acyclic orientations, by sink count."""
    return sink_poly(m, enumerate_ao(m, require_1_sink))


def sink_poly(m: Hess, thetas: tuple[int, ...]) -> dict[int, QPoly]:
    """Ascent-generating polynomial of the given orientations of m, by sink count."""
    out: dict[int, list[int]] = {}
    max_asc = len(edges(m))
    for theta in thetas:
        ell = len(sinks(m, theta))
        bucket = out.setdefault(ell, [0] * (max_asc + 1))
        bucket[asc(m, theta)] += 1
    return {ell: QPoly(counts) for ell, counts in out.items()}


def length_distribution(f: SymFun) -> dict[int, QPoly]:
    """Elementary-basis coefficients of f summed by partition length."""
    out: dict[int, QPoly] = {}
    for lam, c in f.to_e().coeffs.items():
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
    """How many hook-shape primed P-tableaux map onto each orientation.

    The hook has i cells in its first row; no edge may join two of them.
    """
    edge_list = edges(m)
    hook: Partition = (i,) + (1,) * (len(m) - i)
    tableaux = enumerate_pt(m, hook, corner1=True)
    return Counter(_theta(edge_list, entry_rows(rows)) for rows in tableaux)


def sink_subset_count(m: Hess, theta: int, i: int) -> int:
    """Hook-shape primed P-tableaux mapping onto a fixed orientation.

    For an orientation with ell sinks including vertex 1, the count matches
    binomial(ell - 1, i - 1); the caller compares.  A lookup into
    :func:`hook_theta_counts`, which a caller with many orientations reads once.
    """
    return hook_theta_counts(m, i)[theta]
