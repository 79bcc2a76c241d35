"""Acyclic orientations, sinks, and their link to tableau statistics.

An orientation is stored as a frozenset of directed pairs (tail, head), one
per graph edge.  Ascents are edges directed toward their larger endpoint.
Sinks of an acyclic orientation are pairwise comparable in the poset, so a
smallest sink always exists; both facts are checked rather than assumed, and
a failed check raises :class:`InvariantViolation`.

:func:`enumerate_ao` backtracks over the edges, pruning at the first directed
cycle, and never calls :func:`theta_of`, which the binomial check compares
it with.  :func:`hook_theta_counts` buckets the hook P-tableaux by orientation.
"""

from __future__ import annotations

from collections import Counter

from .coloring import x_colorings
from .errors import InvalidFilling, InvariantViolation, check_size
from .hessenberg import Hess, edges, poset_less
from .partitions import Partition
from .ptableaux import Filling, entry_rows, enumerate_pt, s_fun
from .qpoly import ZERO, QPoly
from .symfunc import SymFun

Orientation = frozenset[tuple[int, int]]


def _is_acyclic(n: int, directed: list[tuple[int, int]]) -> bool:
    indeg = [0] * (n + 1)
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in directed:
        adj[u].append(v)
        indeg[v] += 1
    queue = [v for v in range(1, n + 1) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == n


def enumerate_ao(m: Hess, require_1_sink: bool = False) -> tuple[Orientation, ...]:
    """All acyclic orientations; optionally only those where vertex 1 is a sink.

    They come in the order of the masks whose bit idx directs edge idx as
    (i, j): the last edge is decided first, (j, i) before (i, j).  A choice
    closing a cycle is pruned; ``reach[v]`` is the set of vertices v reaches.
    """
    n = len(m)
    check_size(n)
    edge_list = edges(m)
    bits = [False] * len(edge_list)
    out = []

    def orient(idx: int, reach: list[int]) -> None:
        if idx < 0:
            out.append(frozenset((i, j) if b else (j, i) for b, (i, j) in zip(bits, edge_list)))
            return
        i, j = edge_list[idx]
        for bit in (False,) if require_1_sink and i == 1 else (False, True):
            tail, head = (i, j) if bit else (j, i)
            if reach[head] >> tail & 1:
                continue
            # tail, and every vertex reaching it, now reaches head and beyond
            gained = reach[head] | 1 << head
            bits[idx] = bit
            orient(idx - 1, [r | gained if v == tail or r >> tail & 1 else r for v, r in enumerate(reach)])

    orient(len(edge_list) - 1, [0] * (n + 1))
    return tuple(out)


def asc(m: Hess, theta: Orientation) -> int:
    """Edges directed toward their larger endpoint."""
    return sum(1 for u, v in theta if u < v)


def sinks(m: Hess, theta: Orientation) -> set[int]:
    tails = {u for u, _ in theta}
    return {v for v in range(1, len(m) + 1) if v not in tails}


def smallest_sink(m: Hess, theta: Orientation) -> int:
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


def theta_of(m: Hess, rows: Filling) -> Orientation:
    """Orient each edge toward its endpoint lying in the higher row."""
    pos = entry_rows(rows)
    n = len(m)
    if set(pos) != set(range(1, n + 1)):
        raise InvalidFilling("the filling must use 1..n exactly once")
    return _theta(n, edges(m), pos)


def _theta(n: int, edge_list: tuple[tuple[int, int], ...], pos: dict[int, int]) -> Orientation:
    directed = [(i, j) if pos[j] < pos[i] else (j, i) for i, j in edge_list]
    if not _is_acyclic(n, directed):
        raise InvariantViolation("tableau orientation must be acyclic")
    return frozenset(directed)


def ao_sink_poly(m: Hess, require_1_sink: bool = False) -> dict[int, QPoly]:
    """Ascent-generating polynomial of acyclic orientations, by sink count."""
    return sink_poly(m, enumerate_ao(m, require_1_sink))


def sink_poly(m: Hess, thetas: tuple[Orientation, ...]) -> dict[int, QPoly]:
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


def hook_theta_counts(m: Hess, i: int) -> Counter[Orientation]:
    """How many hook-shape primed P-tableaux map onto each orientation.

    The hook has i cells in its first row; each orientation must be acyclic.
    """
    n = len(m)
    edge_list = edges(m)
    hook: Partition = (i,) + (1,) * (n - i)
    tableaux = enumerate_pt(m, hook, corner1=True)
    return Counter(_theta(n, edge_list, entry_rows(rows)) for rows in tableaux)


def sink_subset_count(m: Hess, theta: Orientation, i: int) -> int:
    """Hook-shape primed P-tableaux mapping onto a fixed orientation.

    For an orientation with ell sinks including vertex 1, the count matches
    binomial(ell - 1, i - 1); the caller compares.  A lookup into
    :func:`hook_theta_counts`, which a caller with many orientations reads once.
    """
    return hook_theta_counts(m, i)[theta]
