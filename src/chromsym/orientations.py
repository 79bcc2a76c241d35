"""Acyclic orientations, sinks, and their link to tableau statistics.

An orientation is stored as a frozenset of directed pairs (tail, head), one
per graph edge.  Ascents are edges directed toward their larger endpoint.
Sinks of an acyclic orientation are pairwise comparable in the poset, so a
smallest sink always exists; both facts are checked rather than assumed, and
a failed check raises :class:`InvariantViolation`.
"""

from __future__ import annotations

from .errors import MAX_N_ORIENTATIONS, InvalidFilling, InvariantViolation, check_size
from .hessenberg import Hess, edges, poset_less
from .partitions import Partition
from .ptableaux import Filling, entry_rows, enumerate_pt
from .qpoly import RAT_ZERO, QPoly, QRat
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
    """All acyclic orientations; optionally only those where vertex 1 is a sink."""
    n = len(m)
    check_size(n, MAX_N_ORIENTATIONS)
    edge_list = edges(m)
    out = []
    for mask in range(1 << len(edge_list)):
        directed = [
            (i, j) if mask >> idx & 1 else (j, i)
            for idx, (i, j) in enumerate(edge_list)
        ]
        if require_1_sink and any(u == 1 for u, _ in directed):
            continue
        if _is_acyclic(n, directed):
            out.append(frozenset(directed))
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
    directed = []
    for i, j in edges(m):
        if pos[j] < pos[i]:
            directed.append((i, j))
        else:
            directed.append((j, i))
    theta = frozenset(directed)
    if not _is_acyclic(n, directed):
        raise InvariantViolation("tableau orientation must be acyclic")
    return theta


def ao_sink_poly(m: Hess, require_1_sink: bool = False) -> dict[int, QPoly]:
    """Ascent-generating polynomial of acyclic orientations, by sink count."""
    out: dict[int, list[int]] = {}
    max_asc = len(edges(m))
    for theta in enumerate_ao(m, require_1_sink):
        ell = len(sinks(m, theta))
        bucket = out.setdefault(ell, [0] * (max_asc + 1))
        bucket[asc(m, theta)] += 1
    return {ell: QPoly(counts) for ell, counts in out.items()}


def length_distribution(f: SymFun) -> dict[int, QRat]:
    """Elementary-basis coefficients of f summed by partition length."""
    out: dict[int, QRat] = {}
    for lam, c in f.to_e().coeffs.items():
        ell = len(lam)
        out[ell] = out.get(ell, RAT_ZERO) + c
    return {ell: c for ell, c in out.items() if not c.is_zero()}


def sink_distribution(m: Hess, source: str = "X") -> dict[int, QRat]:
    """Length-graded coefficient sums of X (coloring side) or S (corner side)."""
    if source == "X":
        from .coloring import x_colorings

        f = x_colorings(m)
    elif source == "S":
        from .ptableaux import s_fun

        f = s_fun(m)
    else:
        raise ValueError("source must be 'X' or 'S'")
    return length_distribution(f)


def sink_subset_count(m: Hess, theta: Orientation, i: int) -> int:
    """Hook-shape primed P-tableaux mapping onto a fixed orientation.

    For an orientation with ell sinks including vertex 1, the count matches
    binomial(ell - 1, i - 1); the caller compares.
    """
    n = len(m)
    hook: Partition = (i,) + (1,) * (n - i)
    return sum(1 for rows in enumerate_pt(m, hook, corner1=True) if theta_of(m, rows) == theta)
