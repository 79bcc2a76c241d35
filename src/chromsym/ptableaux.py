"""P-tableaux and P-arrays over a natural unit interval order.

A P-tableau of straight or skew shape fills the diagram with distinct
integers so that rows strictly increase in the order of the poset and no
entry strictly dominates the one directly below it; a P-array keeps only the
row condition and may use any injective labeling from [n].  The primed
variants pin the entry 1 to the top-left cell; shapes without a (1,1) cell
have no primed fillings at all.

The inv statistic counts graph edges whose larger endpoint sits in a
strictly higher row.  The path-shape peel map removes a maximal "sliding"
vertical strip from a primed tableau for a path and is the workhorse of the
path-case recursion.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .errors import InvalidFilling, InvariantViolation, IsBaseTableau, check_size
from .hessenberg import Hess, area, edges, path
from .partitions import Partition, partitions, shape_of
from .qpoly import QPoly
from .symfunc import SymFun

Filling = tuple[tuple[int, ...], ...]


def entry_rows(rows: Filling) -> dict[int, int]:
    out = {}
    for r, row in enumerate(rows):
        for x in row:
            if x in out:
                raise InvalidFilling(f"duplicate entry {x}")
            out[x] = r
    return out


def inv_filling(m: Hess, rows: Filling) -> int:
    """Edges (i, j), i < j <= m(i), with j strictly above i in the filling."""
    n = len(m)
    pos = entry_rows(rows)
    if any(not 1 <= x <= n for x in pos):
        raise InvalidFilling(f"entries must lie in [1, {n}]")
    return sum(1 for i, j in edges(m) if i in pos and j in pos and pos[j] < pos[i])


def _search(
    m: Hess, row_lengths: tuple[int, ...], inner: tuple[int, ...],
    tableau: bool, corner1: bool, keep: bool,
) -> tuple[list[int], list[Filling]]:
    """Backtracking core shared by tableau and array modes.

    Cells are filled in row-major order; ``tableau`` switches the vertical
    constraint on.  inv is kept as entries are placed: x adds its placed
    neighbours y > x.  They all lie in rows above x's, since rows fill in
    order and the entries before x in its row form a chain of the poset below
    x.  Returns the number of fillings for each inv and, when ``keep`` is
    set, the fillings themselves.
    """
    n = len(m)
    counts = [0] * (area(m) + 1)
    fillings: list[Filling] = []
    if any(a < 0 for a in row_lengths):
        return counts, fillings
    cells: list[tuple[int, int]] = []
    bounds = []  # the range of cell indices of each row
    for i, length in enumerate(row_lengths):
        start = len(cells)
        cells.extend((i, j) for j in range(inner[i] if i < len(inner) else 0, length))
        bounds.append((start, len(cells)))
    size = len(cells)
    if tableau and sum(row_lengths) - sum(inner) == n and size != n:
        raise ValueError(f"shape has {size} cells; expected {n}")
    if size > n or (corner1 and (0, 0) not in cells):
        return counts, fillings

    index = {cell: k for k, cell in enumerate(cells)}
    left = [index.get((i, j - 1), -1) for i, j in cells]
    up = [index.get((i - 1, j), -1) if tableau else -1 for i, j in cells]
    # higher[x]: bitmask of the neighbours y > x, that is y in (x, m(x)].
    higher = [0] + [sum(1 << y for y in range(x + 1, m[x - 1] + 1)) for x in range(1, n + 1)]
    # reaching[u]: the least x with u <= m(x), the least entry allowed below u.
    reaching = [0] + [next(x for x in range(1, n + 1) if u <= m[x - 1]) for u in range(1, n + 1)]
    vals = [0] * size

    def fill(k: int, used: int, inv: int) -> None:
        if k == size:
            counts[inv] += 1
            if keep:
                fillings.append(tuple(tuple(vals[a:b]) for a, b in bounds))
            return
        low = 1
        if left[k] >= 0:
            low = m[vals[left[k]] - 1] + 1
        if up[k] >= 0:
            low = max(low, reaching[vals[up[k]]])
        high = 1 if corner1 and k == 0 else n
        for x in range(low, high + 1):
            if used >> x & 1:
                continue
            vals[k] = x
            fill(k + 1, used | 1 << x, inv + (used & higher[x]).bit_count())

    fill(0, 0, 0)
    return counts, fillings


def enumerate_pt(
    m: Hess, outer: Partition, inner: Partition = (), corner1: bool = False
) -> tuple[Filling, ...]:
    """P-tableaux of a straight (inner empty) or skew shape."""
    return tuple(_search(m, tuple(outer), tuple(inner), True, corner1, keep=True)[1])


def enumerate_pa(m: Hess, alpha, corner1: bool = False) -> tuple[Filling, ...]:
    """P-arrays of a weak-composition shape; entries inject from [n]."""
    return tuple(_search(m, tuple(alpha), (), False, corner1, keep=True)[1])


def pt_poly(
    m: Hess, outer: Partition, inner: Partition = (), corner1: bool = False
) -> QPoly:
    """Sum of q^inv over the P-tableaux of a shape, counted without building them."""
    return QPoly(_search(m, tuple(outer), tuple(inner), True, corner1, keep=False)[0])


def _schur_sum(m: Hess, corner1: bool) -> SymFun:
    """The sum of pt_poly(m, lam, corner1) s_lam over the partitions lam of n."""
    n = len(m)
    check_size(n)
    coeffs = {}
    for lam in partitions(n):
        poly = pt_poly(m, lam, corner1=corner1)
        if not poly.is_zero():
            coeffs[lam] = poly
    return SymFun(n, "s", coeffs)


@lru_cache(maxsize=None)
def s_fun(m: Hess) -> SymFun:
    """Schur generating function of primed P-tableaux (entry 1 in the corner)."""
    return _schur_sum(m, corner1=True)


@lru_cache(maxsize=None)
def x_schur(m: Hess) -> SymFun:
    """Schur expansion of the chromatic quasisymmetric function via P-tableaux."""
    return _schur_sum(m, corner1=False)


def w_shift(lam: Partition, w: tuple[int, ...]) -> tuple[int, ...]:
    """Row lengths lam[w(i)] + i - w(i) for a permutation w of the row indices.

    ``w`` is 0-based one-line notation; entries may come out nonpositive, in
    which case the corresponding array set is empty.
    """
    return tuple(lam[w[i]] + i - w[i] for i in range(len(w)))


def _parity(w: tuple[int, ...]) -> int:
    inv = sum(1 for a in range(len(w)) for b in range(a + 1, len(w)) if w[a] > w[b])
    return -1 if inv % 2 else 1


def signed_pa_sum(m: Hess, lam: Partition, corner1: bool = False) -> QPoly:
    """Alternating sum of array inv-polynomials over permuted row lengths.

    Equals the straight-shape P-tableau polynomial of lam (primed or not),
    which the tests verify independently.
    """
    total = [0] * (area(m) + 1)
    for w in permutations(range(len(lam))):
        shape = w_shift(lam, w)
        if any(a < 0 for a in shape):
            continue
        sign = _parity(w)
        counts = _search(m, shape, (), False, corner1, keep=False)[0]
        total = [t + sign * c for t, c in zip(total, counts)]
    return QPoly(total)


# --- the path-shape peel bijection ----------------------------------------


def base_column(n: int) -> Filling:
    """The single-column tableau with entries 1..n in order."""
    return tuple((i,) for i in range(1, n + 1))


def _positions(rows: Filling) -> dict[int, tuple[int, int]]:
    return {x: (r, c) for r, row in enumerate(rows) for c, x in enumerate(row)}


def path_peel(rows: Filling) -> tuple[Filling, int]:
    """Remove the sliding vertical strip from a primed path P-tableau.

    Returns (smaller tableau, j) where j records how many strip entries sit
    directly above their predecessor; inv decreases by exactly j.  The base
    single-column tableau has nothing to peel.
    """
    n = sum(len(row) for row in rows)
    if rows == base_column(n):
        raise IsBaseTableau("the staircase column cannot be peeled")
    pos = _positions(rows)
    shape = shape_of(rows)

    peak = max(e for e in range(2, n + 1) if pos[e - 1][0] > pos[e][0])

    for low in range(2, peak + 1):
        strip = list(range(low, n + 1))
        cells = [pos[e] for e in strip]
        rows_used = [r for r, _ in cells]
        if len(set(rows_used)) != len(rows_used):
            continue
        # bottom-to-top reading must be n, n-1, ..., peak+1, low, ..., peak
        reading = [e for _, e in sorted(zip(rows_used, strip), reverse=True)]
        want = list(range(n, peak, -1)) + list(range(low, peak + 1))
        if reading != want:
            continue
        # all removed cells must close off a vertical strip of the shape
        if any(c + 1 != shape[r] for r, c in cells):
            continue
        remaining = list(shape)
        for r, _ in cells:
            remaining[r] -= 1
        if any(remaining[i] < remaining[i + 1] for i in range(len(remaining) - 1)):
            continue
        j = sum(1 for e in range(low, peak + 1) if pos[e - 1][0] > pos[e][0])
        stripped = tuple(
            tuple(x for x in row if x < low) for row in rows if any(x < low for x in row)
        )
        return stripped, j
    raise InvariantViolation(f"no strip found in {rows}")


def path_unpeel(rows: Filling, j: int, outer: Partition) -> Filling:
    """Two-sided inverse of :func:`path_peel` toward the shape ``outer``."""
    mu = shape_of(rows)
    size = sum(mu)
    if size == 0:
        raise ValueError("cannot grow the empty tableau (no corner entry)")
    mu_full = mu + (0,) * (len(outer) - len(mu))
    diff = [outer[r] - mu_full[r] for r in range(len(outer))]
    if any(d not in (0, 1) for d in diff) or sum(diff) == 0:
        raise ValueError(f"{outer} over {mu} is not a nonempty vertical strip")
    strip_cells = [(r, outer[r] - 1) for r in range(len(outer)) if diff[r] == 1]
    if not 1 <= j <= len(strip_cells) - 1:
        raise ValueError(f"j = {j} out of range for a strip of {len(strip_cells)} cells")

    top_row = _positions(rows)[size][0]
    in_or_above = [cell for cell in strip_cells if cell[0] <= top_row]
    boundary = in_or_above[-1] if in_or_above else strip_cells[0]
    labeled = [cell for cell in strip_cells if cell != boundary]
    pivot = labeled[j - 1]

    first = sorted(
        [cell for cell in strip_cells if cell[0] < pivot[0]] + [pivot], reverse=True
    )
    second = sorted(cell for cell in strip_cells if cell[0] > pivot[0])
    assignment = {}
    entry = size
    for cell in first + second:
        entry += 1
        assignment[cell] = entry

    grid = {(r, c): x for r, row in enumerate(rows) for c, x in enumerate(row)}
    grid.update(assignment)
    return tuple(
        tuple(grid[(r, c)] for c in range(outer[r])) for r in range(len(outer))
    )


@lru_cache(maxsize=None)
def corner_path_poly(lam: Partition) -> QPoly:
    """Sum of q^inv over primed path P-tableaux of a shape (0 for the empty shape)."""
    n = sum(lam)
    if n == 0:
        return QPoly()
    return pt_poly(path(n), lam, corner1=True)
