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

from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, combinations, permutations

from .errors import InvalidFilling, InvariantViolation, IsBaseTableau, check_size
from .hessenberg import Hess, area, edges, path
from .partitions import Partition, check_partition, partitions, shape_of
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


@lru_cache(maxsize=None)
def _value_masks(m: Hess) -> tuple[tuple[int, ...], ...]:
    """Bitmasks over [n] by value x (0 for no neighbour): the values allowed
    right of x, the values allowed below x, and the neighbours y > x."""
    full = (1 << len(m) + 1) - 2
    right_of = (full,) + tuple(full >> v + 1 << v + 1 for v in m)
    reach = (bisect_left(m, x) + 1 for x in range(1, len(m) + 1))  # the least y with x <= m(y)
    below_ok = (full,) + tuple(full >> r << r for r in reach)
    higher = (0,) + tuple(full >> x + 1 << x + 1 & ~r for x, r in enumerate(right_of[1:], 1))
    return right_of, below_ok, higher


@lru_cache(maxsize=None)
def _diagram(row_lengths: tuple[int, ...], inner: tuple[int, ...], tableau: bool) -> tuple:
    """A shape's cells in row-major order: each row's range of indices, each
    cell's left and upper neighbour (-1 for none, and one more -1 past the end),
    each cell's later first cells' upper neighbours, and whether (0, 0) is a cell."""
    inner += (0,) * len(row_lengths)
    rows = [[(i, j) for j in range(inner[i], length)] for i, length in enumerate(row_lengths)]
    index = {cell: k for k, cell in enumerate(cell for row in rows for cell in row)}
    ends = tuple(accumulate(map(len, rows)))
    bounds = tuple(zip((0,) + ends, ends))
    left = tuple(index.get((i, j - 1), -1) for i, j in index) + (-1,)
    up = tuple(index.get((i - 1, j), -1) if tableau else -1 for i, j in index) + (-1,)
    later = tuple(tuple(up[a] for a, b in bounds if k < a < b) for k in range(len(index)))
    return bounds, left, up, later, (0, 0) in index


def _search(
    m: Hess, row_lengths: tuple[int, ...], inner: tuple[int, ...],
    tableau: bool, corner1: bool, keep: bool,
) -> tuple[list[int], list[Filling]]:
    """Fillings counted by inv and, when ``keep`` is set, listed.

    Cells take, in row-major order, free values right of the left neighbour
    and (if ``tableau``) allowed below the upper one.  x adds to inv its
    placed neighbours y > x: all lie in rows above, as x's row so far is a
    chain below x.  With n cells the least free value u, whose left
    neighbour is below it and so placed, must go into the next cell or the
    first cell of a later row; a branch where none can take u is cut.
    """
    if tableau:
        row_lengths, inner = check_partition(row_lengths), check_partition(inner)
        if len(inner) > len(row_lengths) or any(b > a for a, b in zip(row_lengths, inner)):
            raise ValueError(f"{inner} is not inside {row_lengths}")
    counts, fillings = [0] * (area(m) + 1), []
    bounds, left, up, later, has_corner = _diagram(row_lengths, inner, tableau)
    size = len(left) - 1
    if size > len(m) or (corner1 and not has_corner) or any(a < 0 for a in row_lengths):
        return counts, fillings
    if not size:
        return [1] + counts[1:], [((),) * len(bounds)]
    right_of, below_ok, higher = _value_masks(m)
    vals = [0] * (size + 1)  # vals[-1] stays 0, the value of a missing neighbour
    cut = size == len(m)

    def fill(k: int, free: int, inv: int, cand: int) -> None:
        nk = k + 1
        lft, upc = left[nk], up[nk]
        while cand:
            bit = cand & -cand
            cand ^= bit
            x = bit.bit_length() - 1
            vals[k] = x
            new_inv = inv + (higher[x] & ~free).bit_count()
            if nk == size:
                counts[new_inv] += 1
                if keep:
                    fillings.append(tuple(tuple(vals[a:b]) for a, b in bounds))
                continue
            rest = free ^ bit
            nxt = rest & right_of[vals[lft]] & below_ok[vals[upc]]
            if cut and not nxt & (u := rest & -rest):
                for a in later[nk]:
                    if below_ok[vals[a]] & u if a < nk else rest & higher[u.bit_length() - 1]:
                        break
                else:
                    continue
            if nxt:
                fill(nk, rest, new_inv, nxt)

    fill(0, right_of[0], 0, 2 if corner1 else right_of[0])
    del fill  # its closure cell refers to it; that cycle would hold fillings until a gc
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
    return SymFun(n, "s", {lam: pt_poly(m, lam, corner1=corner1) for lam in partitions(n)})


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


def signed_pa_sum(m: Hess, lam: Partition, corner1: bool = False) -> QPoly:
    """Alternating sum of array inv-polynomials over permuted row lengths.

    Equals the straight-shape P-tableau polynomial of lam (primed or not),
    which the tests verify independently.
    """
    total = [0] * (area(m) + 1)
    for w in permutations(range(len(lam))):
        sign = (-1) ** sum(1 for a, b in combinations(w, 2) if a > b)
        counts = _search(m, w_shift(lam, w), (), False, corner1, keep=False)[0]
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
