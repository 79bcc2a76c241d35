"""P-tableaux of straight shape over a natural unit interval order.

A P-tableau of shape lam fills the Young diagram of lam with distinct
integers from [n] so that rows strictly increase in the order of the poset
and no entry strictly dominates the one directly below it.  The primed
variants pin the entry 1 to the top-left cell, so the empty shape has no
primed filling.

The inv statistic counts graph edges whose larger endpoint sits in a
strictly higher row.  The path-shape peel map removes a maximal "sliding"
vertical strip from a primed tableau for a path and is the workhorse of the
path-case recursion.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import accumulate

from .errors import InvalidFilling, InvariantViolation, IsBaseTableau
from .hessenberg import Hess, area, check_hess, edges, path, per_m
from .partitions import Partition, check_partition, partitions, shape_of
from .qpoly import QPoly, pack
from .symfunc import SymFun, _from_packed_s

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
    n = len(check_hess(m))
    pos = entry_rows(rows)
    if any(not 1 <= x <= n for x in pos):
        raise InvalidFilling(f"entries must lie in [1, {n}]")
    return sum(1 for i, j in edges(m) if i in pos and j in pos and pos[j] < pos[i])


@per_m(1)
def _value_masks(m: Hess) -> tuple:
    """By value x (0 for no neighbour): masks of the values allowed right of and below x and
    of the neighbours y > x, x's first index in edges(m); the longest chain, the largest clique."""
    full = (1 << len(m) + 1) - 2
    right_of = (full,) + tuple(full >> v + 1 << v + 1 for v in m)
    reach = (bisect_left(m, x) + 1 for x in range(1, len(m) + 1))  # the least y with x <= m(y)
    below_ok = (full,) + tuple(full >> r << r for r in reach)
    higher = (0,) + tuple(full >> x + 1 << x + 1 & ~r for x, r in enumerate(right_of[1:], 1))
    chain = x = 0
    while x < len(m):  # the greedy chain from 1 is longest, as m is nondecreasing
        chain, x = chain + 1, m[x]
    clique = max((v - i for i, v in enumerate(m)), default=0)  # [i + 1, m(i + 1)] is a clique
    offset = (0, 0, *accumulate(v - i for i, v in enumerate(m, 1)))
    return right_of, below_ok, higher, offset, chain, clique


def _fillable(m: Hess, lam: Partition) -> bool:
    """Whether a shape of n cells passes both bounds: a row is a chain, a clique spans rows."""
    *_, chain, clique = _value_masks(m)
    return max(lam, default=0) <= chain and len(lam) >= clique


@lru_cache(maxsize=None)
def _diagram(row_lengths: tuple[int, ...]) -> tuple:
    """A shape's cells in row-major order: each row's range of indices, each
    cell's left and upper neighbour (-1 for none, and one more -1 past the end),
    and each cell's later first cells' upper neighbours."""
    ends = tuple(accumulate(row_lengths))
    bounds = tuple(zip((0,) + ends, ends))
    cells = [(i, j) for i, length in enumerate(row_lengths) for j in range(length)]
    left = tuple(k - 1 if j else -1 for k, (_, j) in enumerate(cells)) + (-1,)
    up = tuple(k - row_lengths[i - 1] if i else -1 for k, (i, _) in enumerate(cells)) + (-1,)
    later = tuple(tuple(up[a] for a, _ in bounds if k < a) for k in range(len(cells)))
    return bounds, left, up, later


def _search(m: Hess, outer: Partition, corner1: bool, keep: bool, by_mask: bool = False):
    """The kernel on a checked m and shape; a shape of n cells that fails a bound is empty."""
    _value_masks(m)  # gates m through the per-m cache, before the shape is read
    if sum(lam := check_partition(outer)) == len(m) and not _fillable(m, lam):
        return Counter() if by_mask else [0] * (area(m) + 1), []
    return _kernel(m, lam, corner1, keep, by_mask)


def _kernel(
    m: Hess, row_lengths: Partition, corner1: bool, keep: bool, by_mask: bool = False
) -> tuple[list[int] | Counter[int], list[Filling]]:
    """Fillings counted by inv and, when ``keep`` is set, listed; or, unbuilt, counted by mask.

    Cells take, in row-major order, free values right of the left neighbour and
    allowed below the upper one.  x adds its placed neighbours y > x to inv, or
    as edges (x, y) to the mask: all lie in rows above, as x's row so far is a
    chain below x.  With n cells the least free value u, whose left neighbour
    is below it and so placed, must go into the next cell or the first cell of
    a later row; the inv loop cuts a branch where none can take u.  With n
    cells the last cell, unless fillings are kept, can only take the one value
    y left, which then has every y' in ``higher[y]`` placed: its parent counts
    it, with no call per leaf.
    """
    right_of, below_ok, higher, offset, _, _ = _value_masks(m)
    counts, fillings = Counter() if by_mask else [0] * (offset[-1] + 1), []  # [-1]: the area
    bounds, left, up, later = _diagram(row_lengths)
    size = len(left) - 1
    if size > len(m) or (corner1 and not size):
        return counts, fillings
    if not size:
        counts[0] += 1
        return counts, [()]
    vals = [0] * (size + 1)  # vals[-1] stays 0, the value of a missing neighbour
    cut = size == len(m)
    last = size - 1 if cut and not keep else 0  # the forced last cell; 0 for none

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
            if nk == last:
                if nxt:
                    counts[new_inv + higher[nxt.bit_length() - 1].bit_count()] += 1
                continue
            if cut and not nxt & (u := rest & -rest):
                for a in later[nk]:
                    if below_ok[vals[a]] & u if a < nk else rest & higher[u.bit_length() - 1]:
                        break
                else:
                    continue
            if nxt:
                fill(nk, rest, new_inv, nxt)

    def fill_masks(k: int, free: int, mask: int, cand: int) -> None:
        nk = k + 1
        while cand:
            bit = cand & -cand
            cand ^= bit
            x = bit.bit_length() - 1
            vals[k] = x
            new_mask = mask | (higher[x] & ~free) >> x + 1 << offset[x]
            if nk == size:
                counts[new_mask] += 1
                continue
            rest = free ^ bit
            nxt = rest & right_of[vals[left[nk]]] & below_ok[vals[up[nk]]]
            if nk == last:
                if nxt:
                    y = nxt.bit_length() - 1
                    counts[new_mask | higher[y] >> y + 1 << offset[y]] += 1
                continue
            if nxt:
                fill_masks(nk, rest, new_mask, nxt)

    (fill_masks if by_mask else fill)(0, right_of[0], 0, 2 if corner1 else right_of[0])
    del fill, fill_masks  # their closure cells refer to them; cycles would hold results until a gc
    return counts, fillings


def enumerate_pt(m: Hess, outer: Partition, corner1: bool = False) -> tuple[Filling, ...]:
    """P-tableaux of a shape."""
    return tuple(_search(m, outer, corner1, keep=True)[1])


def pt_poly(m: Hess, outer: Partition, corner1: bool = False) -> QPoly:
    """Sum of q^inv over the P-tableaux of a shape, counted without building them."""
    return QPoly._trusted(_search(m, outer, corner1, keep=False)[0])


def pt_masks(m: Hess, outer: Partition, corner1: bool = False) -> Counter[int]:
    """P-tableaux counted, unbuilt, by the mask of their edges with the larger end higher up."""
    return _search(m, outer, corner1, keep=False, by_mask=True)[0]


def _schur_sum(m: Hess, corner1: bool) -> SymFun:
    """The sum of pt_poly(m, lam, corner1) s_lam over the partitions lam of n, each shape's
    counts packed as the kernel returns them: a count is at most n! <= 8!, inside 2**40 / 37."""
    n = len(m)
    shapes = (lam for lam in partitions(n) if _fillable(m, lam))
    return _from_packed_s(n, {lam: pack(_kernel(m, lam, corner1, False)[0]) for lam in shapes})


@per_m(None)
def s_fun(m: Hess) -> SymFun:
    """Schur generating function of primed P-tableaux (entry 1 in the corner)."""
    return _schur_sum(m, corner1=True)


def x_schur(m: Hess) -> SymFun:
    """Schur expansion of the chromatic quasisymmetric function via P-tableaux."""
    return _schur_sum(check_hess(m), corner1=False)


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
