"""Transition-probability model on standard Young tableaux.

A tableau of size s grows by inserting s+1 at one of the admissible columns
read off from the 0/1 indicator of "column contains an entry above the
threshold r"; each insertion carries an exact rational weight in q.  Running
the growth process with the thresholds prescribed by a Hessenberg function m
(step i uses r = n - m(n+1-i)) assigns a probability p(T) to every standard
tableau of size n, and these probabilities drive the elementary-basis
expansion refinements.

Every weight is a product of q-integers over a product of q-integers, built
with :meth:`QRat.over_q_ints`, so every value of the dynamic program keeps its
denominator as cyclotomic exponents and no polynomial gcd is ever taken.  The
coefficients extracted at the end must be polynomials; ``as_poly`` raises
:class:`NotDivisible` when one is not, which doubles as a polynomiality check.

The graded pieces are computed in one pass per m: the probability table is
grouped once by (shape, column of the largest entry), every E_k is formed
from that grouping once and cached, and ``c_poly``, ``e_part``, ``e_total``
and ``x_from_table`` all read those.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvariantViolation, check_size
from .hessenberg import Hess, area
from .partitions import Partition, Tableau, entry_column, shape_of
from .qpoly import ONE, RAT_ONE, RAT_ZERO, QPoly, QRat, q_fact, q_int
from .symfunc import SymFun, combination

Runs = tuple[int, tuple[tuple[int, int], ...], int]


def delta_bits(tableau: Tableau, r: int) -> tuple[int, ...]:
    """Bit i says whether column i holds an entry greater than r (length = size)."""
    n = sum(len(row) for row in tableau)
    width = len(tableau[0]) if tableau else 0
    bits = []
    for c in range(width):
        height = sum(1 for row in tableau if len(row) > c)
        bits.append(1 if tableau[height - 1][c] > r else 0)
    bits.extend([0] * (n - width))
    return tuple(bits)


def delta_runs(bits: tuple[int, ...]) -> Runs:
    """Unique decomposition (1^b0, 0^a1, 1^b1, ..., 0^al, 1^bl, 0^tail)."""
    i, n = 0, len(bits)
    b0 = 0
    while i < n and bits[i] == 1:
        b0 += 1
        i += 1
    pairs = []
    while i < n:
        a = 0
        while i < n and bits[i] == 0:
            a += 1
            i += 1
        b = 0
        while i < n and bits[i] == 1:
            b += 1
            i += 1
        if b == 0:
            return b0, tuple(pairs), a
        pairs.append((a, b))
    return b0, tuple(pairs), 0


def insertion_column(runs: Runs, k: int) -> int:
    b0, pairs, _ = runs
    if not 0 <= k <= len(pairs):
        raise IndexError(f"k = {k} exceeds the number of runs {len(pairs)}")
    return 1 + b0 + sum(a + b for a, b in pairs[:k])


def insert_at_column(tableau: Tableau, column: int) -> Tableau:
    """Append size+1 at the bottom of the given 1-based column."""
    n = sum(len(row) for row in tableau)
    rows = [list(row) for row in tableau]
    height = sum(1 for row in rows if len(row) >= column)
    if height == len(rows):
        rows.append([])
    if len(rows[height]) != column - 1:
        raise InvariantViolation(f"inserting at column {column} breaks the shape of {tableau}")
    rows[height].append(n + 1)
    return tuple(tuple(row) for row in rows)


def insertions(tableau: Tableau, r: int) -> list[tuple[int, Tableau]]:
    """All admissible growth steps (k, resulting tableau) at threshold r."""
    runs = delta_runs(delta_bits(tableau, r))
    return [
        (k, insert_at_column(tableau, insertion_column(runs, k)))
        for k in range(len(runs[1]) + 1)
    ]


def _weight_runs(runs: Runs, k: int, modified: bool) -> QRat:
    """Insertion weight: a power of q times q-integers over q-integers.

    ``modified`` selects the q-power sum(b_i, i > k) in front; the original
    variant uses sum(a_i, i <= k) instead, everything else being equal.
    """
    _, pairs, _ = runs
    l = len(pairs)
    if not 0 <= k <= l:
        raise IndexError(f"k = {k} exceeds the number of runs {l}")
    a = [ab[0] for ab in pairs]
    b = [ab[1] for ab in pairs]
    if modified:
        power = sum(b[k:])
    else:
        power = sum(a[:k])
    num = ONE.shifted(power)
    den: list[int] = []
    for i in range(1, k + 1):
        num = num * q_int(sum(a[i:k]) + sum(b[i - 1 : k]))
        den.append(sum(a[i - 1 : k]) + sum(b[i - 1 : k]))
    for i in range(k + 1, l + 1):
        num = num * q_int(sum(a[k:i]) + sum(b[k : i - 1]))
        den.append(sum(a[k:i]) + sum(b[k:i]))
    return QRat.over_q_ints(num, den)


def psi(tableau: Tableau, k: int, r: int) -> QRat:
    """Weight of the k-th insertion at threshold r (modified variant)."""
    return _weight_runs(delta_runs(delta_bits(tableau, r)), k, modified=True)


def phi(tableau: Tableau, k: int, r: int) -> QRat:
    """Weight of the k-th insertion at threshold r (original variant)."""
    return _weight_runs(delta_runs(delta_bits(tableau, r)), k, modified=False)


def thresholds(m: Hess) -> list[int]:
    """Threshold used at step i (growing entry i), for i = 1..n."""
    n = len(m)
    return [n - m[n - i] for i in range(1, n + 1)]


def _grow(m: Hess, modified: bool, records: list[dict] | None = None) -> dict[Tableau, QRat]:
    """Run the growth process for m; optionally record every insertion."""
    check_size(len(m))
    states: dict[Tableau, QRat] = {(): RAT_ONE}
    for step, r in enumerate(thresholds(m), start=1):
        new: dict[Tableau, QRat] = {}
        for tab, value in states.items():
            runs = delta_runs(delta_bits(tab, r))
            for k in range(len(runs[1]) + 1):
                weight = _weight_runs(runs, k, modified)
                child = insert_at_column(tab, insertion_column(runs, k))
                contrib = value * weight
                # a child's one parent is itself less its largest entry; the column grows with k
                new[child] = contrib
                if records is not None:
                    records.append(
                        {
                            "step": step,
                            "r": r,
                            "k": k,
                            "parent": tab,
                            "child": child,
                            "weight": weight,
                            "p": contrib,
                        }
                    )
        states = new
    return states


@lru_cache(maxsize=None)
def _table_raw(m: Hess, modified: bool) -> dict[Tableau, QRat]:
    return _grow(m, modified)


def p_table(m: Hess) -> dict[Tableau, QRat]:
    """Probability of every reachable standard tableau of size n under m."""
    return {t: v for t, v in _table_raw(m, True).items() if not v.is_zero()}


def p_bar_table(m: Hess) -> dict[Tableau, QRat]:
    """Same table built with the original (unmodified) weights."""
    return {t: v for t, v in _table_raw(m, False).items() if not v.is_zero()}


def probability_sum(m: Hess, modified: bool = True) -> QRat:
    return sum(_table_raw(m, modified).values(), RAT_ZERO)


def check_area_relation(m: Hess) -> bool:
    """Entrywise relation between the two tables through a fixed power of q.

    The modified probability equals the original one multiplied by q to the
    power area(m) - sum of binomial(lam_j, 2) over the rows of the shape.
    """
    mod = _table_raw(m, True)
    orig = _table_raw(m, False)
    if set(mod) != set(orig):
        return False
    a = area(m)
    for tab, p_mod in mod.items():
        shift = sum(p * (p - 1) // 2 for p in shape_of(tab))
        if p_mod * ONE.shifted(shift) != orig[tab] * ONE.shifted(a):
            return False
    return True


def _row_factorials_times(lam: Partition, tabs) -> QPoly:
    """Product of the row q-factorials of lam times the summed probabilities.

    Always a polynomial; a denominator left over would falsify that claim and
    raises NotDivisible.
    """
    total = sum(tabs, RAT_ZERO)
    for part in lam:
        total = total * q_fact(part)
    return total.as_poly()


def _c_polys(m: Hess) -> dict[tuple[Partition, int], QPoly]:
    """Every c_poly of m, keyed by (shape, column of n), from one pass over
    the probability table."""
    n = len(m)
    groups: dict[tuple[Partition, int], list[QRat]] = {}
    for tab, value in _table_raw(m, True).items():
        groups.setdefault((shape_of(tab), entry_column(tab, n)), []).append(value)
    return {key: _row_factorials_times(key[0], values) for key, values in groups.items()}


def c_poly(m: Hess, lam: Partition, k: int) -> QPoly:
    """Product of row q-factorials times the probability mass of the tableaux
    of shape lam whose largest entry sits in column k.  Always a polynomial;
    a failed division here would falsify that claim and raises NotDivisible.
    """
    c = e_part(m, k).coeff(lam)
    return c * q_int(k) if c else c


def e_part(m: Hess, k: int) -> SymFun:
    """E_k, the refinement by the column k of the largest entry; zero for k outside [1, n]."""
    return _e_parts(m)[k - 1] if 1 <= k <= len(m) else SymFun.zero(len(m))


@lru_cache(maxsize=None)
def _e_parts(m: Hess) -> tuple[SymFun, ...]:
    """e_part(m, k) for k = 1, ..., n, so every E_k is formed once per m."""
    polys = _c_polys(m).items()
    return tuple(
        SymFun(len(m), "e", {lam: c.exact_div(q_int(k)) for (lam, col), c in polys if col == k})
        for k in range(1, len(m) + 1)
    )


def e_total(m: Hess) -> SymFun:
    """Sum of the refinements over all columns k."""
    return combination(len(m), ((1, part) for part in _e_parts(m)))


def x_from_table(m: Hess) -> SymFun:
    """X from the probability table: the sum over k of [k]_q times ``e_part(m, k)``."""
    return combination(len(m), ((q_int(k), part) for k, part in enumerate(_e_parts(m), 1)))


def trace(m: Hess) -> list[dict]:
    """Growth tree records for display: one per (parent, child) insertion."""
    records: list[dict] = []
    _grow(m, True, records)
    return records
