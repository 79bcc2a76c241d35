"""Transition-probability model on standard Young tableaux.

A tableau of size s grows by inserting s+1 at one of the admissible columns
read off from the 0/1 indicator of "column contains an entry above the
threshold r"; each insertion carries an exact rational weight in q.  Running
the growth process with the thresholds prescribed by a Hessenberg function m
(step i uses r = n - m(n+1-i)) assigns a probability p(T) to every standard
tableau of size n, and these probabilities drive the elementary-basis
expansion refinements.

Every weight is a power of q times q-integers over q-integers, and [j]_q is
the product of the cyclotomic Phi_d over the divisors d > 1 of j.  So every
weight, and every product of weights along a growth path, is a monomial
q**v[0] * prod Phi_d**v[d] (d >= 2, exponents of either sign), kept as the
integer vector v of :mod:`.qpoly`: the dynamic program only adds vectors.  A
vector becomes a :class:`QRat` (``QRat.monomial``) only where a caller asks
for one.

The graded pieces are computed in one pass per m: the table is grouped once
by (shape, column of the largest entry), each group is summed once over the
entrywise minimum of its vectors, the exponents of the row q-factorials and
of [k]_q are added to that minimum, and the Phi_d left below the line are
divided out exactly; a failed division raises :class:`NotDivisible`, which
doubles as a polynomiality check.  Every E_k is cached, and ``c_poly``,
``e_part``, ``e_total`` and ``x_from_table`` all read those.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub

from .errors import MAX_N, InvariantViolation
from .hessenberg import Hess, area, check_hess, per_m
from .partitions import Partition, Tableau, entry_column, shape_of
from .qpoly import ZERO, Monomial, QPoly, QRat, cyclotomic_product, q_int, split
from .symfunc import SymFun, combination

Runs = tuple[int, tuple[tuple[int, int], ...], int]
Table = dict[Tableau, tuple[Monomial, int]]  # a probability, and the original variant's power of q


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


@lru_cache(maxsize=None)
def _weight(runs: Runs, k: int) -> tuple[Monomial, int]:
    """Insertion weight: a power of q times q-integers over q-integers.

    Returns the modified variant's vector, whose q-power is sum(b_i, i > k),
    and the original variant's q-power sum(a_i, i <= k); the two variants
    agree in everything else.
    """
    b0, pairs, tail = runs
    l = len(pairs)
    if not 0 <= k <= l:
        raise IndexError(f"k = {k} exceeds the number of runs {l}")
    a, b = [ab[0] for ab in pairs], [ab[1] for ab in pairs]
    # every q-integer is at most the size of the tableau
    vec = [0] * (max(b0 + sum(a) + sum(b) + tail, MAX_N) + 1)
    vec[0] = sum(b[k:])
    for i in range(1, l + 1):
        if i <= k:
            up, down = sum(a[i:k]) + sum(b[i - 1 : k]), sum(a[i - 1 : k]) + sum(b[i - 1 : k])
        else:
            up, down = sum(a[k:i]) + sum(b[k : i - 1]), sum(a[k:i]) + sum(b[k:i])
        for d in range(2, max(up, down) + 1):
            vec[d] += (up % d == 0) - (down % d == 0)
    return tuple(vec), sum(a[:k])


def _sum(vecs) -> tuple[QPoly, list[int]]:
    """A sum of monomials as (s, low): the sum is the polynomial s times the
    monomial low, the entrywise minimum of vecs."""
    low = [min(col) for col in zip(*vecs)]
    total = ZERO
    for vec in vecs:
        total = total + cyclotomic_product(tuple(map(sub, vec, low)))
    return total, low


@lru_cache(maxsize=1)  # psi and phi read one (tableau, r) for every k in turn
def insertion_runs(tableau: Tableau, r: int) -> Runs:
    """The runs of the threshold-r indicator of tableau, for the latest pair only."""
    return delta_runs(delta_bits(tableau, r))


@lru_cache(maxsize=None)  # 866 (tableau, r) pairs are met at n <= 8, whatever the m
def _step(tableau: Tableau, r: int) -> tuple[Runs, tuple[Tableau, ...]]:
    """The runs of one growth step and its children, the k-th inserted at run k."""
    runs = delta_runs(delta_bits(tableau, r))
    ks = range(len(runs[1]) + 1)
    return runs, tuple(insert_at_column(tableau, insertion_column(runs, k)) for k in ks)


def psi(tableau: Tableau, k: int, r: int) -> QRat:
    """Weight of the k-th insertion at threshold r (modified variant)."""
    return QRat.monomial(_weight(insertion_runs(tableau, r), k)[0])


def phi(tableau: Tableau, k: int, r: int) -> QRat:
    """Weight of the k-th insertion at threshold r (original variant): psi's with
    the power of q sum(a_i, i <= k), computed apart from the one the walk carries."""
    runs = insertion_runs(tableau, r)
    return QRat.monomial((sum(a for a, _ in runs[1][:k]), *_weight(runs, k)[0][1:]))


def thresholds(m: Hess) -> list[int]:
    """Threshold used at step i (growing entry i), for i = 1..n."""
    n = len(m)
    return [n - m[n - i] for i in range(1, n + 1)]


def _grow(m: Hess, records: list[dict] | None = None) -> Table:
    """Run the growth process for m, which grows one tree for both weight
    variants; optionally record every insertion."""
    states: Table = {(): ((0,) * (MAX_N + 1), 0)}
    for step, r in enumerate(thresholds(m), start=1):
        new: Table = {}
        for tab, (value, power) in states.items():
            runs, children = _step(tab, r)
            for k, child in enumerate(children):
                weight, original = _weight(runs, k)
                # a child's one parent is itself less its largest entry; the column grows with k
                contrib = tuple(map(add, value, weight))
                new[child] = contrib, power + original
                if records is not None:
                    records.append(dict(step=step, r=r, k=k, parent=tab, child=child,
                                        weight=QRat.monomial(weight), p=QRat.monomial(contrib)))
        states = new
    return states


_table = per_m(1)(_grow)  # called with m alone: the walk without records


def p_table(m: Hess) -> dict[Tableau, QRat]:
    """Probability of every reachable standard tableau of size n under m."""
    return {t: QRat.monomial(v) for t, (v, _) in _table(m).items()}


def probability_sum(m: Hess) -> QRat:
    """The sum of the probabilities of every reachable standard tableau of size n."""
    total, low = _sum([v for v, _ in _table(m).values()])
    return QRat.monomial(low) * total


def check_area_relation(m: Hess) -> bool:
    """The modified probability is the original one times q to the power
    area(m) - sum of binomial(lam_j, 2) over the rows of the shape.  The two
    differ only in their power of q, so the powers of q are compared."""
    a = area(m)
    return all(
        vec[0] + sum(p * (p - 1) // 2 for p in shape_of(tab)) == power + a
        for tab, (vec, power) in _table(m).items()
    )


def _e_coeff(lam: Partition, k: int, vecs: list[Monomial]) -> QPoly:
    """The row q-factorials of lam times the summed probabilities, over [k]_q;
    a Phi_d left that does not divide raises NotDivisible."""
    total, low = _sum(vecs)
    for d in range(2, len(low)):
        low[d] += sum(part // d for part in lam) - (k % d == 0)
    up, down = split(low)
    if down:
        total = total.exact_div(cyclotomic_product(down))
    return total * cyclotomic_product(up)


def c_poly(m: Hess, lam: Partition, k: int) -> QPoly:
    """Product of row q-factorials times the probability mass of the tableaux
    of shape lam whose largest entry sits in column k: [k]_q times E_k's coefficient."""
    c = e_part(m, k).coeff(lam)
    return c * q_int(k) if c else c


def e_part(m: Hess, k: int) -> SymFun:
    """E_k, the refinement by the column k of the largest entry; zero for k outside [1, n]."""
    parts = _e_parts(m)  # m is gated, also for a k outside [1, n]
    return parts[k - 1] if 1 <= k <= len(m) else SymFun.zero(len(m))


@per_m(None)
def _e_parts(m: Hess) -> tuple[SymFun, ...]:
    """e_part(m, k) for k = 1, ..., n, each group of the table summed once."""
    n = len(m)
    groups: dict[tuple[Partition, int], list[Monomial]] = {}
    for tab, (vec, _) in _table(m).items():
        groups.setdefault((shape_of(tab), entry_column(tab, n)), []).append(vec)
    coeffs: list[dict[Partition, QPoly]] = [{} for _ in range(n)]
    for (lam, k), vecs in groups.items():
        coeffs[k - 1][lam] = _e_coeff(lam, k, vecs)
    return tuple(SymFun(n, "e", c) for c in coeffs)


def e_total(m: Hess) -> SymFun:
    """Sum of the refinements over all columns k."""
    return combination(len(m), ((1, part) for part in _e_parts(m)))


def x_from_table(m: Hess) -> SymFun:
    """X from the probability table: the sum over k of [k]_q times ``e_part(m, k)``."""
    return combination(len(m), ((q_int(k), part) for k, part in enumerate(_e_parts(m), 1)))


def trace(m: Hess) -> list[dict]:
    """Growth tree records for display: one per (parent, child) insertion."""
    records: list[dict] = []
    _grow(check_hess(m), records)
    return records
