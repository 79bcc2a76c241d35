"""P-tableaux, P-arrays, signed sums, and the path peel bijection."""

from collections import defaultdict
from itertools import combinations, permutations

import pytest

from chromsym.coloring import x_colorings
from chromsym.errors import InvalidFilling, IsBaseTableau
from chromsym.hessenberg import enumerate_hess, hsum, path
from chromsym.partitions import partitions, vertical_strips
from chromsym.ptableaux import (
    base_column,
    corner_path_poly,
    enumerate_pa,
    enumerate_pt,
    inv_filling,
    path_peel,
    path_unpeel,
    pt_poly,
    s_fun,
    signed_pa_sum,
    w_shift,
    x_schur,
)
from chromsym.qpoly import ONE, QPoly, q_int
from chromsym.symfunc import SymFun


def test_inv_examples():
    m = (2, 4, 4, 5, 5)
    rows = ((1, 5), (3,), (4,), (2,))
    assert inv_filling(m, rows) == 3
    assert inv_filling(path(4), base_column(4)) == 0
    assert inv_filling((1, 2, 3), ((2,), (1,), (3,))) == 0
    with pytest.raises(InvalidFilling):
        inv_filling(m, ((1, 1), (2,)))


def test_enumerate_pt_examples():
    assert enumerate_pt((2, 2), (2,), corner1=True) == ()
    col = enumerate_pt((2, 2), (1, 1), corner1=True)
    assert col == (((1,), (2,)),)
    chain = tuple(range(1, 6))
    assert enumerate_pt(chain, (5,), corner1=True) == (((1, 2, 3, 4, 5),),)
    # no (1,1) cell means no primed fillings
    assert enumerate_pt((2, 2), (1, 1), inner=(1,), corner1=True) == ()


def test_s_fun_examples():
    assert s_fun((2, 2)) == SymFun.s_term((1, 1))
    assert s_fun((1,)) == SymFun.s_term((1,))
    assert x_schur((2, 2)) == SymFun.s_term((1, 1), q_int(2))


def test_x_schur_matches_oracle():
    for n in range(1, 6):
        for m in enumerate_hess(n):
            assert x_schur(m) == x_colorings(m).to_s(), m


def test_w_shift():
    assert w_shift((3, 1), (0, 1)) == (3, 1)
    assert w_shift((3, 1), (1, 0)) == (0, 4)


def test_pa_conventions():
    m = path(3)
    assert enumerate_pa(m, (0, 3), corner1=True) == ()
    some = enumerate_pa(m, (0, 2))
    assert some and all(rows[0] == () for rows in some)
    # injective but not surjective labelings are allowed
    assert len(enumerate_pa(m, (1,))) == 3


def test_signed_sums_match_tableau_polynomials():
    for n in range(1, 5):
        for m in enumerate_hess(n):
            for lam in partitions(n):
                assert signed_pa_sum(m, lam, corner1=True) == pt_poly(m, lam, corner1=True)
                assert signed_pa_sum(m, lam, corner1=False) == pt_poly(m, lam)


def test_swap_lemma_grouping():
    for n in range(1, 6):
        for m in enumerate_hess(n):
            for a in range(0, n + 1):
                for b in range(0, n + 1 - a):

                    def grouped(shape):
                        out = defaultdict(QPoly)
                        for rows in enumerate_pa(m, shape):
                            key = frozenset(x for row in rows for x in row)
                            out[key] = out[key] + ONE.shifted(inv_filling(m, rows))
                        return dict(out)

                    assert grouped((a, b)) == grouped((b, a)), (m, a, b)


def test_skew_multiplicativity():
    def contains(lam, mu):
        return len(mu) <= len(lam) and all(lam[i] >= mu[i] for i in range(len(mu)))

    for musize in range(0, 3):
        for mu in partitions(musize):
            for n in range(1, 5):
                for m in enumerate_hess(n):
                    total = SymFun.zero(n + musize, "s")
                    for lam in partitions(n + musize):
                        if not contains(lam, mu):
                            continue
                        poly = pt_poly(m, lam, inner=mu)
                        if not poly.is_zero():
                            total = total + SymFun.s_term(lam, poly)
                    want = (SymFun.s_term(mu) if musize else SymFun.one()) * x_schur(m)
                    assert total == want, (mu, m)


def test_s_multiplicativity():
    for n1 in range(1, 4):
        for n2 in range(1, 5 - n1):
            for m1 in enumerate_hess(n1):
                for m2 in enumerate_hess(n2):
                    m = hsum(m1, m2)
                    assert s_fun(m) == s_fun(m1) * x_schur(m2), (m1, m2)


def test_path_recursion():
    for n in range(1, 8):
        for lam in partitions(n):
            lhs = corner_path_poly(lam)
            rhs = QPoly((1,)) if set(lam) == {1} else QPoly()
            for mu in vertical_strips(lam):
                if mu == lam:
                    continue
                rhs = rhs + (q_int(n - sum(mu)) - ONE) * corner_path_poly(mu)
            assert lhs == rhs, lam


def test_peel_paper_examples():
    t1 = ((1, 4, 7, 12, 18), (3, 5, 10, 14, 17), (2, 9, 13), (6, 8, 16), (11, 15, 19), (20,), (21,))
    t2 = ((1, 4, 7, 12, 18), (3, 5, 10, 14, 17), (2, 9, 15), (6, 8, 16), (11, 13, 19), (20,), (21,))
    s1, j1 = path_peel(t1)
    s2, j2 = path_peel(t2)
    assert j1 == 3 and j2 == 2
    # both strips remove entries 16..21, leaving 15 cells
    assert sum(len(r) for r in s1) == 15
    assert path_unpeel(s1, j1, (5, 5, 3, 3, 3, 1, 1)) == t1
    assert path_unpeel(s2, j2, (5, 5, 3, 3, 3, 1, 1)) == t2


def test_peel_smallest_case():
    tabs = enumerate_pt(path(3), (2, 1), corner1=True)
    assert tabs == (((1, 3), (2,)),)
    stripped, j = path_peel(tabs[0])
    assert stripped == ((1,),) and j == 1
    assert path_unpeel(stripped, j, (2, 1)) == tabs[0]


def test_peel_base_tableau_rejected():
    with pytest.raises(IsBaseTableau):
        path_peel(base_column(4))


def test_unpeel_is_a_two_sided_inverse():
    # peel(unpeel(T', j)) = (T', j) over every admissible pair, and the
    # unpeel images exhaust the non-base tableaux of the outer shape
    for n in range(1, 7):
        m = path(n)
        for lam in partitions(n):
            targets = {
                rows
                for rows in enumerate_pt(m, lam, corner1=True)
                if rows != base_column(n)
            }
            images = set()
            for musize in range(1, n):
                for mu in partitions(musize):
                    padded = mu + (0,) * (len(lam) - len(mu))
                    if len(mu) > len(lam):
                        continue
                    diffs = [lam[i] - padded[i] for i in range(len(lam))]
                    if any(d not in (0, 1) for d in diffs) or sum(diffs) == 0:
                        continue
                    strip = n - musize
                    for rows in enumerate_pt(path(musize), mu, corner1=True):
                        for j in range(1, strip):
                            grown = path_unpeel(rows, j, lam)
                            assert path_peel(grown) == (rows, j), (rows, j, lam)
                            images.add(grown)
            assert images == targets, lam


def test_peel_round_trip_exhaustive():
    for n in range(1, 8):
        m = path(n)
        for lam in partitions(n):
            for rows in enumerate_pt(m, lam, corner1=True):
                if rows == base_column(n):
                    continue
                stripped, j = path_peel(rows)
                mu = tuple(len(r) for r in stripped)
                assert 1 <= j <= (n - sum(mu)) - 1
                assert path_unpeel(stripped, j, lam) == rows
                assert inv_filling(m, rows) == inv_filling(path(sum(mu)), stripped) + j


def _inv_sum(m, fillings):
    return sum((ONE.shifted(inv_filling(m, rows)) for rows in fillings), QPoly())


def _contains(lam, mu):
    return len(mu) <= len(lam) and all(a <= b for a, b in zip(mu, lam))


def test_pt_poly_matches_scored_fillings():
    for n in range(1, 6):
        for m in enumerate_hess(n):
            shapes = [(lam, ()) for size in (n - 1, n) for lam in partitions(size)]
            shapes += [
                (lam, mu)
                for j in (1, 2)
                for lam in partitions(n + j)
                for mu in partitions(j)
                if _contains(lam, mu)
            ]
            for outer, inner in shapes:
                for corner1 in (False, True):
                    expected = _inv_sum(m, enumerate_pt(m, outer, inner, corner1))
                    assert pt_poly(m, outer, inner, corner1) == expected, (m, outer, inner)


def test_signed_pa_sum_matches_scored_arrays():
    for n in range(1, 6):
        for m in enumerate_hess(n):
            for lam in partitions(n):
                for corner1 in (False, True):
                    expected = QPoly()
                    for w in permutations(range(len(lam))):
                        shape = w_shift(lam, w)
                        if min(shape) < 0:
                            continue
                        inversions = sum(1 for a, b in permutations(range(len(w)), 2) if a < b and w[a] > w[b])
                        arrays = _inv_sum(m, enumerate_pa(m, shape, corner1))
                        expected = expected + (-1) ** inversions * arrays
                    assert signed_pa_sum(m, lam, corner1) == expected, (m, lam, corner1)


def _by_definition(m, rows, inner=(), tableau=True):
    """Fillings of a shape read off every injective placement of [n].

    Values go into the cells in row-major order; a placement is kept when
    each entry exceeds m of its left neighbour and, for tableaux, no entry is
    below the one above it in the poset (m(below) < above).
    """
    inner = tuple(inner) + (0,) * (len(rows) - len(inner))
    cells = [(i, j) for i, length in enumerate(rows) for j in range(inner[i], length)]
    index = {cell: k for k, cell in enumerate(cells)}
    beside = [(index[i, j - 1], k) for k, (i, j) in enumerate(cells) if (i, j - 1) in index]
    above = [(index[i - 1, j], k) for k, (i, j) in enumerate(cells) if tableau and (i - 1, j) in index]
    out = []
    for word in permutations(range(1, len(m) + 1), len(cells)):
        if all(word[b] > m[word[a] - 1] for a, b in beside) and not any(
            m[word[b] - 1] < word[a] for a, b in above
        ):
            letters = iter(word)
            out.append(tuple(tuple(next(letters) for _ in range(inner[i], length)) for i, length in enumerate(rows)))
    return out


def _primed(fillings):
    return [rows for rows in fillings if rows and rows[0][:1] == (1,)]


def test_kernel_matches_fillings_by_definition():
    for n in range(1, 6):
        for m in enumerate_hess(n):
            shapes = [(lam, ()) for size in (n - 1, n) for lam in partitions(size)]
            shapes += [
                (lam, mu)
                for j in (1, 2)
                for lam in partitions(n + j)
                for mu in partitions(j)
                if _contains(lam, mu)
            ]
            for outer, inner in shapes:
                every = _by_definition(m, outer, inner)
                for corner1, want in ((False, every), (True, _primed(every) if not inner else [])):
                    assert enumerate_pt(m, outer, inner, corner1) == tuple(want), (m, outer, inner)
                    assert pt_poly(m, outer, inner, corner1) == _inv_sum(m, want), (m, outer, inner)
            for lam in partitions(n):
                for corner1 in (False, True):
                    expected = QPoly()
                    for w in permutations(range(len(lam))):
                        shape = w_shift(lam, w)
                        if min(shape) < 0:
                            continue
                        arrays = _by_definition(m, shape, tableau=False)
                        arrays = _primed(arrays) if corner1 else arrays
                        assert enumerate_pa(m, shape, corner1) == tuple(arrays), (m, shape)
                        sign = (-1) ** sum(1 for a, b in combinations(w, 2) if a > b)
                        expected = expected + sign * _inv_sum(m, arrays)
                    assert signed_pa_sum(m, lam, corner1) == expected, (m, lam, corner1)


@pytest.mark.parametrize("outer, inner", [((1,), (2,)), ((2,), (1, 1)), ((1, 2), ()), ((2, 0), ())])
def test_shapes_that_are_not_skew_diagrams_are_refused(outer, inner):
    with pytest.raises(ValueError):
        pt_poly((2, 3, 3), outer, inner)
    with pytest.raises(ValueError):
        enumerate_pt((2, 3, 3), outer, inner)
    # P-arrays take any weak composition
    assert enumerate_pa((2, 3, 3), (1, 2)) == (((2,), (1, 3)),)
