"""P-tableaux of straight shape, and the path peel bijection."""

from itertools import permutations

import pytest

from chromsym import ptableaux
from chromsym.coloring import x_colorings
from chromsym.errors import InvalidFilling, IsBaseTableau, SizeLimitExceeded
from chromsym.hessenberg import enumerate_hess, hsum, path
from chromsym.orientations import hook_theta_counts
from chromsym.partitions import partitions, vertical_strips
from chromsym.ptableaux import (
    base_column,
    corner_path_poly,
    enumerate_pt,
    inv_filling,
    path_peel,
    path_unpeel,
    pt_masks,
    pt_poly,
    s_fun,
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


def test_every_entry_point_refuses_n_above_the_limit():
    # each entry point checks the length of m before any search, so none runs at n = 9
    m = path(9)
    for compute in (
        lambda: enumerate_pt(m, (5, 4)),
        lambda: pt_poly(m, (5, 4)),
        lambda: pt_masks(m, (5, 4)),
        lambda: s_fun(m),
        lambda: x_schur(m),
        lambda: hook_theta_counts(m, 3),
        lambda: corner_path_poly((5, 4)),
    ):
        with pytest.raises(SizeLimitExceeded):
            compute()


def test_enumerate_pt_examples():
    assert enumerate_pt((2, 2), (2,), corner1=True) == ()
    col = enumerate_pt((2, 2), (1, 1), corner1=True)
    assert col == (((1,), (2,)),)
    chain = tuple(range(1, 6))
    assert enumerate_pt(chain, (5,), corner1=True) == (((1, 2, 3, 4, 5),),)
    # the empty shape has one filling, and no cell for the primed entry 1
    assert enumerate_pt((2, 2), ()) == ((),)
    assert enumerate_pt((2, 2), (), corner1=True) == ()


def test_s_fun_examples():
    assert s_fun((2, 2)) == SymFun.term("s", (1, 1))
    assert s_fun((1,)) == SymFun.term("s", (1,))
    assert x_schur((2, 2)) == SymFun.term("s", (1, 1), q_int(2))


def test_x_schur_matches_oracle():
    for n in range(1, 6):
        for m in enumerate_hess(n):
            assert x_schur(m).in_basis("s") == x_colorings(m).in_basis("s"), m


def test_schur_coordinates_are_the_p_tableau_polynomials():
    # S and X are stored in the e basis; reading them back in s recovers each shape's count
    for n in range(1, 7):
        for m in enumerate_hess(n):
            for f, corner1 in ((s_fun(m), True), (x_schur(m), False)):
                want = {lam: pt_poly(m, lam, corner1=corner1) for lam in partitions(n)}
                assert f.in_basis("s") == {lam: c for lam, c in want.items() if not c.is_zero()}, m


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


def test_unpeel_refuses_j_outside_the_strip():
    # the strip of the first paper example has 6 cells, so j runs over 1..5
    t1 = ((1, 4, 7, 12, 18), (3, 5, 10, 14, 17), (2, 9, 13), (6, 8, 16), (11, 15, 19), (20,), (21,))
    outer = (5, 5, 3, 3, 3, 1, 1)
    s1, _ = path_peel(t1)
    for j in (0, 6):
        with pytest.raises(ValueError):
            path_unpeel(s1, j, outer)
    for j in (1, 5):
        assert path_peel(path_unpeel(s1, j, outer)) == (s1, j)


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


def test_pt_poly_matches_scored_fillings():
    # n <= 6: shapes of n cells count their last cell in its parent, shapes of n - 1 do not
    for n in range(1, 7):
        for m in enumerate_hess(n):
            shapes = [lam for size in (n - 1, n) for lam in partitions(size)]
            for lam in shapes:
                for corner1 in (False, True):
                    expected = _inv_sum(m, enumerate_pt(m, lam, corner1))
                    assert pt_poly(m, lam, corner1) == expected, (m, lam)


def _by_definition(m, rows):
    """Tableaux of a shape read off every injective placement of [n].

    Values go into the cells in row-major order; a placement is kept when
    each entry exceeds m of its left neighbour and no entry is below the one
    above it in the poset (m(below) < above).
    """
    cells = [(i, j) for i, length in enumerate(rows) for j in range(length)]
    index = {cell: k for k, cell in enumerate(cells)}
    beside = [(index[i, j - 1], k) for k, (i, j) in enumerate(cells) if j]
    above = [(index[i - 1, j], k) for k, (i, j) in enumerate(cells) if i]
    out = []
    for word in permutations(range(1, len(m) + 1), len(cells)):
        if all(word[b] > m[word[a] - 1] for a, b in beside) and not any(
            m[word[b] - 1] < word[a] for a, b in above
        ):
            letters = iter(word)
            out.append(tuple(tuple(next(letters) for _ in range(length)) for length in rows))
    return out


def _primed(fillings):
    return [rows for rows in fillings if rows and rows[0][:1] == (1,)]


def test_kernel_matches_fillings_by_definition():
    for n in range(1, 6):
        for m in enumerate_hess(n):
            shapes = [lam for size in (n - 1, n) for lam in partitions(size)]
            for lam in shapes:
                every = _by_definition(m, lam)
                for corner1, want in ((False, every), (True, _primed(every))):
                    assert enumerate_pt(m, lam, corner1) == tuple(want), (m, lam)
                    assert pt_poly(m, lam, corner1) == _inv_sum(m, want), (m, lam)


def test_every_shape_the_bounds_skip_has_no_filling():
    # the bounds are checked against placements by definition, not against the kernel
    skipped = [
        (m, lam)
        for n in range(1, 7)
        for m in enumerate_hess(n)
        for lam in partitions(n)
        if not ptableaux._fillable(m, lam)
    ]
    assert len(skipped) == 840
    assert all(_by_definition(m, lam) == [] for m, lam in skipped)


def test_schur_sums_search_only_the_shapes_the_bounds_keep(monkeypatch):
    # 996 of the 1,836 (m, lam) with lam a partition of n <= 6 pass both bounds;
    # pt_poly, shape by shape, skips the same 840
    searched = []
    kernel = ptableaux._kernel

    def counted(m, lam, *args):
        searched.append(lam)
        return kernel(m, lam, *args)

    def shape_by_shape(m):
        return [pt_poly(m, lam, corner1=True) for lam in partitions(len(m))]

    monkeypatch.setattr(ptableaux, "_kernel", counted)
    s_fun.cache_clear()
    for schur_sum in (s_fun, x_schur, shape_by_shape):
        searched.clear()
        for n in range(1, 7):
            for m in enumerate_hess(n):
                schur_sum(m)
        assert len(searched) == 996, schur_sum.__name__


@pytest.mark.parametrize("outer", [(1, 2), (2, 0)])
def test_shapes_that_are_not_partitions_are_refused(outer):
    with pytest.raises(ValueError):
        pt_poly((2, 3, 3), outer)
    with pytest.raises(ValueError):
        enumerate_pt((2, 3, 3), outer)
