"""Cycle-sum refinements: bounded permutations, weights, and closed forms."""

from collections import Counter

import pytest

from chromsym import gfunctions
from chromsym.coloring import x_colorings
from chromsym.errors import SizeLimitExceeded
from chromsym.gfunctions import (
    bounded_permutations,
    closed_g,
    cycle_sizes,
    cycle_word,
    g_cap,
    g_total,
    gfun,
    path_e_closed,
    path_x_closed,
    rho,
    wt,
    x_cycle_sum,
)
from chromsym.hessenberg import enumerate_hess, hsum, path, path_components
from chromsym.qpoly import ONE, Q, QPoly, QRat, q_int
from chromsym.symfunc import SymFun, h_to_e


def test_bounded_permutation_counts():
    assert list(bounded_permutations((1, 2, 3))) == [(1, 2, 3)]
    assert len(list(bounded_permutations((3, 3, 3)))) == 6
    ms = list(bounded_permutations((2, 3, 5, 5, 5)))
    assert len(ms) == 24
    assert all(all(s[i] <= m for i, m in enumerate((2, 3, 5, 5, 5))) for s in ms)


def test_cycle_word_example():
    assert cycle_word((4, 6, 2, 1, 5, 3)) == (1, 4, 2, 6, 3, 5)
    assert cycle_word((1, 2, 3, 4)) == (1, 2, 3, 4)
    assert cycle_sizes((4, 6, 2, 1, 5, 3)) == (2, 3, 1)


def test_wt_examples():
    assert wt((2, 3, 3), (1, 2, 3)) == 0
    assert wt((2, 2), (2, 1)) == 0
    assert wt((2, 2), (1, 2)) == 0
    # sigma = (3,1,2) has cycle word 1 3 2, putting 3 before 2 on the edge (2,3)
    assert cycle_word((3, 1, 2)) == (1, 3, 2)
    assert wt((3, 3, 3), (3, 1, 2)) == 1


def test_rho_values():
    assert rho(0) == SymFun.one()
    assert rho(1) == SymFun.e_term((1,))
    e11, e2 = SymFun.e_term((1, 1)), SymFun.e_term((2,))
    assert rho(2) == Q * (e11 - e2) - e2
    # defining recursion: [n]_q h_n = sum h_{n-i} rho_i
    for n in range(1, 6):
        rhs = SymFun.zero(n)
        for i in range(1, n + 1):
            rhs = rhs + h_to_e(n - i) * rho(i)
        assert q_int(n) * h_to_e(n) == rhs


def test_g_examples():
    assert gfun((1,), 0) == SymFun.one()
    assert gfun((2, 2), 0) == SymFun.one()
    assert gfun((2, 2), 1).is_zero()
    assert g_cap((2, 2), 2) == SymFun.e_term((2,))
    assert g_cap((2, 2), 1).is_zero()
    assert g_cap((1,), 1) == SymFun.e_term((1,))
    for k in (-1, 2):
        with pytest.raises(ValueError):
            gfun((2, 2), k)
    for k in (0, 3):
        with pytest.raises(ValueError):
            g_cap((2, 2), k)


def test_size_limit():
    m = path(9)
    for compute in (g_total, x_cycle_sum, lambda m: g_cap(m, 1), lambda m: gfun(m, 0)):
        with pytest.raises(SizeLimitExceeded):
            compute(m)


def test_x_cycle_sum_small():
    assert x_cycle_sum((2, 2)) == q_int(2) * SymFun.e_term((2,))
    for n in range(1, 6):
        for m in enumerate_hess(n):
            assert x_cycle_sum(m) == x_colorings(m).to_e(), m


def test_weighted_decomposition():
    for n in range(1, 6):
        for m in enumerate_hess(n):
            total = SymFun.zero(n)
            for k in range(1, n + 1):
                total = total + q_int(k) * g_cap(m, k)
            assert total == x_colorings(m).to_e(), m


def test_e_positivity_at_one_small():
    for n in range(1, 6):
        for m in enumerate_hess(n):
            for k in range(0, n):
                assert gfun(m, k).is_e_positive_at_one(), (m, k)


def test_multiplicativity():
    for n1 in range(1, 4):
        for n2 in range(1, 5 - n1):
            for m1 in enumerate_hess(n1):
                for m2 in enumerate_hess(n2):
                    m = hsum(m1, m2)
                    x2 = x_colorings(m2).to_e()
                    for k in range(1, n1 + 1):
                        assert g_cap(m, k) == g_cap(m1, k) * x2, (m1, m2, k)


def test_path_closed_form():
    for n in range(1, 9):
        m = path(n)
        for k in range(0, n):
            assert gfun(m, k) == closed_g(k), (n, k)
        assert path_x_closed(n) == sum(
            (q_int(k) * path_e_closed(n, k) for k in range(2, n + 1)),
            start=q_int(1) * path_e_closed(n, 1),
        )


def test_closed_form_fails_off_paths():
    # the composition formula is a path identity only; exhibit a counterexample
    witnesses = []
    for n in (3, 4):
        for m in enumerate_hess(n):
            if path_components(m) is not None:
                continue
            if any(gfun(m, k) != closed_g(k) for k in range(0, n)):
                witnesses.append(m)
    assert (3, 3, 3) in witnesses
    assert witnesses


def scored_stats(m):
    """The cycle statistics of m, scoring every bounded permutation separately."""
    counts = {}
    for sigma in bounded_permutations(m):
        sizes = cycle_sizes(sigma)
        key = (sizes[0], tuple(sorted(sizes[1:], reverse=True)))
        counts.setdefault(key, Counter())[wt(m, sigma)] += 1
    return {key: QPoly([c[w] for w in range(max(c) + 1)]) for key, c in counts.items()}


def test_cycle_stats_match_scored_permutations():
    for n in range(1, 7):
        for m in enumerate_hess(n):
            assert gfunctions._cycle_stats(m) == scored_stats(m), m


def test_accumulated_sums_match_symfun_folds():
    for n in range(1, 6):
        for m in enumerate_hess(n):
            stats = scored_stats(m)
            for k in range(n):
                expected = SymFun.zero(k)
                for (t1, rest), poly in stats.items():
                    if t1 >= n - k:
                        expected = expected + poly * gfunctions._term(t1 - n + k, rest)
                assert gfun(m, k) == expected, (m, k)
            expected = SymFun.zero(n)
            for (t1, rest), poly in stats.items():
                expected = expected + poly * gfunctions._omega_rho_product((t1,) + rest)
            assert x_cycle_sum(m) == expected, m


def test_non_polynomial_term_is_refused(monkeypatch):
    # coefficients lie in Z[q], so SymFun refuses a term scaled by 1 / (1 + q)
    original = gfunctions._term
    monkeypatch.setattr(
        gfunctions, "_term", lambda d, rest: original(d, rest).scaled(QRat(ONE, q_int(2)))
    )
    gfunctions._gfuns.cache_clear()
    with pytest.raises(TypeError, match="QRat"):
        gfun((2, 3, 3), 1)
