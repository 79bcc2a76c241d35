"""Basis conversions, products, and the omega involution."""

import random

import pytest

from chromsym.coloring import x_colorings
from chromsym.errors import DegreeMismatch
from chromsym.gfunctions import g_total, gfun, x_cycle_sum
from chromsym.hessenberg import area, enumerate_hess
from chromsym.modular import enumerate_triples, evaluate, law_defect, reduce_to_paths
from chromsym.partitions import partitions
from chromsym.qpoly import ONE, Q, ZERO, QPoly, QRat, q_int
from chromsym.ptableaux import s_fun, x_schur
from chromsym.symfunc import SymFun, combination, h_to_e, omega
from chromsym.transition import e_total, x_from_table


def random_symfun(degree, rng, basis="e"):
    coeffs = {
        lam: QPoly((rng.randint(-3, 3), rng.randint(-2, 2)))
        for lam in partitions(degree)
        if rng.random() < 0.7
    }
    return SymFun(degree, basis, coeffs)


def test_to_schur_examples():
    assert SymFun.e_term((2,)).to_s() == SymFun.s_term((1, 1))
    assert SymFun.e_term((1, 1)).to_s() == SymFun.s_term((2,)) + SymFun.s_term((1, 1))
    assert SymFun.zero(3).to_s().is_zero()


def test_schur_to_e_examples():
    assert SymFun.s_term((1, 1)).to_e() == SymFun.e_term((2,))
    assert SymFun.s_term((2,)).to_e() == SymFun.e_term((1, 1)) - SymFun.e_term((2,))
    for n in range(1, 6):
        assert SymFun.s_term((1,) * n).to_e() == SymFun.e_term((n,))


def test_h_to_e_examples():
    assert h_to_e(0) == SymFun.one()
    assert h_to_e(1) == SymFun.e_term((1,))
    assert h_to_e(2) == SymFun.e_term((1, 1)) - SymFun.e_term((2,))


def test_omega_examples():
    e1 = SymFun.e_term((1,))
    assert omega(e1) == e1
    assert omega(SymFun.e_term((2,))) == SymFun.e_term((1, 1)) - SymFun.e_term((2,))


def test_omega_involution_and_ring_map():
    rng = random.Random(7)
    for _ in range(10):
        f = random_symfun(rng.randint(1, 5), rng)
        assert omega(omega(f)) == f
    for _ in range(6):
        f = random_symfun(rng.randint(1, 3), rng)
        g = random_symfun(rng.randint(1, 3), rng)
        assert omega(f * g) == omega(f) * omega(g)


def test_mul_examples():
    assert SymFun.e_term((2,)) * SymFun.e_term((2, 1)) == SymFun.e_term((2, 2, 1))
    f = SymFun.e_term((2, 1), Q)
    assert f * SymFun.one() == f
    e1 = SymFun.e_term((1,))
    assert (e1 * e1).to_s() == SymFun.s_term((2,)) + SymFun.s_term((1, 1))


def test_mul_commutative_associative():
    rng = random.Random(11)
    for _ in range(8):
        f = random_symfun(rng.randint(1, 2), rng)
        g = random_symfun(rng.randint(1, 2), rng)
        h = random_symfun(rng.randint(1, 2), rng)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


def test_to_monomial_examples():
    assert SymFun.e_term((2,)).to_m() == SymFun.term("m", (1, 1))
    assert SymFun.s_term((2,)).to_m() == SymFun.term("m", (2,)) + SymFun.term("m", (1, 1))
    assert SymFun.e_term((1,)).to_m() == SymFun.term("m", (1,))


def test_round_trips_all_basis_elements():
    for n in range(0, 7):
        for lam in partitions(n):
            e = SymFun.e_term(lam)
            assert e.to_s().to_e() == e
            s = SymFun.s_term(lam)
            assert s.to_e().to_s() == s
            m = SymFun.term("m", lam)
            assert m.to_e().to_m() == m


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_integer_inverse_matrices_up_to_the_cap():
    from chromsym.symfunc import _e_to_s_matrix, _m_to_e_matrix, _s_to_e_matrix, _s_to_m_matrix

    for n in range(0, 9):
        size = len(partitions(n))
        identity = [[int(i == j) for j in range(size)] for i in range(size)]
        e2s, s2e = _e_to_s_matrix(n)[1], _s_to_e_matrix(n)[1]
        e2m = _product(_s_to_m_matrix(n)[1], e2s)
        m2e = _m_to_e_matrix(n)[1]
        for matrix in (s2e, m2e):
            assert all(type(x) is int for row in matrix for x in row), n
        assert _product(s2e, e2s) == identity, n
        assert _product(e2m, m2e) == identity, n


def test_degree_mismatch_rejected():
    with pytest.raises(DegreeMismatch):
        SymFun.e_term((2,)) + SymFun.e_term((1,))
    with pytest.raises(DegreeMismatch):
        SymFun(2, "e", {(1,): QRat(1)})


def test_combination_matches_the_fold_of_scaled_and_add():
    rng = random.Random(5)
    scalars = (0, 1, -2, ZERO, Q, QPoly((1, -1, 2)))
    for n in range(0, 6):
        for _ in range(6):
            terms = [
                (rng.choice(scalars), random_symfun(n, rng, rng.choice("esm")))
                for _ in range(rng.randint(1, 4))
            ]
            fold, want = SymFun.zero(n), {}
            for c, f in terms:
                fold = fold + f.scaled(c)
                for lam, v in f.to_e().coeffs.items():
                    want[lam] = want.get(lam, ZERO) + v * c
            got = combination(n, terms)
            assert got.basis == "e" and got == fold, terms
            # `+` sums through combination too, so the reference is QPoly arithmetic
            assert dict(got.coeffs) == {lam: v for lam, v in want.items() if v}, terms
        assert combination(n, []) == SymFun.zero(n)


def test_combination_refuses_a_term_of_another_degree():
    e2 = SymFun.e_term((2,))
    for term in ((1, SymFun.e_term((1,))), (0, SymFun.e_term((3,))), (Q, SymFun.zero(3))):
        with pytest.raises(DegreeMismatch):
            combination(2, [(1, e2), term])
    with pytest.raises(TypeError):
        combination(2, [(QRat(ONE, q_int(2)), e2)])


def test_law_defect_refuses_values_of_mixed_degree():
    triple = enumerate_triples(3, "I")[0]
    with pytest.raises(DegreeMismatch):
        law_defect(lambda m: SymFun.zero(area(m)), triple)


def test_e_positivity_predicate():
    assert SymFun.e_term((2, 1), QPoly((1, 1))).is_e_positive_at_one()
    s2 = SymFun.s_term((2,))
    assert not s2.is_e_positive_at_one()


def test_json_shape():
    f = SymFun.e_term((2, 1), Q) + SymFun.e_term((3,))
    data = f.to_json()
    assert data["degree"] == 3 and data["basis"] == "e"
    assert data["coeffs"][0]["partition"] == [3]
    assert data["coeffs"][1] == {"partition": [2, 1], "num": ["0", "1"], "den": ["1"]}


def test_cached_symfuns_are_read_only():
    m = (2, 3, 3)
    for engine in (e_total, x_from_table, x_colorings, s_fun, x_schur):
        want = dict(engine(m).coeffs)
        with pytest.raises(AttributeError):
            engine(m).coeffs.clear()
        with pytest.raises(TypeError):
            engine(m).coeffs[(3,)] = QRat(0)
        assert want and engine(m).coeffs == want, engine.__name__


def _elementwise(f, matrix):
    """A basis change as one QPoly product and sum per nonzero matrix entry."""
    basis_list, rows = matrix
    out = {}
    for lam, row in zip(basis_list, rows):
        total = QPoly()
        for mu, a in zip(basis_list, row):
            if a:
                total = total + f.coeff(mu) * a
        if not total.is_zero():
            out[lam] = total
    return out


def test_basis_changes_match_elementwise_sums():
    from chromsym.symfunc import _m_to_e_matrix, _s_to_e_matrix

    rng = random.Random(11)
    for n in range(0, 7):
        for _ in range(3):
            for basis, matrix in (("s", _s_to_e_matrix(n)), ("m", _m_to_e_matrix(n))):
                f = random_symfun(n, rng, basis)
                assert dict(f.to_e().coeffs) == _elementwise(f, matrix), (n, f)
            for basis in "esm":
                f = random_symfun(n, rng, basis)
                for via in "esm":
                    assert dict(f.in_basis(via).in_basis(basis).coeffs) == dict(f.coeffs), (via, f)


def test_rational_coefficients_are_refused():
    half = QRat(ONE, q_int(2))
    with pytest.raises(TypeError):
        SymFun(1, "e", {(1,): half})
    with pytest.raises(TypeError):
        SymFun.e_term((1,)).scaled(half)
    with pytest.raises(TypeError):
        half * SymFun.e_term((1,))
    with pytest.raises(TypeError):
        SymFun(1, "e", {(1,): QRat(1)})


def test_every_engine_result_has_polynomial_coefficients():
    engines = (
        e_total, g_total, s_fun, x_schur, x_colorings, x_from_table, x_cycle_sum,
        lambda m: evaluate(reduce_to_paths(m), "E"),
    )
    for n in range(1, 5):
        for m in enumerate_hess(n):
            values = [engine(m) for engine in engines] + [gfun(m, k) for k in range(n)]
            for f in values:
                for g in (f, f.to_e(), f.to_s(), f.to_m()):
                    assert all(type(c) is QPoly for c in g.coeffs.values()), (m, g)
