"""Basis conversions at the edges, products, and the omega involution."""

import json
import random
from itertools import product

import pytest

from chromsym import symfunc
from chromsym.cli import _print_symfun
from chromsym.coloring import x_colorings
from chromsym.errors import DegreeMismatch
from chromsym.gfunctions import _omega_rho_product, g_total, gfun, x_cycle_sum
from chromsym.hessenberg import area, enumerate_hess
from chromsym.modular import enumerate_triples, evaluate, law_defect, reduce_to_paths
from chromsym.partitions import partitions
from chromsym.qpoly import ONE, Q, ZERO, QPoly, QRat, q_int
from chromsym.ptableaux import s_fun, x_schur
from chromsym.symfunc import SymFun, combination, h_to_e, omega
from chromsym.transition import e_total, x_from_table


def random_coeffs(degree, rng):
    """Random coordinates over the partitions of degree, some of them zero."""
    return {
        lam: QPoly((rng.randint(-3, 3), rng.randint(-2, 2)))
        for lam in partitions(degree)
        if rng.random() < 0.7
    }


def random_symfun(degree, rng, basis="e"):
    return SymFun(degree, basis, random_coeffs(degree, rng))


def nonzero(coeffs):
    return {lam: c for lam, c in coeffs.items() if not c.is_zero()}


def test_to_schur_examples():
    assert SymFun.e_term((2,)).in_basis("s") == {(1, 1): ONE}
    assert SymFun.e_term((1, 1)).in_basis("s") == {(2,): ONE, (1, 1): ONE}
    assert SymFun.zero(3).in_basis("s") == {}


def test_schur_to_e_examples():
    assert SymFun.term("s", (1, 1)) == SymFun.e_term((2,))
    assert SymFun.term("s", (2,)) == SymFun.e_term((1, 1)) - SymFun.e_term((2,))
    for n in range(1, 6):
        assert SymFun.term("s", (1,) * n) == SymFun.e_term((n,))


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
    assert (e1 * e1).in_basis("s") == {(2,): ONE, (1, 1): ONE}


def test_mul_commutative_associative():
    rng = random.Random(11)
    for _ in range(8):
        f = random_symfun(rng.randint(1, 2), rng)
        g = random_symfun(rng.randint(1, 2), rng)
        h = random_symfun(rng.randint(1, 2), rng)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


def _by_pairs(f, g):
    """f * g by definition: each pair of terms adds its product at the union of its keys."""
    out = {}
    for lam, c in f.coeffs.items():
        for mu, d in g.coeffs.items():
            key = tuple(sorted(lam + mu, reverse=True))
            out[key] = out.get(key, ZERO) + c * d
    return SymFun(f.degree + g.degree, "e", out)


def test_a_unit_monomial_relabels_the_other_factor(monkeypatch):
    # e_mu times f, either way round, moves f's coefficients to new keys and multiplies
    # no polynomials; a coefficient other than 1, or a second term, takes the general path
    others = [h_to_e(d) for d in range(6)]
    others += [_omega_rho_product(lam) for d in range(6) for lam in partitions(d)]
    units = [SymFun.e_term(mu) for d in range(4) for mu in partitions(d)]
    general = [e.scaled(c) for e in units for c in (2, -1, Q)]
    general += [e + SymFun.e_term((e.degree,)) for e in units if e.degree > 1]
    calls = []
    add_product = symfunc._add_product
    monkeypatch.setattr(symfunc, "_add_product", lambda *args: calls.append(add_product(*args)))
    for f in others:
        for e in units:
            (mu,) = e.coeffs
            shared = {tuple(sorted(lam + mu, reverse=True)): c for lam, c in f.coeffs.items()}
            calls.clear()
            for product in (e * f, f * e):
                assert product == _by_pairs(e, f) and not calls
            assert all((e * f).coeffs[key] is c for key, c in shared.items())
        for e in general if [*f.coeffs.values()] != [ONE] else ():
            for a, b in ((e, f), (f, e)):
                calls.clear()
                assert a * b == _by_pairs(e, f) and calls


def test_to_monomial_examples():
    assert SymFun.e_term((2,)).in_basis("m") == {(1, 1): ONE}
    assert SymFun.term("s", (2,)).in_basis("m") == {(2,): ONE, (1, 1): ONE}
    assert SymFun.e_term((1,)).in_basis("m") == {(1,): ONE}


def test_round_trips_all_basis_elements():
    for n in range(0, 7):
        for lam in partitions(n):
            for basis in "esm":
                assert SymFun.term(basis, lam).in_basis(basis) == {lam: ONE}, (basis, lam)


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


def test_keys_that_are_not_partitions_are_refused():
    # each key sums to the degree, so a test of the sum alone let them in:
    # an s or m key was silently dropped, an e key kept unsorted
    for basis in "esm":
        for key in ((1, 2), (3, 0), (2, 0, 1), (0, 3)):
            with pytest.raises(DegreeMismatch, match="is not a partition of 3"):
                SymFun(3, basis, {key: 1})
        assert SymFun(3, basis, {(2, 1): 1}) == SymFun.term(basis, (1, 2))
    with pytest.raises(DegreeMismatch):
        SymFun.term("e", (2, 0, 1))
    assert SymFun.term("e", ()) == SymFun.one()


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
                for lam, v in f.coeffs.items():
                    want[lam] = want.get(lam, ZERO) + v * c
            got = combination(n, terms)
            assert got == fold, terms
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
    s2 = SymFun.term("s", (2,))
    assert not s2.is_e_positive_at_one()


def test_json_shape(capsys):
    f = SymFun.e_term((2, 1), Q) + SymFun.e_term((3,))
    _print_symfun(f, "e", True, False, None)
    data = json.loads(capsys.readouterr().out)
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


def _elementwise(coeffs, matrix):
    """A basis change as one QPoly product and sum per nonzero matrix entry."""
    basis_list, rows, _ = matrix
    out = {}
    for lam, row in zip(basis_list, rows):
        total = QPoly()
        for mu, a in zip(basis_list, row):
            if a:
                total = total + coeffs.get(mu, ZERO) * a
        if not total.is_zero():
            out[lam] = total
    return out


def test_basis_changes_match_elementwise_sums():
    from chromsym.symfunc import _e_to_s_matrix, _m_to_e_matrix, _s_to_e_matrix, _s_to_m_matrix

    rng = random.Random(11)
    for n in range(0, 7):
        for _ in range(3):
            for basis, matrix in (("s", _s_to_e_matrix(n)), ("m", _m_to_e_matrix(n))):
                coeffs = random_coeffs(n, rng)
                assert SymFun(n, basis, coeffs).coeffs == _elementwise(coeffs, matrix), (n, coeffs)
            f = random_symfun(n, rng)
            assert f.in_basis("s") == _elementwise(f.coeffs, _e_to_s_matrix(n)), (n, f)
            for basis in "esm":
                coeffs = random_coeffs(n, rng)
                f = SymFun(n, basis, coeffs)
                for via in "esm":
                    back = SymFun(n, via, f.in_basis(via))
                    assert back.in_basis(basis) == nonzero(coeffs), (via, basis, coeffs)
    # degree 10, at magnitudes on both sides of the bounds of one, two and three 64-bit limbs
    wide = lambda size: QPoly([rng.choice((-1, 1)) * size + rng.randint(-9, 9) for _ in range(11)])
    for n, size, (basis, matrix) in product(
        range(0, 7), (1, 2**33, 2**40, 2**64, 2**100, 10**30), (("s", _s_to_e_matrix), ("m", _m_to_e_matrix))
    ):
        coeffs = {lam: wide(size) for lam in partitions(n) if rng.random() < 0.7}
        f = SymFun(n, basis, coeffs)
        assert f.coeffs == _elementwise(coeffs, matrix(n)), (n, coeffs)
        schur = _elementwise(f.coeffs, _e_to_s_matrix(n))
        assert f.in_basis("s") == schur and f.in_basis(basis) == nonzero(coeffs), (n, coeffs)
        assert f.in_basis("m") == _elementwise(schur, _s_to_m_matrix(n)), (n, coeffs)


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
    # engine results are built without the public constructors' checks, so
    # check here the canonical form those would give: int coefficients, the
    # last one nonzero, and no zero entry
    for n in range(1, 7):
        for m in enumerate_hess(n):
            values = [engine(m) for engine in engines] + [gfun(m, k) for k in range(n)]
            for f in values:
                for basis in "esm":
                    for c in f.in_basis(basis).values():
                        assert type(c) is QPoly and c.coeffs and c.coeffs[-1], (m, basis)
                        assert all(type(x) is int for x in c.coeffs), (m, basis)
