"""Exact q-arithmetic: examples with hand-derived values plus algebraic laws."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chromsym.errors import NotCyclotomic, NotDivisible
from chromsym.modular import certificate_from_json
from chromsym.qpoly import ONE, Q, QPoly, QRat, cyclotomic, q_fact, q_int

small_ints = st.integers(min_value=-10, max_value=10)
polys = st.lists(small_ints, max_size=6).map(QPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def test_q_int_examples():
    assert q_int(0) == QPoly()
    assert q_int(1) == ONE
    assert q_int(3) == QPoly((1, 1, 1))


def test_q_fact_examples():
    assert q_fact(0) == ONE
    assert q_fact(2) == QPoly((1, 1))
    # multiplied out by hand: (1+q)(1+q+q^2)
    assert q_fact(3) == QPoly((1, 2, 2, 1))


def test_exact_div_examples():
    # long division: (1+q)(1+q^2) = [4]_q
    assert q_int(4).exact_div(q_int(2)) == QPoly((1, 0, 1))
    p = QPoly((3, 0, 7))
    assert p.exact_div(ONE) == p
    assert QPoly((2, 4)).exact_div(QPoly((-2,))) == QPoly((-1, -2))
    with pytest.raises(NotDivisible):
        q_int(3).exact_div(q_int(2))
    # 1 = 2 * (1/2) has no quotient with integer coefficients
    with pytest.raises(NotDivisible):
        ONE.exact_div(QPoly((2,)))


def test_rat_cancellation():
    r = QRat(Q, q_int(3))
    assert r * QRat(q_int(3)) == QRat(Q)


def test_zero_denominator_is_refused():
    with pytest.raises(ZeroDivisionError):
        QRat(ONE, QPoly())


def test_non_cyclotomic_denominators_are_refused():
    for den in (Q, Q - 2, QPoly((2,)), Q - 1, QPoly((2, 2)), q_int(3) * (Q - 2)):
        with pytest.raises(NotCyclotomic):
            QRat(ONE, den)


def test_non_integer_coefficients_are_refused():
    for c in (Fraction(1, 2), Fraction(2), 0.5):
        with pytest.raises(TypeError):
            QPoly((c,))
    with pytest.raises(TypeError):
        QRat(Fraction(1, 2))
    for data in (["1/2"], ["0.5"], [1.5]):
        with pytest.raises(ValueError):
            QPoly.from_json(data)


def test_certificate_with_a_non_cyclotomic_denominator_is_refused():
    coeff = {"num": ["1"], "den": ["-2", "1"]}
    with pytest.raises(NotCyclotomic):
        certificate_from_json({"n": 2, "terms": [{"paths": [2], "coeff": coeff}]})


def test_sign_of_the_denominator_moves_to_the_numerator():
    r = QRat(Q, -q_int(2))
    assert r.num == -Q and r.den == q_int(2)
    assert QRat(3, -1) == QRat(-3)


def test_every_cyclotomic_denominator_is_factored():
    # Phi_6, Phi_10, Phi_12, ... have degree below d - 1.
    for d in range(2, 41):
        r = QRat(q_int(d), cyclotomic(d))
        assert r.den == ONE and r.num == q_int(d).exact_div(cyclotomic(d)), d
        assert QRat(ONE, cyclotomic(d)).den == cyclotomic(d), d


def test_non_cyclotomic_refusal_is_fast():
    # phi(d) comes from one sieve, not a gcd count per d up to degree**2
    for den in (Q**60, Q**40 + 3 * Q**20 + 1):
        start = time.perf_counter()
        with pytest.raises(NotCyclotomic):
            QRat(ONE, den)
        assert time.perf_counter() - start < 0.1, den
    phis = cyclotomic(2) ** 3 * cyclotomic(6) * cyclotomic(30) ** 2 * cyclotomic(40)
    assert QRat(ONE, phis).den == phis
    assert QRat(phis, phis * q_int(5)) == QRat(ONE, q_int(5))


def test_degree_of_product():
    a, b = QPoly((1, 2)), QPoly((0, 0, 3))
    assert (a * b).degree == a.degree + b.degree


@given(st.integers(0, 50), st.integers(0, 50))
def test_q_int_addition_law(a, b):
    assert q_int(a + b) == q_int(a) + q_int(b).shifted(a)


@given(polys, nonzero_polys)
def test_exact_div_of_product(a, b):
    assert (a * b).exact_div(b) == a


numerators = st.lists(st.integers(-20, 20), max_size=8).map(QPoly)
q_int_lists = st.lists(st.integers(1, 12), max_size=3)


@st.composite
def denominators(draw):
    """Plus or minus a product of q-integers and cyclotomic polynomials Phi_d, d >= 2."""
    den = ONE
    for k in draw(q_int_lists):
        den = den * q_int(k)
    for d in draw(st.lists(st.integers(2, 30), max_size=2)):
        den = den * cyclotomic(d)
    return den * draw(st.sampled_from((1, -1)))


@given(numerators, denominators())
def test_rat_canonical_idempotent(a, b):
    r = QRat(a, b)
    again = QRat(r.num, r.den)
    assert again.num == r.num and again.den == r.den
    assert r + (-r) == QRat(0)


def _divmod(a: list, b: list) -> tuple[list, list]:
    """Long division of coefficient lists (ascending) over the rationals."""
    rem, quot = [Fraction(c) for c in a], [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        factor = rem[-1] / b[-1]
        quot[len(rem) - len(b)] = factor
        for j, c in enumerate(b):
            rem[len(rem) - len(b) + j] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def _gcd(a: list, b: list) -> list:
    """Monic gcd by the Euclidean algorithm over the rationals."""
    while b:
        a, b = b, _divmod(a, b)[1]
    return [Fraction(c) / a[-1] for c in a]


def _integral(coeffs: list) -> QPoly:
    assert all(Fraction(c).denominator == 1 for c in coeffs)
    return QPoly(tuple(int(c) for c in coeffs))


def euclid(num: QPoly, den: QPoly) -> tuple[QPoly, QPoly]:
    """The reference reduction: divide out the monic gcd, then make den monic.

    Its gcd can outlast hypothesis's default deadline on a high-degree draw,
    so the tests that call it run with ``deadline=None``.
    """
    if num.is_zero():
        return num, ONE
    g = _gcd(list(num.coeffs), list(den.coeffs))
    (a, ra), (b, rb) = _divmod(num.coeffs, g), _divmod(den.coeffs, g)
    assert not ra and not rb
    lead = b[-1]
    return _integral([c / lead for c in a]), _integral([c / lead for c in b])


@given(polys, denominators())
def test_monic_denominator_and_coprime(a, b):
    r = QRat(a, b)
    assert r.den.coeffs[-1] == 1
    if not r.num.is_zero():
        assert _gcd(list(r.num.coeffs), list(r.den.coeffs)) == [1]


@given(polys, polys, st.fractions(min_value=-3, max_value=3, max_denominator=5))
def test_eval_commutes_with_ring_ops(a, b, q0):
    assert (a + b)(q0) == a(q0) + b(q0)
    assert (a * b)(q0) == a(q0) * b(q0)


@given(polys, denominators(), polys, denominators())
def test_rat_field_ops(a, b, c, d):
    x, y = QRat(a, b), QRat(c, d)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * x == x * x + y * x
    assert (x - y) + y == x


@given(polys, denominators(), polys, denominators())
def test_rat_eval_commutes_at_nonpoles(a, b, c, d):
    x, y = QRat(a, b), QRat(c, d)
    q0 = Fraction(2)
    if x.den(q0) == 0 or y.den(q0) == 0:
        return
    def at(r):
        return r.num(q0) / r.den(q0)

    if (x + y).den(q0) != 0:
        assert at(x + y) == at(x) + at(y)
    if (x * y).den(q0) != 0:
        assert at(x * y) == at(x) * at(y)


def test_serialization_round_trip():
    r = QRat(QPoly((-1, 3)), q_int(2))
    assert QRat.from_json(r.to_json()) == r
    p = QPoly((1, 0, -2))
    assert QPoly.from_json(p.to_json()) == p


def fields(r: QRat) -> tuple[QPoly, QPoly]:
    return r.num, r.den


@settings(deadline=None)
@given(numerators, denominators())
def test_canonical_form_matches_euclidean_reduction(a, da):
    assert fields(QRat(a, da)) == euclid(a, da)


@settings(deadline=None)
@given(numerators, denominators(), numerators, denominators())
def test_arithmetic_matches_euclidean_reduction(a, da, b, db):
    x, y = QRat(a, da), QRat(b, db)
    assert fields(x + y) == euclid(a * db + b * da, da * db)
    assert fields(x * y) == euclid(a * b, da * db)


@settings(deadline=None)
@given(numerators, st.dictionaries(st.integers(2, 12), st.integers(1, 3), max_size=3))
def test_over_cyclotomics_matches_euclidean_reduction(a, exps):
    den = ONE
    for d, e in exps.items():
        den = den * cyclotomic(d) ** e
    assert fields(QRat.over_cyclotomics(a, tuple(sorted(exps.items())))) == euclid(a, den)


@settings(deadline=None)
@given(numerators, st.integers(0, 4), st.integers(0, 8), st.integers(0, 2))
def test_over_one_plus_q_matches_the_constructor(w, j, e, zeros):
    # v is w times (1+q)**j, so up to j factors cancel, padded with trailing zeros
    v = list((w * q_int(2) ** j).coeffs) + [0] * zeros
    expected = QRat(QPoly(v), q_int(2) ** e)
    value = QRat.over_one_plus_q(v, e)
    assert (value.num, value.den) == (expected.num, expected.den)


@given(numerators, denominators(), st.sampled_from((Q, Q - 1, Q - 2, QPoly((2,)), Q * Q + 1 + Q * 3)))
def test_a_non_cyclotomic_factor_is_refused(a, den, bad):
    with pytest.raises(NotCyclotomic):
        QRat(a, den * bad)


def test_q_int_is_the_product_of_its_cyclotomic_factors():
    for k in range(1, 25):
        product = ONE
        for d in range(2, k + 1):
            if k % d == 0:
                product = product * cyclotomic(d)
        assert product == q_int(k), k


def test_cyclotomic_matches_the_recursive_definition():
    # Phi_d = (q**d - 1) / prod of Phi_e over the proper divisors e of d
    phi = {}
    for d in range(1, 211):
        out = QPoly((-1,) + (0,) * (d - 1) + (1,))
        for e in range(1, d):
            if d % e == 0:
                out = out.exact_div(phi[e])
        phi[d] = out
        assert cyclotomic(d) == out, d


def test_str_forms():
    assert str(q_int(3)) == "1 + q + q^2"
    assert str(QPoly()) == "0"
    assert str(QRat(Q * q_int(2), q_int(3))) == "(q + q^2)/(1 + q + q^2)"
