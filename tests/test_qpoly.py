"""Exact q-arithmetic: examples with hand-derived values plus algebraic laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chromsym.errors import NotDivisible, PoleAtPoint
from chromsym.qpoly import ONE, Q, QPoly, QRat, cyclotomic, poly_gcd, q_fact, q_int

small_fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
polys = st.lists(small_fractions, max_size=6).map(QPoly)
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
    with pytest.raises(NotDivisible):
        q_int(3).exact_div(q_int(2))


def test_rat_cancellation():
    r = QRat(Q, q_int(3))
    assert r * QRat(q_int(3)) == QRat(Q)


def test_eval_at_examples():
    r = QRat(Q * q_int(2), q_int(3))
    assert r.eval_at(1) == Fraction(2, 3)
    with pytest.raises(PoleAtPoint):
        QRat(ONE, Q).eval_at(0)


def test_invert_zero():
    with pytest.raises(ZeroDivisionError):
        QRat(0).invert()
    with pytest.raises(ZeroDivisionError):
        QRat(ONE, QPoly())


def test_degree_of_product():
    a, b = QPoly((1, 2)), QPoly((0, 0, 3))
    assert (a * b).degree == a.degree + b.degree


@given(st.integers(0, 50), st.integers(0, 50))
def test_q_int_addition_law(a, b):
    assert q_int(a + b) == q_int(a) + q_int(b).shifted(a)


@given(polys, nonzero_polys)
def test_exact_div_of_product(a, b):
    assert (a * b).exact_div(b) == a


@given(polys, nonzero_polys)
def test_rat_canonical_idempotent(a, b):
    r = QRat(a, b)
    again = QRat(r.num, r.den)
    assert again.num == r.num and again.den == r.den
    assert r + (-r) == QRat(0)


@given(polys, nonzero_polys)
def test_monic_denominator_and_coprime(a, b):
    r = QRat(a, b)
    assert r.den.coeffs[-1] == 1
    if not r.num.is_zero():
        assert poly_gcd(r.num, r.den) == ONE


@given(polys, polys, st.fractions(min_value=-3, max_value=3, max_denominator=5))
def test_eval_commutes_with_ring_ops(a, b, q0):
    assert (a + b)(q0) == a(q0) + b(q0)
    assert (a * b)(q0) == a(q0) * b(q0)


@given(polys, nonzero_polys, polys, nonzero_polys)
def test_rat_field_ops(a, b, c, d):
    x, y = QRat(a, b), QRat(c, d)
    assert x + y == y + x
    assert x * y == y * x
    if not y.is_zero():
        assert (x / y) * y == x


@given(polys, nonzero_polys, polys, nonzero_polys)
def test_rat_eval_commutes_at_nonpoles(a, b, c, d):
    x, y = QRat(a, b), QRat(c, d)
    q0 = Fraction(2)
    if x.den(q0) == 0 or y.den(q0) == 0:
        return
    if (x + y).den(q0) != 0:
        assert (x + y).eval_at(q0) == x.eval_at(q0) + y.eval_at(q0)
    if (x * y).den(q0) != 0:
        assert (x * y).eval_at(q0) == x.eval_at(q0) * y.eval_at(q0)


def test_serialization_round_trip():
    r = QRat(QPoly((Fraction(1, 2), 3)), q_int(2))
    assert QRat.from_json(r.to_json()) == r
    p = QPoly((1, 0, Fraction(-2, 3)))
    assert QPoly.from_json(p.to_json()) == p


int_or_fraction = st.one_of(
    st.integers(-20, 20), st.fractions(min_value=-5, max_value=5, max_denominator=7)
)
numerators = st.lists(int_or_fraction, max_size=8).map(QPoly)
q_int_lists = st.lists(st.integers(1, 12), max_size=3)


@st.composite
def denominators(draw):
    """Products of q-integers, a power of q, and maybe one non-cyclotomic factor."""
    den = ONE
    for k in draw(q_int_lists):
        den = den * q_int(k)
    den = den.shifted(draw(st.integers(0, 2)))
    if draw(st.booleans()):
        den = den * QPoly((-2, 1))
    return den * draw(st.sampled_from((1, -1, 3, Fraction(1, 2))))


def euclid(num: QPoly, den: QPoly) -> tuple[QPoly, QPoly]:
    """The reference reduction: divide out the monic gcd, then make den monic.

    Its gcd can outlast hypothesis's default deadline on a high-degree draw,
    so the tests that call it run with ``deadline=None``.
    """
    if num.is_zero():
        return num, ONE
    g = poly_gcd(num, den)
    num, den = num.exact_div(g), den.exact_div(g)
    return num * (Fraction(1) / den.coeffs[-1]), den.monic()


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
@given(numerators, q_int_lists)
def test_over_q_ints_matches_euclidean_reduction(a, ks):
    den = ONE
    for k in ks:
        den = den * q_int(k)
    assert fields(QRat.over_q_ints(a, ks)) == euclid(a, den)


def test_q_int_is_the_product_of_its_cyclotomic_factors():
    for k in range(1, 25):
        product = ONE
        for d in range(2, k + 1):
            if k % d == 0:
                product = product * cyclotomic(d)
        assert product == q_int(k), k


def test_str_forms():
    assert str(q_int(3)) == "1 + q + q^2"
    assert str(QPoly()) == "0"
    assert str(QRat(Q * q_int(2), q_int(3))) == "(q + q^2)/(1 + q + q^2)"
