"""Differential and metamorphic tests across the engines at the size cap.

The exhaustive engine tests stop below the cap; here hypothesis draws
Hessenberg functions of length MAX_N = 8, and disjoint unions that reach it,
and every engine is checked against the others, and against itself.
"""

from hypothesis import given, settings, strategies as st

from chromsym.coloring import x_colorings
from chromsym.errors import MAX_N
from chromsym.gfunctions import g_total, x_cycle_sum
from chromsym.hessenberg import enumerate_hess, hsum
from chromsym.ptableaux import s_fun, x_schur
from chromsym.transition import e_total, x_from_table

X_ENGINES = (x_colorings, x_from_table, x_cycle_sum, x_schur)

at_the_cap = st.sampled_from(enumerate_hess(MAX_N))


def hess_of_length(n: int):
    return st.sampled_from(enumerate_hess(n))


# (m1, m2) with len(m1) + len(m2) <= MAX_N
summands = st.integers(1, MAX_N - 1).flatmap(
    lambda n1: st.tuples(hess_of_length(n1), st.integers(1, MAX_N - n1).flatmap(hess_of_length))
)


@settings(deadline=None, max_examples=25)
@given(at_the_cap)
def test_the_x_engines_agree_and_e_g_s_agree_at_the_cap(m):
    oracle, *engines = (x(m) for x in X_ENGINES)
    for engine, x in zip(X_ENGINES[1:], engines):
        assert x == oracle, (engine.__name__, m)
    e = e_total(m)
    assert e == g_total(m) and e == s_fun(m), m


@settings(deadline=None, max_examples=25)
@given(summands)
def test_x_of_a_disjoint_union_is_the_product(pair):
    m1, m2 = pair
    for x in X_ENGINES:
        assert x(hsum(m1, m2)) == x(m1) * x(m2), (x.__name__, m1, m2)
