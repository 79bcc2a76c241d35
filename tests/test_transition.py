"""The insertion model: weights, probability tables, and e-side refinements."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import chromsym
from chromsym.errors import InvariantViolation, SizeLimitExceeded
from chromsym.hessenberg import enumerate_hess, path
from chromsym.partitions import all_syt
from chromsym.qpoly import ONE, Q, QRat, q_int
from chromsym.symfunc import SymFun
from chromsym.transition import (
    c_poly,
    check_area_relation,
    delta_bits,
    delta_runs,
    e_part,
    e_total,
    insert_at_column,
    insertions,
    p_bar_table,
    p_table,
    phi,
    probability_sum,
    psi,
    thresholds,
    trace,
    x_from_table,
)


def test_delta_examples():
    row123 = ((1, 2, 3),)
    assert delta_bits(row123, 2) == (0, 0, 1)
    assert delta_bits(row123, 3) == (0, 0, 0)
    assert delta_bits(row123, 0) == (1, 1, 1)
    hook = ((1, 3), (2,))
    assert delta_bits(hook, 1) == (1, 1, 0)
    assert delta_runs((1, 0, 0, 1, 1, 0)) == (1, ((2, 2),), 1)
    assert delta_runs((0, 0)) == (0, (), 2)
    assert delta_runs(()) == (0, (), 0)


def test_insertion_examples():
    # row 1 2 3 at r=2: new row at column 1, or extend to column 4
    steps = insertions(((1, 2, 3),), 2)
    assert steps == [(0, ((1, 2, 3), (4,))), (1, ((1, 2, 3, 4),))]
    assert insertions((), 0) == [(0, ((1,),))]
    # row 1 2 at r=0: single run of ones, insert at column 3
    assert insertions(((1, 2),), 0) == [(0, ((1, 2, 3),))]


def test_insertions_stay_standard():
    for size in range(0, 6):
        for tab in all_syt(size):
            for r in range(0, size + 1):
                for _, bigger in insertions(tab, r):
                    entries = sorted(x for row in bigger for x in row)
                    assert entries == list(range(1, size + 2))
                    for row in bigger:
                        assert all(row[i] < row[i + 1] for i in range(len(row) - 1))
                    for i in range(len(bigger) - 1):
                        for j in range(len(bigger[i + 1])):
                            assert bigger[i][j] < bigger[i + 1][j]
                    shape = tuple(len(row) for row in bigger)
                    assert all(shape[i] >= shape[i + 1] for i in range(len(shape) - 1))


def test_psi_figure_values():
    assert psi(((1, 2, 3),), 0, 2) == QRat(Q * q_int(2), q_int(3))
    assert psi(((1, 2, 3),), 1, 2) == QRat(ONE, q_int(3))
    assert psi(((1, 2, 3, 4),), 0, 3) == QRat(Q * q_int(3), q_int(4))
    assert psi(((1, 2, 3, 4),), 1, 3) == QRat(ONE, q_int(4))
    # l = 0: single admissible insertion of weight 1
    assert psi(((1, 2),), 0, 0) == QRat(1)
    with pytest.raises(IndexError):
        psi(((1, 2, 3),), 2, 2)


def test_probability_table_figure():
    tab = p_table((2, 3, 5, 5, 5))
    expected = {
        ((1, 2, 3), (4, 5)): QRat(Q * q_int(2), q_int(3)),
        ((1, 2, 3, 4), (5,)): QRat(Q, q_int(4)),
        ((1, 2, 3, 4, 5),): QRat(ONE, q_int(3) * q_int(4)),
    }
    assert tab == expected


def test_probability_table_extremes():
    n = 5
    diag = p_table(tuple(range(1, n + 1)))
    assert diag == {tuple((i,) for i in range(1, n + 1)): QRat(1)}
    assert probability_sum((n,) * n) == QRat(1)


def test_probabilities_lie_in_unit_interval_at_one():
    for n in range(1, 5):
        for m in enumerate_hess(n):
            for value in p_table(m).values():
                x = value.num(1) / value.den(1)
                assert Fraction(0) <= x <= Fraction(1)


def test_thresholds():
    assert thresholds((2, 3, 5, 5, 5)) == [0, 0, 0, 2, 3]


def test_c_poly_example():
    c = c_poly((2, 3, 5, 5, 5), (3, 2), 2)
    assert c == Q * q_int(2) ** 3
    assert c.exact_div(q_int(2)) == Q * q_int(2) ** 2


def test_e_part_examples():
    assert e_total((1,)) == SymFun.e_term((1,))
    assert e_part((1,), 1) == SymFun.e_term((1,))
    assert e_part((2, 2), 1).is_zero()
    assert e_part((2, 2), 2) == SymFun.e_term((2,))
    for k in (-1, 0, 3):
        assert e_part((2, 2), k) == SymFun.zero(2), k


def test_every_e_k_is_formed_once_per_m():
    m = (2, 3, 5, 5, 5)
    assert all(e_part(m, k) is e_part(m, k) for k in range(1, 6))
    assert all(c_poly(m, (3, 2), k).is_zero() for k in (-1, 0, 6))


def test_x_unwinds_as_weighted_refinements():
    for n in range(1, 5):
        for m in enumerate_hess(n):
            total = SymFun.zero(n)
            for k in range(1, n + 1):
                total = total + q_int(k) * e_part(m, k)
            assert x_from_table(m) == total, m


def test_x_matches_coloring_oracle():
    from chromsym.coloring import x_colorings

    for n in range(1, 5):
        for m in enumerate_hess(n):
            assert x_from_table(m) == x_colorings(m).to_e(), m


def test_weight_variant_tables():
    assert p_bar_table((1,)) == {((1,),): QRat(1)}
    assert check_area_relation((2, 3, 5, 5, 5))
    for m in enumerate_hess(4):
        assert check_area_relation(m), m


def test_psi_sums_to_one_small():
    for size in range(0, 6):
        for tab in all_syt(size):
            for r in range(0, size + 1):
                runs = delta_runs(delta_bits(tab, r))
                total = QRat(0)
                for k in range(len(runs[1]) + 1):
                    total = total + psi(tab, k, r)
                assert total == QRat(1), (tab, r)


def test_phi_power_relation_small():
    for size in range(0, 6):
        for tab in all_syt(size):
            for r in range(0, size + 1):
                _, pairs, _ = delta_runs(delta_bits(tab, r))
                for k in range(len(pairs) + 1):
                    a_sum = sum(a for a, _ in pairs[:k])
                    b_sum = sum(b for _, b in pairs[k:])
                    lhs = psi(tab, k, r) * QRat(ONE.shifted(a_sum))
                    rhs = phi(tab, k, r) * QRat(ONE.shifted(b_sum))
                    assert lhs == rhs, (tab, r, k)


def test_size_limit():
    with pytest.raises(SizeLimitExceeded):
        p_table(path(9))


def test_trace_is_a_tree_with_figure_weights():
    records = trace((2, 3, 5, 5, 5))
    weights = {str(rec["weight"]) for rec in records}
    assert "(q + q^2)/(1 + q + q^2)" in weights
    assert "1/(1 + q + q^2)" in weights
    assert "1/(1 + q + q^2 + q^3)" in weights
    # every non-root node has exactly one parent record per step reached
    children = [rec["child"] for rec in records]
    assert len(children) == len(set(children))


def test_trace_last_step_sums_to_the_probability_table():
    for n in range(1, 6):
        for m in enumerate_hess(n):
            sums = {}
            for rec in trace(m):
                if rec["step"] == n:
                    sums[rec["child"]] = sums.get(rec["child"], QRat(0)) + rec["p"]
            assert {t: v for t, v in sums.items() if not v.is_zero()} == p_table(m), m


def test_insert_at_column_rejects_a_broken_shape():
    with pytest.raises(InvariantViolation):
        insert_at_column(((1, 2),), 5)
    # the check must survive python -O, which strips assert statements
    src = str(Path(chromsym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "from chromsym.errors import InvariantViolation\n"
        "from chromsym.transition import insert_at_column\n"
        "try:\n"
        "    print(insert_at_column(((1, 2),), 5))\n"
        "except InvariantViolation:\n"
        "    print('raised')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "raised"
