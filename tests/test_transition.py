"""The insertion model: weights, probability tables, and e-side refinements."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chromsym
from chromsym import cli, transition
from chromsym.errors import MAX_N, InvariantViolation, NotDivisible, SizeLimitExceeded
from chromsym.hessenberg import enumerate_hess, path
from chromsym.partitions import all_syt, entry_column, shape_of
from chromsym.qpoly import ONE, Q, QPoly, QRat, q_fact, q_int
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


def reference_e_parts(m):
    """E_1, ..., E_n straight from the model: QRat products along every growth
    edge, summed per (shape, column of n), times the row q-factorials, over [k]_q."""
    n = len(m)
    states = {(): QRat(1)}
    for r in thresholds(m):
        states = {child: p * psi(tab, k, r) for tab, p in states.items() for k, child in insertions(tab, r)}
    sums = {}
    for tab, p in states.items():
        key = (shape_of(tab), entry_column(tab, n))
        sums[key] = sums.get(key, QRat(0)) + p
    parts = [{} for _ in range(n)]
    for (lam, k), total in sums.items():
        for part in lam:
            total = total * QRat(q_fact(part))
        parts[k - 1][lam] = QRat(total.num, total.den * q_int(k)).as_poly()
    return [SymFun(n, "e", coeffs) for coeffs in parts]


def test_e_parts_match_the_edge_by_edge_reference():
    for n in range(1, 7):
        for m in enumerate_hess(n):
            assert [e_part(m, k) for k in range(1, n + 1)] == reference_e_parts(m), m


@st.composite
def hessenberg(draw, n_max=7):
    n = draw(st.integers(1, n_max))
    m = []
    for i in range(1, n + 1):
        m.append(draw(st.integers(max(i, m[-1] if m else 1), n)))
    return tuple(m)


@settings(deadline=None, max_examples=25)
@given(hessenberg())
def test_e_parts_match_the_reference_on_random_m(m):
    assert [e_part(m, k) for k in range(1, len(m) + 1)] == reference_e_parts(m)


def test_e_part_bytes_are_pinned():
    # SHA-256 of the JSON of every E_k, k = 1..n, for every m with n <= 7, in enumeration order
    digest = hashlib.sha256()
    for n in range(1, 8):
        for m in enumerate_hess(n):
            for k in range(1, n + 1):
                digest.update(json.dumps(e_part(m, k).to_json()).encode())
    assert digest.hexdigest() == "dbc6dfe071df1fe95c9a781bcb27d96e409910f4fb3d4910b412e05aab1e7966"


def test_trace_output_bytes_are_pinned():
    # SHA-256 of the output of `chromsym trace transition` for every m with n <= 5
    digest = hashlib.sha256()
    for n in range(1, 6):
        for m in enumerate_hess(n):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["trace", "transition", "--m", ",".join(map(str, m))]) == 0
            digest.update(out.getvalue().encode())
    assert digest.hexdigest() == "9fc957fdcbed0263f1a2a7e0dfdab798445c165ef0e68c7df309233aa84acf8a"


def test_weights_and_probabilities_take_no_division(monkeypatch):
    from chromsym import qpoly

    original, calls = qpoly._quotient, []
    monkeypatch.setattr(qpoly, "_quotient", lambda *args: calls.append(args) or original(*args))
    values = [
        weight(tab, k, r)
        for size in range(7)
        for tab in all_syt(size)
        for r in range(size + 1)
        for k in range(len(delta_runs(delta_bits(tab, r))[1]) + 1)
        for weight in (psi, phi)
    ]
    values += [p for n in range(1, 7) for m in enumerate_hess(n) for p in p_table(m).values()]
    assert calls == []
    monkeypatch.undo()
    # each is canonical: building it again from its fields cancels nothing
    assert all(QRat(v.num, v.den) == v for v in values)


def test_a_coefficient_that_is_not_a_polynomial_raises(monkeypatch):
    # one tableau of shape (2,) with 2 in column 2: its E_2 coefficient is its probability,
    # given as q**vec[0] times the product of Phi_d**vec[d]
    def table_with(exps):
        vec = [exps.get(d, 0) for d in range(MAX_N + 1)]
        return lambda m, modified: {((1, 2),): tuple(vec)}

    transition._e_parts.cache_clear()
    try:
        monkeypatch.setattr(transition, "_table_raw", table_with({0: 1, 2: 1}))
        assert e_part((2, 2), 2) == SymFun(2, "e", {(2,): QPoly((0, 1, 1))})
        transition._e_parts.cache_clear()
        monkeypatch.setattr(transition, "_table_raw", table_with({0: 1, 3: -1}))
        with pytest.raises(NotDivisible):
            e_part((2, 2), 2)
    finally:
        transition._e_parts.cache_clear()
