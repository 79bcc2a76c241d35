"""Acyclic orientations, sinks, and the zeta specialization."""

import gc
import random
from collections import Counter
from math import comb, factorial

import pytest

from chromsym import coloring, gfunctions, orientations
from chromsym.errors import InvariantViolation

from chromsym.hessenberg import edges, enumerate_hess
from chromsym.orientations import (
    ao_sink_poly,
    asc,
    enumerate_ao,
    hook_theta_counts,
    length_distribution,
    sink_distribution,
    sink_subset_count,
    sinks,
    smallest_sink,
    theta_of,
)
from chromsym.partitions import partitions
from chromsym.ptableaux import enumerate_pt, inv_filling, pt_poly
from chromsym.qpoly import QPoly, QRat
from chromsym.symfunc import SymFun


def test_single_edge_orientations():
    m = (2, 2)
    # bit 0 set directs the one edge (1, 2); clear directs it (2, 1)
    assert enumerate_ao(m) == (0, 1)
    assert enumerate_ao(m, require_1_sink=True) == (0,)
    assert asc(m, 1) == 1
    assert asc(m, 0) == 0
    assert sinks(m, 0) == {1}
    assert sinks(m, 1) == {2}


def test_edgeless_and_complete():
    m = (1, 2, 3)
    aos = enumerate_ao(m)
    assert aos == (0,)
    assert sinks(m, aos[0]) == {1, 2, 3}
    assert smallest_sink(m, aos[0]) == 1
    for n in range(2, 5):
        assert len(enumerate_ao((n,) * n)) == factorial(n)


def test_theta_paper_example():
    m = (2, 4, 4, 5, 5)
    rows = ((1, 5), (3,), (4,), (2,))
    theta = theta_of(m, rows)
    assert asc(m, theta) == 3 == inv_filling(m, rows)


def test_asc_equals_inv_everywhere():
    for n in range(1, 6):
        for m in enumerate_hess(n):
            for lam in partitions(n):
                for rows in enumerate_pt(m, lam):
                    assert asc(m, theta_of(m, rows)) == inv_filling(m, rows)
                for rows in enumerate_pt(m, lam, corner1=True):
                    assert 1 in sinks(m, theta_of(m, rows))


def test_zeta_values():
    assert length_distribution(SymFun.e_term((5,))) == {1: QRat(1)}
    assert length_distribution(SymFun.s_term((2,))) == {2: QRat(1), 1: QRat(-1)}
    for k in range(1, 5):
        for n in range(k, 7):
            hook = (k,) + (1,) * (n - k)
            want = {
                i: QRat((-1) ** (k - i) * comb(k - 1, i - 1))
                for i in range(1, k + 1)
            }
            assert length_distribution(SymFun.s_term(hook)) == want


def test_length_vs_hook_alternating_sum():
    # e-length sums from s-coefficients, for arbitrary symmetric functions
    rng = random.Random(3)
    for degree in range(1, 7):
        coeffs = {lam: QPoly((rng.randint(-3, 3),)) for lam in partitions(degree)}
        f = SymFun(degree, "e", coeffs)
        by_length = length_distribution(f)
        s_side = f.to_s().coeffs
        for ell in range(1, degree + 1):
            total = QRat(0)
            for k in range(ell, degree + 1):
                hook = (k,) + (1,) * (degree - k)
                a = s_side.get(hook, QRat(0))
                total = total + QRat((-1) ** (k - ell) * comb(k - 1, ell - 1)) * a
            assert by_length.get(ell, QRat(0)) == total, (degree, ell)


def test_sink_theorem_both_sides():
    for n in range(1, 5):
        for m in enumerate_hess(n):
            assert sink_distribution(m, "X") == {
                l: QRat(p) for l, p in ao_sink_poly(m, False).items()
            }
            assert sink_distribution(m, "S") == {
                l: QRat(p) for l, p in ao_sink_poly(m, True).items()
            }


def test_sink_distribution_edgeless():
    n = 4
    m = tuple(range(1, n + 1))
    assert sink_distribution(m, "X") == {n: QRat(1)}


def test_smallest_sink_always_defined():
    # exercises the pairwise-comparability assertion on every orientation
    for n in range(1, 5):
        for m in enumerate_hess(n):
            for theta in enumerate_ao(m):
                assert smallest_sink(m, theta) in sinks(m, theta)


def test_hook_binomial_counts():
    m = (2, 3, 5, 5, 5)
    for theta in enumerate_ao(m, require_1_sink=True):
        ell = len(sinks(m, theta))
        for i in range(1, ell + 1):
            assert sink_subset_count(m, theta, i) == comb(ell - 1, i - 1)
            if i in (1, ell):
                assert sink_subset_count(m, theta, i) == 1


def _directed(m, mask):
    """The (tail, head) pairs of an orientation mask."""
    return [(i, j) if mask >> idx & 1 else (j, i) for idx, (i, j) in enumerate(edges(m))]


def _acyclic_by_masks(m, require_1_sink):
    """Every orientation mask, in order; keep those with no directed cycle."""
    n, edge_list = len(m), edges(m)
    out = []
    for mask in range(1 << len(edge_list)):
        directed = _directed(m, mask)
        if require_1_sink and any(u == 1 for u, _ in directed):
            continue
        # peel off sinks until none is left; a cycle leaves vertices behind
        left = set(range(1, n + 1))
        while True:
            tails = {u for u, v in directed if u in left and v in left}
            if tails == left:
                break
            left = tails
        if not left:
            out.append(mask)
    return tuple(out)


def test_enumerate_ao_matches_mask_reference_in_order():
    for n in range(1, 6):
        for m in enumerate_hess(n):
            for require_1_sink in (False, True):
                assert enumerate_ao(m, require_1_sink) == _acyclic_by_masks(m, require_1_sink)
            for theta in enumerate_ao(m):
                directed = _directed(m, theta)
                tails = {u for u, _ in directed}
                assert sinks(m, theta) == set(range(1, n + 1)) - tails, (m, theta)
                assert asc(m, theta) == sum(1 for u, v in directed if u < v), (m, theta)


def test_vertex_one_sink_filter_matches_require_1_sink_in_order():
    # the sink suite enumerates once per m and keeps the thetas in which 1 is a sink
    for n in range(1, 7):
        for m in enumerate_hess(n):
            sink1 = tuple(t for t in enumerate_ao(m) if 1 in sinks(m, t))
            assert sink1 == enumerate_ao(m, require_1_sink=True), m


def test_hook_theta_counts_match_theta_of():
    for n in range(1, 6):
        for m in enumerate_hess(n):
            for i in range(1, n + 1):
                hook = (i,) + (1,) * (n - i)
                tableaux = enumerate_pt(m, hook, corner1=True)
                counts = hook_theta_counts(m, i)
                assert counts == Counter(theta_of(m, rows) for rows in tableaux), (m, i)
                for theta in enumerate_ao(m, require_1_sink=True):
                    expected = sum(1 for rows in tableaux if theta_of(m, rows) == theta)
                    assert sink_subset_count(m, theta, i) == expected == counts[theta]


def test_hook_theta_counts_check_acyclicity(monkeypatch):
    # the edge (1, 2) inside one row would point neither up nor down the rows
    monkeypatch.setattr(orientations, "enumerate_pt", lambda m, hook, corner1: (((1, 2), (3,)),))
    with pytest.raises(InvariantViolation):
        hook_theta_counts((2, 3, 3), 2)


def test_kernels_leave_no_reference_cycles():
    # a recursive closure left bound holds its results in a cycle that only a gc frees
    m = (3, 4, 5, 5, 5)
    calls = [
        lambda: enumerate_pt(m, (3, 2), corner1=True),
        lambda: pt_poly(m, (3, 2)),
        lambda: enumerate_ao(m),
        lambda: hook_theta_counts(m, 2),
        lambda: gfunctions._cycle_stats.__wrapped__(m),
        lambda: coloring.x_colorings.__wrapped__(m),
        # the stable sets and memo of one m at a time: this evicts those of m, and m evicts these
        lambda: coloring.x_colorings.__wrapped__((2, 4, 5, 5, 5)),
    ]
    for call in calls:
        call()
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0, call
    finally:
        gc.enable()
