"""Acyclic orientations, sinks, and the zeta specialization."""

import gc
import random
from collections import Counter
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from chromsym import coloring, gfunctions
from chromsym.errors import InvariantViolation

from chromsym.hessenberg import edges, enumerate_hess, poset_less
from chromsym.orientations import (
    ao_sink_poly,
    ao_tally,
    enumerate_ao,
    hook_theta_counts,
    length_distribution,
    sink_distribution,
    sink_subset_count,
    sinks,
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
    assert sinks(m, 0) == {1}
    assert sinks(m, 1) == {2}


def test_edgeless_and_complete():
    m = (1, 2, 3)
    aos = enumerate_ao(m)
    assert aos == (0,)
    assert sinks(m, aos[0]) == {1, 2, 3}
    for n in range(2, 5):
        assert len(enumerate_ao((n,) * n)) == factorial(n)


def test_theta_paper_example():
    m = (2, 4, 4, 5, 5)
    rows = ((1, 5), (3,), (4,), (2,))
    theta = theta_of(m, rows)
    assert theta.bit_count() == 3 == inv_filling(m, rows)


def test_asc_equals_inv_everywhere():
    for n in range(1, 6):
        for m in enumerate_hess(n):
            for lam in partitions(n):
                for rows in enumerate_pt(m, lam):
                    assert theta_of(m, rows).bit_count() == inv_filling(m, rows)
                for rows in enumerate_pt(m, lam, corner1=True):
                    assert 1 in sinks(m, theta_of(m, rows))


def test_zeta_values():
    assert length_distribution(SymFun.e_term((5,))) == {1: QRat(1)}
    assert length_distribution(SymFun.term("s", (2,))) == {2: QRat(1), 1: QRat(-1)}
    for k in range(1, 5):
        for n in range(k, 7):
            hook = (k,) + (1,) * (n - k)
            want = {
                i: QRat((-1) ** (k - i) * comb(k - 1, i - 1))
                for i in range(1, k + 1)
            }
            assert length_distribution(SymFun.term("s", hook)) == want


def test_length_vs_hook_alternating_sum():
    # e-length sums from s-coefficients, for arbitrary symmetric functions
    rng = random.Random(3)
    for degree in range(1, 7):
        coeffs = {lam: QPoly((rng.randint(-3, 3),)) for lam in partitions(degree)}
        f = SymFun(degree, "e", coeffs)
        by_length = length_distribution(f)
        s_side = f.in_basis("s")
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
    # the sinks of every acyclic orientation are pairwise comparable, so a smallest one exists
    for n in range(1, 5):
        for m in enumerate_hess(n):
            for theta in enumerate_ao(m):
                ss = sinks(m, theta)
                assert ss, (m, theta)
                for a in ss:
                    for b in ss:
                        assert a == b or poset_less(m, a, b) or poset_less(m, b, a), (m, theta, a, b)


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
            by_sinks, by_sinks_1, sink1 = Counter(), Counter(), []
            for theta in enumerate_ao(m):
                directed = _directed(m, theta)
                tails = {u for u, _ in directed}
                assert sinks(m, theta) == set(range(1, n + 1)) - tails, (m, theta)
                assert theta.bit_count() == sum(1 for u, v in directed if u < v), (m, theta)
                key = (n - len(tails), sum(1 for u, v in directed if u < v))
                by_sinks[key] += 1
                if 1 not in tails:
                    by_sinks_1[key] += 1
                    sink1.append((theta, key[0]))
            # the one-pass tally reads the same sink counts, ascents and sink-1 masks
            everything, corner, tallied = ao_tally(m)
            for polys, keys in ((everything, by_sinks), (corner, by_sinks_1)):
                assert polys == {
                    ell: QPoly([keys[ell, a] for a in range(len(edges(m)) + 1)])
                    for ell, _ in keys
                }, m
            assert tallied == sink1, m


def test_vertex_one_sink_filter_matches_require_1_sink_in_order():
    # the sink suite enumerates once per m and keeps the thetas in which 1 is a sink
    for n in range(1, 7):
        for m in enumerate_hess(n):
            sink1 = tuple(t for t in enumerate_ao(m) if 1 in sinks(m, t))
            assert sink1 == enumerate_ao(m, require_1_sink=True), m


def _check_hook_theta_counts(m):
    n = len(m)
    for i in range(1, n + 1):
        hook = (i,) + (1,) * (n - i)
        counts = hook_theta_counts(m, i)
        expected = Counter(theta_of(m, rows) for rows in enumerate_pt(m, hook, corner1=True))
        assert counts == expected, (m, i)
        for theta in enumerate_ao(m, require_1_sink=True):
            assert sink_subset_count(m, theta, i) == expected[theta], (m, theta, i)
        # the masks' ascents are the tableaux' inv
        by_inv = Counter()
        for theta, count in counts.items():
            by_inv[theta.bit_count()] += count
        assert QPoly([by_inv[k] for k in range(len(edges(m)) + 1)]) == pt_poly(
            m, hook, corner1=True
        ), (m, i)


def test_hook_theta_counts_match_theta_of():
    for n in range(1, 7):
        for m in enumerate_hess(n):
            _check_hook_theta_counts(m)


@settings(deadline=None, max_examples=10)
@given(st.sampled_from(enumerate_hess(7)))
def test_hook_theta_counts_match_theta_of_at_n7(m):
    _check_hook_theta_counts(m)


def test_hook_theta_counts_check_acyclicity():
    # the edge (1, 2) inside one row would point neither up nor down the rows
    with pytest.raises(InvariantViolation):
        theta_of((2, 3, 3), ((1, 2), (3,)))


def test_kernels_leave_no_reference_cycles():
    # a recursive closure left bound holds its results in a cycle that only a gc frees
    m = (3, 4, 5, 5, 5)
    calls = [
        lambda: enumerate_pt(m, (3, 2), corner1=True),
        lambda: pt_poly(m, (3, 2)),
        lambda: enumerate_ao(m),
        lambda: hook_theta_counts(m, 2),
        lambda: ao_tally(m),
        lambda: gfunctions._cycle_stats.__wrapped__(m),
        lambda: coloring.x_colorings(m),
        # the stable sets and memo of one m at a time: this evicts those of m, and m evicts these
        lambda: coloring.x_colorings((2, 4, 5, 5, 5)),
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
