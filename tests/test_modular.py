"""Modular triples, the reduction algorithm, and certificate evaluation."""

import gc
import hashlib
import json
from functools import reduce

import pytest

from chromsym import gfunctions, modular, transition
from chromsym.errors import DegreeMismatch, InvariantViolation, NotDivisible
from chromsym.gfunctions import g_total
from chromsym.hessenberg import area, enumerate_hess, hsum, path, path_components
from chromsym.modular import (
    certificate_from_json,
    certificate_json,
    certificate_text,
    enumerate_triples,
    evaluate,
    is_type1,
    is_type2,
    law_defect,
    reduce_to_paths,
    reduction_step,
)
from chromsym.partitions import compositions
from chromsym.ptableaux import s_fun
from chromsym.qpoly import ONE, RAT_ONE, Q, QRat, q_int
from chromsym.symfunc import SymFun
from chromsym.transition import e_total


def test_no_triples_at_n2():
    for kind in ("I", "II", "IIr"):
        assert enumerate_triples(2, kind) == ()


def test_enumerate_triples_refuses_an_unknown_kind():
    # a typo must not fall through to the unrestricted type-II family
    for kind in ("bogus", "i", "IIR"):
        with pytest.raises(ValueError):
            enumerate_triples(5, kind)


def test_restriction_excludes_i1():
    for n in range(3, 6):
        full = enumerate_triples(n, "II")
        restricted = enumerate_triples(n, "IIr")
        assert set(restricted) == {t for t in full if t[3] != 1}


def test_seven_vertex_shapes():
    # type-I and restricted type-II triples read off seven-vertex Dyck paths
    assert is_type1((2, 3, 5, 6, 6, 7, 7), (2, 4, 5, 6, 6, 7, 7), (2, 5, 5, 6, 6, 7, 7), 2)
    assert is_type2(
        (2, 4, 5, 5, 6, 7, 7), (2, 4, 5, 6, 6, 7, 7), (2, 4, 6, 6, 6, 7, 7), 3, restricted=True
    )


def test_enumerated_triples_satisfy_predicates():
    for n in range(3, 6):
        for m, mp, mpp, i in enumerate_triples(n, "I"):
            assert is_type1(m, mp, mpp, i)
        for m, mp, mpp, i in enumerate_triples(n, "IIr"):
            assert is_type2(m, mp, mpp, i, restricted=True)


def step_factor(sign, s, t):
    """sign * q**s * (1+q)**t as a QRat."""
    return QRat(sign * Q**s * q_int(2) ** max(t, 0), q_int(2) ** max(-t, 0))


def certificate_sum(m):
    """The law's terms at m summed over Q(q), each factor times its child's certificate."""
    combined = {}
    for sign, s, t, child in reduction_step(m):
        for key, c in reduce_to_paths(child).items():
            combined[key] = combined.get(key, QRat(0)) + step_factor(sign, s, t) * c
    return {k: v for k, v in combined.items() if not v.is_zero()}


def test_reduction_step_flat_example():
    m = (2, 4, 4, 4)
    assert reduction_step(m) == ((1, 0, 1, (2, 3, 4, 4)), (-1, 1, 0, (2, 2, 4, 4)))
    assert is_type1((2, 2, 4, 4), (2, 3, 4, 4), m, 2)


def test_reduction_step_nonflat_example():
    m = (2, 4, 4, 5, 5)
    terms = reduction_step(m)
    m_1, m0, m0_1 = (child for *_, child in terms)
    assert terms == (
        (1, 0, 0, (2, 3, 5, 5, 5)),
        (1, 1, -1, (2, 4, 4, 4, 5)),
        (-1, 1, -1, (2, 2, 5, 5, 5)),
    )
    assert area(m0) < area(m) and area(m0_1) < area(m)
    assert area(m_1) == area(m)


def test_reduction_step_refuses_a_union_of_paths():
    for m in (path(4), (1, 3, 3), (2, 2, 3), (1,)):
        with pytest.raises(ValueError):
            reduction_step(m)


def test_reduction_steps_each_non_path_m_once(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return reduction_step(m)

    monkeypatch.setattr(modular, "reduction_step", counted)
    reduce_to_paths.cache_clear()
    ms = [m for n in range(1, 8) for m in enumerate_hess(n)]
    for m in ms:
        reduce_to_paths(m)
    assert sorted(calls) == sorted(m for m in ms if path_components(m) is None)


def _moved(m, i, delta):
    """m with m(i) moved by delta."""
    return m[: i - 1] + (m[i - 1] + delta,) + m[i:]


def _reference_case(m):
    """The case split stated directly: (alpha, beta, flat) for m not a union of paths.

    alpha is the largest value in [n-1] missed by m such that alpha + 1 is
    attained, with least preimage beta < alpha; m is flat when
    m(alpha) = m(alpha+1)."""
    n = len(m)
    for alpha in range(n - 1, 0, -1):
        preimages = [i for i in range(1, n + 1) if m[i - 1] == alpha + 1]
        if alpha not in m and preimages and min(preimages) < alpha:
            return alpha, min(preimages), m[alpha - 1] == m[alpha]
    return None


def _reference_terms(m):
    """The law's terms at m from the reference case: a flat m tops the type-I
    triple of its lowerings at beta; a non-flat m is the middle of the type-II
    triple at alpha, whose top m2 tops the type-I triple of its lowerings at beta."""
    alpha, beta, flat = _reference_case(m)
    if flat:
        return ((1, 0, 1, _moved(m, beta, -1)), (-1, 1, 0, _moved(m, beta, -2)))
    m2 = _moved(m, alpha, 1)
    return (
        (1, 0, 0, _moved(m2, beta, -1)),
        (1, 1, -1, _moved(m, alpha + 1, -1)),
        (-1, 1, -1, _moved(m2, beta, -2)),
    )


def test_reduction_step_picks_the_case_at_the_examples():
    assert _reference_case((2, 4, 4, 4)) == (3, 2, True)
    assert reduction_step((2, 4, 4, 4)) == _reference_terms((2, 4, 4, 4))
    assert len(reduction_step((2, 4, 4, 4))) == 2
    assert _reference_case((2, 4, 4, 5, 5)) == (3, 2, False)
    assert reduction_step((2, 4, 4, 5, 5)) == _reference_terms((2, 4, 4, 5, 5))
    assert len(reduction_step((2, 4, 4, 5, 5))) == 3


def test_reduction_step_agrees_with_the_reference_case_split():
    stepped = 0
    for n in range(1, 9):
        for m in enumerate_hess(n):
            if path_components(m) is None:
                assert reduction_step(m) == _reference_terms(m), m
                stepped += 1
    assert stepped == 1800


def test_a_missing_split_point_is_an_invariant_violation(monkeypatch):
    # a path has no split point; with the path test disabled the step must say so in its own type
    monkeypatch.setattr(modular, "path_components", lambda m: None)
    with pytest.raises(InvariantViolation, match="no split point"):
        reduction_step(path(4))


def test_area_is_not_modular():
    # sanity for the checker: the law fails for f = area as a constant
    m = (2, 4, 4, 4)
    terms = reduction_step(m)
    law = sum((step_factor(sign, s, t) * QRat(area(child)) for sign, s, t, child in terms), QRat(0))
    assert law != QRat(area(m))


def test_reduce_path_case():
    assert reduce_to_paths(path(3)) == {(3,): QRat(1)}
    assert reduce_to_paths((1, 3, 3)) == {(1, 2): QRat(1)}
    assert reduce_to_paths((2, 2, 3)) == {(2, 1): QRat(1)}


def test_reduce_flat_merges_children():
    m = (2, 4, 4, 4)
    assert certificate_sum(m) == reduce_to_paths(m)


def test_reduce_nonflat_merges_children():
    m = (2, 4, 4, 5, 5)
    combined = certificate_sum(m)
    assert combined == reduce_to_paths(m)
    assert any(not c.den.is_one() for c in combined.values())


def test_every_certificate_denominator_is_a_power_of_one_plus_q():
    for n in range(1, 8):
        for m in enumerate_hess(n):
            for c in reduce_to_paths(m).values():
                assert c.den == q_int(2) ** c.den.degree, (m, c)


def test_certificate_bytes_are_pinned():
    # SHA-256 of the certificate JSON of every m with n <= 7, in enumeration order
    digest = hashlib.sha256()
    ms = [m for n in range(1, 8) for m in enumerate_hess(n)]
    for m in ms:
        digest.update(json.dumps(certificate_json(m, reduce_to_paths(m))).encode())
    assert len(ms) == 625
    assert digest.hexdigest() == "6aaa664b2293c4bd2c9a0a0cbac714bcd0b83ee5a731cd8da19555141a0d951d"


def test_certificate_bytes_are_pinned_at_n8():
    # SHA-256 of the certificate JSON of every m of length 8, in enumeration order
    digest = hashlib.sha256()
    ms = list(enumerate_hess(8))
    for m in ms:
        digest.update(json.dumps(certificate_json(m, reduce_to_paths(m))).encode())
    assert len(ms) == 1430
    assert digest.hexdigest() == "35f7f439076c7de24c5f0cecba759b8f77e1a085f651f73a43bcffb077890bb6"


def test_equal_coefficients_in_two_certificates_are_one_object():
    seen, entries = {}, 0
    for m in enumerate_hess(6):
        for c in reduce_to_paths(m).values():
            assert seen.setdefault((c.num, c.den), c) is c, (m, c)
            entries += 1
    assert len(seen) < entries  # values do recur


def test_reduce_result_is_read_only():
    m = (3, 4, 4, 5, 5)
    cert = reduce_to_paths(m)
    expected = dict(cert)
    with pytest.raises(TypeError):
        cert[(5,)] = QRat(0)
    with pytest.raises(AttributeError):
        cert.clear()
    assert dict(reduce_to_paths(m)) == expected and expected


def test_reduce_terminates_to_n7():
    for n in range(1, 8):
        for m in enumerate_hess(n):
            cert = reduce_to_paths(m)
            assert all(sum(key) == n for key in cert)
            assert all(not c.is_zero() for c in cert.values())


def test_reduce_determinism():
    first = dict(reduce_to_paths((3, 4, 4, 5, 5)))
    reduce_to_paths.cache_clear()
    second = dict(reduce_to_paths((3, 4, 4, 5, 5)))
    assert first == second


def test_evaluate_reduce_round_trip():
    # from cold caches, evaluating certificates runs no engine
    engine_caches = (transition._table, gfunctions._cycle_stats, gfunctions._cycle_sums, s_fun)
    for cache in engine_caches + (modular.path_union_closed,):
        cache.cache_clear()
    ms = [m for n in range(1, 6) for m in enumerate_hess(n)]
    values = {(m, b): evaluate(reduce_to_paths(m), b) for m in ms for b in "EGS"}
    assert [cache.cache_info().currsize for cache in engine_caches] == [0, 0, 0, 0]
    for m in ms:
        direct = {"E": e_total(m), "G": g_total(m), "S": s_fun(m)}
        assert all(values[m, b] == direct[b] for b in "EGS"), m


def test_closed_form_matches_every_engine_on_path_unions():
    for n in range(1, 8):
        for key in compositions(n):
            m = reduce(hsum, map(path, key))
            direct = {"E": e_total(m), "G": g_total(m), "S": s_fun(m)}
            for b, value in direct.items():
                assert evaluate({key: RAT_ONE}, b) == value, (key, b)


def test_order_of_components_is_significant():
    # the one-edge-plus-isolated-vertex unions in the two orders
    assert e_total((1, 3, 3)) != e_total((2, 2, 3))
    assert reduce_to_paths((1, 3, 3)) != reduce_to_paths((2, 2, 3))


def test_evaluate_degree_mismatch():
    cert = {(2,): QRat(1), (1, 2): QRat(1)}
    with pytest.raises(DegreeMismatch):
        evaluate(cert, "E")
    with pytest.raises(DegreeMismatch):
        evaluate({(2,): QRat(1)}, lambda key: SymFun.one())
    with pytest.raises(DegreeMismatch):
        evaluate({}, "E")


def test_evaluate_refuses_a_value_outside_polynomials():
    # the contraction is taken over Q(q) and must land in Z[q]
    with pytest.raises(NotDivisible):
        evaluate({(1,): QRat(ONE, q_int(2))}, "E")
    assert evaluate({(1,): QRat(q_int(2), q_int(2))}, "E") == SymFun.e_term((1,))
    # a denominator that does not divide the largest, and a sum over (1+q)**3 that leaves Z[q]
    for den in (q_int(3), q_int(2) ** 3):
        with pytest.raises(NotDivisible):
            evaluate({(2,): QRat(ONE, q_int(2)), (1, 1): QRat(ONE, den)}, "E")


def test_checker_passes_for_s_small():
    for kind in ("I", "IIr"):
        for triple in enumerate_triples(4, kind):
            assert law_defect(s_fun, triple).is_zero(), (kind, triple)


def test_checker_flags_unrestricted_violation_for_s():
    triple = ((2, 2, 3), (2, 3, 3), (3, 3, 3), 1)
    assert is_type2(*triple[:3], 1)
    assert not law_defect(s_fun, triple).is_zero()
    failing = [
        (kind, t)
        for kind in ("I", "II")
        for t in enumerate_triples(3, kind)
        if not law_defect(s_fun, t).is_zero()
    ]
    assert failing == [("II", triple)]


def test_certificate_json_round_trip():
    m = (3, 4, 4, 5, 5)
    cert = reduce_to_paths(m)
    data = certificate_json(m, cert)
    assert data["n"] == 5
    assert certificate_from_json(data) == cert


def test_certificates_read_back_render_as_the_originals():
    # values parsed by certificate_from_json are built by QRat(), not shared
    ms = [m for n in range(1, 7) for m in enumerate_hess(n)]
    expected = {
        (m, emit): certificate_text(m, reduce_to_paths(m), emit) for m in ms for emit in ("text", "json")
    }
    kept = {m: certificate_from_json(certificate_json(m, reduce_to_paths(m))) for m in ms}
    shared = {id(c) for m in ms for c in reduce_to_paths(m).values()}
    assert not any(id(c) in shared for cert in kept.values() for c in cert.values())
    for _ in range(3):
        fresh = {m: certificate_from_json(json.loads(expected[m, "json"])) for m in ms}
        for (m, emit), text in expected.items():
            assert certificate_text(m, kept[m], emit) == text, (m, emit)
            assert certificate_text(m, fresh[m], emit) == text, (m, emit)
        del fresh
        # many short-lived rendered values, so that freed ids are handed out again
        for k in range(20000):
            str(QRat(k, q_int(2) ** (k % 4))) + QRat(-k).json_text()
        gc.collect()


def test_certificates_read_back_keep_their_packed_forms():
    for n in range(1, 7):
        for m in enumerate_hess(n):
            cert = reduce_to_paths(m)
            back = certificate_from_json(certificate_json(m, cert))
            assert {k: c.packed_form() for k, c in back.items()} == {
                k: c.packed_form() for k, c in cert.items()
            }, m


def test_certificate_json_is_a_fresh_tree_each_call():
    m = (3, 4, 4, 5, 5)
    data = certificate_json(m, reduce_to_paths(m))
    data["terms"][0]["coeff"]["num"].append("7")
    assert certificate_json(m, reduce_to_paths(m)) != data


def test_certificate_text_refuses_an_unknown_format():
    m = (2, 2)
    with pytest.raises(ValueError):
        certificate_text(m, reduce_to_paths(m), "yaml")
