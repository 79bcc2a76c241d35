"""Modular triples, the reduction algorithm, and certificate evaluation."""

import ast
import hashlib
import json
from functools import reduce
from pathlib import Path

import pytest

from chromsym import gfunctions, modular, transition
from chromsym.errors import DegreeMismatch, NotDivisible, NotFlat, NotNonFlat
from chromsym.gfunctions import g_total
from chromsym.hessenberg import area, enumerate_hess, hsum, path
from chromsym.modular import (
    certificate_from_json,
    certificate_json,
    check_restricted_modular_law,
    enumerate_triples,
    evaluate,
    is_type1,
    is_type2,
    law_defect,
    reduce_to_paths,
    split_flat,
    split_nonflat,
)
from chromsym.partitions import compositions
from chromsym.ptableaux import s_fun
from chromsym.qpoly import ONE, RAT_ONE, QRat, q_int
from chromsym.symfunc import SymFun
from chromsym.transition import e_total


def test_no_triples_at_n2():
    for kind in ("I", "II", "IIr"):
        assert enumerate_triples(2, kind) == ()


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


def test_split_flat_example():
    assert split_flat((2, 4, 4, 4)) == ((2, 2, 4, 4), (2, 3, 4, 4))
    m0, m1 = split_flat((2, 4, 4, 4))
    assert is_type1(m0, m1, (2, 4, 4, 4), 2)
    with pytest.raises(NotFlat):
        split_flat(path(4))


def test_split_nonflat_example():
    m = (2, 4, 4, 5, 5)
    m0, m0_1, m_1 = split_nonflat(m)
    assert (m0, m0_1, m_1) == ((2, 4, 4, 4, 5), (2, 2, 5, 5, 5), (2, 3, 5, 5, 5))
    assert area(m0) < area(m) and area(m0_1) < area(m)
    assert area(m_1) == area(m)
    with pytest.raises(NotNonFlat):
        split_nonflat((2, 4, 4, 4))


def test_area_is_not_modular():
    # sanity for the checker: the law fails for f = area as a constant
    from chromsym.qpoly import Q, QPoly

    m = (2, 4, 4, 4)
    m0, m1 = split_flat(m)
    lhs = QRat(QPoly((1, 1))) * QRat(area(m1))
    rhs = QRat(Q) * QRat(area(m0)) + QRat(area(m))
    assert lhs != rhs


def test_reduce_path_case():
    assert reduce_to_paths(path(3)) == {(3,): QRat(1)}
    assert reduce_to_paths((1, 3, 3)) == {(1, 2): QRat(1)}
    assert reduce_to_paths((2, 2, 3)) == {(2, 1): QRat(1)}


def test_reduce_flat_merges_children():
    m = (2, 4, 4, 4)
    m0, m1 = split_flat(m)
    from chromsym.qpoly import QPoly, Q

    combined = {}
    for key, c in reduce_to_paths(m1).items():
        combined[key] = combined.get(key, QRat(0)) + QRat(QPoly((1, 1))) * c
    for key, c in reduce_to_paths(m0).items():
        combined[key] = combined.get(key, QRat(0)) + QRat(-Q) * c
    combined = {k: v for k, v in combined.items() if not v.is_zero()}
    assert combined == reduce_to_paths(m)


def test_reduce_nonflat_merges_children():
    m = (2, 4, 4, 5, 5)
    m0, m0_1, m_1 = split_nonflat(m)
    from chromsym.qpoly import Q

    ratio = QRat(Q, q_int(2))
    combined = {}
    for child, factor in ((m_1, QRat(1)), (m0, ratio), (m0_1, -ratio)):
        for key, c in reduce_to_paths(child).items():
            combined[key] = combined.get(key, QRat(0)) + factor * c
    combined = {k: v for k, v in combined.items() if not v.is_zero()}
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
    engine_caches = (transition._table_raw, gfunctions._cycle_stats, gfunctions._gfuns, s_fun)
    for cache in engine_caches + (modular.path_union_closed,):
        cache.cache_clear()
    ms = [m for n in range(1, 6) for m in enumerate_hess(n)]
    values = {(m, b): evaluate(reduce_to_paths(m), b) for m in ms for b in "EGS"}
    assert [cache.cache_info().currsize for cache in engine_caches] == [0, 0, 0, 0]
    for m in ms:
        direct = {"E": e_total(m), "G": g_total(m), "S": s_fun(m).to_e()}
        assert all(values[m, b] == direct[b] for b in "EGS"), m


def test_closed_form_matches_every_engine_on_path_unions():
    for n in range(1, 8):
        for key in compositions(n):
            m = reduce(hsum, map(path, key))
            direct = {"E": e_total(m), "G": g_total(m), "S": s_fun(m).to_e()}
            for b, value in direct.items():
                assert evaluate({key: RAT_ONE}, b) == value, (key, b)


def test_modular_imports_only_the_path_closed_forms():
    tree = ast.parse(Path(modular.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(node in tree.body for node in imports)  # none inside a function
    assert all(isinstance(node, ast.ImportFrom) for node in imports)
    sources = {(node.module or "").split(".")[-1]: node for node in imports}
    assert "hessenberg" in sources  # the walk does see the real imports
    assert not sources.keys() & {"transition", "ptableaux", "coloring", "orientations"}
    assert [a.name for a in sources["gfunctions"].names] == ["path_e_closed", "path_x_closed"]
    private = [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr[0] == "_"]
    assert private == []  # QRat is read through its public fields and constructors


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


def test_checker_passes_for_s_small():
    violations = check_restricted_modular_law(lambda m: s_fun(m).to_e(), 4)
    assert violations == []


def test_checker_flags_unrestricted_violation_for_s():
    triple = ((2, 2, 3), (2, 3, 3), (3, 3, 3), 1)
    assert is_type2(*triple[:3], 1)
    assert not law_defect(lambda m: s_fun(m).to_e(), triple).is_zero()
    report = check_restricted_modular_law(
        lambda m: s_fun(m).to_e(), 3, kinds=("I", "II")
    )
    assert [(v["kind"], v["i"]) for v in report] == [("II", 1)]
    assert report[0]["triple"] == triple[:3]


def test_certificate_json_round_trip():
    m = (3, 4, 4, 5, 5)
    cert = reduce_to_paths(m)
    data = certificate_json(m, cert)
    assert data["n"] == 5
    assert certificate_from_json(data) == cert
