"""Hessenberg functions: validation, views, constructors, path components."""

import pytest

from chromsym.hessenberg import (
    area,
    edges,
    enumerate_hess,
    hess,
    hsum,
    path,
    path_components,
    poset_less,
)
from chromsym.modular import reduction_step

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_validation():
    assert hess("2,3,5,5,5") == (2, 3, 5, 5, 5)
    with pytest.raises(ValueError):
        hess((2, 1))
    with pytest.raises(ValueError):
        hess((0, 2))
    with pytest.raises(ValueError):
        hess((1, 3))


def test_parse_variants():
    assert hess("2 3 5 5 5") == (2, 3, 5, 5, 5)
    assert hess([2, 3, 3]) == (2, 3, 3)


def test_an_entry_that_is_not_an_int_is_refused():
    # strings are parsed first; anything else must already be an int, not truncated to one
    for values, position in (([2.7, 2], 1), ([2, 2.0], 2), ((2, "3", 3), 2), ([1, None], 2), ([True], 1)):
        with pytest.raises(ValueError, match=f"position {position}"):
            hess(values)
    with pytest.raises(ValueError):
        hess("2.7,2")


def test_edge_or_comparable_dichotomy():
    for n in range(1, 6):
        for m in enumerate_hess(n):
            es = set(edges(m))
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    assert ((i, j) in es) != poset_less(m, i, j)


def test_area_examples():
    assert area((1, 2, 3)) == 0
    assert area((2, 3, 5, 5, 5)) == 5
    for n in range(1, 7):
        assert area((n,) * n) == n * (n - 1) // 2


def test_edges_and_poset():
    m = (2, 3, 5, 5, 5)
    assert set(edges(m)) == {(1, 2), (2, 3), (3, 4), (3, 5), (4, 5)}
    assert poset_less(m, 1, 3)
    assert not poset_less(m, 1, 2)
    assert edges(tuple(range(1, 6))) == ()
    with pytest.raises(IndexError):
        poset_less(m, 0, 3)


def test_hsum_examples():
    assert hsum(path(1), path(2)) == (1, 3, 3)
    m = (2, 3, 3)
    assert hsum(m, (1,)) == (2, 3, 3, 4)


def test_sum_edge_disjointness():
    for m1 in enumerate_hess(3):
        for m2 in enumerate_hess(2):
            combined = set(edges(hsum(m1, m2)))
            shifted = {(i + 3, j + 3) for i, j in edges(m2)}
            assert combined == set(edges(m1)) | shifted


def test_path_values():
    assert path(1) == (1,)
    assert path(5) == (2, 3, 4, 5, 5)


def test_path_components():
    assert path_components((1, 3, 3)) == (1, 2)
    assert path_components((3, 3, 3)) is None
    assert path_components(path(6)) == (6,)


def test_enumerate_counts():
    for n in range(1, 9):
        assert len(enumerate_hess(n)) == CATALAN[n]
    assert enumerate_hess(1) == ((1,),)
    # a Hessenberg function has positive length, so there are none below n = 1
    for n in (0, -1):
        assert enumerate_hess(n) == ()


def _reference_path_components(m):
    """Path component sizes from a graph search over edges(m): the reference."""
    n = len(m)
    neighbours = {v: set() for v in range(1, n + 1)}
    for i, j in edges(m):
        neighbours[i].add(j)
        neighbours[j].add(i)
    seen, sizes = set(), []
    for start in range(1, n + 1):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for w in neighbours[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        comp_edges = [e for e in edges(m) if e[0] in comp]
        if len(comp_edges) != len(comp) - 1 or any(len(neighbours[v]) > 2 for v in comp):
            return None
        sizes.append(len(comp))
    return tuple(sizes)


def test_unions_of_paths_agree_with_the_graph_reference():
    # path_components finds them, and reduction_step refuses exactly them
    for n in range(1, 9):
        for m in enumerate_hess(n):
            parts = _reference_path_components(m)
            assert path_components(m) == parts, m
            if parts is None:
                assert reduction_step(m), m
            else:
                with pytest.raises(ValueError):
                    reduction_step(m)
