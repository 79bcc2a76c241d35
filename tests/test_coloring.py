"""The proper-coloring oracle."""

import ast
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from chromsym import coloring
from chromsym.coloring import content_coefficient, inv_coloring, x_colorings
from chromsym.errors import NotProper, SizeLimitExceeded
from chromsym.hessenberg import edges, enumerate_hess, hsum, path
from chromsym.qpoly import QPoly, q_int
from chromsym.symfunc import SymFun


def test_inv_examples():
    assert inv_coloring((2, 2), (2, 1)) == 1
    assert inv_coloring((2, 2), (1, 2)) == 0
    assert inv_coloring((2, 3, 3), (1, 2, 3)) == 0
    with pytest.raises(NotProper):
        inv_coloring((2, 2), (1, 1))


def test_x_examples():
    assert x_colorings((1,)) == SymFun.term("m", (1,))
    assert x_colorings((2, 2)) == SymFun.term("m", (1, 1), q_int(2))
    assert x_colorings((2, 2)).to_e() == q_int(2) * SymFun.e_term((2,))
    # edgeless: e_1^3 in the monomial basis
    expected = (
        SymFun.term("m", (3,))
        + SymFun.term("m", (2, 1), 3)
        + SymFun.term("m", (1, 1, 1), 6)
    )
    assert x_colorings((1, 2, 3)) == expected


def test_multiplicativity():
    for m1 in enumerate_hess(2):
        for m2 in enumerate_hess(3):
            assert x_colorings(hsum(m1, m2)) == x_colorings(m1) * x_colorings(m2)


def test_symmetry_of_representatives():
    # the same m_lam coefficient from two different color assignments
    for m in [path(4), (2, 4, 4, 4), (3, 3, 4, 4)]:
        for lam in [(2, 1, 1), (2, 2), (3, 1)]:
            standard = content_coefficient(m, {i + 1: lam[i] for i in range(len(lam))})
            rotated = content_coefficient(
                m, {len(lam) - i: lam[i] for i in range(len(lam))}
            )
            spread = content_coefficient(m, {2 * i + 1: lam[i] for i in range(len(lam))})
            assert standard == rotated == spread, (m, lam)


def test_size_limit():
    with pytest.raises(SizeLimitExceeded):
        x_colorings(path(9))


def test_complete_graph():
    # all proper colorings of K_3 with 3 distinct colors: 3! orderings
    poly = content_coefficient((3, 3, 3), {1: 1, 2: 1, 3: 1})
    assert poly(1) == 6
    assert poly == QPoly((1, 2, 2, 1))  # [3]_q! by inv distribution


def _brute_force(m, colors):
    """q^inv over all proper colorings with colors 1..colors, by content."""
    edge_list = edges(m)
    out = {}
    for coloring_ in product(range(1, colors + 1), repeat=len(m)):
        if any(coloring_[i - 1] == coloring_[j - 1] for i, j in edge_list):
            continue
        counts = Counter(coloring_)
        content = tuple(counts[c] for c in range(1, colors + 1))
        inv = sum(1 for i, j in edge_list if coloring_[i - 1] > coloring_[j - 1])
        out[content] = out.get(content, QPoly()) + QPoly((1,)).shifted(inv)
    return out


def test_content_coefficient_matches_brute_force():
    # every content, as a composition: each color used at least once, in any order
    for n in range(1, 6):
        for m in enumerate_hess(n):
            for colors in range(1, n + 1):
                expected = _brute_force(m, colors)
                for content in product(range(1, n + 1), repeat=colors):
                    if sum(content) != n:
                        continue
                    got = content_coefficient(m, {c + 1: k for c, k in enumerate(content)})
                    assert got == expected.get(content, QPoly()), (m, content)


def test_content_must_be_a_multiset_of_size_n():
    with pytest.raises(ValueError):
        content_coefficient((1, 2), {1: 3, 2: -1})
    with pytest.raises(ValueError):
        content_coefficient((1, 2), {1: 1})


def test_coloring_imports_no_other_engine():
    engines = {"ptableaux", "transition", "gfunctions", "orientations", "modular"}
    tree = ast.parse(Path(coloring.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert imported & engines == set()
    assert "hessenberg" in imported  # the walk does see the real imports
