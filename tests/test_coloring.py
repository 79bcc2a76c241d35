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
from chromsym.partitions import partitions
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


def test_content_coefficient_size_limit_before_any_work():
    before = coloring._class_counts.cache_info()
    for multiplicities in ({1: 9}, {1: 5, 2: 4}, {1: 1}):  # the last is not even of size 9
        with pytest.raises(SizeLimitExceeded):
            content_coefficient(path(9), multiplicities)
    assert coloring._class_counts.cache_info() == before


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


def _backtrack_content_coefficient(m, multiplicities):
    """The vertex-by-vertex search the oracle used before counting by color class.

    Colors vertices 1..n in order from what is left of the multiset; the
    earlier neighbours of v form the interval [lo(v), v), a color one of them
    has is pruned, and inv grows by those holding a larger color.
    """
    n = len(m)
    left = [multiplicities[c] for c in sorted(multiplicities) if multiplicities[c] > 0]
    lo = [next(u for u in range(v + 1) if m[u] > v) for v in range(n)]
    color = [0] * n
    total = [0] * (len(edges(m)) + 1)

    def place(v, inv):
        taken = color[lo[v] : v]
        larger = len(taken)
        for c, count in enumerate(left):
            if c in taken:
                larger -= 1
            elif not count:
                continue
            elif v == n - 1:
                total[inv + larger] += 1
            else:
                left[c] = count - 1
                color[v] = c
                place(v + 1, inv + larger)
                left[c] = count

    place(0, 0)
    return QPoly(total)


def test_content_coefficient_matches_backtracking_reference():
    # every partition of n and its reversal, as compositions in that color order
    for n in range(1, 7):
        for m in enumerate_hess(n):
            for lam in partitions(n):
                for content in (lam, lam[::-1]):
                    multiplicities = {c + 1: k for c, k in enumerate(content)}
                    expected = _backtrack_content_coefficient(m, multiplicities)
                    assert content_coefficient(m, multiplicities) == expected, (m, content)


def test_class_tables_do_not_leak_across_m():
    # the per-m tables are kept for the latest m only: m1, m2, m1 must each read as a cold call
    def content(m):
        return {c + 1: k for c, k in enumerate((2,) + (1,) * (len(m) - 2))}

    def cold(m):
        coloring._class_counts.cache_clear()
        return content_coefficient(m, content(m))

    for m1, m2 in [((2, 3, 3), (2, 4, 4, 4)), ((2, 4, 4, 4), (3, 3, 4, 4)), ((4, 4, 4, 4), path(4))]:
        expected = [_backtrack_content_coefficient(m, content(m)) for m in (m1, m2, m1)]
        assert [cold(m) for m in (m1, m2, m1)] == expected, (m1, m2)
        coloring._class_counts.cache_clear()
        assert [content_coefficient(m, content(m)) for m in (m1, m2, m1)] == expected, (m1, m2)


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
