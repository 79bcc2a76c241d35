"""Partitions, tableaux, and Kostka numbers against brute-force oracles."""

from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, strategies as st

from chromsym.errors import SizeMismatch
from chromsym.partitions import (
    all_syt,
    conjugate,
    dominates,
    entry_column,
    enumerate_syt,
    kostka,
    partitions,
    vertical_strips,
)


def brute_kostka(shape, content):
    """Independent oracle: enumerate semistandard fillings cell by cell."""
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    counts = list(content)

    def fill(idx, grid):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        total = 0
        for v in range(1, len(counts) + 1):
            if counts[v - 1] == 0:
                continue
            if j > 0 and grid[(i, j - 1)] > v:
                continue
            if i > 0 and grid[(i - 1, j)] >= v:
                continue
            counts[v - 1] -= 1
            grid[(i, j)] = v
            total += fill(idx + 1, grid)
            counts[v - 1] += 1
            del grid[(i, j)]
        return total

    return fill(0, {})


def hook_length_count(shape):
    conj = conjugate(shape)
    n = sum(shape)
    count = factorial(n)
    for i, row in enumerate(shape):
        for j in range(row):
            count //= row - j + conj[j] - i - 1
    return count


partition_st = st.integers(0, 8).flatmap(
    lambda n: st.sampled_from(partitions(n)) if n else st.just(())
)


def test_conjugate_examples():
    assert conjugate((4, 3, 1)) == (3, 2, 2, 1)
    assert conjugate(()) == ()
    assert conjugate((1, 1, 1)) == (3,)


@given(partition_st)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


def test_partition_listing():
    assert partitions(0) == ((),)
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions(8)) == 22


def test_kostka_examples():
    assert kostka((2,), (1, 1)) == 1
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((1, 1), (2,)) == 0


def test_kostka_size_mismatch():
    with pytest.raises(SizeMismatch):
        kostka((2, 1), (1, 1))


def test_kostka_against_brute_force():
    for n in range(0, 6):
        for lam in partitions(n):
            for mu in partitions(n):
                assert kostka(lam, mu) == brute_kostka(lam, mu), (lam, mu)


def test_kostka_permutation_invariance():
    for n in range(1, 7):
        for lam in partitions(n):
            for mu in partitions(n):
                if len(mu) > 4:
                    continue
                reference = kostka(lam, mu)
                for perm in permutations(mu):
                    assert brute_kostka(lam, perm) == reference, (lam, perm)


def test_kostka_diagonal_and_dominance():
    for n in range(1, 7):
        for lam in partitions(n):
            assert kostka(lam, lam) == 1
            for mu in partitions(n):
                if not dominates(lam, mu):
                    assert kostka(lam, mu) == 0, (lam, mu)


def test_syt_counts_match_hook_lengths():
    for n in range(1, 8):
        for lam in partitions(n):
            assert len(enumerate_syt(lam)) == hook_length_count(lam), lam


def test_syt_examples():
    assert len(enumerate_syt((4,))) == 1
    tabs = enumerate_syt((2, 1))
    assert len(tabs) == 2


def test_syt_are_standard():
    for tab in all_syt(5):
        entries = sorted(x for row in tab for x in row)
        assert entries == list(range(1, 6))
        for row in tab:
            assert all(row[i] < row[i + 1] for i in range(len(row) - 1))
        for i in range(len(tab) - 1):
            for j in range(len(tab[i + 1])):
                assert tab[i][j] < tab[i + 1][j]


def test_entry_column():
    assert entry_column(((1, 2), (3,)), 2) == 2
    assert entry_column(((1, 2), (3,)), 3) == 1


def test_vertical_strips_examples():
    assert set(vertical_strips((1,))) == {(), (1,)}
    assert set(vertical_strips((2, 1))) == {(2, 1), (1, 1), (2,), (1,)}
    assert vertical_strips(()) == ((),)


@given(partition_st)
def test_vertical_strips_rows_drop_by_at_most_one(lam):
    for mu in vertical_strips(lam):
        padded = mu + (0,) * (len(lam) - len(mu))
        assert all(lam[i] - padded[i] in (0, 1) for i in range(len(lam)))
