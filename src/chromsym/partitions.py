"""Partitions, compositions, standard Young tableaux, and Kostka numbers.

Partitions are plain tuples of weakly decreasing positive integers (the empty
partition is ``()``); standard Young tableaux are tuples of row tuples.  All
enumeration orders are deterministic so test snapshots stay stable.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .errors import SizeMismatch

Partition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]


def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(isinstance(p, int) and p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_partition(parts) -> Partition:
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    return parts


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic order, largest part first."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(rest: int, cap: int) -> Iterator[Partition]:
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(n, n))


def conjugate(shape: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not shape:
        return ()
    out = []
    for j in range(shape[0]):
        out.append(sum(1 for p in shape if p > j))
    return tuple(out)


def dominates(lam: Partition, mu: Partition) -> bool:
    """True when lam >= mu in dominance order (equal sizes assumed)."""
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


@lru_cache(maxsize=None)
def compositions(n: int) -> tuple[tuple[int, ...], ...]:
    """All compositions of n into positive parts, deterministic order."""
    if n == 0:
        return ((),)
    out = []
    for first in range(n, 0, -1):
        for tail in compositions(n - first):
            out.append((first,) + tail)
    return tuple(out)


def _horizontal_strip_shrinks(shape: Partition, size: int) -> Iterator[Partition]:
    """Partitions mu inside ``shape`` with shape/mu a horizontal strip of ``size``."""

    def gen(i: int, rest: int) -> Iterator[list[int]]:
        if i == len(shape):
            if rest == 0:
                yield []
            return
        # interlacing: shape[i] >= keep >= shape[i+1] makes shape/mu a
        # horizontal strip and mu a partition automatically
        lo = shape[i + 1] if i + 1 < len(shape) else 0
        hi = shape[i]
        for keep in range(hi, lo - 1, -1):
            removed = hi - keep
            if removed > rest:
                break
            for tail in gen(i + 1, rest - removed):
                yield [keep] + tail

    for rows in gen(0, size):
        yield tuple(p for p in rows if p > 0)


@lru_cache(maxsize=None)
def _kostka_sorted(shape: Partition, content: tuple[int, ...]) -> int:
    if not content:
        return 1 if not shape else 0
    last = content[-1]
    total = 0
    for mu in _horizontal_strip_shrinks(shape, last):
        total += _kostka_sorted(mu, content[:-1])
    return total


def kostka(shape, content) -> int:
    """Number of semistandard Young tableaux of the given shape and content.

    The count is invariant under permuting the content, which justifies the
    sorted memo key.
    """
    shape = check_partition(shape)
    content = tuple(content)
    if any(c < 0 for c in content):
        raise ValueError("content entries must be nonnegative")
    if sum(shape) != sum(content):
        raise SizeMismatch(f"|{shape}| != |{content}|")
    key = tuple(sorted((c for c in content if c > 0), reverse=True))
    return _kostka_sorted(shape, key)


def shape_of(tableau: Tableau) -> Partition:
    return tuple(len(row) for row in tableau)


def row_word(tableau: Tableau) -> tuple[int, ...]:
    return tuple(x for row in tableau for x in row)


@lru_cache(maxsize=None)
def enumerate_syt(shape: Partition) -> tuple[Tableau, ...]:
    """All standard Young tableaux of the given shape.

    Built by repeatedly removing the largest entry from a corner; the result
    is sorted by row-reading word.
    """
    shape = check_partition(shape)
    n = sum(shape)
    if n == 0:
        return ((),)
    out = []
    for i, part in enumerate(shape):
        is_corner = (i + 1 == len(shape) or shape[i + 1] < part)
        if not is_corner:
            continue
        smaller = list(shape)
        smaller[i] -= 1
        sub = tuple(p for p in smaller if p > 0)
        for t in enumerate_syt(sub):
            rows = [list(r) for r in t]
            while len(rows) <= i:
                rows.append([])
            rows[i].append(n)
            out.append(tuple(tuple(r) for r in rows))
    out.sort(key=row_word)
    return tuple(out)


def all_syt(n: int) -> tuple[Tableau, ...]:
    return tuple(t for lam in partitions(n) for t in enumerate_syt(lam))


def entry_column(tableau: Tableau, entry: int) -> int:
    """1-based column of an entry."""
    for row in tableau:
        for j, x in enumerate(row):
            if x == entry:
                return j + 1
    raise ValueError(f"entry {entry} not in tableau")


def vertical_strips(shape: Partition) -> tuple[Partition, ...]:
    """All mu inside ``shape`` with shape/mu a vertical strip (mu = shape included)."""
    shape = check_partition(shape)

    def gen(i: int) -> Iterator[list[int]]:
        if i == len(shape):
            yield []
            return
        for keep in (shape[i], shape[i] - 1):
            if keep < 0:
                continue
            for tail in gen(i + 1):
                if keep >= (tail[0] if tail else 0):
                    yield [keep] + tail

    return tuple(tuple(p for p in rows if p > 0) for rows in gen(0))
