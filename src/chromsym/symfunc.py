"""Homogeneous symmetric functions of fixed degree over Z[q].

A :class:`SymFun` is a sparse map from partitions of its degree to ``QPoly``
coefficients in the elementary basis, the one basis every identity here is
compared in; the two places that divide fold their values back into Z[q]
first.  Products are multiset unions there.  Schur and monomial coordinates
are met only at the edges: the constructor reads them in and
:meth:`SymFun.in_basis` writes them out, through integer Kostka matrices,
avoiding Littlewood-Richardson entirely.  Every sum, ``+`` included, is taken
by :func:`combination`, which like products accumulates integer q-coefficient
lists in place, builds one SymFun, and rejects degree-heterogeneous terms.
A SymFun is immutable, its ``coeffs`` a read-only view, so the engines can
hand one cached value to every caller.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache, reduce
from itertools import chain, compress
from operator import attrgetter, mul
from types import MappingProxyType

from .errors import DegreeMismatch
from .partitions import Partition, conjugate, kostka, partitions
from .qpoly import ONE, ZERO, QPoly, pack, unpack

BASES = ("e", "m", "s")


def _coerce(c) -> QPoly:
    if isinstance(c, QPoly):
        return c
    if isinstance(c, int):
        return QPoly((c,))
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


@lru_cache(maxsize=None)
def _partition_set(n: int) -> frozenset[Partition]:
    return frozenset(partitions(n))


class SymFun:
    """A homogeneous symmetric function in elementary-basis coordinates."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, basis: str, coeffs=None):
        """The function with the given coordinates in basis 'e', 's' or 'm'."""
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        clean: dict[Partition, QPoly] = {}
        for lam, c in (coeffs or {}).items():
            lam = tuple(lam)
            if lam not in _partition_set(degree):
                raise DegreeMismatch(f"{lam} is not a partition of {degree}")
            c = _coerce(c)
            if not c.is_zero():
                clean[lam] = c
        if basis == "s":
            clean = _apply_matrix(clean, _s_to_e_matrix(degree))
        elif basis == "m":
            clean = _apply_matrix(clean, _m_to_e_matrix(degree))
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError("SymFun is immutable")

    @classmethod
    def term(cls, basis: str, parts, coeff=1) -> "SymFun":
        lam = tuple(sorted(parts, reverse=True))
        return cls(sum(lam), basis, {lam: coeff})

    @classmethod
    def e_term(cls, parts, coeff=1) -> "SymFun":
        return cls.term("e", parts, coeff)

    @classmethod
    def one(cls) -> "SymFun":
        return cls(0, "e", {(): ONE})

    @classmethod
    def zero(cls, degree: int) -> "SymFun":
        return cls(degree, "e", {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, lam) -> QPoly:
        return self.coeffs.get(tuple(lam), ZERO)

    def to_e(self) -> "SymFun":
        """Itself: the coordinates are already elementary."""
        return self

    def in_basis(self, basis: str) -> Mapping[Partition, QPoly]:
        """The nonzero coefficients in basis 'e', 's' or 'm'."""
        if basis not in BASES:
            raise ValueError(f"cannot convert into basis {basis!r}")
        coeffs = self.coeffs
        if basis != "e":
            coeffs = _apply_matrix(coeffs, _e_to_s_matrix(self.degree))
        if basis == "m":
            coeffs = _apply_matrix(coeffs, _s_to_m_matrix(self.degree))
        return coeffs

    # --- ring structure ----------------------------------------------------

    def __add__(self, other: "SymFun") -> "SymFun":
        if not isinstance(other, SymFun):
            return NotImplemented
        return combination(self.degree, ((1, self), (1, other)))

    def __neg__(self) -> "SymFun":
        return SymFun(self.degree, "e", {lam: -c for lam, c in self.coeffs.items()})

    def __sub__(self, other: "SymFun") -> "SymFun":
        return self + (-other)

    def scaled(self, c) -> "SymFun":
        c = _coerce(c)
        return SymFun(self.degree, "e", {lam: c * v for lam, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, SymFun):
            for unit, f in ((self, other), (other, self)):
                if [*unit.coeffs.values()] == [ONE]:  # e_mu f relabels f: lam -> lam + mu is 1-1
                    (mu,) = unit.coeffs
                    keys = {tuple(sorted(lam + mu, reverse=True)): c for lam, c in f.coeffs.items()}
                    return SymFun(self.degree + other.degree, "e", keys)
            rows: dict[Partition, list[int]] = {}
            for lam, c in self.coeffs.items():
                for mu, d in other.coeffs.items():
                    key = tuple(sorted(lam + mu, reverse=True))
                    _add_product(rows.setdefault(key, []), c.coeffs, d.coeffs)
            return _from_rows(self.degree + other.degree, rows)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFun):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        raise TypeError("SymFun is unhashable")

    # --- evaluation and predicates ------------------------------------------

    def at_q(self, q0) -> dict[Partition, Fraction]:
        return {lam: c(q0) for lam, c in self.coeffs.items()}

    def is_e_positive_at_one(self) -> bool:
        """Every elementary-basis coefficient is nonnegative at q = 1."""
        return all(v >= 0 for v in self.at_q(1).values())

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return "; ".join(
            f"e[{','.join(map(str, lam))}]: {self.coeffs[lam]}"
            for lam in sorted(self.coeffs, reverse=True)
        )

    def __repr__(self) -> str:
        return f"SymFun({self})"


def _add_product(row: list[int], a, b) -> None:
    """row += a * b, all three integer q-coefficient lists, in place, the longer one inner."""
    if len(a) > len(b):
        a, b = b, a
    row.extend([0] * (len(a) + len(b) - 1 - len(row)))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            row[i + j] += x * y


def _from_rows(degree: int, rows: dict[Partition, list[int]]) -> SymFun:
    """The SymFun with the nonzero rows as coefficients, built without the
    constructor's checks: the rows are int lists keyed by partitions of degree."""
    coeffs = {lam: c for lam, row in rows.items() if (c := QPoly._trusted(row))}
    out = object.__new__(SymFun)
    object.__setattr__(out, "degree", degree)
    object.__setattr__(out, "coeffs", MappingProxyType(coeffs))
    return out


def combination(degree: int, terms) -> SymFun:
    """The sum of c * f over the (c, f) pairs of ``terms``.

    Each c is an int or a QPoly; the integer q-coefficients are accumulated
    in place and one SymFun is built.  A term of another degree, a zero one
    included, raises :class:`DegreeMismatch`.
    """
    rows: dict[Partition, list[int]] = {}
    for c, f in terms:
        if f.degree != degree:
            raise DegreeMismatch(f"degree {f.degree} term in a sum of degree {degree}")
        a = (c,) if type(c) is int else _coerce(c).coeffs  # an int skips the checking constructor
        for lam, v in f.coeffs.items():
            _add_product(rows.setdefault(lam, []), a, v.coeffs)
    return _from_rows(degree, rows)


def _apply_matrix(coeffs: Mapping[Partition, QPoly], matrix) -> dict[Partition, QPoly]:
    """sum(row[j] * coefficient j) for each integer row; zeros are dropped.  The coefficients
    are packed once, at 64k-bit digits that hold every output coefficient: none exceeds
    the largest input coefficient times the matrix's largest row L1 norm."""
    top = max(map(abs, chain.from_iterable(map(attrgetter("coeffs"), coeffs.values()))), default=0)
    width = 64 * ((top * matrix[2]).bit_length() + 87 >> 6)  # least with bound < PACK_LIMIT << width - 64
    return _apply_packed({lam: pack(c.coeffs, width) for lam, c in coeffs.items()}, matrix, width)


def _apply_packed(packed: Mapping[Partition, int], matrix, width: int = 64) -> dict[Partition, QPoly]:
    """:func:`_apply_matrix` on inputs packed at ``width`` bits: a dot product per row, unpacked once."""
    basis_list, rows, _ = matrix
    keep = [lam in packed for lam in basis_list]
    vals = [packed[lam] for lam in compress(basis_list, keep)]
    dots = (sum(map(mul, compress(row, keep), vals)) for row in rows)
    return {lam: unpack(dot, width) for lam, dot in zip(basis_list, dots) if dot}


def _from_packed_s(degree: int, packed: Mapping[Partition, int]) -> SymFun:
    """The SymFun with Schur coordinates the package packed itself at 64 bits, none
    above 2**40 / 37, where 37 is the largest row L1 norm of s-to-e up to n = 8."""
    return SymFun(degree, "e", _apply_packed(packed, _s_to_e_matrix(degree)))


def _matrix(basis_list: list[Partition], rows: list[list[int]]):
    """A basis change: the basis, the integer rows and their largest L1 norm (764 at most, n <= 8)."""
    return basis_list, rows, max((sum(map(abs, row)) for row in rows), default=0)


@lru_cache(maxsize=None)
def _kostka_inverse(n: int):
    """K^-1 for K[nu][mu] = kostka(nu, mu), by integer back-substitution.

    K is upper unitriangular in the order of ``partitions(n)``, since
    kostka(nu, mu) is nonzero only when nu dominates mu, and 1 when nu = mu.
    """
    basis_list = partitions(n)
    size = len(basis_list)
    inv = [[0] * size for _ in range(size)]
    for i in reversed(range(size)):
        row = [kostka(basis_list[i], mu) for mu in basis_list]
        for j in range(size):
            inv[i][j] = int(i == j) - sum(row[k] * inv[k][j] for k in range(i + 1, size))
    return basis_list, inv


@lru_cache(maxsize=None)
def _e_to_s_matrix(n: int):
    """Row lam, column mu: coefficient K_{lam', mu} of s_lam in e_mu."""
    basis_list = partitions(n)
    return _matrix(basis_list, [[kostka(conjugate(lam), mu) for mu in basis_list] for lam in basis_list])


@lru_cache(maxsize=None)
def _s_to_e_matrix(n: int):
    """The inverse of ``_e_to_s_matrix``: K^-1 with column lam moved to lam'."""
    basis_list, inv = _kostka_inverse(n)
    index = {lam: i for i, lam in enumerate(basis_list)}
    return _matrix(basis_list, [[row[index[conjugate(lam)]] for lam in basis_list] for row in inv])


@lru_cache(maxsize=None)
def _s_to_m_matrix(n: int):
    basis_list = partitions(n)
    return _matrix(basis_list, [[kostka(mu, lam) for mu in basis_list] for lam in basis_list])


@lru_cache(maxsize=None)
def _m_to_e_matrix(n: int):
    """The inverse of e_to_m = K^T P K, with P the conjugation: s_to_e times (K^-1)^T."""
    basis_list, s2e, _ = _s_to_e_matrix(n)
    _, inv = _kostka_inverse(n)
    return _matrix(basis_list, [[sum(a * b for a, b in zip(row, col)) for col in inv] for row in s2e])


@lru_cache(maxsize=None)
def h_to_e(n: int) -> SymFun:
    """The complete homogeneous h_n expanded in the elementary basis.

    Uses h_n = sum_{i=1}^{n} (-1)^(i-1) e_i h_{n-i} with h_0 = 1.
    """
    if n == 0:
        return SymFun.one()
    terms = (((-1) ** (i - 1), SymFun.e_term((i,)) * h_to_e(n - i)) for i in range(1, n + 1))
    return combination(n, terms)


def omega(f: SymFun) -> SymFun:
    """The classical involution sending h to e (and hence e to h)."""
    terms = ((c, reduce(mul, map(h_to_e, lam), SymFun.one())) for lam, c in f.coeffs.items())
    return combination(f.degree, terms)
