"""Homogeneous symmetric functions of fixed degree over Z[q].

A :class:`SymFun` is a sparse map from partitions of its degree to ``QPoly``
coefficients, tagged with a basis ('e', 'm' or 's'); the two places that
divide fold their values back into Z[q] first.  The elementary basis is the
internal canonical one: products are multiset unions there, and the Schur and
monomial views are derived through integer Kostka matrices, avoiding
Littlewood-Richardson entirely.  Every sum, ``+`` included, is taken by
:func:`combination`, which like products accumulates integer q-coefficient
lists in place, builds one SymFun, and rejects degree-heterogeneous terms.
A SymFun is immutable, its ``coeffs`` a read-only view, so the engines can
hand one cached value to every caller.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, zip_longest
from operator import mul
from types import MappingProxyType

from .errors import DegreeMismatch
from .partitions import Partition, conjugate, kostka, partitions
from .qpoly import ONE, ZERO, QPoly

BASES = ("e", "m", "s")


def _coerce(c) -> QPoly:
    if isinstance(c, QPoly):
        return c
    if isinstance(c, int):
        return QPoly((c,))
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


class SymFun:
    """A homogeneous symmetric function in basis coordinates."""

    __slots__ = ("degree", "basis", "coeffs")

    def __init__(self, degree: int, basis: str, coeffs=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        clean: dict[Partition, QPoly] = {}
        for lam, c in (coeffs or {}).items():
            lam = tuple(lam)
            if sum(lam) != degree:
                raise DegreeMismatch(f"{lam} is not a partition of {degree}")
            c = _coerce(c)
            if not c.is_zero():
                clean[lam] = c
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "basis", basis)
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
    def s_term(cls, parts, coeff=1) -> "SymFun":
        return cls.term("s", parts, coeff)

    @classmethod
    def one(cls) -> "SymFun":
        return cls(0, "e", {(): ONE})

    @classmethod
    def zero(cls, degree: int, basis: str = "e") -> "SymFun":
        return cls(degree, basis, {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, lam) -> QPoly:
        return self.coeffs.get(tuple(lam), ZERO)

    # --- basis conversions -------------------------------------------------

    def to_e(self) -> "SymFun":
        if self.basis == "e":
            return self
        if self.basis == "s":
            return _apply_matrix(self, _s_to_e_matrix(self.degree), "e")
        return _apply_matrix(self, _m_to_e_matrix(self.degree), "e")

    def to_s(self) -> "SymFun":
        if self.basis == "s":
            return self
        return _apply_matrix(self.to_e(), _e_to_s_matrix(self.degree), "s")

    def to_m(self) -> "SymFun":
        if self.basis == "m":
            return self
        return _apply_matrix(self.to_s(), _s_to_m_matrix(self.degree), "m")

    def in_basis(self, basis: str) -> "SymFun":
        if basis not in BASES:
            raise ValueError(f"cannot convert into basis {basis!r}")
        return getattr(self, f"to_{basis}")()

    # --- ring structure ----------------------------------------------------

    def __add__(self, other: "SymFun") -> "SymFun":
        if not isinstance(other, SymFun):
            return NotImplemented
        return combination(self.degree, ((1, self), (1, other)))

    def __neg__(self) -> "SymFun":
        return SymFun(self.degree, self.basis, {lam: -c for lam, c in self.coeffs.items()})

    def __sub__(self, other: "SymFun") -> "SymFun":
        return self + (-other)

    def scaled(self, c) -> "SymFun":
        c = _coerce(c)
        return SymFun(self.degree, self.basis, {lam: c * v for lam, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, SymFun):
            a, b = self.to_e(), other.to_e()
            rows: dict[Partition, list[int]] = {}
            for lam, c in a.coeffs.items():
                for mu, d in b.coeffs.items():
                    key = tuple(sorted(lam + mu, reverse=True))
                    _add_product(rows.setdefault(key, []), c.coeffs, d.coeffs)
            return _from_rows(a.degree + b.degree, rows)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFun):
            return NotImplemented
        if self.degree != other.degree:
            return False
        return self.to_e().coeffs == other.to_e().coeffs

    def __hash__(self):
        raise TypeError("SymFun is unhashable")

    # --- evaluation and predicates ------------------------------------------

    def at_q(self, q0) -> dict[Partition, Fraction]:
        return {lam: c(q0) for lam, c in self.coeffs.items()}

    def is_e_positive_at_one(self) -> bool:
        """Every elementary-basis coefficient is nonnegative at q = 1."""
        return all(v >= 0 for v in self.to_e().at_q(1).values())

    # --- serialization -------------------------------------------------------

    def sorted_items(self) -> list[tuple[Partition, QPoly]]:
        return sorted(self.coeffs.items(), key=lambda kv: kv[0], reverse=True)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "basis": self.basis,
            "coeffs": [
                {"partition": list(lam), "num": c.to_json(), "den": ["1"]}
                for lam, c in self.sorted_items()
            ],
        }

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return "; ".join(
            f"{self.basis}[{','.join(map(str, lam))}]: {c}" for lam, c in self.sorted_items()
        )

    def __repr__(self) -> str:
        return f"SymFun({self})"


def _add_product(row: list[int], a, b) -> None:
    """row += a * b, all three integer q-coefficient lists, in place."""
    row.extend([0] * (len(a) + len(b) - 1 - len(row)))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            row[i + j] += x * y


def _from_rows(degree: int, rows: dict[Partition, list[int]]) -> SymFun:
    return SymFun(degree, "e", {lam: QPoly(row) for lam, row in rows.items()})


def combination(degree: int, terms) -> SymFun:
    """The sum of c * f over the (c, f) pairs of ``terms``, in the elementary basis.

    Each c is an int or a QPoly and each f, in any basis, is taken through
    ``to_e``; the integer q-coefficients are accumulated in place and one
    SymFun is built.  A term of another degree, a zero one included, raises
    :class:`DegreeMismatch`.
    """
    rows: dict[Partition, list[int]] = {}
    for c, f in terms:
        if f.degree != degree:
            raise DegreeMismatch(f"degree {f.degree} term in a sum of degree {degree}")
        a = _coerce(c).coeffs
        for lam, v in f.to_e().coeffs.items():
            _add_product(rows.setdefault(lam, []), a, v.coeffs)
    return _from_rows(degree, rows)


def _apply_matrix(f: SymFun, matrix, target: str) -> SymFun:
    """sum(row[j] * coefficient j) for each integer row, as one integer dot product
    per q-degree over the columns of the nonzero coefficients."""
    basis_list, rows = matrix
    keep = [lam in f.coeffs for lam in basis_list]
    nums = (f.coeffs[lam].coeffs for lam in compress(basis_list, keep))
    cols = list(zip_longest(*nums, fillvalue=0))
    rows = (list(compress(row, keep)) for row in rows)
    dots = (QPoly([sum(map(mul, row, col)) for col in cols]) for row in rows)
    return SymFun(f.degree, target, dict(zip(basis_list, dots)))


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
    rows = [[kostka(conjugate(lam), mu) for mu in basis_list] for lam in basis_list]
    return basis_list, rows


@lru_cache(maxsize=None)
def _s_to_e_matrix(n: int):
    """The inverse of ``_e_to_s_matrix``: K^-1 with column lam moved to lam'."""
    basis_list, inv = _kostka_inverse(n)
    index = {lam: i for i, lam in enumerate(basis_list)}
    return basis_list, [[row[index[conjugate(lam)]] for lam in basis_list] for row in inv]


@lru_cache(maxsize=None)
def _s_to_m_matrix(n: int):
    basis_list = partitions(n)
    rows = [[kostka(mu, lam) for mu in basis_list] for lam in basis_list]
    return basis_list, rows


@lru_cache(maxsize=None)
def _m_to_e_matrix(n: int):
    """The inverse of e_to_m = K^T P K, with P the conjugation: s_to_e times (K^-1)^T."""
    basis_list, s2e = _s_to_e_matrix(n)
    _, inv = _kostka_inverse(n)
    return basis_list, [[sum(a * b for a, b in zip(row, col)) for col in inv] for row in s2e]


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
    f = f.to_e()
    terms = ((c, reduce(mul, map(h_to_e, lam), SymFun.one())) for lam, c in f.coeffs.items())
    return combination(f.degree, terms)
