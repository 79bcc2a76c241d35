"""Exact arithmetic for integer polynomials in q and their cyclotomic quotients.

``QPoly`` is a polynomial with arbitrary-precision ``int`` coefficients,
stored in ascending degree order with trailing zeros stripped.  The public
constructor refuses any other coefficient type; the private
``QPoly._trusted``, for int lists the package computed itself (arithmetic,
cyclotomics, quotients and the engines' counts), only strips the zeros.
Symmetric functions have ``QPoly`` coefficients.

``QRat`` is a scalar of Q(q) for the two places that divide: Hikita's
transition probabilities divide by [k]_q, and modular-law certificates by
1 + q.  [k]_q is the product of the cyclotomic polynomials Phi_d over the
divisors d > 1 of k.  One form writes every such product: the monomial
q**v[0] * prod Phi_d**v[d] (d >= 2) is the int vector v (``Monomial``), with
v[1] = 0; :func:`split` parts its signs, and :meth:`QRat.monomial` makes it a
value.  A ``QRat`` is an integer numerator over the monomial of a vector with
v[0] = 0 and no negative entry, kept as that vector.  Products add vectors;
sums take their entrywise maximum and scale each numerator by the
difference.  Both then strip each Phi_d from the numerator by exact division
while it divides and its exponent lasts.  The Phi_d are monic with integer
coefficients, so numerators stay integral, and they are irreducible, so the
stripped numerator is coprime to its denominator and equality is a
field-wise comparison.  A denominator that is not plus or minus such a
product, such as q, q - 2 or 2, is refused with :class:`NotCyclotomic`.

Certificate coefficients are integer numerators over a power of 1 + q.  Their
kernel packs a numerator p as the integer p(2**64) (Kronecker substitution),
where q**s is a shift, (1+q)**j a product with (2**64 + 1)**j and a sum an
integer sum, all exact.  A key's sum has at most three terms +-q**s (1+q)**j c
with j <= 10 and c within +-2**40 (both checked, as :class:`InvariantViolation`),
so its coefficients stay below 2**52.  :meth:`QRat.over_one_plus_q` divides by
2**64 + 1, K <= e <= 10 times, while nothing remains and unpacks the quotient c.
c (1+q)**K has coefficients below 2**50 and the sum's packed value, and both
lie inside +-2**63, so it is the sum; the remainder that stopped the loop is
c(-1) mod 2**64 + 1, so 1 + q does not divide c.  Each distinct (numerator,
power) is one shared ``QRat`` over the vector (0, 0, K), which keeps its
packed form (:meth:`QRat.packed_form`).

``Fraction`` appears only where a value is evaluated at a rational q.  No
floating point is used anywhere.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import starmap, zip_longest
from operator import add, sub

from .errors import InvariantViolation, NotCyclotomic, NotDivisible


class QPoly:
    """A polynomial in q with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...] | list[int] = ()):
        cs = list(coeffs)
        if not {int}.issuperset(map(type, cs)):
            raise TypeError(f"QPoly coefficients must be int, got {cs}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _trusted(cls, coeffs: tuple[int, ...] | list[int]) -> "QPoly":
        """A polynomial from int coefficients the package computed itself:
        trailing zeros stripped, and none of the public constructor's type checks."""
        end = len(coeffs)
        while end and not coeffs[end - 1]:
            end -= 1
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", tuple(coeffs[:end]))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == QPoly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        # a constant hashes as the int it equals, the zero polynomial as 0
        if len(self.coeffs) < 2:
            return hash(self.coeffs[0]) if self.coeffs else 0
        return hash(("QPoly", self.coeffs))

    def __neg__(self) -> "QPoly":
        return QPoly._trusted(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "QPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly._trusted(out)

    __radd__ = __add__

    def __sub__(self, other) -> "QPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "QPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        if b == (1,):
            return self
        if a == (1,):
            return other
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return QPoly._trusted(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shifted(self, k: int) -> "QPoly":
        """Multiply by q**k; a nonzero polynomial raises :class:`NotDivisible`
        for k < 0, where q**k is not in Z[q]."""
        if self.is_zero():
            return self
        if k < 0:
            raise NotDivisible(f"q^{k} is not a polynomial")
        return QPoly._trusted((0,) * k + self.coeffs)

    def exact_div(self, other: "QPoly") -> "QPoly":
        """The quotient in Z[q]; raises :class:`NotDivisible` if there is none."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot = _quotient(self, other.coeffs)
        if quot is None:
            raise NotDivisible(f"{self} is not divisible by {other}")
        return quot

    def __call__(self, q0: int | Fraction) -> Fraction:
        """Evaluate at an exact rational point."""
        from fractions import Fraction

        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: list[str]) -> "QPoly":
        """Parse decimal integer strings; anything else raises ``ValueError``."""
        return cls(tuple(int(str(s)) for s in data))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
                continue
            var = "q" if i == 1 else f"q^{i}"
            if c == 1:
                terms.append(var)
            elif c == -1:
                terms.append(f"-{var}")
            else:
                terms.append(f"{c}*{var}")
        out = " + ".join(terms)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"QPoly({self})"


def _as_poly(x) -> QPoly | None:
    if isinstance(x, QPoly):
        return x
    if isinstance(x, int):
        return QPoly((x,))
    return None


ZERO = QPoly()
ONE = QPoly((1,))
Q = QPoly((0, 1))


@lru_cache(maxsize=None)
def q_int(k: int) -> QPoly:
    """The q-integer 1 + q + ... + q**(k-1); zero for k = 0."""
    if k < 0:
        raise ValueError("q_int requires k >= 0")
    return QPoly((1,) * k)


@lru_cache(maxsize=None)
def q_fact(k: int) -> QPoly:
    """The q-factorial, the product of q_int(1) ... q_int(k)."""
    if k < 0:
        raise ValueError("q_fact requires k >= 0")
    if k == 0:
        return ONE
    return q_fact(k - 1) * q_int(k)


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> QPoly:
    """Phi_d, the product of (q**e - 1)**mu(d/e) over e | d: the factors with
    mu = +1 multiplied out, then each with mu = -1 divided off in place."""
    if d < 1:
        raise ValueError("cyclotomic requires d >= 1")
    ups, downs = [d], []
    for p in [p for p in range(2, d + 1) if d % p == 0 and all(p % r for r in range(2, p))]:
        ups, downs = ups + [e // p for e in downs], downs + [e // p for e in ups]
    out = [1]
    for e in ups:
        out = [b - a for a, b in zip(out + [0] * e, [0] * e + out)]
    for e in downs:
        for j in range(len(out) - 1, e - 1, -1):
            out[j - e] += out[j]
        out = out[e:]
    return QPoly._trusted(out)


# A cyclotomic monomial q**v[0] * prod Phi_d**v[d] (d >= 2) as the int
# vector v, with v[1] = 0 (Phi_1 = q - 1 is never a factor).  A denominator
# has v[0] = 0, no negative entry and no trailing zero; () stands for 1.
Monomial = tuple[int, ...]


@lru_cache(maxsize=None)
def cyclotomic_product(v: Monomial) -> QPoly:
    """q**v[0] times the product of Phi_d**v[d] over d >= 2, for v with no negative entry."""
    out = ONE
    for d in range(2, len(v)):
        if v[d]:
            out = out * cyclotomic(d) ** v[d]
    return out.shifted(v[0]) if v else out


def _trim(v) -> Monomial:
    end = len(v)
    while end and not v[end - 1]:
        end -= 1
    return tuple(v[:end])


def _entrywise(f, a: Monomial, b: Monomial) -> Monomial:
    """f of each pair of entries of a and b, the shorter padded with zeros."""
    return tuple(starmap(f, zip_longest(a, b, fillvalue=0)))


def split(v) -> tuple[Monomial, Monomial]:
    """(up, down): the positive and the negated negative entries of v, so
    that v = up - down, each without trailing zeros."""
    return _trim([e if e > 0 else 0 for e in v]), _trim([-e if e < 0 else 0 for e in v])


def _quotient(num: QPoly, divisor: tuple[int, ...]) -> QPoly | None:
    """num / divisor in Z[q], or None when there is no such quotient.

    Long division whose every step divides exactly in the integers finds the
    quotient whenever one exists.
    """
    db, lead = len(divisor) - 1, divisor[-1]
    rem = list(num.coeffs)
    quot = [0] * max(len(rem) - db, 0)
    low = [(j, b) for j, b in enumerate(divisor[:-1]) if b]
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            if lead != 1:
                c, r = divmod(c, lead)
                if r:
                    return None
            quot[i - db] = c
            base = i - db
            for j, b in low:
                rem[base + j] -= c * b
    if any(rem[:db]):
        return None
    return QPoly._trusted(quot)


def _strip(p: QPoly, d: int, limit: int) -> tuple[QPoly, int]:
    """Divide Phi_d out of p while it divides, at most limit times."""
    phi = cyclotomic(d).coeffs
    times = 0
    while times < limit and (quot := _quotient(p, phi)) is not None:
        p = quot
        times += 1
    return p, times


def _cancel(num: QPoly, den: Monomial) -> tuple[QPoly, Monomial]:
    """Remove from num / cyclotomic_product(den) every factor num shares with it."""
    if num.is_zero():
        return ZERO, ()
    if not den:
        return num, den
    kept = list(den)
    for d in range(2, len(den)):
        if den[d]:
            num, times = _strip(num, d, den[d])
            kept[d] -= times
    return num, _trim(kept)


@lru_cache(maxsize=None)
def _factor(den: QPoly) -> Monomial:
    """Factor den as prod Phi_d**v[d] (d >= 2), or raise :class:`NotCyclotomic`.

    Phi_d has degree phi(d), which is at least sqrt(d) for d > 6, so trying
    every d up to the square of the degree left, with phi(d) no larger than
    it, finds every cyclotomic factor.  phi comes from one sieve up to the
    first such bound, so a refusal costs no more than a success.
    """
    bound = max(6, den.degree**2)
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:  # p is prime: every multiple loses the factor 1 - 1/p
            for k in range(p, bound + 1, p):
                phi[k] -= phi[k] // p
    v, rest = [0, 0], den
    while rest.degree > 0 and (d := len(v)) <= max(6, rest.degree**2):
        times = 0
        if phi[d] <= rest.degree:
            rest, times = _strip(rest, d, rest.degree)
        v.append(times)
    if not rest.is_one():
        raise NotCyclotomic(f"{den} is not a product of Phi_d for d >= 2")
    return _trim(v)


class QRat:
    """A rational function in q: an integer numerator over prod Phi_d**v[d].

    The denominator's vector v (see ``Monomial``) is kept in ``_exps`` and
    multiplied out in ``den``.  The numerator is coprime to the denominator,
    so two values are equal exactly when their stored fields are.  There is no division: the
    inverse of a value is cyclotomic only when its numerator is.

    A value is immutable, so ``str()`` and :meth:`json_text` are rendered on
    first use and kept in two slots: a value shared by many certificates is
    formatted once.  A value made by :meth:`over_one_plus_q` also keeps its
    packed form in a slot, for :meth:`packed_form`.
    """

    __slots__ = ("num", "den", "_exps", "_str", "_json", "_packed")

    def __init__(self, num, den=ONE):
        num = _as_poly(num)
        den = _as_poly(den)
        if num is None or den is None:
            raise TypeError("QRat components must be integer polynomials or integers")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.coeffs[-1] == -1:
            num, den = -num, -den
        self._set(*_cancel(num, () if den.is_one() else _factor(den)))

    def _set(self, num: QPoly, exps: Monomial) -> None:
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", cyclotomic_product(exps) if exps else ONE)
        object.__setattr__(self, "_exps", exps)

    @classmethod
    def _make(cls, num: QPoly, exps: Monomial) -> "QRat":
        """A value from parts already in canonical form."""
        out = object.__new__(cls)
        out._set(num, exps)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("QRat is immutable")

    @classmethod
    def monomial(cls, v: Monomial) -> "QRat":
        """q**v[0] times the product of Phi_d**v[d] over d >= 2, exponents of
        either sign.  q and the Phi_d (d >= 2) are pairwise coprime, so the
        positive part over the negative one is canonical, with no division.
        A power of q or of Phi_1 = q - 1 below the line is not cyclotomic."""
        up, down = split(v)
        if any(down[:2]) or any(up[1:2]):
            raise NotCyclotomic(f"{tuple(v)} puts q below the line, or holds q - 1")
        return cls._make(cyclotomic_product(up), down)

    @classmethod
    def over_one_plus_q(cls, packed: int, e: int) -> "QRat":
        """The packed numerator over (1+q)**e in lowest terms, one shared object per value."""
        if e > ONE_PLUS_Q_MAX:
            raise InvariantViolation(f"(1+q)**{e} is beyond the packed bound")
        while e and not packed % ONE_PLUS_Q_PACKED[1]:
            packed, e = packed // ONE_PLUS_Q_PACKED[1], e - 1
        value = _interned.get((packed, e))
        if value is None:
            value = _interned[packed, e] = cls._make(unpack(packed), (0, 0, e) if e else ())
            object.__setattr__(value, "_packed", (packed, e))
        return value

    def packed_form(self) -> tuple[int, int]:
        """(packed numerator, power of 1 + q) of a value over 1 or a power of
        1 + q; any other value raises ``ValueError``.  A value made by
        :meth:`over_one_plus_q` keeps it in a slot."""
        try:
            return self._packed
        except AttributeError:
            pass
        exps = self._exps  # () or (0, 0, e) when the denominator is (1+q)**e
        if len(exps) > 3:
            raise ValueError(f"{self} is not over a power of 1 + q")
        return pack(self.num.coeffs), exps[2] if exps else 0

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        other = _as_rat(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # a value over 1 hashes as the polynomial (or int) it equals
        if not self._exps:
            return hash(self.num)
        return hash(("QRat", self.num.coeffs, self.den.coeffs))

    def __neg__(self) -> "QRat":
        return QRat._make(-self.num, self._exps)

    def __add__(self, other) -> "QRat":
        other = _as_rat(other)
        if other is None:
            return NotImplemented
        # over the entrywise maximum of the denominators, each numerator
        # times what its own denominator lacks of it
        a, b, exps = self.num, other.num, self._exps
        if other._exps != exps:
            exps = _entrywise(max, self._exps, other._exps)
            if exps != self._exps:
                a = a * cyclotomic_product(_entrywise(sub, exps, self._exps))
            if exps != other._exps:
                b = b * cyclotomic_product(_entrywise(sub, exps, other._exps))
        return QRat._make(*_cancel(a + b, exps))

    __radd__ = __add__

    def __sub__(self, other) -> "QRat":
        other = _as_rat(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QRat":
        other = _as_rat(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "QRat":
        other = _as_rat(other)
        if other is None:
            return NotImplemented
        # Each numerator is already coprime to its own denominator, so only
        # the cross pairs can cancel.
        a, exps_b = _cancel(self.num, other._exps)
        b, exps_a = _cancel(other.num, self._exps)
        return QRat._make(a * b, _entrywise(add, exps_a, exps_b))

    __rmul__ = __mul__

    def json_text(self) -> str:
        """``{"num": [...], "den": [...]}`` with the coefficients as decimal
        strings, as ``json.dumps`` writes it; built once and kept."""
        try:
            return self._json
        except AttributeError:
            num, den = (", ".join(f'"{c}"' for c in p.coeffs) for p in (self.num, self.den))
            text = f'{{"num": [{num}], "den": [{den}]}}'
            object.__setattr__(self, "_json", text)
            return text

    @classmethod
    def from_json(cls, data: dict) -> "QRat":
        return cls(QPoly.from_json(data["num"]), QPoly.from_json(data["den"]))

    def __str__(self) -> str:
        try:
            return self._str
        except AttributeError:
            pass
        text = str(self.num)
        if not self.den.is_one():
            if "+" in text or "-" in text[1:]:
                text = f"({text})"
            text = f"{text}/({self.den})"
        object.__setattr__(self, "_str", text)
        return text

    def __repr__(self) -> str:
        return f"QRat({self})"


def _as_rat(x) -> QRat | None:
    if isinstance(x, QRat):
        return x
    p = _as_poly(x)
    if p is not None:
        return QRat._make(p, ())
    return None


RAT_ZERO = QRat(ZERO)
RAT_ONE = QRat(ONE)

PACK_LIMIT = 1 << 40
ONE_PLUS_Q_MAX = 10
ONE_PLUS_Q_PACKED = tuple(((1 << 64) + 1) ** j for j in range(ONE_PLUS_Q_MAX + 1))
_interned: dict[tuple[int, int], QRat] = {}


def pack(coeffs, width: int = 64) -> int:
    """p(2**width) for the integer polynomial p with coefficients coeffs (ascending)."""
    return sum(c << width * i for i, c in enumerate(coeffs))


def unpack(packed: int, width: int = 64) -> QPoly:
    """The p with p(2**width) = packed and every coefficient within PACK_LIMIT << width - 64,
    for a width of 64k bits: packed + B, B = 2**(width-1) (1 + 2**width + ...), has the
    digits c + 2**(width-1), and B's bits flip them to c in two's complement."""
    size, k = width // 8, abs(packed).bit_length() // width + 2
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * k, "little")
    raw = ((packed + bias) ^ bias).to_bytes(size * k, "little")
    if width == 64 and sys.byteorder == "little":
        out = memoryview(raw).cast("q").tolist()
    else:
        out = [int.from_bytes(raw[i : i + size], "little", signed=True) for i in range(0, len(raw), size)]
    if max(map(abs, out)) > PACK_LIMIT << width - 64:
        raise InvariantViolation(f"a coefficient of {out} is beyond the packed bound")
    return QPoly._trusted(out)
