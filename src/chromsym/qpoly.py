"""Exact arithmetic for integer polynomials in q and their cyclotomic quotients.

``QPoly`` is a polynomial with arbitrary-precision ``int`` coefficients,
stored in ascending degree order with trailing zeros stripped; any other
coefficient type is refused.  Symmetric functions have ``QPoly`` coefficients.

``QRat`` is a scalar of Q(q) for the two places that divide: Hikita's
transition probabilities divide by [k]_q, and modular-law certificates by
1 + q.  [k]_q is the product of the cyclotomic polynomials Phi_d over the
divisors d > 1 of k, so a ``QRat`` is an integer numerator over a product of
Phi_d**e_d (d >= 2), stored as the exponents e_d.  Products add exponents;
sums take the per-d maximum and scale each numerator by the missing factors.
Both then strip each Phi_d from the numerator by exact division while it
divides and its exponent lasts.  The Phi_d are monic with integer
coefficients, so numerators stay integral, and they are irreducible, so the
stripped numerator is coprime to its denominator and equality is a
field-wise comparison.  A denominator that is not plus or minus such a
product, such as q, q - 2 or 2, is refused with :class:`NotCyclotomic`.

``Fraction`` appears only where a value is evaluated at a rational q.  No
floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import NotCyclotomic, NotDivisible


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
        return hash(("QPoly", self.coeffs))

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

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
        return QPoly(out)

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
        return QPoly(out)

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
        """Multiply by q**k."""
        if self.is_zero():
            return self
        return QPoly((0,) * k + self.coeffs)

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
    return QPoly(out)


# A cyclotomic factorization: sorted (d, e) pairs with e > 0, standing for
# the product of Phi_d**e.
Exps = tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def cyclotomic_product(exps: Exps) -> QPoly:
    """The product of Phi_d**e over the pairs (d, e) of exps."""
    out = ONE
    for d, e in exps:
        out = out * cyclotomic(d) ** e
    return out


def _exps_add(a: Exps, b: Exps) -> Exps:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for d, e in b:
        out[d] = out.get(d, 0) + e
    return tuple(sorted(out.items()))


def _exps_lcm(a: Exps, b: Exps) -> tuple[Exps, Exps, Exps]:
    """The per-d maximum of a and b, and what each of a and b lacks of it."""
    if a == b:
        return a, (), ()
    top = dict(a)
    for d, e in b:
        top[d] = max(top.get(d, 0), e)
    lcm = tuple(sorted(top.items()))
    return lcm, _exps_lack(lcm, a), _exps_lack(lcm, b)


def _exps_lack(whole: Exps, part: Exps) -> Exps:
    """The exponents by which part falls short of whole."""
    have = dict(part)
    return tuple((d, e - have.get(d, 0)) for d, e in whole if e > have.get(d, 0))


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
    return QPoly(quot)


def _strip(p: QPoly, d: int, limit: int) -> tuple[QPoly, int]:
    """Divide Phi_d out of p while it divides, at most limit times."""
    phi = cyclotomic(d).coeffs
    times = 0
    while times < limit and (quot := _quotient(p, phi)) is not None:
        p = quot
        times += 1
    return p, times


def _cancel(num: QPoly, exps: Exps) -> tuple[QPoly, Exps]:
    """Remove from num / prod Phi_d**e every factor num shares with it."""
    if num.is_zero():
        return ZERO, ()
    if not exps:
        return num, exps
    kept = []
    for d, e in exps:
        num, times = _strip(num, d, e)
        if times < e:
            kept.append((d, e - times))
    return num, tuple(kept)


@lru_cache(maxsize=None)
def _factor(den: QPoly) -> Exps:
    """Factor den as prod Phi_d**e (d >= 2), or raise :class:`NotCyclotomic`.

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
    exps, rest, d = [], den, 1
    while rest.degree > 0 and d < max(6, rest.degree**2):
        d += 1
        if phi[d] <= rest.degree:
            rest, times = _strip(rest, d, rest.degree)
            if times:
                exps.append((d, times))
    if not rest.is_one():
        raise NotCyclotomic(f"{den} is not a product of Phi_d for d >= 2")
    return tuple(exps)


class QRat:
    """A rational function in q: an integer numerator over prod Phi_d**e_d.

    The exponents e_d (d >= 2) are kept in ``_exps`` and multiplied out in
    ``den``.  The numerator is coprime to the denominator, so two values are
    equal exactly when their stored fields are.  There is no division: the
    inverse of a value is cyclotomic only when its numerator is.
    """

    __slots__ = ("num", "den", "_exps")

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

    def _set(self, num: QPoly, exps: Exps) -> None:
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", cyclotomic_product(exps) if exps else ONE)
        object.__setattr__(self, "_exps", exps)

    @classmethod
    def _make(cls, num: QPoly, exps: Exps) -> "QRat":
        """A value from parts already in canonical form."""
        out = object.__new__(cls)
        out._set(num, exps)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("QRat is immutable")

    @classmethod
    def over_cyclotomics(cls, num: QPoly, exps: Exps) -> "QRat":
        """num over the product of Phi_d**e for (d, e) in exps, each Phi_d that
        num shares with it cancelled."""
        return cls._make(*_cancel(num, exps))

    @classmethod
    def monomial(cls, shift: int, up: Exps, down: Exps) -> "QRat":
        """q**shift times the product of Phi_d**e over up, over the product
        over down.  q and the Phi_d (d >= 2) are pairwise coprime, so when no
        d is in both this is canonical as it stands, with no division."""
        if shift < 0 or {d for d, _ in up} & {d for d, _ in down}:
            raise ValueError(f"not a monomial in canonical form: q^{shift}, {up} over {down}")
        return cls._make(cyclotomic_product(up).shifted(shift), down)

    @classmethod
    def over_one_plus_q(cls, coeffs: list[int], e: int) -> "QRat":
        """The integers coeffs (ascending) over (1+q)**e, each factor 1 + q of
        the numerator cancelled by synthetic division while v(-1) = 0."""
        while e and sum(coeffs[::2]) == sum(coeffs[1::2]):
            acc = 0
            coeffs = [acc := c - acc for c in coeffs[:-1]]
            e -= 1
        num = QPoly(coeffs)
        return cls._make(num, ((2, e),) if e and num else ())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_poly(self) -> QPoly:
        """The underlying polynomial; raises :class:`NotDivisible` otherwise."""
        if not self.den.is_one():
            raise NotDivisible(f"{self} is not a polynomial")
        return self.num

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        other = _as_rat(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(("QRat", self.num.coeffs, self.den.coeffs))

    def __neg__(self) -> "QRat":
        return QRat._make(-self.num, self._exps)

    def __add__(self, other) -> "QRat":
        other = _as_rat(other)
        if other is None:
            return NotImplemented
        exps, lack_a, lack_b = _exps_lcm(self._exps, other._exps)
        a, b = self.num, other.num
        if lack_a:
            a = a * cyclotomic_product(lack_a)
        if lack_b:
            b = b * cyclotomic_product(lack_b)
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
        return QRat._make(a * b, _exps_add(exps_a, exps_b))

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "QRat":
        return cls(QPoly.from_json(data["num"]), QPoly.from_json(data["den"]))

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        num = str(self.num)
        if "+" in num or "-" in num[1:]:
            num = f"({num})"
        return f"{num}/({self.den})"

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
