"""Exact arithmetic for polynomials and rational functions in the parameter q.

Coefficients are arbitrary-precision rationals (``fractions.Fraction``, with
integers kept as plain ``int``), so q-factorials and the large alternating
sums arising downstream never lose precision.  ``QPoly`` stores coefficients
in ascending degree order with trailing zeros stripped.

``QRat`` keeps a canonical form: a monic denominator coprime to the
numerator, so equality is a field-wise comparison.  Every denominator the
engines build is a product of q-integers, and [k]_q is the product of the
cyclotomic polynomials Phi_d over the divisors d > 1 of k.  So a ``QRat``
stores its denominator factored as R * prod Phi_d^e_d: the exponents e_d and
a monic residual R that is 1 for every value the engines build.  Products add
exponents; sums take the per-d maximum and scale each numerator by the
missing factors.  Both then strip each Phi_d from the numerator by exact
division while it divides and its exponent lasts.  The Phi_d are monic with
integer coefficients, so integer numerators stay integral, and they are
irreducible over Q, so the stripped numerator is coprime to the cyclotomic
part.  A Euclidean gcd is taken only against a residual R other than 1,
which arises only from a caller-supplied denominator such as q or q - 2.

No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import NotDivisible, PoleAtPoint

Scalar = int | Fraction


def _norm_coeff(c: Scalar) -> Scalar:
    """Keep integral values as ``int`` so printing and hashing stay tidy."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class QPoly:
    """A polynomial in q over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Scalar, ...] | list[Scalar] = ()):
        cs = [c if type(c) is int else _norm_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def const(cls, c: Scalar) -> "QPoly":
        return cls((c,))

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
        if isinstance(other, (int, Fraction)):
            return self == QPoly.const(other)
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

    def __divmod__(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if not isinstance(other, QPoly):
            other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db, lead = other.degree, other.coeffs[-1]
        int_lead = type(lead) is int
        quot = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            if lead == 1:
                factor = c
            elif lead == -1:
                factor = -c
            elif int_lead and type(c) is int and c % lead == 0:
                factor = c // lead
            else:
                factor = _norm_coeff(Fraction(c) / lead)
            quot[i - db] = factor
            for j, b in enumerate(other.coeffs):
                rem[i - db + j] -= factor * b
        return QPoly(quot), QPoly(rem)

    def __mod__(self, other: "QPoly") -> "QPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "QPoly") -> "QPoly":
        """Exact quotient; raises :class:`NotDivisible` on a nonzero remainder."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise NotDivisible(f"{self} is not divisible by {other}")
        return q

    def monic(self) -> "QPoly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        inv = Fraction(1, 1) / lead
        return QPoly(tuple(_norm_coeff(c * inv) for c in self.coeffs))

    def __call__(self, q0: Scalar) -> Fraction:
        """Evaluate at an exact rational point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: list[str]) -> "QPoly":
        return cls(tuple(Fraction(s) for s in data))

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
            elif isinstance(c, Fraction):
                terms.append(f"({c})*{var}")
            else:
                terms.append(f"{c}*{var}")
        out = " + ".join(terms)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"QPoly({self})"


def _as_poly(x) -> QPoly | None:
    if isinstance(x, QPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return QPoly.const(x)
    return None


ZERO = QPoly()
ONE = QPoly((1,))
Q = QPoly((0, 1))


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd by the Euclidean algorithm over the rationals."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


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
    """The cyclotomic polynomial Phi_d: q**d - 1 over Phi_e for e | d, e < d."""
    if d < 1:
        raise ValueError("cyclotomic requires d >= 1")
    out = QPoly((-1,) + (0,) * (d - 1) + (1,))
    for e in range(1, d):
        if d % e == 0:
            out = out.exact_div(cyclotomic(e))
    return out


# A cyclotomic factorization: sorted (d, e) pairs with e > 0, standing for
# the product of Phi_d**e.
Exps = tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def _q_int_exps(k: int) -> Exps:
    """[k]_q as the product of Phi_d over the divisors d > 1 of k."""
    if k < 1:
        raise ZeroDivisionError("[0]_q is zero")
    return tuple((d, 1) for d in range(2, k + 1) if k % d == 0)


@lru_cache(maxsize=None)
def _exps_poly(exps: Exps) -> QPoly:
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


def _div_monic(num: QPoly, divisor: tuple[Scalar, ...]) -> QPoly | None:
    """num / divisor for a monic divisor, or None when it leaves a remainder."""
    db = len(divisor) - 1
    rem = list(num.coeffs)
    if len(rem) <= db:
        return None
    quot = [0] * (len(rem) - db)
    low = [(j, b) for j, b in enumerate(divisor[:-1]) if b]
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
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
    while times < limit and (quot := _div_monic(p, phi)) is not None:
        p = quot
        times += 1
    return p, times


def _cancel(num: QPoly, exps: Exps, res: QPoly) -> tuple[QPoly, Exps, QPoly]:
    """Remove from num / (res * prod Phi_d**e) every factor num shares with it."""
    if num.is_zero():
        return ZERO, (), ONE
    if not exps and res.is_one():
        return num, exps, res
    kept = []
    for d, e in exps:
        num, times = _strip(num, d, e)
        if times < e:
            kept.append((d, e - times))
    if not res.is_one():
        g = poly_gcd(num, res)
        if g.degree > 0:
            num = num.exact_div(g)
            res = res.exact_div(g)
    return num, tuple(kept), res


@lru_cache(maxsize=None)
def _factor(den: QPoly) -> tuple[Exps, QPoly]:
    """Split a monic denominator into cyclotomic exponents and a residual.

    Phi_d is tried for every d up to degree + 1, which finds every factor of
    a product of q-integers; whatever is left is the residual.
    """
    exps = []
    for d in range(2, den.degree + 2):
        den, times = _strip(den, d, den.degree)
        if times:
            exps.append((d, times))
    return tuple(exps), den


class QRat:
    """A rational function in q, kept in canonical form.

    The denominator is monic and coprime to the numerator, so two values are
    equal exactly when their stored fields are.  It is kept both as the
    polynomial ``den`` and factored as ``res * prod Phi_d**e`` (see the
    module docstring).
    """

    __slots__ = ("num", "den", "_exps", "_res")

    def __init__(self, num, den=ONE):
        num = _as_poly(num)
        den = _as_poly(den)
        if num is None or den is None:
            raise TypeError("QRat components must be polynomials or scalars")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        lead = den.coeffs[-1]
        if lead != 1:
            inv = Fraction(1, 1) / lead
            num = num * inv
            den = den * inv
        exps, res = _factor(den) if den.degree > 0 else ((), ONE)
        self._set(*_cancel(num, exps, res))

    def _set(self, num: QPoly, exps: Exps, res: QPoly) -> None:
        den = _exps_poly(exps) if exps else ONE
        if not res.is_one():
            den = den * res
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_exps", exps)
        object.__setattr__(self, "_res", res)

    @classmethod
    def _make(cls, num: QPoly, exps: Exps, res: QPoly) -> "QRat":
        """A value from parts already in canonical form."""
        out = object.__new__(cls)
        out._set(num, exps, res)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("QRat is immutable")

    @classmethod
    def const(cls, c: Scalar) -> "QRat":
        return cls(QPoly.const(c))

    @classmethod
    def over_q_ints(cls, num, ks) -> "QRat":
        """num divided by the product of the q-integers [k]_q for k in ks."""
        num = _as_poly(num)
        if num is None:
            raise TypeError("QRat components must be polynomials or scalars")
        exps: Exps = ()
        for k in ks:
            exps = _exps_add(exps, _q_int_exps(k))
        return cls._make(*_cancel(num, exps, ONE))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

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
        return QRat._make(-self.num, self._exps, self._res)

    def __add__(self, other) -> "QRat":
        other = _as_rat(other)
        if other is None:
            return NotImplemented
        exps, lack_a, lack_b = _exps_lcm(self._exps, other._exps)
        a, b = self.num, other.num
        if lack_a:
            a = a * _exps_poly(lack_a)
        if lack_b:
            b = b * _exps_poly(lack_b)
        res_a, res_b = self._res, other._res
        if res_a == res_b:
            res = res_a
        else:
            g = poly_gcd(res_a, res_b)
            lack_res_a = res_b.exact_div(g)
            a = a * lack_res_a
            b = b * res_a.exact_div(g)
            res = res_a * lack_res_a
        return QRat._make(*_cancel(a + b, exps, res))

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
        a, exps_b, res_b = _cancel(self.num, other._exps, other._res)
        b, exps_a, res_a = _cancel(other.num, self._exps, self._res)
        res = res_a if res_b.is_one() else res_a * res_b
        return QRat._make(a * b, _exps_add(exps_a, exps_b), res)

    __rmul__ = __mul__

    def invert(self) -> "QRat":
        if self.num.is_zero():
            raise ZeroDivisionError("inverting zero")
        return QRat(self.den, self.num)

    def __truediv__(self, other) -> "QRat":
        other = _as_rat(other)
        if other is None:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other) -> "QRat":
        other = _as_rat(other)
        if other is None:
            return NotImplemented
        return other * self.invert()

    def __pow__(self, n: int) -> "QRat":
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            return RAT_ONE
        return QRat._make(
            self.num**n, tuple((d, e * n) for d, e in self._exps), self._res**n
        )

    def eval_at(self, q0: Scalar) -> Fraction:
        """Exact value at q = q0; raises :class:`PoleAtPoint` on a pole."""
        d = self.den(q0)
        if d == 0:
            raise PoleAtPoint(f"pole at q = {q0}")
        return Fraction(self.num(q0)) / d

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
        return QRat._make(p, (), ONE)
    return None


RAT_ZERO = QRat(ZERO)
RAT_ONE = QRat(ONE)
