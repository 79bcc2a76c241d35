"""Modular triples, the restricted law, and reduction to path certificates.

A function f on Hessenberg functions satisfies the restricted modular law if
(1+q) f(m') = q f(m) + f(m'') over every type-I triple and every type-II
triple with index i != 1.  Any such f is determined by its values on
disjoint unions of paths; :func:`reduce_to_paths` makes that effective by
emitting a certificate mapping path decompositions to Q(q) coefficients.
Each step multiplies by 1 + q, -q, 1 or +-q/(1+q), so every coefficient is an
integer numerator over a power of 1 + q, and certificates are summed as such.

Certificate keys are the component sizes in vertex order (first component
first, the rest in their original order).  They are deliberately not sorted:
the component containing vertex 1 is distinguished, and the three functions
of interest take different values on reorderings, e.g. already on the
two-component unions of a single edge and an isolated vertex.

E = G = S on unions of paths, so :func:`evaluate` contracts a certificate with
one closed form, :func:`path_union_closed`, and the engines stay independent.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from types import MappingProxyType
from typing import Callable, Mapping

from .errors import DegreeMismatch, InvariantViolation, NotFlat, NotNonFlat, check_size
from .gfunctions import path_e_closed, path_x_closed
from .hessenberg import (
    Flat,
    Hess,
    NonFlat,
    UnionOfPaths,
    classify,
    enumerate_hess,
    hess_error,
)
from .qpoly import RAT_ONE, RAT_ZERO, Q, QRat, q_int
from .symfunc import SymFun, combination

Certificate = Mapping[tuple[int, ...], QRat]
Triple = tuple[Hess, Hess, Hess, int]

_ONE_PLUS_Q = q_int(2)


def is_type1(m: Hess, mp: Hess, mpp: Hess, i: int) -> bool:
    """Type-I predicate at index i (1-based, i in [n-1])."""
    n = len(m)
    if not (len(mp) == len(mpp) == n and 1 <= i <= n - 1):
        return False
    if any(m[t] != mp[t] or mp[t] != mpp[t] for t in range(n) if t != i - 1):
        return False
    v = mp[i - 1]
    if not (m[i - 1] + 1 == v == mpp[i - 1] - 1):
        return False
    left = mp[i - 2] if i >= 2 else 0
    if not (left < v < mp[i]):
        return False
    if v + 1 > n or mp[v - 1] != mp[v]:
        return False
    return all(hess_error(x) is None for x in (m, mp, mpp))


def is_type2(m: Hess, mp: Hess, mpp: Hess, i: int, restricted: bool = False) -> bool:
    """Type-II predicate at index i; the restricted variant excludes i = 1."""
    n = len(m)
    if not (len(mp) == len(mpp) == n and 1 <= i <= n - 1):
        return False
    if restricted and i == 1:
        return False
    if any(
        m[t] != mp[t] or mp[t] != mpp[t]
        for t in range(n)
        if t not in (i - 1, i)
    ):
        return False
    if mp[i - 1] + 1 != mp[i]:
        return False
    if not (m[i - 1] == mp[i - 1] == mpp[i - 1] - 1):
        return False
    if not (m[i] + 1 == mp[i] == mpp[i]):
        return False
    if i in mp:
        return False
    return all(hess_error(x) is None for x in (m, mp, mpp))


def enumerate_triples(n: int, kind: str) -> tuple[Triple, ...]:
    """All triples of a kind ('I', 'II', or 'IIr') within length n."""
    out = []
    for mp in enumerate_hess(n):
        for i in range(1, n):
            if kind == "I":
                m = mp[: i - 1] + (mp[i - 1] - 1,) + mp[i:]
                mpp = mp[: i - 1] + (mp[i - 1] + 1,) + mp[i:]
                if mp[i - 1] + 1 <= n and is_type1(m, mp, mpp, i):
                    out.append((m, mp, mpp, i))
            else:
                restricted = kind == "IIr"
                m = mp[:i] + (mp[i] - 1,) + mp[i + 1 :]
                mpp = mp[: i - 1] + (mp[i - 1] + 1,) + mp[i:]
                if is_type2(m, mp, mpp, i, restricted):
                    out.append((m, mp, mpp, i))
    return tuple(out)


def split_flat(m: Hess) -> tuple[Hess, Hess]:
    """Lower m at beta by 2 and by 1; (m0, m1, m) is a type-I triple."""
    shape = classify(m)
    if not isinstance(shape, Flat):
        raise NotFlat(f"{m} is not flat")
    b = shape.beta
    m0 = m[: b - 1] + (m[b - 1] - 2,) + m[b:]
    m1 = m[: b - 1] + (m[b - 1] - 1,) + m[b:]
    if not is_type1(m0, m1, m, b):
        raise InvariantViolation(f"flat split broke the type-I predicate at {m}")
    return m0, m1


def split_nonflat(m: Hess) -> tuple[Hess, Hess, Hess]:
    """The three companions (m0, m0_1, m_1) of a non-flat function.

    Internally raises m at alpha to form m2; (m0, m, m2) is a restricted
    type-II triple and (m0_1, m_1, m2) a type-I triple, giving
    (1+q) f(m) = (1+q) f(m_1) + q f(m0) - q f(m0_1).
    """
    shape = classify(m)
    if not isinstance(shape, NonFlat):
        raise NotNonFlat(f"{m} is not non-flat")
    a, b = shape.alpha, shape.beta
    m0 = m[:a] + (m[a] - 1,) + m[a + 1 :]
    m2 = m[: a - 1] + (m[a - 1] + 1,) + m[a:]
    m0_1 = m2[: b - 1] + (m2[b - 1] - 2,) + m2[b:]
    m_1 = m2[: b - 1] + (m2[b - 1] - 1,) + m2[b:]
    if not is_type2(m0, m, m2, a, restricted=True):
        raise InvariantViolation(f"non-flat split broke type II at {m}")
    if not is_type1(m0_1, m_1, m2, b):
        raise InvariantViolation(f"non-flat split broke type I at {m}")
    return m0, m0_1, m_1


def _combine(terms: tuple[tuple[int, int, int, Hess], ...]) -> Certificate:
    """The sum of sign * q**shift * (1+q)**t * reduce_to_paths(child) over
    (sign, shift, t, child).  Each key's terms are put over the least power
    (1+q)**top they share, summed as integers, and put into canonical form once."""
    certs = [(sign, shift, t, reduce_to_paths(child)) for sign, shift, t, child in terms]
    tops: dict[tuple[int, ...], int] = {}
    for _, _, t, cert in certs:
        for key, c in cert.items():
            tops[key] = max(tops.get(key, 0), c.den.degree - t)
    acc: dict[tuple[int, ...], list[int]] = {}
    for sign, shift, t, cert in certs:
        for key, c in cert.items():
            num = [0] * shift + [sign * a for a in c.num.coeffs]
            for _ in range(tops[key] + t - c.den.degree):
                num = [a + b for a, b in zip(num + [0], [0] + num)]
            acc[key] = [a + b for a, b in zip_longest(acc.get(key, ()), num, fillvalue=0)]
    values = ((key, QRat.over_one_plus_q(coeffs, tops[key])) for key, coeffs in acc.items())
    return MappingProxyType({key: value for key, value in values if value})


@lru_cache(maxsize=None)
def reduce_to_paths(m: Hess) -> Certificate:
    """Certificate expressing f(m) through values on unions of paths.

    Sound for every f satisfying the restricted modular law; terminates
    because flat steps lower the area and non-flat steps move a cell of the
    Dyck path strictly to the right.  The result is cached, so it is a
    read-only view.
    """
    check_size(len(m))
    shape = classify(m)
    if isinstance(shape, UnionOfPaths):
        return MappingProxyType({shape.parts: RAT_ONE})
    if isinstance(shape, Flat):  # f(m) = (1+q) f(m1) - q f(m0)
        m0, m1 = split_flat(m)
        return _combine(((1, 0, 1, m1), (-1, 1, 0, m0)))
    m0, m0_1, m_1 = split_nonflat(m)  # f(m) = f(m_1) + q/(1+q) (f(m0) - f(m0_1))
    return _combine(((1, 0, 0, m_1), (1, 1, -1, m0), (-1, 1, -1, m0_1)))


def law_defect(f: Callable[[Hess], SymFun], triple: Triple) -> SymFun:
    """(1+q) f(m') - q f(m) - f(m''); zero exactly when the law holds."""
    m, mp, mpp, _ = triple
    middle = f(mp)
    return combination(middle.degree, ((_ONE_PLUS_Q, middle), (-Q, f(m)), (-1, f(mpp))))


def check_restricted_modular_law(
    f: Callable[[Hess], SymFun], n: int, kinds: tuple[str, ...] = ("I", "IIr")
) -> list[dict]:
    """Evaluate the law on every triple of the given kinds; violations are data."""
    violations = []
    for kind in kinds:
        for triple in enumerate_triples(n, kind):
            defect = law_defect(f, triple)
            if not defect.is_zero():
                violations.append(
                    {"kind": kind, "triple": triple[:3], "i": triple[3], "defect": defect}
                )
    return violations


@lru_cache(maxsize=None)
def path_union_closed(key: tuple[int, ...]) -> SymFun:
    """E = G = S on a union of paths (Shareshian-Wachs): the sum over k of
    ``path_e_closed`` for the first component, times ``path_x_closed`` of each other."""
    first, *rest = key
    out = combination(first, ((1, path_e_closed(first, k)) for k in range(1, first + 1)))
    for part in rest:
        out = out * path_x_closed(part)
    return out


BASES = dict.fromkeys("EGS", path_union_closed)


def evaluate(cert: Certificate, base) -> SymFun:
    """Contract a certificate with a base on path unions; "E", "G", "S" name the closed form.

    The sum is taken over Q(q) per partition; one that leaves Z[q] raises NotDivisible.
    """
    if isinstance(base, str):
        base = BASES[base]
    degrees = {sum(key) for key in cert}
    if len(degrees) != 1:
        raise DegreeMismatch(f"a certificate has one degree, not {sorted(degrees)}")
    out: dict[tuple[int, ...], QRat] = {}
    for key, coeff in sorted(cert.items()):
        value = base(key)
        if value.degree != sum(key):
            raise DegreeMismatch(
                f"base value for {key} has degree {value.degree}, expected {sum(key)}"
            )
        for lam, c in value.to_e().coeffs.items():
            out[lam] = out.get(lam, RAT_ZERO) + coeff * c
    return SymFun(degrees.pop(), "e", {lam: v.as_poly() for lam, v in out.items()})


def certificate_json(m: Hess, cert: Certificate) -> dict:
    return {
        "n": len(m),
        "terms": [
            {"paths": list(key), "coeff": coeff.to_json()}
            for key, coeff in sorted(cert.items())
        ],
    }


def certificate_from_json(data: dict) -> Certificate:
    return {
        tuple(term["paths"]): QRat.from_json(term["coeff"]) for term in data["terms"]
    }
