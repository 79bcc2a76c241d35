"""Modular triples, the restricted law, and reduction to path certificates.

A function f on Hessenberg functions satisfies the restricted modular law if
(1+q) f(m') = q f(m) + f(m'') over every type-I triple and every type-II
triple with index i != 1.  Any such f is determined by its values on
disjoint unions of paths; :func:`reduce_to_paths` makes that effective by
emitting a certificate mapping path decompositions to Q(q) coefficients, one
:func:`reduction_step` at a time.
Each step multiplies by 1 + q, -q, 1 or +-q/(1+q), so every coefficient is an
integer numerator over a power of 1 + q; certificates are summed as such, on
packed integers, and each distinct value is one shared ``QRat`` (see :mod:`.qpoly`).

Certificate keys are the component sizes in vertex order (first component
first, the rest in their original order).  They are deliberately not sorted:
the component containing vertex 1 is distinguished, and the three functions
of interest take different values on reorderings, e.g. already on the
two-component unions of a single edge and an isolated vertex.

E = G = S on unions of paths, so :func:`evaluate` contracts a certificate with
one closed form, :func:`path_union_closed`, and the engines stay independent.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from functools import lru_cache
from json import loads
from types import MappingProxyType

from .errors import DegreeMismatch, InvariantViolation
from .gfunctions import path_e_closed, path_x_closed
from .hessenberg import Hess, check_hess, enumerate_hess, hess_error, path_components, per_m
from .qpoly import ONE_PLUS_Q_MAX, ONE_PLUS_Q_PACKED, Q, QRat, q_int
from .symfunc import SymFun, combination

Certificate = Mapping[tuple[int, ...], QRat]
Triple = tuple[Hess, Hess, Hess, int]
Term = tuple[int, int, int, Hess]

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
    if kind not in ("I", "II", "IIr"):
        raise ValueError(f"kind is 'I', 'II' or 'IIr', not {kind!r}")
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


def reduction_step(m: Hess) -> tuple[Term, ...]:
    """The terms (sign, s, t, m~) of one step of the restricted law at m:
    f(m) = sum sign * q**s * (1+q)**t * f(m~) for every f that satisfies it.

    A flat m, lowered at beta by 2 and by 1 to m0 and m1, gives the type-I
    triple (m0, m1, m): f(m) = (1+q) f(m1) - q f(m0).  A non-flat m, raised
    at alpha to m2, gives the restricted type-II triple (m0, m, m2) and the
    type-I triple (m0_1, m_1, m2): f(m) = f(m_1) + q/(1+q) (f(m0) - f(m0_1)).
    A union of paths has no step and raises ``ValueError``.

    alpha is the largest value in [n-1] that m misses while alpha + 1 is
    attained first at some beta < alpha; m is flat when m(alpha) = m(alpha+1).
    """
    if path_components(check_hess(m)) is not None:
        raise ValueError(f"{m} is a union of paths")
    values = set(m)
    for a in range(len(m) - 1, 0, -1):
        if a not in values and a + 1 in values and (b := m.index(a + 1) + 1) < a:
            break
    else:
        raise InvariantViolation(f"no split point found for non-path {m}")
    if m[a - 1] == m[a]:
        m0 = m[: b - 1] + (m[b - 1] - 2,) + m[b:]
        m1 = m[: b - 1] + (m[b - 1] - 1,) + m[b:]
        if not is_type1(m0, m1, m, b):
            raise InvariantViolation(f"flat step broke the type-I predicate at {m}")
        return ((1, 0, 1, m1), (-1, 1, 0, m0))
    m0 = m[:a] + (m[a] - 1,) + m[a + 1 :]
    m2 = m[: a - 1] + (m[a - 1] + 1,) + m[a:]
    m0_1 = m2[: b - 1] + (m2[b - 1] - 2,) + m2[b:]
    m_1 = m2[: b - 1] + (m2[b - 1] - 1,) + m2[b:]
    if not is_type2(m0, m, m2, a, restricted=True):
        raise InvariantViolation(f"non-flat step broke type II at {m}")
    if not is_type1(m0_1, m_1, m2, b):
        raise InvariantViolation(f"non-flat step broke type I at {m}")
    return ((1, 0, 0, m_1), (1, 1, -1, m0), (-1, 1, -1, m0_1))


def _combine(terms: tuple[tuple[int, int, int, Hess], ...]) -> Certificate:
    """The sum of sign * q**shift * (1+q)**t * reduce_to_paths(child) over
    (sign, shift, t, child), on packed numerators (see :mod:`.qpoly`).  Each
    key's terms are put over the least power (1+q)**top they share, summed as
    integers, and turned into their shared ``QRat`` once."""
    parts, tops = [], {}
    for sign, shift, t, child in terms:
        factors = [sign * p << 64 * shift for p in ONE_PLUS_Q_PACKED]
        for key, c in reduce_to_paths(child).items():
            packed, e = c.packed_form()
            parts.append((key, packed, e - t, factors))
            if tops.setdefault(key, 0) < e - t:
                tops[key] = e - t
    sums: dict[tuple[int, ...], int] = {}
    for key, packed, e, factors in parts:
        if (j := tops[key] - e) > ONE_PLUS_Q_MAX:
            raise InvariantViolation(f"(1+q)**{j} is beyond the packed bound")
        sums[key] = sums.get(key, 0) + packed * factors[j]
    return MappingProxyType({k: QRat.over_one_plus_q(s, tops[k]) for k, s in sums.items() if s})


@per_m(None)
def reduce_to_paths(m: Hess) -> Certificate:
    """Certificate expressing f(m) through values on unions of paths.

    Sound for every f satisfying the restricted modular law; terminates
    because flat steps lower the area and non-flat steps move a cell of the
    Dyck path strictly to the right.  The result is cached, so it is a
    read-only view.
    """
    parts = path_components(m)
    if parts is not None:
        return MappingProxyType({parts: QRat.over_one_plus_q(1, 0)})
    return _combine(reduction_step(m))


def law_defect(f: Callable[[Hess], SymFun], triple: Triple) -> SymFun:
    """(1+q) f(m') - q f(m) - f(m''); zero exactly when the law holds."""
    m, mp, mpp, _ = triple
    middle = f(mp)
    return combination(middle.degree, ((_ONE_PLUS_Q, middle), (-Q, f(m)), (-1, f(mpp))))


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

    Coefficients must be over powers of 1 + q, as in every certificate made or
    read back: each is put over the largest denominator, one ``combination``
    sums the numerators times the base values, and the sum is divided back.
    A sum outside Z[q], or a denominator that does not divide the largest,
    raises NotDivisible.
    """
    if isinstance(base, str):
        base = BASES[base]
    degrees = {sum(key) for key in cert}
    if len(degrees) != 1:
        raise DegreeMismatch(f"a certificate has one degree, not {sorted(degrees)}")
    degree = degrees.pop()
    top = max((c.den for c in cert.values()), key=lambda den: den.degree)
    terms = [(c.num * top.exact_div(c.den), base(key)) for key, c in cert.items()]
    total = combination(degree, terms).coeffs
    return SymFun(degree, "e", {lam: c.exact_div(top) for lam, c in total.items()})


@lru_cache(maxsize=None)
def _paths_text(key: tuple[int, ...]) -> str:
    return str(list(key))


def certificate_text(m: Hess, cert: Certificate, emit: str = "json") -> str:
    """The output of ``chromsym reduce --emit emit``, trailing newline included.

    "json" is one line, byte for byte what ``json.dumps`` writes for
    :func:`certificate_json`; "text" is one line ``paths [...]: coeff`` per
    term.  Terms are sorted by key.  Each coefficient's text is kept on the
    value (see :class:`.QRat`), so a shared coefficient is rendered once and
    a certificate is one join.
    """
    items = sorted(cert.items())
    if emit == "text":
        return "".join([f"paths {_paths_text(key)}: {coeff}\n" for key, coeff in items])
    if emit != "json":
        raise ValueError(f"emit is 'text' or 'json', not {emit!r}")
    terms = ", ".join(
        [f'{{"paths": {_paths_text(key)}, "coeff": {coeff.json_text()}}}' for key, coeff in items]
    )
    return f'{{"n": {len(m)}, "terms": [{terms}]}}\n'


def certificate_json(m: Hess, cert: Certificate) -> dict:
    """The certificate of m as ``{"n": len(m), "terms": [...]}``, one term
    ``{"paths": [...], "coeff": {"num": [...], "den": [...]}}`` per key in
    sorted order, integers as decimal strings.  It is parsed from
    :func:`certificate_text`, the one formatter, so each call returns a fresh
    tree; :func:`certificate_from_json` reads it back."""
    return loads(certificate_text(m, cert))


def certificate_from_json(data: dict) -> Certificate:
    return {
        tuple(term["paths"]): QRat.from_json(term["coeff"]) for term in data["terms"]
    }
