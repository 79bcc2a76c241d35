"""Exhaustive verification suites behind the command line `verify` command.

Each suite checks an identity family over every Hessenberg function (or
triple, or tableau) up to the requested length and reports structured
pass/fail records with witnesses.  Everything is exact: a check passes only
by structural equality in Q(q).  :data:`MAX_N_BY_SUITE` gives the largest n
each suite accepts, from the limits in :mod:`chromsym.errors`.
"""

from __future__ import annotations

from math import comb

from . import coloring, gfunctions, modular, orientations, ptableaux, transition
from .errors import MAX_N, MAX_N_ORIENTATIONS
from .hessenberg import Hess, enumerate_hess, path
from .partitions import all_syt, partitions, vertical_strips
from .qpoly import ONE, RAT_ZERO, QPoly, QRat, q_int
from .symfunc import SymFun


def _check(name: str, passed: bool, witness=None) -> dict:
    out = {"name": name, "passed": bool(passed)}
    if witness is not None and not passed:
        out["witness"] = str(witness)
    return out


def _report(suite: str, n_max: int, checks: list[dict]) -> dict:
    return {
        "suite": suite,
        "n_max": n_max,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _all_hess(n_max: int) -> list[Hess]:
    return [m for n in range(1, n_max + 1) for m in enumerate_hess(n)]


def suite_egs(n_max: int) -> dict:
    """Equality of the three refinements, and of the k-graded pieces."""
    checks = []
    bad_total, bad_k, count = None, None, 0
    for m in _all_hess(n_max):
        count += 1
        n = len(m)
        e = transition.e_total(m)
        g = gfunctions.g_total(m)
        s = ptableaux.s_fun(m).to_e()
        if bad_total is None and not (e == g and e == s):
            bad_total = m
        for k in range(1, n + 1):
            if bad_k is None and transition.e_part(m, k) != gfunctions.g_cap(m, k):
                bad_k = (m, k)
    checks.append(_check(f"E = G = S on {count} functions", bad_total is None, bad_total))
    checks.append(_check("E_k = G_k for every k", bad_k is None, bad_k))
    return _report("egs", n_max, checks)


def suite_x_all(n_max: int) -> dict:
    """Four computations of the chromatic quasisymmetric function agree."""
    checks = []
    bad = {"transition": None, "cycle-sum": None, "schur": None, "decomposition": None}
    for m in _all_hess(n_max):
        n = len(m)
        x = coloring.x_colorings(m).to_e()
        if bad["transition"] is None and x != transition.x_from_table(m):
            bad["transition"] = m
        if bad["cycle-sum"] is None and x != gfunctions.x_cycle_sum(m):
            bad["cycle-sum"] = m
        if bad["schur"] is None and x != ptableaux.x_schur(m).to_e():
            bad["schur"] = m
        total = SymFun.zero(n)
        for k in range(1, n + 1):
            total = total + q_int(k) * gfunctions.g_cap(m, k)
        if bad["decomposition"] is None and x != total:
            bad["decomposition"] = m
    for name, witness in bad.items():
        checks.append(_check(f"coloring oracle matches {name}", witness is None, witness))
    return _report("x-all", n_max, checks)


def suite_modlaw(n_max: int) -> dict:
    """Restricted modular law for all four functions plus reduction soundness."""
    checks = []
    for n in range(2, n_max + 1):
        triples = modular.enumerate_triples(n, "I") + modular.enumerate_triples(n, "IIr")
        families = [("S", lambda m: ptableaux.s_fun(m).to_e())]
        for k in range(1, n + 1):
            families.append((f"E_{k}", lambda m, k=k: transition.e_part(m, k)))
            families.append((f"G_{k}", lambda m, k=k: gfunctions.g_cap(m, k)))
        for k in range(0, n):
            families.append((f"g_{k}", lambda m, k=k: gfunctions.gfun(m, k)))
        witness = None
        for name, f in families:
            for triple in triples:
                if not modular.law_defect(f, triple).is_zero():
                    witness = (name, triple)
                    break
            if witness:
                break
        checks.append(_check(f"no violations on {len(triples)} triples at n={n}", witness is None, witness))
    bad = None
    for m in _all_hess(n_max):
        cert = modular.reduce_to_paths(m)
        if modular.evaluate(cert, "E") != transition.e_total(m):
            bad = (m, "E")
            break
        if modular.evaluate(cert, "G") != gfunctions.g_total(m):
            bad = (m, "G")
            break
        if modular.evaluate(cert, "S") != ptableaux.s_fun(m).to_e():
            bad = (m, "S")
            break
    checks.append(_check("certificates evaluate to direct E/G/S", bad is None, bad))
    return _report("modlaw", n_max, checks)


def suite_sink(n_max: int) -> dict:
    """Both sink theorems and the hook-shape binomial counts."""
    checks = []
    bad_x = bad_s = bad_binom = None
    for m in _all_hess(n_max):
        if bad_x is None:
            left = orientations.sink_distribution(m, "X")
            right = orientations.ao_sink_poly(m, False)
            if {k: QRat(v) for k, v in right.items()} != left:
                bad_x = m
        if bad_s is None:
            left = orientations.sink_distribution(m, "S")
            right = orientations.ao_sink_poly(m, True)
            if {k: QRat(v) for k, v in right.items()} != left:
                bad_s = m
        if bad_binom is None:
            for theta in orientations.enumerate_ao(m, require_1_sink=True):
                ell = len(orientations.sinks(m, theta))
                for i in range(1, ell + 1):
                    if orientations.sink_subset_count(m, theta, i) != comb(ell - 1, i - 1):
                        bad_binom = (m, theta, i)
                        break
                if bad_binom:
                    break
    checks.append(_check("coloring-side sink theorem", bad_x is None, bad_x))
    checks.append(_check("corner-side sink theorem", bad_s is None, bad_s))
    checks.append(_check("hook-shape binomial counts", bad_binom is None, bad_binom))
    return _report("sink", n_max, checks)


def suite_appendix(n_max: int) -> dict:
    """Weight-variant relation, sum-to-one laws, and the area relation."""
    checks = []
    bad_rel = bad_sum = None
    for size in range(0, n_max + 1):
        for tab in all_syt(size):
            for r in range(0, size + 1):
                runs = transition.delta_runs(transition.delta_bits(tab, r))
                total = RAT_ZERO
                for k in range(len(runs[1]) + 1):
                    psi = transition.psi(tab, k, r)
                    phi = transition.phi(tab, k, r)
                    _, pairs, _ = runs
                    b_sum = sum(b for _, b in pairs[k:])
                    a_sum = sum(a for a, _ in pairs[:k])
                    if bad_rel is None and psi * QRat(ONE.shifted(a_sum)) != phi * QRat(
                        ONE.shifted(b_sum)
                    ):
                        bad_rel = (tab, r, k)
                    total = total + psi
                if bad_sum is None and total != QRat(1):
                    bad_sum = (tab, r)
    checks.append(_check("psi/phi power relation pointwise", bad_rel is None, bad_rel))
    checks.append(_check("insertion weights sum to one", bad_sum is None, bad_sum))
    bad_p = bad_area = None
    for m in _all_hess(n_max):
        if bad_p is None and transition.probability_sum(m) != QRat(1):
            bad_p = m
        if bad_area is None and not transition.check_area_relation(m):
            bad_area = m
    checks.append(_check("probabilities sum to one", bad_p is None, bad_p))
    checks.append(_check("area relation between weight variants", bad_area is None, bad_area))
    return _report("appendix", n_max, checks)


def suite_paths(n_max: int) -> dict:
    """Path closed forms, the vertical-strip recursion, and the peel bijection."""
    checks = []
    bad_closed = None
    for n in range(1, n_max + 1):
        m = path(n)
        for k in range(1, n + 1):
            if transition.e_part(m, k) != gfunctions.path_e_closed(n, k):
                bad_closed = (n, k)
                break
        if transition.x_from_table(m) != gfunctions.path_x_closed(n):
            bad_closed = (n, "X")
        if bad_closed:
            break
    checks.append(_check("closed forms match the probability model", bad_closed is None, bad_closed))

    bad_rec = None
    for n in range(1, n_max + 1):
        for lam in partitions(n):
            lhs = ptableaux.corner_path_poly(lam)
            rhs = QPoly((1,)) if set(lam) == {1} else QPoly()
            for mu in vertical_strips(lam):
                if mu == lam:
                    continue
                size = n - sum(mu)
                rhs = rhs + (q_int(size) - ONE) * ptableaux.corner_path_poly(mu)
            if lhs != rhs:
                bad_rec = lam
                break
    checks.append(_check("vertical-strip recursion", bad_rec is None, bad_rec))

    bad_peel = None
    for n in range(1, n_max + 1):
        m = path(n)
        for lam in partitions(n):
            for rows in ptableaux.enumerate_pt(m, lam, corner1=True):
                if rows == ptableaux.base_column(n):
                    continue
                stripped, j = ptableaux.path_peel(rows)
                back = ptableaux.path_unpeel(stripped, j, lam)
                smaller = sum(len(r) for r in stripped)
                inv_ok = (
                    ptableaux.inv_filling(m, rows)
                    == ptableaux.inv_filling(path(smaller), stripped) + j
                )
                if back != rows or not inv_ok:
                    bad_peel = rows
                    break
    checks.append(_check("peel/unpeel round trip with inv shift", bad_peel is None, bad_peel))
    return _report("paths", n_max, checks)


SUITES = {
    "egs": suite_egs,
    "x-all": suite_x_all,
    "modlaw": suite_modlaw,
    "sink": suite_sink,
    "appendix": suite_appendix,
    "paths": suite_paths,
}

MAX_N_BY_SUITE = {**dict.fromkeys(SUITES, MAX_N), "sink": MAX_N_ORIENTATIONS}


def run_suite(name: str, n_max: int) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](n_max)
