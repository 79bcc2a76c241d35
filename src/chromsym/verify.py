"""Exhaustive verification suites behind the command line `verify` command.

Each suite checks an identity family over every Hessenberg function (or
triple, or tableau) up to the requested length and reports structured
pass/fail records with witnesses.  Everything is exact: a check passes only
by structural equality in Q(q).  Every suite accepts n up to the one limit
in :mod:`chromsym.errors`.

A suite only declares its checks, in groups ``(names, instances, test)``:
``test(x)`` returns one witness, or None, per name.  One runner, :func:`_run`,
makes one pass over each group's instances, so values that several checks
of an instance share are computed once.  It keeps the first witness of each
check and leaves the group as soon as every check in it has one.
"""

from __future__ import annotations

from math import comb

from . import coloring, gfunctions, modular, orientations, ptableaux, transition
from .hessenberg import Hess, enumerate_hess, path
from .partitions import all_syt, partitions, vertical_strips
from .qpoly import ONE, RAT_ONE, RAT_ZERO, QPoly, QRat, q_int
from .symfunc import combination


def _run(suite: str, n_max: int, groups) -> dict:
    """Run every group and report each check with its first witness."""
    checks = []
    for names, instances, test in groups:
        first = [None] * len(names)
        for x in instances:
            first = [old if old is not None else new for old, new in zip(first, test(x))]
            if None not in first:
                break
        for name, witness in zip(names, first):
            check = {"name": name, "passed": witness is None}
            if witness is not None:
                check["witness"] = str(witness)
            checks.append(check)
    passed = all(c["passed"] for c in checks)
    return {"suite": suite, "n_max": n_max, "checks": checks, "passed": passed}


def _all_hess(n_max: int) -> list[Hess]:
    return [m for n in range(1, n_max + 1) for m in enumerate_hess(n)]


def suite_egs(n_max: int) -> dict:
    """Equality of the three refinements, and of the k-graded pieces."""

    def test(m):
        e = transition.e_total(m)
        g = gfunctions.g_total(m)
        s = ptableaux.s_fun(m).to_e()
        pieces = (
            (m, k)
            for k in range(1, len(m) + 1)
            if transition.e_part(m, k) != gfunctions.g_cap(m, k)
        )
        return (None if e == g and e == s else m), next(pieces, None)

    ms = _all_hess(n_max)
    names = (f"E = G = S on {len(ms)} functions", "E_k = G_k for every k")
    return _run("egs", n_max, [(names, ms, test)])


def suite_x_all(n_max: int) -> dict:
    """Four computations of the chromatic quasisymmetric function agree."""

    def decomposition(m):
        n = len(m)
        return combination(n, ((q_int(k), gfunctions.g_cap(m, k)) for k in range(1, n + 1)))

    engines = {
        "transition": transition.x_from_table,
        "cycle-sum": gfunctions.x_cycle_sum,
        "schur": lambda m: ptableaux.x_schur(m).to_e(),
        "decomposition": decomposition,
    }

    def test(m):
        x = coloring.x_colorings(m).to_e()
        return [None if x == f(m) else m for f in engines.values()]

    names = [f"coloring oracle matches {name}" for name in engines]
    return _run("x-all", n_max, [(names, _all_hess(n_max), test)])


def suite_modlaw(n_max: int) -> dict:
    """Restricted modular law for all four functions plus reduction soundness."""

    def lawful(x):
        name, f, triple = x
        return (None if modular.law_defect(f, triple).is_zero() else (name, triple),)

    def s_e(m):
        return ptableaux.s_fun(m).to_e()

    groups = []
    for n in range(2, n_max + 1):
        triples = modular.enumerate_triples(n, "I") + modular.enumerate_triples(n, "IIr")
        families = [("S", s_e)]
        for k in range(1, n + 1):
            families.append((f"E_{k}", lambda m, k=k: transition.e_part(m, k)))
            families.append((f"G_{k}", lambda m, k=k: gfunctions.g_cap(m, k)))
        for k in range(0, n):
            families.append((f"g_{k}", lambda m, k=k: gfunctions.gfun(m, k)))
        cases = [(name, f, t) for name, f in families for t in triples]
        groups.append(([f"no violations on {len(triples)} triples at n={n}"], cases, lawful))

    def certified(m):
        # E = G = S on path unions, so one contraction is checked against all three engines
        value = modular.evaluate(modular.reduce_to_paths(m), modular.path_union_closed)
        direct = (("E", transition.e_total), ("G", gfunctions.g_total), ("S", s_e))
        return (next(((m, b) for b, f in direct if value != f(m)), None),)

    groups.append((["certificates evaluate to direct E/G/S"], _all_hess(n_max), certified))
    return _run("modlaw", n_max, groups)


def suite_sink(n_max: int) -> dict:
    """Both sink theorems and the hook-shape binomial counts."""

    def theorem(m, side, right):
        left = orientations.sink_distribution(m, side)
        return None if right == left else m

    def binomial(m, sink1):
        counts = [orientations.hook_theta_counts(m, i) for i in range(1, len(m) + 1)]
        for theta in sink1:
            ell = len(orientations.sinks(m, theta))
            for i in range(1, ell + 1):
                if counts[i - 1][theta] != comb(ell - 1, i - 1):
                    return m, theta, i
        return None

    def test(m):
        # one enumeration serves both sides; the corner side keeps those with 1 a sink
        thetas = orientations.enumerate_ao(m)
        sink1 = tuple(theta for theta in thetas if 1 in orientations.sinks(m, theta))
        left = theorem(m, "X", orientations.sink_poly(m, thetas))
        return left, theorem(m, "S", orientations.sink_poly(m, sink1)), binomial(m, sink1)

    names = ["coloring-side sink theorem", "corner-side sink theorem", "hook-shape binomial counts"]
    return _run("sink", n_max, [(names, _all_hess(n_max), test)])


def suite_appendix(n_max: int) -> dict:
    """Weight-variant relation, sum-to-one laws, and the area relation."""

    def weights(x):
        tab, r = x
        _, pairs, _ = transition.delta_runs(transition.delta_bits(tab, r))
        psis = [transition.psi(tab, k, r) for k in range(len(pairs) + 1)]
        relation = (
            (tab, r, k)
            for k, psi in enumerate(psis)
            if psi * QRat(ONE.shifted(sum(a for a, _ in pairs[:k])))
            != transition.phi(tab, k, r) * QRat(ONE.shifted(sum(b for _, b in pairs[k:])))
        )
        return next(relation, None), (None if sum(psis, RAT_ZERO) == RAT_ONE else (tab, r))

    def model(m):
        return (
            None if transition.probability_sum(m) == RAT_ONE else m,
            None if transition.check_area_relation(m) else m,
        )

    tabs = [(tab, r) for size in range(n_max + 1) for tab in all_syt(size) for r in range(size + 1)]
    tab_names = ["psi/phi power relation pointwise", "insertion weights sum to one"]
    m_names = ["probabilities sum to one", "area relation between weight variants"]
    return _run("appendix", n_max, [(tab_names, tabs, weights), (m_names, _all_hess(n_max), model)])


def suite_paths(n_max: int) -> dict:
    """Path closed forms, the vertical-strip recursion, and the peel bijection."""

    def closed(n):
        m = path(n)
        pieces = (
            (n, k)
            for k in range(1, n + 1)
            if transition.e_part(m, k) != gfunctions.path_e_closed(n, k)
        )
        x_ok = transition.x_from_table(m) == gfunctions.path_x_closed(n)
        return (next(pieces, None) if x_ok else (n, "X"),)

    def recursion(lam):
        lhs = ptableaux.corner_path_poly(lam)
        rhs = QPoly((1,)) if set(lam) == {1} else QPoly()
        for mu in vertical_strips(lam):
            if mu != lam:
                rhs = rhs + (q_int(sum(lam) - sum(mu)) - ONE) * ptableaux.corner_path_poly(mu)
        return (None if lhs == rhs else lam,)

    def peel(x):
        m, lam, rows = x
        stripped, j = ptableaux.path_peel(rows)
        back = ptableaux.path_unpeel(stripped, j, lam)
        smaller = path(sum(len(r) for r in stripped))
        inv_ok = ptableaux.inv_filling(m, rows) == ptableaux.inv_filling(smaller, stripped) + j
        return (None if back == rows and inv_ok else rows,)

    ns = range(1, n_max + 1)
    fillings = (
        (m, lam, rows)
        for m in map(path, ns)
        for lam in partitions(len(m))
        for rows in ptableaux.enumerate_pt(m, lam, corner1=True)
        if rows != ptableaux.base_column(len(m))
    )
    return _run("paths", n_max, [
        (["closed forms match the probability model"], ns, closed),
        (["vertical-strip recursion"], [lam for n in ns for lam in partitions(n)], recursion),
        (["peel/unpeel round trip with inv shift"], fillings, peel),
    ])


SUITES = {
    "egs": suite_egs,
    "x-all": suite_x_all,
    "modlaw": suite_modlaw,
    "sink": suite_sink,
    "appendix": suite_appendix,
    "paths": suite_paths,
}


def run_suite(name: str, n_max: int) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](n_max)
