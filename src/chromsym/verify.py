"""Exhaustive verification suites behind the command line `verify` command.

Each suite checks an identity family over every Hessenberg function (or
triple, or tableau) up to the requested length and reports structured
pass/fail records with witnesses.  Everything is exact: a check passes only
by structural equality in Q(q).  Every suite accepts n up to the one limit
in :mod:`chromsym.errors`.

A suite only declares its checks: it returns groups ``(names, instances,
test)``, where ``instances`` is a sequence and ``test(x)`` returns one
witness, or None, per name.  One runner, :func:`_run`, makes one pass over
each group's instances, so values that several checks of an instance share
are computed once.  It keeps the first witness of each check and leaves the
group as soon as every check in it has one.

Where this process may run on more than one CPU and ``os.fork`` exists, the
runner forks one worker once per suite, with one pipe, and scans share 0
itself while the worker scans share 1; share s is instances s, s + 2, ... of
every group.  A group may add a fourth element, ``route(x)``: then instance
x is in share ``route(x) % 2``, so that the instances that need one costly
engine meet in one process.  The worker sends back, per check, the index and
``str()`` of its first witness as JSON, and the runner keeps the witness of
smallest index.  A share stops only past the index where a serial run stops,
so the report is the same in one process or two, for library callers and
the command line alike.  A parallel run that fails in any way (an engine
error, a dead worker, a failed fork, JSON that does not parse) is thrown
away once the worker is reaped, and the suite is scanned again serially
here.  That raises the engine's own exception, or reports as usual when the
error lay past every witness.  An interrupt propagates once the worker is
reaped.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from math import comb

from . import coloring, gfunctions, modular, orientations, ptableaux, transition
from .errors import check_size
from .hessenberg import Hess, enumerate_hess, path
from .partitions import all_syt, partitions, vertical_strips
from .qpoly import ONE, RAT_ONE, RAT_ZERO, QPoly, QRat, q_int
from .symfunc import combination


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scan(groups, start: int, step: int):
    """Yield, per group, the first witness of each check among the instances
    of share ``start`` of ``step``, as [index, str].  A group's scan ends once
    every check has a witness: a serial run reaches no later instance."""
    for names, instances, test, *route in groups:
        first = [None] * len(names)
        for i, x in enumerate(instances):
            if (route[0](x) if route else i) % step != start:
                continue
            found = [None if new is None else [i, str(new)] for new in test(x)]
            first = [old or new for old, new in zip(first, found)]
            if None not in first:
                break
        yield first


def _worker(groups, write: int):
    """Scan share 1 of 2 in a forked child, write it to the pipe as JSON, and leave."""
    try:
        with open(write, "w") as out:
            json.dump(list(_scan(groups, 1, 2)), out)
    finally:
        os._exit(0)  # no atexit handlers or parent buffers; a share that raised sent no JSON


def _forked(groups) -> list[list]:
    """Both shares of every group: share 0 is scanned in this process while a
    forked worker scans share 1.  The worker is reaped before this returns or raises."""
    read, write = os.pipe()
    with open(read) as pipe:
        try:
            pid = os.fork()
            if pid == 0:
                _worker(groups, write)
        finally:
            os.close(write)
        text = None
        try:
            own = list(_scan(groups, 0, 2))
            text = pipe.read()
        finally:
            if text is None:
                from signal import SIGKILL  # only here: the CLI's imports stay as they were

                os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    return [own, json.loads(text)]


def _run(suite: str, n_max: int, groups: list) -> dict:
    """Run every group and report each check with its first witness."""
    shares = [_scan(groups, 0, 1)]
    # One worker at most: two processes on two CPUs is the largest count that
    # was measured, and more workers each repeat part of the engine work and
    # its memory (modlaw's workers meet almost every m).
    if usable_cpus() > 1 and hasattr(os, "fork"):
        try:
            shares = _forked(groups)
        except Exception:
            pass  # the serial scan meets the failure again, or ends before it
    checks = []
    for (names, *_), parts in zip(groups, zip(*shares)):
        for name, found in zip(names, zip(*parts)):
            witness = min(filter(None, found), default=None)
            check = {"name": name, "passed": witness is None}
            if witness is not None:
                check["witness"] = witness[1]
            checks.append(check)
    passed = all(c["passed"] for c in checks)
    return {"suite": suite, "n_max": n_max, "checks": checks, "passed": passed}


def _all_hess(n_max: int) -> list[Hess]:
    return [m for n in range(1, n_max + 1) for m in enumerate_hess(n)]


def suite_egs(n_max: int) -> list:
    """Equality of the three refinements, and of the k-graded pieces."""

    def test(m):
        e = transition.e_total(m)
        g = gfunctions.g_total(m)
        s = ptableaux.s_fun(m)
        pieces = (
            (m, k)
            for k in range(1, len(m) + 1)
            if transition.e_part(m, k) != gfunctions.g_cap(m, k)
        )
        return (None if e == g and e == s else m), next(pieces, None)

    ms = _all_hess(n_max)
    names = (f"E = G = S on {len(ms)} functions", "E_k = G_k for every k")
    return [(names, ms, test)]


def x_engines() -> dict:
    """The X engines by name, coloring oracle first, as their modules hold them now."""

    def decomposition(m):
        n = len(m)
        return combination(n, ((q_int(k), gfunctions.g_cap(m, k)) for k in range(1, n + 1)))

    return {
        "coloring": coloring.x_colorings,
        "transition": transition.x_from_table,
        "cycle-sum": gfunctions.x_cycle_sum,
        "schur": ptableaux.x_schur,
        "decomposition": decomposition,
    }


def suite_x_all(n_max: int) -> list:
    """Four computations of the chromatic quasisymmetric function agree."""
    (_, oracle), *engines = x_engines().items()

    def test(m):
        x = oracle(m)
        return [None if x == f(m) else m for _, f in engines]

    names = [f"coloring oracle matches {name}" for name, _ in engines]
    return [(names, _all_hess(n_max), test)]


def suite_modlaw(n_max: int) -> list:
    """Restricted modular law for all four functions plus reduction soundness."""

    def lawful(x):
        name, f, triple = x
        return (None if modular.law_defect(f, triple).is_zero() else (name, triple),)

    # With a worker, S and E go to one process and G and g to the other, so each
    # computes one of the two costly engines (P-tableaux; cycle statistics).
    process = {"S": 0, "E": 0, "G": 1, "g": 1}

    groups = []
    for n in range(2, n_max + 1):
        triples = modular.enumerate_triples(n, "I") + modular.enumerate_triples(n, "IIr")
        families = [("S", ptableaux.s_fun)]
        for k in range(1, n + 1):
            families.append((f"E_{k}", lambda m, k=k: transition.e_part(m, k)))
            families.append((f"G_{k}", lambda m, k=k: gfunctions.g_cap(m, k)))
        for k in range(0, n):
            families.append((f"g_{k}", lambda m, k=k: gfunctions.gfun(m, k)))
        cases = [(name, f, t) for name, f in families for t in triples]
        name = f"no violations on {len(triples)} triples at n={n}"
        groups.append(([name], cases, lawful, lambda x: process[x[0][0]]))

    @lru_cache(maxsize=1)  # an m's three instances are consecutive
    def contracted(m):
        # E = G = S on path unions, so one contraction is checked against all three engines
        return modular.evaluate(modular.reduce_to_paths(m), modular.path_union_closed)

    def certified(x):
        m, b, f = x
        return (None if contracted(m) == f(m) else (m, b),)

    direct = (("E", transition.e_total), ("G", gfunctions.g_total), ("S", ptableaux.s_fun))
    cases = [(m, b, f) for m in _all_hess(n_max) for b, f in direct]
    name = "certificates evaluate to direct E/G/S"
    groups.append(([name], cases, certified, lambda x: process[x[1]]))
    return groups


def suite_sink(n_max: int) -> list:
    """Both sink theorems and the hook-shape binomial counts."""

    def theorem(m, side, right):
        left = orientations.sink_distribution(m, side)
        return None if right == left else m

    def binomial(m, sink1):
        counts = [orientations.hook_theta_counts(m, i) for i in range(1, len(m) + 1)]
        for theta, ell in sink1:
            for i in range(1, ell + 1):
                if counts[i - 1][theta] != comb(ell - 1, i - 1):
                    return m, theta, i
        return None

    def test(m):
        # one pass over the acyclic orientations serves both sides and the binomial counts
        everything, corner, sink1 = orientations.ao_tally(m)
        return theorem(m, "X", everything), theorem(m, "S", corner), binomial(m, sink1)

    names = ["coloring-side sink theorem", "corner-side sink theorem", "hook-shape binomial counts"]
    return [(names, _all_hess(n_max), test)]


def suite_appendix(n_max: int) -> list:
    """Weight-variant relation, sum-to-one laws, and the area relation."""

    def weights(x):
        tab, r = x
        _, pairs, _ = transition.insertion_runs(tab, r)
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
    return [(tab_names, tabs, weights), (m_names, _all_hess(n_max), model)]


def suite_paths(n_max: int) -> list:
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
    fillings = [
        (m, lam, rows)
        for m in map(path, ns)
        for lam in partitions(len(m))
        for rows in ptableaux.enumerate_pt(m, lam, corner1=True)
        if rows != ptableaux.base_column(len(m))
    ]
    return [
        (["closed forms match the probability model"], ns, closed),
        (["vertical-strip recursion"], [lam for n in ns for lam in partitions(n)], recursion),
        (["peel/unpeel round trip with inv shift"], fillings, peel),
    ]


SUITES = {
    "egs": suite_egs,
    "x-all": suite_x_all,
    "modlaw": suite_modlaw,
    "sink": suite_sink,
    "appendix": suite_appendix,
    "paths": suite_paths,
}


def run_suite(name: str, n_max: int) -> dict:
    """Run one suite up to n_max; the report is the same in one process or two."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if n_max < 1:
        raise ValueError(f"n_max = {n_max} is below 1")
    check_size(n_max)  # refused before any instance is built or the worker forked
    return _run(name, n_max, SUITES[name](n_max))
