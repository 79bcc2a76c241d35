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

With ``jobs`` above 1 the runner forks ``jobs - 1`` workers once per suite
(``os.fork``, one pipe each) and scans share 0 itself; share w is instances
w, w + jobs, ... of every group.  A group may add a fourth element,
``route(x)``: then instance x is in share ``route(x) % jobs``, so that the
instances that need one costly engine meet in one process.  A worker sends
back, per check, the index and ``str()`` of its first witness, and per group
the index of its first error, as JSON.  The runner keeps the witness of
smallest index, so the report is the same, byte for byte, for every
``jobs``.  If a serial run would have met the error of smallest index (some
check has no witness before it), the runner tests that instance again in
this process, which raises the same exception, type, message and all: the
engines are deterministic.  A worker that dies raises ``ChildProcessError``.
With ``jobs = 1``, or without ``os.fork``, the same scan runs inline.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from math import comb

from . import coloring, gfunctions, modular, orientations, ptableaux, transition
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
    of share ``start`` of ``step`` as [index, str], and the index of the first
    instance whose test raised.  A group's scan ends at its first error, or
    once every check has a witness: a serial run reaches no later instance."""
    for names, instances, test, *route in groups:
        first, error = [None] * len(names), None
        for i, x in enumerate(instances):
            if (route[0](x) if route else i) % step != start:
                continue
            try:
                found = [None if new is None else [i, str(new)] for new in test(x)]
            except Exception:
                error = i
                break
            first = [old or new for old, new in zip(first, found)]
            if None not in first:
                break
        yield first, error


def _worker(groups, start: int, step: int, write: int):
    """Scan one share in a forked child, write it to the pipe as JSON, and leave."""
    code = 1
    try:
        with open(write, "w") as out:
            json.dump(list(_scan(groups, start, step)), out)
        code = 0
    finally:
        os._exit(code)  # no atexit handlers, no flush of the parent's buffers


def _forked(groups, jobs: int) -> list[list]:
    """Every share of every group: share 0 is scanned in this process while
    forked workers scan shares 1 to jobs - 1.  Every worker is reaped before
    this returns or raises."""
    pids, pipes, texts = [], [], None
    try:
        for w in range(1, jobs):
            read, write = os.pipe()
            pipes.append(open(read))
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(groups, w, jobs, write)
            finally:
                os.close(write)
            pids.append(pid)
        own = list(_scan(groups, 0, jobs))
        texts = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        codes = []
        for pid in pids:
            if texts is None:
                from signal import SIGKILL  # only here: the CLI's imports stay as they were

                os.kill(pid, SIGKILL)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for code in codes:
        if code != 0:
            raise ChildProcessError(f"a verify worker exited with status {code}")
    return [own, *map(json.loads, texts)]


def _merge(parts, instances, test) -> list:
    """The first witness of each check over every share of one group.  If a
    serial run would meet the first error, the test of that instance runs
    again here and raises it, with its own type, message and traceback."""
    first = [min(filter(None, found), default=None) for found in zip(*(f for f, _ in parts))]
    error = min((e for _, e in parts if e is not None), default=None)
    if error is not None and any(w is None or w[0] > error for w in first):
        test(instances[error])
        raise RuntimeError(f"instance {error} raised in its scan but not again")
    return [w and w[1] for w in first]


def _run(suite: str, n_max: int, groups: list, jobs: int) -> dict:
    """Run every group and report each check with its first witness."""
    shares = _forked(groups, jobs) if jobs > 1 and hasattr(os, "fork") else [_scan(groups, 0, 1)]
    checks = []
    for (names, instances, test, *_), parts in zip(groups, zip(*shares)):
        for name, witness in zip(names, _merge(parts, instances, test)):
            check = {"name": name, "passed": witness is None}
            if witness is not None:
                check["witness"] = witness
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
        s = ptableaux.s_fun(m).to_e()
        pieces = (
            (m, k)
            for k in range(1, len(m) + 1)
            if transition.e_part(m, k) != gfunctions.g_cap(m, k)
        )
        return (None if e == g and e == s else m), next(pieces, None)

    ms = _all_hess(n_max)
    names = (f"E = G = S on {len(ms)} functions", "E_k = G_k for every k")
    return [(names, ms, test)]


def suite_x_all(n_max: int) -> list:
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
    return [(names, _all_hess(n_max), test)]


def suite_modlaw(n_max: int) -> list:
    """Restricted modular law for all four functions plus reduction soundness."""

    def lawful(x):
        name, f, triple = x
        return (None if modular.law_defect(f, triple).is_zero() else (name, triple),)

    def s_e(m):
        return ptableaux.s_fun(m).to_e()

    # With workers, S and E go to one process and G and g to another, so each
    # computes one of the two costly engines (P-tableaux; cycle statistics).
    process = {"S": 0, "G": 1, "g": 1, "E": 2}

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
        name = f"no violations on {len(triples)} triples at n={n}"
        groups.append(([name], cases, lawful, lambda x: process[x[0][0]]))

    @lru_cache(maxsize=1)  # an m's three instances are consecutive
    def contracted(m):
        # E = G = S on path unions, so one contraction is checked against all three engines
        return modular.evaluate(modular.reduce_to_paths(m), modular.path_union_closed)

    def certified(x):
        m, b, f = x
        return (None if contracted(m) == f(m) else (m, b),)

    direct = (("E", transition.e_total), ("G", gfunctions.g_total), ("S", s_e))
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
    return [(names, _all_hess(n_max), test)]


def suite_appendix(n_max: int) -> list:
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


def run_suite(name: str, n_max: int, jobs: int = 1) -> dict:
    """Run one suite up to n_max on ``jobs`` processes; the report does not depend on jobs."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if jobs < 1:
        raise ValueError(f"jobs = {jobs} is below 1")
    return _run(name, n_max, SUITES[name](n_max), jobs)
