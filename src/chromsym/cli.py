"""Command line interface: compute, verify, reduce, and trace.

Exit codes: 0 on success, 1 when a computation fails or a verification suite
finds a violation, 2 on usage errors.  The parameter q stays formal in all
output; ``--at-q`` specializes only after every exact division has happened.
A malformed ``--at-q``, or ``--at-q`` with ``--json``, is a usage error.

Sizes follow the one limit in :mod:`chromsym.errors`: n is at most 8, for
every command and every suite; ``compute --what rho`` counts its ``--k`` as n
too.  A ``--n``, ``--m`` or such ``--k`` above the limit, or a ``--n`` below 1,
is refused with exit code 2 before any work starts.  The argument parser is
built once per process, on first use.

``verify --jobs N`` scans a suite in N processes, this one and N - 1
workers forked once per suite; N defaults to 2 (``DEFAULT_JOBS``), or 1 on a
one-CPU machine, and ``--jobs 1`` forks nothing.  The output and the exit
code are the same, byte for byte, for every N.  An N below 1 or above the
CPUs this process may use is a usage error, refused before any work or fork.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache

from . import coloring, gfunctions, modular, ptableaux, transition, verify
from .errors import MAX_N
from .hessenberg import hess
from .symfunc import SymFun


def _check_size(args, parser: argparse.ArgumentParser) -> None:
    """Refuse a request above the size limit, or a suite below n = 1, as a usage error."""
    if args.command == "verify":
        n = args.n
        if n < 1:
            parser.error(f"--n = {n} is below 1")
    else:
        # hess() parses --m later, so that a malformed value stays a computation error
        n = len((args.m or "").replace(",", " ").split())
        if args.command == "compute" and args.what == "rho":
            n = max(n, args.k or 0)
    if n > MAX_N:
        parser.error(f"n = {n} exceeds the limit {MAX_N}")


# The largest default worker count that was measured: two processes on two
# CPUs.  More workers each repeat part of the engine work and its memory
# (modlaw's workers meet almost every m).
DEFAULT_JOBS = 2


def _check_jobs(args, parser: argparse.ArgumentParser) -> None:
    """Default ``verify --jobs``; refuse a count outside 1 to the usable CPUs."""
    cpus = verify.usable_cpus()
    if args.jobs is None:
        args.jobs = min(DEFAULT_JOBS, cpus)
    elif not 1 <= args.jobs <= cpus:
        parser.error(f"--jobs = {args.jobs} is not between 1 and the {cpus} usable CPUs")


def _rational(text: str) -> Fraction:
    """Parse --at-q, so that a malformed value is refused before any work."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromsym",
        description="Exact chromatic symmetric function computations for unit interval orders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute one of the symmetric functions")
    p.add_argument("--what", required=True, choices=["X", "E", "Ek", "G", "Gk", "S", "g", "rho"])
    p.add_argument("--m", help="Hessenberg function, e.g. 2,3,5,5,5")
    p.add_argument("--basis", default="e", choices=["e", "s", "m"])
    p.add_argument("--k", type=int, help="grading index where applicable")
    p.add_argument(
        "--method",
        default="coloring",
        choices=["coloring", "transition", "cycle-sum", "schur"],
        help="which engine computes X",
    )
    p.add_argument(
        "--at-q", dest="at_q", type=_rational, help="evaluate coefficients at an exact rational q"
    )
    # argparse reads -1/2 as an option unless told that -<digit> starts a value
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--tsv", action="store_true", help="partition and coefficient columns")

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p.add_argument("--n", type=int, required=True, help="verify all lengths up to n")
    p.add_argument(
        "--jobs", type=int, help=f"processes that scan the suite (default {DEFAULT_JOBS}, at most the CPUs)"
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("reduce", help="reduce to a path-decomposition certificate")
    p.add_argument("--m", required=True)
    p.add_argument("--emit", default="text", choices=["text", "json"])

    p = sub.add_parser("trace", help="print a model's transition tree")
    p.add_argument("model", choices=["transition"])
    p.add_argument("--m", required=True)
    return parser


def _print_symfun(f: SymFun, as_json: bool, as_tsv: bool, at_q: Fraction | None) -> None:
    if at_q is not None:
        items = sorted(f.at_q(at_q).items(), reverse=True)
    elif as_json:
        print(json.dumps(f.to_json()))
        return
    elif f.is_zero():
        print("0")
        return
    else:
        items = f.sorted_items()
    for lam, c in items:
        if as_tsv:
            print(f"[{','.join(map(str, lam))}]\t{c}")
        elif lam:
            print(f"{f.basis}[{','.join(map(str, lam))}]: {c}")
        else:
            print(str(c))


def _cmd_compute(args, parser) -> int:
    if args.what in ("Ek", "Gk", "g", "rho") and args.k is None:
        parser.error(f"--what {args.what} requires --k")
    if args.what != "rho" and args.m is None:
        parser.error(f"--what {args.what} requires --m")
    if args.at_q is not None and args.json:
        parser.error("--at-q cannot be combined with --json")
    if args.m is not None:
        m = hess(args.m)
    if args.what == "X":
        engines = {
            "coloring": lambda: coloring.x_colorings(m),
            "transition": lambda: transition.x_from_table(m),
            "cycle-sum": lambda: gfunctions.x_cycle_sum(m),
            "schur": lambda: ptableaux.x_schur(m),
        }
        f = engines[args.method]()
    elif args.what == "E":
        f = transition.e_total(m)
    elif args.what == "Ek":
        f = transition.e_part(m, args.k)
    elif args.what == "G":
        f = gfunctions.g_total(m)
    elif args.what == "Gk":
        f = gfunctions.g_cap(m, args.k)
    elif args.what == "S":
        f = ptableaux.s_fun(m)
    elif args.what == "g":
        f = gfunctions.gfun(m, args.k)
    else:
        f = gfunctions.rho(args.k)
    _print_symfun(f.in_basis(args.basis), args.json, args.tsv, args.at_q)
    return 0


def _cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, args.n, args.jobs)
    if args.json:
        print(json.dumps(report))
    else:
        for check in report["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            line = f"{status}  {check['name']}"
            if not check["passed"] and "witness" in check:
                line += f"  witness: {check['witness']}"
            print(line)
        print(("PASS" if report["passed"] else "FAIL") + f"  suite {report['suite']} up to n={report['n_max']}")
    return 0 if report["passed"] else 1


def _cmd_reduce(args) -> int:
    m = hess(args.m)
    cert = modular.reduce_to_paths(m)
    if args.emit == "json":
        print(json.dumps(modular.certificate_json(m, cert)))
    else:
        for key, coeff in sorted(cert.items()):
            print(f"paths {list(key)}: {coeff}")
    return 0


def _cmd_trace(args) -> int:
    m = hess(args.m)
    for rec in transition.trace(m):
        shape = [len(row) for row in rec["child"]]
        parent = [list(row) for row in rec["parent"]]
        child = [list(row) for row in rec["child"]]
        print(
            f"step={rec['step']} r={rec['r']} k={rec['k']} shape={shape} "
            f"parent={parent} child={child} weight={rec['weight']} p={rec['p']}"
        )
    return 0


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    _check_size(args, parser)
    if args.command == "verify":
        _check_jobs(args, parser)
    try:
        if args.command == "compute":
            return _cmd_compute(args, parser)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "reduce":
            return _cmd_reduce(args)
        return _cmd_trace(args)
    except (ValueError, ArithmeticError, ChildProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
