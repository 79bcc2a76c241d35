"""Command line interface: compute, verify, reduce, and trace.

Exit codes: 0 on success, 1 when a computation fails or a verification suite
finds a violation, 2 on usage errors.  The parameter q stays formal in all
output; ``--at-q`` specializes only after every exact division has happened.
A malformed ``--at-q``, or ``--at-q`` with ``--json``, is a usage error, and
so is an option the request cannot use: ``--method`` for anything but X,
``--k`` for X, E, G or S, or ``--m`` for rho.

Sizes follow the one limit in :mod:`chromsym.errors`: n is at most 8, for
every command and every suite.  A ``--n`` or ``--m`` above the limit, a
``--n`` below 1, or a ``compute --k`` outside its range (1 <= k <= n for Ek
and Gk, 0 <= k < n for g and 0 <= k <= 8 for rho, n the length of ``--m``)
is refused with exit code 2 before any work starts (``hess`` and ``run_suite``
refuse the size); ``--m`` is parsed first, so a malformed ``--m`` is a
computation error whatever ``--k`` is.  A call
whose first argument names a command is parsed once, by that command's own
parser; an empty call, any other first argument, or arguments that parser
leaves over go through the top-level parser, which prints and exits as
argparse does.

``verify`` takes its process count from :func:`chromsym.verify.run_suite`,
as every library caller does: two processes, this one and one worker forked
once per suite, where this process may run on more than one CPU, else this
one alone (``taskset -c 0 chromsym verify ...`` pins a run to one).  The
output and the exit code are the same, byte for byte, either way.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

from . import gfunctions, modular, ptableaux, transition, verify
from .errors import MAX_N, SizeLimitExceeded
from .hessenberg import hess
from .symfunc import SymFun


def _rational(text: str) -> Fraction:
    """Parse --at-q, so that a malformed value is refused before any work."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


@lru_cache(maxsize=None)
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command's parser by name."""
    parser = argparse.ArgumentParser(
        prog="chromsym",
        description="Exact chromatic symmetric function computations for unit interval orders",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = commands["compute"] = sub.add_parser("compute", help="compute one of the symmetric functions")
    p.add_argument("--what", required=True, choices=["X", "E", "Ek", "G", "Gk", "S", "g", "rho"])
    p.add_argument("--m", help="Hessenberg function, e.g. 2,3,5,5,5")
    p.add_argument("--basis", default="e", choices=["e", "s", "m"])
    p.add_argument("--k", type=int, help="grading index where applicable")
    p.add_argument(
        "--method",
        choices=list(verify.x_engines()),
        help="which engine computes X (default coloring)",
    )
    p.add_argument(
        "--at-q", dest="at_q", type=_rational, help="evaluate coefficients at an exact rational q"
    )
    # argparse reads -1/2 as an option unless told that -<digit> starts a value
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--tsv", action="store_true", help="partition and coefficient columns")

    p = commands["verify"] = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p.add_argument("--n", type=int, required=True, help="verify all lengths up to n")
    p.add_argument("--json", action="store_true")

    p = commands["reduce"] = sub.add_parser("reduce", help="reduce to a path-decomposition certificate")
    p.add_argument("--m", required=True)
    p.add_argument("--emit", default="text", choices=["text", "json"])

    p = commands["trace"] = sub.add_parser("trace", help="print a model's transition tree")
    p.add_argument("model", choices=["transition"])
    p.add_argument("--m", required=True)
    return parser, commands


def _print_symfun(f: SymFun, basis: str, as_json: bool, as_tsv: bool, at_q: Fraction | None) -> None:
    coeffs = f.in_basis(basis)
    items = [(lam, coeffs[lam]) for lam in sorted(coeffs, reverse=True)]
    if as_json:
        terms = [{"partition": list(lam), "num": c.to_json(), "den": ["1"]} for lam, c in items]
        print(json.dumps({"degree": f.degree, "basis": basis, "coeffs": terms}))
        return
    if not items:
        print("0")
        return
    if at_q is not None:
        items = [(lam, c(at_q)) for lam, c in items]
    for lam, c in items:
        if as_tsv:
            print(f"[{','.join(map(str, lam))}]\t{c}")
        elif lam:
            print(f"{basis}[{','.join(map(str, lam))}]: {c}")
        else:
            print(str(c))


def _cmd_compute(args, parser) -> int:
    """Refuse a request that cannot be met before any work, then compute."""
    graded = args.what in ("Ek", "Gk", "g", "rho")
    if graded and args.k is None:
        parser.error(f"--what {args.what} requires --k")
    if not graded and args.k is not None:
        parser.error(f"--what {args.what} takes no --k")
    if args.method is not None and args.what != "X":
        parser.error(f"--method selects the engine for --what X only, not --what {args.what}")
    if args.what != "rho" and args.m is None:
        parser.error(f"--what {args.what} requires --m")
    if args.what == "rho" and args.m is not None:
        parser.error("--what rho takes no --m")
    if args.at_q is not None and args.json:
        parser.error("--at-q cannot be combined with --json")
    m = hess(args.m) if args.m is not None else ()
    n = len(m)
    k_range = {"Ek": (1, n), "Gk": (1, n), "g": (0, n - 1), "rho": (0, MAX_N)}.get(args.what)
    if k_range and not k_range[0] <= args.k <= k_range[1]:
        parser.error(f"--k = {args.k} is outside {list(k_range)} for --what {args.what}")
    f = {
        "X": lambda: verify.x_engines()[args.method or "coloring"](m),
        "E": lambda: transition.e_total(m),
        "Ek": lambda: transition.e_part(m, args.k),
        "G": lambda: gfunctions.g_total(m),
        "Gk": lambda: gfunctions.g_cap(m, args.k),
        "S": lambda: ptableaux.s_fun(m),
        "g": lambda: gfunctions.gfun(m, args.k),
        "rho": lambda: gfunctions.rho(args.k),
    }[args.what]()
    _print_symfun(f, args.basis, args.json, args.tsv, args.at_q)
    return 0


def _cmd_verify(args, parser) -> int:
    if args.n < 1:
        parser.error(f"--n = {args.n} is below 1")
    report = verify.run_suite(args.suite, args.n)
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
    sys.stdout.write(modular.certificate_text(m, modular.reduce_to_paths(m), args.emit))
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
    parser, commands = _parser()
    if argv is None:
        argv = sys.argv[1:]
    args, rest = None, argv
    # the top-level parser would scan argv and then run the command's parser on the rest
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if args is None or rest:
        args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(args, parser)
        if args.command == "verify":
            return _cmd_verify(args, parser)
        if args.command == "reduce":
            return _cmd_reduce(args)
        return _cmd_trace(args)
    except SizeLimitExceeded as exc:  # from hess or run_suite, before any work
        parser.error(str(exc))
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
