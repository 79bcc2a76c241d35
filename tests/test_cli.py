"""Command line behavior: output formats, exit codes, and the size cap."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import chromsym
from chromsym import cli, coloring, gfunctions, modular, orientations, ptableaux, transition, verify
from chromsym.cli import main
from chromsym.errors import SizeLimitExceeded
from chromsym.hessenberg import enumerate_hess


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_s_basis(capsys):
    code, out, _ = run(capsys, "compute", "--what", "S", "--m", "2,2", "--basis", "s")
    assert code == 0
    assert out.strip() == "s[1,1]: 1"


def test_compute_e_trivial(capsys):
    code, out, _ = run(capsys, "compute", "--what", "E", "--m", "1", "--basis", "e")
    assert code == 0
    assert out.strip() == "e[1]: 1"


def test_compute_degree_zero_prints_scalar(capsys):
    code, out, _ = run(capsys, "compute", "--what", "g", "--k", "0", "--m", "2,2")
    assert code == 0
    assert out.strip() == "1"


def test_compute_x_methods_agree(capsys):
    outputs = set()
    for method in ("coloring", "transition", "cycle-sum", "schur"):
        code, out, _ = run(
            capsys, "compute", "--what", "X", "--m", "2,3,3", "--method", method,
            "--basis", "e",
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_compute_methods_are_the_x_all_engines(capsys):
    # one map names the engines of compute --method and of the x-all suite
    names = list(verify.x_engines())
    assert [f"coloring oracle matches {name}" for name in names[1:]] == SUITE_CHECKS["x-all"]
    argv = ["compute", "--what", "X", "--m", "2,3,3", "--basis", "e"]
    assert {run(capsys, *argv, "--method", name) for name in names} == {run(capsys, *argv)}


def test_compute_at_q(capsys):
    code, out, _ = run(
        capsys, "compute", "--what", "X", "--m", "2,2", "--basis", "e", "--at-q", "1"
    )
    assert code == 0
    assert out.strip() == "e[2]: 2"


def test_compute_at_q_prints_the_zero_function_as_zero(capsys):
    # E_2 of the edgeless m = (1, 2) is zero: every format prints 0
    argv = ["compute", "--what", "Ek", "--m", "1,2", "--k", "2"]
    for fmt in ([], ["--tsv"], ["--at-q", "3"], ["--at-q", "3", "--tsv"]):
        assert run(capsys, *argv, *fmt)[:2] == (0, "0\n"), fmt


class EngineStarted(Exception):
    pass


@pytest.fixture
def no_engine_runs(monkeypatch):
    def fail(*args):
        raise EngineStarted(args)

    for module, names in (
        (coloring, ["x_colorings"]),
        (transition, ["x_from_table", "e_total", "e_part", "trace"]),
        (gfunctions, ["x_cycle_sum", "g_total", "g_cap", "gfun", "rho"]),
        (ptableaux, ["x_schur", "s_fun"]),
        (modular, ["reduce_to_paths"]),
    ):
        for name in names:
            monkeypatch.setattr(module, name, fail)


def test_malformed_at_q_is_a_usage_error(capsys, no_engine_runs):
    for value in ("foo", "nan", "inf", "1/0", "", "-1/0", "-x", "-"):
        for at_q in ([f"--at-q={value}"], ["--at-q", value]):
            with pytest.raises(SystemExit) as exc:
                main(["compute", "--what", "g", "--m", "2,3,3", "--k", "1", *at_q])
            assert exc.value.code == 2, at_q
            assert "--at-q" in capsys.readouterr().err
    with pytest.raises(EngineStarted):
        main(["compute", "--what", "g", "--m", "2,3,3", "--k", "1", "--at-q=-1/2"])


def test_negative_at_q_may_follow_a_space(capsys):
    argv = ["compute", "--what", "X", "--m", "2,2", "--basis", "e"]
    spaced = run(capsys, *argv, "--at-q", "-1/2")
    glued = run(capsys, *argv, "--at-q=-1/2")
    assert spaced == glued == (0, "e[2]: 1/2\n", "")


def test_at_q_with_json_is_a_usage_error(capsys, no_engine_runs):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--what", "X", "--m", "2,3,3", "--at-q", "2", "--json"])
    assert exc.value.code == 2
    assert "--json" in capsys.readouterr().err
    with pytest.raises(EngineStarted):
        main(["compute", "--what", "X", "--m", "2,3,3", "--at-q", "2", "--tsv"])


def test_compute_tsv_at_q(capsys):
    code, out, _ = run(
        capsys, "compute", "--what", "X", "--m", "2,2", "--basis", "e", "--tsv", "--at-q", "1"
    )
    assert code == 0
    assert out == "[2]\t2\n"


def test_compute_json_schema(capsys):
    code, out, _ = run(capsys, "compute", "--what", "E", "--m", "2,2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "degree": 2,
        "basis": "e",
        "coeffs": [{"partition": [2], "num": ["1"], "den": ["1"]}],
    }


def test_compute_tsv(capsys):
    code, out, _ = run(
        capsys, "compute", "--what", "X", "--m", "2,3,3", "--basis", "e", "--tsv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert all("\t" in line for line in lines)
    assert lines[0].startswith("[3]\t")


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "egs", "--n", "3")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "paths", "--n", "4", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "paths" and report["passed"] is True
    assert all(set(c) >= {"name", "passed"} for c in report["checks"])


def test_verify_cap_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "egs", "--n", "9"])
    assert exc.value.code == 2


def test_rho_k_above_the_limit_is_a_usage_error(no_engine_runs):
    for k in ("9", "24"):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--what", "rho", "--k", k])
        assert exc.value.code == 2
    with pytest.raises(EngineStarted):
        main(["compute", "--what", "rho", "--k", "8"])


def test_k_outside_its_range_is_a_usage_error(capsys, no_engine_runs):
    # --m has n = 3 entries: Ek and Gk take 1 <= k <= 3, g 0 <= k < 3, rho 0 <= k <= 8
    for what, refused, accepted in (
        ("Ek", (0, 4), (1, 3)),
        ("Gk", (0, 4), (1, 3)),
        ("g", (-1, 3), (0, 2)),
        ("rho", (-1, 9), (0, 8)),
    ):
        m = [] if what == "rho" else ["--m", "2,3,3"]
        for k in refused:
            with pytest.raises(SystemExit) as exc:
                main(["compute", "--what", what, *m, "--k", str(k)])
            assert exc.value.code == 2, (what, k)
            assert "--k" in capsys.readouterr().err
        for k in accepted:
            with pytest.raises(EngineStarted):
                main(["compute", "--what", what, *m, "--k", str(k)])


def test_an_option_the_request_cannot_use_is_a_usage_error(capsys, no_engine_runs):
    # --method selects X's engine only; X, E, G and S are not graded, so take no --k
    for what in ("E", "Ek", "G", "Gk", "S", "g", "rho"):
        extra = [] if what in ("E", "G", "S") else ["--k", "1"]
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--what", what, "--m", "2,2", "--method", "schur", *extra])
        assert exc.value.code == 2, what
        assert "--method" in capsys.readouterr().err
    for what in ("X", "E", "G", "S"):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--what", what, "--m", "2,2", "--k", "1"])
        assert exc.value.code == 2, what
        assert "--k" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--what", "E", "--m", "2,2", "--method", "schur", "--k", "5"])
    assert exc.value.code == 2
    # rho takes no --m: refused before --m is parsed, whether or not it is a Hessenberg function
    for m in ("2,2", "2,1"):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--what", "rho", "--k", "2", "--m", m])
        assert exc.value.code == 2, m
        assert "--m" in capsys.readouterr().err
    for method in ([], ["--method", "schur"]):
        with pytest.raises(EngineStarted):
            main(["compute", "--what", "X", "--m", "2,2", *method])


class SuiteStarted(Exception):
    pass


@pytest.fixture
def no_suite_runs(monkeypatch):
    """The real runner checks n; a suite it lets through raises before building an instance."""

    def build(n_max):
        raise SuiteStarted(n_max)

    for suite in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, suite, build)


def test_sink_limit_is_a_usage_error(capsys, no_suite_runs):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "sink", "--n", "9"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("chromsym: error: n = 9 exceeds the limit 8\n")


def test_every_other_suite_accepts_the_shared_limit(no_suite_runs):
    for suite in sorted(verify.SUITES):
        with pytest.raises(SuiteStarted):
            main(["verify", "--suite", suite, "--n", "8"])


def test_every_command_refuses_n_above_the_limit(capsys, no_suite_runs, no_engine_runs):
    # the library refuses the size (run_suite checks --n, hess counts the entries of --m
    # before it reads one) and the command line makes that refusal a usage error
    argvs = [["verify", "--suite", suite, "--n", "9"] for suite in verify.SUITES]
    for m in ("2,3,4,5,6,7,8,9,9", "1,2,3,4,5,6,7,8,x", "1 2 3 4 5 6 7 8 9"):
        argvs += [["reduce", "--m", m], ["trace", "transition", "--m", m]]
        argvs += [["compute", "--what", "X", "--m", m], ["compute", "--what", "g", "--m", m, "--k", "1"]]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().err.endswith("chromsym: error: n = 9 exceeds the limit 8\n"), argv


def test_verify_refuses_n_below_one(no_suite_runs):
    for suite in verify.SUITES:
        for n in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--suite", suite, "--n", n])
            assert exc.value.code == 2


def test_reduce_text_and_json(capsys):
    code, out, _ = run(capsys, "reduce", "--m", "2,3,4,5,5")
    assert code == 0
    assert out.strip() == "paths [5]: 1"
    code, out, _ = run(capsys, "reduce", "--m", "3,4,4,5,5", "--emit", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 5
    assert all(sum(term["paths"]) == 5 for term in data["terms"])


def test_reduce_json_matches_direct_evaluation(capsys):
    from chromsym.modular import certificate_from_json, evaluate
    from chromsym.transition import e_total

    code, out, _ = run(capsys, "reduce", "--m", "3,4,4,5,5", "--emit", "json")
    assert code == 0
    cert = certificate_from_json(json.loads(out))
    assert evaluate(cert, "E") == e_total((3, 4, 4, 5, 5))


def reduce_digest(capsys, ns, emit):
    """SHA-256 of the standard output of ``reduce --emit emit``, over every m of
    each length in ns, in enumeration order."""
    digest, count = hashlib.sha256(), 0
    for n in ns:
        for m in enumerate_hess(n):
            code, out, _ = run(capsys, "reduce", "--m", ",".join(map(str, m)), "--emit", emit)
            assert code == 0
            digest.update(out.encode())
            count += 1
    return count, digest.hexdigest()


@pytest.mark.parametrize(
    "emit, ns, count, expected",
    [
        ("text", range(1, 8), 625, "ff4a9157bb7fd46208cabcaf0749aa49454630ceb1998f864590000294da3a58"),
        ("text", (8,), 1430, "537999765d23c435409e002eed739b604e435b9cb5d9f7e5f49e36cf93949026"),
        ("json", range(1, 8), 625, "52f487540eadf179c9fad1d194adac90b0ee2192ed9c34ee9207c3bb314485a9"),
        ("json", (8,), 1430, "cb6e967c4702e7412c983c48c0dcdb37f8247b04ccc7936d25ff7ec577295ea0"),
    ],
)
def test_reduce_output_bytes_are_pinned(capsys, emit, ns, count, expected):
    assert reduce_digest(capsys, ns, emit) == (count, expected)


def compute_requests(m):
    """Every ``compute --what`` request for m: X under each method, E, G and S,
    Ek and Gk for every k in [1, n], and g for every k in [0, n)."""
    n = len(m)
    for method in ("coloring", "transition", "cycle-sum", "schur"):
        yield ["--what", "X", "--method", method]
    for what in "EGS":
        yield ["--what", what]
    for what, ks in (("Ek", range(1, n + 1)), ("Gk", range(1, n + 1)), ("g", range(n))):
        for k in ks:
            yield ["--what", what, "--k", str(k)]


def test_compute_output_bytes_are_pinned(capsys):
    # SHA-256 of the standard output of every request for every m with n <= 5,
    # in the e and s bases, as text, JSON and TSV, in enumeration order
    digest, count = hashlib.sha256(), 0
    for n in range(1, 6):
        for m in enumerate_hess(n):
            for request in compute_requests(m):
                for basis in "es":
                    for fmt in ([], ["--json"], ["--tsv"]):
                        argv = ["compute", "--m", ",".join(map(str, m)), *request, "--basis", basis, *fmt]
                        code, out, _ = run(capsys, *argv)
                        assert code == 0, argv
                        digest.update(out.encode())
                        count += 1
    assert (count, digest.hexdigest()) == (7836, "b647d4b42ca610304c4d944c2d8d5c6c5acf5ad405c3d890a0f823b7da3b2ab7")


def test_compute_m_basis_and_at_q_bytes_are_pinned(capsys):
    # SHA-256 of the standard output of every request for every m with n <= 5:
    # in the m basis as text, JSON and TSV, then at q = -1/2 in every basis as
    # text and TSV, in enumeration order (a zero function prints 0 at q too)
    variants = [["--basis", "m", *fmt] for fmt in ([], ["--json"], ["--tsv"])]
    variants += [["--basis", basis, "--at-q", "-1/2", *fmt] for basis in "esm" for fmt in ([], ["--tsv"])]
    digest, count = hashlib.sha256(), 0
    for n in range(1, 6):
        for m in enumerate_hess(n):
            for request in compute_requests(m):
                for variant in variants:
                    argv = ["compute", "--m", ",".join(map(str, m)), *request, *variant]
                    code, out, _ = run(capsys, *argv)
                    assert code == 0, argv
                    digest.update(out.encode())
                    count += 1
    assert (count, digest.hexdigest()) == (11754, "58f481abbf452c472b6b37aa4d46048c008bec285c665f2e052120287a61ef14")


def test_trace_figure_weights(capsys):
    code, out, _ = run(capsys, "trace", "transition", "--m", "2,3,5,5,5")
    assert code == 0
    assert "(q + q^2)/(1 + q + q^2)" in out
    assert "1/(1 + q + q^2 + q^3)" in out
    # nodes report shape, parent, k, r, and weight
    assert "step=5 r=3" in out and "k=1" in out


def test_invalid_hessenberg_is_computation_error(capsys):
    # --m is parsed before --k is checked against its length, so a malformed
    # --m is reported whatever --k is
    empty = "error: a Hessenberg function has positive length\n"
    decreasing = "error: value 1 at position 2 violates 2 <= m(2) <= 2\n"
    for argv, err in (
        (["--what", "E", "--m", "2,1"], decreasing),
        (["--what", "g", "--k", "0", "--m", ""], empty),
        (["--what", "Ek", "--k", "1", "--m", " "], empty),
        (["--what", "Ek", "--k", "5", "--m", "2,1"], decreasing),
    ):
        assert run(capsys, "compute", *argv) == (1, "", err), argv


def test_an_empty_entry_in_m_is_a_computation_error(capsys, no_engine_runs):
    # once run as (2, 2): the empty field was dropped
    for m in ("2,,2", ",2,2", "2,2,", "2, ,2"):
        assert run(capsys, "compute", "--what", "E", "--m", m) == (
            1, "", f"error: {m!r} has an empty entry\n"
        )


SUITE_CHECKS = {
    "egs": ["E = G = S on 22 functions", "E_k = G_k for every k"],
    "x-all": [
        "coloring oracle matches transition",
        "coloring oracle matches cycle-sum",
        "coloring oracle matches schur",
        "coloring oracle matches decomposition",
    ],
    "modlaw": [
        "no violations on 0 triples at n=2",
        "no violations on 1 triples at n=3",
        "no violations on 7 triples at n=4",
        "certificates evaluate to direct E/G/S",
    ],
    "sink": [
        "coloring-side sink theorem",
        "corner-side sink theorem",
        "hook-shape binomial counts",
    ],
    "appendix": [
        "psi/phi power relation pointwise",
        "insertion weights sum to one",
        "probabilities sum to one",
        "area relation between weight variants",
    ],
    "paths": [
        "closed forms match the probability model",
        "vertical-strip recursion",
        "peel/unpeel round trip with inv shift",
    ],
}


@pytest.mark.parametrize("suite", sorted(SUITE_CHECKS))
def test_every_suite_passes_with_its_checks(suite):
    report = verify.run_suite(suite, 4)
    assert report["suite"] == suite and report["n_max"] == 4
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == SUITE_CHECKS[suite]
    assert all(c == {"name": c["name"], "passed": True} for c in report["checks"])


# The usable CPUs the parallel tests make the runner see: one process, or two.
CPUS = (1, 2)


def use_cpus(monkeypatch, cpus):
    """Make the runner see ``cpus`` usable CPUs, whatever this machine has."""
    monkeypatch.setattr(verify, "usable_cpus", lambda: cpus)


@pytest.fixture
def reaped():
    """After the test, this process has no child left, running or exited."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("suite", sorted(SUITE_CHECKS))
def test_two_workers_report_what_one_does(suite, monkeypatch, reaped):
    reports = []
    for cpus in CPUS:
        use_cpus(monkeypatch, cpus)
        reports.append(verify.run_suite(suite, 5))
    assert reports[0] == reports[1]


def test_the_runner_forks_one_worker_at_most(monkeypatch, reaped):
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    counts, reports = [], []
    for cpus in (1, 2, 3, 8):
        use_cpus(monkeypatch, cpus)
        forks.clear()
        reports.append(verify.run_suite("egs", 3))
        counts.append(len(forks))
    assert counts == [0, 1, 1, 1]
    assert all(report == reports[0] for report in reports)


def test_modlaw_shares_split_the_costly_engines(monkeypatch):
    # share 0 of 2 computes S and E, share 1 computes G and g; no share needs the other's
    calls = []
    for module, name in ((ptableaux, "s_fun"), (gfunctions, "g_cap"), (gfunctions, "gfun"),
                         (gfunctions, "g_total")):
        def counted(m, *args, original=getattr(module, name), name=name):
            calls.append(name)
            return original(m, *args)

        monkeypatch.setattr(module, name, counted)
    groups = verify.suite_modlaw(5)
    for start, foreign in ((0, {"g_cap", "gfun", "g_total"}), (1, {"s_fun"})):
        calls.clear()
        assert all(first == [None] for first in verify._scan(groups, start, 2))
        assert calls and not foreign & set(calls)


def break_at(monkeypatch, module, name, bad_m):
    """Make ``module.name`` add e_{1^d} to its result at ``bad_m``."""
    from chromsym.symfunc import SymFun

    original = getattr(module, name)

    def wrong(m, *args):
        value = original(m, *args)
        return value + SymFun.e_term([1] * value.degree) if m == bad_m else value

    monkeypatch.setattr(module, name, wrong)


def test_failure_reports_the_first_witness(monkeypatch, reaped):
    from chromsym import gfunctions

    break_at(monkeypatch, gfunctions, "g_total", (2, 2, 3))
    for cpus in CPUS:
        use_cpus(monkeypatch, cpus)
        report = verify.run_suite("egs", 4)
        assert report["passed"] is False
        assert report["checks"] == [
            {"name": "E = G = S on 22 functions", "passed": False, "witness": "(2, 2, 3)"},
            {"name": "E_k = G_k for every k", "passed": True},
        ]


def test_the_witness_a_serial_run_finds_first_wins(monkeypatch, reaped):
    # (1, 3, 3) and (2, 2, 3) are next to each other, so two processes each find one
    for bad_m in ((2, 2, 3), (1, 3, 3)):
        break_at(monkeypatch, gfunctions, "g_total", bad_m)
    for cpus in CPUS:
        use_cpus(monkeypatch, cpus)
        report = verify.run_suite("egs", 4)
        assert report["checks"][0] == {
            "name": "E = G = S on 22 functions", "passed": False, "witness": "(1, 3, 3)"
        }


def test_failure_is_confined_to_its_check(monkeypatch, reaped):
    from chromsym import transition

    break_at(monkeypatch, transition, "x_from_table", (2, 3, 3))
    for cpus in CPUS:
        use_cpus(monkeypatch, cpus)
        report = verify.run_suite("x-all", 4)
        assert report["passed"] is False
        failed = [c for c in report["checks"] if not c["passed"]]
        assert failed == [
            {"name": "coloring oracle matches transition", "passed": False, "witness": "(2, 3, 3)"}
        ]


def test_modlaw_witness_names_family_and_triple(monkeypatch, reaped):
    from chromsym import ptableaux

    break_at(monkeypatch, ptableaux, "s_fun", (3, 3, 3))
    for cpus in CPUS:
        use_cpus(monkeypatch, cpus)
        report = verify.run_suite("modlaw", 4)
        assert [c["passed"] for c in report["checks"]] == [True, False, True, False]
        assert report["checks"][1]["witness"] == "('S', ((1, 3, 3), (2, 3, 3), (3, 3, 3), 1))"
        assert report["checks"][3]["witness"] == "((3, 3, 3), 'S')"


def test_verify_failure_exits_one(capsys, monkeypatch, reaped):
    from chromsym import gfunctions

    break_at(monkeypatch, gfunctions, "g_total", (2, 2, 3))
    for cpus in CPUS:
        use_cpus(monkeypatch, cpus)
        code, out, _ = run(capsys, "verify", "--suite", "egs", "--n", "4")
        assert code == 1
        assert "FAIL  E = G = S on 22 functions  witness: (2, 2, 3)" in out.splitlines()
        assert "PASS  E_k = G_k for every k" in out.splitlines()
        assert out.splitlines()[-1] == "FAIL  suite egs up to n=4"


def raise_at(monkeypatch, module, name, bad_ms, error):
    """Make ``module.name`` raise ``error`` naming m at every m in ``bad_ms``."""
    original = getattr(module, name)

    def failing(m, *args):
        if m in bad_ms:
            raise error(f"no value at {m}")
        return original(m, *args)

    monkeypatch.setattr(module, name, failing)


def test_an_engine_error_is_the_same_on_every_worker_count(capsys, monkeypatch, reaped):
    from chromsym.errors import NotDivisible

    # the error a serial run meets first wins, whichever process meets it
    order = [m for n in range(1, 5) for m in enumerate_hess(n)]
    for bad_ms in ({(2, 2, 3)}, set(enumerate_hess(3))):
        with monkeypatch.context() as patch:
            raise_at(patch, transition, "e_total", bad_ms, NotDivisible)
            results = set()
            for cpus in CPUS:
                use_cpus(patch, cpus)
                results.add(run(capsys, "verify", "--suite", "egs", "--n", "4"))
        assert results == {(1, "", f"error: no value at {min(bad_ms, key=order.index)}\n")}

    class Local(ValueError):
        def __init__(self, text, extra=None):
            super().__init__(text)

    raise_at(monkeypatch, coloring, "x_colorings", {(1, 3, 3), (2, 2, 3)}, Local)
    for cpus in CPUS:
        use_cpus(monkeypatch, cpus)
        with pytest.raises(Local, match=r"^no value at \(1, 3, 3\)$"):
            verify.run_suite("x-all", 4)


def test_an_error_after_every_witness_is_never_met(monkeypatch, reaped):
    break_at(monkeypatch, gfunctions, "g_total", (1,))
    break_at(monkeypatch, gfunctions, "g_cap", (1,))
    # a serial run leaves the group at m = (1,); a second process reaches n = 3
    raise_at(monkeypatch, transition, "e_total", set(enumerate_hess(3)), EngineStarted)
    for cpus in CPUS:
        use_cpus(monkeypatch, cpus)
        assert [c.get("witness") for c in verify.run_suite("egs", 4)["checks"]] == [
            "(1,)", "((1,), 1)"
        ]


def test_a_worker_that_dies_costs_a_serial_scan_and_is_reaped(capsys, monkeypatch, reaped):
    # the run is thrown away and scanned again serially, which passes
    parent, x_colorings = os.getpid(), coloring.x_colorings

    def die(m):
        if os.getpid() != parent:
            os._exit(3)
        return x_colorings(m)

    monkeypatch.setattr(coloring, "x_colorings", die)
    use_cpus(monkeypatch, 1)
    serial = run(capsys, "verify", "--suite", "x-all", "--n", "3")
    assert serial[0] == 0
    use_cpus(monkeypatch, 2)
    assert run(capsys, "verify", "--suite", "x-all", "--n", "3") == serial


def test_an_interrupt_kills_and_reaps_the_workers(monkeypatch, reaped):
    class Interrupt(BaseException):
        pass

    parent = os.getpid()

    def stuck(m):
        if os.getpid() == parent:
            raise Interrupt
        time.sleep(60)  # only a kill ends a worker in time

    monkeypatch.setattr(coloring, "x_colorings", stuck)
    use_cpus(monkeypatch, 2)
    started = time.monotonic()
    with pytest.raises(Interrupt):
        verify.run_suite("x-all", 3)
    assert time.monotonic() - started < 30


def test_an_error_in_this_process_kills_and_reaps_the_workers(monkeypatch, reaped):
    from chromsym.errors import NotDivisible

    parent = os.getpid()

    def stuck(m):
        if os.getpid() == parent:
            raise NotDivisible(f"no value at {m}")
        time.sleep(60)  # only a kill ends a worker in time

    monkeypatch.setattr(coloring, "x_colorings", stuck)
    use_cpus(monkeypatch, 2)
    started = time.monotonic()
    with pytest.raises(NotDivisible, match=r"^no value at \(1,\)$"):
        verify.run_suite("x-all", 3)
    assert time.monotonic() - started < 30


def test_a_failed_fork_leaves_no_pipe_behind(monkeypatch, reaped):
    def fork():
        raise BlockingIOError("no process left")

    use_cpus(monkeypatch, 1)
    serial = verify.run_suite("egs", 4)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork)
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else []
    assert verify.run_suite("egs", 4) == serial
    assert fds == (os.listdir("/proc/self/fd") if fds else [])


@pytest.mark.parametrize("suite", sorted(SUITE_CHECKS))
def test_run_suite_refuses_an_n_it_cannot_meet_before_any_work(suite, monkeypatch, reaped):
    def fork():
        raise AssertionError("forked")

    def build(n_max):
        raise AssertionError("built instances")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setitem(verify.SUITES, suite, build)
    for cpus in CPUS:
        use_cpus(monkeypatch, cpus)
        with pytest.raises(SizeLimitExceeded):
            verify.run_suite(suite, 9)
        for n_max in (0, -1):
            with pytest.raises(ValueError, match="below 1"):
                verify.run_suite(suite, n_max)


# The cache rule of chromsym.errors: per-m results for the whole process, per-m
# scratch for the latest m only, and tables no m decides for the whole process.
RESULTS = (transition._e_parts, gfunctions._cycle_sums, ptableaux.s_fun, modular.reduce_to_paths)
TABLES = (transition._weight, transition._step, ptableaux._diagram, gfunctions._term)
SCRATCH = (
    transition._table,
    gfunctions._cycle_stats,
    ptableaux._value_masks,
    orientations._incident,
    coloring._class_counts,
    transition.insertion_runs,
)


def cold_caches():
    for cache in RESULTS + SCRATCH + TABLES:
        cache.cache_clear()


def test_per_m_scratch_is_kept_for_the_latest_m_only():
    assert [cache.cache_info().maxsize for cache in SCRATCH] == [1] * len(SCRATCH)
    assert [cache.cache_info().maxsize for cache in RESULTS] == [None] * len(RESULTS)
    assert [cache.cache_info().maxsize for cache in TABLES] == [None] * len(TABLES)


def test_egs_takes_each_growth_step_once(monkeypatch):
    # the 196 walks up to n = 6 take 1,406 steps, of 126 distinct (tableau, threshold) pairs
    use_cpus(monkeypatch, 1)  # one process, so this one's caches see every m
    cold_caches()
    assert verify.run_suite("egs", 6)["passed"]
    info = transition._step.cache_info()
    assert (info.misses, info.hits, info.currsize) == (126, 1280, 126)


def test_appendix_grows_each_m_once(monkeypatch):
    # one walk serves the probabilities and both weight variants; 64 m have n <= 5
    use_cpus(monkeypatch, 1)  # one process, so this one's caches see every m
    cold_caches()
    assert verify.run_suite("appendix", 5)["passed"]
    info = transition._table.cache_info()
    assert (info.misses, info.hits) == (64, 64)


def test_x_all_counts_cycles_once_per_m(monkeypatch):
    # the cycle-sum engine and the decomposition read one m's statistics in turn
    use_cpus(monkeypatch, 1)  # one process, so this one's caches see every m
    cold_caches()
    assert verify.run_suite("x-all", 5)["passed"]
    info = gfunctions._cycle_stats.cache_info()
    assert (info.misses, info.hits) == (64, 64)


def test_paths_witness_is_the_first_failure(monkeypatch):
    from chromsym import ptableaux
    from chromsym.qpoly import Q

    original = ptableaux.corner_path_poly
    monkeypatch.setattr(
        ptableaux, "corner_path_poly", lambda lam: original(lam) + (Q if len(lam) == 1 else 0)
    )
    report = verify.run_suite("paths", 4)
    assert [c.get("witness") for c in report["checks"]] == [None, "(1,)", None]


def run_alone(argv):
    """Exit code, stdout and stderr of one command in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(chromsym.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chromsym.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


COLD_IMPORT_CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
import chromsym.cli
unused = ("dataclasses", "inspect", "ast", "dis", "fractions", "decimal", "numbers", "typing")
print(sorted(name for name in unused if name in sys.modules))
chromsym.cli.main(["compute", "--what", "X", "--m", "2,2", "--at-q", "1/2"])
print("fractions" in sys.modules)
"""


def test_cold_import_leaves_unused_stdlib_unloaded():
    """Importing the CLI loads no stdlib module that only --at-q or annotations use.

    Under ``python -S`` the site module imports nothing first, so what is
    loaded is what chromsym imports.  ``--at-q`` then loads ``fractions``.
    """
    src = str(Path(chromsym.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", COLD_IMPORT_CHECK, src], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "e[2]: 3/2", "True"]


def test_calls_in_one_process_match_calls_alone(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width here and alone
    calls = [
        ["reduce", "--m", "3,4,4,5,5", "--emit", "json"],
        ["verify", "--suite", "egs", "--n", "3"],
        ["verify", "--suite", "egs", "--n", "9"],
        ["-h"],
        ["frobnicate"],
        ["reduce", "--m", "3,4,4,5,5", "extra"],
        ["reduce", "--m", "3,4,4,5,5", "--emit", "json"],
    ]
    results = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert [code for code, _, _ in results] == [0, 0, 2, 0, 2, 2, 0]
    assert results == [run_alone(argv) for argv in calls]


def test_a_command_is_parsed_once(monkeypatch):
    """A call that names a command is parsed by that command's parser alone."""
    parsers = []
    original = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsers.append(self.prog)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for argv in (
        ["compute", "--what", "E", "--m", "2,2"],
        ["verify", "--suite", "paths", "--n", "2"],
        ["reduce", "--m", "2,2"],
        ["trace", "transition", "--m", "2,2"],
    ):
        parsers.clear()
        assert main(argv) == 0, argv
        assert parsers == [f"chromsym {argv[0]}"], argv


# Every way argparse reads a call: help before and after a command, no or an
# unknown command, a missing option and a bad choice, abbreviations and
# --opt=value, "--" before and after a command, an option before the command,
# leftovers, and a negative --at-q spaced and glued.
ROUTE_CORPUS = [
    ["-h"],
    ["--help"],
    ["--he"],
    ["reduce", "-h"],
    ["compute", "--help"],
    ["reduce", "--m", "2,2", "-h"],
    ["trace", "--h"],
    [],
    ["frobnicate"],
    ["frobnicate", "--m", "2,2"],
    ["Reduce", "--m", "2,2"],
    ["compute"],
    ["reduce"],
    ["verify", "--suite", "egs"],
    ["trace", "--m", "2,2"],
    ["compute", "--what", "Z", "--m", "2,2"],
    ["verify", "--suite", "nope", "--n", "3"],
    ["verify", "--suite", "egs", "--n", "x"],
    ["trace", "llt", "--m", "2,2"],
    ["compute", "--what", "X", "--m", "2,2", "--json", "--tsv"],
    ["reduce", "--m", "2,2", "--em", "json"],
    ["reduce", "--m", "2,2", "--e", "json"],
    ["verify", "--su", "egs", "--n", "3", "--js"],
    ["compute", "--wh", "X", "--m", "2,2", "--met", "schur", "--at", "2"],
    ["reduce", "--m=2,2", "--emit=json"],
    ["compute", "--what=rho", "--k=2"],
    ["trace", "--m=2,2", "transition"],
    ["--", "reduce", "--m", "2,2"],
    ["reduce", "--", "--m", "2,2"],
    ["reduce", "--m", "2,2", "--"],
    ["reduce", "--m", "2,2", "--", "extra"],
    ["trace", "--m", "2,2", "--", "transition"],
    ["-x", "reduce", "--m", "2,2"],
    ["--json", "verify", "--suite", "egs", "--n", "3"],
    ["-h", "reduce", "--m", "2,2"],
    ["reduce", "--m", "2,2", "extra"],
    ["reduce", "--m", "2,2", "--bogus"],
    ["reduce", "--m", "2,2", "--bogus=1", "x"],
    ["reduce", "-m", "2,2"],
    ["verify", "--suite", "egs", "--n", "3", "reduce"],
    ["trace", "transition", "transition", "--m", "2,2"],
    ["reduce", "--m", "2,2", "--m", "3,3"],
    ["reduce", "--m", "-1"],
    ["compute", "--what", "X", "--m", "2,2", "--at-q", "-1/2"],
    ["compute", "--what", "X", "--m", "2,2", "--at-q=-1/2"],
    ["compute", "--what", "X", "--m", "2,2", "--at-q", "-1"],
    ["compute", "--what", "X", "--m", "2,2", "--at-q", "-x"],
    ["compute", "--what", "X", "--m", "2,2", "--at-q"],
    ["compute", "--what", "g", "--m", "2,2", "--k", "-1"],
]


class Parsed(Exception):
    pass


def test_each_call_parses_as_the_top_level_parser_parses_it(capsys, monkeypatch):
    """``main`` and the top-level parser agree on every argv of the corpus: the
    namespace a command is called with, else the exit code, and stdout and stderr."""

    def parsed(args, *parser):
        raise Parsed(args)

    for command in ("_cmd_compute", "_cmd_verify", "_cmd_reduce", "_cmd_trace"):
        monkeypatch.setattr(cli, command, parsed)
    parser = cli._parser()[0]

    def through_main(argv):
        with pytest.raises(Parsed) as exc:
            main(argv)
        return vars(exc.value.args[0])

    def outcome(route, argv):
        try:
            result = route(list(argv))
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    outcomes = []
    for argv in ROUTE_CORPUS:
        outcomes.append(outcome(through_main, argv))
        assert outcomes[-1] == outcome(lambda a: vars(parser.parse_args(a)), argv), argv
    # the corpus holds calls that parse, help, and usage errors
    assert {type(result).__name__ for result, _, _ in outcomes} == {"dict", "int"}
    assert {result for result, _, _ in outcomes if isinstance(result, int)} == {0, 2}


def test_sink_suite_enumerates_sink_one_orientations_once_per_function(monkeypatch):
    from chromsym import orientations

    original, tally = orientations._acyclic, orientations.ao_tally
    calls, tallies = [], []

    def counted(m):
        calls.append(m)
        return original(m)

    def counted_tally(m):
        tallies.append(m)
        return tally(m)

    monkeypatch.setattr(orientations, "_acyclic", counted)
    monkeypatch.setattr(orientations, "ao_tally", counted_tally)
    use_cpus(monkeypatch, 1)  # one process, so these counts see every m
    assert verify.run_suite("sink", 4)["passed"] is True
    # one tally per m serves both theorems and the binomial counts: its one
    # enumeration keeps the sink-1 masks, and no other enumeration is made
    ms = [m for n in range(1, 5) for m in enumerate_hess(n)]
    assert sorted(tallies) == sorted(ms)
    assert sorted(calls) == sorted(ms)
