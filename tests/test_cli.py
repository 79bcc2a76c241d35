"""Command line behavior: output formats, exit codes, and the size cap."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import chromsym
from chromsym import coloring, gfunctions, modular, ptableaux, transition, verify
from chromsym.cli import main
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


def test_compute_at_q(capsys):
    code, out, _ = run(
        capsys, "compute", "--what", "X", "--m", "2,2", "--basis", "e", "--at-q", "1"
    )
    assert code == 0
    assert out.strip() == "e[2]: 2"


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


class SuiteStarted(Exception):
    pass


@pytest.fixture
def no_suite_runs(monkeypatch):
    def fail(name, n_max, jobs=1):
        raise SuiteStarted(name, n_max, jobs)

    monkeypatch.setattr(verify, "run_suite", fail)


def test_sink_limit_is_a_usage_error(no_suite_runs):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "sink", "--n", "9"])
    assert exc.value.code == 2


def test_every_other_suite_accepts_the_shared_limit(no_suite_runs):
    for suite in sorted(verify.SUITES):
        with pytest.raises(SuiteStarted):
            main(["verify", "--suite", suite, "--n", "8"])


def test_every_command_refuses_n_above_the_limit(no_suite_runs, no_engine_runs):
    for suite in verify.SUITES:
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", suite, "--n", "9"])
        assert exc.value.code == 2
    m = "2,3,4,5,6,7,8,9,9"
    for argv in (["reduce", "--m", m], ["trace", "transition", "--m", m]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_jobs_outside_the_usable_cpus_is_a_usage_error(capsys, monkeypatch, no_suite_runs):
    def fork():
        raise AssertionError("forked before the usage check")

    monkeypatch.setattr(os, "fork", fork)
    cpus = verify.usable_cpus()
    for jobs in ("0", "-1", str(cpus + 1)):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "egs", "--n", "3", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
    for jobs, expected in (([], min(2, cpus)), (["--jobs", str(cpus)], cpus), (["--jobs", "1"], 1)):
        with pytest.raises(SuiteStarted) as exc:
            main(["verify", "--suite", "egs", "--n", "3", *jobs])
        assert exc.value.args == ("egs", 3, expected)


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


def test_trace_figure_weights(capsys):
    code, out, _ = run(capsys, "trace", "transition", "--m", "2,3,5,5,5")
    assert code == 0
    assert "(q + q^2)/(1 + q + q^2)" in out
    assert "1/(1 + q + q^2 + q^3)" in out
    # nodes report shape, parent, k, r, and weight
    assert "step=5 r=3" in out and "k=1" in out


def test_invalid_hessenberg_is_computation_error(capsys):
    code, _, err = run(capsys, "compute", "--what", "E", "--m", "2,1")
    assert code == 1
    assert "error" in err


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


# Worker counts the parallel tests use: never more workers than usable CPUs.
JOBS = (1, 2) if verify.usable_cpus() >= 2 else (1,)
two_cpus = pytest.mark.skipif(verify.usable_cpus() < 2, reason="needs two usable CPUs")


@pytest.fixture
def reaped():
    """After the test, this process has no child left, running or exited."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@two_cpus
@pytest.mark.parametrize("suite", sorted(SUITE_CHECKS))
def test_two_workers_report_what_one_does(suite, reaped):
    assert verify.run_suite(suite, 5, jobs=2) == verify.run_suite(suite, 5, jobs=1)


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
        assert all(error is None for _, error in verify._scan(groups, start, 2))
        assert calls and not foreign & set(calls)


def break_at(monkeypatch, module, name, bad_m):
    """Make ``module.name`` add the basis element of shape 1^d to its result at ``bad_m``."""
    from chromsym.symfunc import SymFun

    original = getattr(module, name)

    def wrong(m, *args):
        value = original(m, *args)
        return value + SymFun.term(value.basis, [1] * value.degree) if m == bad_m else value

    monkeypatch.setattr(module, name, wrong)


def test_failure_reports_the_first_witness(monkeypatch, reaped):
    from chromsym import gfunctions

    break_at(monkeypatch, gfunctions, "g_total", (2, 2, 3))
    for jobs in JOBS:
        report = verify.run_suite("egs", 4, jobs)
        assert report["passed"] is False
        assert report["checks"] == [
            {"name": "E = G = S on 22 functions", "passed": False, "witness": "(2, 2, 3)"},
            {"name": "E_k = G_k for every k", "passed": True},
        ]


def test_the_witness_a_serial_run_finds_first_wins(monkeypatch, reaped):
    # (1, 3, 3) and (2, 2, 3) are next to each other, so two workers each find one
    for bad_m in ((2, 2, 3), (1, 3, 3)):
        break_at(monkeypatch, gfunctions, "g_total", bad_m)
    for jobs in JOBS:
        report = verify.run_suite("egs", 4, jobs)
        assert report["checks"][0] == {
            "name": "E = G = S on 22 functions", "passed": False, "witness": "(1, 3, 3)"
        }


def test_failure_is_confined_to_its_check(monkeypatch, reaped):
    from chromsym import transition

    break_at(monkeypatch, transition, "x_from_table", (2, 3, 3))
    for jobs in JOBS:
        report = verify.run_suite("x-all", 4, jobs)
        assert report["passed"] is False
        failed = [c for c in report["checks"] if not c["passed"]]
        assert failed == [
            {"name": "coloring oracle matches transition", "passed": False, "witness": "(2, 3, 3)"}
        ]


def test_modlaw_witness_names_family_and_triple(monkeypatch, reaped):
    from chromsym import ptableaux

    break_at(monkeypatch, ptableaux, "s_fun", (3, 3, 3))
    for jobs in JOBS:
        report = verify.run_suite("modlaw", 4, jobs)
        assert [c["passed"] for c in report["checks"]] == [True, False, True, False]
        assert report["checks"][1]["witness"] == "('S', ((1, 3, 3), (2, 3, 3), (3, 3, 3), 1))"
        assert report["checks"][3]["witness"] == "((3, 3, 3), 'S')"


def test_verify_failure_exits_one(capsys, monkeypatch, reaped):
    from chromsym import gfunctions

    break_at(monkeypatch, gfunctions, "g_total", (2, 2, 3))
    for jobs in JOBS:
        code, out, _ = run(capsys, "verify", "--suite", "egs", "--n", "4", "--jobs", str(jobs))
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
            results = {
                run(capsys, "verify", "--suite", "egs", "--n", "4", "--jobs", str(jobs))
                for jobs in JOBS
            }
        assert results == {(1, "", f"error: no value at {min(bad_ms, key=order.index)}\n")}

    class Local(ValueError):
        def __init__(self, text, extra=None):
            super().__init__(text)

    raise_at(monkeypatch, coloring, "x_colorings", {(1, 3, 3), (2, 2, 3)}, Local)
    for jobs in JOBS:
        with pytest.raises(Local, match=r"^no value at \(1, 3, 3\)$"):
            verify.run_suite("x-all", 4, jobs)


def test_an_error_after_every_witness_is_never_met(monkeypatch, reaped):
    break_at(monkeypatch, gfunctions, "g_total", (1,))
    break_at(monkeypatch, gfunctions, "g_cap", (1,))
    # a serial run leaves the group at m = (1,); a second process reaches n = 3
    raise_at(monkeypatch, transition, "e_total", set(enumerate_hess(3)), EngineStarted)
    for jobs in JOBS:
        assert [c.get("witness") for c in verify.run_suite("egs", 4, jobs)["checks"]] == [
            "(1,)", "((1,), 1)"
        ]


@two_cpus
def test_a_worker_that_dies_is_an_error_and_is_reaped(capsys, monkeypatch, reaped):
    parent, x_colorings = os.getpid(), coloring.x_colorings

    def die(m):
        if os.getpid() != parent:
            os._exit(3)
        return x_colorings(m)

    monkeypatch.setattr(coloring, "x_colorings", die)
    code, out, err = run(capsys, "verify", "--suite", "x-all", "--n", "3", "--jobs", "2")
    assert (code, out, err) == (1, "", "error: a verify worker exited with status 3\n")


@two_cpus
def test_an_interrupt_kills_and_reaps_the_workers(monkeypatch, reaped):
    class Interrupt(BaseException):
        pass

    parent = os.getpid()

    def stuck(m):
        if os.getpid() == parent:
            raise Interrupt
        time.sleep(60)  # only a kill ends a worker in time

    monkeypatch.setattr(coloring, "x_colorings", stuck)
    started = time.monotonic()
    with pytest.raises(Interrupt):
        verify.run_suite("x-all", 3, 2)
    assert time.monotonic() - started < 30


def test_a_failed_fork_leaves_no_pipe_behind(monkeypatch, reaped):
    def fork():
        raise BlockingIOError("no process left")

    monkeypatch.setattr(os, "fork", fork)
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else []
    with pytest.raises(BlockingIOError):
        verify.run_suite("egs", 4, 2)
    assert fds == (os.listdir("/proc/self/fd") if fds else [])


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


def test_calls_in_one_process_match_calls_alone(capsys):
    calls = [
        ["reduce", "--m", "3,4,4,5,5", "--emit", "json"],
        ["verify", "--suite", "egs", "--n", "3"],
        ["verify", "--suite", "egs", "--n", "9"],
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
    assert [code for code, _, _ in results] == [0, 0, 2, 0]
    assert results == [run_alone(argv) for argv in calls]


def test_sink_suite_enumerates_sink_one_orientations_once_per_function(monkeypatch):
    from chromsym import orientations

    original = orientations.enumerate_ao
    calls = []

    def counted(m, require_1_sink=False):
        calls.append((m, require_1_sink))
        return original(m, require_1_sink)

    monkeypatch.setattr(orientations, "enumerate_ao", counted)
    assert verify.run_suite("sink", 4)["passed"] is True
    # one call per m serves both theorems: the sink-1 list is filtered from it
    assert sorted(calls) == sorted((m, False) for n in range(1, 5) for m in enumerate_hess(n))
