"""chromsym benchmark: exhaustive workloads timed end to end and traced per layer.

Usage::

    python3 bench/run.py --workload egs-n6 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25        # every workload

Each repetition is a fresh child interpreter (``bench/child.py``), run one
at a time, so the ``lru_cache``s start cold as they do for a user's
``chromsym`` command.  Repetitions run until ``--seconds`` have passed and
at least ``MIN_REPS`` have finished; a metric is the median over them, with
times scaled to reference seconds (see ``CAL_REF_S``).  Every output is
checked against the committed reference (``bench/reference.json.gz``, see
``bench/reference.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import CAL_EVERY
from tracer import LAYERS, WORK_COUNTERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference.json.gz"

# Why each workload exists is in README.md; the one-line reasons also go to
# BENCHMARK.json.
WORKLOADS = {
    "egs-n6": {"kind": "suite", "suite": "egs", "n": 6},
    "xall-n6": {"kind": "suite", "suite": "x-all", "n": 6},
    "reduce-n7": {"kind": "reduce", "n": 7},
    "sink-n5": {"kind": "suite", "suite": "sink", "n": 5},
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("call_ms_p50", "ms", "lower", 0.20),
    ("call_ms_tail", "ms", "lower", 0.20),
)

PER_LAYER = tuple(
    [
        spec
        for layer in LAYERS
        for spec in (
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.total_s", "s", "lower"),
            (f"{layer}.cache_hits", "count", "higher"),
            (f"{layer}.cache_misses", "count", "lower"),
        )
    ]
    + [(name, "count", "lower") for name in WORK_COUNTERS]
    + [
        ("trace.run_s", "s", "lower"),
        ("trace.untraced_run_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("trace.uncovered_frac", "frac", "lower"),
        ("trace.counter_mismatches", "count", "lower"),
    ]
)

MIN_REPS = 4  # with tracing, two untraced and two traced
DEADLINE_S = 170.0  # a run must end within 180 s


# --- reference ---------------------------------------------------------------


def load_reference(path: Path = REFERENCE) -> dict:
    """Expected outputs: check names per (suite, n) and certificate lines per m."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        data = json.load(fh)
    data["reduce_sha256"] = {
        key: hashlib.sha256(text.encode()).hexdigest() for key, text in data["reduce"].items()
    }
    return data


def expected_ops(spec: dict, reference: dict) -> list[str]:
    """What one repetition attempts: check names for a suite, m keys for reduce."""
    if spec["kind"] == "reduce":
        return sorted(k for k in reference["reduce"] if k.count(",") == spec["n"] - 1)
    return reference["suites"][spec["suite"]][str(spec["n"])]


def judge(spec: dict, out: dict | None, reference: dict) -> tuple[int, int]:
    """(attempted, failed) for one repetition; a crashed child fails everything."""
    ops = expected_ops(spec, reference)
    if out is None:
        return len(ops), len(ops)
    if spec["kind"] == "reduce":
        want = reference["reduce_sha256"]
        bad = sum(
            1
            for key, code, digest in zip(out["keys"], out["codes"], out["outputs"])
            if code != 0 or want.get(key) != digest
        )
        return len(ops), bad + max(0, len(ops) - len(out["keys"]))
    try:
        report = json.loads(out["outputs"][0])
        checks = report["checks"]
        suite_ok = out["codes"][0] == 0 and report["passed"] is True
    except (ValueError, KeyError, TypeError):
        return len(ops), len(ops)
    bad = 0
    for i, name in enumerate(ops):
        ok = suite_ok and i < len(checks) and checks[i].get("name") == name
        bad += not (ok and checks[i].get("passed") is True)
    return len(ops), bad


# --- repetitions -------------------------------------------------------------


def _import_self_s(stderr: str) -> dict[str, float]:
    """Per-layer self import time from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:") :].split("|")]
        if len(parts) == 3 and parts[2].startswith("chromsym."):
            layer = parts[2][len("chromsym.") :]
            if layer in LAYERS and parts[0].isdigit():
                out[layer] = int(parts[0]) / 1e6
    return out


def run_rep(spec: dict, seed: int, order_key: int, traced: bool, timeout: float, src: Path) -> dict:
    """Run one repetition in a fresh interpreter; never raises for a failed child."""
    job = dict(spec, seed=seed, order_key=order_key, trace=traced, src=str(src))
    cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + [str(CHILD)]
    rep = {"traced": traced, "load_before": os.getloadavg()[0], "out": None, "error": None}
    job["spawned"] = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + [json.dumps(job)], capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        rep["error"] = f"timed out after {timeout:.0f} s"
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            try:
                rep["out"] = json.loads(lines[-1])
            except ValueError:
                rep["error"] = "child printed no result"
        else:
            rep["error"] = f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        if traced and rep["out"] is not None:
            rep["out"]["import_s"] = _import_self_s(proc.stderr)
    rep["load_after"] = os.getloadavg()[0]
    return rep


def run_reps(spec: dict, seed: int, seconds: float, trace: bool, src: Path) -> list[dict]:
    """Repetitions until ``seconds`` have passed and ``MIN_REPS`` have run.

    Untraced, repetition i of ``reduce`` takes its order from (seed, i), so a
    run samples several orders.  Traced runs alternate untraced and traced
    repetitions of one order: the pairs give the overhead, and the traced
    ones must repeat every counter.
    """
    start = time.monotonic()
    reps: list[dict] = []
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed >= seconds:
            break
        remaining = DEADLINE_S - elapsed
        if remaining < 5:
            break
        traced = trace and len(reps) % 2 == 1
        order_key = 0 if trace else len(reps)
        reps.append(run_rep(spec, seed, order_key, traced, remaining, src))
    return reps


# --- metrics ------------------------------------------------------------------
#
# This machine runs at two speeds about 1.6x apart, which switch after seconds
# or minutes for reasons outside it; the load average does not show them.
# Within one 25 s run the mode can stay the same throughout, so neither a
# median nor a minimum over repetitions gives the same number twice.  Each
# repetition therefore also times a fixed pure-Python kernel (child.py) right
# after set-up, every CAL_EVERY calls and at the end, and every time it
# reports is scaled to reference seconds: measured seconds * CAL_REF_S /
# kernel seconds, with the kernel timed next to the measured interval.
# The kernel is the benchmark's own code, so a change to chromsym cannot move
# it.  The report prints each repetition's measured times and speed too.

CAL_REF_S = 0.003  # about the kernel's time on the reference machine in its faster state


def factors(out: dict) -> tuple[float, list[float]]:
    """Factors from measured to reference seconds: for set-up, and per call.

    A call is scaled by the kernel times taken within one block of calls of
    it, so a speed switch in the middle of a repetition is followed.
    """

    def factor(lo: int, hi: int) -> float:
        return CAL_REF_S / statistics.median(s for at, s in out["kernel"] if lo <= at <= hi)

    per_call = []
    for i in range(len(out["call_s"])):
        start = i - i % CAL_EVERY
        per_call.append(factor(start - CAL_EVERY, start + 2 * CAL_EVERY))
    return factor(0, 0), per_call


def scaled_run_s(out: dict) -> float:
    return sum(s * k for s, k in zip(out["call_s"], factors(out)[1]))


def tail_percentile(count: int) -> int | None:
    """Highest whole percentile with at least 10 samples beyond it, if any."""
    for p in range(99, 49, -1):
        if count * (100 - p) / 100 >= 10:
            return p
    return None


def latency(samples_ms: list[float]) -> tuple[float, float, str]:
    """(p50, tail, what the tail is) of the call latencies of one repetition."""
    p = tail_percentile(len(samples_ms))
    if p is None:
        return statistics.median(samples_ms), max(samples_ms), f"max of {len(samples_ms)}"
    q = statistics.quantiles(samples_ms, n=100, method="inclusive")
    return statistics.median(samples_ms), q[p - 1], f"p{p} of {len(samples_ms)}"


def end_to_end(outs: list[dict]) -> tuple[dict, str]:
    """Medians over repetitions of each repetition's scaled values."""
    rows = []
    for out in outs:
        setup_k, call_k = factors(out)
        calls_ms = [s * 1000 * k for s, k in zip(out["call_s"], call_k)]
        p50, tail, label = latency(calls_ms)
        rows.append(
            {
                "setup_s": out["setup_s"] * setup_k,
                "run_s": sum(calls_ms) / 1000,
                "peak_rss_mb": out["rss_mb"],
                "call_ms_p50": p50,
                "call_ms_tail": tail,
            }
        )
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}, label


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Counts from the first traced repetition; times are medians, scaled."""
    first = traced[0]["trace"]
    values = {name: first[name] for name, unit, _ in PER_LAYER if name in first and unit == "count"}
    scaled = [scaled_run_s(out) for out in traced]
    for layer in LAYERS:
        # A module's import is its own code running, and it keeps the time of a
        # layer a workload never calls from reading 0 on every run.
        for kind in ("self_s", "total_s"):
            values[f"{layer}.{kind}"] = statistics.median(
                (out["trace"][f"{layer}.{kind}"] + out["import_s"].get(layer, 0.0))
                * run_s
                / sum(out["call_s"])
                for out, run_s in zip(traced, scaled)
            )
    counts = [k for k in first if not k.endswith("_s")]
    run_s = statistics.median(scaled)
    base_s = statistics.median(scaled_run_s(out) for out in untraced)
    values.update(
        {
            "trace.run_s": run_s,
            "trace.untraced_run_s": base_s,
            "trace.overhead": run_s / base_s,
            "trace.uncovered_frac": statistics.median(
                1 - out["top_level_s"] / sum(out["call_s"]) for out in traced
            ),
            "trace.counter_mismatches": sum(
                out["trace"][k] != first[k] for out in traced[1:] for k in counts
            ),
        }
    )
    return values


def run_workload(spec: dict, seed: int, seconds: float, trace: bool, reference: dict, src: Path = SRC) -> dict:
    """Run, check and measure one workload; the result holds what ``report`` prints."""
    reps = run_reps(spec, seed, seconds, trace, src)
    attempted = failed = 0
    for rep in reps:
        a, f = judge(spec, rep["out"], reference)
        attempted, failed = attempted + a, failed + f
    outs = [rep["out"] for rep in reps if rep["out"] is not None]
    nproc = len(os.sched_getaffinity(0))
    result = {
        "spec": spec,
        "seed": seed if spec["kind"] == "reduce" else None,
        "trace": trace,
        "reps": reps,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and all(rep["out"] is not None for rep in reps),
        "env": {
            "python": platform.python_version(),
            "nproc": nproc,
            "commit": git_commit(ROOT),
            "overloaded_reps": sum(max(r["load_before"], r["load_after"]) > nproc for r in reps),
        },
        "metrics": {},
        "tail_label": None,
    }
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    if trace:
        untraced = [rep["out"] for rep in reps if not rep["traced"] and rep["out"] is not None]
        traced = [rep["out"] for rep in reps if rep["traced"] and rep["out"] is not None]
        values = per_layer(untraced, traced) if untraced and traced else {}
    else:
        values, result["tail_label"] = end_to_end(outs) if outs else ({}, None)
    result["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    return result


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# --- output -------------------------------------------------------------------


def report(name: str, result: dict) -> list[str]:
    """Human-readable lines: environment, repetitions, every metric with its unit."""
    spec, env = result["spec"], result["env"]
    seed = (
        f"seed {result['seed']} (shuffles the order of the m)"
        if result["seed"] is not None
        else "seed ignored: the input is fixed by (suite, n)"
    )
    lines = [
        f"== {name}: {spec} ({'traced' if result['trace'] else 'untraced'}), {seed}",
        f"env: python {env['python']}, nproc {env['nproc']}, commit {env['commit']}, "
        f"{env['overloaded_reps']} of {len(result['reps'])} repetitions ran with load above nproc",
    ]
    for i, rep in enumerate(result["reps"]):
        flag = "  LOAD>NPROC" if max(rep["load_before"], rep["load_after"]) > env["nproc"] else ""
        if rep["out"] is None:
            status = f"FAILED: {rep['error']}"
        else:
            out = rep["out"]
            status = (
                f"measured setup {out['setup_s']:.4f} s, run {sum(out['call_s']):.4f} s, "
                f"rss {out['rss_mb']:.1f} MB, kernel {statistics.median(s for _, s in out['kernel']) * 1000:.3f} ms"
            )
        lines.append(
            f"rep {i} {'traced  ' if rep['traced'] else 'untraced'} {status}, "
            f"load {rep['load_before']:.2f} -> {rep['load_after']:.2f}{flag}"
        )
    for metric, entry in result["metrics"].items():
        lines.append(f"{metric:32s} {entry['value']:>16.6g} {entry['unit']}")
    if result["tail_label"]:
        lines.append(
            f"call_ms_tail: per repetition the {result['tail_label']} calls; every time is a median "
            f"over repetitions in reference seconds (kernel {CAL_REF_S * 1000:g} ms)"
        )
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    lines.append(f"{'failed_frac':32s} {frac:>16.6g} frac ({result['failed']} of {result['attempted']} operations)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chromsym" / "cli.py").is_file():
        print(f"error: no chromsym source under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing reference {REFERENCE}; run bench/reference.py", file=sys.stderr)
        return 2
    reference = load_reference()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), reference)
        print("\n".join(report(name, result)), flush=True)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, entry in result["metrics"].items():
            summary["metrics"][prefix + metric] = entry
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
