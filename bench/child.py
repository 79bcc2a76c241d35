"""One repetition of a benchmark workload, run in a fresh interpreter.

Usage: ``python3 [-X importtime] bench/child.py '<job json>'``

The job names the source tree, the workload, for ``reduce`` the order of the
inputs, and the parent's ``time.monotonic()`` when it spawned the child.  The
child imports ``chromsym`` and builds the argument lists (that is set-up),
optionally installs the tracer, then runs every call through
``chromsym.cli.main`` with standard output captured, timing the calibration
kernel before, between and after the calls.  It prints one JSON object on
its own standard output and exits.  It judges nothing: the
parent compares the outputs with the reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback


CAL_EVERY = 10  # timed calls between two timings of the calibration kernel


class _Poly:
    """A tiny integer polynomial, the calibration kernel's data type."""

    __slots__ = ("c",)

    def __init__(self, c):
        c = list(c)
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    def __mul__(self, other):
        a, b = self.c, other.c
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _Poly(out)

    def __add__(self, other):
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        return _Poly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])


def _kernel() -> int:
    """Fixed work shaped like chromsym's (small objects, tuples, dicts, ints).

    Its time tracks this machine's speed states the way chromsym's does: the
    ratio of the two stays within about 2% while each moves by 1.6x.
    """
    acc: dict = {}
    p = _Poly((1,))
    for i in range(600):
        q = _Poly((1, i & 3, 1, (i >> 2) & 1))
        p = p * q if len(p.c) < 12 else _Poly((1, i & 1))
        key = p.c[:4]
        acc[key] = acc.get(key, _Poly(())) + q
    return len(acc)


def calibrate(slices: int, at: int, out: list) -> None:
    """Append ``[at, seconds]`` for ``slices`` runs of the kernel to ``out``.

    ``at`` is the number of timed calls made so far.
    """
    clock = time.perf_counter
    for _ in range(slices):
        start = clock()
        _kernel()
        out.append([at, clock() - start])


def reduce_order(ms, seed: int, order_key: int) -> list:
    """The inputs of one ``reduce`` repetition, shuffled by (seed, order key)."""
    ms = list(ms)
    random.Random(seed * 1_000_003 + order_key).shuffle(ms)
    return ms


def main(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    from chromsym import cli

    if job["kind"] == "reduce":
        from chromsym.hessenberg import enumerate_hess

        ms = reduce_order(enumerate_hess(job["n"]), job["seed"], job["order_key"])
        keys = [",".join(map(str, m)) for m in ms]
        argvs = [["reduce", "--m", key, "--emit", "json"] for key in keys]
    else:
        keys = [job["suite"]]
        argvs = [["verify", "--suite", job["suite"], "--n", str(job["n"]), "--json"]]
    setup_s = time.monotonic() - job["spawned"]
    kernel: list[list] = []
    calibrate(8, 0, kernel)

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    clock = time.perf_counter
    seconds, codes, outputs = [], [], []
    for i, argv in enumerate(argvs):
        if i and not i % CAL_EVERY:
            calibrate(1, i, kernel)
        buf = io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, not a failed run
            code = "exception: " + traceback.format_exc(limit=3)
        seconds.append(clock() - start)
        codes.append(code)
        text = buf.getvalue()
        outputs.append(hashlib.sha256(text.encode()).hexdigest() if job["kind"] == "reduce" else text)

    calibrate(8, len(argvs), kernel)
    result = {
        "setup_s": setup_s,
        "kernel": kernel,
        "keys": keys,
        "call_s": seconds,
        "codes": codes,
        "outputs": outputs,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["top_level_s"] = tracer.top_level_s
    return result


if __name__ == "__main__":
    out = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(out) + "\n")
