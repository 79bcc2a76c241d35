"""Build the benchmark's reference outputs: ``python3 bench/reference.py``.

The reference is made once and committed, so a later change to the program
is compared with the outputs of this one, byte for byte.  It holds:

- for every suite workload, the check names its report has at each n up to
  the workload's n (they embed instance counts, e.g. "E = G = S on 196
  functions"), taken only from runs that passed;
- for every Hessenberg function m of length up to the ``reduce`` workload's
  n, the exact line ``chromsym reduce --m <m> --emit json`` prints.

The certificate order does not depend on the seed, which only shuffles the
order of the calls, so one reference serves every seed.  Each certificate is
validated as it is stored: parsed back from the printed JSON and contracted
against the direct E, G and S engines, which must all agree with it.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys

from run import REFERENCE, SRC, WORKLOADS


def _cli(main, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"reference run failed: chromsym {' '.join(argv)} exited {code}")
    return buf.getvalue()


def build() -> dict:
    sys.path.insert(0, str(SRC))
    from chromsym import cli, gfunctions, modular, ptableaux, transition
    from chromsym.hessenberg import enumerate_hess

    suites: dict[str, dict[str, list[str]]] = {}
    reduce_n = 0
    for spec in WORKLOADS.values():
        if spec["kind"] == "reduce":
            reduce_n = max(reduce_n, spec["n"])
            continue
        names = suites.setdefault(spec["suite"], {})
        for n in range(1, spec["n"] + 1):
            report = json.loads(_cli(cli.main, ["verify", "--suite", spec["suite"], "--n", str(n), "--json"]))
            names[str(n)] = [check["name"] for check in report["checks"]]

    certificates = {}
    for n in range(1, reduce_n + 1):
        for m in enumerate_hess(n):
            key = ",".join(map(str, m))
            text = _cli(cli.main, ["reduce", "--m", key, "--emit", "json"])
            cert = modular.certificate_from_json(json.loads(text))
            direct = {
                "E": transition.e_total(m),
                "G": gfunctions.g_total(m),
                "S": ptableaux.s_fun(m).to_e(),
            }
            for base, value in direct.items():
                if modular.evaluate(cert, base) != value:
                    raise SystemExit(f"certificate of {key} does not evaluate to {base}")
            certificates[key] = text
    return {"suites": suites, "reduce": certificates}


def main() -> int:
    data = build()
    payload = json.dumps(data, sort_keys=True, indent=0).encode()
    with open(REFERENCE, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(payload)
    print(f"wrote {REFERENCE}: {len(data['reduce'])} certificates, suites {sorted(data['suites'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
