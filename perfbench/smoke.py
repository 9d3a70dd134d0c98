"""Smoke check of the benchmark itself; takes about a minute.

    python3 perfbench/smoke.py

Checks, with tiny runs:

- each workload prints every end-to-end metric of BENCHMARK.json with its
  unit and passes its correctness checks; ``op_p99_ms`` is withheld when
  fewer than 10 samples lie beyond it (a one-second local-fourier run has
  far fewer than 1000 ops) and present otherwise;
- the negative control (corrupted double transforms, perturbed h0 values)
  raises the failure count;
- each traced run prints every per-layer metric with its unit, and two
  traced runs with one seed give the same counts;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.

Exits 1 and names the failed checks if any fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace=0, seconds=1, seed=7, extra=(), cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    result = None
    if proc.returncode == 0:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc, result


def metrics_match(result, spec, skip=()):
    want = {m["name"]: m["unit"] for m in spec if m["name"] not in skip}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return got == want


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    branches = set()
    for w in names:
        proc, res = bench(w)
        check(res is not None, f"{w}: exits 0 and prints a result")
        if res is None:
            print(proc.stderr)
            continue
        check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
              f"{w}: correct with no failed ops")
        withheld = res["attempted"] < 1000
        branches.add(withheld)
        check(metrics_match(res, SPEC["end_to_end"],
                            skip={"op_p99_ms"} if withheld else ()),
              f"{w}: end-to-end metrics and units"
              + (" (op_p99_ms withheld)" if withheld else " (op_p99_ms present)"))

    check(branches == {True, False}, "op_p99_ms both withheld and present")

    for w in ("local-fourier", "theta-dense"):
        _, res = bench(w, extra=["--negative-control"])
        check(res is not None and res["failed"] > 0 and not res["correct"],
              f"{w}: negative control raises failures")

    for w in names:
        counts = []
        for _ in range(2):
            _, res = bench(w, trace=1)
            check(res is not None and res["correct"]
                  and metrics_match(res, SPEC["per_layer"]),
                  f"{w}: traced run prints every per-layer metric")
            if res is not None:
                counts.append({k: v["value"] for k, v in res["metrics"].items()
                               if v["unit"] == "count"})
        check(len(counts) == 2 and counts[0] == counts[1],
              f"{w}: traced counts repeat with one seed")

    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc, _ = bench(names[0], cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without the package: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
