"""Benchmark of the adelic package, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--negative-control]

Run from anywhere; the repository root is the parent of this directory and
the package is imported from its ``src/`` (pure Python, nothing to build).
Workloads: local-fourier, global-identities, theta-dense (see
``workloads.py`` and README.md).  Each run starts fresh processes with
BLAS/OpenMP pools pinned to one thread:

- ``--trace 0`` measures set-up (median wall time of fresh processes that
  import ``adelic.cli`` and build the workload's field roster), then one
  closed loop, one client, for S seconds over inputs made from the seed,
  and prints the end-to-end metrics;
- ``--trace 1`` runs a fixed number of ops (proportional to S) untraced,
  traced with spans from ``spans.py``, and untraced again, times CLI cold
  start, and prints the per-layer metrics.

Outputs are checked: every op's report must pass, and on theta-dense a
seeded subsample of h0 values must match an independent numpy theta sum.
``--negative-control`` corrupts results on purpose (every tenth double
transform on local-fourier, every checked h0 value on theta-dense), which
must show as failures.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a preceding line
holds the run metadata.  Exits 2, printing no result, when the repository
or a process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("local-fourier", "global-identities", "theta-dense")

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1"}
SETUP_RUNS = 10  # timed set-up processes per run, after one untimed warm-up
CLI_RUNS = 5     # timed processes per CLI cold-start metric, after a warm-up
# traced runs make exactly seconds * TRACE_RATE ops, untraced, traced and
# untraced again, about a quarter of the seconds each when untraced
TRACE_RATE = {"local-fourier": 40, "global-identities": 1000, "theta-dense": 40}
# the whole run must end within TIME_FACTOR * S + TIME_MARGIN seconds
TIME_FACTOR = 3
TIME_MARGIN = 60.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("harmonic.fourier.calls", "count"),
    ("harmonic.fourier.self_ms", "ms"),
    ("harmonic.fourier.out_cosets", "count"),
    ("harmonic.verify_inversion.self_ms", "ms"),
    ("harmonic.verify_inversion.cosets_checked", "count"),
    ("harmonic.negate_coset.hit_ratio", "ratio"),
    ("harmonic.CycScalar.canonical.calls", "count"),
    ("localfields.validated_quadratics.self_ms", "ms"),
    ("localfields.standard_character.calls", "count"),
    ("values.LogValue.new", "count"),
    ("values.PosRealExact.new", "count"),
    ("globalfields.self_ms", "ms"),
    ("globalfields.places_above.calls", "count"),
    ("globalfields.places_above.hit_ratio", "ratio"),
    ("globalfields.idele_log_norm.self_ms", "ms"),
    ("globalfields.divisor_of_idele.self_ms", "ms"),
    ("ffpoly.calls", "count"),
    ("ffpoly.self_ms", "ms"),
    ("theta.theta_log_sum.calls", "count"),
    ("theta.theta_log_sum.self_ms", "ms"),
    ("theta.points", "count"),
    ("theta.points_per_s", "1/s"),
    ("theta.ideal_for_idele.self_ms", "ms"),
    ("euler.self_ms", "ms"),
    ("euler.h0.calls", "count"),
    ("cli.import_ms", "ms"),
    ("cli.numpy_import_ms", "ms"),
    ("cli.h0_cold_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    """Starts the benchmark's child processes under one time limit."""

    def __init__(self, seconds):
        self.deadline = time.monotonic() + TIME_FACTOR * seconds + TIME_MARGIN
        self.env = dict(os.environ)
        self.env.update(THREAD_ENV)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"
        # byte code is cached inside the checkout, whatever the caller's
        # setting, so set-up time never includes compiling the package
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")

    def run(self, argv) -> tuple[float, str]:
        """(wall seconds, stdout) of one child; raises on failure."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time limit reached")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{argv[:3]} did not finish in time") from None
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise BenchError(f"{argv[:3]} exited {proc.returncode}: {tail[0]}")
        return wall, proc.stdout

    def median(self, argv, runs, read=None) -> float:
        """Median over ``runs`` processes, after one untimed warm-up, of the
        wall seconds or, with ``read``, of a number read from stdout."""
        self.run(argv)  # warm-up: byte-code caches, page cache
        values = []
        for _ in range(runs):
            wall, out = self.run(argv)
            values.append(wall if read is None else read(out))
        return statistics.median(values)

    def worker(self, *argv) -> dict:
        _, out = self.run([str(HERE / "worker.py"), *argv])
        return json.loads(out.strip().splitlines()[-1])


def end_to_end(r: Runner, args) -> tuple[dict, list, list]:
    setup_argv = [str(HERE / "worker.py"), "setup", args.workload]
    r.run(setup_argv)  # warm-up: byte-code caches, page cache
    # half of the set-up samples before the loop and half after it, so that
    # the median spans two moments of a machine whose speed drifts
    setup = [r.run(setup_argv)[0] for _ in range(SETUP_RUNS // 2)]
    extra = ["--corrupt"] if args.negative_control else []
    w = r.worker("loop", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), *extra)
    setup += [r.run(setup_argv)[0] for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": (w["attempted"] - w["failed"]) / w["elapsed_s"],
        "op_p50_ms": w["p50_s"] * 1e3,
        "op_p99_ms": w["p99_s"] * 1e3,
        "peak_rss_mb": w["rss_mb"],
    }
    notes = []
    if w["beyond_p99"] < 10:
        del metrics["op_p99_ms"]
        notes.append(f"op_p99_ms withheld: {w['beyond_p99']} of {w['attempted']} "
                     "samples lie beyond it, fewer than 10")
    return metrics, [w], notes


def per_layer(r: Runner, args) -> tuple[dict, list, list]:
    py = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    metrics = {
        "cli.import_ms": 1e3 * r.median(["-c", py.format("adelic.cli")], CLI_RUNS, float),
        "cli.numpy_import_ms": 1e3 * r.median(["-c", py.format("numpy")], CLI_RUNS, float),
        "cli.h0_cold_ms": 1e3 * r.median(
            ["-m", "adelic.cli", "h0", "--field", "Q(sqrt 5)"], CLI_RUNS),
    }
    n = str(max(1, round(args.seconds * TRACE_RATE[args.workload])))
    extra = ["--corrupt"] if args.negative_control else []
    common = ["loop", args.workload, "--seed", str(args.seed), "--ops", n, *extra]
    # untraced before and after the traced run, so that drift in machine
    # speed does not read as tracing overhead
    plain = r.worker(*common)
    traced = r.worker(*common, "--trace")
    plain_after = r.worker(*common)
    t = traced["trace"]
    fns, layers, counts = t["functions"], t["layers"], t["counts"]

    def fn(name, key):
        d = fns.get(name)
        if d is None:
            return 0
        return d[key] * 1e3 if key.endswith("_s") else d[key]

    notes = []

    def ratio(key):
        v = t["hit_ratios"][key]
        if v is None:
            notes.append(f"{key}: no lookups on this workload, reported as 0")
            return 0.0
        return v

    points = counts.get("theta.points", 0)
    theta_s = fns.get("theta.theta_log_sum", {}).get("total_s", 0.0)
    metrics.update({
        "harmonic.fourier.calls": fn("harmonic.fourier", "calls"),
        "harmonic.fourier.self_ms": fn("harmonic.fourier", "self_s"),
        "harmonic.fourier.out_cosets": counts.get("harmonic.fourier.out_cosets", 0),
        "harmonic.verify_inversion.self_ms": fn("harmonic.verify_inversion", "self_s"),
        "harmonic.verify_inversion.cosets_checked":
            counts.get("harmonic.verify_inversion.cosets_checked", 0),
        "harmonic.negate_coset.hit_ratio": ratio("harmonic.negate_coset.hit_ratio"),
        "harmonic.CycScalar.canonical.calls":
            counts.get("harmonic.CycScalar.canonical.calls", 0),
        "localfields.validated_quadratics.self_ms":
            fn("localfields.validated_quadratics", "self_s"),
        "localfields.standard_character.calls":
            fn("localfields.standard_character", "calls"),
        "values.LogValue.new": counts.get("values.LogValue.new", 0),
        "values.PosRealExact.new": counts.get("values.PosRealExact.new", 0),
        "globalfields.self_ms": layers.get("globalfields", {}).get("self_s", 0.0) * 1e3,
        "globalfields.places_above.calls": fn("globalfields.places_above", "calls"),
        "globalfields.places_above.hit_ratio":
            ratio("globalfields.places_above.hit_ratio"),
        "globalfields.idele_log_norm.self_ms": fn("globalfields.idele_log_norm", "self_s"),
        "globalfields.divisor_of_idele.self_ms":
            fn("globalfields.divisor_of_idele", "self_s"),
        "ffpoly.calls": layers.get("ffpoly", {}).get("calls", 0),
        "ffpoly.self_ms": layers.get("ffpoly", {}).get("self_s", 0.0) * 1e3,
        "theta.theta_log_sum.calls": fn("theta.theta_log_sum", "calls"),
        "theta.theta_log_sum.self_ms": fn("theta.theta_log_sum", "self_s"),
        "theta.points": points,
        "theta.points_per_s": points / theta_s if theta_s else 0.0,
        "theta.ideal_for_idele.self_ms": fn("theta.ideal_for_idele", "self_s"),
        "euler.self_ms": layers.get("euler", {}).get("self_s", 0.0) * 1e3,
        "euler.h0.calls": fn("euler.h0", "calls"),
        "trace.overhead_ratio":
            (plain["elapsed_s"] + plain_after["elapsed_s"]) / (2 * traced["elapsed_s"]),
    })
    notes.append(f"{t['spans']} spans over {traced['attempted']} ops")
    shares = sorted(((d["self_s"] / traced["elapsed_s"], layer)
                     for layer, d in layers.items()), reverse=True)
    notes.append("self time by layer, share of the traced loop: "
                 + ", ".join(f"{layer} {share:.3f}" for share, layer in shares))
    return metrics, [plain, traced, plain_after], notes


def metadata(args, workers) -> dict:
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for p in src:
        data = p.read_bytes()
        digest.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": workers[0]["numpy"],
        "threads_env": THREAD_ENV,
        "reference_checked": sum(w["reference_checked"] for w in workers),
        "reference_failed": sum(w["reference_failed"] for w in workers),
        "errors": [w["errors"] for w in workers],
    }


def git_sha():
    """HEAD of the repository holding this benchmark, or None outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative-control", action="store_true",
                    help="corrupt results on purpose; they must count as failed")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "adelic" / "__init__.py").is_file():
        print(f"error: no adelic package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    r = Runner(args.seconds)
    try:
        metrics, workers, notes = (per_layer if args.trace else end_to_end)(r, args)
        meta = metadata(args, workers)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    correct = (failed == 0 and attempted >= 1
               and (args.workload != "theta-dense" or meta["reference_checked"] > 0))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, value in metrics.items():
        print(f"{name:<44} {value:>16.6f} {units[name]}")
    print(f"{'attempted':<44} {attempted:>16d} ops")
    print(f"{'failed':<44} {failed:>16d} ops")
    if args.workload == "theta-dense":
        print(f"{'reference checked':<44} {meta['reference_checked']:>16d} ops")
    for note in notes:
        print(f"note: {note}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
