"""One benchmark process: set-up only, or a closed loop over seeded ops.

    python3 perfbench/worker.py setup WORKLOAD
    python3 perfbench/worker.py loop WORKLOAD --seed N (--seconds S | --ops N)
                                [--trace] [--corrupt]

``run.py`` starts it with ``src`` on PYTHONPATH and thread pools pinned to
one thread.  ``loop`` makes its inputs before timing starts, runs one op at
a time (one client, no threads), then checks the results and prints one
JSON object.  The input pool has a fixed size, whatever the run's length,
and the loop cycles through it.  With ``--seconds`` it runs until the time
is up; with ``--ops`` it runs exactly that many ops, which the traced run
needs for counts that repeat.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
import time
from array import array
from collections import Counter

import numpy as np

import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "loop"))
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--ops", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)

    import adelic.cli  # noqa: F401  -- what every CLI call imports

    if args.mode == "setup":
        workloads.roster(args.workload)
        return 0

    rec = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        rec.install(extra_modules=[workloads])
        rec.op_id = spans.SETUP
    fields = workloads.roster(args.workload)
    if rec is not None:
        rec.op_id = None

    ops = workloads.make_ops(args.workload, fields, args.seed)
    # the input pool is the benchmark's, not the library's: keep it out of
    # the garbage collector's scans
    gc.collect()
    gc.freeze()

    result = run_loop(ops, args, rec)
    result["numpy"] = np.__version__
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        result["trace"] = rec.summary()
    print(json.dumps(result))
    return 0


def run_loop(ops, args, rec):
    every = workloads.CORRUPT_EVERY if args.corrupt else 0
    # latencies as unboxed doubles and h0 values for the first pass over the
    # pool only, so that the benchmark's own data barely grows with the op
    # count and peak_rss_mb stays the library's
    lat = array("d")
    values = []
    failed = 0
    errors: Counter = Counter()
    if rec is not None:
        rec.begin_ops()
    t_start = time.perf_counter()
    t1 = t_start
    i = 0
    while True:
        if args.ops is not None and i >= args.ops:
            break
        op = ops[i % len(ops)]
        corrupt = every and i % every == every - 1
        if rec is not None:
            rec.op_id = i
        t0 = time.perf_counter()
        try:
            ok, value = workloads.run_op(op, corrupt=corrupt)
        except Exception as exc:  # an op that raises is a failed op
            ok, value = False, None
            errors[type(exc).__name__] += 1
        t1 = time.perf_counter()
        lat.append(t1 - t0)
        if i < len(ops):
            values.append(value if ok else None)
        failed += not ok
        i += 1
        if args.seconds is not None and t1 - t_start >= args.seconds:
            break
    if rec is not None:
        rec.end_ops()
    elapsed = t1 - t_start

    checked, bad = [], []
    if args.workload == "theta-dense":
        checked, bad = workloads.reference_check(
            ops, values, args.seed, corrupt=args.corrupt)
        # an op that passed but misses the reference is a failed op
        failed += len(bad)

    lat = np.sort(np.frombuffer(lat))
    n = len(lat)
    k = math.ceil(0.99 * n) - 1
    return {
        "attempted": n,
        "failed": failed,
        "errors": dict(errors),
        "elapsed_s": elapsed,
        "p50_s": float(np.median(lat)),
        "p99_s": float(lat[k]),
        "beyond_p99": n - 1 - k,
        "reference_checked": len(checked),
        "reference_failed": len(bad),
    }


if __name__ == "__main__":
    sys.exit(main())
