"""Seeded benchmark of sparsetree with an exactness gate and a per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload exact-search --seed 0 --seconds 20 --trace 0

Workloads: exact-search, guessed-pipeline, oracle-corpus (see workloads.py).
Ops run back to back in one process on one thread (closed loop, one client)
until --seconds have passed.  Every op is checked exactly; a mismatch or an
exception counts as a failed op.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are end to end:
wall_s (median seconds per op), setup_s (median over fresh interpreters of
`import sparsetree` plus building the inputs) and peak_rss_mb.  With
--trace 1 untraced and traced ops alternate, and the metrics are the
per-layer medians of the traced ops plus the tracing overhead.

Exit status: 0 when every op passed, 1 when any failed, 2 when the source
tree or the workload is missing (no result is printed then).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 5


def probe_setup(workload, seed, workdir):
    """Seconds a fresh interpreter takes to import sparsetree and build the inputs."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(workdir)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def env_stamp(np):
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return (f"env nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} {threads}")


def sample_note(values):
    if len(values) == 1:
        return "n=1"
    return f"n={len(values)} min={min(values):.6g} max={max(values):.6g}"


def run(w, seed, args, workdir):
    import numpy as np

    import tracing
    import workloads

    pinned = seed == w.pinned_seed
    print(f"workload {w.name} seed={seed} ({'pinned' if pinned else 'held-out'}) "
          f"trace={args.trace} seconds={args.seconds}")
    print(env_stamp(np))

    setup_samples = [] if args.trace else [
        probe_setup(w.name, seed, workdir) for _ in range(SETUP_PROBES)]
    inputs = w.setup(seed, workdir)
    w.validate(inputs)
    oracle = w.oracle(inputs)

    expected = dict(w.pins) if pinned else {}
    walls = {False: [], True: []}
    layers = []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < args.seconds:
        for traced in ((False, True) if args.trace else (False,)):
            attempted += 1
            t = tracing.Tracer() if traced else tracing.NullTracer()
            try:
                with t.patched() if traced else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    outcome = t.call("op", w.op, inputs, t)
                    wall = time.perf_counter() - t0
                    errors = workloads.check(w, outcome, t, expected, oracle)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            walls[traced].append(wall)
            if traced:
                layers.append(tracing.layer_metrics(t, outcome.facts))
            if first is None:
                first = outcome.facts
                print("facts " + " ".join(f"{k}={v}" for k, v in first.items()))
                expected = {**first, **expected}
            print(f"op {attempted}{' traced' if traced else ''}: {wall:.4f} s "
                  f"{'FAIL' if errors else 'ok'}")
            if errors:
                failed += 1
                for e in errors[:10]:
                    print(f"  gate: {e}", file=sys.stderr)

    print(f"fail_rate = {failed / attempted} ratio ({failed} failed of {attempted} attempted)")
    print("gate: " + ("pinned objective and counters" if pinned else
                      "held-out seed, facts compared op to op") + (
          ", brute-force oracle per instance" if oracle is not None else ""))
    metrics = {}
    if args.trace == 0 and walls[False]:
        metrics["wall_s"] = (statistics.median(walls[False]), "s", sample_note(walls[False]))
        metrics["setup_s"] = (statistics.median(setup_samples), "s", sample_note(setup_samples))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (rss, "MB", "this process")
    elif args.trace == 1 and layers and walls[False]:
        for name in layers[0]:
            values = [m[name] for m in layers]
            metrics[name] = (statistics.median(values), tracing.LAYER_UNITS[name], sample_note(values))
        plain, traced = statistics.median(walls[False]), statistics.median(walls[True])
        metrics["trace.overhead_s"] = (traced - plain, "s", f"traced {traced:.4f} s")
        metrics["trace.overhead_ratio"] = ((traced - plain) / plain, "ratio", f"untraced {plain:.4f} s")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value} {unit} ({note})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None, help="defaults to the workload's pinned seed")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sparsetree" / "__init__.py").is_file():
        print(f"error: no sparsetree sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for v in THREAD_VARS:
        os.environ[v] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = w.pinned_seed if args.seed is None else args.seed
    workdir = ROOT / ".bench_build" / f"bench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(w, seed, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
