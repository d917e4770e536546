#!/usr/bin/env python3
"""End-to-end solve benchmark for h2vie, with a separate traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload slab-sweep --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

--trace 0 measures the end-to-end metrics (set-up, solve, storage, memory,
accuracy) with no tracing; --trace 1 rebuilds the operator stage by stage
under spans and reports the per-layer metrics instead, after checking that
the rebuild matches build_h2 exactly. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Earlier
lines give the environment, each metric with its unit and sample count,
and every failed operation by name. --workload all runs each workload in
its own process, passes their reports through and ends with one JSON
object keyed by workload.

The program is imported from the checkout's ``src``; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
RUN_TIMEOUT_S = 170  # per workload process under --workload all


def fail(message):
    """Exit with status 2 and no result line."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def pin_blas_threads():
    """Pin BLAS/OpenMP threads to nproc (this process's CPUs); call before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def import_program():
    """Put the checkout's src on sys.path and load h2vie from it."""
    if not (SRC / "h2vie" / "__init__.py").is_file():
        fail(f"no h2vie sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import h2vie

    if Path(h2vie.__file__).resolve().parent != SRC / "h2vie":
        fail(f"imported h2vie from {h2vie.__file__}, not from {SRC}")


def measure(w, seed, seconds, trace, trace_path):
    """Untraced end-to-end metrics, or traced per-layer metrics; (rows, ledger)."""
    import layers
    import solve

    if not trace:
        return solve.run_untraced(w, seed, seconds)
    try:
        metrics, ledger = layers.run_traced(w, seed, trace_path)
    except layers.FidelityError as exc:
        fail(f"traced run is not faithful to build_h2: {exc}")
    except solve.NAMED_FAILURES as exc:
        fail(f"{w.name}: traced build failed: {type(exc).__name__}: {exc}")
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    return {k: (v, u, 1) for k, (v, u) in metrics.items()}, ledger


def report(w, rows, ledger, trace):
    """Print each metric with unit and sample count; return the result object."""
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    if rows is None:
        fail(f"{w.name}: no operator could be built")
    n_failed = len(ledger.failures)
    print(f"{w.name}: {w.shape} {w.extent}, {w.solver}, {w.nrhs} RHS, "
          f"{'traced' if trace else 'untraced'}")
    for key, (value, unit, samples) in rows.items():
        if isinstance(samples, list):
            samples = f"{len(samples)} [{min(samples):.4g} .. {max(samples):.4g}]"
        print(f"  {key:34s} {value:>14.6g} {unit:8s} n={samples}")
    if not trace:
        print(f"  {'ops_failed_ratio':34s} {n_failed / ledger.attempted:>14.6g} "
              f"{'ratio':8s} ({n_failed}/{ledger.attempted})")
    return {
        "correct": n_failed == 0,
        "attempted": ledger.attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in rows.items()},
    }


def run_one(name, seed, seconds, trace, blas_threads):
    """Run one workload in this process; returns the result object."""
    import solve

    w = wl.WORKLOADS[name]
    print("env " + json.dumps(solve.environment(seed, blas_threads, ROOT)), flush=True)
    solve.warm_up()
    rows, ledger = measure(w, seed, seconds, trace, OUT_DIR / f"trace-{name}-seed{seed}.json")
    return report(w, rows, ledger, trace)


def run_all(args):
    """Each workload in its own process; returns their results keyed by workload."""
    results = {}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {name} exited with status {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        result = run_all(args)
    else:
        blas_threads = pin_blas_threads()
        import_program()
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                         blas_threads)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
