#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at a tiny size per workload.

For every workload in BENCHMARK.json this runs the untraced and the traced
measurement on a tiny geometry with four RHS, in this process, and asserts
that each end-to-end and per-layer metric BENCHMARK.json names is emitted
with its unit, that no operation failed, and that the correctness gate
trips on deliberately wrong solutions (zero and non-finite vectors).

    python3 perfbench/smoke.py

Exits with status 0 and prints "smoke ok" when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
import workloads as wl

TINY_EXTENT = {"slab-sweep": (2.0, 2.0), "cube-direct": (2, 2, 2)}
TINY_RHS = 4
SEED = 7


def check_metrics(result, expected, label):
    got = result["metrics"]
    missing = sorted(set(expected) - set(got))
    assert not missing, f"{label}: metrics not emitted: {missing}"
    extra = sorted(set(got) - set(expected))
    assert not extra, f"{label}: metrics not named in BENCHMARK.json: {extra}"
    for name, unit in expected.items():
        assert got[name]["unit"] == unit, f"{label}: {name} unit {got[name]['unit']} != {unit}"
        assert isinstance(got[name]["value"], (int, float)), f"{label}: {name} not a number"
    assert result["correct"] and result["failed"] == 0, f"{label}: failures in {result}"
    assert result["attempted"] >= 1


def check_gate(w):
    """The gate must fail every RHS whose solution is zero or non-finite."""
    import numpy as np

    import solve

    inp = solve.make_inputs(w, SEED)
    cols = list(range(w.nrhs))
    for label, x in (("zero", np.zeros_like(inp.rhs)), ("nan", np.full_like(inp.rhs, np.nan))):
        ledger = solve.Ledger()
        solve.gate(x, cols, inp, w.residual_bound, ledger, label)
        assert len(ledger.failures) == w.nrhs == ledger.attempted, (
            f"{w.name}: gate passed a {label} solution: {ledger.failures}")


def main():
    run.pin_blas_threads()
    run.import_program()

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS) == set(TINY_EXTENT)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for name, extent in TINY_EXTENT.items():
        w = dataclasses.replace(wl.WORKLOADS[name], extent=extent, nrhs=TINY_RHS)
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            out = run.OUT_DIR / f"smoke-trace-{name}.json"
            rows, ledger = run.measure(w, SEED, 0.1, trace, out)
            result = json.loads(json.dumps(run.report(w, rows, ledger, trace)))
            check_metrics(result, expected, f"{name} trace={int(trace)}")
        check_gate(w)
    print("smoke ok")


if __name__ == "__main__":
    sys.exit(main())
