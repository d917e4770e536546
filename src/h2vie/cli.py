"""Command-line benchmark harness.

Subcommands: rank-study, scaling-study, solve, verify. All experiment
parameters come from an optional key=value config file plus repeatable
--set key=value overrides; `h2vie <cmd> --help` lists them.

Exit codes: 0 on success; 1 when the request is malformed or `verify`
fails; 2 when the numbers fail: a named compression or inversion failure
(printed as `error: <ClassName>: <message>`) or a solve that did not
converge.
"""

from __future__ import annotations

import argparse
import sys

from . import bench
from .arith import SingularLeafError
from .build import ClusterCompressionError
from .config import config_field_names, load_config


def _add_common(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=f"override a config key (known keys: {', '.join(config_field_names())})",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="h2vie",
        description="Hierarchical low-rank solver benchmarks for the scalar "
        "volume-integral-equation model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("rank-study", "per-level rank sweep plus the two-body SVD rank study"),
        ("scaling-study", "build/matvec/solve/inverse timings and fitted slopes"),
        ("solve", "end-to-end solve of one geometry, writes the solution vector"),
        ("verify", "dense-oracle property suite on small geometries"),
    ]:
        p = sub.add_parser(name, help=desc)
        _add_common(p)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
    except (ValueError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "rank-study":
            records = bench.run_rank_study(cfg)
            print(f"wrote {len(records)} rows to {cfg.out}")
        elif args.command == "scaling-study":
            records = bench.run_scaling_study(cfg)
            slopes = records[-1]
            print(f"wrote {len(records)} rows to {cfg.out}")
            parts = []
            for label, value in [("build", slopes.build_s),
                                 ("matvec", slopes.matvec_s),
                                 ("inverse", slopes.inverse_s),
                                 ("solve", slopes.solve_s),
                                 ("memory", slopes.peak_mem)]:
                parts.append(f"{label}={'n/a' if value is None else f'{value:.3f}'}")
            print("slopes: " + " ".join(parts))
        elif args.command == "solve":
            record, summary = bench.run_solve(cfg)
            print(f"N={record.N} iterations={record.iterations} "
                  f"solution -> {cfg.solution_out}, record -> {cfg.out}")
            if "direct_vs_iterative" in summary:
                print(f"direct vs iterative rel-l2: {summary['direct_vs_iterative']:.3e}")
            if not summary["converged"]:
                print("iterative solver did not converge", file=sys.stderr)
                return 2
        else:  # verify
            results = bench.verify_suite(cfg)
            failed = 0
            for name, ok, detail in results:
                print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
                failed += 0 if ok else 1
            print(f"{len(results) - failed}/{len(results)} checks passed")
            return 0 if failed == 0 else 1
    except (ClusterCompressionError, SingularLeafError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
