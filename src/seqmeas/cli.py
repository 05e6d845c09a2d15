"""Command-line interface.

Exit codes: 0 on success, 1 for configuration/usage errors, 2 when a
numerical invariant fails (including failing verify suites).
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .core import NumericalInvariantError
from .experiment import run_experiment, write_outputs
from .verify import format_report, run_suites


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seqmeas",
        description=(
            "Sequential-measurement simulator: exact and sampled two-point "
            "(TOC) and out-of-time-ordered (OTOC) correlators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="execute an experiment config and write CSV results"
    )
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument(
        "--out", default="results.csv", help="output CSV path (default: results.csv)"
    )
    run_p.add_argument("--seed", type=int, default=None, help="override config seed")
    run_p.add_argument(
        "--trials", type=int, default=None, help="override config trials"
    )
    run_p.add_argument(
        "--mode", choices=("exact", "sampled"), default=None, help="override mode"
    )

    verify_p = sub.add_parser(
        "verify", help="run the randomized identity suites and report residuals"
    )
    verify_p.add_argument("--samples", type=int, default=100)
    verify_p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "run":
        overrides = {"seed": args.seed, "trials": args.trials, "mode": args.mode}
        try:
            cfg = load_config(args.config, overrides)
            rows = run_experiment(cfg)
            csv_path, sidecar = write_outputs(cfg, rows, args.out)
        except ConfigError as exc:
            print(f"seqmeas: config error: {exc}", file=sys.stderr)
            return 1
        except NumericalInvariantError as exc:
            print(f"seqmeas: numerical invariant failed: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {csv_path} ({len(rows)} rows) and {sidecar}")
        return 0

    if args.command == "verify":
        if args.samples < 1:
            print("seqmeas: error: --samples must be >= 1", file=sys.stderr)
            return 1
        if args.seed < 0:
            print("seqmeas: error: --seed must be >= 0", file=sys.stderr)
            return 1
        results = run_suites(samples=args.samples, seed=args.seed)
        sys.stdout.write(format_report(results, args.samples, args.seed))
        return 0 if all(r.passed for r in results) else 2

    return 1


if __name__ == "__main__":
    raise SystemExit(main())
