"""Set-up probe: a fresh interpreter runs ``seqmeas.cli.main`` with the
given arguments and stops where the experiment (or the verify suites)
would start, printing the CLOCK_MONOTONIC reading at that point.

    python3 perfbench/probe.py run --config cfg.json --out out.csv
    python3 perfbench/probe.py verify --samples 1000 --seed 1
"""

import sys
import time

import seqmeas.cli as cli


def _arrive(*args, **kwargs):
    print(repr(time.monotonic()), flush=True)
    raise SystemExit(0)


if __name__ == "__main__":
    cli.run_experiment = _arrive
    cli.run_suites = _arrive
    sys.exit(cli.main(sys.argv[1:]))
