"""Benchmark entry point for seqmeas.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The BLAS/OpenMP thread counts are
pinned here, before anything imports numpy, and the pinned environment is
passed on to every child process.  See ``bench.py`` for what is measured.
"""

import os
import sys

PINNED_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    numpy_preloaded = "numpy" in sys.modules
    for var in PINNED_VARS:
        os.environ[var] = "1"

    import bench

    sys.exit(bench.main(sys.argv[1:], pinned=not numpy_preloaded))
