#!/usr/bin/env python3
"""Cold per-layer record of the pipeline's searches, written to BENCH_1.json.

For each bundled fixture it times `split_interaction` on the raw tensors
(fastest of three calls, one BLAS thread, nothing cached) and counts, in
one more call, its BFGS runs, their iterations and their cost
evaluations, which do not depend on the machine.  The rows are stored
under a label, so the record can hold the code before and after a change
side by side; the Python, numpy and scipy versions, the CPU count and the
BLAS thread count are stored with them.

    python tools/bench.py --label theta-only-split [--out BENCH_1.json]

The package is imported from the `src` next to this script, so a copy of
the script in another checkout measures that checkout's code.
"""

import os

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
from lcunorm import optimize  # noqa: E402
from lcunorm.picture import split_interaction  # noqa: E402
from lcunorm.tensors import FIXTURE_NAMES, load_fixture, to_chemist  # noqa: E402

REPEATS = 3


def _counted(fn, *args):
    """fn(*args) with optimize.minimize counting BFGS runs, iterations and
    cost evaluations (the searches import it per call)."""
    counts = {"bfgs_runs": 0, "bfgs_iters": 0, "cost_evals": 0}
    real = optimize.minimize

    def minimize(f, x0, tol_grad, jac=True):
        def f_counted(x):
            counts["cost_evals"] += 1
            return f(x)

        x, fval, iters = real(f_counted, x0, tol_grad, jac)
        counts["bfgs_runs"] += 1
        counts["bfgs_iters"] += iters
        return x, fval, iters

    optimize.minimize = minimize
    try:
        fn(*args)
    finally:
        optimize.minimize = real
    return counts


def split_rows():
    rows = {}
    for name in FIXTURE_NAMES:
        t = to_chemist(load_fixture(name))
        row = _counted(split_interaction, t)  # also pays the one-time scipy import
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            split_interaction(t)
            best = min(best, time.perf_counter() - start)
        rows[name] = {"seconds": round(best, 4), **row}
    return rows


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this code's rows in the record")
    ap.add_argument("--out", default="BENCH_1.json")
    args = ap.parse_args(argv)
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record[args.label] = {"environment": environment(), "split": split_rows()}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(record[args.label], indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
