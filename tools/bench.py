#!/usr/bin/env python3
"""Cold per-layer record of the pipeline's layers, written to BENCH_<n>.json.

For each bundled fixture it times `split_interaction`, `oo_pauli`,
`csa_greedy`, `double_factorize` and `spectral_range` (dE/2) on the raw
tensors (fastest of three calls, one BLAS thread, nothing cached).  In one
more call it counts what does not depend on the machine: the fragments of
CSA and DF, the BFGS runs, their iterations and their cost evaluations of
the split, OO and CSA, and the sectors, Lanczos matvecs and cross-spin rows
(rows of the matvec's cross-spin intermediate, summed over matvecs) of
dE/2.  The rows are stored under a label, so the record can hold the code
before and after a change side by side; the Python, numpy and scipy
versions, the CPU count and the BLAS thread count are stored with them.

    python tools/bench.py --label rows-read [--out BENCH_3.json]

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
from lcunorm import optimize, spectra  # noqa: E402
from lcunorm.fragments import csa_greedy, double_factorize  # noqa: E402
from lcunorm.picture import split_interaction  # noqa: E402
from lcunorm.tensors import FIXTURE_NAMES, load_fixture, to_chemist  # noqa: E402

REPEATS = 3


def _counted(fn, *args):
    """(fn(*args), counts) with optimize.minimize counting BFGS runs,
    iterations and cost evaluations (the searches import it per call)."""
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
        result = fn(*args)
    finally:
        optimize.minimize = real
    return result, counts


def _counted_de2(t):
    """Sectors visited, Lanczos matvecs and cross-spin rows of one
    `spectral_range(t)`.  A matvec computes one row of its cross-spin
    intermediate per column of the sector's sparse beta stack `d_rows`."""
    counts = {"sectors": 0, "matvecs": 0, "cross_spin_rows": 0}
    real = spectra._lanczos_extremes

    def lanczos(matvec, dim):
        rows = matvec.__self__.d_rows.shape[1]

        def counted(v):
            counts["matvecs"] += 1
            counts["cross_spin_rows"] += rows
            return matvec(v)

        counts["sectors"] += 1
        return real(counted, dim)

    spectra._lanczos_extremes = lanczos
    try:
        spectra.spectral_range(t)
    finally:
        spectra._lanczos_extremes = real
    return counts


def _fastest(fn, *args):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return round(best, 4)


def layer_rows():
    """{layer: {fixture: row}} for the split, OO, CSA, DF and dE/2 on the
    raw tensors.  The counted call runs first, so it pays the one-time scipy
    imports."""
    rows = {"split": {}, "oo": {}, "csa": {}, "df": {}, "de2": {}}
    for name in FIXTURE_NAMES:
        t = to_chemist(load_fixture(name))
        _, counts = _counted(split_interaction, t)
        rows["split"][name] = {"seconds": _fastest(split_interaction, t), **counts}
        _, counts = _counted(optimize.oo_pauli, t)
        rows["oo"][name] = {"seconds": _fastest(optimize.oo_pauli, t), **counts}
        frags, counts = _counted(csa_greedy, t)
        rows["csa"][name] = {"fragments": len(frags), "seconds": _fastest(csa_greedy, t), **counts}
        frags = double_factorize(t)
        rows["df"][name] = {"fragments": len(frags), "seconds": _fastest(double_factorize, t)}
        counts = _counted_de2(t)
        rows["de2"][name] = {"seconds": _fastest(spectra.spectral_range, t), **counts}
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
    ap.add_argument("--out", default="BENCH_3.json")
    args = ap.parse_args(argv)
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record[args.label] = {"environment": environment(), **layer_rows()}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(record[args.label], indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
