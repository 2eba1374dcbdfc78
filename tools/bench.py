#!/usr/bin/env python3
"""Cold per-layer record of the pipeline's layers, written to BENCH_<n>.json.

For each bundled fixture it times `split_interaction`, `oo_pauli`,
`csa_greedy`, `double_factorize` and `spectral_range` (dE/2) on the raw
tensors, and `csa_greedy` on the interaction-picture residual (row
`csa-residual`, the CSA that the residual reports run), each the fastest
of REPEATS calls, with one BLAS thread and nothing cached.  In one more
call it records what does not depend on the machine, as the library
counts it in a `lcunorm.work.counting()` block: the BFGS runs, their
iterations and their cost evaluations of the split, OO and CSA, and the
sectors, Lanczos matvecs and cross-spin rows (rows of the matvec's
cross-spin product, summed over matvecs) of dE/2; the fragments of CSA and
DF are the lengths of their results.  The rows are stored under a label,
so the record can hold the code before and after a change side by side;
the Python, numpy and scipy versions, the CPU count and the BLAS thread
count are stored with them.  A run under a label already in the record
keeps each row's faster seconds (its counters must be equal) and counts
the runs, so two checkouts recorded in alternation compare their fastest
seconds over the same stretch of time:

    python tools/bench.py --label csa-tol-rule [--out BENCH_6.json]

The package is imported from the `src` next to this script, so a copy of
the script in another checkout measures that checkout's code, if that code
has `lcunorm.work`.  Code older than the library's counters cannot be
counted this way; compare it with its recorded rows (`BENCH_4.json`'s
`lean-step` holds the last of them).
"""

import os

# one BLAS thread, set before numpy loads, and no cache directory
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LCUNORM_CACHE_DIR", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
from lcunorm.fragments import csa_greedy, double_factorize  # noqa: E402
from lcunorm.optimize import oo_pauli  # noqa: E402
from lcunorm.picture import split_interaction  # noqa: E402
from lcunorm.pipeline import prepare  # noqa: E402
from lcunorm.spectra import spectral_range  # noqa: E402
from lcunorm.tensors import FIXTURE_NAMES, load_fixture, to_chemist  # noqa: E402
from lcunorm.work import counting  # noqa: E402

REPEATS = 9

# layer -> (function, the tensors it runs on)
LAYERS = {
    "split": (split_interaction, "raw"),
    "oo": (oo_pauli, "raw"),
    "csa": (csa_greedy, "raw"),
    "csa-residual": (csa_greedy, "residual"),
    "df": (double_factorize, "raw"),
    "de2": (spectral_range, "raw"),
}


def _fastest(fn, t, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(t)
        best = min(best, time.perf_counter() - start)
    return round(best, 4)


def layer_rows(names=FIXTURE_NAMES, repeats=REPEATS):
    """{layer: {fixture: row}} for the layers of LAYERS on the fixtures
    `names`.  The counted call runs first, so it pays the one-time scipy
    imports."""
    rows = {layer: {} for layer in LAYERS}
    for name in names:
        tensors = {
            "raw": to_chemist(load_fixture(name)),
            "residual": prepare(name, picture="interaction").tensors,
        }
        for layer, (fn, variant) in LAYERS.items():
            t = tensors[variant]
            with counting() as counts:
                out = fn(t)
            if fn in (csa_greedy, double_factorize):
                counts["fragments"] = len(out)
            rows[layer][name] = {**counts, "seconds": _fastest(fn, t, repeats)}
    return rows


def fastest_of(old, new):
    """The rows of `new`, each at the lower seconds of it and its row in
    `old`, a record of the same code; raises SystemExit where the counters
    differ."""
    for layer, by_name in new.items():
        for name, row in by_name.items():
            prev = old.get(layer, {}).get(name)
            if prev is None:
                continue
            if {**prev, "seconds": 0} != {**row, "seconds": 0}:
                raise SystemExit(f"{layer} {name}: counters differ from the recorded ones")
            row["seconds"] = min(row["seconds"], prev["seconds"])
    return new


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
    ap.add_argument("--out", default="BENCH_6.json")
    args = ap.parse_args(argv)
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    rows, runs = layer_rows(), 1
    if args.label in record:
        rows, runs = fastest_of(record[args.label], rows), record[args.label]["runs"] + 1
    record[args.label] = {"environment": environment(), "runs": runs, **rows}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(record[args.label], indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
