#!/usr/bin/env python3
"""Cold-cache benchmark of the lcunorm 1-norm pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload beh2-report --seed 0 --seconds 60 --trace 0

A run repeats whole rounds until the next one would end after `--seconds`
(at least one round).  A round asks for the workload's reports through
`run_pipeline` and `emit_table(fmt="json")`: first a cold pass into an
empty cache directory, then warm passes that ask for the same reports
again from that directory.  One operation is one method cell of one
report.  Between the passes every cell is checked (see checks.py); a cell
that fails a check counts as failed.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, and with `--trace 1` the per-layer metrics of a run whose
layer calls are recorded as spans (see spans.py).  Results, and the spans
of a traced run, are also written to `perfbench/out/`.
"""

import os

# Fix the BLAS thread count before numpy is first imported, here and in the
# set-up probes this script starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

ALL_METHODS = ["de2", "pauli", "oo-pauli", "ac", "oo-ac", "df", "gcsa-f", "gcsa-sr"]

# workload -> reports of one round: (fixture, variant, methods).  The raw
# and shifted reports are cheap (well under a second cold), but they run
# optimize_shift in every pass and let the checks compare shifted with raw.
_QUBIT = ["pauli", "ac", "df"]
WORKLOADS = {
    "beh2-report": [
        ("beh2", "raw", _QUBIT),
        ("beh2", "shifted", _QUBIT),
        ("beh2", "residual", ALL_METHODS),
    ],
    "nh3-floor": [
        ("nh3", "raw", _QUBIT),
        ("nh3", "shifted", _QUBIT),
        ("nh3", "residual", ["de2", "pauli", "ac", "df"]),
    ],
}

# Cells that fail the reference table on these fixed inputs at pipeline
# seed 0: greedy CSA stops above the reference bound on the BeH2 residual
# (README, "Checks").  They are excused only for that reason; any other
# check they fail makes the run incorrect.
KNOWN_FAILURES = {("beh2", "residual", "gcsa-f"), ("beh2", "residual", "gcsa-sr")}

# After its cold pass, every round runs warm passes in bursts of at least
# 0.25 s and 2 passes, with one set-up probe between two bursts (untraced
# runs only).  warm_s and setup_s are medians over the bursts and probes
# of all rounds; the probes spread the bursts over about ten seconds, so
# a second or two of a slower machine moves the medians little.
WARM_BURSTS = 12
WARM_BURST_S = 0.25
PROBE_TIMEOUT_S = 60


def setup(workload, workdir):
    """Import the program and stage the workload's inputs in `workdir`.

    Returns {molecule: staged FCIDUMP path}.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import lcunorm.pipeline  # noqa: F401

    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    staged = {}
    for molecule, _, _ in WORKLOADS[workload]:
        if molecule not in staged:
            fixture = os.path.join(ROOT, "src", "lcunorm", "data", molecule + ".fcidump")
            staged[molecule] = shutil.copy(fixture, inputs)
    return staged


def probe_setup(workload, workdir):
    """Time `setup` from a fresh interpreter, in a child process."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         "--workload", workload, "--workdir", workdir],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout.split()[-1])


def _variant(variant):
    """run_pipeline/prepare keywords of a raw, shifted or residual report."""
    return {
        "shift": variant == "shifted",
        "picture": "interaction" if variant == "residual" else "schrodinger",
    }


def _request(ctx, spec, cache_dir):
    """One report through run_pipeline and emit_table; None if it raised."""
    molecule, variant, methods = spec
    pipeline = ctx["pipeline"]
    try:
        report = pipeline.run_pipeline(
            ctx["staged"][molecule],
            methods=methods,
            seed=ctx["pipeline_seed"],
            cache_dir=cache_dir,
            **_variant(variant),
        )
        return pipeline.emit_table([report], fmt="json")
    except Exception:  # a failing report counts its cells failed; keep going
        traceback.print_exc()
        return None


def _pass(ctx, cache_dir, name):
    """{(molecule, variant): JSON text} of one pass, and its root span id."""
    tracer = ctx["tracer"]
    with tracer.root(name) if tracer else nullcontext() as root:
        texts = {s[:2]: _request(ctx, s, cache_dir) for s in ctx["specs"]}
    return texts, root and root["id"]


def _cache_size(cache_dir):
    files = [os.path.join(cache_dir, f) for f in os.listdir(cache_dir)]
    return len(files), sum(os.path.getsize(f) for f in files)


def run_round(ctx, index):
    """Cold pass, warm passes and checks of one round; returns its record."""
    from checks import check_round

    specs = ctx["specs"]
    cache_dir = os.path.join(ctx["workdir"], f"cache-{index}")
    os.makedirs(cache_dir)

    start = time.perf_counter()
    cold, cold_root = _pass(ctx, cache_dir, "cold")
    cold_s = time.perf_counter() - start
    entries, size = _cache_size(cache_dir)

    bursts, warm_roots, warm = [], [], None
    for burst in range(WARM_BURSTS):
        if burst:
            ctx["between_bursts"]()
        times = []
        while len(times) < 2 or sum(times) < WARM_BURST_S:
            start = time.perf_counter()
            texts, root = _pass(ctx, cache_dir, "warm")
            times.append(time.perf_counter() - start)
            warm_roots.append(root)
            if warm is None:
                warm = texts
            elif texts != warm:  # passes that disagree fail the cells they differ in
                warm = {k: (v if texts[k] == v else "") for k, v in warm.items()}
        bursts.append(statistics.fmean(times))

    tensors = {}
    for molecule, variant, _ in specs:
        if cold[(molecule, variant)] is not None:
            tensors[(molecule, variant)] = ctx["pipeline"].prepare(
                ctx["staged"][molecule],
                seed=ctx["pipeline_seed"],
                cache_dir=cache_dir,
                **_variant(variant),
            ).tensors
    methods = {s[:2]: s[2] for s in specs}
    failed = check_round(ctx["reference"], methods, cold, warm, tensors)
    shutil.rmtree(cache_dir)

    heuristic = sum(
        doc["lambda"]
        for (mol, variant), text in cold.items()
        if text is not None
        for m, doc in json.loads(text)["reports"][0]["methods"].items()
        if ctx["reference"].one_sided(variant, m)
    )
    return {
        "cold_s": cold_s,
        "warm_bursts": bursts,
        "heuristic_lambda_sum": heuristic,
        "attempted": sum(len(s[2]) for s in specs),
        "failed": failed,
        "cache_entries": entries,
        "cache_bytes": size,
        "cold_root": cold_root,
        "warm_roots": warm_roots,
    }


def layer_metrics(tracer, rounds):
    """Median over rounds of each per-layer metric of the cold pass."""
    from spans import below_roots, compute_calls, pass_metrics, self_seconds

    below = below_roots(tracer.spans)
    own = self_seconds(tracer.spans)
    per_round = []
    for r in rounds:
        m = pass_metrics(tracer.spans, below[r["cold_root"]], own)
        m["pipeline.cache_entries"] = r["cache_entries"]
        m["pipeline.cache_bytes"] = r["cache_bytes"]
        m["pipeline.warm_layer_calls"] = max(
            compute_calls(tracer.spans, below[w]) for w in r["warm_roots"]
        )
        m["trace.cold_s"] = r["cold_s"]
        per_round.append(m)
    return {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}


def _units():
    """{metric name: unit} as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _excused(cell, reasons):
    """A known cell that failed only the reference table."""
    return cell in KNOWN_FAILURES and all(kind == "reference" for kind, _ in reasons)


def measure(args, workdir):
    setup_samples = []

    def between_bursts():
        if not args.trace:
            probe_dir = os.path.join(workdir, f"probe-{len(setup_samples)}")
            setup_samples.append(probe_setup(args.workload, probe_dir))
            shutil.rmtree(probe_dir)

    staged = setup(args.workload, workdir)
    from checks import Reference
    from lcunorm import pipeline

    specs = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ctx = {
        "pipeline": pipeline,
        "staged": staged,
        "specs": specs,
        "tracer": tracer,
        "workdir": workdir,
        "pipeline_seed": args.pipeline_seed,
        "reference": Reference(ROOT),
        "between_bursts": between_bursts,
    }
    rounds = []
    start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            rounds.append(run_round(ctx, len(rounds)))
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.remove()

    failed = [(cell, why) for r in rounds for cell, why in sorted(r["failed"].items())]
    for cell, reasons in failed:
        for kind, why in reasons:
            print(f"failed: {'/'.join(cell)}: {kind}: {why}", file=sys.stderr)
    result = {
        "correct": all(_excused(cell, reasons) for cell, reasons in failed),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": len(failed),
    }
    if args.trace:
        values = layer_metrics(tracer, rounds)
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "cold_s": statistics.median(r["cold_s"] for r in rounds),
            "warm_s": statistics.median(b for r in rounds for b in r["warm_bursts"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "heuristic_lambda_sum": statistics.median(
                r["heuristic_lambda_sum"] for r in rounds
            ),
        }
    units = _units()
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result["rounds"] = len(rounds)
    return result, tracer


def _write_outputs(args, result, tracer):
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{int(args.trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    if tracer is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(tracer.spans, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded only: the inputs are the fixed fixture files")
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pipeline-seed", type=int, default=0,
                    help="seed the pipeline's searches run with")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    missing = [
        p for p in ("src/lcunorm/pipeline.py", "tests/test_acceptance.py", "BENCHMARK.json")
        if not os.path.exists(os.path.join(ROOT, p))
    ]
    if missing:
        print(f"error: run from a checkout of the repository; missing {missing}",
              file=sys.stderr)
        return 2

    if args.probe_setup:
        start = time.perf_counter()
        setup(args.workload, args.workdir)
        print(time.perf_counter() - start)
        return 0

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result, tracer = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _write_outputs(args, result, tracer)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
