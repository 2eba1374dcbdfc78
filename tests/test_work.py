"""Work counters: the library's own counts of its searches and Lanczos runs,
against the same counts taken from outside, and tools/bench.py's record."""

import json
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from oracles import counted_by_patching, counted_de2_by_patching

from lcunorm.fragments import csa_greedy, double_factorize
from lcunorm.optimize import minimize, oo_pauli
from lcunorm.picture import split_interaction
from lcunorm.pipeline import prepare
from lcunorm.spectra import spectral_range
from lcunorm.tensors import load_fixture, to_chemist
from lcunorm.work import add, counting

ROOT = pathlib.Path(__file__).parent.parent

_SEARCHES = {"split": split_interaction, "oo": oo_pauli, "csa": csa_greedy}


def _quadratic(x):
    return float(((x - 3.0) ** 2).sum()), 2.0 * (x - 3.0)


@pytest.mark.parametrize("name", ["h2", "lih"])
def test_counting_matches_the_patched_counters(name):
    t = to_chemist(load_fixture(name))
    for layer, fn in _SEARCHES.items():
        with counting() as counts:
            fn(t)
        assert counts == counted_by_patching(fn, t)[1], layer
    with counting() as counts:
        spectral_range(t)
    assert counts == counted_de2_by_patching(t)


def test_calls_outside_a_block_record_nothing():
    with counting() as counts:
        pass
    minimize(_quadratic, np.zeros(2))
    spectral_range(to_chemist(load_fixture("h2")))
    add(bfgs_runs=1)
    assert counts == {}


def test_a_block_left_by_an_exception_does_not_stay_open():
    with pytest.raises(RuntimeError):
        with counting() as left:
            raise RuntimeError
    with counting() as counts:
        minimize(_quadratic, np.zeros(2))
    assert left == {}
    assert counts["bfgs_runs"] == 1


def test_nested_blocks_each_count_what_runs_inside_them():
    with counting() as outer:
        minimize(_quadratic, np.zeros(2))
        with counting() as inner:
            minimize(_quadratic, np.ones(2))
    assert inner["bfgs_runs"] == 1
    assert outer["bfgs_runs"] == 2
    assert outer["cost_evals"] > inner["cost_evals"] > 0


def test_a_block_counts_only_its_own_thread():
    with counting() as counts:
        worker = threading.Thread(target=minimize, args=(_quadratic, np.zeros(2)))
        worker.start()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert counts == {}


def test_bench_tool_counts_h2():
    # in a fresh interpreter: the tool pins one BLAS thread and puts its own
    # src on sys.path when it is imported
    code = (
        "import json, sys; sys.path.insert(0, 'tools'); import bench; "
        "print(json.dumps(bench.layer_rows(['h2'], repeats=1)))"
    )
    env = {k: v for k, v in os.environ.items() if k != "LCUNORM_CACHE_DIR"}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    rows = {layer: r["h2"] for layer, r in json.loads(out.stdout).items()}
    for row in rows.values():
        assert row.pop("seconds") >= 0.0
    t = to_chemist(load_fixture("h2"))
    residual = prepare("h2", picture="interaction").tensors
    expected = {layer: counted_by_patching(fn, t)[1] for layer, fn in _SEARCHES.items()}
    expected["csa"]["fragments"] = len(csa_greedy(t))
    expected["csa-residual"] = counted_by_patching(csa_greedy, residual)[1]
    expected["csa-residual"]["fragments"] = len(csa_greedy(residual))
    expected["df"] = {"fragments": len(double_factorize(t))}
    expected["de2"] = counted_de2_by_patching(t)
    assert rows == expected


def test_bench_tool_keeps_a_labels_fastest_seconds(tmp_path):
    # runs under one label keep each row's fastest seconds and count the runs;
    # a run whose counters differ from the label's exits and stores nothing
    code = (
        "import sys; sys.path.insert(0, 'tools'); import bench\n"
        "runs = iter([0.5, 0.7, 0.2])\n"
        "bench.layer_rows = lambda: {'csa': {'h2': {'cost_evals': 9, 'seconds': next(runs)}}}\n"
        "for _ in range(3):\n"
        "    bench.main(['--label', 'x', '--out', sys.argv[1]])\n"
        "bench.layer_rows = lambda: {'csa': {'h2': {'cost_evals': 8, 'seconds': 0.1}}}\n"
        "bench.main(['--label', 'x', '--out', sys.argv[1]])\n"
    )
    record = tmp_path / "BENCH.json"
    out = subprocess.run(
        [sys.executable, "-c", code, str(record)], cwd=ROOT, capture_output=True, text=True,
        timeout=300,
    )
    assert out.returncode != 0 and "counters differ" in out.stderr
    entry = json.loads(record.read_text())["x"]
    assert entry["runs"] == 3
    assert entry["csa"] == {"h2": {"cost_evals": 9, "seconds": 0.2}}
