"""Pipeline and CLI tests: determinism, caching, formats, exit codes."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from conftest import _VARIANTS
from oracles import csa_fit_tolerance

from lcunorm.cli import main
from lcunorm.pipeline import METHOD_ORDER, emit_table, prepare, run_pipeline
from lcunorm.tensors import fixture_path

FAST = ["de2", "pauli", "ac", "df"]


def test_method_order_is_canonical():
    r = run_pipeline("h2", methods=["ac", "pauli", "de2"])
    assert list(r.methods) == ["de2", "pauli", "ac"]


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        run_pipeline("h2", methods=["pauli", "bogus"])


def test_missing_input_rejected():
    with pytest.raises(FileNotFoundError):
        run_pipeline("/nowhere/x.fcidump")


def test_shift_with_interaction_rejected():
    with pytest.raises(ValueError):
        run_pipeline("h2", shift=True, picture="interaction")


def test_path_input_matches_fixture_name(tmp_path):
    r_name = run_pipeline("h2", methods=FAST)
    r_path = run_pipeline(str(fixture_path("h2")), methods=FAST)
    assert r_name.methods == r_path.methods
    assert r_path.molecule == "h2"


def _files(d):
    return {p.name: p.read_bytes() for p in Path(d).iterdir()}


# (molecule, variant, methods, seed); methods None is the session's full report
DETERMINISM = [("h2", "raw", FAST, 3)] + [
    (m, v, None, 0) for m in ("h2", "lih") for v in _VARIANTS
]


@pytest.mark.parametrize(
    "molecule, variant, methods, seed",
    DETERMINISM,
    ids=["h2-fast-seed3"] + [f"{m}-{v}" for m, v, _, _ in DETERMINISM[1:]],
)
def test_json_reports_are_byte_identical(runner, tmp_path, molecule, variant, methods, seed):
    # a second cold run into a fresh directory reproduces the first run's
    # canonical JSON and its cache files (same names, same bytes); explicit
    # directories, since a call without one reads $LCUNORM_CACHE_DIR
    def cold(d):
        kwargs = _VARIANTS[variant]
        return run_pipeline(molecule, methods, seed=seed, cache_dir=d, **kwargs)

    if methods is None:
        first, first_dir = runner.report(molecule, variant), runner.cache_dir
    else:
        first_dir = str(tmp_path / "first")
        first = cold(first_dir)
    second = cold(str(tmp_path / "second"))
    a, b = emit_table([first], fmt="json"), emit_table([second], fmt="json")
    assert a == b
    doc = json.loads(a)
    assert doc["reports"][0]["molecule"] == molecule
    assert doc["reports"][0]["config"]["seed"] == seed
    written = _files(str(tmp_path / "second"))
    # an entry per method, plus the OO angles and the CSA fragments of a
    # full report and the split of a residual one
    extra = (2 if methods is None else 0) + (variant == "residual")
    assert len(written) == len(first.methods) + extra
    stored = _files(first_dir)
    assert {f: stored.get(f) for f in written} == written


@pytest.mark.parametrize("picture, max_iters", [("schrodinger", 2000), ("interaction", 2000)])
def test_config_block_is_pinned(picture, max_iters):
    # the block echoes constants of the code, whose digest is in every cache
    # key; both pictures run their searches with the one iteration cap
    report = run_pipeline("h2", methods=["pauli"], picture=picture)
    config = json.loads(emit_table([report], fmt="json"))["reports"][0]["config"]
    assert config == {
        "seed": 0,
        "csa_tol": 1e-6,
        "df_tol": 1e-12,
        "count_cutoff": 1e-6,
        "tol_grad": 1e-8,
        "max_iters": max_iters,
        "restarts": 2,
    }


def test_searches_pass_their_tolerance_positionally(runner, tmp_path, monkeypatch):
    # perfbench's tracer wraps lcunorm.optimize.minimize as (f, x0, cfg=None,
    # jac=False) and forwards its third argument positionally: a tolerance
    # passed by keyword fails there, and one left out reaches minimize as None
    import lcunorm.optimize as opt

    inner, seen = opt.minimize, []

    def forwarder(f, x0, cfg=None, jac=False):
        seen.append(cfg)
        return inner(f, x0, cfg, jac)

    monkeypatch.setattr(opt, "minimize", forwarder)
    wrapped = run_pipeline("h2", picture="interaction", cache_dir=str(tmp_path))
    # the split, the orbital search and greedy CSA (one fit of the residual)
    # all went through it
    tbt = prepare("h2", picture="interaction").tensors.tbt
    csa_tol = csa_fit_tolerance(float(np.sqrt((tbt * tbt).sum())))
    assert None not in seen and set(seen) == {opt.TOL_GRAD, csa_tol}
    plain = runner.report("h2", "residual")
    assert emit_table([wrapped], fmt="json") == emit_table([plain], fmt="json")


def test_every_entry_meets_spectral_floor():
    r = run_pipeline("h2")
    floor = r.methods["de2"]["lambda"] - 1e-9
    for entry in r.methods.values():
        assert entry["lambda"] >= floor


def test_counting_conventions_on_h2():
    r = run_pipeline("h2")
    m = {k: e["unitary_count"] for k, e in r.methods.items()}
    assert m["de2"] == 2
    assert m["pauli"] == 14
    assert m["ac"] == 10
    assert m["df"] == 4  # three kept squares plus the one-body block
    assert m["gcsa-sr"] == 2 * 2 + 1
    assert r.methods["pauli"]["log2_ceil"] == 4


def test_cache_round_trip(tmp_path):
    d = str(tmp_path / "cache")
    r1 = run_pipeline("h2", methods=FAST, cache_dir=d)
    files = sorted(os.listdir(d))
    assert files
    # poison one cached lambda; a warm run must return the poisoned value,
    # proving it was served from disk rather than recomputed
    target = None
    for f in files:
        doc = json.load(open(os.path.join(d, f)))
        if isinstance(doc, dict) and abs(doc.get("lambda", 0) - r1.methods["pauli"]["lambda"]) < 1e-12:
            doc["lambda"] = 123.0
            json.dump(doc, open(os.path.join(d, f), "w"))
            target = f
            break
    assert target is not None
    r2 = run_pipeline("h2", methods=FAST, cache_dir=d)
    assert r2.methods["pauli"]["lambda"] == 123.0


def test_interleaved_cache_writers_both_store(tmp_path, monkeypatch):
    # a second writer of the same key stores its entry while the first is
    # still writing; the first then stores its own over it
    import lcunorm.pipeline as pl

    cache = pl._Cache(str(tmp_path), pl.prepare("h2").tensors, 0)
    dumps, writers = json.dumps, []

    def interleaved(doc, **kwargs):
        writers.append(doc)
        if len(writers) == 1:
            assert cache.fetch("x", lambda: {"v": 2}) == {"v": 2}
        return dumps(doc, **kwargs)

    monkeypatch.setattr(json, "dumps", interleaved)
    assert cache.fetch("x", lambda: {"v": 1}) == {"v": 1}
    assert writers == [{"v": 1}, {"v": 2}]
    assert os.listdir(tmp_path) == [cache.key("x") + ".json"]
    assert json.loads((tmp_path / (cache.key("x") + ".json")).read_text()) == {"v": 1}


def test_cache_entries_are_sorted_compact_json(tmp_path):
    # an entry's bytes are json.dumps(doc, sort_keys=True), the C encoder's
    import lcunorm.pipeline as pl

    doc = {"b": [1.5, {"z": None, "a": 0.1}], "a": -2, "é": "x"}
    cache = pl._Cache(str(tmp_path / "one"), pl.prepare("h2").tensors, 0)
    assert cache.fetch("x", lambda: doc) == doc
    stored = tmp_path / "one" / (cache.key("x") + ".json")
    assert stored.read_bytes() == json.dumps(doc, sort_keys=True).encode()
    # and so is every entry of a full report, the fragment entry included
    d = tmp_path / "all"
    run_pipeline("h2", picture="interaction", cache_dir=str(d))
    names = os.listdir(d)
    assert any(name.endswith("-gcsa-frags.json") for name in names)
    for name in names:
        text = (d / name).read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True)


def test_cache_dir_from_environment(tmp_path, monkeypatch):
    d = str(tmp_path / "envcache")
    monkeypatch.setenv("LCUNORM_CACHE_DIR", d)
    run_pipeline("h2", methods=["pauli"])
    assert os.listdir(d)


def test_emit_table_formats():
    reports = [run_pipeline("h2", methods=FAST)]
    text = emit_table(reports, fmt="text")
    assert "dE/2" in text and "h2" in text
    md = emit_table(reports, fmt="markdown")
    assert md.startswith("| molecule |") and "| --- |" in md
    with pytest.raises(ValueError):
        emit_table(reports, fmt="html")
    with pytest.raises(ValueError):
        emit_table([], fmt="text")


def test_columns_follow_method_order():
    reports = [run_pipeline("h2", methods=["df", "pauli", "de2"])]
    header = emit_table(reports, fmt="text").splitlines()[0]
    assert header.index("dE/2") < header.index("Pauli") < header.index("DF")


def test_cli_success(capsys):
    assert main(["h2", "--methods", "de2,pauli"]) == 0
    out = capsys.readouterr().out
    assert "h2" in out and "0.815" in out


def test_cli_writes_json_file(tmp_path):
    out = tmp_path / "r.json"
    code = main(["h2", "--methods", "pauli", "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert "pauli" in doc["reports"][0]["methods"]


def test_cli_usage_errors(capsys, tmp_path):
    assert main(["h2", "--methods", "bogus"]) == 2
    assert main(["/nowhere/x.fcidump"]) == 2
    assert main(["h2", "--shift", "--picture", "interaction"]) == 2
    assert main([str(tmp_path)]) == 2
    assert main(["h2", "--methods", "pauli", "--out", str(tmp_path / "missing" / "r.txt")]) == 2
    # a NaN integral is an input error, not a 1-norm of nan
    lines = fixture_path("h2").read_text().splitlines()
    lines[-2] = " ".join(["nan", *lines[-2].split()[1:]])  # a one-body integral
    (tmp_path / "nan.fcidump").write_text("\n".join(lines) + "\n")
    assert main([str(tmp_path / "nan.fcidump"), "--methods", "pauli"]) == 2
    err = capsys.readouterr().err
    assert err.count("lcunorm: error:") == 6


def test_cli_numerical_failure_exit(tmp_path, monkeypatch):
    import lcunorm.pipeline as pl
    from lcunorm.errors import NumericalError

    def boom(*a, **k):
        raise NumericalError("forced")

    monkeypatch.setattr(pl, "spectral_range", boom)
    assert main(["h2", "--methods", "de2"]) == 3


def test_method_registry_is_complete():
    assert METHOD_ORDER == [
        "de2",
        "pauli",
        "oo-pauli",
        "ac",
        "oo-ac",
        "df",
        "gcsa-f",
        "gcsa-sr",
    ]


def _poisoned_h2_cache(d):
    """Fill d with a full H2 report and poison every cached lambda, so that a
    hit returns 123.0 and a miss recomputes; returns the report's entries."""
    first = run_pipeline("h2", cache_dir=d).methods
    for f in os.listdir(d):
        path = os.path.join(d, f)
        with open(path) as fh:
            doc = json.load(fh)
        if "lambda" in doc:
            doc["lambda"] = 123.0
            with open(path, "w") as fh:
                json.dump(doc, fh)
    return first


def test_code_digest_change_misses_every_entry(tmp_path, monkeypatch):
    import lcunorm.pipeline as pl

    d = str(tmp_path)
    first = _poisoned_h2_cache(d)
    before = set(os.listdir(d))
    # the same code hits every entry; de2 is left out, since its poisoned
    # floor would reject every other value
    warm = run_pipeline("h2", methods=METHOD_ORDER[1:], cache_dir=d).methods
    assert all(e["lambda"] == 123.0 for e in warm.values())
    assert set(os.listdir(d)) == before
    # changed code misses every entry and stores each anew
    monkeypatch.setattr(pl, "_code_digest", lambda: "0" * 12)
    assert run_pipeline("h2", cache_dir=d).methods == first
    after = set(os.listdir(d))
    assert after > before and len(after - before) == len(before)


def test_another_seed_misses_every_entry(tmp_path):
    # an entry's key is the tensors, the seed, the method and the code digest
    import lcunorm.pipeline as pl

    d = str(tmp_path)
    t = pl.prepare("h2").tensors
    assert pl._Cache(d, t, 3).key("ac") == f"{pl._tensor_key(t)}-3-{pl._code_digest()}-ac"
    run_pipeline("h2", methods=FAST, cache_dir=d)
    before = set(os.listdir(d))
    run_pipeline("h2", methods=FAST, seed=3, cache_dir=d)
    after = set(os.listdir(d))
    assert after > before and len(after - before) == len(before)


def test_benchmark_tracer_records_every_layer(tmp_path, monkeypatch):
    # perfbench/spans.py records a layer by replacing its function in
    # lcunorm.pipeline's namespace; a layer function bound at import time
    # would silently drop out of the per-layer metrics
    import lcunorm.pipeline as pl

    here = os.path.dirname(os.path.abspath(__file__))
    monkeypatch.syspath_prepend(os.path.join(here, os.pardir, "perfbench"))
    import spans

    source, d = str(fixture_path("h2")), str(tmp_path)
    variants = [{}, {"shift": True}, {"picture": "interaction"}]
    tracer = spans.Tracer()
    tracer.install()
    try:
        roots = []
        for name in ("cold", "warm"):
            with tracer.root(name) as root:
                for kwargs in variants:
                    report = pl.run_pipeline(source, cache_dir=d, **kwargs)
                    pl.emit_table([report], fmt="json")
            roots.append(root["id"])
    finally:
        tracer.remove()
    below = spans.below_roots(tracer.spans)
    cold = {tracer.spans[i]["name"] for i in below[roots[0]]}
    assert set(spans.LAYERS) - cold == set()
    assert spans.compute_calls(tracer.spans, below[roots[1]]) == 0


def test_benchmark_checker_reads_the_session_reports(runner, monkeypatch):
    # perfbench/checks.py reads the acceptance table through test_acceptance
    # and the reports through emit_table and prepare; a renamed name or a
    # changed output would break the benchmark's correctness check
    here = os.path.dirname(os.path.abspath(__file__))
    monkeypatch.syspath_prepend(os.path.join(here, os.pardir, "perfbench"))
    import checks

    reference = checks.Reference(os.path.join(here, os.pardir))
    keys = [("h2", variant) for variant in ("raw", "shifted", "residual")]
    reports = {key: runner.report(*key) for key in keys}
    methods = {key: list(r.methods) for key, r in reports.items()}
    cold = {key: emit_table([r], fmt="json") for key, r in reports.items()}
    tensors = {key: runner.prepared(*key).tensors for key in keys}
    assert checks.check_round(reference, methods, cold, cold, tensors) == {}

    doc = json.loads(cold[("h2", "raw")])
    doc["reports"][0]["methods"]["pauli"]["lambda"] *= 0.9
    lowered = {**cold, ("h2", "raw"): json.dumps(doc)}
    failed = checks.check_round(reference, methods, lowered, lowered, tensors)
    assert ("h2", "raw", "pauli") in failed


_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh_python(code, *args):
    """Run `code` in a new interpreter that imports lcunorm from this tree."""
    env = {k: v for k, v in os.environ.items() if k != "LCUNORM_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr


def test_scipy_loads_only_where_it_is_used(tmp_path):
    # The package, the CLI, cold Schrodinger-picture Pauli/AC/DF and a warm
    # residual report need numpy alone; dE/2 (like the searches, the CSA start
    # and an uncached split) loads scipy on first use.
    warm, cold = str(tmp_path / "warm"), str(tmp_path / "cold")
    _fresh_python(
        """
        import sys
        from lcunorm.pipeline import run_pipeline
        run_pipeline("h2", picture="interaction", cache_dir=sys.argv[1])
        """,
        warm,
    )
    _fresh_python(
        """
        import sys
        import lcunorm, lcunorm.cli
        from lcunorm.pipeline import run_pipeline

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        warm, cold = sys.argv[1:]
        run_pipeline("h2", methods=["pauli", "ac", "df"], shift=True, cache_dir=cold)
        run_pipeline("h2", picture="interaction", cache_dir=warm)
        assert not scipy_modules(), scipy_modules()[:5]
        run_pipeline("h2", methods=["de2"], cache_dir=cold)
        assert "scipy" in scipy_modules()
        """,
        warm,
        cold,
    )
