"""End-to-end 1-norm pipeline: load tensors, run methods, emit reports.

One report holds every requested method's 1-norm plus its unitary count
under the counting conventions below.  Reports are deterministic for a
given seed and serialize to canonical JSON, so repeated runs are
byte-identical and expensive decompositions can be disk-cached keyed by
(input tensors, method, configuration).

Counting conventions (M, reported alongside ceil(log2 M)): Pauli and
OO-Pauli count non-identity terms above the cutoff; AC and OO-AC count
groups; DF counts kept fragments plus one one-body block; GCSA-F counts
reflection-pair products above the cutoff plus 2N one-body reflections;
GCSA-SR counts two unitaries per fragment plus one; de2 is the
two-reflection decomposition.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .fragments import (
    CsaFragment,
    csa_greedy,
    double_factorize,
    fragment_lambda_matrix,
    lambda_complete_square,
    lambda_fermionic,
    lambda_sqrt_fragment,
    make_rotation,
    reflection_term_count,
    rotate_tensors,
)
from .grouping import sorted_insertion
from .optimize import OptimizerConfig, oo_ac, oo_pauli
from .pauli import jordan_wigner, lambda_pauli_closed_form
from .picture import PictureSplit, split_interaction
from .spectra import spectral_range
from .symshift import optimize_shift
from .tensors import (
    FIXTURE_NAMES,
    SpatialTensors,
    load_fcidump,
    load_fixture,
    one_body_adjust,
    to_chemist,
)

__all__ = [
    "NormReport",
    "Prepared",
    "prepare",
    "run_pipeline",
    "emit_table",
    "METHOD_ORDER",
]

METHOD_ORDER = ["de2", "pauli", "oo-pauli", "ac", "oo-ac", "df", "gcsa-f", "gcsa-sr"]
_LABELS = {
    "de2": "dE/2",
    "pauli": "Pauli",
    "oo-pauli": "OO-Pauli",
    "ac": "AC",
    "oo-ac": "OO-AC",
    "df": "DF",
    "gcsa-f": "GCSA-F",
    "gcsa-sr": "GCSA-SR",
}

# Revision of the algorithm behind each cache entry.  Bump an entry when the
# code that computes it changes, together with every entry read from it, so
# that results of the older code miss; revision 1 keeps the original key.
_REVISIONS = {"oo-theta": 2, "oo-pauli": 2, "oo-ac": 2, "de2": 2}

# Pseudo-Huber widths searched from every orbital-optimization start: the
# plain exact search plus a smoothed candidate (see oo_pauli).
_OO_WIDTHS = (0.0, 1e-2)


@dataclass
class NormReport:
    molecule: str
    picture: str
    shift_applied: bool
    s1: float
    s2: float
    methods: dict
    version: str
    config: dict

    def to_dict(self):
        return {
            "molecule": self.molecule,
            "picture": self.picture,
            "shift_applied": self.shift_applied,
            "s1": self.s1,
            "s2": self.s2,
            "methods": self.methods,
            "version": self.version,
            "config": self.config,
        }


def _log2_ceil(m):
    return int(math.ceil(math.log2(m))) if m >= 2 else 0


def _entry(value, count):
    return {
        "lambda": float(value),
        "unitary_count": int(count),
        "log2_ceil": _log2_ceil(int(count)),
    }


def _tensor_key(t):
    h = hashlib.sha256()
    h.update(np.float64(t.e0).tobytes())
    h.update(np.ascontiguousarray(t.obt).tobytes())
    h.update(np.ascontiguousarray(t.tbt).tobytes())
    return h.hexdigest()[:24]


class _Cache:
    def __init__(self, directory):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)

    def _path(self, key):
        return os.path.join(self.directory, key + ".json")

    def get(self, key):
        if not self.directory:
            return None
        try:
            with open(self._path(key)) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def put(self, key, doc):
        if not self.directory:
            return
        tmp = self._path(key) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        os.replace(tmp, self._path(key))


class _MethodEngine:
    """Computes method entries for one tensor set with shared intermediates."""

    def __init__(self, t, seed, csa_tol, df_tol, count_cutoff, cfg, cache, base_key):
        self.t = t
        self.seed = seed
        self.csa_tol = csa_tol
        self.df_tol = df_tol
        self.cutoff = count_cutoff
        self.cfg = cfg
        self.cache = cache
        self.base_key = base_key
        self._memo = {}

    def _key(self, name):
        key = f"{self.base_key}-{name}"
        revision = _REVISIONS.get(name, 1)
        return key if revision == 1 else f"{key}-r{revision}"

    def _cached(self, name, compute):
        key = self._key(name)
        doc = self.cache.get(key)
        if doc is None:
            doc = compute()
            self.cache.put(key, doc)
        return doc

    def _jw(self, t):
        return jordan_wigner(t)

    def _poly(self):
        if "poly" not in self._memo:
            self._memo["poly"] = self._jw(self.t)
        return self._memo["poly"]

    def _pauli_count(self, poly):
        return sum(1 for _, c in poly.raw_items() if abs(c) > self.cutoff) - (
            1 if abs(poly.identity_coefficient) > self.cutoff else 0
        )

    def _oo_theta(self):
        if "oo" not in self._memo:
            doc = self._cached(
                "oo-theta",
                lambda: {
                    "theta": list(oo_pauli(self.t, self.cfg, smooth=_OO_WIDTHS)[0])
                },
            )
            self._memo["oo"] = np.asarray(doc["theta"])
        return self._memo["oo"]

    def _oo_frame(self):
        """The tensors rotated to the optimized orbitals, and their JW polynomial."""
        if "oo-frame" not in self._memo:
            rotated = rotate_tensors(make_rotation(self._oo_theta()), self.t)
            self._memo["oo-frame"] = (rotated, self._jw(rotated))
        return self._memo["oo-frame"]

    def _gcsa(self):
        if "gcsa" not in self._memo:
            from .fragments import fragments_from_json, fragments_to_json

            doc = self._cached(
                "gcsa-frags",
                lambda: {
                    "frags": fragments_to_json(
                        csa_greedy(
                            self.t, stop_tol=self.csa_tol, seed=self.seed, restarts=3
                        )
                    )
                },
            )
            self._memo["gcsa"] = fragments_from_json(doc["frags"])
        return self._memo["gcsa"]

    def _mu(self):
        return np.linalg.eigvalsh(one_body_adjust(self.t))

    def compute(self, method):
        return self._cached(method, lambda: self._compute(method))

    def _compute(self, method):
        t = self.t
        if method == "de2":
            sr = spectral_range(t)
            return _entry(sr.half_range, 2)
        if method == "pauli":
            poly = self._poly()
            return _entry(lambda_pauli_closed_form(t), self._pauli_count(poly))
        if method == "oo-pauli":
            rotated, poly = self._oo_frame()
            return _entry(lambda_pauli_closed_form(rotated), self._pauli_count(poly))
        if method == "ac":
            part = sorted_insertion(self._poly())
            count = sum(1 for g in part.groups if g.norm > self.cutoff)
            return _entry(part.one_norm(), count)
        if method == "oo-ac":
            part = sorted_insertion(self._oo_frame()[1])
            count = sum(1 for g in part.groups if g.norm > self.cutoff)
            return _entry(part.one_norm(), count)
        if method == "df":
            frags = double_factorize(t, tol=self.df_tol)
            l1 = float(np.abs(self._mu()).sum())
            costs = [lambda_complete_square(f) for f in frags]
            kept = sum(1 for c in costs if c > self.cutoff)
            return _entry(l1 + sum(costs), kept + 1)
        if method == "gcsa-f":
            frags = self._gcsa()
            l1, l2 = lambda_fermionic(self._mu(), frags)
            count = sum(
                reflection_term_count(fragment_lambda_matrix(f), self.cutoff)
                for f in frags
            ) + 2 * t.n_orb
            return _entry(l1 + l2, count)
        if method == "gcsa-sr":
            frags = self._gcsa()
            l1 = float(np.abs(self._mu()).sum())
            total = l1 + sum(lambda_sqrt_fragment(f) for f in frags)
            return _entry(total, 2 * len(frags) + 1)
        raise ValueError(f"unknown method {method!r}")


def _engine_for(
    t, seed=0, csa_tol=1e-6, df_tol=1e-12, count_cutoff=1e-6, cfg=None, cache_dir=None
):
    if cfg is None:
        cfg = OptimizerConfig(seed=seed)
    if cache_dir is None:
        cache_dir = os.environ.get("LCUNORM_CACHE_DIR")
    config = _config_echo(seed, csa_tol, df_tol, count_cutoff, cfg)
    base_key = _tensor_key(t) + "-" + hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()[:12]
    engine = _MethodEngine(
        t, seed, csa_tol, df_tol, count_cutoff, cfg, _Cache(cache_dir), base_key
    )
    return engine, config


def _normalize_methods(methods):
    if methods is None:
        return list(METHOD_ORDER)
    bad = [m for m in methods if m not in METHOD_ORDER]
    if bad:
        raise ValueError(f"unknown method(s): {', '.join(sorted(bad))}")
    return [m for m in METHOD_ORDER if m in set(methods)]


def _resolve_source(source):
    if isinstance(source, SpatialTensors):
        return "tensors", source
    name = str(source)
    if os.path.exists(name):
        stem = os.path.splitext(os.path.basename(name))[0]
        return stem, to_chemist(load_fcidump(name))
    if name in FIXTURE_NAMES:
        return name, to_chemist(load_fixture(name))
    raise FileNotFoundError(f"no such file or fixture: {name}")


def _config_echo(seed, csa_tol, df_tol, count_cutoff, cfg):
    echo = {
        "seed": seed,
        "csa_tol": csa_tol,
        "df_tol": df_tol,
        "count_cutoff": count_cutoff,
        "tol_grad": cfg.tol_grad,
        "max_iters": cfg.max_iters,
        "restarts": cfg.restarts,
    }
    if cfg.fd_step is not None:  # echoed only when set, so default keys stay put
        echo["fd_step"] = cfg.fd_step
    return echo


def report_for_tensors(
    t,
    molecule,
    picture,
    methods=None,
    shift_applied=False,
    s1=0.0,
    s2=0.0,
    seed=0,
    csa_tol=1e-6,
    df_tol=1e-12,
    count_cutoff=1e-6,
    cfg=None,
    cache_dir=None,
):
    """Build a NormReport for tensors that are already shifted/split."""
    from . import __version__

    methods = _normalize_methods(methods)
    engine, config = _engine_for(
        t, seed, csa_tol, df_tol, count_cutoff, cfg, cache_dir
    )
    entries = {m: engine.compute(m) for m in methods}
    if "de2" in entries:
        floor = entries["de2"]["lambda"] - 1e-9
        for m, e in entries.items():
            if e["lambda"] < floor:
                raise NumericalError(
                    f"method {m} reported 1-norm {e['lambda']:.12g} below the "
                    f"spectral lower bound {floor + 1e-9:.12g}"
                )
    return NormReport(
        molecule=molecule,
        picture=picture,
        shift_applied=shift_applied,
        s1=s1,
        s2=s2,
        methods=entries,
        version=__version__,
        config=config,
    )


def _cached_split(t, seed, csa_tol, df_tol, count_cutoff, cfg, cache_dir):
    """Mean-field split of the tensors, disk-cached on the pre-split tensors."""
    engine, _ = _engine_for(t, seed, csa_tol, df_tol, count_cutoff, cfg, cache_dir)

    def compute():
        split = split_interaction(t, cfg)
        return {
            "theta": list(split.h0.rotation.theta),
            "mu": list(split.h0.mu),
            "lam": [list(row) for row in split.h0.lam],
        }

    doc = engine._cached("split", compute)
    h0 = CsaFragment(
        make_rotation(np.asarray(doc["theta"])),
        np.asarray(doc["lam"]),
        mu=np.asarray(doc["mu"]),
    )
    return PictureSplit.of(t, h0)


@dataclass
class Prepared:
    """What a pipeline run decomposes: the tensors after the requested shift
    or mean-field split, the shift coefficients, the split itself (interaction
    picture only) and the optimizer configuration the methods run with."""

    molecule: str
    tensors: SpatialTensors
    s1: float
    s2: float
    split: PictureSplit | None
    cfg: OptimizerConfig | None


def prepare(
    source,
    shift=False,
    picture="schrodinger",
    seed=0,
    csa_tol=1e-6,
    df_tol=1e-12,
    count_cutoff=1e-6,
    cfg=None,
    cache_dir=None,
):
    """Load the source and apply the symmetry shift or the mean-field split."""
    if picture not in ("schrodinger", "interaction"):
        raise ValueError(f"unknown picture {picture!r}")
    if picture == "interaction" and shift:
        raise ValueError("the interaction picture does not take a symmetry shift")
    molecule, t = _resolve_source(source)
    s1 = s2 = 0.0
    split = None
    if shift:
        shift_obj, t = optimize_shift(t)
        s1, s2 = shift_obj.s1, shift_obj.s2
    if picture == "interaction":
        if cfg is None:
            cfg = OptimizerConfig(tol_grad=1e-8, max_iters=2000, seed=seed)
        split = _cached_split(t, seed, csa_tol, df_tol, count_cutoff, cfg, cache_dir)
        t = split.residual
    return Prepared(molecule, t, s1, s2, split, cfg)


def run_pipeline(
    source,
    methods=None,
    shift=False,
    picture="schrodinger",
    seed=0,
    csa_tol=1e-6,
    df_tol=1e-12,
    count_cutoff=1e-6,
    cfg=None,
    cache_dir=None,
):
    """Full pipeline from an FCIDUMP path, fixture name, or tensors."""
    p = prepare(
        source, shift, picture, seed, csa_tol, df_tol, count_cutoff, cfg, cache_dir
    )
    return report_for_tensors(
        p.tensors,
        molecule=p.molecule,
        picture=picture,
        methods=methods,
        shift_applied=shift,
        s1=p.s1,
        s2=p.s2,
        seed=seed,
        csa_tol=csa_tol,
        df_tol=df_tol,
        count_cutoff=count_cutoff,
        cfg=p.cfg,
        cache_dir=cache_dir,
    )


def _fmt(value):
    return f"{value:.3g}"


def emit_table(reports, fmt="text"):
    """Render reports as canonical JSON, aligned text, or markdown."""
    if not reports:
        raise ValueError("no reports to emit")
    if fmt == "json":
        doc = {"reports": [r.to_dict() for r in reports]}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    methods = [m for m in METHOD_ORDER if any(m in r.methods for r in reports)]
    header = ["molecule", "shift", "picture"] + [_LABELS[m] for m in methods]
    rows = []
    for r in reports:
        row = [r.molecule, "yes" if r.shift_applied else "no", r.picture]
        for m in methods:
            if m in r.methods:
                e = r.methods[m]
                row.append(f"{_fmt(e['lambda'])} ({e['log2_ceil']})")
            else:
                row.append("-")
        rows.append(row)
    if fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "|".join(" --- " for _ in header) + "|")
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"
    if fmt == "text":
        widths = [
            max(len(header[i]), *(len(row[i]) for row in rows))
            for i in range(len(header))
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(line.rstrip() for line in lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
