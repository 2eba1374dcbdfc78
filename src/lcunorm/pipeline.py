"""End-to-end 1-norm pipeline: load tensors, run methods, emit reports.

One report holds every requested method's 1-norm plus its unitary count
under the counting conventions below.  Reports are deterministic for a
given seed and serialize to canonical JSON, so repeated runs are
byte-identical and expensive decompositions can be disk-cached keyed by
(input tensors, seed, method, code).

Counting conventions (M, reported alongside ceil(log2 M)): Pauli and
OO-Pauli count non-identity terms above the cutoff; AC and OO-AC count
groups; DF counts kept fragments plus one one-body block; GCSA-F counts
reflection-pair products above the cutoff plus 2N one-body reflections;
GCSA-SR counts two unitaries per fragment plus one; de2 is the
two-reflection decomposition.

Every report uses the paper's fixed conventions: CSA stops at residual
CSA_TOL, DF truncates at DF_TOL and counts drop terms at COUNT_CUTOFF.  The
only settings that change a result are the seed, the symmetry shift and the
picture.  `run_pipeline` is the one path into a report: `prepare` loads the
source and applies the shift or the split, and the method engine computes
the entries.
"""

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from functools import cache, cached_property, partial
from pathlib import Path

import numpy as np

from .errors import NumericalError
from .fragments import (
    CSA_TOL,
    DF_TOL,
    csa_greedy,
    double_factorize,
    fragments_from_json,
    fragments_to_json,
    lambda_complete_square,
    lambda_fermionic,
    lambda_sqrt_fragment,
    make_rotation,
    reflection_term_count,
    rotate_tensors,
)
from .grouping import sorted_insertion
from .optimize import MAX_ITERS, RESTARTS, TOL_GRAD, oo_pauli
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


# The paper's threshold below which a term, group or fragment is not counted;
# its CSA stopping residual and DF truncation live next to their methods.
COUNT_CUTOFF = 1e-6


def _echo(seed):
    """The report's `config` block: the seed and the paper's fixed settings."""
    return {
        "seed": seed,
        "csa_tol": CSA_TOL,
        "df_tol": DF_TOL,
        "count_cutoff": COUNT_CUTOFF,
        "tol_grad": TOL_GRAD,
        "max_iters": MAX_ITERS,
        "restarts": RESTARTS,
    }


def _entry(value, count):
    count = int(count)
    return {
        "lambda": float(value),
        "unitary_count": count,
        "log2_ceil": int(math.ceil(math.log2(count))) if count >= 2 else 0,
    }


def _tensor_key(t):
    h = hashlib.sha256()
    h.update(np.float64(t.e0).tobytes())
    h.update(np.ascontiguousarray(t.obt).tobytes())
    h.update(np.ascontiguousarray(t.tbt).tobytes())
    return h.hexdigest()[:24]


@cache
def _code_digest():
    """Hash of the package's own sources: entries stored by other code miss."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:12]


class _Cache:
    """Disk entries of one tensor set under one seed, computed by this
    version of the package's code.

    The directory defaults to $LCUNORM_CACHE_DIR; with neither, every
    entry is computed and nothing is stored.
    """

    def __init__(self, directory, t, seed):
        if directory is None:
            directory = os.environ.get("LCUNORM_CACHE_DIR")
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)
        # the settings _echo reports besides the seed are constants of the
        # code, which its digest covers
        self.prefix = f"{_tensor_key(t)}-{seed}-{_code_digest()}"

    def key(self, name):
        return f"{self.prefix}-{name}"

    def fetch(self, name, compute):
        """The stored entry `name`, or compute() stored under its key."""
        if not self.directory:
            return compute()
        path = os.path.join(self.directory, self.key(name) + ".json")
        try:
            with open(path) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            pass
        doc = compute()
        # a temp file of its own per writer: writers of one key may interleave
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=self.key(name), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return doc


class _MethodEngine:
    """Computes the method entries of one prepared run with shared intermediates.

    The compute functions in _METHODS are methods of this class that look
    their layer functions up in this module's namespace when called, so a
    function replaced there (by a test or a tracer) is the one that runs.
    """

    def __init__(self, prepared, cache_dir=None):
        self.t = prepared.tensors
        self.seed = prepared.seed
        self.cache = _Cache(cache_dir, self.t, self.seed)
        self._frames = {}

    def entry(self, method):
        return self.cache.fetch(method, partial(_METHODS[method][1], self))

    @cached_property
    def oo_theta(self):
        """Orbital rotation angles that minimize the closed-form Pauli 1-norm."""
        doc = self.cache.fetch(
            "oo-theta",
            lambda: {"theta": list(oo_pauli(self.t, self.seed)[0])},
        )
        return np.asarray(doc["theta"])

    @cached_property
    def gcsa_fragments(self):
        doc = self.cache.fetch(
            "gcsa-frags",
            lambda: {"frags": fragments_to_json(csa_greedy(self.t, self.seed))},
        )
        return fragments_from_json(doc["frags"])

    def frame(self, optimized):
        """(tensors, JW polynomial) in the input or the OO-optimal orbitals."""
        if optimized not in self._frames:
            t = self.t
            if optimized:
                t = rotate_tensors(make_rotation(self.oo_theta), t)
            self._frames[optimized] = (t, jordan_wigner(t))
        return self._frames[optimized]

    def _mu(self):
        return np.linalg.eigvalsh(one_body_adjust(self.t))

    def _de2(self):
        return _entry(spectral_range(self.t).half_range, 2)

    def _pauli(self, optimized):
        t, poly = self.frame(optimized)
        count = np.count_nonzero((poly.keys != 0) & (np.abs(poly.coeffs) > COUNT_CUTOFF))
        return _entry(lambda_pauli_closed_form(t), count)

    def _ac(self, optimized):
        part = sorted_insertion(self.frame(optimized)[1])
        count = sum(1 for g in part.groups if g.norm > COUNT_CUTOFF)
        return _entry(part.one_norm(), count)

    def _df(self):
        frags = double_factorize(self.t)
        l1 = float(np.abs(self._mu()).sum())
        costs = [lambda_complete_square(f) for f in frags]
        kept = sum(1 for c in costs if c > COUNT_CUTOFF)
        return _entry(l1 + sum(costs), kept + 1)

    def _gcsa_f(self):
        frags = self.gcsa_fragments
        l1, l2 = lambda_fermionic(self._mu(), frags)
        count = sum(reflection_term_count(f.lam, COUNT_CUTOFF) for f in frags) + 2 * self.t.n_orb
        return _entry(l1 + l2, count)

    def _gcsa_sr(self):
        frags = self.gcsa_fragments
        l1 = float(np.abs(self._mu()).sum())
        total = l1 + sum(lambda_sqrt_fragment(f) for f in frags)
        return _entry(total, 2 * len(frags) + 1)


# method -> (column label, compute(engine) -> entry), in report and column order
_METHODS = {
    "de2": ("dE/2", _MethodEngine._de2),
    "pauli": ("Pauli", partial(_MethodEngine._pauli, optimized=False)),
    "oo-pauli": ("OO-Pauli", partial(_MethodEngine._pauli, optimized=True)),
    "ac": ("AC", partial(_MethodEngine._ac, optimized=False)),
    "oo-ac": ("OO-AC", partial(_MethodEngine._ac, optimized=True)),
    "df": ("DF", _MethodEngine._df),
    "gcsa-f": ("GCSA-F", _MethodEngine._gcsa_f),
    "gcsa-sr": ("GCSA-SR", _MethodEngine._gcsa_sr),
}
METHOD_ORDER = list(_METHODS)


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


def _cached_split(t, seed, cache_dir):
    """Mean-field split of the tensors, disk-cached on the pre-split tensors;
    the entry holds H0's frame theta, which fixes the split (PictureSplit.at)."""
    doc = _Cache(cache_dir, t, seed).fetch(
        "split", lambda: {"theta": split_interaction(t, seed).theta.tolist()}
    )
    return PictureSplit.at(t, doc["theta"])


@dataclass
class Prepared:
    """What a pipeline run decomposes: the tensors after the requested shift
    or mean-field split, the shift coefficients, the split itself (interaction
    picture only) and the seed the methods' searches run with."""

    molecule: str
    picture: str
    shift: bool
    tensors: SpatialTensors
    s1: float
    s2: float
    split: PictureSplit | None
    seed: int


def prepare(source, shift=False, picture="schrodinger", seed=0, cache_dir=None):
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
        split = _cached_split(t, seed, cache_dir)
        t = split.residual
    return Prepared(molecule, picture, shift, t, s1, s2, split, seed)


def run_pipeline(
    source, methods=None, shift=False, picture="schrodinger", seed=0, cache_dir=None
):
    """Report from an FCIDUMP path, a fixture name or SpatialTensors.

    Raises NumericalError if any method's 1-norm falls below the spectral
    floor dE/2 (when de2 is among the methods).
    """
    from . import __version__

    wanted = METHOD_ORDER if methods is None else set(methods)
    unknown = set(wanted) - _METHODS.keys()
    if unknown:
        raise ValueError(f"unknown method(s): {', '.join(sorted(unknown))}")
    p = prepare(source, shift, picture, seed, cache_dir)
    engine = _MethodEngine(p, cache_dir)
    entries = {m: engine.entry(m) for m in METHOD_ORDER if m in wanted}
    if "de2" in entries:
        floor = entries["de2"]["lambda"] - 1e-9
        for m, e in entries.items():
            if e["lambda"] < floor:
                raise NumericalError(
                    f"method {m} reported 1-norm {e['lambda']:.12g} below the "
                    f"spectral lower bound {floor + 1e-9:.12g}"
                )
    return NormReport(
        p.molecule, p.picture, p.shift, p.s1, p.s2, entries, __version__, _echo(p.seed)
    )


def emit_table(reports, fmt="text"):
    """Render reports as canonical JSON, aligned text, or markdown."""
    if not reports:
        raise ValueError("no reports to emit")
    if fmt == "json":
        # the fields as they are; asdict would deep-copy every value first
        doc = {"reports": [vars(r) for r in reports]}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    methods = [m for m in METHOD_ORDER if any(m in r.methods for r in reports)]
    header = ["molecule", "shift", "picture"] + [_METHODS[m][0] for m in methods]
    rows = []
    for r in reports:
        row = [r.molecule, "yes" if r.shift_applied else "no", r.picture]
        for m in methods:
            if m in r.methods:
                e = r.methods[m]
                row.append(f"{e['lambda']:.3g} ({e['log2_ceil']})")
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
