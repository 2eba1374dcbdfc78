"""Second-quantized Hamiltonian tensors and FCIDUMP ingestion.

The electronic Hamiltonian is kept in chemist form

    H = e0 + sum_{sigma,ij} obt[i,j] E^{i sigma}_{j sigma}
           + sum_{sigma sigma',ijkl} tbt[i,j,k,l] E^{i sigma}_{j sigma} E^{k sigma'}_{l sigma'}

with E^p_q = a^dag_p a_q and real orbitals, so obt is symmetric and tbt has
the usual 8-fold index symmetry.  All energies are in Hartree.
"""

import re
import warnings
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import NumericalError, ParseError

__all__ = [
    "SpatialTensors",
    "FcidumpRecord",
    "parse_fcidump",
    "write_fcidump",
    "load_fcidump",
    "load_fixture",
    "fixture_path",
    "to_chemist",
    "one_body_adjust",
]

FIXTURE_NAMES = ("h2", "lih", "beh2", "h2o", "nh3")


def _check_symmetric(m, what):
    scale = max(np.abs(m).max(), 1.0)
    dev = np.abs(m - m.T).max()
    if dev > 1e-12 * scale:
        raise ValueError(f"{what} not symmetric: max deviation {dev:.3e}")


def _check_eightfold(g, what):
    scale = max(np.abs(g).max(), 1.0)
    for perm, label in (
        ((1, 0, 2, 3), "i<->j"),
        ((0, 1, 3, 2), "k<->l"),
        ((2, 3, 0, 1), "ij<->kl"),
    ):
        dev = np.abs(g - g.transpose(perm)).max()
        if dev > 1e-12 * scale:
            raise ValueError(f"{what} violates {label} symmetry: max deviation {dev:.3e}")


@dataclass
class SpatialTensors:
    """Constant, one-electron matrix and two-electron tensor (chemist notation)."""

    e0: float
    obt: np.ndarray
    tbt: np.ndarray

    def __post_init__(self):
        self.obt = np.ascontiguousarray(self.obt, dtype=float)
        self.tbt = np.ascontiguousarray(self.tbt, dtype=float)
        n = self.obt.shape[0]
        if self.obt.shape != (n, n) or self.tbt.shape != (n, n, n, n):
            raise ValueError("tensor shape mismatch")
        _check_symmetric(self.obt, "obt")
        _check_eightfold(self.tbt, "tbt")

    @property
    def n_orb(self):
        return self.obt.shape[0]

    def replace(self, e0=None, obt=None, tbt=None):
        return SpatialTensors(
            self.e0 if e0 is None else e0,
            self.obt if obt is None else obt,
            self.tbt if tbt is None else tbt,
        )


@dataclass
class FcidumpRecord:
    """Raw FCIDUMP content: core Hamiltonian and (ij|kl) integrals."""

    n_orb: int
    n_elec: int
    ms2: int
    core_energy: float
    core_h: np.ndarray
    eri: np.ndarray

    def __post_init__(self):
        self.core_h = np.ascontiguousarray(self.core_h, dtype=float)
        self.eri = np.ascontiguousarray(self.eri, dtype=float)
        _check_symmetric(self.core_h, "core_h")
        _check_eightfold(self.eri, "eri")


_INTEGRAL_BYTES_LIMIT = 1 << 30  # memory the (NORB+1)^4 parse array may take

_HEADER_INT = {
    "NORB": re.compile(r"NORB\s*=\s*(\d+)", re.IGNORECASE),
    "NELEC": re.compile(r"NELEC\s*=\s*(\d+)", re.IGNORECASE),
    "MS2": re.compile(r"MS2\s*=\s*(-?\d+)", re.IGNORECASE),
}


def parse_fcidump(text):
    """Parse FCIDUMP text into an FcidumpRecord.

    The header namelist runs through `&END` (or `/`); data lines are
    `value i j k l` with 1-based indices.  `i=j=k=l=0` holds the core energy,
    `k=l=0` a core-Hamiltonian entry, everything else an (ij|kl) integral
    whose permutational images are filled in; a later line overwrites an
    earlier one.  Raises NumericalError, before reading the data, when the
    (NORB+1)^4 integral array would exceed `_INTEGRAL_BYTES_LIMIT` (1 GiB).
    """
    lines = text.splitlines()
    data_start = None
    for ln, raw in enumerate(lines, start=1):
        if "&END" in raw.upper() or raw.strip() == "/" or raw.strip().endswith("/"):
            data_start = ln
            break
    if data_start is None:
        raise ParseError("missing &END terminator in FCIDUMP header", line=len(lines))
    header = " ".join(lines[:data_start])
    if "&FCI" not in header.upper():
        raise ParseError("missing &FCI header", line=1)
    found = {key: pattern.search(header) for key, pattern in _HEADER_INT.items()}
    for key in ("NORB", "NELEC"):
        if found[key] is None:
            raise ParseError(f"header lacks {key}", line=1)
    n, n_elec = int(found["NORB"].group(1)), int(found["NELEC"].group(1))
    ms2 = int(found["MS2"].group(1)) if found["MS2"] else 0
    size = 8 * (n + 1) ** 4
    if size > _INTEGRAL_BYTES_LIMIT:
        raise NumericalError(
            f"NORB={n} needs a {size / 2**30:.2f} GiB integral array, above the "
            f"{_INTEGRAL_BYTES_LIMIT / 2**30:.0f} GiB limit",
            payload={"norb": n, "bytes": size},
        )

    vals, idx = _read_data(lines[data_start:], data_start + 1, n)
    # a later line overwrites an earlier one: keep the last row of each orbit
    # under i<->j, k<->l and ij<->kl, keyed by its sorted index pairs
    m = n + 1
    i, j, k, l = idx.T
    ij, kl = np.maximum(i, j) * m + np.minimum(i, j), np.maximum(k, l) * m + np.minimum(k, l)
    _, last = np.unique((np.maximum(ij, kl) * m * m + np.minimum(ij, kl))[::-1], return_index=True)
    keep = idx.shape[0] - 1 - last
    (i, j, k, l), v = idx[keep].T, vals[keep]
    # one 1-based array holds all three kinds: the core energy at (0,0,0,0),
    # the core Hamiltonian at (i,j,0,0) and the integrals at (i,j,k,l)
    full = np.zeros((m, m, m, m))
    for a, b in ((i, j), (j, i)):
        for c, d in ((k, l), (l, k)):
            full[a, b, c, d] = full[c, d, a, b] = v
    core_energy, core_h, eri = float(full[0, 0, 0, 0]), full[1:, 1:, 0, 0], full[1:, 1:, 1:, 1:]
    return FcidumpRecord(n, n_elec, ms2, core_energy, core_h, eri)


_DATA_ROW = np.dtype([("v", "f8"), ("i", "i8", (4,))])


def _read_data(body, first_line, n):
    """(values, m x 4 indices) of the data lines after a leading core energy
    of 0 (the value when none is given).  They are read in one numpy pass;
    if that fails or finds a non-finite value or an invalid index, they are
    read line by line, and the first bad line raises ParseError."""
    try:
        with warnings.catch_warnings():
            # older numpy reads an index "1.5" as 1 and only warns
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt([" 0 0 0 0 0", *body], dtype=_DATA_ROW, ndmin=1, comments=None)
        idx, nz = rows["i"], rows["i"] != 0
        # the line-by-line checks below: no zero index, or k = l = 0 and i, j both zero or not
        pair = ~nz[:, 2:].any(1) & (nz[:, 0] == nz[:, 1])
        ok = np.isfinite(rows["v"]).all() and ((idx >= 0) & (idx <= n)).all()
        if ok and (nz.all(1) | pair).all():
            return rows["v"], idx
    except (ValueError, DeprecationWarning):
        pass
    vals, idx = [0.0], [[0, 0, 0, 0]]
    for ln, raw in enumerate(body, start=first_line):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 5:
            raise ParseError(f"expected 'value i j k l', got {raw.strip()!r}", line=ln)
        try:
            vals.append(float(parts[0]))
            i, j, k, l = row = [int(p) for p in parts[1:]]
        except ValueError as exc:
            raise ParseError(str(exc), line=ln) from None
        if not np.isfinite(vals[-1]):
            raise ParseError(f"non-finite value {parts[0]!r}", line=ln)
        for p in row:
            if p < 0 or p > n:
                raise ParseError(f"orbital index {p} outside [0, {n}]", line=ln)
        if k == l == 0 and (i == 0) != (j == 0):
            raise ParseError(f"bad one-electron index pair ({i},{j})", line=ln)
        if (k or l) and 0 in row:
            raise ParseError(f"bad index pattern ({i},{j},{k},{l})", line=ln)
        idx.append(row)
    return np.array(vals), np.array(idx)


def write_fcidump(rec):
    """Serialize an FcidumpRecord; parse(write(rec)) reproduces rec bit-for-bit."""
    n = rec.n_orb
    out = [f" &FCI NORB={n},NELEC={rec.n_elec},MS2={rec.ms2},"]
    out.append("  ORBSYM=" + ",".join(["1"] * n) + ",")
    out.append("  ISYM=1,")
    out.append(" &END")
    for i in range(n):
        for j in range(i + 1):
            for k in range(i + 1):
                lmax = j + 1 if k == i else k + 1
                for l in range(lmax):
                    v = rec.eri[i, j, k, l]
                    if v != 0.0:
                        out.append(f" {v:.17g} {i + 1} {j + 1} {k + 1} {l + 1}")
    for i in range(n):
        for j in range(i + 1):
            v = rec.core_h[i, j]
            if v != 0.0:
                out.append(f" {v:.17g} {i + 1} {j + 1} 0 0")
    out.append(f" {rec.core_energy:.17g} 0 0 0 0")
    return "\n".join(out) + "\n"


def load_fcidump(path):
    with open(path) as fh:
        return parse_fcidump(fh.read())


def fixture_path(name):
    """Filesystem path of a bundled FCIDUMP fixture (h2, lih, beh2, h2o, nh3)."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    return resources.files("lcunorm.data").joinpath(f"{name}.fcidump")


def load_fixture(name):
    return parse_fcidump(fixture_path(name).read_text())


def to_chemist(rec):
    """Convert raw integrals to chemist-form tensors.

    g~_ijkl = (ij|kl)/2 and h~_ij = core_h_ij - sum_k g~_ikkj; the correction
    comes from reordering a_j a^dag_k inside the physicist two-electron term.
    """
    tbt = 0.5 * rec.eri
    obt = rec.core_h - np.einsum("ikkj->ij", tbt)
    return SpatialTensors(rec.core_energy, obt, tbt)


def one_body_adjust(t):
    """Effective one-body matrix h~_ij + 2 sum_k g~_ijkk.

    This is the one-electron content left over when every two-electron
    fragment is written in reflection variables; its eigenvalues are the mu_i
    entering the fermionic one-norms.
    """
    return _one_body_adjust(t.obt, t.tbt)


def _one_body_adjust(obt, tbt):
    """one_body_adjust on bare arrays."""
    return obt + 2.0 * np.einsum("ijkk->ij", tbt)
