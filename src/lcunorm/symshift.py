"""Symmetry shifts: subtract s1*Ne + s2*Ne^2 to lower decomposition 1-norms.

The electron-number operator and its square commute with the Hamiltonian,
so subtracting them leaves the physics on every particle sector unchanged
while shrinking the tensors everything downstream decomposes.  The shift
coefficients minimize an l1 surrogate over the Cartan diagonal, which for
a single symmetry is a weighted median.
"""

from dataclasses import dataclass

import numpy as np

from .tensors import one_body_adjust

__all__ = [
    "SymmetryShift",
    "weighted_median",
    "shift_two_body",
    "shift_one_body",
    "apply_shift",
    "optimize_shift",
]


@dataclass
class SymmetryShift:
    s1: float
    s2: float

    def __post_init__(self):
        if not (np.isfinite(self.s1) and np.isfinite(self.s2)):
            raise ValueError("shift coefficients must be finite")


def weighted_median(values, weights):
    """Smallest minimizer of sum_i w_i |v_i - s| (first breakpoint where the
    cumulative weight reaches half the total)."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    k = int(np.searchsorted(cum, 0.5 * cum[-1]))
    return float(values[order][k])


def shift_two_body(t):
    """Optimal s2 for the Ne^2 shift and the two-body-shifted tensors.

    s2 minimizes sum_(i>=j) w_ij |g_iijj - s2| over the pair diagonal: the
    spin-orbital pairs p >= q folded to spatial give w = 4 for i > j and
    w = 3 for i = j (both diagonals plus one cross term).
    """
    iu = np.tril_indices(t.n_orb)
    lam = t.tbt[iu[0], iu[0], iu[1], iu[1]]
    s2 = weighted_median(lam, np.where(iu[0] == iu[1], 3.0, 4.0))
    return apply_shift(t, SymmetryShift(0.0, s2)), s2


def shift_one_body(t_shifted):
    """Optimal s1 for the Ne shift, from the already two-body-shifted tensors.

    Returns (shifted mu values, s1); each spatial mu carries spin
    multiplicity 2, which drops out of the plain median.
    """
    mu = np.linalg.eigvalsh(one_body_adjust(t_shifted))
    s1 = weighted_median(mu, np.full(mu.size, 2.0))
    return mu - s1, s1


def apply_shift(t, shift):
    """Tensors of H - s1*Ne - s2*Ne^2 (e0 untouched)."""
    n = t.n_orb
    obt = t.obt - shift.s1 * np.eye(n)
    tbt = t.tbt.copy()
    d = np.arange(n)
    tbt[d[:, None], d[:, None], d, d] -= shift.s2
    return t.replace(obt=obt, tbt=tbt)


def optimize_shift(t):
    """Full two-stage shift: returns (SymmetryShift, shifted tensors)."""
    t2, s2 = shift_two_body(t)
    _, s1 = shift_one_body(t2)
    shift = SymmetryShift(s1, s2)
    return shift, apply_shift(t, shift)
