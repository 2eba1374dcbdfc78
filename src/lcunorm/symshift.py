"""Symmetry shifts: subtract s1*Ne + s2*Ne^2 to lower decomposition 1-norms.

The electron-number operator and its square commute with the Hamiltonian,
so subtracting them leaves the physics on every particle sector unchanged
while shrinking the tensors everything downstream decomposes.  The shift
coefficients minimize an l1 surrogate over the Cartan diagonal, which for
a single symmetry reduces to a weighted median; a general LP path is kept
as a cross-check and for larger symmetry pools.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .tensors import one_body_adjust

__all__ = [
    "SymmetryShift",
    "L1Problem",
    "solve_l1",
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


@dataclass
class L1Problem:
    """min over s of sum_nu weights_nu |lam_nu - sum_u s_u tau[u, nu]|."""

    lam: np.ndarray
    tau: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float).ravel()
        self.tau = np.atleast_2d(np.asarray(self.tau, dtype=float))
        if self.weights is None:
            self.weights = np.ones_like(self.lam)
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if self.tau.shape[1] != self.lam.size or self.weights.size != self.lam.size:
            raise ValueError("inconsistent L1Problem dimensions")
        if self.tau.shape[0] < 1:
            raise ValueError("need at least one symmetry")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")

    def objective(self, s):
        resid = self.lam - np.asarray(s, dtype=float) @ self.tau
        return float(self.weights @ np.abs(resid))


def weighted_median(values, weights):
    """Smallest minimizer of sum_i w_i |v_i - s| (first breakpoint where the
    cumulative weight reaches half the total)."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    k = int(np.searchsorted(cum, 0.5 * cum[-1]))
    return float(values[order][k])


def _solve_lp(prob):
    from scipy.optimize import linprog

    n_s = prob.tau.shape[0]
    n_c = prob.lam.size
    # variables (s, t): minimize w.t  s.t.  tau^T s - t <= lam, -tau^T s - t <= -lam
    c = np.concatenate([np.zeros(n_s), prob.weights])
    tt = prob.tau.T
    eye = np.eye(n_c)
    a_ub = np.block([[tt, -eye], [-tt, -eye]])
    b_ub = np.concatenate([prob.lam, -prob.lam])
    bounds = [(None, None)] * n_s + [(0, None)] * n_c
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise NumericalError(f"l1 linear program failed: {res.message}")
    return res.x[:n_s], float(res.fun)


def solve_l1(prob, method="auto"):
    """Global minimizer of the weighted l1 objective.

    "median" requires a single symmetry with constant tau row (the
    electron-number case) and is exact; "lp" handles general tau; "auto"
    picks the median path when applicable.
    """
    tau0 = prob.tau[0]
    medianable = prob.tau.shape[0] == 1 and np.ptp(tau0) == 0 and tau0[0] != 0
    if method == "auto":
        method = "median" if medianable else "lp"
    if method == "median":
        if not medianable:
            raise ValueError("median path needs a single constant symmetry row")
        s = weighted_median(prob.lam / tau0[0], prob.weights)
        s_vec = np.array([s])
        return s_vec, prob.objective(s_vec)
    if method == "lp":
        return _solve_lp(prob)
    raise ValueError(f"unknown method {method!r}")


def _two_body_problem(t):
    n = t.n_orb
    iu = np.tril_indices(n)
    lam = t.tbt[iu[0], iu[0], iu[1], iu[1]]
    # spin-orbital pairs p >= q folded to spatial: 4 combinations for i > j,
    # 3 for i = j (both diagonals plus one cross term)
    weights = np.where(iu[0] == iu[1], 3.0, 4.0)
    return L1Problem(lam, np.ones((1, lam.size)), weights)


def shift_two_body(t):
    """Optimal s2 for the Ne^2 shift and the two-body-shifted tensors."""
    s_vec, _ = solve_l1(_two_body_problem(t))
    s2 = float(s_vec[0])
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
    for i in range(n):
        for j in range(n):
            tbt[i, i, j, j] -= shift.s2
    return t.replace(obt=obt, tbt=tbt)


def optimize_shift(t):
    """Full two-stage shift: returns (SymmetryShift, shifted tensors)."""
    t2, s2 = shift_two_body(t)
    _, s1 = shift_one_body(t2)
    shift = SymmetryShift(s1, s2)
    return shift, apply_shift(t, shift)
