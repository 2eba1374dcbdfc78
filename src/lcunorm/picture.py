"""Interaction-picture split: peel off a mean-field piece before costing.

H0 is one orbital frame u = make_rotation(theta) holding occupation-number
content only: a one-body part with eigenvalues mu and a fragment (u, lam),
both projections of the tensors onto the frame (_fragment_fit).  So H0 is
a function of theta and the tensors, and the fit searches theta alone, as
greedy CSA does.  Subtracting H0 leaves a residual Hamiltonian whose
1-norms are what a propagator in the rotating frame of H0 pays for.
"""

from dataclasses import dataclass

import numpy as np

from .fragments import (
    Fragment,
    _fragment_fit,
    _one_body_projection,
    _projected_fragment,
    fragment_tensor,
    make_rotation,
    theta_dim,
)
from .optimize import TOL_GRAD, _starts
from .tensors import SpatialTensors

__all__ = ["PictureSplit", "split_interaction"]

# Width of the split's seeded starts, at which every fixture keeps the optimum
# of the earlier joint (theta, mu, lam) fit: at +-0.05 every start stops in
# BeH2's worse basin (misfit^2 0.2855, not 0.2470); at +-0.5 LiH moves to
# another basin (0.057248, not 0.057621).
_SPLIT_WIDTH = 0.2
# Misfits^2 this close (relative) are tied: equal optima differ only in last
# bits, which last-bit noise in the tensors reorders.
_SPLIT_TIE = 1e-6


@dataclass
class PictureSplit:
    """H0 (its frame theta, two-body fragment h0 in that frame, one-body
    eigenvalues mu there), the residual, and its norm
    sqrt(|obt - obt0|^2 + |tbt - tbt0|^2), which the fit minimizes."""

    theta: np.ndarray
    h0: Fragment
    mu: np.ndarray
    residual: SpatialTensors
    fit_residual_norm: float

    @classmethod
    def at(cls, t, theta):
        """The split of tensors t by the mean-field part in the frame theta."""
        theta = np.asarray(theta, dtype=float)
        h0 = _projected_fragment(make_rotation(theta), t.tbt)
        mu = _one_body_projection(h0.u, t.obt)
        obt0, tbt0 = _h0_tensors(h0, mu)
        residual = t.replace(obt=t.obt - obt0, tbt=t.tbt - tbt0)
        misfit = float(np.hypot(np.linalg.norm(residual.obt), np.linalg.norm(residual.tbt)))
        return cls(theta, h0, mu, residual, misfit)

    def h0_tensors(self):
        """(obt, tbt) of the mean-field part in the original orbital frame."""
        return _h0_tensors(self.h0, self.mu)


def _h0_tensors(h0, mu):
    return (h0.u * mu) @ h0.u.T, fragment_tensor(h0)


def split_interaction(t, seed=0):
    """Best-fit mean-field split of the tensors.

    Fits theta alone from theta = 0 and from RESTARTS seeded perturbations
    within +-_SPLIT_WIDTH (_starts).  Of the starts whose misfit^2 is within
    _SPLIT_TIE (relative) of the lowest, it keeps the last in start order.
    The fit pins the misfit, not the residual: where orbitals come in
    degenerate pairs (LiH, BeH2, NH3), starts reach the same misfit^2 to 12
    digits with residual Pauli 1-norms up to 1% apart.  Under 1e-15
    relative noise on tbt, keeping the lowest misfit^2 moved the LiH
    residual's Pauli 1-norm by 9.7e-4 relative; with the tie, every fixture
    moves by at most 1.4e-8.  The first tied start would keep theta = 0 on
    NH3, whose residual costs GCSA-F 10.60 and GCSA-SR 6.71 (10.11 and 6.35
    for the last).
    """
    # imported per call, so that a replaced optimize.minimize is the one that runs
    from .optimize import minimize

    fits = [
        minimize(lambda y: _fragment_fit(y, t.tbt, t.obt), x0, TOL_GRAD, jac=True)
        for x0 in _starts(np.zeros(theta_dim(t.n_orb)), seed, _SPLIT_WIDTH)
    ]
    low = min(f for _, f, _ in fits)
    theta = [x for x, f, _ in fits if f - low <= _SPLIT_TIE * low][-1]
    return PictureSplit.at(t, theta)
