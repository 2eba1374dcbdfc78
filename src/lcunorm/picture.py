"""Interaction-picture split: peel off a mean-field piece before costing.

H0 is one orbital frame (theta) holding occupation-number content only: a
one-body part with eigenvalues mu and a symmetric pair-coefficient matrix
lam.  Fitting (theta, mu, lam) jointly to the input tensors and
subtracting leaves a residual Hamiltonian whose 1-norms are what a
propagator in the rotating frame of H0 actually pays for.
"""

from dataclasses import dataclass

import numpy as np

from .fragments import (
    CsaFragment,
    _fit_params,
    _fragment_fit,
    _pack_dim,
    fragment_tensor,
    make_rotation,
    theta_dim,
)
from .optimize import TOL_GRAD, _starts
from .tensors import SpatialTensors, one_body_adjust

__all__ = ["PictureSplit", "split_interaction"]


@dataclass
class PictureSplit:
    h0: CsaFragment
    residual: SpatialTensors
    fit_residual_norm: float

    @classmethod
    def of(cls, t, h0):
        """The split of tensors t that removes the mean-field part h0."""
        obt0, tbt0 = _h0_tensors(h0)
        residual = t.replace(obt=t.obt - obt0, tbt=t.tbt - tbt0)
        misfit = float(np.linalg.norm(t.obt - obt0) + np.linalg.norm(t.tbt - tbt0))
        return cls(h0, residual, misfit)

    def h0_tensors(self):
        """(obt, tbt) of the mean-field part in the original orbital frame."""
        return _h0_tensors(self.h0)


def _h0_tensors(h0):
    u = h0.rotation.u
    return (u * h0.mu) @ u.T, fragment_tensor(h0)


def split_interaction(t, seed=0):
    """Best-fit mean-field split of the tensors.

    Starts from theta = 0, mu = eigenvalues of the adjusted one-body
    matrix, lam = 0, plus RESTARTS seeded perturbations (_starts); keeps
    the best fit.  The start is a heuristic, not an exact fit of the one-body
    part: at theta = 0 H0 holds the diagonal matrix diag(mu), which equals
    obt only when obt is diagonal (and mu comes from the adjusted matrix,
    not obt).  The fit pins the misfit, not the residual: the optimum is
    degenerate, and for the NH3 fixture all three starts reach the same
    misfit (squared norm 0.335439) with residuals whose Pauli 1-norms
    differ by up to 1%.  Residual 1-norms therefore depend on the start
    and on the last bits of the arithmetic, not only on the tensors.

    mu and lam stay fit parameters.  For a fixed rotation their best values
    are projections, mu = diag(u^T obt u) and lam = W^T tbt W (greedy CSA
    projects lam so), and a search over theta alone has the same global
    optimum, but from these starts it stops at worse local ones: on BeH2
    every start (3, and also 6) ends at misfit^2 0.2855, against 0.2470 for
    the joint fit, and the residual Pauli 1-norm rises from 5.780 to 6.041.
    """
    # imported per call, so that a replaced optimize.minimize is the one that runs
    from .optimize import minimize

    n = t.n_orb
    x_base = np.concatenate(
        [np.zeros(theta_dim(n)), np.linalg.eigvalsh(one_body_adjust(t)), np.zeros(_pack_dim(n))]
    )
    best_x, best_f = None, np.inf
    for x0 in _starts(x_base, seed):
        x, fval, _ = minimize(lambda y: _fragment_fit(y, t.tbt, t.obt), x0, TOL_GRAD, jac=True)
        if fval < best_f:
            best_x, best_f = x, fval
    theta, mu, lam = _fit_params(best_x, n)
    h0 = CsaFragment(make_rotation(theta), lam, mu=mu)
    return PictureSplit.of(t, h0)
