"""BFGS minimization wrapper and orbital-rotation 1-norm optimization."""

from functools import partial

import numpy as np
import scipy.optimize

from .errors import NumericalError
from .fragments import _antisymmetric, _expm_antisym, _rotate, _theta_grad, theta_dim
from .pauli import _closed_form, lambda_pauli_closed_form

__all__ = ["minimize", "oo_pauli"]

# The searches' fixed settings: gradient tolerance (greedy CSA passes its
# own), iteration cap of each BFGS run, and seeded restarts (see _starts).
TOL_GRAD = 1e-8
MAX_ITERS = 2000
RESTARTS = 2

# Pseudo-Huber widths that oo_pauli searches from every start: the plain
# exact search, and a smoothed one (see oo_pauli).
_OO_WIDTHS = (0.0, 1e-2)


class _NonFinite(Exception):
    def __init__(self, x):
        self.x = x


def _starts(x_base, seed):
    """x_base and RESTARTS seeded perturbations of it, each entry in +-0.05."""
    rng = np.random.default_rng(seed)
    return [x_base] + [x_base + rng.uniform(-0.05, 0.05, x_base.size) for _ in range(RESTARTS)]


def minimize(f, x0, tol_grad=TOL_GRAD, jac=False):
    """Quasi-Newton descent; stops at ||grad||_inf <= tol_grad or MAX_ITERS.

    `f` returns the cost, or (cost, gradient) when jac=True.  Guarantees
    f(x*) <= f(x0).  A non-finite cost or gradient during the search raises
    NumericalError carrying the offending iterate.
    """
    x0 = np.asarray(x0, dtype=float)

    def checked(x):
        out = f(x)
        if jac:
            c, g = out
            if not np.isfinite(c) or not np.all(np.isfinite(g)):
                raise _NonFinite(np.array(x))
            return c, np.asarray(g, dtype=float)
        if not np.isfinite(out):
            raise _NonFinite(np.array(x))
        return out

    f0 = checked(x0)[0] if jac else checked(x0)
    if x0.size == 0:  # nothing to search, e.g. the rotation of one orbital
        return x0, float(f0), 0
    try:
        res = scipy.optimize.minimize(
            checked,
            x0,
            jac=True if jac else "3-point",
            method="BFGS",
            options={"gtol": tol_grad, "maxiter": MAX_ITERS},
        )
    except _NonFinite as bad:
        raise NumericalError(
            "non-finite cost encountered during minimization",
            payload={"last_x": bad.x},
        ) from None
    if res.fun > f0:
        return x0, float(f0), int(res.nit)
    return np.asarray(res.x, dtype=float), float(res.fun), int(res.nit)


def _oo_cost(theta, t, width=0.0, grad=True):
    """Closed form of t in the orbitals rotated by theta, and its gradient
    (the cost alone with grad=False).

    The forward pass rotates as rotate_tensors does and keeps the
    three-index-rotated tensor, so at width 0 the cost is the closed form of
    the rotated tensors, bit for bit.  The backward pass averages the
    gradient in the rotated tensor over its 8-fold index symmetry, which
    makes the four rotated indices contribute alike: one contraction with
    the kept tensor, times four.
    """
    n = t.n_orb
    u, eig = _expm_antisym(_antisymmetric(theta, n))
    obt, g, part = _rotate(u, t.obt, t.tbt)
    out = _closed_form(obt, g, width, grad)
    if not grad:
        return out
    cost, s1, dg = out
    dg = dg + dg.transpose(1, 0, 2, 3)
    dg = dg + dg.transpose(0, 1, 3, 2)
    dg = dg + dg.transpose(2, 3, 0, 1)
    gu = 0.5 * np.tensordot(dg, part, axes=([0, 1, 2], [1, 2, 3]))
    gu += (s1 + s1.T) @ u @ t.obt
    return cost, _theta_grad(eig, gu)


def oo_pauli(t, seed=0):
    """Minimize the closed-form Pauli 1-norm over orbital rotations.

    Starts from theta = 0 plus RESTARTS seeded perturbations (_starts).
    From each start it runs two searches on the analytic (sub)gradient:
    the exact closed form, and the pseudo-Huber surrogate
    |x| -> sqrt(x^2 + w^2) - w (w = 1e-2), which has no kinks, followed by
    the exact search from that optimum.  The best exact optimum is then
    polished by one search on finite differences of the exact cost, which
    can still step where the subgradient stalls on a kink.  The reported
    lambda is always the exact one, the lowest over all searches and never
    above the value at theta = 0.  Returns (theta*, lambda at theta*).
    """
    k = theta_dim(t.n_orb)
    best_x, best_f = None, np.inf
    for x0 in _starts(np.zeros(k), seed):
        for width in _OO_WIDTHS:
            x = x0
            if width != 0.0:
                x = minimize(partial(_oo_cost, t=t, width=width), x0, TOL_GRAD, jac=True)[0]
            x, f, _ = minimize(partial(_oo_cost, t=t), x, TOL_GRAD, jac=True)
            if f < best_f:
                best_x, best_f = x, f
    best_x, best_f, _ = minimize(partial(_oo_cost, t=t, grad=False), best_x, TOL_GRAD)
    base = lambda_pauli_closed_form(t)
    if base <= best_f:
        return np.zeros(k), float(base)
    return best_x, float(best_f)
