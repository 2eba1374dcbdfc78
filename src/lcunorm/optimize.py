"""BFGS minimization wrapper and orbital-rotation 1-norm optimization."""

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import NumericalError
from .fragments import _antisymmetric, _expm_antisym, _rotate, theta_dim
from .pauli import _closed_form, lambda_pauli_closed_form

__all__ = ["OptimizerConfig", "minimize", "oo_pauli"]

# Pseudo-Huber widths that oo_pauli searches from every start: the plain
# exact search, and a smoothed one (see oo_pauli).
_OO_WIDTHS = (0.0, 1e-2)


@dataclass
class OptimizerConfig:
    tol_grad: float = 1e-8
    max_iters: int = 500
    restarts: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.tol_grad <= 0:
            raise ValueError("tol_grad must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.restarts < 0:
            raise ValueError("restarts must be non-negative")


class _NonFinite(Exception):
    def __init__(self, x):
        self.x = x


def minimize(f, x0, cfg=None, jac=False):
    """Quasi-Newton descent; stops at ||grad||_inf <= tol_grad or max_iters.

    `f` returns the cost, or (cost, gradient) when jac=True.  Guarantees
    f(x*) <= f(x0).  A non-finite cost or gradient during the search raises
    NumericalError carrying the offending iterate.
    """
    cfg = cfg or OptimizerConfig()
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
    try:
        res = scipy.optimize.minimize(
            checked,
            x0,
            jac=True if jac else "3-point",
            method="BFGS",
            options={"gtol": cfg.tol_grad, "maxiter": cfg.max_iters},
        )
    except _NonFinite as bad:
        raise NumericalError(
            "non-finite cost encountered during minimization",
            payload={"last_x": bad.x},
        ) from None
    if res.fun > f0:
        return x0, float(f0), int(res.nit)
    return np.asarray(res.x, dtype=float), float(res.fun), int(res.nit)


def _huber(delta):
    """Pseudo-Huber surrogate |x| -> sqrt(x^2 + delta^2) - delta."""
    return lambda x: np.sqrt(x * x + delta * delta) - delta


def oo_pauli(t, cfg=None):
    """Minimize the closed-form Pauli 1-norm over orbital rotations.

    Starts from theta = 0 plus cfg.restarts seeded perturbations (scale
    0.05).  From each start it runs two searches: the exact closed form,
    and the pseudo-Huber surrogate |x| -> sqrt(x^2 + w^2) - w (w = 1e-2),
    which has no kinks for the finite-difference gradient to stall on,
    followed by the exact search from that optimum.  The reported lambda is
    always the exact one, the lowest over all searches and never above the
    value at theta = 0.  Returns (theta*, lambda at theta*).
    """
    cfg = cfg or OptimizerConfig()
    n = t.n_orb
    k = theta_dim(n)

    def cost(absf):
        def f(theta):
            u = _expm_antisym(_antisymmetric(theta, n))
            return _closed_form(*_rotate(u, t.obt, t.tbt), absf)

        return f

    exact = cost(np.abs)

    rng = np.random.default_rng(cfg.seed)
    starts = [np.zeros(k)]
    starts += [rng.uniform(-0.05, 0.05, size=k) for _ in range(cfg.restarts)]
    best_x, best_f = None, np.inf
    for x0 in starts:
        for width in _OO_WIDTHS:
            x = x0 if width == 0.0 else minimize(cost(_huber(width)), x0, cfg)[0]
            x, f, _ = minimize(exact, x, cfg)
            if f < best_f:
                best_x, best_f = x, f
    base = lambda_pauli_closed_form(t)
    if base <= best_f:
        return np.zeros(k), float(base)
    return best_x, float(best_f)
