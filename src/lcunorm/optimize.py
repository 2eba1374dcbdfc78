"""BFGS minimization wrapper and orbital-rotation 1-norm optimization."""

from functools import partial

import numpy as np

from .errors import NumericalError
from .fragments import _antisymmetric, _expm_antisym, _rotate, _theta_grad, theta_dim
from .pauli import _closed_form, lambda_pauli_closed_form
from .work import add

__all__ = ["minimize", "oo_pauli"]

# The searches' fixed settings: gradient tolerance (greedy CSA sets its own
# per fit, from the residual's norm), iteration cap of each BFGS run, and
# seeded restarts (see _starts).
TOL_GRAD = 1e-8
MAX_ITERS = 2000
RESTARTS = 2

# Pseudo-Huber widths that oo_pauli searches from every start: the plain
# exact search, and a smoothed one (see oo_pauli).
_OO_WIDTHS = (0.0, 1e-2)
# Width of oo_pauli's last search, from the best exact optimum: smooth enough
# to step across the kinks where the exact subgradient search stalls (the job
# a finite-difference search would do), narrow enough to track the exact cost.
_OO_POLISH_WIDTH = 1e-6


class _NonFinite(Exception):
    """Raised with the iterate at which the cost or gradient is not finite."""


def _starts(x_base, seed, width):
    """x_base and RESTARTS seeded perturbations of it, each entry in +-width."""
    rng = np.random.default_rng(seed)
    return [x_base] + [x_base + rng.uniform(-width, width, x_base.size) for _ in range(RESTARTS)]


def minimize(f, x0, tol_grad=TOL_GRAD, jac=True):
    """BFGS descent; stops at ||grad||_inf <= tol_grad, MAX_ITERS, a zero step
    or a failed line search.

    The iterates are scipy's BFGS (scipy.optimize.minimize, method="BFGS")
    bit for bit, run without its wrapper layers: H0 = I, a first step of
    length ~1, the same inverse-Hessian update (rho = 1000 where y.s = 0)
    and scipy's Wolfe line search (More-Thuente's DCSRCH, falling back to
    its wolfe2 search).  Most searches accept DCSRCH's first trial step,
    alpha1 = min(1, 2.02 (f_k - f_prev) / (g_k . p_k)) (1 if negative), so
    the loop evaluates that step itself and keeps it when DCSRCH's own
    convergence test holds there (sufficient decrease, c1 = 1e-4, and
    |g_1 . p_k| <= 0.9 |g_k . p_k|); otherwise scipy's whole search runs,
    and reads that point back from the last-point cache, so the cost
    evaluations are the same.  `f` returns (cost, gradient) and is called
    once per point, x0 included; `jac` must be true (false raises ValueError), and
    stays so that wrappers which forward the call shape (f, x0, tol_grad,
    jac) keep working.  Returns (x*, f(x*), iterations), with f(x*) <= f(x0),
    and adds one run, its iterations and its calls of f to the open
    `work.counting()` blocks as bfgs_runs, bfgs_iters and cost_evals.
    A non-finite cost or gradient, at x0 or during the search, raises
    NumericalError carrying the offending iterate (and counts nothing).
    """
    if not jac:
        raise ValueError("minimize needs f to return (cost, gradient): jac must be true")
    from scipy.optimize._optimize import _line_search_wolfe12, _LineSearchError

    x0 = np.array(x0, dtype=float)
    last = [None, None]  # the last point's bytes and its (cost, gradient)
    evals = 0

    def at(x):
        nonlocal evals
        key = x.tobytes()
        if key != last[0]:
            evals += 1
            c, g = f(x)
            if not np.isfinite(c) or not np.isfinite(g).all():
                raise _NonFinite(np.array(x))
            last[:] = key, (c, np.asarray(g, dtype=float))
        return last[1]

    try:
        f0, gk = at(x0)
        if x0.size == 0:  # nothing to search, e.g. the rotation of one orbital
            add(bfgs_runs=1, bfgs_iters=0, cost_evals=evals)
            return x0, float(f0), 0
        eye = np.eye(x0.size)
        hk = eye
        # the line search's previous cost, chosen so that its first trial step
        # has length ~1
        fk, f_prev = f0, f0 + np.linalg.norm(gk) / 2
        xk, k = x0, 0
        gnorm = np.abs(gk).max()
        while gnorm > tol_grad and k < MAX_ITERS:
            pk = -np.dot(hk, gk)
            # DCSRCH's first trial step, kept if it passes DCSRCH's test there
            d0 = np.dot(gk, pk)
            g_next = None
            if d0 < 0:
                alpha = min(1.0, 1.01 * 2 * (fk - f_prev) / d0)
                if alpha < 0:
                    alpha = 1.0
                if alpha >= 1e-100:
                    f1, g1 = at(xk + alpha * pk)
                    if f1 <= fk + alpha * (1e-4 * d0) and abs(np.dot(g1, pk)) <= 0.9 * -d0:
                        fk, f_prev, g_next = f1, fk, g1
            if g_next is None:
                try:
                    alpha, _, _, fk, f_prev, g_next = _line_search_wolfe12(
                        lambda x: at(x)[0], lambda x: at(x)[1], xk, pk, gk, fk, f_prev,
                        amin=1e-100, amax=1e100, c1=1e-4, c2=0.9,
                    )
                except _LineSearchError:
                    break
            sk = alpha * pk
            xk = xk + sk
            if g_next is None:
                g_next = at(xk)[1]
            yk = g_next - gk
            gk = g_next
            k += 1
            gnorm = np.abs(gk).max()
            if gnorm <= tol_grad or alpha * np.linalg.norm(pk) <= 0.0:  # or a zero step
                break
            rho_inv = np.dot(yk, sk)
            rho = 1000.0 if rho_inv == 0.0 else 1.0 / rho_inv
            sy = np.multiply.outer(sk, yk) * rho
            hk = np.dot(eye - sy, np.dot(hk, eye - sy.T)) + np.multiply.outer(rho * sk, sk)
    except _NonFinite as bad:
        raise NumericalError(
            "non-finite cost encountered during minimization",
            payload={"last_x": bad.args[0]},
        ) from None
    add(bfgs_runs=1, bfgs_iters=k, cost_evals=evals)
    if fk > f0:
        return x0, float(f0), k
    return xk, float(fk), k


def _oo_cost(theta, t, width=0.0):
    """Closed form of t in the orbitals rotated by theta, and its gradient.

    The forward pass rotates as rotate_tensors does and keeps the
    three-index-rotated tensor, so at width 0 the cost is the closed form of
    the rotated tensors, bit for bit.  The backward pass averages the
    gradient in the rotated tensor over its 8-fold index symmetry, which
    makes the four rotated indices contribute alike: one contraction with
    the kept tensor, times four.
    """
    n = t.n_orb
    u, eig = _expm_antisym(_antisymmetric(theta, n))
    obt, g, flat = _rotate(u, t.obt, t.tbt)
    cost, s1, dg = _closed_form(obt, g, width, grad=True)
    dg = dg + dg.transpose(1, 0, 2, 3)
    dg = dg + dg.transpose(0, 1, 3, 2)
    dg = dg + dg.transpose(2, 3, 0, 1)
    # np.tensordot(dg, part, axes=([0, 1, 2], [1, 2, 3])): its np.dot on its operands
    gu = 0.5 * np.dot(dg.transpose(3, 0, 1, 2).reshape(n, n**3), flat)
    gu += (s1 + s1.T) @ u @ t.obt
    return cost, _theta_grad(eig, gu)


def oo_pauli(t, seed=0):
    """Minimize the closed-form Pauli 1-norm over orbital rotations.

    Starts from theta = 0 plus RESTARTS seeded perturbations within +-0.05
    (_starts).
    From each start it runs two searches on the analytic (sub)gradient:
    the exact closed form, and the pseudo-Huber surrogate
    |x| -> sqrt(x^2 + w^2) - w (w = 1e-2), which has no kinks, followed by
    the exact search from that optimum.  The best exact optimum is then
    polished by one search of the surrogate at w = _OO_POLISH_WIDTH, which
    steps across the kinks where the exact subgradient stalls; its end point
    is kept only if the exact closed form there is lower.  The reported
    lambda is always the exact one, the lowest over all searches and never
    above the value at theta = 0.  Returns (theta*, lambda at theta*).
    """
    k = theta_dim(t.n_orb)
    best_x, best_f = None, np.inf
    for x0 in _starts(np.zeros(k), seed, 0.05):
        for width in _OO_WIDTHS:
            x = x0
            if width != 0.0:
                x = minimize(partial(_oo_cost, t=t, width=width), x0, TOL_GRAD, jac=True)[0]
            x, f, _ = minimize(partial(_oo_cost, t=t), x, TOL_GRAD, jac=True)
            if f < best_f:
                best_x, best_f = x, f
    x = minimize(partial(_oo_cost, t=t, width=_OO_POLISH_WIDTH), best_x, TOL_GRAD, jac=True)[0]
    f = _oo_cost(x, t)[0]
    if f < best_f:
        best_x, best_f = x, f
    base = lambda_pauli_closed_form(t)
    if base <= best_f:
        return np.zeros(k), float(base)
    return best_x, float(best_f)
