"""Low-rank fragment decompositions of the two-electron tensor.

A fragment is an orbital frame u (an orthogonal matrix) and a symmetric
pair matrix lam: the occupation-number polynomial sum_ab lam_ab n_a n_b in
that frame, whose two-body tensor is sum_ab u_ia u_ja u_kb u_lb lam_ab.
Double factorization produces the rank-1 case lam = sign * (eps outer eps)
from an eigendecomposition; greedy CSA fits unrestricted lam one fragment
at a time.  A rotation is its matrix: make_rotation(theta) is expm of the
antisymmetric generator theta_(i>j).  Fragment-level 1-norm costings
(fermionic reflections, square-root unitarization, complete-square) live
here too.
"""

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .tensors import SpatialTensors

__all__ = [
    "Fragment",
    "make_rotation",
    "rotate_tensors",
    "double_factorize",
    "csa_greedy",
    "fragment_tensor",
    "lambda_fermionic",
    "lambda_sqrt_fragment",
    "lambda_complete_square",
    "reflection_term_count",
    "fragments_to_json",
    "fragments_from_json",
]


def theta_dim(n):
    return n * (n - 1) // 2


def _n_from_theta(k):
    n = int(round((1 + np.sqrt(1 + 8 * k)) / 2))
    if theta_dim(n) != k:
        raise ValueError(f"theta length {k} is not N(N-1)/2 for any integer N")
    return n


@lru_cache(maxsize=None)
def _tril(n, k=0):
    """np.tril_indices(n, k), built once per (n, k) and read-only."""
    rows, cols = np.tril_indices(n, k)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _antisymmetric(theta, n):
    a = np.zeros((n, n))
    rows, cols = _tril(n, -1)
    a[rows, cols] = theta
    a[cols, rows] = -np.asarray(theta)
    return a


def _expm_antisym(a):
    """(expm(a), eigenpairs (w, v) of i*a) of a real antisymmetric a, exact
    through the Hermitian eigendecomposition; _theta_grad reuses the pairs."""
    w, v = np.linalg.eigh(1j * a)
    u = (v * np.exp(-1j * w)) @ v.conj().T
    return np.ascontiguousarray(u.real), (w, v)


def make_rotation(theta):
    """The orthogonal matrix expm(a) of the generator with a_ij = theta_(i>j) = -a_ji."""
    theta = np.asarray(theta, dtype=float)
    return _expm_antisym(_antisymmetric(theta, _n_from_theta(theta.size)))[0]


def rotate_tensors(u, t):
    """Conjugate the Hamiltonian by the orbital rotation u: u h u^T on one
    body, u on every index of the two-body tensor.  Fock spectrum is
    preserved."""
    u = np.asarray(u, dtype=float)
    n = t.n_orb
    if u.shape != (n, n):
        raise ValueError("rotation dimension does not match tensors")
    if np.abs(u.T @ u - np.eye(n)).max() > 1e-10:
        raise ValueError("rotation matrix is not orthogonal to 1e-10")
    if abs(np.linalg.det(u) - 1.0) > 1e-8:
        raise ValueError("rotation matrix must have determinant +1")
    obt, tbt, _ = _rotate(u, t.obt, t.tbt)
    return SpatialTensors(t.e0, obt, tbt)


def _rotate(u, obt, tbt):
    """(u obt u^T, tbt with u on every index, tbt with u on its first three
    indices as part[l, a, b, c]).

    One GEMM per two-body index: each contraction moves the rotated index
    last, so four of them restore the original index order.
    """
    part = tbt
    for _ in range(3):
        part = np.tensordot(part, u, axes=([0], [1]))
    return u @ obt @ u.T, np.tensordot(part, u, axes=([0], [1])), part


@dataclass
class Fragment:
    """The polynomial sum_ab lam_ab n_a n_b in the orbital frame u."""

    u: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        if np.abs(self.lam - self.lam.T).max() > 1e-12 * max(1.0, np.abs(self.lam).max()):
            raise ValueError("lam must be symmetric")
        self.lam = 0.5 * (self.lam + self.lam.T)


def fragment_tensor(f):
    """Two-body tensor sum_ab u_ia u_ja u_kb u_lb lam_ab of one fragment."""
    w = np.einsum("ia,ja->ija", f.u, f.u)
    return np.einsum("ija,klb,ab->ijkl", w, w, f.lam, optimize=True)


DF_TOL = 1e-12  # DF drops eigenvalues of at most this magnitude


def double_factorize(t):
    """Eigendecomposition of the N^2 x N^2 two-electron matrix into rank-1 fragments.

    Fragments are emitted in order of decreasing eigenvalue magnitude,
    those with |w| <= DF_TOL dropped; each has lam = sign(w) (eps outer eps),
    eps_i = sqrt(|w|) d_i, with L = u diag(d) u^T the reshaped eigenvector.
    Negative eigenvalues appear after symmetry shifts.
    """
    n = t.n_orb
    g = t.tbt.reshape(n * n, n * n)
    if np.abs(g - g.T).max() > 1e-10 * max(1.0, np.abs(g).max()):
        raise ValueError("two-electron matrix not symmetric")
    w, v = np.linalg.eigh(g)
    order = np.argsort(-np.abs(w), kind="stable")
    frags = []
    for k in order:
        if abs(w[k]) <= DF_TOL:
            continue
        ell = v[:, k].reshape(n, n)
        ell = 0.5 * (ell + ell.T)
        d, u = np.linalg.eigh(ell)
        eps = np.sqrt(abs(w[k])) * d
        frags.append(Fragment(u, np.sign(w[k]) * np.outer(eps, eps)))
    return frags


def _pair_columns(u):
    """The n^2 x n matrix W with columns vec(u_a u_a^T); they are orthonormal."""
    n = u.shape[0]
    return np.einsum("ia,ja->ija", u, u).reshape(n * n, n)


def _fragment_fit(theta, tbt, obt=None):
    """Squared Frobenius misfit of one orbital-rotated fragment, and its gradient.

    The fragment is the two-body tensor W lam W^T (W = _pair_columns(u),
    u = expm(a(theta))) with lam the projection W^T tbt W.  With obt, the
    one-body matrix u diag(mu) u^T, mu = diag(u^T obt u), is fitted to obt
    too (the interaction-picture split).  At these projections the lam and
    mu gradients vanish, so the theta-gradient is the whole gradient:
    greedy CSA and the split search over theta alone.
    """
    n = tbt.shape[0]
    u, eig = _expm_antisym(_antisymmetric(theta, n))
    w = _pair_columns(u)
    g = tbt.reshape(n * n, n * n)
    tw = g @ w
    lam = w.T @ tw
    # formed directly: |tbt|^2 - |lam|^2 cancels when the fragment explains tbt
    diff = w @ lam @ w.T - g
    cost = (diff * diff).sum()
    # (W lam W^T - tbt) W = W lam - tbt W, since W^T W = 1
    dw = w @ lam - tw
    gu = 8.0 * np.einsum("ija,ja->ia", (dw @ lam).reshape(n, n, n), u)
    if obt is not None:
        mu = _one_body_projection(u, obt)
        da = (u * mu) @ u.T - obt
        cost = (da * da).sum() + cost
        gu = gu + 4.0 * da @ (u * mu)
    return float(cost), _theta_grad(eig, gu)


def _projected_fragment(u, tbt):
    """The fragment in the frame u that best fits tbt: lam = W^T tbt W."""
    n = tbt.shape[0]
    w = _pair_columns(u)
    return Fragment(u, w.T @ tbt.reshape(n * n, n * n) @ w)


def _one_body_projection(u, obt):
    """mu = diag(u^T obt u): the best u diag(mu) u^T fit of obt for this u."""
    return np.einsum("ia,ij,ja->a", u, obt, u)


def _theta_grad(eig, gu):
    """Gradient in theta of a cost of u = expm(a), given its gradient gu in u
    and the eigenpairs (w, v) of i*a from _expm_antisym.

    The adjoint of the exponential's Frechet derivative at a is the
    derivative at a^T: in the eigenbasis, the Hadamard product with
    phi_jk = exp(i (w_j + w_k) / 2) sinc((w_j - w_k) / 2 pi), exact at
    repeated eigenvalues (Daleckii-Krein).  theta_(i>j) enters a at (i, j)
    and, negated, at (j, i).
    """
    w, v = eig
    phi = np.exp(0.5j * (w[:, None] + w)) * np.sinc((w[:, None] - w) / (2 * np.pi))
    vh = v.conj().T
    z = (v @ (phi * (vh @ gu @ v)) @ vh).real
    rows, cols = _tril(v.shape[0], -1)
    return z[rows, cols] - z[cols, rows]


CSA_TOL = 1e-6  # the paper's CSA stopping residual
_CSA_FRAGS_PER_ORBITAL = 50  # CSA fails past this many fragments per orbital
_CSA_TOL_GRAD = 1e-9  # gradient tolerance of each greedy CSA fit


def _df_start(tbt):
    """Theta of a rotation that diagonalizes the leading DF fragment of tbt.

    Its pair columns span the leading eigenvector of the n^2 x n^2 matrix,
    so there the misfit is at most |tbt|^2 - w_max^2 <= (1 - 1/n^2) |tbt|^2.
    The columns (the fragment ignores their order and signs) are moved onto
    a positive diagonal, the smallest flipped back if det is -1, so that
    the log is real and small.  The log is taken from the complex Schur form
    u = Z T Z^H: u is orthogonal, so normal, and T is diagonal, which makes
    the log Z diag(log t_ii) Z^H.
    """
    from scipy.linalg import schur
    from scipy.optimize import linear_sum_assignment

    n = tbt.shape[0]
    w, v = np.linalg.eigh(tbt.reshape(n * n, n * n))
    ell = v[:, np.argmax(np.abs(w))].reshape(n, n)
    u = np.linalg.eigh(0.5 * (ell + ell.T))[1]
    u = u[:, linear_sum_assignment(-np.abs(u))[1]]
    u = u * np.where(np.diag(u) < 0, -1.0, 1.0)
    if np.linalg.det(u) < 0:
        u[:, np.argmin(np.diag(u))] *= -1.0
    tri, z = schur(u, output="complex")
    a = ((z * np.log(np.diag(tri))) @ z.conj().T).real
    return (0.5 * (a - a.T))[_tril(n, -1)]


def csa_greedy(t, seed=0):
    """Greedy CSA: repeatedly fit one fragment to the two-electron residual.

    Each fragment is one BFGS fit of the squared Frobenius norm of
    (residual - fragment) over the rotation theta alone; lam is the
    projection of the residual onto the rotation's pair columns (see
    _fragment_fit).  The fit starts from the residual's leading DF rotation
    (_df_start) plus a seeded perturbation in (-0.01, 0.01), without which
    BFGS can stall on that stationary point.  Stops when the residual
    Frobenius norm falls to CSA_TOL; raises NumericalError if that takes
    more than _CSA_FRAGS_PER_ORBITAL fragments per orbital.
    """
    from .optimize import minimize

    n = t.n_orb
    rng = np.random.default_rng(seed)
    target = t.tbt.copy()
    cap = _CSA_FRAGS_PER_ORBITAL * n
    frags = []
    while True:
        rnorm = float(np.sqrt((target * target).sum()))
        if rnorm <= CSA_TOL:
            return frags
        if len(frags) >= cap:
            raise NumericalError(
                f"CSA exceeded {cap} fragments without reaching {CSA_TOL:g} "
                f"(residual {rnorm:.3e})",
                payload={"residual": rnorm, "n_fragments": len(frags)},
            )
        # fit the unit-normalized residual so the cost stays O(1); the best
        # rotation does not depend on the scale
        scaled = target / rnorm
        x0 = _df_start(scaled) + rng.uniform(-0.01, 0.01, size=theta_dim(n))
        x, fval, _ = minimize(lambda y: _fragment_fit(y, scaled), x0, _CSA_TOL_GRAD, jac=True)
        if fval > 1.0 - 1e-9:
            raise NumericalError(
                f"CSA stagnated at fragment {len(frags)}: residual {rnorm:.3e}",
                payload={"residual": rnorm, "n_fragments": len(frags)},
            )
        frag = _projected_fragment(make_rotation(x), target)
        target -= fragment_tensor(frag)
        frags.append(frag)


def lambda_fermionic(mu, frags):
    """Reflection-LCU 1-norms: (sum_i |mu_i|, sum_m [sum|lam| - half sum|diag|])."""
    l1 = float(np.abs(np.asarray(mu, dtype=float)).sum())
    l2 = 0.0
    for f in frags:
        l2 += float(np.abs(f.lam).sum() - 0.5 * np.abs(np.diag(f.lam)).sum())
    return l1, l2


def lambda_sqrt_fragment(f):
    """Spectral half-range cost of one fragment under square-root unitarization.

    The half-range of the pure two-body reflection polynomial
    (1/4)(sum_ij lam_ij R_i R_j - 2 sum_i lam_ii) over R in {-2,0,2}^N,
    which is rotation invariant.  The 3^N grid is enumerated in batches.
    """
    lam = f.lam
    n = lam.shape[0]
    if n > 16:
        raise NumericalError(f"configuration enumeration infeasible for N = {n}")
    vals = np.array([-2.0, 0.0, 2.0])
    total = len(vals) ** n
    lo, hi = np.inf, -np.inf
    chunk = 1 << 18
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        grid = np.empty((idx.size, n))
        rem = idx
        for p in range(n):
            rem, digit = np.divmod(rem, len(vals))
            grid[:, p] = vals[digit]
        q = np.einsum("bi,ij,bj->b", grid, lam, grid)
        lo = min(lo, q.min())
        hi = max(hi, q.max())
    offset = -2.0 * np.trace(lam)
    return float(0.25 * (0.5 * ((hi + offset) - (lo + offset))))


def lambda_complete_square(f):
    """Chebyshev complete-square cost (sum_i |eps_i|)^2 / 2 of a rank-1
    fragment, lam = +-(eps outer eps).  |eps_i| = sqrt(|lam_ii|) bit for bit:
    a correctly rounded square root returns |x| from fl(x * x)."""
    return float(0.5 * np.sqrt(np.abs(np.diag(f.lam))).sum() ** 2)


def reflection_term_count(lam, cutoff):
    """Number of distinct reflection-pair products with |coefficient| > cutoff:
    one per diagonal entry and four per pair below it, each at |lam_ij| / 2."""
    half = np.abs(lam) / 2.0
    return int(
        np.count_nonzero(np.diag(half) > cutoff)
        + 4 * np.count_nonzero(half[_tril(lam.shape[0], -1)] > cutoff)
    )


def fragments_to_json(frags):
    """Fragments as JSON: each frame u and its lam."""
    return json.dumps([{"u": f.u.tolist(), "lam": f.lam.tolist()} for f in frags])


def fragments_from_json(text):
    return [Fragment(np.asarray(d["u"]), np.asarray(d["lam"])) for d in json.loads(text)]
