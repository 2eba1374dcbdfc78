"""Exact Fock-space spectral computations.

States are organized by (n_alpha, n_beta) particle sectors.  Inside a
sector, a state is a pair of spatial-orbital occupation bitmasks and the
sector vector space is the tensor product (beta-major), so same-spin
excitations act on one factor with no cross-spin signs.  The interleaved
spin-orbital ordering p = 2i + sigma used elsewhere maps onto this blocked
ordering through a signed permutation handled at the Fock-operator
boundary.

The tensors are spin-free, so swapping the spins maps sector (na, nb)
onto (nb, na), and the two share one spectrum; `spectral_range` therefore
diagonalizes only the sectors with nb <= na.  A sector's operator data are
the excitation stacks D_x = E_pq and A_x = sum_y g[y, x] D_y of each spin,
one copy of each: D as an (n^2, d, d) array and A in the flattened
(d, n^2 d) layout it is contracted in, so that the Lanczos matvec runs as
four GEMMs and the dense assembly as one.  That data grows as
n^2 d^2, so `spectral_range` estimates the bytes of its largest sector
first and raises NumericalError above `_SECTOR_BYTES_LIMIT` (1 GiB)
instead of allocating it.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import NumericalError

__all__ = [
    "SpectralRange",
    "FockOperator",
    "spectral_range",
    "minimal_lcu",
]

_DENSE_LIMIT_QUBITS = 14  # full-Fock size threshold for the all-dense path
_DENSE_BLOCK_DIM = 400  # iterative path still diagonalizes small blocks densely
_LANCZOS_CAP = 300
_LANCZOS_TOL = 1e-7
_SECTOR_BYTES_LIMIT = 1 << 30  # operator data one sector may take


def _sector_basis(n, k):
    masks = []
    for pos in combinations(range(n), k):
        m = 0
        for p in pos:
            m |= 1 << p
        masks.append(m)
    return masks


def _excitation_stack(n, masks):
    """Dense D[(p,q)] = E_pq on the span of `masks` (single spin species)."""
    d = len(masks)
    index = {m: i for i, m in enumerate(masks)}
    stack = np.zeros((n * n, d, d))
    for col, m in enumerate(masks):
        for q in range(n):
            if not (m >> q) & 1:
                continue
            m2 = m ^ (1 << q)
            s1 = -1.0 if ((m & ((1 << q) - 1)).bit_count() & 1) else 1.0
            for p in range(n):
                if (m2 >> p) & 1:
                    continue
                m3 = m2 | (1 << p)
                s2 = -1.0 if ((m2 & ((1 << p) - 1)).bit_count() & 1) else 1.0
                stack[p * n + q, index[m3], col] += s1 * s2
    return stack


def _spin_block(t, masks):
    """Operator data of one spin species on the span of `masks`: the stack
    D[x] = E_pq (x = p*n + q), the stack A[x] = sum_y g[y, x] D[y] held in
    its GEMM layout a_rows[A, (x, B)] = A[x][A, B], and sum_x h_x D[x]."""
    n = t.n_orb
    d = _excitation_stack(n, masks)
    g = t.tbt.reshape(n * n, n * n)
    a_rows = np.matmul(g.T, d.transpose(1, 0, 2)).reshape(len(masks), -1)
    m = (t.obt.reshape(-1) @ d.reshape(n * n, -1)).reshape(len(masks), len(masks))
    return d, a_rows, m


class _Sector:
    """All operator data for one (n_alpha, n_beta) block.

    A sector vector is held as a (db, da) matrix v[B, a], so an operator
    X_beta (x) Y_alpha acts as X @ v @ Y.T.  The Hamiltonian is
    e0 + sum_x h_x D_x + sum_x A_x D_x, with D and A summed over both spins.
    Each spin keeps one copy of each stack, so the data of a sector with
    n_alpha == n_beta is shared by both spins.
    """

    def __init__(self, t, n_alpha, n_beta):
        n = t.n_orb
        self.masks_a = _sector_basis(n, n_alpha)
        self.masks_b = _sector_basis(n, n_beta)
        self.da = len(self.masks_a)
        self.db = len(self.masks_b)
        self.dim = self.da * self.db
        self.d_a, self.a_a_rows, self.m_a = _spin_block(t, self.masks_a)
        if n_beta == n_alpha:
            self.d_b, self.a_b_rows, self.m_b = self.d_a, self.a_a_rows, self.m_a
        else:
            self.d_b, self.a_b_rows, self.m_b = _spin_block(t, self.masks_b)
        self.e0 = t.e0

    def dense(self):
        nn, da, db = len(self.d_a), self.da, self.db
        a_a = self.a_a_rows.reshape(da, nn, da).transpose(1, 0, 2)
        a_b = self.a_b_rows.reshape(db, nn, db).transpose(1, 0, 2)
        eye_a, eye_b = np.eye(da), np.eye(db)
        ha = self.m_a + np.tensordot(a_a, self.d_a, axes=([0, 2], [0, 1]))
        hb = self.m_b + np.tensordot(a_b, self.d_b, axes=([0, 2], [0, 1]))
        ha += self.e0 * eye_a
        # h[(A, a), (B, b)] = sum_k left_k[A, B] right_k[a, b] over the cross
        # terms D_x (x) A_x and A_x (x) D_x, then 1 (x) ha and hb (x) 1: one
        # GEMM and one transpose, holding two dim x dim arrays at most
        left = np.concatenate([self.d_b, a_b, eye_b[None], hb[None]])
        right = np.concatenate([a_a, self.d_a, ha[None], eye_a[None]])
        h = (left.reshape(-1, db * db).T @ right.reshape(-1, da * da)).reshape(
            db, db, da, da
        )
        return h.transpose(0, 2, 1, 3).reshape(self.dim, self.dim)

    def matvec(self, vec):
        nn, da, db = len(self.d_a), self.da, self.db
        v = vec.reshape(db, da)
        w = self.m_b @ v + v @ self.m_a.T + self.e0 * v
        # D_x v = D_x[beta] @ v + (D_x[alpha] @ v.T).T, in both orientations:
        # t_b[x] = D_x v and t_a[x] = (D_x v).T
        t_b = (self.d_b.reshape(nn * db, db) @ v).reshape(nn, db, da)
        t_a = (self.d_a.reshape(nn * da, da) @ v.T).reshape(nn, da, db)
        t_a += t_b.transpose(0, 2, 1)
        t_b[...] = t_a.transpose(0, 2, 1)
        # sum_x A_x[beta] t_b[x] + (sum_x A_x[alpha] t_a[x]).T
        w += self.a_b_rows @ t_b.reshape(nn * db, da)
        w += (self.a_a_rows @ t_a.reshape(nn * da, db)).T
        return w.ravel()


def _lanczos_extremes(matvec, dim, tol=_LANCZOS_TOL, cap=_LANCZOS_CAP):
    """Both extremal eigenvalues from one Krylov run, full reorthogonalization.

    Returns (e_min, e_max, residual bound).  Deterministic start vector.
    """
    rng = np.random.default_rng(1905)
    q = rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    basis = [q]
    alphas, betas = [], []
    steps = min(dim, cap)
    for j in range(steps):
        w = matvec(basis[-1])
        a = float(basis[-1] @ w)
        alphas.append(a)
        w = w - a * basis[-1]
        if j > 0:
            w = w - betas[-1] * basis[-2]
        qmat = np.asarray(basis).T
        w = w - qmat @ (qmat.T @ w)
        w = w - qmat @ (qmat.T @ w)
        b = float(np.linalg.norm(w))
        tmat_vals, tmat_vecs = _tridiag_eig(alphas, betas)
        res = b * max(abs(tmat_vecs[-1, 0]), abs(tmat_vecs[-1, -1]))
        if res <= tol or b < 1e-13 or j == dim - 1:
            return float(tmat_vals[0]), float(tmat_vals[-1]), res
        betas.append(b)
        basis.append(w / b)
    raise NumericalError(
        f"Lanczos failed to converge in {steps} steps (residual {res:.3e})",
        payload={"residual": res},
    )


def _tridiag_eig(alphas, betas):
    from scipy.linalg import eigh_tridiagonal

    if len(alphas) == 1:
        return np.array(alphas), np.ones((1, 1))
    return eigh_tridiagonal(np.asarray(alphas), np.asarray(betas))


@dataclass
class SpectralRange:
    e_min: float
    e_max: float
    method: str
    residual: float

    def __post_init__(self):
        if self.e_min > self.e_max:
            raise ValueError("e_min exceeds e_max")

    @property
    def half_range(self):
        return 0.5 * (self.e_max - self.e_min)


def _dense_sector(n, na, nb, method):
    return method == "dense" or comb(n, na) * comb(n, nb) <= _DENSE_BLOCK_DIM


def _sector_bytes(n, na, nb, method):
    """Estimated bytes of one sector's operator data: the D and A stacks of
    both spins, plus the work arrays of the path that diagonalizes it (the
    two D_x v stacks of a matvec, or the GEMM operands of dense() and the
    dim x dim arrays that it and eigvalsh hold at once)."""
    da, db = comb(n, na), comb(n, nb)
    stacks = 2 * n * n * (da * da + db * db)
    if _dense_sector(n, na, nb, method):
        work = stacks + 3 * (da * db) ** 2
    else:
        work = 2 * n * n * da * db
    return 8 * (stacks + work)


def _check_size(n, method):
    """Raise before any allocation if the largest sector would not fit."""
    sizes = {
        (na, nb): _sector_bytes(n, na, nb, method)
        for na in range(n + 1)
        for nb in range(na + 1)
    }
    (na, nb), size = max(sizes.items(), key=lambda item: item[1])
    if size > _SECTOR_BYTES_LIMIT:
        raise NumericalError(
            f"spectral range: sector (n_alpha={na}, n_beta={nb}) needs about "
            f"{size / 2**30:.1f} GiB of operator data, above the "
            f"{_SECTOR_BYTES_LIMIT / 2**30:.0f} GiB limit",
            payload={"sector": (na, nb), "bytes": size},
        )


def spectral_range(t, method=None):
    """Extremes of the Hamiltonian over the whole Fock space.

    Dense per-sector diagonalization up to 14 spin-orbitals; above that,
    Lanczos on the large sectors (small ones stay dense).  `method` forces
    a path ("dense"/"iterative") for cross-checks.  Only sectors with
    n_beta <= n_alpha are diagonalized: swapping the spins of the spin-free
    tensors maps sector (na, nb) onto (nb, na), so both have one spectrum.
    Raises NumericalError, before building any sector, when the largest
    sector's operator data would exceed `_SECTOR_BYTES_LIMIT`.
    """
    n = t.n_orb
    if method is None:
        method = "dense" if 2 * n <= _DENSE_LIMIT_QUBITS else "iterative"
    if method not in ("dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    _check_size(n, method)
    e_min, e_max = np.inf, -np.inf
    worst = 0.0
    for na in range(n + 1):
        for nb in range(na + 1):
            sec = _Sector(t, na, nb)
            if _dense_sector(n, na, nb, method):
                vals = np.linalg.eigvalsh(sec.dense())
                lo, hi = float(vals[0]), float(vals[-1])
            else:
                lo, hi, res = _lanczos_extremes(sec.matvec, sec.dim)
                worst = max(worst, res)
            e_min = min(e_min, lo)
            e_max = max(e_max, hi)
    return SpectralRange(e_min, e_max, method, worst)


class FockOperator:
    """Hamiltonian action on the full 2^(2N) Fock space, interleaved ordering.

    Bit p of a basis index is the occupation of spin-orbital p = 2i + sigma.
    Internally blocked by particle sectors; the reordering between the
    interleaved creation-operator string and the blocked
    (alpha-then-beta) string contributes the per-state sign below.
    """

    def __init__(self, t):
        self.n_spin_orb = 2 * t.n_orb
        n = t.n_orb
        self._sectors = []
        for na in range(n + 1):
            for nb in range(n + 1):
                sec = _Sector(t, na, nb)
                idx = np.empty(sec.dim, dtype=np.int64)
                sgn = np.empty(sec.dim)
                for rb, mb in enumerate(sec.masks_b):
                    for ra, ma in enumerate(sec.masks_a):
                        s = 0
                        for i in range(n):
                            if (ma >> i) & 1:
                                s |= 1 << (2 * i)
                            if (mb >> i) & 1:
                                s |= 1 << (2 * i + 1)
                        crossings = 0
                        for i in range(n):
                            if (mb >> i) & 1:
                                crossings += (ma >> (i + 1)).bit_count()
                        idx[rb * sec.da + ra] = s
                        sgn[rb * sec.da + ra] = -1.0 if crossings & 1 else 1.0
                self._sectors.append((sec, idx, sgn))

    @property
    def dim(self):
        return 1 << self.n_spin_orb

    def apply(self, vec):
        vec = np.asarray(vec)
        out = np.zeros(self.dim, dtype=vec.dtype)
        for sec, idx, sgn in self._sectors:
            block_in = sgn * vec[idx]
            out[idx] = sgn * sec.matvec(block_in)
        return out

    def dense(self):
        if self.n_spin_orb > 10:
            raise NumericalError("dense Fock assembly limited to 10 spin-orbitals")
        h = np.zeros((self.dim, self.dim))
        for sec, idx, sgn in self._sectors:
            h[np.ix_(idx, idx)] = np.outer(sgn, sgn) * sec.dense()
        return h


def minimal_lcu(t):
    """Two-reflection LCU achieving the 1-norm lower bound.

    Returns (gamma, coeff, u_plus, u_minus) with
    H = gamma*1 + coeff*(u_plus + u_minus), gamma = e_min + (e_max-e_min)/2
    and coeff = (e_max-e_min)/4; the achieved 1-norm 2*coeff is exactly the
    spectral half-range.  Dense diagnostic construction.
    """
    if 2 * t.n_orb > 8:
        raise NumericalError("minimal_lcu limited to 8 spin-orbitals")
    h = FockOperator(t).dense()
    vals, vecs = np.linalg.eigh(h)
    e_min, e_max = float(vals[0]), float(vals[-1])
    delta = e_max - e_min
    gamma = e_min + 0.5 * delta
    if delta < 1e-14:
        dim = h.shape[0]
        return gamma, 0.0, np.eye(dim, dtype=complex), np.eye(dim, dtype=complex)
    scaled = (2.0 * vals - (e_max + e_min)) / delta
    scaled = np.clip(scaled, -1.0, 1.0)
    phases = scaled + 1j * np.sqrt(1.0 - scaled * scaled)
    u_plus = (vecs * phases) @ vecs.conj().T
    u_minus = (vecs * phases.conj()) @ vecs.conj().T
    return gamma, 0.25 * delta, u_plus, u_minus
