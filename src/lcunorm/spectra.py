"""Exact Fock-space spectral computations.

States are organized by (n_alpha, n_beta) particle sectors.  Inside a
sector, a state is a pair of spatial-orbital occupation bitmasks and the
sector vector space is the tensor product (beta-major), so same-spin
excitations act on one factor with no cross-spin signs.

The tensors are spin-free, so the Hamiltonian commutes with S^2 and S+-:
a level of spin S has a state at each S_z = -S..S, so it appears in the
sector of its electron number with n_alpha - n_beta in {0, 1}, and
`spectral_range` visits only those 2n + 1 sectors.  Inside a sector the
Hamiltonian is a same-spin operator for each spin plus one cross-spin sum
sum_y D_y (x) At_y, beta excitations D_y = E_pq against alpha partners At_y
weighted by g + g.T.  A sector keeps only the dense At and the sparse D
(each beta state has k + k(n - k) incoming excitations).  A matvec forms
v @ At_y.T only on the beta states that D_y reads, in at most two batched
GEMMs, and one sparse product; Lanczos, the plain three-term recurrence,
stores no Krylov basis.  The dense stack grows as n^2 d^2, so
`spectral_range` estimates the peak bytes of its largest sector first and
raises NumericalError above `_SECTOR_BYTES_LIMIT` (1 GiB) instead.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import NumericalError
from .pauli import jordan_wigner
from .work import add

__all__ = [
    "SpectralRange",
    "spectral_range",
    "minimal_lcu",
]

_LANCZOS_CAP = 300
_LANCZOS_TOL = 1e-7
_SECTOR_BYTES_LIMIT = 1 << 30  # memory one sector may take


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


def _spin_parts(t, masks):
    """One spin species on the span of `masks`: the excitation stack
    D[x] = E_pq (x = p*n + q) and the same-spin operator
    sum_x h_x D_x + sum_xy g[y, x] D_y D_x."""
    n = t.n_orb
    d = _excitation_stack(n, masks)
    g = t.tbt.reshape(n * n, n * n)
    # A[x] = sum_y g[y, x] D[y] in its GEMM layout a_rows[A, (x, B)]
    a_rows = np.matmul(g.T, d.transpose(1, 0, 2)).reshape(len(masks), -1)
    h = a_rows @ d.reshape(-1, len(masks))
    h += (t.obt.reshape(-1) @ d.reshape(n * n, -1)).reshape(h.shape)
    return d, h


class _Sector:
    """All operator data for one (n_alpha, n_beta) block.

    A sector vector is held as a (db, da) matrix v[B, a], so an operator
    X_beta (x) Y_alpha acts as X @ v @ Y.T.  With E_x = D_x[alpha] +
    D_x[beta], the Hamiltonian e0 + sum_x h_x E_x + sum_xy g[y, x] E_y E_x
    splits into the same-spin operators `ha` (e0 folded in) and `hb` and
    the cross-spin sum_y D_y[beta] (x) At_y[alpha], where
    At_y = sum_x (g + g.T)[y, x] D_x collects both orderings of the pair
    exactly, whatever the symmetry of g.  D_y[B, B'] = 0 where E_y B' = 0,
    so per group of y the matvec multiplies only the rows v[b] (y, k, a')
    by At_y.T (y, a', a), into the buffer `rows` in the column order of
    the sparse d_rows[B, (y, k)] = D_y[B, b[y, k]].
    """

    def __init__(self, t, n_alpha, n_beta):
        from scipy.sparse import csr_array

        n = t.n_orb
        masks_a = _sector_basis(n, n_alpha)
        masks_b = _sector_basis(n, n_beta)
        self.da = len(masks_a)
        self.db = len(masks_b)
        self.dim = self.da * self.db
        d, self.hb = _spin_parts(t, masks_b)
        # each hop y = (p, q != p) reads as many B' as any other, and so does
        # each number operator (p = q): grouped by that count, at most two GEMMs
        nz = d.any(axis=1)  # nz[y, B'] = (E_y B' != 0)
        sizes = nz.sum(axis=1)
        groups = {s: np.flatnonzero(sizes == s) for s in np.unique(sizes)}
        blocks = [np.nonzero(nz[y])[1].reshape(y.size, s) for s, y in groups.items()]
        ys = np.concatenate([np.repeat(y, s) for s, y in groups.items()])
        self.d_rows = csr_array(d[ys, :, np.concatenate(blocks, axis=None)].T)
        h_a = self.hb
        if n_alpha != n_beta:
            del d  # the beta stack lives on only as d_rows
            d, h_a = _spin_parts(t, masks_a)
        self.ha = h_a + t.e0 * np.eye(self.da)
        g = t.tbt.reshape(n * n, n * n)
        # At_y.T[a', a] = sum_x G[y, x] D_x[a, a'] = sum_x G[y, x^T] D_x[a', a],
        # since D_x.T = D_(x^T), so each group's partners are one GEMM
        g_sym = (g + g.T).reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(n * n, n * n)
        partners = [g_sym[y] @ d.reshape(n * n, -1) for y in groups.values()]
        del d  # so the build's peak does not also hold the buffer
        self.rows = np.empty((ys.size, self.da))
        outs = np.split(self.rows, np.cumsum([b.size for b in blocks])[:-1])
        self.products = [
            (b, at.reshape(-1, self.da, self.da), out.reshape(*b.shape, self.da))
            for b, at, out in zip(blocks, partners, outs)
        ]

    def matvec(self, vec):
        v = vec.reshape(self.db, self.da)
        w = self.hb @ v + v @ self.ha.T
        # sum_y D_y[beta] @ v @ At_y[alpha].T: the GEMMs fill the rows
        # (B', y) that d_rows reads, and the sparse product contracts them
        for b, at, out in self.products:
            np.matmul(v[b], at, out=out)
        w += self.d_rows @ self.rows
        add(matvecs=1, cross_spin_rows=self.rows.shape[0])
        return w.ravel()


def _lanczos_extremes(matvec, dim):
    """Both extremal eigenvalues from one Krylov run of the three-term
    recurrence, which holds the current and the previous vector only.

    Without reorthogonalization the Lanczos vectors lose orthogonality as
    Ritz values converge, and copies of converged ones appear, but the
    extremes still converge (Paige, 1976; Cullum & Willoughby, 1985).  So
    the run cannot stop by exhausting the Krylov space: it stops once the
    residual bound is below `_LANCZOS_TOL` or the next vector vanishes, and
    raises NumericalError after `_LANCZOS_CAP` steps, also for an operator
    of lower dimension whose extremes have not converged by then.  Returns
    (e_min, e_max, residual bound).  Deterministic start vector.
    """
    rng = np.random.default_rng(1905)
    q = rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    alphas, betas = np.empty(_LANCZOS_CAP), np.empty(_LANCZOS_CAP)
    for j in range(_LANCZOS_CAP):
        w = matvec(q)
        a = float(q @ w)
        alphas[j] = a
        w = w - a * q
        if j:
            w = w - betas[j - 1] * q_prev
        b = float(np.linalg.norm(w))
        (lo, last_lo), (hi, last_hi) = _tridiag_extremes(alphas[: j + 1], betas[:j])
        res = b * max(abs(last_lo), abs(last_hi))
        if res <= _LANCZOS_TOL or b < 1e-13:
            return lo, hi, res
        betas[j] = b
        w /= b
        q_prev, q = q, w
    raise NumericalError(
        f"Lanczos reached its {_LANCZOS_CAP}-step cap (residual {res:.3e})",
        payload={"residual": res},
    )


def _tridiag_extremes(alphas, betas):
    """[(value, last eigenvector component)] of the lowest and the highest
    eigenpair of the symmetric tridiagonal matrix with diagonal `alphas`
    and off-diagonal `betas`; LAPACK's MRRR solver computes just those two."""
    from scipy.linalg.lapack import dstemr

    ends = []
    for i in (1, len(alphas)):
        # dstemr takes the off-diagonal padded to length m and overwrites it
        _, w, z, info = dstemr(alphas, np.append(betas, 0.0), 2, 0.0, 0.0, i, i)
        if info:
            raise NumericalError(f"tridiagonal eigensolver failed (info {info})")
        ends.append((float(w[0]), float(z[-1, 0])))
    return ends


@dataclass
class SpectralRange:
    e_min: float
    e_max: float
    residual: float

    def __post_init__(self):
        if self.e_min > self.e_max:
            raise ValueError("e_min exceeds e_max")

    @property
    def half_range(self):
        return 0.5 * (self.e_max - self.e_min)


def _sectors(n):
    """The sectors `spectral_range` visits: n_alpha - n_beta in {0, 1},
    one per electron number 0..2n."""
    return [((m + 1) // 2, m // 2) for m in range(2 * n + 1)]


def _sector_bytes(n, na, nb):
    """Estimated peak bytes of one sector: the larger of what is held while
    it is built (a dense excitation stack next to its product with g, three
    same-spin blocks, g + g.T twice and the row indices) and while Lanczos
    runs (the partner stacks, a matvec's rows and their gathered operand,
    the same-spin blocks and five sector vectors: the recurrence's current
    and previous one and the matvec's result and products), plus the
    sparse d_rows stack, one entry per row read."""
    da, db = comb(n, na), comb(n, nb)
    dim = da * db
    reads = db * (nb + nb * (n - nb))
    build = 2 * n * n * max(da, db) ** 2 + 3 * max(da, db) ** 2 + 2 * n**4 + 3 * reads
    run = n * n * da * da + 2 * reads * da + da * da + db * db + 5 * dim
    # d_rows: a value and a 32-bit column index per entry, a pointer per row
    sparse = 12 * reads + 4 * (db + 1)
    return 8 * max(build, run) + sparse


def _check_size(n):
    """Raise before any allocation if the largest visited sector would not fit."""
    (na, nb), size = max(
        ((s, _sector_bytes(n, *s)) for s in _sectors(n)), key=lambda item: item[1]
    )
    if size > _SECTOR_BYTES_LIMIT:
        raise NumericalError(
            f"spectral range: sector (n_alpha={na}, n_beta={nb}) needs about "
            f"{size / 2**30:.1f} GiB, above the "
            f"{_SECTOR_BYTES_LIMIT / 2**30:.0f} GiB limit",
            payload={"sector": (na, nb), "bytes": size},
        )


def spectral_range(t):
    """Extremes of the Hamiltonian over the whole Fock space.

    The tensors are spin-free, so the Hamiltonian commutes with S^2 and
    S+-: each level belongs to a multiplet with S >= |S_z| and so has a
    state with n_alpha - n_beta in {0, 1}.  Lanczos therefore runs on
    those 2n + 1 sectors only; the residual is the worst bound over them.
    Raises NumericalError, before building any sector, when the largest
    of them would exceed `_SECTOR_BYTES_LIMIT`, and when a sector's
    Lanczos run reaches `_LANCZOS_CAP` steps.  Adds the sectors, their
    Lanczos matvecs and the rows of the matvecs' cross-spin products
    (`_Sector.rows`, summed over matvecs) to the open `work.counting()`
    blocks as sectors, matvecs and cross_spin_rows.
    """
    n = t.n_orb
    _check_size(n)
    e_min, e_max = np.inf, -np.inf
    worst = 0.0
    for na, nb in _sectors(n):
        sec = _Sector(t, na, nb)
        add(sectors=1)
        lo, hi, res = _lanczos_extremes(sec.matvec, sec.dim)
        del sec  # the next sector is built alone, as _check_size counts it
        worst = max(worst, res)
        e_min = min(e_min, lo)
        e_max = max(e_max, hi)
    return SpectralRange(e_min, e_max, worst)


def minimal_lcu(t):
    """Two-reflection LCU achieving the 1-norm lower bound.

    Returns (gamma, coeff, u_plus, u_minus) with
    H = gamma*1 + coeff*(u_plus + u_minus), gamma = e_min + (e_max-e_min)/2
    and coeff = (e_max-e_min)/4; the achieved 1-norm 2*coeff is exactly the
    spectral half-range.  Dense diagnostic construction on the
    Jordan-Wigner matrix, which is real for real tensors (every word has an
    even number of Y letters); NumericalError above 5 orbitals.
    """
    h = jordan_wigner(t).dense().real
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
    u_plus = (vecs * phases) @ vecs.T
    u_minus = (vecs * phases.conj()) @ vecs.T
    return gamma, 0.25 * delta, u_plus, u_minus
