"""Sparse Pauli operator algebra with the Jordan-Wigner mapping.

Spin-orbitals map to qubits as p = 2*i + sigma (interleaved spins), i
0-based spatial.  Pauli words are stored as (x, z) bitmasks where qubit q
carries X when bit q of x is set, Z when bit q of z is set, and Y when both
are set; the word operator is the literal tensor product of those letters.
"""

from functools import lru_cache

import numpy as np

from .fragments import _tril
from .tensors import _one_body_adjust

__all__ = [
    "PauliPolynomial",
    "jordan_wigner",
    "lambda_pauli_closed_form",
]

_LETTERS = "IXZY"  # indexed by x_bit + 2*z_bit
PRUNE_TOL = 1e-14


def _mul_masks(x1, z1, x2, z2):
    """Product of two letter words: returns (k, x3, z3) with P1 P2 = i^k P3."""
    x3 = x1 ^ x2
    z3 = z1 ^ z2
    k = (
        (x1 & z1).bit_count()
        + (x2 & z2).bit_count()
        - (x3 & z3).bit_count()
        + 2 * (z1 & x2).bit_count()
    ) % 4
    return k, x3, z3


def _word_string(n_qubits, x, z):
    """Letters of the word (x, z), qubit 0 first."""
    return "".join(_LETTERS[((x >> q) & 1) + 2 * ((z >> q) & 1)] for q in range(n_qubits))


class PauliPolynomial:
    """Real linear combination of Pauli words, keyed by (x, z) masks.

    Coefficients below 1e-14 are dropped at construction.  The identity
    coefficient is kept in the map but excluded from the 1-norm.
    """

    def __init__(self, n_qubits, terms=None):
        self.n_qubits = n_qubits
        self._terms = {key: float(c) for key, c in (terms or {}).items() if abs(c) >= PRUNE_TOL}

    def __len__(self):
        return len(self._terms)

    def raw_items(self):
        return self._terms.items()


def _ladder_terms(p, dagger):
    """JW expansion of a_p (or a^dag_p) as [(complex coeff, x, z)]."""
    zlow = (1 << p) - 1
    sgn = -1j if dagger else 1j
    return [(0.5, 1 << p, zlow), (0.5 * sgn, 1 << p, zlow | (1 << p))]


def _excitation_terms(p, q):
    """JW expansion of E^p_q = a^dag_p a_q over spin-orbital (qubit) indices."""
    out = {}
    for c1, x1, z1 in _ladder_terms(p, True):
        for c2, x2, z2 in _ladder_terms(q, False):
            k, x3, z3 = _mul_masks(x1, z1, x2, z2)
            key = (x3, z3)
            out[key] = out.get(key, 0.0) + c1 * c2 * 1j**k
    return [(c, x, z) for (x, z), c in out.items() if abs(c) > 0.0]


def jordan_wigner(t):
    """Map chemist-form tensors to qubits.

    Returns a PauliPolynomial over 2N qubits whose dense matrix equals the
    Fock-space matrix of the input.
    """
    m = 2 * t.n_orb
    exc = {}
    for p in range(m):
        for q in range(m):
            exc[(p, q)] = _excitation_terms(p, q)

    acc = {(0, 0): complex(t.e0)}

    def add(scale, terms):
        for c, x, z in terms:
            key = (x, z)
            acc[key] = acc.get(key, 0.0) + scale * c

    for i, j in zip(*np.nonzero(np.abs(t.obt) > PRUNE_TOL)):
        for s in (0, 1):
            add(t.obt[i, j], exc[(2 * i + s, 2 * j + s)])

    prod_cache = {}
    g = t.tbt
    for same_spin in (True, False):
        for i, j, k, l in zip(*np.nonzero(np.abs(g) > PRUNE_TOL)):
            v = g[i, j, k, l]
            for s in (0, 1):
                sp = s if same_spin else 1 - s
                pq = (2 * i + s, 2 * j + s, 2 * k + sp, 2 * l + sp)
                terms = prod_cache.get(pq)
                if terms is None:
                    combined = {}
                    for c1, x1, z1 in exc[pq[:2]]:
                        for c2, x2, z2 in exc[pq[2:]]:
                            kk, x3, z3 = _mul_masks(x1, z1, x2, z2)
                            key = (x3, z3)
                            combined[key] = combined.get(key, 0.0) + c1 * c2 * 1j**kk
                    terms = [(c, x, z) for (x, z), c in combined.items()]
                    prod_cache[pq] = terms
                add(v, terms)

    worst = max((abs(c.imag) for c in acc.values()), default=0.0)
    if worst > 1e-10:
        raise ValueError(f"non-Hermitian accumulation: residual imag {worst:.3e}")
    return PauliPolynomial(m, {key: c.real for key, c in acc.items()})


def lambda_pauli_closed_form(t):
    """Pauli 1-norm straight from the tensors, no qubit expansion.

    Sum of |h~_ij + 2 sum_k g~_ijkk|, the strict same-spin differences
    |g~_ijkl - g~_ilkj| over i>k, j>l, and half the total |g~| mass.
    """
    return _closed_form(t.obt, t.tbt)


def _closed_form(obt, g, width=0.0, grad=False):
    """The closed form on bare arrays, each |x| replaced by _huber(x, width).

    With grad=True, returns (cost, s1, dg): s1 is the gradient in the
    adjusted one-body matrix, dg the gradient in g, through the adjusted
    matrix too.
    """
    n = obt.shape[0]
    adj = _one_body_adjust(obt, g)
    diff = g - g.transpose(0, 3, 2, 1)
    mask = _pair_mask(n)
    term1 = _huber(adj, width).sum()
    term2 = float((_huber(diff, width) * mask).sum())
    term3 = 0.5 * _huber(g, width).sum()
    cost = float(term1 + term2 + term3)
    if not grad:
        return cost
    s1 = _huber_grad(adj, width)
    m = _huber_grad(diff, width) * mask
    dg = 0.5 * _huber_grad(g, width) + m - m.transpose(0, 3, 2, 1)
    dg += 2.0 * s1[:, :, None, None] * np.eye(n)
    return cost, s1, dg


def _huber(x, width):
    """Pseudo-Huber surrogate sqrt(x^2 + w^2) - w of |x|; |x| itself at w = 0."""
    if width == 0.0:
        return np.abs(x)
    return np.sqrt(x * x + width * width) - width


def _huber_grad(x, width):
    """Derivative of _huber in x; the subgradient sign(x) at w = 0."""
    if width == 0.0:
        return np.sign(x)
    return x / np.sqrt(x * x + width * width)


@lru_cache(maxsize=None)
def _pair_mask(n):
    """mask[i, j, k, l] = (i > k) and (j > l), read-only."""
    gt = np.zeros((n, n), dtype=bool)
    gt[_tril(n, -1)] = True
    mask = gt[:, None, :, None] & gt[None, :, None, :]
    mask.flags.writeable = False
    return mask
