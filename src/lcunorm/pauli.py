"""Sparse Pauli operator algebra with the Jordan-Wigner mapping.

Spin-orbitals map to qubits as p = 2*i + sigma (interleaved spins), i
0-based spatial.  A Pauli word is a pair of bitmasks (x, z): qubit q
carries X when bit q of x is set, Z when bit q of z is set, and Y when both
are set; the word operator is the literal tensor product of those letters.
The two masks are packed into one uint64 key, x << 32 | z, which caps the
qubit count at MAX_QUBITS.
"""

from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .fragments import _tril
from .tensors import _one_body_adjust

__all__ = [
    "PauliPolynomial",
    "jordan_wigner",
    "lambda_pauli_closed_form",
]

PRUNE_TOL = 1e-14
MAX_QUBITS = 32  # each mask takes one half of a 64-bit key
_DENSE_QUBITS = 10  # largest polynomial `dense` assembles: a 16 MiB matrix
_HALF = np.uint64(MAX_QUBITS)
_JW_BLOCK = 256  # nonzero (ij|kl) that jordan_wigner expands at a time
_PHASES = np.array([1, 1j, -1, -1j])


def _check_qubits(n_qubits):
    if n_qubits > MAX_QUBITS:
        raise NumericalError(
            f"{n_qubits} qubits exceed the {MAX_QUBITS}-qubit limit of 64-bit "
            f"packed Pauli keys ({MAX_QUBITS // 2} orbitals)"
        )


def _unpack(keys):
    """The (x, z) masks of packed keys."""
    return keys >> _HALF, keys & ((np.uint64(1) << _HALF) - np.uint64(1))


class PauliPolynomial:
    """Real linear combination of distinct Pauli words: packed keys and coefficients.

    Coefficients below 1e-14 are dropped at construction.  The identity
    (key 0) is kept but excluded from the 1-norm.
    """

    def __init__(self, n_qubits, keys, coeffs):
        _check_qubits(n_qubits)
        keys = np.asarray(keys, dtype=np.uint64)
        coeffs = np.asarray(coeffs, dtype=float)
        keep = np.abs(coeffs) >= PRUNE_TOL
        self.n_qubits = n_qubits
        self.keys = keys[keep]
        self.coeffs = coeffs[keep]

    def __len__(self):
        return len(self.keys)

    def dense(self):
        """The 2^n matrix, bit q of a basis index as qubit q.

        Complex, since a lone Y word is imaginary.  Raises NumericalError
        above 10 qubits before allocating.
        """
        if self.n_qubits > _DENSE_QUBITS:
            raise NumericalError(
                f"a dense matrix of {self.n_qubits} qubits exceeds the "
                f"{_DENSE_QUBITS}-qubit limit"
            )
        dim = 1 << self.n_qubits
        out = np.zeros((dim, dim), dtype=complex)
        cols = np.arange(dim)
        x, z = (m.astype(np.int64) for m in _unpack(self.keys))
        phases = self.coeffs * _PHASES[np.bitwise_count(x & z) % 4]
        # the word is i^|x&z| X^x Z^z: column j goes to row j ^ x with sign (-1)^|z&j|
        for xi, zi, c in zip(x, z, phases):
            out[cols ^ xi, cols] += np.where(np.bitwise_count(cols & zi) & 1, -c, c)
        return out


def _product(a, b):
    """Broadcast products of words (x, z, c): P1 P2 = i^k P3 with its phase."""
    (x1, z1, c1), (x2, z2, c2) = a, b
    x3, z3 = x1 ^ x2, z1 ^ z2
    count = np.bitwise_count
    k = count(x1 & z1).astype(int) + count(x2 & z2) - count(x3 & z3) + 2 * count(z1 & x2)
    return x3, z3, c1 * c2 * _PHASES[k % 4]


def jordan_wigner(t):
    """Map chemist-form tensors to qubits.

    Returns a PauliPolynomial over 2N qubits whose dense matrix equals the
    Fock-space matrix of the input.  The two-body words are expanded
    _JW_BLOCK nonzero integrals at a time, so the transient memory is bounded
    by the block and the table of distinct words, not by the integral count.
    Each word's coefficient is summed from 0.0 in one fixed order: the
    identity, the one-body words, then the two-body words in C order of
    (ij|kl), whatever the block size.
    """
    m = 2 * t.n_orb
    _check_qubits(m)
    # a^dag_p = (X_p - i Y_p) Z_{<p} / 2 and a_p = (X_p + i Y_p) Z_{<p} / 2
    bit = np.left_shift(np.uint64(1), np.arange(m, dtype=np.uint64))
    x = np.stack([bit, bit], axis=1)
    z = np.stack([bit - 1, (bit - 1) | bit], axis=1)
    up = (x[:, None, :, None], z[:, None, :, None], np.array([0.5, -0.5j])[:, None])
    down = (x[None, :, None, :], z[None, :, None, :], np.array([0.5, 0.5j]))
    # E^p_q = a^dag_p a_q over spin-orbitals: (m, m, 4) arrays of words
    exc = [a.reshape(m, m, 4) for a in np.broadcast_arrays(*_product(up, down))]

    i, j = np.nonzero(np.abs(t.obt) > PRUNE_TOL)
    p, q = (np.concatenate([2 * a, 2 * a + 1]) for a in (i, j))
    x, z, c = (a[p, q] for a in exc)
    one = (x, z, c * np.tile(t.obt[i, j], 2)[:, None])
    ident = (np.zeros(1, np.uint64), np.zeros(1, np.uint64), np.array([t.e0 + 0j]))
    keys, sums = _accumulate(np.zeros(0, np.uint64), np.zeros(0, complex), ident)
    keys, sums = _accumulate(keys, sums, one)

    # (ij|kl) acts on the spin pairs (s, s') = 00, 01, 10, 11: E^is_js E^ks'_ls'
    s, sp = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    nonzero = np.flatnonzero(np.abs(t.tbt) > PRUNE_TOL)
    for start in range(0, nonzero.size, _JW_BLOCK):
        idx = np.unravel_index(nonzero[start : start + _JW_BLOCK], t.tbt.shape)
        p, q, r, u = (2 * a[:, None] + b for a, b in zip(idx, (s, s, sp, sp)))
        x, z, c = (a[p, q][..., None] for a in exc)
        v = t.tbt[idx][:, None, None, None]
        two = _product((x, z, c * v), tuple(a[r, u][..., None, :] for a in exc))
        keys, sums = _accumulate(keys, sums, two)

    worst = np.abs(sums.imag).max()
    if worst > 1e-10:
        raise ValueError(f"non-Hermitian accumulation: residual imag {worst:.3e}")
    return PauliPolynomial(m, keys, sums.real)


def _accumulate(keys, sums, batch):
    """Add a batch of words (x, z, c) to a sorted table of keys and running sums.

    Words new to the table enter with sum 0.0, then np.add.at adds each
    value to its word's sum in C order of the arrays: the additions that one
    bincount over all the words would make.
    """
    x, z, c = (np.ravel(a) for a in batch)
    words, inverse = np.unique(x << _HALF | z, return_inverse=True)
    at = np.searchsorted(keys, words)
    fresh = np.ones(words.size, dtype=bool)
    inside = at < keys.size
    fresh[inside] = keys[at[inside]] != words[inside]
    keys = np.insert(keys, at[fresh], words[fresh])
    sums = np.insert(sums, at[fresh], 0.0)
    # a word's row moves down by the new words inserted before it
    np.add.at(sums, (at + np.cumsum(fresh) - fresh)[inverse], c)
    return keys, sums


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
