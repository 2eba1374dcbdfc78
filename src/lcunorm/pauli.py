"""Sparse Pauli operator algebra with the Jordan-Wigner mapping.

Spin-orbitals map to qubits as p = 2*i + sigma (interleaved spins), i
0-based spatial.  Pauli words are stored as (x, z) bitmasks where qubit q
carries X when bit q of x is set, Z when bit q of z is set, and Y when both
are set; the word operator is the literal tensor product of those letters.
"""

from dataclasses import dataclass

import numpy as np

from .tensors import _one_body_adjust

__all__ = [
    "PauliWord",
    "PauliPolynomial",
    "jordan_wigner",
    "lambda_pauli",
    "lambda_pauli_closed_form",
    "anticommutes",
]

_LETTERS = "IXZY"  # indexed by x_bit + 2*z_bit
_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
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


@dataclass(frozen=True)
class PauliWord:
    n_qubits: int
    x: int = 0
    z: int = 0

    @classmethod
    def from_string(cls, s):
        x = z = 0
        for q, ch in enumerate(s):
            if ch in ("X", "Y"):
                x |= 1 << q
            if ch in ("Z", "Y"):
                z |= 1 << q
            if ch not in "IXYZ":
                raise ValueError(f"bad Pauli letter {ch!r}")
        return cls(len(s), x, z)

    def __str__(self):
        return "".join(
            _LETTERS[((self.x >> q) & 1) + 2 * ((self.z >> q) & 1)] for q in range(self.n_qubits)
        )

    @property
    def is_identity(self):
        return self.x == 0 and self.z == 0

    @property
    def weight(self):
        return (self.x | self.z).bit_count()

    def __mul__(self, other):
        """Returns (phase, word) with self*other = phase * word."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        k, x3, z3 = _mul_masks(self.x, self.z, other.x, other.z)
        return 1j**k, PauliWord(self.n_qubits, x3, z3)

    def to_matrix(self):
        m = np.eye(1, dtype=complex)
        for q in range(self.n_qubits):
            m = np.kron(_MATS[_LETTERS[((self.x >> q) & 1) + 2 * ((self.z >> q) & 1)]], m)
        return m


def anticommutes(a, b):
    """True iff words a and b anticommute (odd number of clashing letters)."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 1


class PauliPolynomial:
    """Real linear combination of Pauli words, keyed by (x, z) masks.

    Coefficients below 1e-14 are dropped at construction.  The identity
    coefficient is kept in the map but excluded from the 1-norm.
    """

    def __init__(self, n_qubits, terms=None):
        self.n_qubits = n_qubits
        self._terms = {}
        if terms:
            for key, c in terms.items():
                if isinstance(key, PauliWord):
                    key = (key.x, key.z)
                if abs(c) >= PRUNE_TOL:
                    self._terms[key] = float(c)

    def __len__(self):
        return len(self._terms)

    def coefficient(self, word):
        return self._terms.get((word.x, word.z), 0.0)

    @property
    def identity_coefficient(self):
        return self._terms.get((0, 0), 0.0)

    @property
    def n_terms_nonidentity(self):
        return len(self._terms) - (1 if (0, 0) in self._terms else 0)

    def items(self):
        """(PauliWord, coefficient) pairs in stable lexicographic word order."""
        out = [(PauliWord(self.n_qubits, x, z), c) for (x, z), c in self._terms.items()]
        out.sort(key=lambda wc: str(wc[0]))
        return out

    def raw_items(self):
        return self._terms.items()

    def to_matrix(self):
        dim = 1 << self.n_qubits
        m = np.zeros((dim, dim), dtype=complex)
        for word, c in self.items():
            m += c * word.to_matrix()
        return m

    def dumps(self):
        """One term per line, 'coefficient letters', lexicographic word order."""
        return "\n".join(f"{c:.16g} {word}" for word, c in self.items())


def lambda_pauli(p):
    """LCU 1-norm of a Pauli polynomial: sum of |c| over non-identity words."""
    return sum(abs(c) for key, c in p.raw_items() if key != (0, 0))


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


def _closed_form(obt, g, absf=np.abs):
    """The closed form on bare arrays; `absf` stands in for |x|."""
    n = obt.shape[0]
    term1 = absf(_one_body_adjust(obt, g)).sum()
    diff = g - g.transpose(0, 3, 2, 1)
    gt = np.greater.outer(np.arange(n), np.arange(n))
    term2 = float((absf(diff) * (gt[:, None, :, None] & gt[None, :, None, :])).sum())
    term3 = 0.5 * absf(g).sum()
    return float(term1 + term2 + term3)
