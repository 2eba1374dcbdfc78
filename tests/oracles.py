"""Reference implementations that the tests check the library against.

The dense Fock-space operators are deliberately slow and literal: ladder
matrices built entry by entry in the occupation basis (bit p of the basis
index is the occupation of spin-orbital p = 2*i + sigma), Hamiltonians
assembled by explicit loops.  Usable up to ~12 modes.  The rest is code
that the library does not run: spin-resolved two-electron tensors, Pauli
words with their products and matrices, the Jordan-Wigner mapping as a
word-by-word dict loop and as one all-at-once array expansion, the
Majorana-operator route to Pauli words, the
pairwise check and the dense reflection of an anticommuting group,
sorted insertion as the term-by-term scan over every earlier term,
symmetric last-bit noise on a two-electron tensor, the spectrum at a fixed
electron number, the signed permutation from a
particle sector's blocked states to the interleaved Fock basis, a
sector's matvec with its whole cross-spin intermediate, the
spectral range as Lanczos on every particle sector, the symmetry-shift
problem as a linear program, the theta gradient of a rotation through
scipy's Frechet derivative of the matrix exponential, scipy's own BFGS
driver, the DF start's log through scipy's general matrix log, and the
count of reflection-pair products as a loop over the entries.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from lcunorm.errors import NumericalError
from lcunorm.fragments import _tril
from lcunorm.grouping import AcGroup, AcPartition, _insertion_order, sorted_insertion
from lcunorm.pauli import _HALF, PRUNE_TOL, PauliPolynomial, _product, _unpack
from lcunorm.spectra import (
    _LANCZOS_CAP,
    _LANCZOS_TOL,
    _Sector,
    _sector_basis,
    _spin_parts,
    _tridiag_extremes,
)
from lcunorm.symshift import weighted_median
from lcunorm.tensors import SpatialTensors

# ---- spin-resolved two-electron tensors -----------------------------------


def _check_pair_exchange(g, what):
    scale = max(np.abs(g).max(), 1.0)
    for perm, label in (((2, 3, 0, 1), "ij<->kl"), ((1, 0, 3, 2), "ji|lk")):
        dev = np.abs(g - g.transpose(perm)).max()
        if dev > 1e-12 * scale:
            raise ValueError(f"{what} violates {label} symmetry: max deviation {dev:.3e}")


@dataclass
class SpinTensor2e:
    """Two-electron coefficients resolved by spin: same-spin and opposite-spin blocks."""

    same: np.ndarray
    opposite: np.ndarray

    def __post_init__(self):
        self.same = np.ascontiguousarray(self.same, dtype=float)
        self.opposite = np.ascontiguousarray(self.opposite, dtype=float)
        n = self.same.shape[0]
        if self.same.shape != (n, n, n, n) or self.opposite.shape != (n, n, n, n):
            raise ValueError("tensor shape mismatch")
        _check_pair_exchange(self.same, "same-spin block")
        _check_pair_exchange(self.opposite, "opposite-spin block")

    @property
    def n_orb(self):
        return self.same.shape[0]


def absorb_one_body(mu, u):
    """Express a rotated diagonal one-body operator as a two-electron tensor.

    Given sum_{i sigma} mu_i n_{i sigma} in the orbital basis rotated by u,
    returns the SpinTensor2e with same-spin block
    o_ijkl = sum_m mu_m U_im U_jm U_km U_lm and a zero opposite-spin block.
    Valid because n^2 = n for occupation operators.
    """
    mu = np.asarray(mu, dtype=float)
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    if np.abs(u.T @ u - np.eye(n)).max() > 1e-10:
        raise ValueError("u is not orthogonal to 1e-10")
    same = np.einsum("im,jm,km,lm,m->ijkl", u, u, u, u, mu)
    return SpinTensor2e(same, np.zeros((n, n, n, n)))


# ---- dense Fock-space operators -------------------------------------------


def annihilator(p, n_modes):
    dim = 1 << n_modes
    mask = 1 << p
    low = mask - 1
    a = np.zeros((dim, dim))
    for b in range(dim):
        if b & mask:
            sign = -1.0 if (b & low).bit_count() % 2 else 1.0
            a[b ^ mask, b] = sign
    return a


def excitation_table(n_modes):
    """E[p][q] = a^dag_p a_q as dense matrices."""
    a = [annihilator(p, n_modes) for p in range(n_modes)]
    return [[a[p].T @ a[q] for q in range(n_modes)] for p in range(n_modes)]


def dense_hamiltonian(t):
    """Fock-space matrix of chemist-form tensors or a spin-resolved 2e tensor."""
    if isinstance(t, SpinTensor2e):
        n = t.n_orb
        e0 = 0.0
        obt = np.zeros((n, n))
        blocks = (("same", t.same), ("opposite", t.opposite))
    else:
        n = t.n_orb
        e0 = t.e0
        obt = t.obt
        blocks = (("same", t.tbt), ("opposite", t.tbt))
    m = 2 * n
    dim = 1 << m
    E = excitation_table(m)
    h = e0 * np.eye(dim)
    for s in (0, 1):
        for i in range(n):
            for j in range(n):
                if obt[i, j] != 0.0:
                    h += obt[i, j] * E[2 * i + s][2 * j + s]
    for name, g in blocks:
        for s in (0, 1):
            sp = s if name == "same" else 1 - s
            for i in range(n):
                for j in range(n):
                    eij = E[2 * i + s][2 * j + s]
                    for k in range(n):
                        for l in range(n):
                            v = g[i, j, k, l]
                            if v != 0.0:
                                h += v * (eij @ E[2 * k + sp][2 * l + sp])
    return h


def dense_from_record(rec):
    """Fock-space matrix straight from FCIDUMP integrals (physicist ordering)."""
    n = rec.n_orb
    m = 2 * n
    dim = 1 << m
    a = [annihilator(p, m) for p in range(m)]
    h = rec.core_energy * np.eye(dim)
    for s in (0, 1):
        for i in range(n):
            for j in range(n):
                if rec.core_h[i, j] != 0.0:
                    h += rec.core_h[i, j] * (a[2 * i + s].T @ a[2 * j + s])
    for s in (0, 1):
        for sp in (0, 1):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for l in range(n):
                            v = rec.eri[i, j, k, l]
                            if v != 0.0:
                                h += (
                                    0.5
                                    * v
                                    * (
                                        a[2 * i + s].T
                                        @ a[2 * k + sp].T
                                        @ a[2 * l + sp]
                                        @ a[2 * j + s]
                                    )
                                )
    return h


def number_total(n_modes):
    dim = 1 << n_modes
    return np.diag([float(b.bit_count()) for b in range(dim)])


def symmetrize_eightfold(raw):
    g = np.zeros_like(raw)
    for perm in (
        (0, 1, 2, 3),
        (1, 0, 2, 3),
        (0, 1, 3, 2),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 0, 1),
        (2, 3, 1, 0),
        (3, 2, 1, 0),
    ):
        g += raw.transpose(perm)
    return g / 8.0


_EIGHTFOLD = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)]
_EIGHTFOLD += [(p[2], p[3], p[0], p[1]) for p in _EIGHTFOLD]


def last_bit_noise(t, rng):
    """t with 1e-15 relative noise on tbt that keeps its 8-fold symmetry."""
    r = sum(rng.normal(size=t.tbt.shape).transpose(p) for p in _EIGHTFOLD) / 8.0
    return t.replace(tbt=t.tbt * (1.0 + 1e-15 * r))


def random_spatial(n, rng, scale=1.0):
    """Random chemist tensors with full 8-fold / symmetric structure."""
    obt = rng.normal(scale=scale, size=(n, n))
    obt = 0.5 * (obt + obt.T)
    tbt = symmetrize_eightfold(rng.normal(scale=scale, size=(n, n, n, n)))
    return SpatialTensors(float(rng.normal(scale=scale)), obt, tbt)


def random_spin2e(n, rng, scale=1.0):
    """Random Hermitian spin-resolved two-electron tensor.

    Blocks are symmetrized over ij<->kl and the simultaneous transposes
    (needed for a Hermitian operator) but not over i<->j alone, so they
    exercise less symmetry than a chemist tensor.
    """

    def block():
        raw = rng.normal(scale=scale, size=(n, n, n, n))
        g = np.zeros_like(raw)
        for perm in ((0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0)):
            g += raw.transpose(perm)
        return g / 4.0

    return SpinTensor2e(block(), block())


# ---- Pauli words and polynomials as dense matrices -------------------------

_LETTERS = "IXZY"  # indexed by x_bit + 2*z_bit


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


def pack(x, z):
    """The library's key of the word (x, z): x << 32 | z."""
    return (x << 32) | z


def unpack(key):
    """(x, z) masks of a packed key."""
    key = int(key)
    return key >> 32, key & 0xFFFFFFFF


def poly_from_terms(n_qubits, terms):
    """PauliPolynomial from {(x, z): coefficient}."""
    keys = [pack(x, z) for x, z in terms]
    return PauliPolynomial(n_qubits, keys, list(terms.values()))


def poly_terms(p):
    """{(x, z): coefficient} of a polynomial, the identity included."""
    return {unpack(k): float(c) for k, c in zip(p.keys, p.coeffs)}


_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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
        return _word_string(self.n_qubits, self.x, self.z)

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
        for letter in str(self):
            m = np.kron(_MATS[letter], m)
        return m


def anticommutes(a, b):
    """True iff words a and b anticommute (odd number of clashing letters)."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 1


def pauli_polynomial(n_qubits, terms):
    """PauliPolynomial from {word string: coefficient}."""
    words = {PauliWord.from_string(s): c for s, c in terms.items()}
    return poly_from_terms(n_qubits, {(w.x, w.z): c for w, c in words.items()})


def lambda_pauli(p):
    """LCU 1-norm of a Pauli polynomial: sum of |c| over non-identity words."""
    return sum(abs(c) for key, c in poly_terms(p).items() if key != (0, 0))


def poly_items(p):
    """(PauliWord, coefficient) pairs in lexicographic word order."""
    out = [(PauliWord(p.n_qubits, x, z), c) for (x, z), c in poly_terms(p).items()]
    out.sort(key=lambda wc: str(wc[0]))
    return out


def coefficient(p, word):
    return poly_terms(p).get((word.x, word.z), 0.0)


def identity_coefficient(p):
    return coefficient(p, PauliWord(p.n_qubits))


def n_terms_nonidentity(p):
    return sum(1 for key in poly_terms(p) if key != (0, 0))


def poly_matrix(p):
    dim = 1 << p.n_qubits
    m = np.zeros((dim, dim), dtype=complex)
    for word, c in poly_items(p):
        m += c * word.to_matrix()
    return m


def dumps(p):
    """One term per line, 'coefficient letters', lexicographic word order."""
    return "\n".join(f"{c:.16g} {word}" for word, c in poly_items(p))


# ---- Jordan-Wigner one term at a time --------------------------------------


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


def jordan_wigner_loop(t):
    """The Jordan-Wigner mapping as a dict loop over (x, z) masks.

    Multiplies out each excitation product word by word with _mul_masks, the
    reference for the library's array mapping.
    """
    m = 2 * t.n_orb
    exc = {(p, q): _excitation_terms(p, q) for p in range(m) for q in range(m)}
    acc = {(0, 0): complex(t.e0)}

    def add(scale, terms):
        for c, x, z in terms:
            acc[(x, z)] = acc.get((x, z), 0.0) + scale * c

    for i, j in zip(*np.nonzero(np.abs(t.obt) > PRUNE_TOL)):
        for s in (0, 1):
            add(t.obt[i, j], exc[(2 * i + s, 2 * j + s)])

    prod_cache = {}
    g = t.tbt
    for same_spin in (True, False):
        for i, j, k, l in zip(*np.nonzero(np.abs(g) > PRUNE_TOL)):
            for s in (0, 1):
                sp = s if same_spin else 1 - s
                pq = (2 * i + s, 2 * j + s, 2 * k + sp, 2 * l + sp)
                if pq not in prod_cache:
                    combined = {}
                    for c1, x1, z1 in exc[pq[:2]]:
                        for c2, x2, z2 in exc[pq[2:]]:
                            kk, x3, z3 = _mul_masks(x1, z1, x2, z2)
                            key = (x3, z3)
                            combined[key] = combined.get(key, 0.0) + c1 * c2 * 1j**kk
                    prod_cache[pq] = [(c, x, z) for (x, z), c in combined.items()]
                add(g[i, j, k, l], prod_cache[pq])

    worst = max(abs(c.imag) for c in acc.values())
    if worst > 1e-10:
        raise ValueError(f"non-Hermitian accumulation: residual imag {worst:.3e}")
    return poly_from_terms(m, {key: c.real for key, c in acc.items()})


def jordan_wigner_at_once(t):
    """The array Jordan-Wigner mapping with every word product formed at once.

    All 64 words of every nonzero (ij|kl) are formed together, then one
    np.unique and one np.bincount sum them: the reference for the library's
    block-wise expansion, which must give the same keys and coefficient bits.
    """
    m = 2 * t.n_orb
    bit = np.left_shift(np.uint64(1), np.arange(m, dtype=np.uint64))
    x = np.stack([bit, bit], axis=1)
    z = np.stack([bit - 1, (bit - 1) | bit], axis=1)
    up = (x[:, None, :, None], z[:, None, :, None], np.array([0.5, -0.5j])[:, None])
    down = (x[None, :, None, :], z[None, :, None, :], np.array([0.5, 0.5j]))
    exc = [a.reshape(m, m, 4) for a in np.broadcast_arrays(*_product(up, down))]

    i, j = np.nonzero(np.abs(t.obt) > PRUNE_TOL)
    p, q = (np.concatenate([2 * a, 2 * a + 1]) for a in (i, j))
    x, z, c = (a[p, q] for a in exc)
    one = (x, z, c * np.tile(t.obt[i, j], 2)[:, None])

    idx = np.nonzero(np.abs(t.tbt) > PRUNE_TOL)
    s, sp = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    p, q, r, u = (2 * a[:, None] + b for a, b in zip(idx, (s, s, sp, sp)))
    x, z, c = (a[p, q][..., None] for a in exc)
    v = t.tbt[idx][:, None, None, None]
    two = _product((x, z, c * v), tuple(a[r, u][..., None, :] for a in exc))

    ident = (np.zeros(1, np.uint64), np.zeros(1, np.uint64), np.array([t.e0 + 0j]))
    x, z, c = (np.concatenate([np.ravel(w) for w in words]) for words in zip(ident, one, two))
    keys, inverse = np.unique(x << _HALF | z, return_inverse=True)
    worst = np.abs(np.bincount(inverse, weights=c.imag)).max()
    if worst > 1e-10:
        raise ValueError(f"non-Hermitian accumulation: residual imag {worst:.3e}")
    return PauliPolynomial(m, keys, np.bincount(inverse, weights=c.real))


# ---- Majorana algebra: a second route from tensors to Pauli words ---------


class MajoranaPolynomial:
    """Real combination of ordered Majorana monomials.

    Keys are tuples of (mode, flavor) strictly increasing in lexicographic
    order; a stored coefficient c represents the operator
    c * i^(degree/2) * (gamma product in key order), which keeps all
    coefficients real for Hermitian inputs.
    """

    def __init__(self, n_modes, terms=None):
        self.n_modes = n_modes
        self.terms = dict(terms or {})

    @staticmethod
    def canonicalize(ops):
        """Sort a gamma monomial; returns (sign, key) with pairwise cancellation."""
        ops = list(ops)
        sign = 1
        for a in range(1, len(ops)):
            b = a
            while b > 0 and ops[b] < ops[b - 1]:
                ops[b], ops[b - 1] = ops[b - 1], ops[b]
                sign = -sign
                b -= 1
        out = []
        idx = 0
        while idx < len(ops):
            if idx + 1 < len(ops) and ops[idx] == ops[idx + 1]:
                idx += 2  # gamma^2 = 1
            else:
                out.append(ops[idx])
                idx += 1
        return sign, tuple(out)

    def coefficient(self, ops):
        """Stored coefficient for a monomial given in any order."""
        sign, key = self.canonicalize(ops)
        return sign * self.terms.get(key, 0.0)


def _gamma_word(mode, flavor):
    """JW image of gamma_{mode,flavor}: X (flavor 0) or Y (flavor 1) with Z tail."""
    zlow = (1 << mode) - 1
    if flavor:
        return 1 << mode, zlow | (1 << mode)
    return 1 << mode, zlow


def majorana_to_pauli(mp):
    """Translate a MajoranaPolynomial to the equivalent PauliPolynomial."""
    n_qubits = mp.n_modes
    acc = {}
    for key, c in mp.terms.items():
        x = z = 0
        k_tot = 0
        for mode, flavor in key:
            xg, zg = _gamma_word(mode, flavor)
            k, x, z = _mul_masks(x, z, xg, zg)
            k_tot += k
        phase = 1j ** ((len(key) // 2 + k_tot) % 4)
        coeff = c * phase
        if abs(coeff.imag) > 1e-10 * max(1.0, abs(c)):
            raise ValueError("Majorana monomial translated to non-Hermitian term")
        acc[(x, z)] = acc.get((x, z), 0.0) + coeff.real
    return poly_from_terms(n_qubits, acc)


def majorana_separate(o):
    """Split a Hamiltonian into constant, one-body and pure two-body Majorana parts.

    Accepts SpatialTensors or a SpinTensor2e.  Returns (constant, w, mp) where
    w is the N x N per-spin one-body coefficient matrix (the operator is
    sum_sigma sum_ij w_ij * i * gamma_{i sigma,0} gamma_{j sigma,1}) and mp
    holds the degree-4 monomials.  Constant + one-body + mp reassemble the
    input exactly on Fock space.
    """
    if isinstance(o, SpinTensor2e):
        n = o.n_orb
        e0 = 0.0
        obt = np.zeros((n, n))
        blocks = {"same": o.same, "opposite": o.opposite}
    else:
        n = o.n_orb
        e0 = o.e0
        obt = o.obt
        blocks = {"same": o.tbt, "opposite": o.tbt}

    acc = {(): complex(e0)}

    def ladder(mode, dagger):
        s = -1j if dagger else 1j
        return [(0.5, ((mode, 0),)), (0.5 * s, ((mode, 1),))]

    def accumulate(scale, factors):
        # factors: list of (complex, ops); multiply out and canonicalize
        for c, ops in factors:
            sign, key = MajoranaPolynomial.canonicalize(ops)
            acc[key] = acc.get(key, 0.0) + scale * sign * c

    def exc(p, q):
        out = []
        for c1, ops1 in ladder(p, True):
            for c2, ops2 in ladder(q, False):
                out.append((c1 * c2, ops1 + ops2))
        return out

    exc_cache = {}

    def exc_of(p, q):
        if (p, q) not in exc_cache:
            exc_cache[(p, q)] = exc(p, q)
        return exc_cache[(p, q)]

    for i, j in zip(*np.nonzero(np.abs(obt) > PRUNE_TOL)):
        for s in (0, 1):
            accumulate(obt[i, j], exc_of(2 * i + s, 2 * j + s))

    for block_name, g in blocks.items():
        same_spin = block_name == "same"
        for i, j, k, l in zip(*np.nonzero(np.abs(g) > PRUNE_TOL)):
            v = g[i, j, k, l]
            for s in (0, 1):
                sp = s if same_spin else 1 - s
                e1 = exc_of(2 * i + s, 2 * j + s)
                e2 = exc_of(2 * k + sp, 2 * l + sp)
                prods = [(c1 * c2, o1 + o2) for c1, o1 in e1 for c2, o2 in e2]
                accumulate(v, prods)

    const = acc.pop((), 0.0)
    if abs(const.imag) > 1e-10:
        raise ValueError("non-real constant part")
    w = np.zeros((n, n))
    quartic = {}
    for key, c in acc.items():
        deg = len(key)
        stored = c / 1j ** (deg // 2)
        if abs(stored.imag) > 1e-10:
            raise ValueError(f"non-Hermitian monomial {key}")
        stored = stored.real
        if abs(stored) < PRUNE_TOL:
            continue
        if deg == 2:
            (m1, f1), (m2, f2) = key
            if f1 == f2 or m1 % 2 != m2 % 2:
                raise ValueError(f"unexpected one-body monomial {key}")
            # key is ordered; flavor-0 op may sit first (i <= j) or second (i > j)
            if f1 == 0:
                i, j, sign = m1 // 2, m2 // 2, 1.0
            else:
                i, j, sign = m2 // 2, m1 // 2, -1.0
            if m1 % 2 == 0:  # record once, from the alpha copy
                w[i, j] = sign * stored
        elif deg == 4:
            quartic[key] = stored
        else:
            raise ValueError(f"unexpected degree-{deg} monomial")
    return const.real, w, MajoranaPolynomial(2 * n, quartic)


# ---- anticommuting groups and sector spectra ------------------------------


def lambda_ac(obj):
    """1-norm after anticommuting grouping; accepts a polynomial or a partition."""
    if isinstance(obj, PauliPolynomial):
        obj = sorted_insertion(obj)
    return obj.one_norm()


def sorted_insertion_termwise(poly):
    """Sorted insertion term by term: each term, in insertion order, is checked
    against every earlier term and joins the first group with no member that
    commutes with it (a new group if there is none)."""
    keys, coeffs = _insertion_order(poly)
    x, z = _unpack(keys)
    gid = np.empty(len(keys), dtype=np.intp)
    n_groups = 0
    for t in range(len(keys)):
        commute = np.bitwise_count((x[:t] & z[t]) ^ (z[:t] & x[t])) % 2 == 0
        free = np.flatnonzero(np.bincount(gid[:t][commute], minlength=n_groups) == 0)
        gid[t] = free[0] if free.size else n_groups
        n_groups = max(n_groups, gid[t] + 1)
    members = [np.flatnonzero(gid == g) for g in range(n_groups)]
    return AcPartition(
        poly.n_qubits, [AcGroup(poly.n_qubits, keys[m], coeffs[m]) for m in members]
    )


def group_words(group):
    return [PauliWord(group.n_qubits, *unpack(key)) for key in group.keys]


def validate_partition(part):
    """Raise ValueError unless every group is pairwise anticommuting."""
    for gi, g in enumerate(part.groups):
        words = group_words(g)
        for a in range(len(words)):
            for b in range(a):
                if not anticommutes(words[a], words[b]):
                    raise ValueError(f"group {gi}: {words[b]} and {words[a]} commute")


def group_angles(group):
    """theta_k = arcsin(c_k / sqrt(sum_{i<=k} c_i^2)) / 2, one per member."""
    partial = np.sqrt(np.cumsum(group.coeffs**2))
    return 0.5 * np.arcsin(np.clip(group.coeffs / partial, -1.0, 1.0))


def group_unitary(group):
    """Dense reflection realizing a group: equals i/norm times the group sum.

    Built as A_1 .. A_{n-1} A_n A_n A_{n-1} .. A_1 with A_k = exp(i theta_k P_k);
    intended for small qubit counts.
    """
    dim = 1 << group.n_qubits
    eye = np.eye(dim, dtype=complex)
    mats = [w.to_matrix() for w in group_words(group)]
    thetas = group_angles(group)

    def rot(th, p):
        return np.cos(th) * eye + 1j * np.sin(th) * p

    left = eye
    for th, p in zip(thetas[:-1], mats[:-1]):
        left = left @ rot(th, p)
    mid = rot(2 * thetas[-1], mats[-1])
    right = eye
    for th, p in zip(thetas[-2::-1], mats[-2::-1]):
        right = right @ rot(th, p)
    return left @ mid @ right


def sector_spectrum(t, n_elec):
    """Eigenvalues on the fixed total-electron-number subspace, ascending:
    `dense_hamiltonian` restricted to the basis states with n_elec set bits."""
    n = t.n_orb
    if not 0 <= n_elec <= 2 * n:
        raise ValueError(f"electron count {n_elec} outside [0, {2 * n}]")
    idx = [b for b in range(1 << (2 * n)) if b.bit_count() == n_elec]
    return np.linalg.eigvalsh(dense_hamiltonian(t)[np.ix_(idx, idx)])


def sector_states(n, n_alpha, n_beta):
    """(index, sign) of each state of `_Sector(t, n_alpha, n_beta)` in the
    interleaved ordering: the Fock basis index (bit 2i + sigma for orbital i
    and spin sigma) and the sign of reordering its blocked (alpha-then-beta)
    creation string into the interleaved one, in the sector's vector order."""
    masks_a, masks_b = _sector_basis(n, n_alpha), _sector_basis(n, n_beta)
    idx, sgn = [], []
    for mb in masks_b:
        for ma in masks_a:
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
            idx.append(s)
            sgn.append(-1.0 if crossings & 1 else 1.0)
    return np.array(idx), np.array(sgn)


class FullProductSector:
    """One (n_alpha, n_beta) block applied with the whole cross-spin
    intermediate: the GEMM v @ at_cols forms every row (B', y) of
    v @ At_y.T, db * n^2 of them, and the sparse beta stack
    d_rows[B, (B', y)] = D_y[B, B'] has a column for each, also where
    E_y B' = 0 and the column is zero.  Its same-spin blocks and its
    partners At_y = sum_x (g + g.T)[y, x] D_x are built as `_Sector`
    builds them."""

    def __init__(self, t, n_alpha, n_beta):
        n = t.n_orb
        masks_a, masks_b = _sector_basis(n, n_alpha), _sector_basis(n, n_beta)
        self.da, self.db = len(masks_a), len(masks_b)
        d, self.hb = _spin_parts(t, masks_b)
        self.d_rows = scipy.sparse.csr_array(d.transpose(1, 2, 0).reshape(self.db, -1))
        h_a = self.hb
        if n_alpha != n_beta:
            d, h_a = _spin_parts(t, masks_a)
        self.ha = h_a + t.e0 * np.eye(self.da)
        g = t.tbt.reshape(n * n, n * n)
        # at_cols[a', (y, a)] = At_y[a, a'] = sum_x G[y, x^T] D_x[a', a]
        g_sym = (g + g.T).reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(n * n, n * n)
        self.at_cols = np.matmul(g_sym, d.transpose(1, 0, 2)).reshape(self.da, -1)

    def matvec(self, vec):
        v = vec.reshape(self.db, self.da)
        w = self.hb @ v + v @ self.ha.T
        w += self.d_rows @ (v @ self.at_cols).reshape(-1, self.da)
        return w.ravel()


def lanczos_extremes_reorthogonalized(matvec, dim):
    """(e_min, e_max, residual bound) of the reference Lanczos run: it keeps
    the whole Krylov basis and orthogonalizes each new vector twice against
    all of it, so it also stops, exactly, on exhausting the Krylov space.
    Start vector, tolerance, cap and tridiagonal solver are the library's."""
    rng = np.random.default_rng(1905)
    steps = min(dim, _LANCZOS_CAP)
    basis = np.zeros((steps, dim))
    basis[0] = rng.standard_normal(dim)
    basis[0] /= np.linalg.norm(basis[0])
    alphas, betas = [], []
    for j in range(steps):
        w = matvec(basis[j])
        a = float(basis[j] @ w)
        alphas.append(a)
        w = w - a * basis[j]
        if j > 0:
            w = w - betas[-1] * basis[j - 1]
        qmat = basis[: j + 1]
        w = w - qmat.T @ (qmat @ w)
        w = w - qmat.T @ (qmat @ w)
        b = float(np.linalg.norm(w))
        (lo, last_lo), (hi, last_hi) = _tridiag_extremes(alphas, betas)
        res = b * max(abs(last_lo), abs(last_hi))
        if res <= _LANCZOS_TOL or b < 1e-13 or j == dim - 1:
            return lo, hi, res
        betas.append(b)
        if j + 1 < steps:
            basis[j + 1] = w / b
    raise NumericalError(f"reference Lanczos reached its {_LANCZOS_CAP}-step cap")


def all_sector_range(t):
    """(e_min, e_max) from the reference Lanczos on every (n_alpha, n_beta)
    sector, with no spin argument to skip any of them."""
    lows, highs = [], []
    for na in range(t.n_orb + 1):
        for nb in range(t.n_orb + 1):
            sec = _Sector(t, na, nb)
            lo, hi, _ = lanczos_extremes_reorthogonalized(sec.matvec, sec.dim)
            lows.append(lo)
            highs.append(hi)
    return min(lows), max(highs)


# ---- the symmetry-shift problem as a linear program ------------------------


@dataclass
class L1Problem:
    """min over s of sum_nu weights_nu |lam_nu - sum_u s_u tau[u, nu]|."""

    lam: np.ndarray
    tau: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float).ravel()
        self.tau = np.atleast_2d(np.asarray(self.tau, dtype=float))
        if self.weights is None:
            self.weights = np.ones_like(self.lam)
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if self.tau.shape[1] != self.lam.size or self.weights.size != self.lam.size:
            raise ValueError("inconsistent L1Problem dimensions")
        if self.tau.shape[0] < 1:
            raise ValueError("need at least one symmetry")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")

    def objective(self, s):
        resid = self.lam - np.asarray(s, dtype=float) @ self.tau
        return float(self.weights @ np.abs(resid))


def solve_l1(prob):
    """Global minimizer (s, objective) of the weighted l1 problem for any tau,
    as the linear program over (s, t): minimize w.t subject to
    tau^T s - t <= lam and -tau^T s - t <= -lam."""
    from scipy.optimize import linprog

    n_s = prob.tau.shape[0]
    n_c = prob.lam.size
    c = np.concatenate([np.zeros(n_s), prob.weights])
    tt = prob.tau.T
    eye = np.eye(n_c)
    a_ub = np.block([[tt, -eye], [-tt, -eye]])
    b_ub = np.concatenate([prob.lam, -prob.lam])
    bounds = [(None, None)] * n_s + [(0, None)] * n_c
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise NumericalError(f"l1 linear program failed: {res.message}")
    return res.x[:n_s], float(res.fun)


def solve_l1_median(prob):
    """(s, objective) by the library's weighted median, which is the minimum
    when tau is a single constant row (the electron-number shift)."""
    s = np.array([weighted_median(prob.lam / prob.tau[0, 0], prob.weights)])
    return s, prob.objective(s)


# ---- orbital-rotation gradient --------------------------------------------


def expm_frechet_theta_grad(a, gu):
    """Gradient in theta of a cost of u = expm(a), given its gradient gu in u.

    The adjoint of the exponential's Frechet derivative at a is the
    derivative at a^T, here by scipy's scaling-and-squaring Pade; theta_(i>j)
    enters a at (i, j) and, negated, at (j, i).
    """
    z = scipy.linalg.expm_frechet(a.T, gu, compute_expm=False)
    rows, cols = _tril(a.shape[0], -1)
    return z[rows, cols] - z[cols, rows]


# ---- BFGS and the DF start --------------------------------------------------


def scipy_bfgs(f, x0, tol_grad):
    """(x, cost, iterations, calls of f) of scipy.optimize.minimize's BFGS on
    f, which returns (cost, gradient), with the library's iteration cap and
    its rule that the result is never above the start."""
    import scipy.optimize

    from lcunorm.optimize import MAX_ITERS

    costs = []

    def counted(x):
        out = f(x)
        costs.append(out[0])
        return out

    opts = {"gtol": tol_grad, "maxiter": MAX_ITERS}
    res = scipy.optimize.minimize(counted, x0, jac=True, method="BFGS", options=opts)
    if res.fun > costs[0]:
        return np.asarray(x0, dtype=float), float(costs[0]), int(res.nit), len(costs)
    return res.x, float(res.fun), int(res.nit), len(costs)


def df_start_logm(tbt):
    """Theta of the DF start's frame (as _df_start builds it) by scipy's
    general matrix log, logm."""
    from scipy.optimize import linear_sum_assignment

    n = tbt.shape[0]
    w, v = np.linalg.eigh(tbt.reshape(n * n, n * n))
    ell = v[:, np.argmax(np.abs(w))].reshape(n, n)
    u = np.linalg.eigh(0.5 * (ell + ell.T))[1]
    u = u[:, linear_sum_assignment(-np.abs(u))[1]]
    u = u * np.where(np.diag(u) < 0, -1.0, 1.0)
    if np.linalg.det(u) < 0:
        u[:, np.argmin(np.diag(u))] *= -1.0
    a = scipy.linalg.logm(u).real
    return (0.5 * (a - a.T))[_tril(n, -1)]


# ---- reflection-pair products -------------------------------------------


def reflection_term_count_loop(lam, cutoff):
    """Distinct reflection-pair products with |coefficient| > cutoff, entry by
    entry: the diagonal once, each pair below it four times, at |lam_ij| / 2."""
    n = lam.shape[0]
    count = 0
    for i in range(n):
        if abs(lam[i, i] / 2.0) > cutoff:
            count += 1
        for j in range(i):
            if abs(lam[i, j] / 2.0) > cutoff:
                count += 4
    return count
