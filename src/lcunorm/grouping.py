"""Anticommuting grouping of Pauli polynomials.

Groups are formed by sorted insertion: terms are visited in order of
decreasing |coefficient| and each joins the first existing group whose
members all anticommute with it.  A group with coefficients c_1..c_n
contributes sqrt(sum c_k^2) to the 1-norm, since the normalized group sum
extends to a reflection.

The scan runs one group at a time, which gives the same partition: a term
joins group g exactly when groups 0..g-1 refused it and it anticommutes
with g's earlier members.  The first unassigned term opens a group, its
candidates are the later unassigned terms, each new member filters them to
those that anticommute with it, and the first candidate left joins next.
So only the candidates still open are tested, not every earlier term.

Ties are broken on clusters of |c|, not on exact values.  In the sorted
magnitudes a new cluster starts wherever the gap to the previous one
exceeds TIE_TOL * max|c|; inside a cluster the terms go in word order
(letters I < X < Y < Z, qubit 0 first).  Spin symmetry makes many
coefficients equal up to their last bits, and those bits depend on the
order in which the mapping summed them, so this keeps the partition a
function of the operator alone.
"""

from dataclasses import dataclass

import numpy as np

from .pauli import _HALF, _unpack

__all__ = ["AcGroup", "AcPartition", "sorted_insertion"]

TIE_TOL = 1e-10


@dataclass
class AcGroup:
    """One anticommuting set (packed keys), in insertion order."""

    n_qubits: int
    keys: np.ndarray
    coeffs: np.ndarray

    @property
    def norm(self):
        return float(np.sqrt((self.coeffs**2).sum()))


@dataclass
class AcPartition:
    n_qubits: int
    groups: list

    def one_norm(self):
        return float(sum(g.norm for g in self.groups))


def _word_order(keys, n_qubits):
    """A key that sorts words as their letter strings do: base 4, qubit 0 the
    leading digit, with the digit x + z*(3 - 2x) giving I, X, Y, Z = 0..3."""
    x, z = _unpack(keys)
    out = np.zeros_like(keys)
    for q in range(n_qubits):
        xq, zq = (x >> np.uint64(q)) & np.uint64(1), (z >> np.uint64(q)) & np.uint64(1)
        out = (out << np.uint64(2)) | (xq + zq * (np.uint64(3) - np.uint64(2) * xq))
    return out


def _insertion_order(poly):
    """Non-identity keys and coefficients, by |c| cluster and then word order."""
    keep = poly.keys != 0
    keys, coeffs = poly.keys[keep], poly.coeffs[keep]
    mags = np.abs(coeffs)
    by_mag = np.argsort(-mags, kind="stable")
    gaps = -np.diff(mags[by_mag]) > TIE_TOL * mags.max(initial=0.0)
    cluster = np.empty(len(keys), dtype=np.intp)
    cluster[by_mag] = np.concatenate([[0], np.cumsum(gaps)])
    order = np.lexsort((_word_order(keys, poly.n_qubits), cluster))
    return keys[order], coeffs[order]


def sorted_insertion(poly):
    """Partition the non-identity terms of a polynomial into anticommuting groups."""
    keys, coeffs = _insertion_order(poly)
    # key & swapped(other) holds x & z' and z & x' in its two halves, so the
    # parity of its popcount is the symplectic form: odd means they anticommute
    swapped = keys << _HALF | keys >> _HALF
    free = np.ones(len(keys), dtype=bool)
    groups = []
    while free.any():
        members, cand = [], np.flatnonzero(free)
        while cand.size:
            m, cand = cand[0], cand[1:]
            members.append(m)
            cand = cand[np.bitwise_count(keys[cand] & swapped[m]) % 2 == 1]
        free[members] = False
        groups.append(AcGroup(poly.n_qubits, keys[members], coeffs[members]))
    return AcPartition(poly.n_qubits, groups)
