"""Anticommuting grouping of Pauli polynomials.

Groups are formed by sorted insertion: terms are visited in order of
decreasing |coefficient| (ties broken lexicographically by word string) and
each joins the first existing group whose members all anticommute with it.
A group with coefficients c_1..c_n contributes sqrt(sum c_k^2) to the
1-norm, since the normalized group sum extends to a reflection.
"""

from dataclasses import dataclass

import numpy as np

from .pauli import _word_string

__all__ = ["AcGroup", "AcPartition", "sorted_insertion"]


@dataclass
class AcGroup:
    """One anticommuting set, in insertion (descending |coefficient|) order."""

    n_qubits: int
    keys: list
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


def _insertion_order(poly):
    items = [(xz, c) for xz, c in poly.raw_items() if xz != (0, 0)]
    items.sort(key=lambda kc: (-abs(kc[1]), _word_string(poly.n_qubits, *kc[0])))
    return items


def sorted_insertion(poly):
    """Partition the non-identity terms of a polynomial into anticommuting groups."""
    items = _insertion_order(poly)
    n_qubits = poly.n_qubits
    member_groups = []  # group index per accepted term
    group_sizes = []

    if n_qubits <= 63 and items:
        acc_x = np.zeros(len(items), dtype=np.uint64)
        acc_z = np.zeros(len(items), dtype=np.uint64)
        gid = np.zeros(len(items), dtype=np.intp)
        count = 0
        for (x, z), _ in items:
            target = len(group_sizes)
            if count:
                xs, zs = acc_x[:count], acc_z[:count]
                anti = (
                    np.bitwise_count(xs & np.uint64(z)) + np.bitwise_count(zs & np.uint64(x))
                ) % 2 == 1
                ok = np.ones(len(group_sizes), dtype=bool)
                np.logical_and.at(ok, gid[:count], anti)
                hits = np.flatnonzero(ok)
                if hits.size:
                    target = int(hits[0])
            if target == len(group_sizes):
                group_sizes.append(0)
            group_sizes[target] += 1
            member_groups.append(target)
            acc_x[count], acc_z[count], gid[count] = x, z, target
            count += 1
    else:
        accepted = []  # (x, z, group)
        for (x, z), _ in items:
            target = len(group_sizes)
            ok = [True] * len(group_sizes)
            for ax, az, g in accepted:
                if ok[g] and ((ax & z).bit_count() + (az & x).bit_count()) % 2 == 0:
                    ok[g] = False
            for g, flag in enumerate(ok):
                if flag:
                    target = g
                    break
            if target == len(group_sizes):
                group_sizes.append(0)
            group_sizes[target] += 1
            member_groups.append(target)
            accepted.append((x, z, target))

    keys = [[] for _ in group_sizes]
    coeffs = [[] for _ in group_sizes]
    for ((xz), c), g in zip(items, member_groups):
        keys[g].append(xz)
        coeffs[g].append(c)
    groups = [
        AcGroup(n_qubits, k, np.asarray(c, dtype=float)) for k, c in zip(keys, coeffs)
    ]
    return AcPartition(n_qubits, groups)
