#!/usr/bin/env python3
"""Generate the FCIDUMP files bundled with the package.

Minimal-basis (STO-3G) integrals are computed from scratch with
McMurchie-Davidson recursions, a restricted Hartree-Fock solution is
converged with DIIS, and the MO-basis integrals are written in FCIDUMP
format with the package's own writer.  Run `--check` to compare a few H2
integrals at R = 1.4 bohr against textbook reference values.

This script is a one-off generator: the package itself only consumes the
stored FCIDUMP files and never imports this module.  With numpy 2.4.6 on
a 2-core x86 machine it reproduces the committed `h2`, `lih`, `beh2` and
`nh3` files byte for byte, but not `h2o`: it writes 284 lines against the
committed 282, with last-digit differences in the integrals and two extra
entries near the 1e-16 cutoff.  The committed `h2o.fcidump` stays the
reference and is not regenerated.
"""

import argparse
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
from lcunorm.tensors import FcidumpRecord, write_fcidump  # noqa: E402

ANGSTROM_TO_BOHR = 1.0 / 0.529177210903

# STO-3G exponents; contraction coefficients are shared across elements.
_S_COEF = [0.1543289673, 0.5353281423, 0.4446345422]
_SP_S_COEF = [-0.09996722919, 0.3995128261, 0.7001154689]
_SP_P_COEF = [0.1559162750, 0.6076837186, 0.3919573931]

BASIS = {
    "H": [("S", [3.425250914, 0.6239137298, 0.1688554040])],
    "Li": [
        ("S", [16.11957475, 2.936200663, 0.7946504870]),
        ("SP", [0.6362897469, 0.1478600533, 0.0480886784]),
    ],
    "Be": [
        ("S", [30.16787069, 5.495115306, 1.487192653]),
        ("SP", [1.314833110, 0.3055389383, 0.09937074560]),
    ],
    "N": [
        ("S", [99.10616896, 18.05231239, 4.885660238]),
        ("SP", [3.780455879, 0.8784966449, 0.2857143744]),
    ],
    "O": [
        ("S", [130.7093214, 23.80886605, 6.443608313]),
        ("SP", [5.033151319, 1.169596125, 0.3803889600]),
    ],
}

CHARGE = {"H": 1, "Li": 3, "Be": 4, "N": 7, "O": 8}


def molecule_geometries():
    """Atom lists (symbol, xyz in Angstrom) for the five bundled molecules."""
    r = 1.0
    # H2O: both H in the xz plane, HOH angle 107.6 deg.
    half = math.radians(107.6) / 2.0
    h2o = [
        ("O", (0.0, 0.0, 0.0)),
        ("H", (r * math.sin(half), 0.0, r * math.cos(half))),
        ("H", (-r * math.sin(half), 0.0, r * math.cos(half))),
    ]
    # NH3: C3v, z axis through N, HNH angle 107 deg fixes the polar angle.
    cos_hnh = math.cos(math.radians(107.0))
    cos_t = math.sqrt((2.0 * cos_hnh + 1.0) / 3.0)
    sin_t = math.sqrt(1.0 - cos_t**2)
    nh3 = [("N", (0.0, 0.0, 0.0))]
    for k in range(3):
        phi = 2.0 * math.pi * k / 3.0
        nh3.append(("H", (r * sin_t * math.cos(phi), r * sin_t * math.sin(phi), r * cos_t)))
    return {
        "h2": [("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, r))],
        "lih": [("Li", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, r))],
        "beh2": [("H", (0.0, 0.0, -r)), ("Be", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, r))],
        "h2o": h2o,
        "nh3": nh3,
    }


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _prim_norm(alpha, lmn):
    l, m, n = lmn
    num = (2.0 * alpha / math.pi) ** 1.5 * (4.0 * alpha) ** (l + m + n)
    den = _double_factorial(2 * l - 1) * _double_factorial(2 * m - 1) * _double_factorial(2 * n - 1)
    return math.sqrt(num / den)


class BasisFunction:
    """Contracted Cartesian Gaussian with normalized coefficients."""

    def __init__(self, center, lmn, exps, coefs):
        self.center = np.asarray(center, dtype=float)
        self.lmn = lmn
        self.exps = list(exps)
        self.coefs = [c * _prim_norm(a, lmn) for c, a in zip(coefs, exps)]
        s = 0.0
        for ca, a in zip(self.coefs, self.exps):
            for cb, b in zip(self.coefs, self.exps):
                s += ca * cb * _overlap_prim(a, lmn, self.center, b, lmn, self.center)
        self.coefs = [c / math.sqrt(s) for c in self.coefs]


def build_basis(atoms_bohr):
    funcs = []
    for sym, xyz in atoms_bohr:
        for shell in BASIS[sym]:
            kind, exps = shell
            if kind == "S":
                funcs.append(BasisFunction(xyz, (0, 0, 0), exps, _S_COEF))
            else:
                funcs.append(BasisFunction(xyz, (0, 0, 0), exps, _SP_S_COEF))
                for lmn in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                    funcs.append(BasisFunction(xyz, lmn, exps, _SP_P_COEF))
    return funcs


def _hermite_e(i, j, t, Q, a, b):
    """Hermite expansion coefficient for a 1D Gaussian product."""
    p = a + b
    q = a * b / p
    if t < 0 or t > i + j:
        return 0.0
    if i == j == t == 0:
        return math.exp(-q * Q * Q)
    if j == 0:
        return (
            (1.0 / (2.0 * p)) * _hermite_e(i - 1, j, t - 1, Q, a, b)
            - (q * Q / a) * _hermite_e(i - 1, j, t, Q, a, b)
            + (t + 1) * _hermite_e(i - 1, j, t + 1, Q, a, b)
        )
    return (
        (1.0 / (2.0 * p)) * _hermite_e(i, j - 1, t - 1, Q, a, b)
        + (q * Q / b) * _hermite_e(i, j - 1, t, Q, a, b)
        + (t + 1) * _hermite_e(i, j - 1, t + 1, Q, a, b)
    )


def _overlap_prim(a, lmn1, A, b, lmn2, B):
    p = a + b
    val = 1.0
    for d in range(3):
        val *= _hermite_e(lmn1[d], lmn2[d], 0, A[d] - B[d], a, b)
    return val * (math.pi / p) ** 1.5


def _kinetic_prim(a, lmn1, A, b, lmn2, B):
    l2, m2, n2 = lmn2
    term0 = b * (2 * (l2 + m2 + n2) + 3) * _overlap_prim(a, lmn1, A, b, lmn2, B)
    term1 = -2.0 * b**2 * (
        _overlap_prim(a, lmn1, A, b, (l2 + 2, m2, n2), B)
        + _overlap_prim(a, lmn1, A, b, (l2, m2 + 2, n2), B)
        + _overlap_prim(a, lmn1, A, b, (l2, m2, n2 + 2), B)
    )
    term2 = -0.5 * (
        l2 * (l2 - 1) * _overlap_prim(a, lmn1, A, b, (l2 - 2, m2, n2), B)
        + m2 * (m2 - 1) * _overlap_prim(a, lmn1, A, b, (l2, m2 - 2, n2), B)
        + n2 * (n2 - 1) * _overlap_prim(a, lmn1, A, b, (l2, m2, n2 - 2), B)
    )
    return term0 + term1 + term2


def _boys(mmax, x):
    """F_0..F_mmax as an array; stable for all x >= 0."""
    out = np.empty(mmax + 1)
    if x < 1e-13:
        for m in range(mmax + 1):
            out[m] = 1.0 / (2 * m + 1)
        return out
    if x >= 40.0:
        out[0] = 0.5 * math.sqrt(math.pi / x) * math.erf(math.sqrt(x))
        ex = math.exp(-x)
        for m in range(1, mmax + 1):
            out[m] = ((2 * m - 1) * out[m - 1] - ex) / (2.0 * x)
        return out
    # Positive-term series at mmax, then downward recursion.
    term = 1.0 / (mmax + 0.5)
    s = term
    k = 0
    while term > 1e-18 * s:
        k += 1
        term *= x / (mmax + k + 0.5)
        s += term
    ex = math.exp(-x)
    out[mmax] = 0.5 * ex * s
    for m in range(mmax, 0, -1):
        out[m - 1] = (2.0 * x * out[m] + ex) / (2 * m - 1)
    return out


def _hermite_coulomb(L, p, PC):
    """Table R[(t, u, v)] of Hermite Coulomb integrals up to total order L."""
    x = p * float(PC @ PC)
    F = _boys(L, x)
    table = {}
    for n in range(L + 1):
        table[(0, 0, 0, n)] = (-2.0 * p) ** n * F[n]
    for total in range(1, L + 1):
        for t in range(total + 1):
            for u in range(total - t + 1):
                v = total - t - u
                for n in range(L - total + 1):
                    if t > 0:
                        val = PC[0] * table[(t - 1, u, v, n + 1)]
                        if t > 1:
                            val += (t - 1) * table[(t - 2, u, v, n + 1)]
                    elif u > 0:
                        val = PC[1] * table[(t, u - 1, v, n + 1)]
                        if u > 1:
                            val += (u - 1) * table[(t, u - 2, v, n + 1)]
                    else:
                        val = PC[2] * table[(t, u, v - 1, n + 1)]
                        if v > 1:
                            val += (v - 1) * table[(t, u, v - 2, n + 1)]
                    table[(t, u, v, n)] = val
    return {(t, u, v): val for (t, u, v, n), val in table.items() if n == 0}


def _e_arrays(lmn1, lmn2, A, B, a, b):
    return [
        [_hermite_e(lmn1[d], lmn2[d], t, A[d] - B[d], a, b) for t in range(lmn1[d] + lmn2[d] + 1)]
        for d in range(3)
    ]


def _nuclear_prim(a, lmn1, A, b, lmn2, B, C):
    p = a + b
    P = (a * A + b * B) / p
    E = _e_arrays(lmn1, lmn2, A, B, a, b)
    L = sum(lmn1) + sum(lmn2)
    R = _hermite_coulomb(L, p, P - C)
    val = 0.0
    for t in range(lmn1[0] + lmn2[0] + 1):
        for u in range(lmn1[1] + lmn2[1] + 1):
            for v in range(lmn1[2] + lmn2[2] + 1):
                val += E[0][t] * E[1][u] * E[2][v] * R[(t, u, v)]
    return 2.0 * math.pi / p * val


def _eri_prim(a, lmn1, A, b, lmn2, B, c, lmn3, C, d, lmn4, D):
    p = a + b
    q = c + d
    alpha = p * q / (p + q)
    P = (a * A + b * B) / p
    Q = (c * C + d * D) / q
    E1 = _e_arrays(lmn1, lmn2, A, B, a, b)
    E2 = _e_arrays(lmn3, lmn4, C, D, c, d)
    L = sum(lmn1) + sum(lmn2) + sum(lmn3) + sum(lmn4)
    R = _hermite_coulomb(L, alpha, P - Q)
    val = 0.0
    for t in range(lmn1[0] + lmn2[0] + 1):
        for u in range(lmn1[1] + lmn2[1] + 1):
            for v in range(lmn1[2] + lmn2[2] + 1):
                s1 = E1[0][t] * E1[1][u] * E1[2][v]
                if s1 == 0.0:
                    continue
                for tt in range(lmn3[0] + lmn4[0] + 1):
                    for uu in range(lmn3[1] + lmn4[1] + 1):
                        for vv in range(lmn3[2] + lmn4[2] + 1):
                            s2 = E2[0][tt] * E2[1][uu] * E2[2][vv]
                            if s2 == 0.0:
                                continue
                            sign = -1.0 if (tt + uu + vv) % 2 else 1.0
                            val += s1 * s2 * sign * R[(t + tt, u + uu, v + vv)]
    return val * 2.0 * math.pi**2.5 / (p * q * math.sqrt(p + q))


def _contract2(f, b1, b2, *extra):
    val = 0.0
    for ca, a in zip(b1.coefs, b1.exps):
        for cb, b in zip(b2.coefs, b2.exps):
            val += ca * cb * f(a, b1.lmn, b1.center, b, b2.lmn, b2.center, *extra)
    return val


def _contract_eri(b1, b2, b3, b4):
    val = 0.0
    for c1, a1 in zip(b1.coefs, b1.exps):
        for c2, a2 in zip(b2.coefs, b2.exps):
            for c3, a3 in zip(b3.coefs, b3.exps):
                for c4, a4 in zip(b4.coefs, b4.exps):
                    val += c1 * c2 * c3 * c4 * _eri_prim(
                        a1, b1.lmn, b1.center,
                        a2, b2.lmn, b2.center,
                        a3, b3.lmn, b3.center,
                        a4, b4.lmn, b4.center,
                    )
    return val


def ao_integrals(atoms_bohr):
    """Overlap, core Hamiltonian, chemist-ordered ERI tensor, nuclear energy."""
    funcs = build_basis(atoms_bohr)
    n = len(funcs)
    S = np.zeros((n, n))
    T = np.zeros((n, n))
    V = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            S[i, j] = S[j, i] = _contract2(_overlap_prim, funcs[i], funcs[j])
            T[i, j] = T[j, i] = _contract2(_kinetic_prim, funcs[i], funcs[j])
            v = 0.0
            for sym, xyz in atoms_bohr:
                v -= CHARGE[sym] * _contract2(_nuclear_prim, funcs[i], funcs[j], np.asarray(xyz))
            V[i, j] = V[j, i] = v
    eri = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(i + 1):
            ij = i * (i + 1) // 2 + j
            for k in range(n):
                for l in range(k + 1):
                    kl = k * (k + 1) // 2 + l
                    if ij < kl:
                        continue
                    val = _contract_eri(funcs[i], funcs[j], funcs[k], funcs[l])
                    for a, b in ((i, j), (j, i)):
                        for c, d in ((k, l), (l, k)):
                            eri[a, b, c, d] = val
                            eri[c, d, a, b] = val
    e_nuc = 0.0
    for ia, (sa, xa) in enumerate(atoms_bohr):
        for sb, xb in atoms_bohr[:ia]:
            e_nuc += CHARGE[sa] * CHARGE[sb] / np.linalg.norm(np.asarray(xa) - np.asarray(xb))
    return S, T + V, eri, e_nuc


def scf_rhf(S, hcore, eri, nelec, max_cycle=200, e_conv=1e-12, d_conv=1e-10):
    """Closed-shell RHF with DIIS; returns (e_total_electronic, C, eps)."""
    nocc = nelec // 2
    w, U = np.linalg.eigh(S)
    X = U @ np.diag(w**-0.5) @ U.T
    F = hcore.copy()
    fock_list, err_list = [], []
    e_old = 0.0
    for cycle in range(max_cycle):
        eps, Cp = np.linalg.eigh(X.T @ F @ X)
        C = X @ Cp
        D = 2.0 * C[:, :nocc] @ C[:, :nocc].T
        J = np.einsum("ls,mnls->mn", D, eri)
        K = np.einsum("ls,mlsn->mn", D, eri)
        F = hcore + J - 0.5 * K
        e_elec = 0.5 * np.sum(D * (hcore + F))
        err = F @ D @ S - S @ D @ F
        fock_list.append(F.copy())
        err_list.append(err)
        if len(fock_list) > 8:
            fock_list.pop(0)
            err_list.pop(0)
        converged = abs(e_elec - e_old) < e_conv and np.max(np.abs(err)) < d_conv
        e_old = e_elec
        if converged and cycle > 1:
            eps, Cp = np.linalg.eigh(X.T @ F @ X)
            C = X @ Cp
            return e_elec, C, eps
        if len(fock_list) > 1:
            m = len(fock_list)
            B = -np.ones((m + 1, m + 1))
            B[m, m] = 0.0
            for a in range(m):
                for b in range(m):
                    B[a, b] = np.sum(err_list[a] * err_list[b])
            rhs = np.zeros(m + 1)
            rhs[m] = -1.0
            try:
                coef = np.linalg.solve(B, rhs)[:m]
                F = sum(c * f for c, f in zip(coef, fock_list))
            except np.linalg.LinAlgError:
                pass
    raise RuntimeError("SCF failed to converge")


def mo_fcidump(name, atoms_angstrom, outdir):
    atoms = [(s, np.asarray(xyz) * ANGSTROM_TO_BOHR) for s, xyz in atoms_angstrom]
    nelec = sum(CHARGE[s] for s, _ in atoms)
    S, hcore, eri, e_nuc = ao_integrals(atoms)
    e_elec, C, eps = scf_rhf(S, hcore, eri, nelec)
    n = C.shape[0]
    h_mo = C.T @ hcore @ C
    g = np.einsum("pi,pqrs->iqrs", C, eri, optimize=True)
    g = np.einsum("qj,iqrs->ijrs", C, g, optimize=True)
    g = np.einsum("rk,ijrs->ijks", C, g, optimize=True)
    eri_mo = np.einsum("sl,ijks->ijkl", C, g, optimize=True)
    # integrals at or below 1e-16 in magnitude are left out of the file
    h_mo[np.abs(h_mo) <= 1e-16] = 0.0
    eri_mo[np.abs(eri_mo) <= 1e-16] = 0.0
    path = os.path.join(outdir, f"{name}.fcidump")
    with open(path, "w") as fh:
        fh.write(write_fcidump(FcidumpRecord(n, nelec, 0, e_nuc, h_mo, eri_mo)))
    print(f"{name}: norb={n} nelec={nelec} E(RHF)={e_elec + e_nuc:.10f} -> {path}")


def run_checks():
    """Compare H2 at R = 1.4 bohr with textbook minimal-basis values."""
    atoms = [("H", np.zeros(3)), ("H", np.array([0.0, 0.0, 1.4]))]
    S, hcore, eri, e_nuc = ao_integrals(atoms)
    e_elec, _, _ = scf_rhf(S, hcore, eri, 2)
    print("quantity        computed    reference")
    for label, got, ref in [
        ("S(1,2)", S[0, 1], 0.6593),
        ("Hcore(1,1)", hcore[0, 0], -1.1204),
        ("(11|11)", eri[0, 0, 0, 0], 0.7746),
        ("(11|22)", eri[0, 0, 1, 1], 0.5697),
        ("(12|12)", eri[0, 1, 0, 1], 0.2970),
        ("E_elec", e_elec, -1.8310),
        ("E_total", e_elec + e_nuc, -1.1167),
    ]:
        print(f"{label:12s} {got:12.4f} {ref:12.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default=os.path.join(os.path.dirname(__file__), "..", "src", "lcunorm", "data"))
    ap.add_argument("--molecules", default="h2,lih,beh2,h2o,nh3")
    ap.add_argument("--check", action="store_true", help="print H2 reference comparison and exit")
    args = ap.parse_args()
    if args.check:
        run_checks()
        return
    os.makedirs(args.outdir, exist_ok=True)
    geoms = molecule_geometries()
    for name in args.molecules.split(","):
        mo_fcidump(name, geoms[name], args.outdir)


if __name__ == "__main__":
    main()
