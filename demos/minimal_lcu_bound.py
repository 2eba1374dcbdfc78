"""Show that the spectral half-range is an attainable 1-norm floor.

Builds the two-reflection decomposition H = gamma*1 + c*(U+ + U-) for H2,
verifies it reassembles the Hamiltonian, and compares its 1-norm with what
the practical decompositions achieve.

Run:  python demos/minimal_lcu_bound.py
"""

import numpy as np

from lcunorm import (
    jordan_wigner,
    load_fixture,
    minimal_lcu,
    run_pipeline,
    spectral_range,
    to_chemist,
)

t = to_chemist(load_fixture("h2"))
sr = spectral_range(t)
print(f"H2 spectrum over the whole Fock space: [{sr.e_min:.4f}, {sr.e_max:.4f}]")
print(f"half-range (the 1-norm floor): {sr.half_range:.4f}\n")

gamma, coeff, u_plus, u_minus = minimal_lcu(t)
h = jordan_wigner(t).dense()
dim = h.shape[0]
err = np.max(np.abs(gamma * np.eye(dim) + coeff * (u_plus + u_minus) - h))
unitarity = np.max(np.abs(u_plus @ u_plus.conj().T - np.eye(dim)))
print(f"two-reflection LCU: gamma = {gamma:.4f}, coefficient = {coeff:.4f} each")
print(f"reassembly error   : {err:.2e}")
print(f"unitarity defect   : {unitarity:.2e}")
print(f"achieved 1-norm    : {2 * coeff:.4f}  (equals the floor)\n")

report = run_pipeline("h2")
print("practical decompositions never beat the floor:")
for method, entry in report.methods.items():
    marker = "=" if abs(entry["lambda"] - sr.half_range) < 1e-9 else ">"
    print(f"  {method:9s} {entry['lambda']:8.4f}  {marker} {sr.half_range:.4f}")
