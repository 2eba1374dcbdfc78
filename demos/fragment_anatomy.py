"""Compare double factorization with greedy CSA on the same molecule.

Both write the two-electron tensor as orbital-rotated diagonal fragments;
DF restricts each fragment to rank one while greedy CSA fits unrestricted
diagonal matrices.  The demo prints fragment counts, reconstruction error,
and the per-fragment norms under the three unitarization costings.

Run:  python demos/fragment_anatomy.py
"""

import numpy as np

from lcunorm import (
    csa_greedy,
    double_factorize,
    fragment_tensor,
    lambda_complete_square,
    lambda_fermionic,
    lambda_sqrt_fragment,
    load_fixture,
    one_body_adjust,
    to_chemist,
)

t = to_chemist(load_fixture("lih"))
mu = np.linalg.eigvalsh(one_body_adjust(t))
print(f"LiH: {t.n_orb} spatial orbitals, one-body 1-norm sum|mu| = {np.abs(mu).sum():.4f}\n")

for label, frags in (
    ("double factorization", double_factorize(t)),
    ("greedy CSA", csa_greedy(t)),
):
    back = sum(fragment_tensor(f) for f in frags)
    rel = np.linalg.norm((back - t.tbt).ravel()) / np.linalg.norm(t.tbt.ravel())
    _, ferm = lambda_fermionic(mu, frags)
    sqrt_total = sum(lambda_sqrt_fragment(f) for f in frags)
    print(f"{label}: {len(frags)} fragments, reconstruction residual {rel:.2e}")
    print(f"  fermionic-reflection two-body cost : {ferm:.4f}")
    print(f"  square-root two-body cost          : {sqrt_total:.4f}")
    if label.startswith("double"):
        cs = sum(lambda_complete_square(f) for f in frags)
        print(f"  complete-square two-body cost      : {cs:.4f}")
    lam = max((f.lam for f in frags), key=lambda lam: np.abs(lam).sum())
    print(f"  largest fragment |lam| sum {np.abs(lam).sum():.4f}, rank {np.linalg.matrix_rank(lam, tol=1e-10)}")
    print()

print("rank-1 fragments make the square-root and complete-square costs agree;")
print("unrestricted fragments trade more rank for fewer fragments.")
