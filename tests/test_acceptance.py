"""Acceptance sweep: reference-table reproduction plus bound, identity,
inequality, and solver checks at their stated tolerances.

Reference 1-norms are the bundled desk-scale values for the five fixture
molecules (STO-3G).  Cells tied to non-convex optimization outcomes (the
orbital-optimized and greedy-CSA columns) get a looser tolerance than the
closed-form columns.

dE/2, Pauli and DF in the raw and shifted tables, and the residual dE/2,
are fixed by the tensors and are checked two-sided.  Every other cell is
the 1-norm of a decomposition that some grouping or local search reached,
so its reference is an achieved upper bound: those cells are checked
one-sided (value <= reference + tolerance), and the criterion-9
certificates carry the lower side by rebuilding each such decomposition
from the cached intermediates and recomputing its 1-norm.  The known
deviations from the reference table are listed in the README; failing
cells here are reported, not masked.
"""

import json
import os

import numpy as np
import pytest

from lcunorm.fragments import (
    Fragment,
    _antisymmetric,
    _expm_antisym,
    _fragment_fit,
    _theta_grad,
    _tril,
    csa_greedy,
    double_factorize,
    fragment_tensor,
    lambda_complete_square,
    lambda_fermionic,
    lambda_sqrt_fragment,
    make_rotation,
    rotate_tensors,
    theta_dim,
)
from lcunorm.grouping import sorted_insertion
from lcunorm.optimize import _oo_cost, minimize, oo_pauli
from lcunorm.pauli import PauliPolynomial, jordan_wigner, lambda_pauli_closed_form
from lcunorm.pipeline import _METHODS, _MethodEngine, prepare, run_pipeline
from lcunorm.spectra import minimal_lcu, spectral_range
from lcunorm.symshift import SymmetryShift, apply_shift
from lcunorm.tensors import SpatialTensors, load_fixture, one_body_adjust, to_chemist

from oracles import (
    L1Problem,
    MajoranaPolynomial,
    absorb_one_body,
    dense_hamiltonian,
    expm_frechet_theta_grad,
    jordan_wigner_loop,
    lambda_pauli,
    last_bit_noise,
    majorana_separate,
    majorana_to_pauli,
    number_total,
    poly_matrix,
    random_spatial,
    solve_l1,
    solve_l1_median,
    validate_partition,
)

MOLECULES = ["h2", "lih", "beh2", "h2o", "nh3"]
METHODS = ["de2", "pauli", "oo-pauli", "ac", "oo-ac", "df", "gcsa-f", "gcsa-sr"]

REF_RAW = {
    "h2": [0.82, 1.58, 1.58, 1.49, 1.49, 1.37, 1.77, 1.37],
    "lih": [4.93, 13.0, 12.4, 10.2, 10.2, 9.34, 11.0, 8.25],
    "beh2": [9.99, 22.8, 21.9, 18.0, 17.9, 16.4, 20.1, 14.6],
    "h2o": [41.9, 71.9, 60.1, 57.2, 55.7, 53.7, 59.2, 50.6],
    "nh3": [33.8, 68.6, 54.5, 48.8, 46.8, 44.7, 50.6, 40.6],
}
REF_SHIFTED = {
    "h2": [0.66, 0.84, 0.84, 0.79, 0.79, 0.75, 0.84, 0.74],
    "lih": [3.57, 7.62, 7.02, 5.13, 5.03, 4.76, 5.48, 4.61],
    "beh2": [7.31, 14.2, 13.0, 10.2, 9.83, 9.77, 11.5, 9.58],
    "h2o": [28.9, 46.0, 37.7, 34.4, 32.9, 32.7, 36.1, 31.9],
    "nh3": [23.1, 46.3, 34.6, 29.8, 27.8, 28.1, 31.8, 26.5],
}
REF_RESIDUAL = {
    "h2": [0.20, 0.30, 0.30, 0.30, 0.30, 0.20, 0.30, 0.20],
    "lih": [0.80, 3.13, 2.88, 1.50, 1.49, 1.40, 2.12, 1.53],
    "beh2": [1.00, 5.78, 4.41, 2.60, 2.33, 2.89, 3.95, 2.44],
    "h2o": [2.38, 9.18, 7.77, 4.32, 3.91, 4.47, 7.94, 5.34],
    "nh3": [3.01, 14.3, 11.2, 5.86, 5.23, 6.09, 10.2, 6.42],
}

# closed-form columns; the rest depend on local optimization outcomes
TIGHT = {"de2", "pauli", "ac", "df"}

# columns whose reference is an achieved upper bound (see the module docstring)
UPPER_BOUND = {"ac", "oo-pauli", "oo-ac", "gcsa-f", "gcsa-sr"}
VARIANTS = ["raw", "shifted", "residual"]

CELLS = [(mol, meth) for mol in MOLECULES for meth in METHODS]
CELL_IDS = [f"{mol}-{meth}" for mol, meth in CELLS]


def chemist(name):
    return to_chemist(load_fixture(name))


def _ref(table, molecule, method):
    return table[molecule][METHODS.index(method)]


def _upper_bound(variant, method):
    # every residual column but dE/2 also rests on the split's local optimum
    return method in UPPER_BOUND or (variant == "residual" and method != "de2")


def _check_cell(value, ref, method, loose=False, upper_only=False):
    if loose or method not in TIGHT:
        tol = 0.05 * abs(ref)
    else:
        tol = max(0.02 * abs(ref), 0.02)
    if upper_only:
        assert value <= ref + tol, (
            f"got {value:.4f}, above reference {ref} (allowed excess {tol:.4f})"
        )
    else:
        assert abs(value - ref) <= tol, (
            f"got {value:.4f}, reference {ref} (allowed deviation {tol:.4f})"
        )


# ---- criterion 1: unshifted table ----------------------------------------


@pytest.mark.parametrize(("molecule", "method"), CELLS, ids=CELL_IDS)
def test_c1_raw_table(runner, molecule, method):
    value = runner.entry(molecule, "raw", method)["lambda"]
    ref = _ref(REF_RAW, molecule, method)
    _check_cell(value, ref, method, upper_only=_upper_bound("raw", method))


def test_c1_runtime_budget(runner):
    for mol in MOLECULES:
        budget = 1800.0 if mol == "nh3" else 300.0
        spent = sum(
            runner.elapsed.get((mol, v), 0.0) for v in ("raw", "shifted")
        )
        assert spent <= budget, f"{mol}: {spent:.0f}s over {budget:.0f}s budget"


# ---- criterion 2: shifted table and shift monotonicity --------------------


@pytest.mark.parametrize(("molecule", "method"), CELLS, ids=CELL_IDS)
def test_c2_shifted_table(runner, molecule, method):
    value = runner.entry(molecule, "shifted", method)["lambda"]
    ref = _ref(REF_SHIFTED, molecule, method)
    _check_cell(value, ref, method, upper_only=_upper_bound("shifted", method))


@pytest.mark.parametrize(("molecule", "method"), CELLS, ids=CELL_IDS)
def test_c2_shift_never_raises_norm(runner, molecule, method):
    raw = runner.entry(molecule, "raw", method)["lambda"]
    shifted = runner.entry(molecule, "shifted", method)["lambda"]
    assert shifted <= raw + 1e-9


# ---- criterion 3: residual (interaction-picture) table --------------------


@pytest.mark.parametrize(("molecule", "method"), CELLS, ids=CELL_IDS)
def test_c3_residual_table(runner, molecule, method):
    value = runner.entry(molecule, "residual", method)["lambda"]
    ref = _ref(REF_RESIDUAL, molecule, method)
    upper_only = _upper_bound("residual", method)
    _check_cell(value, ref, method, loose=True, upper_only=upper_only)


# ---- criterion 4: 1-norm lower bound and the minimal LCU ------------------


def _fast_lambdas(t):
    yield lambda_pauli_closed_form(t)
    yield sorted_insertion(jordan_wigner(t)).one_norm()
    mu = np.linalg.eigvalsh(one_body_adjust(t))
    frags = double_factorize(t)
    yield float(np.abs(mu).sum()) + sum(lambda_complete_square(f) for f in frags)


def test_c4_bound_on_random_tensors():
    rng = np.random.default_rng(2026)
    for i in range(200):
        t = random_spatial(1 + i % 3, rng)
        floor = spectral_range(t).half_range - 1e-9
        for lam in _fast_lambdas(t):
            assert lam >= floor
        if i % 8 == 0:
            mu = np.linalg.eigvalsh(one_body_adjust(t))
            frags = csa_greedy(t)
            l1, l2 = lambda_fermionic(mu, frags)
            assert l1 + l2 >= floor
            sr = l1 + sum(lambda_sqrt_fragment(f) for f in frags)
            assert sr >= floor


@pytest.mark.parametrize("variant", ["raw", "shifted", "residual"])
@pytest.mark.parametrize("molecule", MOLECULES)
def test_c4_bound_on_fixtures(runner, molecule, variant):
    report = runner.report(molecule, variant)
    floor = report.methods["de2"]["lambda"] - 1e-9
    for entry in report.methods.values():
        assert entry["lambda"] >= floor


def test_c4_minimal_lcu_on_random_tensors():
    rng = np.random.default_rng(7)
    for i in range(200):
        t = random_spatial(1 + i % 3, rng)
        gamma, coeff, up, um = minimal_lcu(t)
        h = dense_hamiltonian(t)
        dim = h.shape[0]
        assert np.max(np.abs(gamma * np.eye(dim) + coeff * (up + um) - h)) < 1e-9
        assert abs(2 * coeff - spectral_range(t).half_range) < 1e-12


def test_c4_minimal_lcu_on_smallest_fixture():
    # larger fixtures exceed the dense-unitary size cap
    t = chemist("h2")
    gamma, coeff, up, um = minimal_lcu(t)
    h = dense_hamiltonian(t)
    assert np.max(np.abs(gamma * np.eye(16) + coeff * (up + um) - h)) < 1e-9
    assert abs(2 * coeff - spectral_range(t).half_range) < 1e-12


# ---- criterion 5: oracle equivalences -------------------------------------


def test_c5_closed_form_matches_term_expansion():
    rng = np.random.default_rng(11)
    for i in range(100):
        t = random_spatial(1 + i % 3, rng)
        diff = lambda_pauli_closed_form(t) - lambda_pauli(jordan_wigner(t))
        assert abs(diff) < 1e-10


def test_c5_jw_matches_dense():
    rng = np.random.default_rng(12)
    for n in (1, 2):
        for _ in range(5):
            t = random_spatial(n, rng)
            h = poly_matrix(jordan_wigner(t))
            assert np.max(np.abs(h - dense_hamiltonian(t))) < 1e-10


def test_c5_majorana_separation_matches_dense():
    rng = np.random.default_rng(13)
    for _ in range(5):
        t = random_spatial(2, rng)
        const, w, mp = majorana_separate(t)
        terms = {(): const}
        for s in (0, 1):
            for i in range(2):
                for j in range(2):
                    sign, key = MajoranaPolynomial.canonicalize(
                        ((2 * i + s, 0), (2 * j + s, 1))
                    )
                    terms[key] = terms.get(key, 0.0) + sign * w[i, j]
        for key, c in mp.terms.items():
            terms[key] = terms.get(key, 0.0) + c
        back = poly_matrix(majorana_to_pauli(MajoranaPolynomial(4, terms)))
        assert np.max(np.abs(back - dense_hamiltonian(t))) < 1e-10


def test_c5_absorb_one_body_matches_dense():
    rng = np.random.default_rng(14)
    for _ in range(5):
        mu = rng.normal(size=2)
        u = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        st = absorb_one_body(mu, u)
        # same operator written as a pure one-body tensor
        t = SpatialTensors(0.0, u @ np.diag(mu) @ u.T, np.zeros((2, 2, 2, 2)))
        assert np.max(np.abs(dense_hamiltonian(st) - dense_hamiltonian(t))) < 1e-10


def test_c5_apply_shift_matches_dense():
    rng = np.random.default_rng(15)
    ne = number_total(4)
    for _ in range(5):
        t = random_spatial(2, rng)
        shift = SymmetryShift(rng.normal(), rng.normal())
        ts = apply_shift(t, shift)
        expect = shift.s1 * ne + shift.s2 * (ne @ ne)
        assert np.max(np.abs(dense_hamiltonian(t) - dense_hamiltonian(ts) - expect)) < 1e-10


@pytest.mark.parametrize("molecule", MOLECULES)
def test_c5_df_reconstruction_on_fixtures(molecule):
    t = chemist(molecule)
    frags = double_factorize(t)
    back = sum(fragment_tensor(f) for f in frags)
    rel = np.linalg.norm((back - t.tbt).ravel()) / np.linalg.norm(t.tbt.ravel())
    assert rel < 1e-8


@pytest.mark.parametrize("molecule", MOLECULES)
def test_c5_csa_residual_on_fixtures(runner, molecule):
    for variant in VARIANTS:
        t = runner.prepared(molecule, variant).tensors
        frags = runner.engine(molecule, variant).gcsa_fragments
        _certify_gcsa(t, frags, runner.report(molecule, variant).methods)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("molecule", MOLECULES)
def test_c5_jw_matches_the_loop_oracle(runner, molecule, variant):
    # in the input orbitals and in the cached OO-optimal ones
    engine = runner.engine(molecule, variant)
    for optimized in (False, True):
        t, poly = engine.frame(optimized)
        loop = jordan_wigner_loop(t)
        got = dict(zip(poly.keys.tolist(), poly.coeffs))
        want = dict(zip(loop.keys.tolist(), loop.coeffs))
        assert got.keys() == want.keys()
        assert max(abs(got[k] - want[k]) for k in want) <= 1e-12
        ac, ac_loop = sorted_insertion(poly).one_norm(), sorted_insertion(loop).one_norm()
        assert abs(ac - ac_loop) <= 1e-12 * ac_loop


@pytest.mark.parametrize(("molecule", "variant"), [("lih", "residual"), ("nh3", "raw")])
def test_c5_partition_ignores_the_term_order(runner, molecule, variant):
    poly = runner.engine(molecule, variant).frame(False)[1]
    part = sorted_insertion(poly)
    rng = np.random.default_rng(71)
    for _ in range(3):
        perm = rng.permutation(len(poly))
        shuffled = PauliPolynomial(poly.n_qubits, poly.keys[perm], poly.coeffs[perm])
        other = sorted_insertion(shuffled)
        assert [g.keys.tolist() for g in other.groups] == [g.keys.tolist() for g in part.groups]
        assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(other.groups, part.groups))


@pytest.mark.parametrize(
    ("molecule", "variant"),
    [("lih", "raw"), ("lih", "residual"), ("beh2", "raw"), ("beh2", "residual"), ("nh3", "raw")],
)
def test_ac_stable_under_last_bit_noise(runner, molecule, variant):
    # 1e-15 relative noise with the tensor's symmetry breaks the exact |c|
    # ties that spin symmetry makes; the clustered tie order must not care
    t = runner.prepared(molecule, variant).tensors
    base = sorted_insertion(jordan_wigner(t)).one_norm()
    rng = np.random.default_rng(73)
    for _ in range(3):
        lam = sorted_insertion(jordan_wigner(last_bit_noise(t, rng))).one_norm()
        assert abs(lam - base) <= 1e-9 * base, f"AC {base!r} -> {lam!r}"


_REF_TABLES = {"raw": REF_RAW, "shifted": REF_SHIFTED, "residual": REF_RESIDUAL}


@pytest.mark.parametrize(
    ("molecule", "variant"),
    [
        ("lih", "raw"),
        ("lih", "shifted"),
        ("lih", "residual"),
        pytest.param(
            "beh2",
            "raw",
            marks=pytest.mark.xfail(
                strict=True,
                reason="BeH2 raw OO-Pauli falls by 1.4% (22.197 -> 21.886) on the first "
                "draw: the searches from the unperturbed tensor miss that lower optimum",
            ),
        ),
        pytest.param(
            "beh2",
            "shifted",
            marks=pytest.mark.xfail(
                strict=True,
                reason="BeH2 shifted OO-Pauli rises by 4.5% (13.04 -> 13.63) on every "
                "draw: its unperturbed optimum is a last-bit accident of the searches",
            ),
        ),
        ("beh2", "residual"),
    ],
)
def test_oo_stable_under_last_bit_noise(runner, molecule, variant):
    # the noise of the AC test above; the orbital search must land on the
    # same optimum, up to what the kinks of the exact cost let it resolve
    t = runner.prepared(molecule, variant).tensors
    base = runner.entry(molecule, variant, "oo-pauli")["lambda"]
    ref = _ref(_REF_TABLES[variant], molecule, "oo-pauli")
    rng = np.random.default_rng(73)
    for _ in range(3):
        lam = oo_pauli(last_bit_noise(t, rng))[1]
        assert abs(lam - base) <= 1e-5 * base, f"OO-Pauli {base!r} -> {lam!r}"
        _check_cell(lam, ref, "oo-pauli", upper_only=True)


# ---- criterion 6: inequalities and identities -----------------------------


def test_c6_grouping_never_exceeds_pauli():
    rng = np.random.default_rng(21)
    for i in range(100):
        t = random_spatial(2 + i % 2, rng)
        poly = jordan_wigner(t)
        assert sorted_insertion(poly).one_norm() <= lambda_pauli(poly) + 1e-9


def _random_fragment(rng, n):
    lam = rng.normal(size=(n, n))
    u = make_rotation(rng.uniform(-0.5, 0.5, size=theta_dim(n)))
    return Fragment(u, 0.5 * (lam + lam.T))


def test_c6_sqrt_cost_below_fermionic_cost():
    rng = np.random.default_rng(22)
    for _ in range(50):
        f = _random_fragment(rng, int(rng.integers(2, 5)))
        _, l2 = lambda_fermionic(np.zeros(1), [f])
        assert lambda_sqrt_fragment(f) <= l2 + 1e-9


def test_c6_complete_square_equals_sqrt_on_rank_one():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        eps = rng.normal(size=n)
        sign = float(rng.choice([-1.0, 1.0]))
        u = make_rotation(rng.uniform(-0.5, 0.5, size=theta_dim(n)))
        f = Fragment(u, sign * np.outer(eps, eps))
        assert abs(lambda_complete_square(f) - lambda_sqrt_fragment(f)) < 1e-10


def test_c6_one_body_norm_identical_under_both_costings():
    # with no two-body content both reflection costings reduce to sum |mu|
    rng = np.random.default_rng(24)
    obt = rng.normal(size=(3, 3))
    t = SpatialTensors(0.0, 0.5 * (obt + obt.T), np.zeros((3, 3, 3, 3)))
    engine = _MethodEngine(prepare(t))
    f = engine.entry("gcsa-f")["lambda"]
    sr = engine.entry("gcsa-sr")["lambda"]
    mu = np.linalg.eigvalsh(one_body_adjust(t))
    assert f == sr == float(np.abs(mu).sum())


# ---- criterion 7: LP versus median ----------------------------------------


def test_c7_lp_matches_median_on_100_instances():
    rng = np.random.default_rng(31)
    for _ in range(100):
        m = int(rng.integers(2, 15))
        prob = L1Problem(
            rng.normal(size=m),
            np.full((1, m), rng.uniform(0.5, 2.0)),
            rng.uniform(0.2, 4.0, size=m),
        )
        _, f_med = solve_l1_median(prob)
        _, f_lp = solve_l1(prob)
        assert abs(f_med - f_lp) < 1e-9


# ---- criterion 8: optimizer checks ----------------------------------------


def _fd_check(fun, x, grad, step=1e-6):
    fd = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = step
        fd[k] = (fun(x + e) - fun(x - e)) / (2 * step)
    # relative to the central differences, also for the small gradients
    # next to an optimum
    denom = max(float(np.linalg.norm(fd)), np.finfo(float).tiny)
    return float(np.linalg.norm(grad - fd)) / denom


def test_c8_csa_gradient_matches_finite_differences():
    # the CSA cost is projected: x is theta alone, lam is W^T T W
    rng = np.random.default_rng(41)
    n = 3
    target = random_spatial(n, rng).tbt
    for _ in range(5):
        x = rng.uniform(-0.3, 0.3, size=theta_dim(n))
        _, grad = _fragment_fit(x, target)
        fun = lambda y: _fragment_fit(y, target)[0]
        assert _fd_check(fun, x, grad) < 1e-4


def test_c8_csa_cost_near_an_exact_fragment():
    # a target that one fragment explains exactly: the misfit at its rotation
    # is rounding-level, not |T|^2 - |lam|^2 cancellation noise, and the
    # gradient still matches finite differences next to it
    rng = np.random.default_rng(43)
    for n in (3, 4, 5):
        theta = rng.uniform(-1.0, 1.0, size=theta_dim(n))
        lam = rng.normal(size=(n, n))
        target = fragment_tensor(Fragment(make_rotation(theta), lam + lam.T))
        target /= np.linalg.norm(target)
        cost, _ = _fragment_fit(theta, target)
        assert 0.0 <= cost <= 1e-28
        x = theta + 1e-5 * rng.normal(size=theta.size)
        cost, grad = _fragment_fit(x, target)
        assert 0.0 < cost < 1e-8
        fun = lambda y: _fragment_fit(y, target)[0]
        assert _fd_check(fun, x, grad, step=1e-7) < 1e-4


def test_c8_split_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    n = 3
    t = random_spatial(n, rng)
    for _ in range(5):
        x = rng.uniform(-0.3, 0.3, size=theta_dim(n))
        _, grad = _fragment_fit(x, t.tbt, t.obt)
        fun = lambda y: _fragment_fit(y, t.tbt, t.obt)[0]
        assert _fd_check(fun, x, grad) < 1e-4


def test_c8_csa_projection_is_the_split_optimum_in_lam():
    # when obt is u diag(mu) u^T for the fragment's own u, the projected mu
    # explains it exactly, so the split kernel's cost and theta gradient are
    # the CSA ones: the one-body term adds nothing at the projection
    rng = np.random.default_rng(44)
    for n in (3, 4, 5):
        t = random_spatial(n, rng)
        theta = rng.uniform(-1.0, 1.0, size=theta_dim(n))
        mu = rng.normal(size=n)
        u = make_rotation(theta)
        split_cost, split_grad = _fragment_fit(theta, t.tbt, (u * mu) @ u.T)
        csa_cost, csa_grad = _fragment_fit(theta, t.tbt)
        assert abs(split_cost - csa_cost) <= 1e-12 * max(1.0, csa_cost)
        assert np.abs(split_grad - csa_grad).max() <= 1e-12 * max(1.0, np.abs(csa_grad).max())


def test_c8_eigenbasis_adjoint_matches_expm_frechet():
    # _theta_grad against scipy's Frechet derivative: at theta = 0, with
    # repeated +-eigenvalue pairs of a, and at random theta up to 3
    rng = np.random.default_rng(45)
    for n in range(2, 9):
        k = theta_dim(n)
        rows, cols = np.tril_indices(n, -1)
        blocks = np.zeros((n, n))
        for p in range(0, n - 1, 2):  # equal 2x2 rotation blocks: +-0.7i, repeated
            blocks[p + 1, p], blocks[p, p + 1] = 0.7, -0.7
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        repeated = (q @ blocks @ q.T)[rows, cols]
        for theta in [np.zeros(k), repeated, *rng.uniform(-3.0, 3.0, size=(3, k))]:
            a = _antisymmetric(theta, n)
            gu = rng.normal(size=(n, n))
            got = _theta_grad(_expm_antisym(a)[1], gu)
            ref = expm_frechet_theta_grad(a, gu)
            assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_c8_oo_gradient_matches_finite_differences():
    rng = np.random.default_rng(43)
    for n in (3, 4):
        t = random_spatial(n, rng)
        for _ in range(3):
            x = rng.uniform(-0.3, 0.3, size=theta_dim(n))
            _, grad = _oo_cost(x, t, width=1e-2)
            fun = lambda y: _oo_cost(y, t, width=1e-2)[0]
            assert _fd_check(fun, x, grad) < 1e-4
            # the exact search reports the closed form of the rotated tensors
            exact = lambda_pauli_closed_form(rotate_tensors(make_rotation(x), t))
            assert _oo_cost(x, t)[0] == exact
    rows, _ = _tril(4, -1)
    with pytest.raises(ValueError):
        rows[0] = 1


def test_c8_bfgs_solves_quadratic():
    x, f, _ = minimize(lambda v: (float((v[0] - 3.0) ** 2), 2.0 * (v - 3.0)), np.array([10.0]))
    assert abs(x[0] - 3.0) < 1e-6 and f < 1e-10


def test_c8_bfgs_solves_rosenbrock():
    def rosen(v):
        cost = float(100.0 * (v[1] - v[0] ** 2) ** 2 + (1.0 - v[0]) ** 2)
        dv1 = 200.0 * (v[1] - v[0] ** 2)
        return cost, np.array([-2.0 * v[0] * dv1 - 2.0 * (1.0 - v[0]), dv1])

    x, f, _ = minimize(rosen, np.array([-1.2, 1.0]), 1e-10)
    assert np.max(np.abs(x - 1.0)) < 1e-6


# ---- criterion 9: certificates for the one-sided cells ------------------
#
# A one-sided cell accepts any value below its reference, so a 1-norm that
# is reported too low (a stale or corrupted cache entry, a costing bug)
# would pass the table.  Each certificate rebuilds the decomposition from
# the tensors and the cached intermediates, checks that it is a valid
# decomposition of those tensors, and recomputes the reported 1-norm.


def _assert_reported(recomputed, entry, what):
    reported = entry["lambda"]
    assert abs(recomputed - reported) <= 1e-9 * max(1.0, abs(recomputed)), (
        f"{what}: reported {reported!r}, the decomposition gives {recomputed!r}"
    )


def _certify_partition(poly, entry, what):
    part = sorted_insertion(poly)
    validate_partition(part)
    held = {}
    for group in part.groups:
        for key, c in zip(group.keys.tolist(), group.coeffs):
            assert key not in held, f"{what}: a term sits in two groups"
            held[key] = c
    assert held == {k: c for k, c in zip(poly.keys.tolist(), poly.coeffs) if k != 0}
    _assert_reported(part.one_norm(), entry, what)


def _certify_oo(t, theta, methods):
    u = make_rotation(theta)
    rt = rotate_tensors(u, t)
    back = rotate_tensors(u.T, rt)
    assert np.max(np.abs(back.obt - t.obt)) <= 1e-10
    assert np.max(np.abs(back.tbt - t.tbt)) <= 1e-10
    poly = jordan_wigner(rt)
    _assert_reported(lambda_pauli(poly), methods["oo-pauli"], "oo-pauli")
    _certify_partition(poly, methods["oo-ac"], "oo-ac")


def _certify_gcsa(t, frags, methods):
    resid = t.tbt - sum(fragment_tensor(f) for f in frags)
    assert float(np.sqrt((resid * resid).sum())) <= 1e-6
    mu = np.linalg.eigvalsh(one_body_adjust(t))
    l1, l2 = lambda_fermionic(mu, frags)
    _assert_reported(l1 + l2, methods["gcsa-f"], "gcsa-f")
    sr = float(np.abs(mu).sum()) + sum(lambda_sqrt_fragment(f) for f in frags)
    _assert_reported(sr, methods["gcsa-sr"], "gcsa-sr")


def _certify_residual(t, split, methods):
    # The residual is H - H0 for the cached H0: its squared norm is the fit
    # cost at H0's frame, which the fit builds by its own contraction.
    res = split.residual
    fit = _fragment_fit(split.theta, t.tbt, t.obt)[0]
    left = float((res.obt * res.obt).sum() + (res.tbt * res.tbt).sum())
    assert abs(fit - left) <= 1e-10 * max(1.0, fit)
    closed = lambda_pauli_closed_form(res)
    assert abs(closed - lambda_pauli(jordan_wigner(res))) < 1e-10
    _assert_reported(closed, methods["pauli"], "pauli")
    frags = double_factorize(res)
    back = sum(fragment_tensor(f) for f in frags)
    rel = np.linalg.norm((back - res.tbt).ravel()) / np.linalg.norm(res.tbt.ravel())
    assert rel <= 1e-8
    mu = np.linalg.eigvalsh(one_body_adjust(res))
    df = float(np.abs(mu).sum()) + sum(lambda_complete_square(f) for f in frags)
    _assert_reported(df, methods["df"], "df")


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("molecule", MOLECULES)
def test_c9_ac_cells_are_certified(runner, molecule, variant):
    t = runner.prepared(molecule, variant).tensors
    _certify_partition(jordan_wigner(t), runner.entry(molecule, variant, "ac"), "ac")


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("molecule", MOLECULES)
def test_c9_oo_cells_are_certified(runner, molecule, variant):
    t = runner.prepared(molecule, variant).tensors
    theta = runner.engine(molecule, variant).oo_theta
    methods = runner.report(molecule, variant).methods
    _certify_oo(t, theta, methods)
    # grouping the rotated polynomial never costs more than its single terms
    assert methods["oo-ac"]["lambda"] <= methods["oo-pauli"]["lambda"] + 1e-10


@pytest.mark.parametrize("molecule", MOLECULES)
def test_c9_residual_cells_are_certified(runner, molecule):
    split = runner.prepared(molecule, "residual").split
    methods = runner.report(molecule, "residual").methods
    _certify_residual(chemist(molecule), split, methods)


@pytest.mark.parametrize(
    "variant, method",
    [("raw", m) for m in sorted(UPPER_BOUND)]
    + [("residual", "pauli"), ("residual", "df")],
)
def test_c9_certificates_reject_a_lowered_cache_entry(tmp_path, variant, method):
    d = str(tmp_path)
    kwargs = {"picture": "interaction"} if variant == "residual" else {}
    run_pipeline("h2", cache_dir=d, **kwargs)
    p = prepare("h2", cache_dir=d, **kwargs)
    engine = _MethodEngine(p, d)
    path = os.path.join(d, engine.cache.key(method) + ".json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["lambda"] *= 0.9
    with open(path, "w") as fh:
        json.dump(doc, fh)
    # without de2, whose floor would reject a value lowered below it
    methods = run_pipeline("h2", METHODS[1:], cache_dir=d, **kwargs).methods
    assert methods[method]["lambda"] == doc["lambda"]  # served from the cache
    with pytest.raises(AssertionError):
        if method == "ac":
            _certify_partition(jordan_wigner(p.tensors), methods["ac"], "ac")
        elif method.startswith("oo-"):
            _certify_oo(p.tensors, engine.oo_theta, methods)
        elif method.startswith("gcsa-"):
            _certify_gcsa(p.tensors, engine.gcsa_fragments, methods)
        else:
            _certify_residual(chemist("h2"), p.split, methods)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("molecule", MOLECULES)
def test_entries_recomputed_from_intermediates_match_cache(runner, molecule, variant):
    # The tables read every entry back from the session's cache.  This reruns
    # each method but dE/2 (see test_half_range_recomputed_cold_matches_cache)
    # on the tensors and the stored intermediates (orbital rotation, CSA
    # fragments, split), so only the entry itself is bypassed: an entry or an
    # intermediate that does not survive the disk round trip shows here.
    engine = runner.engine(molecule, variant)
    cached = runner.report(molecule, variant).methods
    for method in METHODS[1:]:
        fresh = _METHODS[method][1](engine)
        want = cached[method]
        assert fresh["unitary_count"] == want["unitary_count"], method
        assert abs(fresh["lambda"] - want["lambda"]) <= 1e-12 * abs(want["lambda"]), (
            f"{method}: cached {want['lambda']!r}, recomputed {fresh['lambda']!r}"
        )


# ---- count sanity (not value-gated): term and group tallies ----------------

PAULI_LOG2 = {
    "h2": (4, 4),
    "lih": (10, 10),
    "beh2": (10, 10),
    "h2o": (11, 11),
    "nh3": (12, 12),
}
AC_LOG2 = {
    "h2": (4, 5),
    "lih": (7, 7),
    "beh2": (8, 8),
    "h2o": (8, 8),
    "nh3": (9, 9),
}


@pytest.mark.parametrize("molecule", MOLECULES)
def test_counts_within_one_in_the_log(runner, molecule):
    for method, refs in (("pauli", PAULI_LOG2), ("ac", AC_LOG2)):
        for variant, ref in zip(("raw", "shifted"), refs[molecule]):
            got = runner.entry(molecule, variant, method)["log2_ceil"]
            assert abs(got - ref) <= 1, f"{method}/{variant}: {got} vs {ref}"
