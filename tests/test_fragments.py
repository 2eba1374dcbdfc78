"""Fragment decompositions: rotations, double factorization, greedy CSA, costs."""

import json

import numpy as np
import pytest
from oracles import (
    antisymmetric_2d,
    csa_fit_tolerance,
    dense_hamiltonian,
    df_start_logm,
    expm_antisym_eigh,
    fragment_fit_reference,
    pair_columns_einsum,
    random_spatial,
    reflection_term_count_loop,
    rotate_tensordot,
    theta_grad_sinc,
)
from scipy.optimize import linear_sum_assignment

from lcunorm.errors import NumericalError
from lcunorm.fragments import (
    CSA_TOL,
    Fragment,
    _antisymmetric,
    _df_start,
    _expm_antisym,
    _fragment_fit,
    _pair_columns,
    _rotate,
    _theta_grad,
    csa_greedy,
    double_factorize,
    fragment_tensor,
    lambda_complete_square,
    lambda_fermionic,
    lambda_sqrt_fragment,
    make_rotation,
    reflection_term_count,
    rotate_tensors,
    theta_dim,
)
from lcunorm.pipeline import _MethodEngine, prepare
from lcunorm.tensors import FIXTURE_NAMES, SpatialTensors, load_fixture, to_chemist
from lcunorm.work import counting


def _diag_fragment(lam, n):
    return Fragment(np.eye(n), lam)


def test_zero_theta_is_identity():
    u = make_rotation(np.zeros(theta_dim(4)))
    assert np.abs(u - np.eye(4)).max() == 0.0


def test_quarter_rotation():
    u = make_rotation(np.array([np.pi / 2]))
    assert np.abs(u - np.array([[0.0, -1.0], [1.0, 0.0]])).max() < 1e-12


def test_rotation_orthogonality():
    rng = np.random.default_rng(7)
    u = make_rotation(rng.standard_normal(theta_dim(4)))
    assert np.abs(u.T @ u - np.eye(4)).max() < 1e-12
    assert abs(np.linalg.det(u) - 1.0) < 1e-10


def test_rotation_rejects_non_finite_angles():
    # the kernel's eigensolver returns NaN pairs for a NaN generator instead
    # of raising, so make_rotation checks theta itself
    for bad in (np.nan, np.inf, -np.inf):
        theta = np.zeros(theta_dim(3))
        theta[1] = bad
        with pytest.raises(ValueError, match="finite"):
            make_rotation(theta)


def test_rotate_tensors_rejects_a_non_finite_matrix():
    # NaN fails every comparison, so without its own check an all-NaN
    # matrix would pass the orthogonality and determinant tests
    t = to_chemist(load_fixture("h2"))
    with pytest.raises(ValueError, match="finite"):
        rotate_tensors(np.full((2, 2), np.nan), t)
    with pytest.raises(ValueError, match="finite"):
        rotate_tensors(np.array([[1.0, 0.0], [0.0, np.inf]]), t)


def test_rotation_kernel_matches_numpys_wrappers_bit_for_bit():
    # the eigh gufunc, the inlined sinc, the flat-index scatter and gathers,
    # the broadcast pair columns and tensordot's np.dot against
    # np.linalg.eigh, np.sinc, 2-D indexing, np.einsum and np.tensordot.  At
    # theta = 0 every eigenvalue is 0 (sinc's eps branch on every entry);
    # equal 2x2 rotation blocks repeat the +-0.7 pairs
    rng = np.random.default_rng(46)
    for n in range(2, 9):
        k = theta_dim(n)
        rows, cols = np.tril_indices(n, -1)
        blocks = np.zeros((n, n))
        for p in range(0, n - 1, 2):
            blocks[p + 1, p], blocks[p, p + 1] = 0.7, -0.7
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        repeated = (q @ blocks @ q.T)[rows, cols]
        t = random_spatial(n, rng)
        for theta in [np.zeros(k), repeated, *rng.uniform(-3.0, 3.0, size=(3, k))]:
            a = _antisymmetric(theta, n)
            assert np.array_equal(a, antisymmetric_2d(theta, n))
            u, (w, v) = _expm_antisym(a)
            ref_u, (ref_w, ref_v) = expm_antisym_eigh(a)
            assert np.array_equal(u, ref_u) and np.array_equal(w, ref_w)
            assert np.array_equal(v, ref_v)
            gu = rng.normal(size=(n, n))
            assert np.array_equal(_theta_grad((w, v), gu), theta_grad_sinc((w, v), gu))
            assert np.array_equal(_pair_columns(u), pair_columns_einsum(u))
            obt, tbt, flat = _rotate(u, t.obt, t.tbt)
            ref_obt, ref_tbt, ref_part = rotate_tensordot(u, t.obt, t.tbt)
            assert np.array_equal(obt, ref_obt) and np.array_equal(tbt, ref_tbt)
            assert np.array_equal(flat, ref_part.transpose(1, 2, 3, 0).reshape(n**3, n))


@pytest.mark.parametrize("molecule", FIXTURE_NAMES)
def test_fragment_fit_matches_its_reference_bit_for_bit(molecule):
    # CSA's fit (the unit-scaled tensor) and the split's (with obt) at the DF
    # start of the raw, shifted and residual tensors
    for variant in ({}, {"shift": True}, {"picture": "interaction"}):
        t = prepare(molecule, **variant).tensors
        scaled = t.tbt / np.sqrt((t.tbt * t.tbt).sum())
        theta = _df_start(scaled)
        for args in ((theta, scaled), (theta, t.tbt, t.obt)):
            cost, grad = _fragment_fit(*args)
            ref_cost, ref_grad = fragment_fit_reference(*args)
            assert cost == ref_cost and np.array_equal(grad, ref_grad)


def test_rotation_rejects_non_orthogonal():
    # rotate_tensors is where a rotation matrix enters from outside: it
    # refuses a matrix that is not orthogonal, a reflection (det -1) and
    # a matrix of the wrong size
    t = random_spatial(2, np.random.default_rng(11))
    with pytest.raises(ValueError, match="not orthogonal"):
        rotate_tensors(np.array([[1.0, 0.3], [0.0, 1.0]]), t)
    with pytest.raises(ValueError, match="determinant"):
        rotate_tensors(np.array([[0.0, 1.0], [1.0, 0.0]]), t)
    with pytest.raises(ValueError, match="dimension"):
        rotate_tensors(np.eye(3), t)


def test_rotate_identity_and_inverse():
    rng = np.random.default_rng(13)
    t = random_spatial(3, rng)
    ident = make_rotation(np.zeros(theta_dim(3)))
    t1 = rotate_tensors(ident, t)
    assert np.abs(t1.obt - t.obt).max() == 0.0
    theta = rng.standard_normal(theta_dim(3))
    t2 = rotate_tensors(make_rotation(-theta), rotate_tensors(make_rotation(theta), t))
    assert np.abs(t2.obt - t.obt).max() < 1e-12
    assert np.abs(t2.tbt - t.tbt).max() < 1e-12


def test_rotation_preserves_fock_spectrum():
    rng = np.random.default_rng(17)
    t = random_spatial(2, rng)
    r = make_rotation(rng.standard_normal(theta_dim(2)))
    e1 = np.linalg.eigvalsh(dense_hamiltonian(t))
    e2 = np.linalg.eigvalsh(dense_hamiltonian(rotate_tensors(r, t)))
    assert np.abs(e1 - e2).max() < 1e-9


def _square_tensor(eps):
    lam = np.outer(eps, eps)
    n = eps.size
    tbt = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            tbt[i, i, j, j] = lam[i, j]
    return tbt


def test_df_recovers_single_square():
    eps = np.array([1.0, 0.5])
    t = SpatialTensors(0.0, np.zeros((2, 2)), _square_tensor(eps))
    frags = double_factorize(t)
    assert len(frags) == 1
    lam = frags[0].lam
    # the positive rank-1 lam = eps outer eps, |eps| = sqrt(diag(lam))
    assert np.abs(np.linalg.eigvalsh(lam) - np.array([0.0, 1.25])).max() < 1e-12
    got = np.sort(np.sqrt(np.diag(lam)))
    assert np.abs(got - np.array([0.5, 1.0])).max() < 1e-12


def test_df_empty_for_zero_tensor():
    t = SpatialTensors(0.0, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)))
    assert double_factorize(t) == []


@pytest.mark.parametrize("name", ["h2", "lih", "beh2", "h2o", "nh3"])
def test_df_reconstructs_fixtures(name):
    t = to_chemist(load_fixture(name))
    frags = double_factorize(t)
    recon = sum(fragment_tensor(f) for f in frags)
    rel = np.linalg.norm(recon - t.tbt) / np.linalg.norm(t.tbt)
    assert rel < 1e-10


def test_csa_exact_representability():
    rng = np.random.default_rng(19)
    lam = rng.standard_normal((3, 3))
    lam = lam + lam.T
    t = SpatialTensors(0.0, np.zeros((3, 3)), fragment_tensor(_diag_fragment(lam, 3)))
    frags = csa_greedy(t, seed=0)
    recon = sum(fragment_tensor(f) for f in frags)
    assert np.linalg.norm(recon - t.tbt) <= 1e-6


def test_csa_zero_tensor():
    t = SpatialTensors(0.0, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)))
    assert csa_greedy(t) == []


def test_csa_h2_residual_and_monotone():
    t = to_chemist(load_fixture("h2"))
    frags = csa_greedy(t, seed=0)
    resid = t.tbt.copy()
    norms = [np.linalg.norm(resid)]
    for f in frags:
        resid = resid - fragment_tensor(f)
        norms.append(np.linalg.norm(resid))
    assert norms[-1] <= 1e-6
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-12


def test_csa_fails_fast_at_the_fragment_cap(monkeypatch):
    import lcunorm.fragments as fr

    # one fragment per orbital: LiH (6 orbitals) needs many more to reach 1e-6
    monkeypatch.setattr(fr, "_CSA_FRAGS_PER_ORBITAL", 1)
    lih = to_chemist(load_fixture("lih"))
    with pytest.raises(NumericalError, match="exceeded 6 fragments without reaching 1e-06") as exc:
        csa_greedy(lih, seed=0)
    assert exc.value.payload["n_fragments"] == 6
    assert exc.value.payload["residual"] > 1e-6


@pytest.mark.parametrize("name", ["h2", "lih", "beh2", "h2o", "nh3", "random"])
def test_df_start_is_the_leading_df_rotation(name):
    # the start has the pair projector W W^T of the leading DF fragment, so
    # its misfit is at most |T|^2 - w_max^2 <= (1 - 1/n^2) |T|^2.  The
    # random tensor's leading eigenvalue is negative.  Both sides see the
    # same tensor: eigh's basis of a repeated eigenvalue of the reshaped
    # eigenvector depends on its last bits
    if name == "random":
        t = random_spatial(5, np.random.default_rng(2))
    else:
        t = to_chemist(load_fixture(name))
    n = t.n_orb
    theta = _df_start(t.tbt)
    w_start, w_df = _pair_columns(make_rotation(theta)), _pair_columns(double_factorize(t)[0].u)
    assert np.abs(w_start @ w_start.T - w_df @ w_df.T).max() <= 1e-10
    norm2 = (t.tbt**2).sum()
    w_max = np.abs(np.linalg.eigvalsh(t.tbt.reshape(n * n, n * n))).max()
    assert w_max**2 >= norm2 / n**2
    assert _fragment_fit(theta, t.tbt)[0] <= norm2 - w_max**2 + 1e-12 * norm2


def test_df_start_turns_an_improper_frame_proper():
    # an eigenvector frame whose columns, once on a positive diagonal, have
    # det -1: a column sign flips so that the rotation has a real log
    rng = np.random.default_rng(59)
    for _ in range(10000):
        u = np.linalg.qr(rng.normal(size=(8, 8)))[0]
        q = u[:, linear_sum_assignment(-np.abs(u))[1]]
        if np.linalg.det(q * np.where(np.diag(q) < 0, -1.0, 1.0)) < 0:
            break
    else:
        pytest.fail("no improper frame found")
    ell = (u * np.arange(1.0, 9.0)) @ u.T
    w_start = _pair_columns(make_rotation(_df_start(np.einsum("ij,kl->ijkl", ell, ell))))
    assert np.abs(w_start @ w_start.T - _pair_columns(u) @ _pair_columns(u).T).max() <= 1e-10


@pytest.mark.parametrize("molecule", FIXTURE_NAMES)
def test_df_start_log_matches_logm(molecule):
    # the Schur log of the DF frame against scipy's general logm, on the raw,
    # shifted and residual tensors
    for variant in ({}, {"shift": True}, {"picture": "interaction"}):
        tbt = prepare(molecule, **variant).tensors.tbt
        assert np.abs(_df_start(tbt) - df_start_logm(tbt)).max() <= 1e-13


def test_df_start_log_matches_logm_on_random_rotations():
    # a rank-1 tensor whose DF frame is a random rotation of 2-8 orbitals
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        u = make_rotation(rng.uniform(-0.8, 0.8, theta_dim(n)))
        ell = (u * rng.uniform(0.5, 2.0, n)) @ u.T
        tbt = np.einsum("ij,kl->ijkl", ell, ell)
        assert np.abs(_df_start(tbt) - df_start_logm(tbt)).max() <= 1e-13


def test_df_start_one_orbital():
    theta = _df_start(np.full((1, 1, 1, 1), 2.0))
    assert theta.shape == (0,)
    assert make_rotation(theta).tolist() == [[1.0]]


def test_csa_runs_one_fit_per_fragment():
    t = random_spatial(4, np.random.default_rng(47))
    with counting() as counts:
        frags = csa_greedy(t, seed=0)
    assert len(frags) > 1
    assert counts["bfgs_runs"] == len(frags)


@pytest.mark.parametrize("scale", [1.0, 1e-2, 1e2], ids=["lih", "lih-x1e-2", "lih-x1e2"])
def test_csa_fit_tolerance_follows_the_residual(monkeypatch, scale):
    # csa_greedy imports minimize at each call, so every fit goes through this
    import lcunorm.optimize as opt

    inner, tols = opt.minimize, []

    def recording(f, x0, tol_grad, jac=True):
        tols.append(tol_grad)
        return inner(f, x0, tol_grad, jac)

    monkeypatch.setattr(opt, "minimize", recording)
    lih = to_chemist(load_fixture("lih"))
    t = lih.replace(tbt=scale * lih.tbt)
    frags = csa_greedy(t, seed=0)
    assert len(tols) == len(frags)
    # each fit gets the rule's value for the residual norm before it
    target = t.tbt.copy()
    for tol, frag in zip(tols, frags):
        assert tol == csa_fit_tolerance(float(np.sqrt((target * target).sum())))
        target -= fragment_tensor(frag)
    assert np.sqrt((target * target).sum()) <= CSA_TOL
    # never tighter as the residual shrinks: the last fits (residual below
    # 1e-4) reach the cap, and only the tensor scaled by 1e2 the floor
    assert all(a <= b for a, b in zip(tols, tols[1:]))
    assert tols[-1] == 1e-3
    assert (tols[0] == 1e-9) == (scale == 1e2)


def test_csa_is_deterministic_per_seed():
    t = to_chemist(load_fixture("lih"))
    a, b = (csa_greedy(t, seed=5) for _ in range(2))
    assert len(a) == len(b)
    for f, g in zip(a, b):
        assert np.array_equal(f.u, g.u)
        assert np.array_equal(f.lam, g.lam)


@pytest.mark.parametrize("with_obt", [False, True], ids=["csa", "split"])
def test_fragment_fit_gradient_matches_finite_differences(with_obt):
    # theta alone in both: CSA fits the two-body tensor with lam projected;
    # the split fits the one-body matrix too, with mu projected
    rng = np.random.default_rng(23)
    n = 3
    t = random_spatial(n, rng)
    obt = t.obt if with_obt else None
    dim = theta_dim(n)
    h = 1e-5
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, size=dim)
        _, grad = _fragment_fit(x, t.tbt, obt)
        fd = np.zeros(dim)
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = h
            fp = _fragment_fit(x + e, t.tbt, obt)[0]
            fd[k] = (fp - _fragment_fit(x - e, t.tbt, obt)[0]) / (2 * h)
        scale = max(1.0, np.abs(fd).max())
        assert np.abs(grad - fd).max() / scale < 1e-4


def test_lambda_fermionic_trivial():
    l1, l2 = lambda_fermionic(np.array([-1.0, 2.0]), [_diag_fragment(np.array([[1.0]]), 1)])
    assert l1 == 3.0
    assert l2 == 0.5


def test_reflection_term_count_matches_loop():
    # |lam_ij| / 2 is compared exactly, so an entry of 2 * cutoff sits on the
    # cutoff and is not counted, and the next float above it is
    cutoff = 1e-6
    edge, above = 2.0 * cutoff, np.nextafter(2.0 * cutoff, 1.0)
    rng = np.random.default_rng(31)
    for n in (1, 2, 5, 8):
        for _ in range(4):
            lam = rng.standard_normal((n, n)) * 3e-6
            lam[rng.random((n, n)) < 0.3] = edge
            lam[rng.random((n, n)) < 0.2] = -edge
            lam[rng.random((n, n)) < 0.1] = above
            lam = np.tril(lam) + np.tril(lam, -1).T
            assert reflection_term_count(lam, cutoff) == reflection_term_count_loop(lam, cutoff)
        assert reflection_term_count(np.full((n, n), -edge), cutoff) == 0
        assert reflection_term_count(np.full((n, n), above), cutoff) == n + 2 * n * (n - 1)


def test_lambda_sqrt_single_term():
    f = _diag_fragment(np.array([[1.0]]), 1)
    assert abs(lambda_sqrt_fragment(f) - 0.5) < 1e-12


def test_complete_square_examples():
    assert lambda_complete_square(_diag_fragment(np.ones((2, 2)), 2)) == 2.0
    assert lambda_complete_square(_diag_fragment(np.zeros((2, 2)), 2)) == 0.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_complete_square_keeps_the_bits_of_eps(sign):
    # a correctly rounded sqrt returns |e| from fl(e * e), so the cost read
    # from lam = sign * (eps outer eps) has the bits of the cost of eps
    rng = np.random.default_rng(61)
    for _ in range(500):
        n = int(rng.integers(1, 13))
        eps = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-150.0, 150.0, size=n)
        f = Fragment(make_rotation(rng.standard_normal(theta_dim(n))), sign * np.outer(eps, eps))
        assert lambda_complete_square(f) == 0.5 * np.abs(eps).sum() ** 2


def test_sqrt_cost_below_fermionic():
    rng = np.random.default_rng(29)
    for _ in range(50):
        lam = rng.standard_normal((3, 3))
        lam = lam + lam.T
        f = _diag_fragment(lam, 3)
        l2 = float(np.abs(lam).sum() - 0.5 * np.abs(np.diag(lam)).sum())
        assert lambda_sqrt_fragment(f) <= l2 + 1e-12


def test_sqrt_equals_complete_square_rank_one():
    rng = np.random.default_rng(31)
    for _ in range(50):
        eps = rng.standard_normal(4)
        f = _diag_fragment(np.outer(eps, eps), 4)
        assert abs(lambda_sqrt_fragment(f) - lambda_complete_square(f)) < 1e-10


def test_sqrt_rotation_invariant():
    rng = np.random.default_rng(37)
    lam = rng.standard_normal((3, 3))
    lam = lam + lam.T
    a = _diag_fragment(lam, 3)
    b = Fragment(make_rotation(rng.standard_normal(theta_dim(3))), lam)
    assert abs(lambda_sqrt_fragment(a) - lambda_sqrt_fragment(b)) < 1e-12


def test_one_body_norm_shared_code_path():
    # the square-root route reuses lambda_fermionic's first component verbatim
    rng = np.random.default_rng(41)
    mu = rng.standard_normal(5)
    l1_a, _ = lambda_fermionic(mu, [])
    l1_b, _ = lambda_fermionic(mu, [])
    assert l1_a == l1_b == float(np.abs(mu).sum())


def test_fragment_json_round_trip(tmp_path):
    # the pipeline's gcsa-frags entry stores each fragment's u and lam as
    # JSON arrays; an engine that reads the entry back gets the same bits
    prepared = prepare("lih")
    frags = csa_greedy(prepared.tensors, seed=0)
    stored = _MethodEngine(prepared, str(tmp_path)).gcsa_fragments
    (entry,) = tmp_path.glob("*-gcsa-frags.json")
    doc = json.loads(entry.read_text())
    assert [sorted(d) for d in doc["frags"]] == [["lam", "u"]] * len(frags)
    back = _MethodEngine(prepared, str(tmp_path)).gcsa_fragments
    assert len(stored) == len(back) == len(frags)
    for f, g, h in zip(frags, stored, back):
        assert np.array_equal(f.u, g.u) and np.array_equal(f.u, h.u)
        assert np.array_equal(f.lam, g.lam) and np.array_equal(f.lam, h.lam)


def test_fragment_symmetrizes_lam_and_rejects_an_asymmetric_one():
    lam = np.array([[1.0, 2.0], [2.0 + 1e-13, 3.0]])
    assert np.array_equal(Fragment(np.eye(2), lam).lam, 0.5 * (lam + lam.T))
    with pytest.raises(ValueError, match="symmetric"):
        Fragment(np.eye(2), np.array([[1.0, 2.0], [2.1, 3.0]]))


def test_sqrt_refuses_large_n():
    lam = np.eye(17)
    f = _diag_fragment(lam, 17)
    with pytest.raises(NumericalError):
        lambda_sqrt_fragment(f)
