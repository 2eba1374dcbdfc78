"""Spectral-range, sector, and minimal-LCU tests against dense oracles."""

import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from lcunorm import spectra
from lcunorm.errors import NumericalError
from lcunorm.spectra import (
    SpectralRange,
    _Sector,
    _lanczos_extremes,
    _tridiag_extremes,
    minimal_lcu,
    spectral_range,
)
from lcunorm.tensors import SpatialTensors, load_fixture, to_chemist

from oracles import (
    FullProductSector,
    all_sector_range,
    dense_hamiltonian,
    lanczos_extremes_reorthogonalized,
    random_spatial,
    sector_spectrum,
    sector_states,
)


def chemist(name):
    return to_chemist(load_fixture(name))


def sector_matrix(sec):
    """A sector's Hamiltonian block, one matvec per identity column."""
    return np.column_stack([sec.matvec(e) for e in np.eye(sec.dim)])


def _check_sectors_against_oracle(t):
    # every (na, nb) block entrywise against the oracle's rows and columns of
    # its states, na < nb included; the blocks cover the whole Fock space
    n = t.n_orb
    h = dense_hamiltonian(t)
    seen = []
    for na in range(n + 1):
        for nb in range(n + 1):
            idx, sgn = sector_states(n, na, nb)
            block = sector_matrix(_Sector(t, na, nb))
            assert np.max(np.abs(np.outer(sgn, sgn) * block - h[np.ix_(idx, idx)])) < 1e-10
            seen.extend(idx)
    assert sorted(seen) == list(range(1 << (2 * n)))


def test_sector_blocks_match_oracle():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        _check_sectors_against_oracle(random_spatial(n, rng))


def test_sector_operator_is_exact_for_any_two_body_tensor():
    # the cross-spin partners are weighted by g + g.T, which holds without
    # the ij<->kl symmetry that SpatialTensors enforces, so bypass it
    rng = np.random.default_rng(8)
    obt = rng.normal(size=(2, 2))
    t = SimpleNamespace(n_orb=2, e0=0.3, obt=obt + obt.T, tbt=rng.normal(size=(2,) * 4))
    _check_sectors_against_oracle(t)


def _no_index_symmetry(n, rng):
    # g with no symmetry among its four indices, so bypass SpatialTensors
    obt = rng.normal(size=(n, n))
    return SimpleNamespace(n_orb=n, e0=0.3, obt=obt + obt.T, tbt=rng.normal(size=(n,) * 4))


def _check_matvec_against_full_product(t, na, nb):
    sec, ref = _Sector(t, na, nb), FullProductSector(t, na, nb)
    for v in np.random.default_rng(12).standard_normal((3, sec.dim)):
        want = ref.matvec(v)
        assert np.linalg.norm(sec.matvec(v) - want) <= 1e-13 * np.linalg.norm(want), (na, nb)


def test_matvec_matches_the_full_product_for_any_two_body_tensor():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 4):
        t = _no_index_symmetry(n, rng)
        for na in range(n + 1):
            for nb in range(n + 1):
                _check_matvec_against_full_product(t, na, nb)


@pytest.mark.parametrize("sector", [(4, 4), (4, 3)])
def test_matvec_matches_the_full_product_on_nh3(sector):
    _check_matvec_against_full_product(chemist("nh3"), *sector)


def test_computed_rows_are_the_nonzero_columns_of_the_beta_stack():
    # every row of the intermediate that the matvec computes is read, and
    # every row that the full product's beta stack reads is computed
    t = chemist("nh3")
    computed = {}
    for key in spectra._sectors(t.n_orb):
        ours = _Sector(t, *key).d_rows.toarray()
        full = FullProductSector(t, *key).d_rows.toarray()
        read = full[:, full.any(axis=0)]
        assert ours.shape == read.shape, key
        # the same columns, up to their order
        assert np.array_equal(ours[:, np.lexsort(ours)], read[:, np.lexsort(read)]), key
        computed[key] = ours.shape[1]
    assert computed[(4, 4)] == 1400


def test_spectral_range_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        t = random_spatial(2, rng)
        vals = np.linalg.eigvalsh(dense_hamiltonian(t))
        sr = spectral_range(t)
        assert abs(sr.e_min - vals[0]) < 1e-10
        assert abs(sr.e_max - vals[-1]) < 1e-10


def test_sector_union_is_full_spectrum():
    rng = np.random.default_rng(3)
    t = random_spatial(2, rng)
    full = np.sort(np.linalg.eigvalsh(dense_hamiltonian(t)))
    merged = np.sort(np.concatenate([sector_spectrum(t, k) for k in range(5)]))
    assert np.allclose(full, merged, atol=1e-10)


def test_sector_spectrum_rejects_bad_count():
    with pytest.raises(ValueError):
        sector_spectrum(chemist("h2"), 5)


def test_identity_hamiltonian_has_zero_range():
    t = SpatialTensors(2.5, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)))
    sr = spectral_range(t)
    assert abs(sr.e_min - 2.5) < 1e-12 and sr.half_range < 1e-12
    gamma, coeff, up, um = minimal_lcu(t)
    assert coeff == 0.0 and abs(gamma - 2.5) < 1e-12
    assert np.allclose(up, np.eye(16))


def test_spectral_range_validates():
    with pytest.raises(ValueError):
        SpectralRange(1.0, 0.0, 0.0)


def _lih_lanczos_sectors():
    # sectors large enough to need many Lanczos steps
    t = chemist("lih")
    n = t.n_orb
    for na in range(n + 1):
        for nb in range(na + 1):
            sec = _Sector(t, na, nb)
            if sec.dim >= 50:
                yield (na, nb), sec


def test_iterative_agrees_with_dense():
    for key, sec in _lih_lanczos_sectors():
        vals = np.linalg.eigvalsh(sector_matrix(sec))
        lo, hi, res = _lanczos_extremes(sec.matvec, sec.dim)
        assert res < 1e-7, key
        assert abs(lo - vals[0]) < 1e-7, key
        assert abs(hi - vals[-1]) < 1e-7, key


def test_iterative_is_deterministic():
    for key, sec in _lih_lanczos_sectors():
        assert _lanczos_extremes(sec.matvec, sec.dim) == _lanczos_extremes(
            sec.matvec, sec.dim
        ), key


@pytest.mark.parametrize("name", ["h2o", "nh3"])
def test_three_term_recurrence_matches_the_reorthogonalized_reference(name):
    # the raw H2O and NH3 sets hold the longest runs, 182 and 138 steps
    t = chemist(name)
    for key in spectra._sectors(t.n_orb):
        sec = _Sector(t, *key)
        lo, hi, res = _lanczos_extremes(sec.matvec, sec.dim)
        ref_lo, ref_hi, _ = lanczos_extremes_reorthogonalized(sec.matvec, sec.dim)
        assert res <= spectra._LANCZOS_TOL, key
        assert abs(lo - ref_lo) <= 1e-12 * abs(ref_lo), key
        assert abs(hi - ref_hi) <= 1e-12 * abs(ref_hi), key


def _small_operators():
    rng = np.random.default_rng(11)
    for dim in range(1, 41):
        a = rng.normal(size=(dim, dim))
        yield a + a.T
        yield 1e3 * (a + a.T)
    yield np.zeros((6, 6))
    yield np.eye(6)


def test_small_operators_match_the_full_solve():
    # no Krylov space to exhaust: the recurrence stops on its residual bound
    # or on a vanishing next vector, whatever the dimension
    for a in _small_operators():
        vals = np.linalg.eigvalsh(a)
        lo, hi, _ = _lanczos_extremes(lambda v: a @ v, a.shape[0])
        scale = max(abs(vals[0]), abs(vals[-1]))
        assert abs(lo - vals[0]) <= 1e-9 * scale, a.shape
        assert abs(hi - vals[-1]) <= 1e-9 * scale, a.shape


def test_clustered_spectrum_reaches_the_cap():
    # the known limit of the recurrence: eigenvalues (k/99)^4 crowd at 0, so
    # the lowest Ritz value has not converged after 300 steps of this
    # 100-dimensional operator, which the reorthogonalized reference
    # finishes in 98
    d = (np.arange(100) / 99.0) ** 4
    assert lanczos_extremes_reorthogonalized(lambda v: d * v, 100)[2] <= spectra._LANCZOS_TOL
    with pytest.raises(NumericalError, match=r"Lanczos reached its 300-step cap"):
        _lanczos_extremes(lambda v: d * v, 100)


def test_lanczos_cap_fails_fast(monkeypatch):
    monkeypatch.setattr(spectra, "_LANCZOS_CAP", 5)
    with pytest.raises(NumericalError, match=r"Lanczos.*5-step cap") as info:
        spectral_range(chemist("lih"))
    assert info.value.payload["residual"] > spectra._LANCZOS_TOL


def test_minimal_lcu_reassembles_and_meets_bound():
    rng = np.random.default_rng(4)
    for n in (1, 2):
        for _ in range(5):
            t = random_spatial(n, rng)
            gamma, coeff, up, um = minimal_lcu(t)
            h = dense_hamiltonian(t)
            dim = h.shape[0]
            back = gamma * np.eye(dim) + coeff * (up + um)
            assert np.max(np.abs(back - h)) < 1e-9
            for u in (up, um):
                assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-9
            # achieved 1-norm is exactly the spectral half-range
            assert abs(2 * coeff - spectral_range(t).half_range) < 1e-12


def test_minimal_lcu_size_limit():
    with pytest.raises(NumericalError, match="16 qubits exceeds the 10-qubit limit"):
        minimal_lcu(chemist("nh3"))


def test_h2_half_range_value():
    assert abs(spectral_range(chemist("h2")).half_range - 0.8152) < 5e-4


def test_shift_moves_sectors_by_number_polynomial():
    # eigenvalues on the k-electron sector move by exactly s1*k + s2*k^2
    from lcunorm.symshift import optimize_shift

    rng = np.random.default_rng(5)
    t = random_spatial(2, rng)
    shift, ts = optimize_shift(t)
    for k in range(5):
        before = sector_spectrum(t, k)
        after = sector_spectrum(ts, k)
        assert np.allclose(before - after, shift.s1 * k + shift.s2 * k * k, atol=1e-9)


def test_spin_flipped_sectors_share_a_spectrum():
    # one reason spectral_range may skip the sectors with n_beta > n_alpha
    t = random_spatial(3, np.random.default_rng(6))
    for na in range(4):
        for nb in range(na):
            ab = np.linalg.eigvalsh(sector_matrix(_Sector(t, na, nb)))
            ba = np.linalg.eigvalsh(sector_matrix(_Sector(t, nb, na)))
            assert np.max(np.abs(ab - ba)) < 1e-10


def _without_pair_exchange(n, rng):
    # Hermitian (g[p,q,r,s] = g[s,r,q,p]) and spin-free, but without the
    # ij<->kl symmetry that SpatialTensors enforces, so bypass it
    g = rng.normal(size=(n,) * 4)
    g = g + g.transpose(3, 2, 1, 0)
    assert np.max(np.abs(g - g.transpose(2, 3, 0, 1))) > 0.1
    obt = rng.normal(size=(n, n))
    return SimpleNamespace(n_orb=n, e0=0.3, obt=obt + obt.T, tbt=g)


def _spin_free_tensors():
    rng = np.random.default_rng(9)
    yield from (random_spatial(n, rng) for n in (2, 3, 4) for _ in range(2))
    yield _without_pair_exchange(3, rng)


def test_balanced_sectors_give_the_full_range():
    # the S^2 argument: every level has a state with n_alpha - n_beta in {0, 1}
    for t in _spin_free_tensors():
        sr = spectral_range(t)
        lo, hi = all_sector_range(t)
        assert abs(sr.e_min - lo) <= 1e-12 * max(1.0, abs(lo))
        assert abs(sr.e_max - hi) <= 1e-12 * max(1.0, abs(hi))


def test_unbalanced_sectors_hold_no_new_level():
    # each level of a sector with n_alpha - n_beta >= 2 is a level of the
    # balanced sector with the same electron number
    for t in _spin_free_tensors():
        n = t.n_orb
        for na in range(n + 1):
            for nb in range(na - 1):
                m = na + nb
                inner = np.linalg.eigvalsh(sector_matrix(_Sector(t, na, nb)))
                outer = np.linalg.eigvalsh(sector_matrix(_Sector(t, (m + 1) // 2, m // 2)))
                gaps = np.abs(inner[:, None] - outer[None, :]).min(axis=1)
                assert gaps.max() < 1e-9, (n, na, nb)


def test_tridiagonal_extremes_match_the_full_solve():
    rng = np.random.default_rng(10)
    for m in range(1, 151):
        d = rng.normal(size=m)
        e = rng.normal(size=m - 1)
        tiny = rng.random(m - 1) < 0.2
        e[tiny] *= 10.0 ** rng.uniform(-300, -8, size=tiny.sum())
        vals, vecs = eigh_tridiagonal(d, e)
        (lo, last_lo), (hi, last_hi) = _tridiag_extremes(list(d), list(e))
        scale = max(abs(vals[0]), abs(vals[-1]))
        assert abs(lo - vals[0]) <= 1e-12 * scale, m
        assert abs(hi - vals[-1]) <= 1e-12 * scale, m
        assert abs(abs(last_lo) - abs(vecs[-1, 0])) <= 1e-10, m
        assert abs(abs(last_hi) - abs(vecs[-1, -1])) <= 1e-10, m


@pytest.mark.parametrize("name", ["lih", "nh3"])
def test_spectral_range_builds_one_sector_per_electron_number(monkeypatch, name):
    built = []

    class Counted(_Sector):
        def __init__(self, t, na, nb):
            built.append((na, nb))
            super().__init__(t, na, nb)

    monkeypatch.setattr(spectra, "_Sector", Counted)
    monkeypatch.setattr(spectra, "_lanczos_extremes", lambda matvec, dim: (0.0, 0.0, 0.0))
    t = chemist(name)
    spectral_range(t)
    assert len(built) == 2 * t.n_orb + 1
    assert sorted(na + nb for na, nb in built) == list(range(2 * t.n_orb + 1))


def test_sector_memory_stays_inside_its_estimate():
    t = chemist("nh3")
    # a small sector first, so the lazy scipy imports are not traced
    small = _Sector(t, 1, 1)
    _lanczos_extremes(small.matvec, small.dim)
    tracemalloc.start()
    try:
        sec = _Sector(t, 4, 4)
        _lanczos_extremes(sec.matvec, sec.dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= spectra._sector_bytes(8, 4, 4)


def test_oversized_sectors_fail_before_allocating():
    t = SpatialTensors(0.0, np.zeros((12, 12)), np.zeros((12,) * 4))
    start = time.perf_counter()
    with pytest.raises(NumericalError, match=r"n_alpha=6, n_beta=6.*GiB"):
        spectral_range(t)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("variant", ["raw", "shifted", "residual"])
@pytest.mark.parametrize("molecule", ["h2", "lih", "beh2", "h2o", "nh3"])
def test_half_range_recomputed_cold_matches_cache(runner, molecule, variant):
    # the acceptance tables read dE/2 back from the session's cache; this
    # recomputes it from the tensors that the stored entry was keyed on
    cached = runner.entry(molecule, variant, "de2")["lambda"]
    fresh = spectral_range(runner.prepared(molecule, variant).tensors).half_range
    assert abs(fresh - cached) <= 1e-9 * abs(cached)
