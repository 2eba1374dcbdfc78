"""Anticommuting grouping: partition structure, norms, unitarization."""

import numpy as np
import pytest
from oracles import (
    PauliWord,
    _word_string,
    group_angles,
    group_unitary,
    group_words,
    lambda_ac,
    lambda_pauli,
    pack,
    pauli_polynomial,
    unpack,
    random_spatial,
    sorted_insertion_termwise,
    validate_partition,
)

from lcunorm.errors import NumericalError
from lcunorm.grouping import AcGroup, _word_order, sorted_insertion
from lcunorm.pauli import PauliPolynomial, jordan_wigner
from lcunorm.tensors import load_fixture, to_chemist


def _poly(n, rng):
    return jordan_wigner(random_spatial(n, rng))


def test_partition_covers_terms():
    rng = np.random.default_rng(41)
    poly = _poly(2, rng)
    part = sorted_insertion(poly)
    validate_partition(part)
    seen = {}
    for g in part.groups:
        for key, c in zip(g.keys.tolist(), g.coeffs):
            assert key not in seen
            seen[key] = c
    expected = {k: c for k, c in zip(poly.keys.tolist(), poly.coeffs) if k != 0}
    assert seen.keys() == expected.keys()
    for k, c in expected.items():
        assert seen[k] == c


def test_partition_deterministic():
    rng1 = np.random.default_rng(43)
    rng2 = np.random.default_rng(43)
    p1 = sorted_insertion(_poly(2, rng1))
    p2 = sorted_insertion(_poly(2, rng2))
    assert [g.keys.tolist() for g in p1.groups] == [g.keys.tolist() for g in p2.groups]


@pytest.mark.parametrize("n", [1, 5, 32])
def test_word_order_sorts_as_the_letter_strings(n):
    rng = np.random.default_rng(67 + n)
    x, z = rng.integers(0, 1 << n, size=(2, 500), dtype=np.uint64)
    keys = pack(x, z)
    words = [_word_string(n, *unpack(k)) for k in keys]
    assert [words[i] for i in np.argsort(_word_order(keys, n))] == sorted(words)


def test_more_than_16_orbitals_raise_before_the_mapping():
    # x and z share one 64-bit key, so 32 qubits is the limit.  The tensors
    # stand-in has no arrays: touching them would raise TypeError, not the
    # limit, so the check comes before any mapping work.
    class Seventeen:
        n_orb, e0, obt, tbt = 17, 0.0, None, None

    with pytest.raises(NumericalError, match="32-qubit limit of 64-bit"):
        jordan_wigner(Seventeen())
    with pytest.raises(NumericalError, match="32-qubit limit of 64-bit"):
        PauliPolynomial(33, [], [])


def test_group_coefficients_descend():
    rng = np.random.default_rng(47)
    part = sorted_insertion(_poly(3, rng))
    for g in part.groups:
        mags = np.abs(g.coeffs)
        assert (mags[:-1] >= mags[1:] - 1e-15).all()


def test_norm_bounds():
    rng = np.random.default_rng(53)
    for n in (1, 2, 3):
        for _ in range(7):
            poly = _poly(n, rng)
            lam_p = lambda_pauli(poly)
            lam_ac = lambda_ac(poly)
            total = np.sqrt((poly.coeffs[poly.keys != 0] ** 2).sum())
            assert lam_ac <= lam_p + 1e-12
            assert lam_ac >= total - 1e-12


def test_lambda_ac_accepts_partition():
    rng = np.random.default_rng(59)
    poly = _poly(2, rng)
    part = sorted_insertion(poly)
    assert lambda_ac(part) == part.one_norm()
    assert lambda_ac(poly) == part.one_norm()


def _assert_same_partition(poly):
    got, want = sorted_insertion(poly), sorted_insertion_termwise(poly)
    assert len(got.groups) == len(want.groups)
    for g, w in zip(got.groups, want.groups):
        assert g.keys.dtype == w.keys.dtype
        assert g.keys.tolist() == w.keys.tolist()
        assert g.coeffs.tolist() == w.coeffs.tolist()


@pytest.mark.parametrize("variant", ["raw", "shifted", "residual"])
@pytest.mark.parametrize("molecule", ["h2", "lih", "beh2", "h2o", "nh3"])
def test_group_scan_matches_the_termwise_scan(runner, molecule, variant):
    _assert_same_partition(jordan_wigner(runner.prepared(molecule, variant).tensors))


@pytest.mark.parametrize("n_qubits", [2, 4, 8])
def test_group_scan_matches_the_termwise_scan_under_ties(n_qubits):
    # few magnitudes, some nudged by far less than TIE_TOL, so that clusters
    # of tied terms go in word order
    rng = np.random.default_rng(71 + n_qubits)
    for _ in range(5):
        keys = np.unique(pack(*rng.integers(0, 1 << n_qubits, size=(2, 300), dtype=np.uint64)))
        mags = rng.choice([1.0, 0.5, 0.25, 0.125], size=len(keys))
        mags *= 1.0 + rng.choice([0.0, 1e-13, -1e-13], size=len(keys))
        coeffs = mags * rng.choice([-1.0, 1.0], size=len(keys))
        _assert_same_partition(PauliPolynomial(n_qubits, keys, coeffs))


def test_empty_and_identity_only():
    assert sorted_insertion(PauliPolynomial(3, [], [])).groups == []
    only_id = pauli_polynomial(3, {"III": 4.2})
    assert lambda_ac(only_id) == 0.0
    _assert_same_partition(only_id)
    one = pauli_polynomial(3, {"XYZ": -0.7})
    assert [g.keys.tolist() for g in sorted_insertion(one).groups] == [one.keys.tolist()]
    _assert_same_partition(one)


def test_singleton_unitary():
    g = AcGroup(1, np.array([pack(1, 0)], dtype=np.uint64), np.array([-0.3]))  # -0.3 X
    u = group_unitary(g)
    x = PauliWord.from_string("X").to_matrix()
    assert np.abs(u - (-1j) * x).max() < 1e-12


def test_angles_formula():
    g = AcGroup(2, np.array([pack(1, 0), pack(2, 0)], dtype=np.uint64), np.array([0.8, -0.6]))
    th = group_angles(g)
    assert abs(th[0] - 0.5 * np.arcsin(1.0)) < 1e-12
    assert abs(th[1] - 0.5 * np.arcsin(-0.6)) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_group_unitary_reconstructs_sum(n):
    rng = np.random.default_rng(61 + n)
    poly = _poly(n, rng)
    part = sorted_insertion(poly)
    for g in part.groups:
        u = group_unitary(g)
        assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-10
        target = np.zeros_like(u)
        for w, c in zip(group_words(g), g.coeffs):
            target += (c / g.norm) * w.to_matrix()
        assert np.abs(u - 1j * target).max() < 1e-10


def test_h2_fixture_grouping():
    poly = jordan_wigner(to_chemist(load_fixture("h2")))
    part = sorted_insertion(poly)
    validate_partition(part)
    lam = part.one_norm()
    assert lam <= lambda_pauli(poly)
    for g in part.groups:
        u = group_unitary(g)
        target = sum(
            (c / g.norm) * w.to_matrix() for w, c in zip(group_words(g), g.coeffs)
        )
        assert np.abs(u - 1j * target).max() < 1e-10
