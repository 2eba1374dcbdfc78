"""Pauli word algebra, Jordan-Wigner mapping, and the Majorana route of the oracles."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import (
    MajoranaPolynomial,
    PauliWord,
    anticommutes,
    coefficient,
    dense_hamiltonian,
    dumps,
    identity_coefficient,
    jordan_wigner_at_once,
    lambda_pauli,
    majorana_separate,
    majorana_to_pauli,
    n_terms_nonidentity,
    pauli_polynomial,
    poly_from_terms,
    poly_matrix,
    random_spatial,
    random_spin2e,
)

from lcunorm import pauli
from lcunorm.errors import NumericalError
from lcunorm.pauli import jordan_wigner, lambda_pauli_closed_form
from lcunorm.tensors import load_fixture, to_chemist


def random_word(n, rng):
    return PauliWord(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))


def test_word_string_round_trip():
    w = PauliWord.from_string("XZYI")
    assert str(w) == "XZYI"
    assert w.weight == 3
    assert not w.is_identity
    assert PauliWord.from_string("II").is_identity
    with pytest.raises(ValueError):
        PauliWord.from_string("XQ")


def test_single_qubit_products():
    X, Y, Z = (PauliWord.from_string(s) for s in "XYZ")
    for a, b, phase, prod in [
        (X, Y, 1j, "Z"),
        (Y, X, -1j, "Z"),
        (Y, Z, 1j, "X"),
        (Z, Y, -1j, "X"),
        (Z, X, 1j, "Y"),
        (X, Z, -1j, "Y"),
        (X, X, 1.0, "I"),
    ]:
        ph, w = a * b
        assert ph == phase and str(w) == prod


def test_products_match_matrices():
    rng = np.random.default_rng(19)
    for _ in range(30):
        a = random_word(3, rng)
        b = random_word(3, rng)
        ph, w = a * b
        assert np.abs(ph * w.to_matrix() - a.to_matrix() @ b.to_matrix()).max() < 1e-12


def test_anticommutes_matches_matrices():
    rng = np.random.default_rng(23)
    for _ in range(30):
        a = random_word(3, rng)
        b = random_word(3, rng)
        anti = np.abs(a.to_matrix() @ b.to_matrix() + b.to_matrix() @ a.to_matrix()).max() < 1e-12
        assert anticommutes(a, b) == anti


def test_polynomial_prunes_and_sums():
    p = pauli_polynomial(2, {"XI": 0.5, "II": 2.0, "ZZ": -0.25, "YY": 1e-16})
    assert len(p) == 3
    assert identity_coefficient(p) == 2.0
    assert n_terms_nonidentity(p) == 2
    assert lambda_pauli(p) == 0.75
    assert coefficient(p, PauliWord.from_string("ZZ")) == -0.25


def test_polynomial_dumps_sorted():
    p = pauli_polynomial(2, {"ZI": 1.0, "IX": -2.0})
    assert dumps(p).splitlines() == ["-2 IX", "1 ZI"]


def test_jordan_wigner_dense_spatial():
    rng = np.random.default_rng(5)
    t = random_spatial(2, rng, scale=0.5)
    diff = np.abs(poly_matrix(jordan_wigner(t)) - dense_hamiltonian(t)).max()
    assert diff < 1e-10


def test_jordan_wigner_h2_fixture():
    t = to_chemist(load_fixture("h2"))
    p = jordan_wigner(t)
    assert np.abs(poly_matrix(p) - dense_hamiltonian(t)).max() < 1e-10
    assert abs(lambda_pauli(p) - lambda_pauli_closed_form(t)) < 1e-10


def _assert_bit_identical(got, want):
    assert got.n_qubits == want.n_qubits
    assert np.array_equal(got.keys, want.keys)
    assert np.array_equal(got.coeffs.view(np.uint64), want.coeffs.view(np.uint64))


@pytest.mark.parametrize("variant", ["raw", "shifted", "residual"])
@pytest.mark.parametrize("molecule", ["h2", "lih", "beh2", "h2o", "nh3"])
def test_blocks_match_the_at_once_expansion(runner, molecule, variant):
    # in the input orbitals and in the cached OO-optimal ones
    engine = runner.engine(molecule, variant)
    for optimized in (False, True):
        t, poly = engine.frame(optimized)
        _assert_bit_identical(poly, jordan_wigner_at_once(t))


@pytest.mark.parametrize("block", [1, 3, 256])
def test_blocks_match_the_at_once_expansion_on_random_tensors(monkeypatch, block):
    # blocks of 1 and 3 integrals split the conjugate pairs of (ij|kl), whose
    # imaginary parts cancel: a Hermiticity check per block would raise here
    monkeypatch.setattr(pauli, "_JW_BLOCK", block)
    rng = np.random.default_rng(43)
    for n in range(1, 7):
        t = random_spatial(n, rng)
        _assert_bit_identical(jordan_wigner(t), jordan_wigner_at_once(t))
    t = t.replace(tbt=np.zeros_like(t.tbt))
    _assert_bit_identical(jordan_wigner(t), jordan_wigner_at_once(t))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_jordan_wigner_transient_memory_is_bounded(runner):
    # the all-at-once expansion peaks at 29 MiB and 147 MiB on these inputs
    t = runner.prepared("nh3", "residual").tensors
    assert _traced_peak(jordan_wigner, t) <= 8 * 2**20
    t = random_spatial(12, np.random.default_rng(47))
    assert _traced_peak(jordan_wigner, t) <= 16 * 2**20


def test_non_hermitian_input_raises():
    obt = np.array([[0.0, 1.0], [-1.0, 0.0]]) + np.eye(2)
    t = SimpleNamespace(n_orb=2, e0=0.0, obt=obt, tbt=np.zeros((2, 2, 2, 2)))
    with pytest.raises(ValueError, match="non-Hermitian accumulation"):
        jordan_wigner(t)


def test_dense_matches_word_matrices():
    rng = np.random.default_rng(41)
    for n in range(1, 7):
        for _ in range(10):
            k = int(rng.integers(1, 20))
            masks = rng.integers(0, 1 << n, size=(k, 2))
            p = poly_from_terms(n, {(int(x), int(z)): rng.normal() for x, z in masks})
            assert np.abs(p.dense() - poly_matrix(p)).max() < 1e-12


def test_dense_limit():
    assert poly_from_terms(10, {(1, 1): 1.0}).dense().shape == (1024, 1024)
    with pytest.raises(NumericalError, match="11 qubits exceeds the 10-qubit limit"):
        poly_from_terms(11, {(1, 1): 1.0}).dense()


def test_closed_form_matches_expansion():
    rng = np.random.default_rng(29)
    for n in (1, 2, 3):
        for _ in range(10):
            t = random_spatial(n, rng)
            assert abs(lambda_pauli(jordan_wigner(t)) - lambda_pauli_closed_form(t)) < 1e-10


def test_majorana_canonicalize():
    sign, key = MajoranaPolynomial.canonicalize(((1, 0), (0, 0)))
    assert sign == -1 and key == ((0, 0), (1, 0))
    sign, key = MajoranaPolynomial.canonicalize(((0, 0), (0, 0)))
    assert sign == 1 and key == ()
    # gamma_b gamma_a gamma_b = -gamma_a
    sign, key = MajoranaPolynomial.canonicalize(((1, 0), (0, 0), (1, 0)))
    assert sign == -1 and key == ((0, 0),)


def test_majorana_singles_to_pauli():
    mp = MajoranaPolynomial(3, {((1, 0),): 1.0})
    p = majorana_to_pauli(mp)
    assert coefficient(p, PauliWord.from_string("ZXI")) == 1.0
    mp = MajoranaPolynomial(3, {((2, 1),): 0.5})
    assert coefficient(majorana_to_pauli(mp), PauliWord.from_string("ZZY")) == 0.5


def test_majorana_number_operator():
    # n_0 = 1/2 + (i/2) gamma_00 gamma_01 -> diag(0, 1)
    mp = MajoranaPolynomial(1, {(): 0.5, ((0, 0), (0, 1)): 0.5})
    m = poly_matrix(majorana_to_pauli(mp))
    assert np.abs(m - np.diag([0.0, 1.0])).max() < 1e-12


def _reassemble(n_orb, const, w, mp):
    terms = {(): const}
    for s in (0, 1):
        for i in range(n_orb):
            for j in range(n_orb):
                if abs(w[i, j]) > 1e-15:
                    sign, key = MajoranaPolynomial.canonicalize(((2 * i + s, 0), (2 * j + s, 1)))
                    terms[key] = terms.get(key, 0.0) + sign * w[i, j]
    for key, c in mp.terms.items():
        terms[key] = terms.get(key, 0.0) + c
    return majorana_to_pauli(MajoranaPolynomial(2 * n_orb, terms))


@pytest.mark.parametrize("kind", ["spatial", "spin2e"])
def test_majorana_separation_reassembles(kind):
    rng = np.random.default_rng(31)
    if kind == "spatial":
        t = random_spatial(2, rng, scale=0.5)
    else:
        t = random_spin2e(2, rng, scale=0.5)
    const, w, mp = majorana_separate(t)
    for key in mp.terms:
        assert len(key) == 4
    dense = poly_matrix(_reassemble(2, const, w, mp))
    assert np.abs(dense - dense_hamiltonian(t)).max() < 1e-10


def test_majorana_one_body_formula():
    # per-spin one-body coefficients are (obt + 2 sum_k tbt[i,j,k,k]) / 2
    rng = np.random.default_rng(37)
    t = random_spatial(3, rng)
    _, w, _ = majorana_separate(t)
    from lcunorm.tensors import one_body_adjust

    assert np.abs(w - 0.5 * one_body_adjust(t)).max() < 1e-12
