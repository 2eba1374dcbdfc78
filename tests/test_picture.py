"""Mean-field split tests: exact recovery, reassembly, anchors, the rule
that keeps one optimum, and its stability under last-bit noise."""

import numpy as np
import pytest

from lcunorm.fragments import (
    Fragment,
    _fragment_fit,
    fragment_tensor,
    make_rotation,
    theta_dim,
)
from lcunorm.pauli import lambda_pauli_closed_form
from lcunorm.picture import split_interaction
from lcunorm.pipeline import run_pipeline
from lcunorm.tensors import SpatialTensors, load_fixture, to_chemist

from oracles import last_bit_noise


def chemist(name):
    return to_chemist(load_fixture(name))


def test_exactly_representable_input_splits_cleanly():
    rng = np.random.default_rng(1)
    n = 3
    u = make_rotation(rng.uniform(-0.4, 0.4, size=theta_dim(n)))
    mu = rng.normal(size=n)
    lam = rng.normal(size=(n, n))
    frag = Fragment(u, 0.5 * (lam + lam.T))
    t = SpatialTensors(0.3, (u * mu) @ u.T, fragment_tensor(frag))
    split = split_interaction(t)
    assert split.fit_residual_norm < 1e-6
    assert np.max(np.abs(split.residual.obt)) < 1e-6
    assert np.max(np.abs(split.residual.tbt)) < 1e-6


def test_zero_tensors_split_to_zero():
    t = SpatialTensors(0.0, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)))
    split = split_interaction(t)
    assert split.fit_residual_norm < 1e-10


def test_split_reassembles_exactly():
    t = chemist("h2")
    split = split_interaction(t)
    obt0, tbt0 = split.h0_tensors()
    assert np.allclose(obt0 + split.residual.obt, t.obt, atol=1e-12)
    assert np.allclose(tbt0 + split.residual.tbt, t.tbt, atol=1e-12)
    assert split.residual.e0 == t.e0


def test_one_body_only_input_is_fully_absorbed():
    rng = np.random.default_rng(2)
    obt = rng.normal(size=(3, 3))
    t = SpatialTensors(0.0, 0.5 * (obt + obt.T), np.zeros((3, 3, 3, 3)))
    split = split_interaction(t)
    assert split.fit_residual_norm < 1e-8


def test_h2_residual_norms():
    report = run_pipeline("h2", methods=["de2", "pauli"], picture="interaction")
    assert report.picture == "interaction"
    assert abs(report.methods["pauli"]["lambda"] - 0.2952) < 5e-4
    assert abs(report.methods["de2"]["lambda"] - 0.1968) < 5e-4


def test_split_is_deterministic():
    t = chemist("h2")
    a = split_interaction(t, seed=0)
    b = split_interaction(t, seed=0)
    assert a.fit_residual_norm == b.fit_residual_norm
    assert np.array_equal(a.residual.tbt, b.residual.tbt)


@pytest.mark.parametrize("molecule", ["h2", "lih", "beh2", "h2o", "nh3"])
def test_fit_residual_norm_is_the_fitted_norm(molecule):
    # the fit minimizes |obt - obt0|^2 + |tbt - tbt0|^2 over H0's frame
    t = chemist(molecule)
    split = split_interaction(t)
    cost = _fragment_fit(split.theta, t.tbt, t.obt)[0]
    assert abs(split.fit_residual_norm**2 - cost) <= 1e-12 * cost


@pytest.mark.parametrize(
    ("costs", "kept"),
    [((0.30, 0.2 + 1e-12, 0.2), 2), ((0.2, 0.2 + 1e-12, 0.30), 1)],
    ids=["last-of-tied", "worse-basin-not-kept"],
)
def test_split_keeps_the_last_tied_start(monkeypatch, costs, kept):
    # starts within the tie of the lowest misfit^2 count as equal, the last
    # of them is kept, and a start outside the tie is never kept
    import lcunorm.optimize as opt

    t = chemist("lih")
    k = theta_dim(t.n_orb)
    ends = []

    def fixed(f, x0, tol_grad, jac):
        ends.append(np.full(k, 0.1 * (len(ends) + 1)))
        return ends[-1], costs[len(ends) - 1], 0

    monkeypatch.setattr(opt, "minimize", fixed)
    split = split_interaction(t)
    assert len(ends) == 3
    assert np.array_equal(split.theta, ends[kept])


@pytest.mark.parametrize("molecule", ["lih", "beh2", "h2o", "nh3"])
def test_split_stable_under_last_bit_noise(molecule):
    # the noise of the acceptance noise tests: the kept split, and so the
    # residual, must not depend on the last bits of the tensors
    t = chemist(molecule)
    base = lambda_pauli_closed_form(split_interaction(t).residual)
    rng = np.random.default_rng(73)
    for _ in range(3):
        lam = lambda_pauli_closed_form(split_interaction(last_bit_noise(t, rng)).residual)
        assert abs(lam - base) <= 1e-6 * base, f"residual Pauli {base!r} -> {lam!r}"
