"""Mean-field split tests: exact recovery, reassembly, anchors."""

import numpy as np

from lcunorm.fragments import (
    CsaFragment,
    fragment_tensor,
    make_rotation,
    theta_dim,
)
from lcunorm.picture import split_interaction
from lcunorm.pipeline import run_pipeline
from lcunorm.tensors import SpatialTensors, load_fixture, to_chemist


def chemist(name):
    return to_chemist(load_fixture(name))


def test_exactly_representable_input_splits_cleanly():
    rng = np.random.default_rng(1)
    n = 3
    rot = make_rotation(rng.uniform(-0.4, 0.4, size=theta_dim(n)))
    mu = rng.normal(size=n)
    lam = rng.normal(size=(n, n))
    frag = CsaFragment(rot, 0.5 * (lam + lam.T), mu=mu)
    u = rot.u
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
