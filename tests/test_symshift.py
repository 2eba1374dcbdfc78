"""Symmetry-shift unit tests: median solver, LP cross-check, operator identity."""

import numpy as np
import pytest

from lcunorm.pauli import lambda_pauli_closed_form
from lcunorm.symshift import (
    SymmetryShift,
    apply_shift,
    optimize_shift,
    shift_one_body,
    shift_two_body,
    weighted_median,
)
from lcunorm.tensors import load_fixture, to_chemist

from oracles import (
    L1Problem,
    dense_hamiltonian,
    number_total,
    random_spatial,
    solve_l1,
    solve_l1_median,
)


def chemist(name):
    return to_chemist(load_fixture(name))


def test_weighted_median_examples():
    assert weighted_median([3.0, 1.0, 2.0], [1.0, 1.0, 1.0]) == 2.0
    # heavy weight drags the minimizer onto that value
    assert weighted_median([0.0, 10.0], [9.0, 1.0]) == 0.0
    # ties resolve to the smallest breakpoint
    assert weighted_median([1.0, 2.0], [1.0, 1.0]) == 1.0


def test_weighted_median_minimizes_objective():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.normal(size=9)
        w = rng.uniform(0.1, 3.0, size=9)
        s = weighted_median(v, w)
        obj = lambda x: float(w @ np.abs(v - x))
        for probe in np.concatenate([v, [s - 1e-3, s + 1e-3]]):
            assert obj(s) <= obj(probe) + 1e-12


def test_l1problem_validation():
    with pytest.raises(ValueError):
        L1Problem(np.ones(3), np.ones((1, 2)))
    with pytest.raises(ValueError):
        L1Problem(np.ones(3), np.ones((1, 3)), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        SymmetryShift(np.nan, 0.0)


def test_lp_matches_median_on_number_problems():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = rng.integers(2, 12)
        prob = L1Problem(
            rng.normal(size=m),
            np.full((1, m), rng.uniform(0.5, 2.0)),
            rng.uniform(0.2, 4.0, size=m),
        )
        s_med, f_med = solve_l1_median(prob)
        s_lp, f_lp = solve_l1(prob)
        assert abs(f_med - f_lp) < 1e-9
        assert prob.objective(s_lp) <= f_med + 1e-9


def test_solve_l1_handles_a_nonconstant_symmetry_row():
    prob = L1Problem(np.ones(2), np.array([[1.0, 2.0]]))
    s, f = solve_l1(prob)
    assert f <= prob.objective([0.0]) + 1e-9


def test_shift_two_body_touches_only_pair_diagonal():
    rng = np.random.default_rng(3)
    t = random_spatial(3, rng)
    t2, s2 = shift_two_body(t)
    diff = t.tbt - t2.tbt
    expect = np.zeros_like(diff)
    for i in range(3):
        for j in range(3):
            expect[i, i, j, j] = s2
    assert np.allclose(diff, expect, atol=1e-14)
    assert t2.e0 == t.e0 and np.array_equal(t2.obt, t.obt)


def test_shift_one_body_centers_mu():
    rng = np.random.default_rng(4)
    t = random_spatial(4, rng)
    mu_shifted, s1 = shift_one_body(t)
    # the weighted median zeroes one entry and balances signs around it
    assert np.any(np.abs(mu_shifted) < 1e-12)


def test_shift_never_increases_pauli_norm():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = random_spatial(3, rng)
        _, ts = optimize_shift(t)
        assert lambda_pauli_closed_form(ts) <= lambda_pauli_closed_form(t) + 1e-9


def test_shift_is_number_operator_polynomial():
    # H - shifted H must equal s1*Ne + s2*Ne^2 as a Fock-space operator
    rng = np.random.default_rng(6)
    t = random_spatial(2, rng)
    shift, ts = optimize_shift(t)
    h = dense_hamiltonian(t)
    hs = dense_hamiltonian(ts)
    ne = number_total(4)
    expect = shift.s1 * ne + shift.s2 * (ne @ ne)
    assert np.max(np.abs((h - hs) - expect)) < 1e-10


def test_apply_shift_matches_two_stage_result():
    t = chemist("lih")
    shift, ts = optimize_shift(t)
    again = apply_shift(t, shift)
    assert np.allclose(ts.obt, again.obt) and np.allclose(ts.tbt, again.tbt)


def test_h2_shift_values():
    shift, ts = optimize_shift(chemist("h2"))
    assert abs(shift.s1 - (-1.527136)) < 1e-5
    assert abs(shift.s2 - 0.313201) < 1e-5
    assert abs(lambda_pauli_closed_form(ts) - 0.8416) < 5e-4
