"""Minimizer contract and orbital-rotation 1-norm optimization."""

from functools import partial

import numpy as np
import pytest
from oracles import csa_fit_tolerance, oo_cost_reference, random_spatial, scipy_bfgs

from lcunorm.errors import NumericalError
from lcunorm.fragments import _df_start, _fragment_fit, theta_dim
from lcunorm.optimize import TOL_GRAD, _oo_cost, _starts, minimize, oo_pauli
from lcunorm.pauli import lambda_pauli_closed_form
from lcunorm.tensors import FIXTURE_NAMES, load_fixture, to_chemist


def _rosenbrock(x):
    cost = float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)
    dx1 = 200.0 * (x[1] - x[0] ** 2)
    return cost, np.array([-2.0 * x[0] * dx1 - 2.0 * (1.0 - x[0]), dx1])


def test_scalar_quadratic():
    x, f, _ = minimize(lambda x: (float((x[0] - 3.0) ** 2), 2.0 * (x - 3.0)), np.zeros(1))
    assert abs(x[0] - 3.0) < 1e-8
    assert f < 1e-15


def test_rosenbrock():
    x, fval, _ = minimize(_rosenbrock, np.array([-1.2, 1.0]))
    assert np.abs(x - 1.0).max() < 1e-6


def test_random_convex_quadratic():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((10, 10))
    a = m @ m.T + 10.0 * np.eye(10)
    b = rng.standard_normal(10)
    sol = np.linalg.solve(a, b)

    def fg(x):
        return float(0.5 * x @ a @ x - b @ x), a @ x - b

    x, _, _ = minimize(fg, np.zeros(10), 1e-10, jac=True)
    assert np.abs(x - sol).max() < 1e-8


def test_never_worse_than_start():
    # start at the minimum of a flat-bottomed cost; result must not regress
    x, f, _ = minimize(lambda x: (float(abs(x[0]) + 1.0), np.sign(x)), np.zeros(1))
    assert f <= 1.0


def _quadratic_case():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((10, 10))
    a = m @ m.T + 10.0 * np.eye(10)
    b = rng.standard_normal(10)
    return lambda x: (float(0.5 * x @ a @ x - b @ x), a @ x - b), np.zeros(10), 1e-10


def _csa_case():
    # the first greedy CSA fit on the BeH2 residual, from its DF start
    from lcunorm.fragments import _df_start, _fragment_fit
    from lcunorm.pipeline import prepare

    tbt = prepare("beh2", picture="interaction").tensors.tbt
    rnorm = float(np.sqrt((tbt * tbt).sum()))
    scaled = tbt / rnorm
    x0 = _df_start(scaled) + np.random.default_rng(0).uniform(-0.01, 0.01, theta_dim(tbt.shape[0]))
    return partial(_fragment_fit, tbt=scaled), x0, csa_fit_tolerance(rnorm)


def _oo_case(width):
    t = to_chemist(load_fixture("lih"))
    return partial(_oo_cost, t=t, width=width), np.zeros(theta_dim(t.n_orb)), TOL_GRAD


def _split_case():
    # the split's last start on NH3, the one it keeps
    from lcunorm.fragments import _fragment_fit
    from lcunorm.picture import _SPLIT_WIDTH

    t = to_chemist(load_fixture("nh3"))
    x0 = _starts(np.zeros(theta_dim(t.n_orb)), 0, _SPLIT_WIDTH)[-1]
    return partial(_fragment_fit, tbt=t.tbt, obt=t.obt), x0, TOL_GRAD


_SCIPY_CASES = {
    "rosenbrock": lambda: (_rosenbrock, np.array([-1.2, 1.0]), TOL_GRAD),
    "quadratic": _quadratic_case,
    "csa-beh2-residual": _csa_case,
    "oo-lih-width-0": partial(_oo_case, 0.0),
    "oo-lih-width-1e-2": partial(_oo_case, 1e-2),
    "split-nh3": _split_case,
}


@pytest.mark.parametrize("case", list(_SCIPY_CASES))
def test_iterates_are_scipys_bfgs(case):
    # the same x, cost and iteration count bit for bit, from as many calls of f
    f, x0, tol_grad = _SCIPY_CASES[case]()
    calls = []
    x, fval, nit = minimize(lambda y: (calls.append(None), f(y))[1], x0, tol_grad)
    ref_x, ref_f, ref_nit, ref_calls = scipy_bfgs(f, x0, tol_grad)
    assert nit > 0
    assert np.array_equal(x, ref_x) and fval == ref_f and nit == ref_nit
    assert len(calls) == ref_calls


def test_first_trial_step_is_kept_or_handed_to_scipy(monkeypatch):
    # minimize keeps scipy's first trial step when it passes DCSRCH's test,
    # and otherwise runs scipy's whole line search, which reads that point
    # from the cache.  Across the cases both branches run: Rosenbrock needs
    # the search, and most CSA iterations keep the first step
    import scipy.optimize._optimize as scipy_optimize

    real = scipy_optimize._line_search_wolfe12
    searches = []

    def spy(*args, **kwargs):
        searches.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy_optimize, "_line_search_wolfe12", spy)
    counts = {}
    for case, build in _SCIPY_CASES.items():
        f, x0, tol_grad = build()
        del searches[:]
        nit = minimize(f, x0, tol_grad)[2]
        counts[case] = (nit, len(searches))
    assert counts["rosenbrock"][1] > 0
    nit, handed = counts["csa-beh2-residual"]
    assert 0 < handed < nit / 2
    assert sum(n for n, _ in counts.values()) > sum(h for _, h in counts.values())


def test_start_is_evaluated_once():
    x0 = np.array([-1.2, 1.0])
    calls = []
    x, f, nit = minimize(lambda x: (calls.append(x.copy()), _rosenbrock(x))[1], x0)
    assert sum(np.array_equal(c, x0) for c in calls) == 1
    # scipy's driver also evaluates x0 once, and takes the same steps
    ref = scipy_bfgs(_rosenbrock, x0, TOL_GRAD)
    assert np.array_equal(x, ref[0]) and (f, nit, len(calls)) == ref[1:]


def test_non_finite_cost_raises():
    def f(x):
        return float((x[0] - 3.0) ** 2) if x[0] < 2.0 else float("inf"), 2.0 * (x - 3.0)

    # the cost turns infinite during the search, or is NaN at the start
    for cost in (f, lambda x: (float("nan"), np.zeros(1))):
        with pytest.raises(NumericalError) as err:
            minimize(cost, np.zeros(1))
        assert "last_x" in err.value.payload


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_inside_a_search_raises_numerical_error():
    # a NaN generator reaching the rotation kernel mid-search gives a NaN
    # cost (its eigensolver does not raise), which minimize reports with the
    # iterate
    t = to_chemist(load_fixture("lih"))
    calls = []

    def poisoned(theta):
        calls.append(None)
        return _fragment_fit(theta if len(calls) < 4 else theta * np.nan, t.tbt, t.obt)

    with pytest.raises(NumericalError) as err:
        minimize(poisoned, _starts(np.zeros(theta_dim(t.n_orb)), 0, 0.2)[1])
    assert len(calls) == 4
    assert err.value.payload["last_x"].shape == (theta_dim(t.n_orb),)


def test_finite_difference_mode_is_gone():
    calls = []

    def f(x):
        calls.append(None)
        return float(x @ x), 2.0 * x

    with pytest.raises(ValueError):
        minimize(f, np.ones(2), 1e-8, False)
    assert not calls


def test_deterministic():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 4))
    a = a @ a.T + np.eye(4)

    def f(x):
        return float(x @ a @ x + np.sin(x).sum()), 2.0 * a @ x + np.cos(x)

    x0 = rng.standard_normal(4)
    r1 = minimize(f, x0.copy())
    r2 = minimize(f, x0.copy())
    assert np.array_equal(r1[0], r2[0]) and r1[1] == r2[1]


@pytest.mark.parametrize("molecule", FIXTURE_NAMES)
def test_oo_cost_matches_its_reference_bit_for_bit(molecule):
    # tensordot's np.dot run directly, and the fourth rotation's operand
    # reused for the gradient, against np.tensordot, at the DF start of the
    # raw, shifted and residual tensors, exact and smoothed
    from lcunorm.pipeline import prepare

    for variant in ({}, {"shift": True}, {"picture": "interaction"}):
        t = prepare(molecule, **variant).tensors
        theta = _df_start(t.tbt / np.sqrt((t.tbt * t.tbt).sum()))
        for width in (0.0, 1e-2):
            cost, grad = _oo_cost(theta, t, width)
            ref_cost, ref_grad = oo_cost_reference(theta, t, width)
            assert cost == ref_cost and np.array_equal(grad, ref_grad)


def test_oo_pauli_never_worsens():
    rng = np.random.default_rng(15)
    for _ in range(3):
        t = random_spatial(3, rng)
        base = lambda_pauli_closed_form(t)
        _, lam = oo_pauli(t)
        assert lam <= base + 1e-12


def test_oo_pauli_h2():
    # the optimum is the |theta| = pi/4 frame, below the 1.575 at theta = 0
    t = to_chemist(load_fixture("h2"))
    _, lam = oo_pauli(t)
    assert abs(lam - np.sqrt(2.0)) < 1e-3


def test_smoothed_cost_tracks_exact():
    from lcunorm.pauli import _closed_form

    rng = np.random.default_rng(21)
    t = random_spatial(3, rng)
    exact = lambda_pauli_closed_form(t)
    smooth = _closed_form(t.obt, t.tbt, 1e-8)
    assert abs(smooth - exact) < 1e-5


def test_oo_pauli_work_budget_on_lih(monkeypatch):
    # a machine-independent guard on the cold cost of the orbital search:
    # on analytic gradients alone it evaluates the closed form ~1,000 times
    # on LiH; a finite-difference search of the exact cost took ~4,000 more
    import lcunorm.optimize as opt

    calls = []
    closed_form = opt._closed_form

    def counted(*args, **kwargs):
        calls.append(None)
        return closed_form(*args, **kwargs)

    monkeypatch.setattr(opt, "_closed_form", counted)
    t = to_chemist(load_fixture("lih"))
    _, lam = oo_pauli(t)
    assert len(calls) <= 2_500
    assert lam < lambda_pauli_closed_form(t)
