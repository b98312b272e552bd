import math

import numpy as np
import pytest

from hawkes_meanfield.model import Kernel, RateFn
from hawkes_meanfield.meanfield import (
    SolverDivergenceError,
    TimeGrid,
    TruncationError,
    _excitation_trapezoid,
    limit_law,
    limit_law_path,
    solve_mean,
    suggested_state_count,
)


def test_grid_construction():
    g = TimeGrid.from_T_dt(1.0, 1e-3)
    assert g.n == 1000 and g.points[0] == 0.0 and g.points[-1] == 1.0
    assert g.index_of(0.5) == 500
    with pytest.raises(ValueError):
        TimeGrid.from_T_dt(1.0, 0.3)
    with pytest.raises(ValueError):
        g.index_of(0.50001)


def test_constant_intensity_mean():
    mp = solve_mean(Kernel.zero(), RateFn.affine(2, 0), 1.0, 1e-3)
    assert mp.m[-1] == pytest.approx(2.0, abs=1e-6)
    assert np.allclose(mp.lam, 2.0)


def test_empty_interval():
    mp = solve_mean(Kernel.zero(), RateFn.affine(2, 0), 0.0, 1e-3)
    assert mp.m[0] == 0.0 and mp.grid.n == 0


def test_explin_against_ode_oracle(explin_mean):
    # closed-form oracle: lambda(t) = 2 - e^{-t}, m(t) = 2t + e^{-t} - 1
    ts = explin_mean.grid.points
    assert np.max(np.abs(explin_mean.lam - (2.0 - np.exp(-ts)))) <= 1e-3
    assert np.max(np.abs(explin_mean.m - (2.0 * ts + np.exp(-ts) - 1.0))) <= 1e-3
    assert explin_mean.m[-1] == pytest.approx(1.0 + math.exp(-1.0), abs=1e-3)
    assert explin_mean.lam[-1] == pytest.approx(2.0 - math.exp(-1.0), abs=1e-3)


def test_mean_path_invariants(explin_mean):
    m, lam, dt = explin_mean.m, explin_mean.lam, explin_mean.grid.dt
    assert m[0] == 0.0
    assert np.all(np.diff(m) >= -1e-15)
    assert np.all(lam > 0)
    incr_bound = dt * np.maximum(lam[:-1], lam[1:]) * (1.0 + dt)
    assert np.all(np.diff(m) <= incr_bound)
    # lambda consistent with the excitation it stores
    assert np.allclose(lam, 1.0 + explin_mean.excitation)


def test_grid_refinement_linear(exp_kernel, affine_rate):
    diffs = []
    for dt in (4e-3, 2e-3):
        a = solve_mean(exp_kernel, affine_rate, 1.0, dt).m[-1]
        b = solve_mean(exp_kernel, affine_rate, 1.0, dt / 2).m[-1]
        diffs.append(abs(a - b))
    assert diffs[0] <= 2.0 * 4e-3  # empirical constant well below 2
    assert diffs[1] <= 0.75 * diffs[0]  # at least first-order decay


def test_lambda_positive_floor(explin_mean, affine_rate):
    floor = float(affine_rate.eval(0.0))
    assert np.all(explin_mean.lam >= floor - 1e-12)


def test_dt_precondition():
    with pytest.raises(ValueError):
        solve_mean(Kernel.zero(), RateFn.affine(2, 0), 1.0, 0.2)


def test_divergent_model_reports_step():
    # a custom rate that blows up once excitation exceeds a threshold
    r = RateFn.custom(
        lambda x: 2.0 if x < 0.25 else float("nan"), lambda x: 0.0, lipschitz=1.0
    )
    with pytest.raises(SolverDivergenceError):
        solve_mean(Kernel.constant(1.0), r, 1.0, 1e-2)


def test_convolve_representations_agree():
    # the grid convolution solve_mean uses, on a staircase path, against the
    # exact Stieltjes sum over its atoms
    g = TimeGrid.from_T_dt(1.0, 1e-3)
    atoms = [0.123, 0.5, 0.51, 0.87]
    staircase = np.sum(g.points[:, None] >= np.asarray(atoms)[None, :], axis=1).astype(float)
    k = Kernel.exponential(1.0, 2.0)
    exact = float(np.sum(k.eval(1.0 - np.asarray(atoms))))
    approx = float(_excitation_trapezoid(k, g, staircase)[-1])
    assert approx == pytest.approx(exact, abs=5e-3)  # quadrature error only


def test_limit_law_values(homog_mean):
    ll = limit_law(homog_mean, 1.0, 20)
    assert ll.pmf[0] == pytest.approx(math.exp(-2.0), abs=1e-9)
    assert ll.pmf.sum() + ll.tail_mass == pytest.approx(1.0, abs=1e-12)


def test_limit_law_degenerate(homog_mean):
    ll = limit_law(homog_mean, 0.0, 5)
    assert ll.pmf[0] == 1.0 and ll.tail_mass == 0.0


def test_limit_law_explin(explin_mean):
    ll = limit_law(explin_mean, 1.0, 30)
    assert ll.pmf[0] == pytest.approx(math.exp(-(1.0 + math.exp(-1.0))), abs=1e-4)


def test_limit_law_truncation_error(homog_mean):
    with pytest.raises(TruncationError):
        limit_law(homog_mean, 1.0, 2)
    assert suggested_state_count(2.0) >= 10


def test_limit_law_path_consistency(explin_mean):
    lp = limit_law_path(explin_mean, 25)
    ll = limit_law(explin_mean, 1.0, 25)
    assert np.array_equal(lp[-1], ll.pmf)
    sums = lp.sum(axis=1)
    assert np.all(sums <= 1.0 + 1e-12) and np.all(sums > 1.0 - 1e-8)
