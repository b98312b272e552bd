import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkes_meanfield.model import Kernel, RateFn
from hawkes_meanfield.meanfield import (
    Excitation,
    SolverDivergenceError,
    TimeGrid,
    TruncationError,
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
    # c = 1e300 m overflows on the third step
    with pytest.raises(SolverDivergenceError, match="step 2 "):
        solve_mean(Kernel.constant(1e300), RateFn.affine(1.0, 1e10), 1.0, 1e-2)


@pytest.mark.parametrize("dt", [1e-3, 1e-4])
def test_spike_kernel_refuses_a_negative_excitation(dt):
    # h' jumps by ~2.7e4 at the spike's apex, so the quadrature error
    # dt * |jump of h'| is O(1) at both steps and drives c below zero,
    # which a nonnegative h cannot produce
    spike = Kernel.tabulated([0.0, 0.005, 0.015, 20.0], [0.0, 90.0, 0.0, 0.0])
    with pytest.raises(SolverDivergenceError, match="excitation -"):
        solve_mean(spike, RateFn.affine(1.0, 1.0), 20.0, dt)


def test_convolve_representations_agree():
    # the grid excitation, on a staircase path, against the exact Stieltjes
    # sum over its atoms: the left rule of the steppers and solve_mean's
    # trapezoid rule (left plus dt h'(0) f / 2)
    g = TimeGrid.from_T_dt(1.0, 1e-3)
    atoms = [0.123, 0.5, 0.51, 0.87]
    staircase = np.sum(g.points[:, None] >= np.asarray(atoms)[None, :], axis=1).astype(float)
    k = Kernel.exponential(1.0, 2.0)
    exact = float(np.sum(k.eval(1.0 - np.asarray(atoms))))
    left = float(Excitation.path(k, g, staircase)[-1])
    trapezoid = left + 0.5 * g.dt * k.deriv(0.0) * staircase[-1]
    assert left == pytest.approx(exact, abs=5e-3)  # quadrature error only
    assert trapezoid == pytest.approx(exact, abs=5e-3)


EXCITATION_KERNELS = {
    "zero": Kernel.zero(),
    "constant": Kernel.constant(0.6),
    "exponential": Kernel.exponential(1.3, 2.5),
    "tabulated": Kernel.tabulated((0.0, 0.25, 0.5, 1.0), (1.0, 0.7, 0.4, 0.0)),
}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(EXCITATION_KERNELS)),
    n=st.integers(1, 60),
    T=st.sampled_from([0.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_excitation_pushes_match_the_direct_sum(kind, n, T, seed):
    kernel = EXCITATION_KERNELS[kind]
    grid = TimeGrid.from_T_dt(T, T / n)
    f = np.random.default_rng(seed).normal(size=n + 1)
    f[0] = 0.0
    ts = grid.points
    h0 = kernel.eval(0.0)
    memory = Excitation(kernel, grid)
    got = np.array([memory.push(v) for v in f])
    assert np.array_equal(Excitation.path(kernel, grid, f), got)  # bit for bit
    for k in range(n + 1):
        # h'(t_k - t_j) at the grid lag t_{k-j}: a rounded difference could cross a knot
        terms = grid.dt * np.array([kernel.deriv(ts[k - j]) * f[j] for j in range(k)])
        want = h0 * f[k] + float(np.sum(terms))
        assert abs(got[k] - want) <= 1e-12 * (abs(h0 * f[k]) + float(np.sum(np.abs(terms))))


# the ids end in "-None", the names these cases had while the memory also
# took a count of paths to push together
@pytest.mark.parametrize("kind", sorted(EXCITATION_KERNELS), ids=lambda kind: f"{kind}-None")
def test_excitation_lag_is_the_memory_part_of_the_next_push(kind):
    kernel = EXCITATION_KERNELS[kind]
    grid = TimeGrid.from_T_dt(1.0, 1.0 / 40)
    memory = Excitation(kernel, grid)
    f = np.random.default_rng(11).normal(size=grid.n + 1)
    f[0] = 0.0
    for v in f.tolist():
        lag = memory.lag()
        assert memory.lag() == lag  # reading it records nothing
        want = memory.h0 * v if kind in ("zero", "constant") else memory.h0 * v + lag
        assert np.asarray(memory.push(v)).tobytes() == np.asarray(want).tobytes()
        if kind in ("zero", "constant"):
            assert lag == 0.0


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
