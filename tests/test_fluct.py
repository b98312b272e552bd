import hashlib
import math

import numpy as np
import pytest

from hawkes_meanfield.meanfield import limit_law_path, solve_mean
from hawkes_meanfield.model import Kernel
from hawkes_meanfield.engine import EventLog, mean_path, simulate_coupled, simulate_hawkes
from hawkes_meanfield.fluct import (
    GridTooFineError,
    SpeedSequence,
    _ladder_path,
    centered_field,
    limit_mean_variance,
    rescaled_field,
    simulate_limit_field,
    simulate_limit_mean,
)
from hawkes_meanfield.rng import derive_seed


def _coarse_mean(kernel, rate, n=100):
    return solve_mean(kernel, rate, 1.0, 1.0 / n)


def test_centered_field_single_particle(homog_mean):
    jumps = (np.array([0.2, 0.6]),)
    log = EventLog(N=1, T=1.0, jumps=jumps, seed=0, kind="hawkes")
    f = centered_field(log, homog_mean, 20)
    law = limit_law_path(homog_mean, 20)
    expected = np.zeros(21)
    expected[2] = 1.0
    assert np.allclose(f.values[-1], expected - law[-1], atol=1e-12)


def test_centered_field_centering(zero_kernel, const2_rate, homog_mean):
    # logs drawn exactly from the limit law: per-coordinate mean ~ 0
    reps, N, K = 60, 500, 25
    acc = np.zeros(K + 1)
    for rep in range(reps):
        c = simulate_coupled(N, zero_kernel, const2_rate, homog_mean, 1.0, seed=derive_seed(3, rep))
        f = centered_field(c.poisson, homog_mean, K)
        acc += f.values[-1]
    acc /= reps
    law = limit_law_path(homog_mean, K)[-1]
    tol = 3.0 * np.sqrt(law * (1.0 - law) / reps) + 1e-6
    assert np.all(np.abs(acc) <= tol)


def test_centered_field_indicator_variance(zero_kernel, const2_rate, homog_mean):
    # Var <Lhat_1, 1_{0}> -> p(1-p), p = e^{-2}; reduced-size band here
    reps, N = 300, 1000
    vals = []
    for rep in range(reps):
        log = simulate_hawkes(N, zero_kernel, const2_rate, 1.0, seed=derive_seed(5, rep))
        f = centered_field(log, homog_mean, 25)
        vals.append(f.values[-1, 0])
    p = math.exp(-2.0)
    target = p * (1.0 - p)
    assert np.var(vals, ddof=1) == pytest.approx(target, rel=0.25)


def test_field_mass_defect_accounting(exp_kernel, affine_rate, explin_mean):
    log = simulate_hawkes(400, exp_kernel, affine_rate, 1.0, seed=9)
    f = centered_field(log, explin_mean, 30)
    assert np.allclose(f.values.sum(axis=1), -f.mass_defect, atol=1e-10)
    assert f.overflow is not None and np.all(f.overflow == 0)


def test_centered_field_overflow_accounting(homog_mean):
    # an outlier particle beyond K lands in the overflow bucket, and the
    # signed mass obeys |sum_x field| <= overflow/sqrt(N) up to the law tail
    N, K = 4, 15
    outlier = np.linspace(0.01, 0.99, 20)  # 20 jumps, far beyond K
    jumps = (outlier, np.array([0.5]), np.array([]), np.array([0.2, 0.7]))
    log = EventLog(N=N, T=1.0, jumps=jumps, seed=0, kind="hawkes")
    f = centered_field(log, homog_mean, K)
    assert f.overflow[-1] == 1
    total = f.values[-1].sum()
    assert abs(total) <= f.overflow[-1] / math.sqrt(N) + 1e-7  # law tail ~ 1e-9
    assert np.allclose(f.values.sum(axis=1), -f.mass_defect, atol=1e-12)


def test_projection_identity(exp_kernel, affine_rate, explin_mean):
    # <Lhat_t, ell> + sqrtN * (tail moment) = sqrtN (Zbar_t - m_t) when no overflow
    N, K = 300, 40
    log = simulate_hawkes(N, exp_kernel, affine_rate, 1.0, seed=13)
    f = centered_field(log, explin_mean, K)
    assert np.all(f.overflow == 0)
    states = np.arange(K + 1, dtype=float)
    law = limit_law_path(explin_mean, K)
    proj = f.values @ states
    zbar = mean_path(log, explin_mean.grid)
    direct = math.sqrt(N) * (zbar - explin_mean.m)
    correction = math.sqrt(N) * (explin_mean.m - law @ states)
    assert np.max(np.abs(proj - correction - direct)) <= 1e-10


def test_rescaled_field_is_linear_scaling(exp_kernel, affine_rate, explin_mean):
    log = simulate_hawkes(16, exp_kernel, affine_rate, 1.0, seed=17)
    base = centered_field(log, explin_mean, 30)
    speed = SpeedSequence(gamma=0.25)
    assert speed.a(16) == pytest.approx(2.0)
    scaled = rescaled_field(log, explin_mean, 30, speed)
    assert np.allclose(scaled.values, base.values / 2.0, atol=0)
    assert np.max(np.abs(scaled.values)) == pytest.approx(np.max(np.abs(base.values)) / 2.0)


def test_speed_sequence_validation():
    with pytest.raises(ValueError):
        SpeedSequence(gamma=0.5)
    with pytest.raises(ValueError):
        SpeedSequence(gamma=0.0)


def test_limit_mean_same_seed_identical(exp_kernel, affine_rate):
    mean = _coarse_mean(exp_kernel, affine_rate)
    a = simulate_limit_mean(mean, exp_kernel, affine_rate, seed=21)
    b = simulate_limit_mean(mean, exp_kernel, affine_rate, seed=21)
    assert np.array_equal(a, b)


def test_limit_mean_variance_homogeneous_exact(zero_kernel, const2_rate):
    mean = _coarse_mean(zero_kernel, const2_rate, n=256)
    v = limit_mean_variance(mean, zero_kernel, const2_rate, method="dense")
    assert v[-1] == pytest.approx(2.0, abs=1e-12)
    assert v[128] == pytest.approx(1.0, abs=1e-12)


def test_limit_mean_variance_oracles_agree(exp_kernel, affine_rate):
    mean = _coarse_mean(exp_kernel, affine_rate, n=256)
    vd = limit_mean_variance(mean, exp_kernel, affine_rate, method="dense")
    vl = limit_mean_variance(mean, exp_kernel, affine_rate, method="lyapunov")
    assert abs(vd[-1] - vl[-1]) / vl[-1] <= 1e-3


def test_limit_mean_variance_cap(exp_kernel, affine_rate, explin_mean):
    with pytest.raises(GridTooFineError):
        limit_mean_variance(explin_mean, exp_kernel, affine_rate, method="dense")


def test_limit_mean_monte_carlo_homogeneous(zero_kernel, const2_rate):
    mean = _coarse_mean(zero_kernel, const2_rate)
    vals = [
        simulate_limit_mean(mean, zero_kernel, const2_rate, seed=derive_seed(23, r))[-1]
        for r in range(2000)
    ]
    assert np.var(vals, ddof=1) == pytest.approx(2.0, rel=0.10)


def test_limit_mean_monte_carlo_explin(exp_kernel, affine_rate):
    mean = solve_mean(exp_kernel, affine_rate, 1.0, 1.0 / 200)
    vals = [
        simulate_limit_mean(mean, exp_kernel, affine_rate, seed=derive_seed(29, r))[-1]
        for r in range(2000)
    ]
    coarse = _coarse_mean(exp_kernel, affine_rate, n=256)
    target = limit_mean_variance(coarse, exp_kernel, affine_rate, method="lyapunov")[-1]
    assert np.var(vals, ddof=1) == pytest.approx(target, rel=0.10)


def test_limit_field_conservation_and_zero_noise(exp_kernel, affine_rate):
    mean = _coarse_mean(exp_kernel, affine_rate)
    f = simulate_limit_field(mean, exp_kernel, affine_rate, 30, seed=31)
    assert np.max(np.abs(f.values.sum(axis=1) + f.mass_defect)) <= 1e-10
    # without noise the drift is linear homogeneous: the path stays at 0
    law = limit_law_path(mean, 30)[: mean.grid.n]
    z = _ladder_path(mean, exp_kernel, affine_rate, law, np.zeros_like(law), np.zeros_like(law))
    assert np.all(z.values == 0.0)


@pytest.mark.parametrize("kind", ["exp", "tab"])
def test_ladder_path_without_forcing_is_exactly_zero(kind, exp_kernel, affine_rate):
    tab = Kernel.tabulated((0.0, 0.25, 0.5, 1.0), (1.0, 0.7, 0.4, 0.0))
    kernel = exp_kernel if kind == "exp" else tab
    mean = _coarse_mean(kernel, affine_rate, n=200)
    law = limit_law_path(mean, 30)[: mean.grid.n]
    zeros = np.zeros_like(law)
    path = _ladder_path(mean, kernel, affine_rate, law, zeros, zeros)
    assert np.all(path.values == 0.0) and np.all(path.mass_defect == 0.0)
    # +0.0 throughout: a zero forcing adds nothing, not even a sign
    assert not np.signbit(path.values).any() and not np.signbit(path.mass_defect).any()


def test_limit_field_constant_projection_conserved(exp_kernel, affine_rate):
    # <X_t, 1> = -mass defect: pairing with a constant kills every drift term
    mean = _coarse_mean(exp_kernel, affine_rate)
    f = simulate_limit_field(mean, exp_kernel, affine_rate, 30, seed=37)
    ones = np.ones(31)
    assert np.allclose(f.project(ones), -f.mass_defect, atol=1e-10)


def test_limit_field_indicator_variance(zero_kernel, const2_rate):
    mean = _coarse_mean(zero_kernel, const2_rate)
    vals = [
        simulate_limit_field(mean, zero_kernel, const2_rate, 30, seed=derive_seed(41, r)).values[-1, 0]
        for r in range(800)
    ]
    p = math.exp(-2.0)
    assert np.var(vals, ddof=1) == pytest.approx(p * (1.0 - p), rel=0.15)


def test_limit_field_matches_limit_mean_in_law(exp_kernel, affine_rate):
    # <X, ell> marginal of the field equation vs the scalar SDE, variance match
    mean = _coarse_mean(exp_kernel, affine_rate)
    states = np.arange(31, dtype=float)
    vf = [
        float(simulate_limit_field(mean, exp_kernel, affine_rate, 30, seed=derive_seed(43, r)).values[-1] @ states)
        for r in range(600)
    ]
    vm = [
        simulate_limit_mean(mean, exp_kernel, affine_rate, seed=derive_seed(44, r))[-1]
        for r in range(600)
    ]
    ref = limit_mean_variance(_coarse_mean(exp_kernel, affine_rate, 256), exp_kernel, affine_rate)[-1]
    assert np.var(vf, ddof=1) == pytest.approx(ref, rel=0.20)
    assert np.var(vm, ddof=1) == pytest.approx(ref, rel=0.20)


def test_variance_stable_under_dt_halving(zero_kernel, const2_rate):
    outs = []
    for n in (50, 100):
        mean = _coarse_mean(zero_kernel, const2_rate, n=n)
        vals = [
            simulate_limit_field(mean, zero_kernel, const2_rate, 25, seed=derive_seed(47, r)).values[-1, 0]
            for r in range(400)
        ]
        outs.append((np.var(vals, ddof=1), len(vals)))
    v1, n1 = outs[0]
    v2, n2 = outs[1]
    ci_width = (math.sqrt(2.0 / (n1 - 1)) + math.sqrt(2.0 / (n2 - 1))) * max(v1, v2)
    assert abs(v1 - v2) <= ci_width


# recorded before the limit-field stepper took its law ladder and noise ladder
# out of the loop: the values and the mass defect must keep every bit
LIMIT_FIELD_SHA256 = {
    "exp": (
        "14e0d1d88e3d7fcc30f7b21534acc8a22416af8d9e51af7d07f2d370c41b4fdb",
        "22669a28d24e4a78bf364873eea08e08685bf97b0555bdbf823384ba6424cb42",
    ),
    "tab": (
        "a6370007e6deee99e9528bf990eaa5656e34fb60bc28e2f8bcabec29a5b8b429",
        "34b9ca7c20b66cfdbfabdab7dca8408d5e80a60f62916897b27a6ec0d9495799",
    ),
}


@pytest.mark.parametrize("kind", ["exp", "tab"])
def test_limit_field_golden_bytes(kind, exp_kernel, affine_rate):
    tab = Kernel.tabulated((0.0, 0.25, 0.5, 1.0), (1.0, 0.7, 0.4, 0.0))
    kernel = exp_kernel if kind == "exp" else tab
    mean = _coarse_mean(kernel, affine_rate, n=200)
    f = simulate_limit_field(mean, kernel, affine_rate, 30, seed=53)
    got = (
        hashlib.sha256(f.values.tobytes()).hexdigest(),
        hashlib.sha256(f.mass_defect.tobytes()).hexdigest(),
    )
    assert got == LIMIT_FIELD_SHA256[kind]
