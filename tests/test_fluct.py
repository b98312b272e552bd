import hashlib
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hawkes_meanfield import fluct
from hawkes_meanfield.meanfield import TruncationError, limit_law_path, solve_mean
from hawkes_meanfield.model import Kernel, RateFn
from hawkes_meanfield.engine import EventLog, simulate_coupled, simulate_hawkes
from hawkes_meanfield.fluct import (
    _ladder_path,
    centered_field,
    limit_field_variance,
    limit_mean_variance,
    simulate_limit_field,
    simulate_limit_mean,
)
from hawkes_meanfield.rng import derive_seed
from lyapunov_reference import _variance_lyapunov


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
    # Zbar(t_k): the mean particle count at each grid time
    zbar = np.searchsorted(np.sort(log.times), explin_mean.grid.points, side="right") / N
    direct = math.sqrt(N) * (zbar - explin_mean.m)
    correction = math.sqrt(N) * (explin_mean.m - law @ states)
    assert np.max(np.abs(proj - correction - direct)) <= 1e-10


def test_limit_mean_same_seed_identical(exp_kernel, affine_rate):
    mean = _coarse_mean(exp_kernel, affine_rate)
    a = simulate_limit_mean(mean, exp_kernel, affine_rate, seed=21)
    b = simulate_limit_mean(mean, exp_kernel, affine_rate, seed=21)
    assert np.array_equal(a, b)


def test_limit_mean_variance_homogeneous_exact(zero_kernel, const2_rate):
    mean = _coarse_mean(zero_kernel, const2_rate, n=256)
    v = limit_mean_variance(mean, zero_kernel, const2_rate)
    assert v == pytest.approx(2.0, abs=1e-12)
    half = solve_mean(zero_kernel, const2_rate, 0.5, 1.0 / 256)
    assert limit_mean_variance(half, zero_kernel, const2_rate) == pytest.approx(1.0, abs=1e-12)


def test_limit_mean_variance_oracles_agree(exp_kernel, affine_rate):
    mean = _coarse_mean(exp_kernel, affine_rate, n=256)
    vt = limit_mean_variance(mean, exp_kernel, affine_rate)
    vl = _variance_lyapunov(mean, exp_kernel, affine_rate)
    assert abs(vt - vl) / vl <= 1e-3
    assert limit_mean_variance(mean, exp_kernel, affine_rate) == vt


def test_limit_mean_variance_has_no_step_cap(exp_kernel, affine_rate, explin_mean):
    # n = 1000, a grid the O(n^3) covariance propagation used to refuse, and
    # n = 10^4, where the O(n) backward pass and RK4 agree to O(dt^2)
    assert explin_mean.grid.n == 1000
    fine = _coarse_mean(exp_kernel, affine_rate, 10**4)
    for mean, rel in ((explin_mean, 1e-3), (fine, 1e-6)):
        vt = limit_mean_variance(mean, exp_kernel, affine_rate)
        vl = _variance_lyapunov(mean, exp_kernel, affine_rate)
        assert math.isfinite(vt) and abs(vt - vl) / vl <= rel


# Var X_T at T = 1 with phi = 1 + x, recorded from the (n+1)^2 covariance
# propagation the backward pass replaced; float.hex of each terminal value
DENSE_VARIANCE_HEX = {
    ("exp", 100): "0x1.423a345bbc05bp+1",
    ("exp", 256): "0x1.424c30ed57989p+1",
    ("exp", 512): "0x1.42508026ef84bp+1",
    ("tab", 100): "0x1.603f8e2fd465ap+1",
    ("tab", 256): "0x1.602dd2c68c0e4p+1",
    ("tab", 512): "0x1.6027c7b862127p+1",
    ("zero", 100): "0x1.0000000000003p+0",
    ("zero", 256): "0x1.0000000000000p+0",
    ("zero", 512): "0x1.0000000000000p+0",
}
CONCAVE_RATE = RateFn.tabulated((0.0, 0.5, 1.0, 2.0, 4.0), (1.0, 1.8, 2.2, 2.4, 2.5))
VARIANCE_KERNELS = {
    "exp": Kernel.exponential(1.0, 2.0),
    "tab": Kernel.tabulated((0.0, 0.25, 0.5, 1.0), (1.0, 0.7, 0.4, 0.0)),
    "zero": Kernel.zero(),
}


@pytest.mark.parametrize("kind, n", sorted(DENSE_VARIANCE_HEX))
def test_trapezoid_variance_matches_covariance_propagation(kind, n, affine_rate):
    kernel = VARIANCE_KERNELS[kind]
    v = limit_mean_variance(_coarse_mean(kernel, affine_rate, n), kernel, affine_rate)
    ref = float.fromhex(DENSE_VARIANCE_HEX[(kind, n)])
    assert abs(v - ref) <= 1e-13 * ref


# Var X_T at T = 1 with the concave tabulated phi of CONCAVE_RATE, so phi'(c_t)
# varies along the path; float.hex of each value of the O(n^2) forward-row
# pass that the backward push through Excitation replaced
CONCAVE_VARIANCE_HEX = {
    ("exp", 100): "0x1.9e0d2ac5e1759p+1",
    ("exp", 256): "0x1.9eb5be62d4934p+1",
    ("tab", 100): "0x1.b15af7ac98ac9p+1",
    ("tab", 256): "0x1.b1cf038208c4ap+1",
}


@pytest.mark.parametrize("kind, n", sorted(CONCAVE_VARIANCE_HEX))
def test_trapezoid_variance_with_varying_rate_slope(kind, n):
    kernel = VARIANCE_KERNELS[kind]
    mean = _coarse_mean(kernel, CONCAVE_RATE, n)
    assert np.ptp(CONCAVE_RATE.deriv(mean.excitation)) > 0.0
    v = limit_mean_variance(mean, kernel, CONCAVE_RATE)
    ref = float.fromhex(CONCAVE_VARIANCE_HEX[(kind, n)])
    assert abs(v - ref) <= 1e-13 * ref


# recorded before the RK4 stages took lam and phi'(c) from one interpolation;
# n = 1000 re-recorded (one ulp, 1.8e-16) when solve_mean's excitation moved to
# the shared grid memory
LYAPUNOV_HEX = {256: "0x1.424d2b1217f11p+1", 1000: "0x1.42526932ed789p+1"}


@pytest.mark.parametrize("n", sorted(LYAPUNOV_HEX))
def test_lyapunov_variance_bits(n, exp_kernel, affine_rate):
    v = _variance_lyapunov(_coarse_mean(exp_kernel, affine_rate, n), exp_kernel, affine_rate)
    assert v.hex() == LYAPUNOV_HEX[n]


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
    target = _variance_lyapunov(coarse, exp_kernel, affine_rate)
    assert np.var(vals, ddof=1) == pytest.approx(target, rel=0.10)


def test_limit_field_conservation_and_zero_noise(exp_kernel, affine_rate):
    mean = _coarse_mean(exp_kernel, affine_rate)
    f = simulate_limit_field(mean, exp_kernel, affine_rate, 30, seed=31)
    assert np.max(np.abs(f.values.sum(axis=1) + f.mass_defect)) <= 1e-10
    # without noise the drift is linear homogeneous: the path stays at 0
    law = limit_law_path(mean, 30)[: mean.grid.n]
    zeros = np.zeros(law.shape)
    z = _ladder_path(mean, exp_kernel, affine_rate, law, zeros, zeros)
    assert np.all(z.values == 0.0)


@pytest.mark.parametrize(
    "kind, given",
    [
        pytest.param("exp", None, id="exp"),
        pytest.param("tab", None, id="tab"),
        pytest.param("exp", "g", id="exp-source-only"),
        pytest.param("tab", "g", id="tab-source-only"),
        pytest.param("exp", "noise", id="exp-noise-only"),
        pytest.param("tab", "noise", id="tab-noise-only"),
    ],
)
def test_ladder_path_without_forcing_is_exactly_zero(kind, given, exp_kernel, affine_rate):
    tab = Kernel.tabulated((0.0, 0.25, 0.5, 1.0), (1.0, 0.7, 0.4, 0.0))
    kernel = exp_kernel if kind == "exp" else tab
    mean = _coarse_mean(kernel, affine_rate, n=200)
    law = limit_law_path(mean, 30)[: mean.grid.n]
    if given is None:
        zeros = np.zeros(law.shape)
        path = _ladder_path(mean, kernel, affine_rate, law, zeros, zeros)
        assert np.all(path.values == 0.0) and np.all(path.mass_defect == 0.0)
        # +0.0 throughout: a zero forcing adds nothing, not even a sign
        assert not np.signbit(path.values).any() and not np.signbit(path.mass_defect).any()
        return
    # an omitted forcing gives the bits of an explicit zero block, for two blocks
    rng = np.random.default_rng(17)
    for _ in range(2):
        block = rng.normal(size=law.shape) * (1.0 if given == "g" else np.sqrt(law))
        zeros = np.zeros_like(block)
        pair = (block, zeros) if given == "g" else (zeros, block)
        explicit = _ladder_path(mean, kernel, affine_rate, law, *pair)
        omitted = _ladder_path(mean, kernel, affine_rate, law, **{given: block})
        assert explicit.values.tobytes() == omitted.values.tobytes()
        assert explicit.mass_defect.tobytes() == omitted.mass_defect.tobytes()
        assert np.any(omitted.values != 0.0)


@pytest.mark.parametrize("given", ["g", "noise"])
def test_ladder_path_bits_do_not_depend_on_the_step_block(given, monkeypatch, affine_rate):
    mean = _coarse_mean(TAB, affine_rate, n=200)
    law = limit_law_path(mean, 20)[:200]
    rng = np.random.default_rng(23)
    block = rng.normal(size=law.shape) * (1.0 if given == "g" else np.sqrt(law))
    whole = _ladder_path(mean, TAB, affine_rate, law, **{given: block})
    monkeypatch.setattr(fluct, "_BLOCK", 7)
    blocked = _ladder_path(mean, TAB, affine_rate, law, **{given: block})
    assert whole.values.tobytes() == blocked.values.tobytes()
    assert whole.mass_defect.tobytes() == blocked.mass_defect.tobytes()


def test_field_csv_is_one_byte_table(exp_kernel, affine_rate, monkeypatch):
    mean = _coarse_mean(exp_kernel, affine_rate, n=20)
    f = simulate_limit_field(mean, exp_kernel, affine_rate, 15, seed=3)
    buf = io.BytesIO()
    f.to_csv(buf)
    data = buf.getvalue()
    rows = data.decode("ascii").split("\n")
    assert rows[0] == "t,x,value" and rows[-1] == "" and len(rows) == 2 + 21 * 16
    assert rows[1 + 16 * 7 + 2] == f"{mean.grid.points.tolist()[7]!r},2,{f.values[7, 2].item()!r}"
    # written as the header and then a few grid times a write, into the same bytes
    monkeypatch.setattr(fluct, "_BLOCK", 4)
    chunks = []
    f.to_csv(SimpleNamespace(write=chunks.append))
    assert b"".join(chunks) == data
    assert [c.count(b"\n") for c in chunks] == [1] + [4 * 16] * 5 + [16]


def test_limit_field_constant_projection_conserved(exp_kernel, affine_rate):
    # <X_t, 1> = -mass defect: pairing with a constant kills every drift term
    mean = _coarse_mean(exp_kernel, affine_rate)
    f = simulate_limit_field(mean, exp_kernel, affine_rate, 30, seed=37)
    ones = np.ones(31)
    assert np.allclose(f.values @ ones, -f.mass_defect, atol=1e-10)


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
    ref = limit_mean_variance(_coarse_mean(exp_kernel, affine_rate, 256), exp_kernel, affine_rate)
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
# out of the loop: the values and the mass defect must keep every bit.
# Re-recorded when solve_mean and the ladder's excitation moved to the shared
# grid memory: values moved by <= 6.8e-16 of their largest magnitude, and the
# tabulated ladder keeps every bit given the same mean
LIMIT_FIELD_SHA256 = {
    "exp": (
        "510bfe8b03fd3bef95cbad7d2b7f9ed80679162ab0572d459754a8b761d103ea",
        "0e53790b06a2df18ef5c6aed297bf93c0e2732bf312f17cda6e56638fe5f173c",
    ),
    "tab": (
        "62ac2d5d2b6fdedf82c5813c6b0010689cfb050e1e59ea1e8197cc9713da4704",
        "b5bfa901e71954d9cbe83e174a54bd24b9af8e86b30b8023979e74c7ad0a0015",
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


TAB = Kernel.tabulated((0.0, 0.25, 0.5, 1.0), (1.0, 0.7, 0.4, 0.0))


@pytest.mark.parametrize("kind", ["exp", "tab"])
def test_limit_field_seed_list_matches_per_seed_calls(kind, exp_kernel, affine_rate):
    # a list of 37 seeds steps each seed's path on its own, with the bits of a one-seed call
    kernel = exp_kernel if kind == "exp" else TAB
    mean = _coarse_mean(kernel, affine_rate, n=60)
    seeds = [derive_seed(59, r) for r in range(37)]
    paths = simulate_limit_field(mean, kernel, affine_rate, 30, seeds)
    assert len(paths) == len(seeds)
    for seed, path in zip(seeds, paths):
        one = simulate_limit_field(mean, kernel, affine_rate, 30, seed)
        assert path.values.tobytes() == one.values.tobytes()
        assert path.mass_defect.tobytes() == one.mass_defect.tobytes()
        assert not path.values.flags.writeable and not path.mass_defect.flags.writeable


def test_ladder_path_divergence_names_the_first_step_over_replicas(exp_kernel, affine_rate):
    mean = _coarse_mean(exp_kernel, affine_rate, n=40)
    K = 10
    law = limit_law_path(mean, K)[:40]
    source = np.zeros((40, K + 1))
    # finite sources whose ladder differences overflow at steps 9 and 5
    huge = np.finfo(float).max * (-1.0) ** np.arange(K + 1)
    source[9] = huge
    source[5] = huge
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="at step 5$"):
            _ladder_path(mean, exp_kernel, affine_rate, law, source, np.zeros_like(source))


def _jacobian_variance(mean, kernel, rate, K, w):
    # Var <X_T, w> summed over the responses to every unit noise xi_k(x), each
    # stepped forward by the ladder itself: sum over (k, x) of d<X_T, w>/dxi_k(x)^2
    n = mean.grid.n
    law = limit_law_path(mean, K)[:n]
    total = 0.0
    for k in range(n):
        for x in range(K + 1):
            noise = np.zeros((n, K + 1))
            noise[k, x] = np.sqrt(law[k, x])
            total += float(_ladder_path(mean, kernel, rate, law, noise=noise).values[-1] @ w) ** 2
    return total


@pytest.mark.parametrize("rate_kind", ["affine", "concave"])
@pytest.mark.parametrize("kind", ["exp", "tab"])
def test_limit_field_variance_is_the_jacobian_sum(kind, rate_kind, exp_kernel, affine_rate):
    kernel = exp_kernel if kind == "exp" else TAB
    rate = affine_rate if rate_kind == "affine" else CONCAVE_RATE
    mean = _coarse_mean(kernel, rate, n=20)
    K = 13  # the smallest K every case admits, so the flux out of state K matters
    for w in (np.eye(K + 1)[3], np.sin(np.arange(K + 1.0)) + 0.3):
        v = limit_field_variance(mean, kernel, rate, K, w)
        assert type(v) is float
        assert abs(v - _jacobian_variance(mean, kernel, rate, K, w)) <= 1e-12 * v


def test_limit_field_variance_matches_limit_field_monte_carlo(affine_rate):
    # frozen seeds; the sample variance of R Gaussian draws has SE sqrt(2/(R-1)) Var
    mean = _coarse_mean(TAB, affine_rate, n=100)
    K, R = 17, 1000
    paths = simulate_limit_field(mean, TAB, affine_rate, K, [derive_seed(61, r) for r in range(R)])
    for w in (np.eye(K + 1)[0], np.sin(np.arange(K + 1.0)) + 0.3):
        oracle = limit_field_variance(mean, TAB, affine_rate, K, w)
        sample = float(np.var([f.values[-1] @ w for f in paths], ddof=1))
        assert abs(sample - oracle) <= 3.0 * math.sqrt(2.0 / (R - 1)) * oracle


@pytest.mark.parametrize("n", [100, 1000])
def test_limit_field_variance_homogeneous_is_first_order(n, zero_kernel, const2_rate):
    # h = 0: the particles are independent, Var <X_T, 1_{0}> = e^{-m}(1 - e^{-m})
    # with m = 2, and the Euler ladder is off by about 0.19 dt
    mean = _coarse_mean(zero_kernel, const2_rate, n=n)
    p = math.exp(-2.0)
    v = limit_field_variance(mean, zero_kernel, const2_rate, 25, np.eye(26)[0])
    assert abs(v - p * (1.0 - p)) <= 0.25 * mean.grid.dt


def test_limit_field_variance_refuses_bad_weights_and_small_K(exp_kernel, affine_rate):
    mean = _coarse_mean(exp_kernel, affine_rate, n=20)
    for bad in (np.ones(30), np.ones((2, 31)), np.r_[np.ones(30), np.nan]):
        with pytest.raises(ValueError, match="weights"):
            limit_field_variance(mean, exp_kernel, affine_rate, 30, bad)
    with pytest.raises(TruncationError):
        limit_field_variance(mean, exp_kernel, affine_rate, 8, np.ones(9))
