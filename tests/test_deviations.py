import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkes_meanfield.model import Kernel, RateFn
from hawkes_meanfield.meanfield import TimeGrid, limit_law_path, solve_mean
from hawkes_meanfield.fluct import FieldPath
from hawkes_meanfield import deviations as dev


K = 30


@pytest.fixture(scope="module")
def homog():
    kernel, rate = Kernel.zero(), RateFn.affine(2.0, 0.0)
    mean = solve_mean(kernel, rate, 1.0, 1.0 / 400)
    return kernel, rate, mean


@pytest.fixture(scope="module")
def explin():
    kernel, rate = Kernel.exponential(1.0, 2.0), RateFn.affine(1.0, 1.0)
    mean = solve_mean(kernel, rate, 1.0, 1.0 / 400)
    return kernel, rate, mean


def _zero_field(grid) -> FieldPath:
    v = np.zeros((grid.n + 1, K + 1))
    return FieldPath(grid=grid, K=K, values=v, mass_defect=np.zeros(grid.n + 1))


def test_test_function_grad_consistency(homog):
    _, _, mean = homog
    f = dev.TestFunction.monomial(mean.grid, K, 2, 2)
    assert np.allclose(f.grad[:, :-1], f.values[:, 1:] - f.values[:, :-1], atol=0)
    assert np.all(f.grad[:, K] == 0.0)
    assert f.boundary_zeroed


def test_rate_mean_zero_path(homog):
    kernel, rate, mean = homog
    eta = dev.MeanDeviationPath.from_values(mean.grid, np.zeros(mean.grid.n + 1))
    assert dev.rate_mean(eta, mean, kernel, rate) == 0.0


def test_rate_mean_linear_closed_form(homog):
    kernel, rate, mean = homog
    eta = dev.MeanDeviationPath.from_values(mean.grid, mean.grid.points)
    assert dev.rate_mean(eta, mean, kernel, rate) == pytest.approx(0.25, abs=1e-6)


def test_rate_mean_non_ac_is_infinite(homog):
    kernel, rate, mean = homog
    eta = dev.MeanDeviationPath.from_values(mean.grid, mean.grid.points, ac_flag=False)
    assert dev.rate_mean(eta, mean, kernel, rate) == math.inf


def test_rate_mean_quadratic_homogeneity(explin):
    kernel, rate, mean = explin
    base = np.sin(math.pi * mean.grid.points / 2.0) * mean.grid.points
    j1 = dev.rate_mean(dev.MeanDeviationPath.from_values(mean.grid, base), mean, kernel, rate)
    for c in (0.5, 2.0, 10.0):
        jc = dev.rate_mean(
            dev.MeanDeviationPath.from_values(mean.grid, c * base), mean, kernel, rate
        )
        assert abs(jc - c * c * j1) <= 1e-10 * max(1.0, c * c * j1)


def test_rate_mean_density_constructor(homog):
    kernel, rate, mean = homog
    eta = dev.MeanDeviationPath.from_density(mean.grid, np.ones(mean.grid.n))
    assert np.allclose(eta.eta, mean.grid.points, atol=1e-12)
    assert dev.rate_mean(eta, mean, kernel, rate) == pytest.approx(0.25, abs=1e-9)


def test_inner_constant_directions_vanish(homog):
    _, _, mean = homog
    c = dev.TestFunction.from_values(mean.grid, K, np.full((mean.grid.n + 1, K + 1), 3.0))
    ell = dev.TestFunction.identity(mean.grid, K)
    assert dev.inner(c, ell, mean, K) == 0.0


def test_inner_identity_values(homog, explin):
    _, _, mean0 = homog
    ell = dev.TestFunction.identity(mean0.grid, K)
    assert dev.inner(ell, ell, mean0, K) == pytest.approx(2.0, abs=1e-9)
    kernel, rate, meane = explin
    elle = dev.TestFunction.identity(meane.grid, K)
    assert dev.inner(elle, elle, meane, K) == pytest.approx(meane.m_final, abs=1e-3)


def test_inner_symmetric_bilinear(explin):
    _, _, mean = explin
    f = dev.TestFunction.monomial(mean.grid, K, 1, 1)
    g = dev.TestFunction.indicator_geq(mean.grid, K, 2)
    h = dev.TestFunction.identity(mean.grid, K)
    assert dev.inner(f, g, mean, K) == dev.inner(g, f, mean, K)
    lhs = dev.inner(
        dev.TestFunction.from_values(mean.grid, K, 2.0 * f.values + 3.0 * h.values),
        g, mean, K,
    )
    rhs = 2.0 * dev.inner(f, g, mean, K) + 3.0 * dev.inner(h, g, mean, K)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_upsilon_zero_field(explin):
    kernel, rate, mean = explin
    mu = _zero_field(mean.grid)
    for phi in dev.default_basis(mean.grid, K, indicators=2):
        assert dev.upsilon(mu, phi, mean, kernel, rate) == 0.0


def test_upsilon_identity_special_case(homog):
    # h = 0 and a mass-zero field: only the terminal pairing survives for ell
    kernel, rate, mean = homog
    n = mean.grid.n
    v = np.zeros((n + 1, K + 1))
    profile = np.sin(np.linspace(0.0, 2.0, n + 1))
    v[:, 1] = profile
    v[:, 3] = -profile  # total mass zero at every time
    mu = FieldPath(grid=mean.grid, K=K, values=v, mass_defect=np.zeros(n + 1))
    ell = dev.TestFunction.identity(mean.grid, K)
    got = dev.upsilon(mu, ell, mean, kernel, rate)
    expected = float(v[-1] @ np.arange(K + 1))
    assert got == pytest.approx(expected, abs=1e-12)


def test_duality_residuals(homog, explin):
    for kernel, rate, mean in (homog, explin):
        probes = dev.default_basis(mean.grid, K, indicators=5, monomials=((1, 1), (0, 2), (2, 1), (2, 0)))
        for psi in (
            dev.TestFunction.identity(mean.grid, K),
            dev.TestFunction.indicator_geq(mean.grid, K, 1),
            dev.TestFunction.monomial(mean.grid, K, 1, 1),
        ):
            mu = dev.linearized_from_test_function(psi, mean, kernel, rate)
            for phi in probes:
                ip = dev.inner(psi, phi, mean, K)
                up = dev.upsilon(mu, phi, mean, kernel, rate)
                assert abs(up - ip) <= 1e-6 * (1.0 + abs(ip))


def test_solve_linearized_zero_source(explin):
    kernel, rate, mean = explin
    mu = dev.solve_linearized(np.zeros((mean.grid.n + 1, K + 1)), mean, kernel, rate, K)
    assert np.all(mu.values == 0.0)


def test_solve_linearized_unit_source_projection(homog):
    kernel, rate, mean = homog
    mu = dev.solve_linearized(np.ones((mean.grid.n + 1, K + 1)), mean, kernel, rate, K)
    proj = float(mu.values[-1] @ np.arange(K + 1))
    assert proj == pytest.approx(2.0, abs=1e-3)


def test_solve_linearized_weak_residual(explin):
    kernel, rate, mean = explin
    rng = np.random.default_rng(7)
    g = rng.normal(size=(mean.grid.n + 1, K + 1))
    mu = dev.solve_linearized(g, mean, kernel, rate, K)
    law = None
    from hawkes_meanfield.meanfield import limit_law_path

    law = limit_law_path(mean, K)
    n, dt = mean.grid.n, mean.grid.dt
    for phi in dev.default_basis(mean.grid, K, indicators=3):
        up = dev.upsilon(mu, phi, mean, kernel, rate)
        src = float(np.einsum("k,kx,kx->", dt * mean.lam[:n], (g * law)[:n], phi.grad[:n]))
        assert abs(up - src) <= 1e-6 * (1.0 + abs(src))


def test_rate_field_zero_measure(explin):
    kernel, rate, mean = explin
    mu = _zero_field(mean.grid)
    val, coef = dev.rate_field(mu, dev.default_basis(mean.grid, K), mean, kernel, rate)
    assert val == 0.0


def test_rate_field_identity_direction(homog):
    kernel, rate, mean = homog
    ell = dev.TestFunction.identity(mean.grid, K)
    mu = dev.linearized_from_test_function(ell, mean, kernel, rate)
    val, coef = dev.rate_field(mu, [ell], mean, kernel, rate)
    assert val == pytest.approx(1.0, abs=1e-3)
    assert coef[0] == pytest.approx(1.0, abs=1e-6)


def test_rate_field_monotone_in_basis(explin):
    kernel, rate, mean = explin
    psi = dev.TestFunction.monomial(mean.grid, K, 1, 1)
    mu = dev.linearized_from_test_function(psi, mean, kernel, rate)
    small = [dev.TestFunction.identity(mean.grid, K)]
    large = small + [psi, dev.TestFunction.indicator_geq(mean.grid, K, 1)]
    v_small, _ = dev.rate_field(mu, small, mean, kernel, rate)
    v_large, _ = dev.rate_field(mu, large, mean, kernel, rate)
    assert v_small <= v_large + 1e-10


def test_rate_field_nonnegative(explin):
    kernel, rate, mean = explin
    rng = np.random.default_rng(11)
    v = np.zeros((mean.grid.n + 1, K + 1))
    v[1:] = 0.01 * rng.normal(size=(mean.grid.n, K + 1))
    mu = FieldPath(grid=mean.grid, K=K, values=v, mass_defect=np.zeros(mean.grid.n + 1))
    val, _ = dev.rate_field(mu, dev.default_basis(mean.grid, K), mean, kernel, rate)
    assert val >= 0.0


def test_contraction_consistency(homog):
    # scalar projection of mu^ell: closed-form rate equals the field rate
    kernel, rate, mean = homog
    ell = dev.TestFunction.identity(mean.grid, K)
    mu = dev.linearized_from_test_function(ell, mean, kernel, rate)
    eta = dev.MeanDeviationPath.from_values(
        mean.grid, mu.values @ np.arange(K + 1, dtype=float)
    )
    j_scalar = dev.rate_mean(eta, mean, kernel, rate)
    i_field, _ = dev.rate_field(mu, [ell], mean, kernel, rate)
    assert j_scalar == pytest.approx(i_field, rel=0.01)


def test_mismatched_grids_rejected(homog):
    kernel, rate, mean = homog
    other = TimeGrid.from_T_dt(1.0, 1.0 / 200)
    mu = _zero_field(other)
    phi = dev.TestFunction.identity(mean.grid, K)
    with pytest.raises(ValueError):
        dev.upsilon(mu, phi, mean, kernel, rate)
    with pytest.raises(ValueError):
        dev.inner(phi, dev.TestFunction.identity(other, K), mean, K)


# --- pinned values: recorded before the functionals shared their law and convolution -

TAB_KERNEL = Kernel.tabulated((0.0, 0.25, 0.5, 1.0), (1.0, 0.7, 0.4, 0.0))

RATE_FIELD_HEX = "0x1.a35d3272ecbdfp+1"
RATE_FIELD_COEF_HEX = [
    "-0x1.3a6f60e4a8468p+1",
    "0x1.88a5129c44d9cp+0",
    "0x1.704929d5ef76fp-1",
    "0x1.54524e2eed0d0p-2",
    "0x1.1ab1466cec8fbp-3",
    "0x1.5684266621e03p-5",
    "-0x1.0b9f0874cdc28p-1",
    "0x1.ea7c3804de73cp-1",
    "0x1.2fd6d0bde5a83p+1",
]

# SHA-256 of (values, mass_defect) bytes of solve_linearized on a default_rng(7) source
LINEARIZED_SHA256 = {
    "exp": (
        "9859cba0db6bbbc436b1f31d9403831eeaa849dde7ebba247341aaee4aa91938",
        "4d0f2308a1f9403bd3de7de0d97c7fbc9adae8012371a1ef160219362ab2391f",
    ),
    "tab": (
        "ccfd9d1fded8c91a942901b8f793e1266afad2c0faf7f253e5346dd4ecd8d0ae",
        "a47d7c715600fa5a5db974909df8b1aaa0ae560a530b62bf9acd746745a61b36",
    ),
}


def test_rate_field_golden_bits(explin):
    # t x^2 lies outside the default span, so every coefficient is exercised
    kernel, rate, mean = explin
    psi = dev.TestFunction.monomial(mean.grid, K, 1, 2)
    mu = dev.linearized_from_test_function(psi, mean, kernel, rate)
    val, coef = dev.rate_field(mu, dev.default_basis(mean.grid, K), mean, kernel, rate)
    assert val.hex() == RATE_FIELD_HEX
    assert [float(c).hex() for c in coef] == RATE_FIELD_COEF_HEX


@pytest.mark.parametrize("kind", ["exp", "tab"])
def test_solve_linearized_golden_bytes(kind):
    kernel = Kernel.exponential(1.0, 2.0) if kind == "exp" else TAB_KERNEL
    rate = RateFn.affine(1.0, 1.0)
    mean = solve_mean(kernel, rate, 1.0, 1.0 / 400)
    g = np.random.default_rng(7).normal(size=(mean.grid.n + 1, K + 1))
    mu = dev.solve_linearized(g, mean, kernel, rate, K)
    got = (
        hashlib.sha256(mu.values.tobytes()).hexdigest(),
        hashlib.sha256(mu.mass_defect.tobytes()).hexdigest(),
    )
    assert got == LINEARIZED_SHA256[kind]


def test_solve_linearized_divergence_names_the_step(explin):
    kernel, rate, mean = explin
    g = np.zeros((mean.grid.n + 1, K + 1))
    # finite, but lam_5 (> 1) times its ladder difference overflows
    g[5] = np.finfo(float).max * (-1.0) ** np.arange(K + 1)
    with pytest.raises(FloatingPointError, match="at step 5$"):
        with np.errstate(over="ignore", invalid="ignore"):
            dev.solve_linearized(g, mean, kernel, rate, K)


# --- shared functionals against the per-call evaluation they replace ----------------

def _inner_reference(f, g, mean, K):
    n, dt = mean.grid.n, mean.grid.dt
    law = limit_law_path(mean, K)
    w = dt * mean.lam[:n]
    return float(np.einsum("k,kx,kx,kx->", w, law[:n], f.grad[:n], g.grad[:n]))


def _upsilon_reference(mu, phi, mean, kernel, rate):
    n, dt = mu.grid.n, mu.grid.dt
    v = mu.values
    law = limit_law_path(mean, K=mu.K)
    term1 = float(v[n] @ phi.values[n])
    term2 = float(np.einsum("kx,kx->", v[1:], phi.values[1:] - phi.values[:-1])) if n else 0.0
    lam = mean.lam[:n]
    term3 = float(np.einsum("k,kx,kx->", dt * lam, v[:n], phi.grad[:n]))
    mproj = v @ np.arange(mu.K + 1, dtype=float)
    conv = dev._excitation_left(kernel, mu.grid, mproj)[:n]
    phid = np.atleast_1d(rate.deriv(mean.excitation))[:n]
    term4 = float(np.einsum("k,kx,kx->", dt * phid * conv, law[:n], phi.grad[:n]))
    return term1 - term2 - term3 - term4


SMALL_K = 8
SMALL_RATE = RateFn.affine(1.0, 0.7)  # phi' = 0.7, so no product with it is exact by luck
SMALL_MEANS = {
    kind: (kernel, SMALL_RATE, solve_mean(kernel, SMALL_RATE, 1.0, 1.0 / 40))
    for kind, kernel in (("exp", Kernel.exponential(1.0, 2.0)), ("tab", TAB_KERNEL))
}


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(SMALL_MEANS)),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 5),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_shared_functionals_match_per_call_evaluation(kind, seed, count, scale):
    kernel, rate, mean = SMALL_MEANS[kind]
    rng = np.random.default_rng(seed)
    shape = (mean.grid.n + 1, SMALL_K + 1)
    fns = [dev.TestFunction.from_values(mean.grid, SMALL_K, scale * rng.normal(size=shape)) for _ in range(count)]
    mu = dev.solve_linearized(rng.normal(size=shape), mean, kernel, rate, SMALL_K)
    forms = dev._Functionals(mean, SMALL_K, mu, kernel, rate)
    for f in fns:
        ups = _upsilon_reference(mu, f, mean, kernel, rate)
        assert forms.upsilon(f) == ups
        assert dev.upsilon(mu, f, mean, kernel, rate) == ups
        for g in fns:
            ip = _inner_reference(f, g, mean, SMALL_K)
            assert forms.inner(f, g) == ip
            assert dev.inner(f, g, mean, SMALL_K) == ip
