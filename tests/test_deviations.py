import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkes_meanfield.model import Kernel, RateFn
from hawkes_meanfield.meanfield import TimeGrid, limit_law_path, solve_mean
from hawkes_meanfield.engine import simulate_hawkes
from hawkes_meanfield.fluct import FieldPath, centered_field
from hawkes_meanfield.cli import _probe_basis
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
    density = np.ones(mean.grid.n)
    eta = dev.MeanDeviationPath.from_values(mean.grid, np.concatenate([[0.0], np.cumsum(density) * mean.grid.dt]))
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
    for phi in _probe_basis(mean.grid, K):
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
        probes = list(_probe_basis(mean.grid, K)) + [dev.TestFunction.monomial(mean.grid, K, 2, 0)]
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
    for phi in _probe_basis(mean.grid, K):
        up = dev.upsilon(mu, phi, mean, kernel, rate)
        src = float(np.einsum("k,kx,kx->", dt * mean.lam[:n], (g * law)[:n], phi.grad[:n]))
        assert abs(up - src) <= 1e-6 * (1.0 + abs(src))


def test_rate_field_zero_measure(explin):
    kernel, rate, mean = explin
    mu = _zero_field(mean.grid)
    val, grad = dev.rate_field(mu, mean, kernel, rate)
    assert val == 0.0
    assert np.all(grad == 0.0)


def test_rate_field_identity_direction(homog):
    kernel, rate, mean = homog
    ell = dev.TestFunction.identity(mean.grid, K)
    mu = dev.linearized_from_test_function(ell, mean, kernel, rate)
    val, grad = dev.rate_field(mu, mean, kernel, rate)
    assert val == pytest.approx(1.0, abs=1e-3)
    law = limit_law_path(mean, K)[: mean.grid.n]
    reached = law[:, :K] > 0.0
    assert np.max(np.abs(grad[:, :K][reached] - 1.0)) <= 1e-12
    assert np.all(grad[:, :K][~reached] == 0.0) and np.all(grad[:, K] == 0.0)


def test_rate_field_bits_do_not_depend_on_the_step_block(explin, monkeypatch):
    kernel, rate, mean = explin
    g = np.random.default_rng(13).normal(size=(mean.grid.n + 1, K + 1))
    mu = dev.solve_linearized(g, mean, kernel, rate, K)
    whole, whole_grad = dev.rate_field(mu, mean, kernel, rate)
    monkeypatch.setattr(dev, "_BLOCK", 7)
    blocked, blocked_grad = dev.rate_field(mu, mean, kernel, rate)
    assert blocked.hex() == whole.hex() and blocked_grad.tobytes() == whole_grad.tobytes()


def test_rate_field_refuses_a_non_ladder_field(explin):
    kernel, rate, mean = explin
    rng = np.random.default_rng(11)
    v = np.zeros((mean.grid.n + 1, K + 1))
    v[1:] = 0.01 * rng.normal(size=(mean.grid.n, K + 1))
    mu = FieldPath(grid=mean.grid, K=K, values=v, mass_defect=np.zeros(mean.grid.n + 1))
    # the first step reaches states the limit law, a point mass at 0, does not
    with pytest.raises(ValueError, match="does not reach"):
        dev.rate_field(mu, mean, kernel, rate)
    v[0, 0] = 1.0
    with pytest.raises(ValueError, match="starts at zero"):
        dev.rate_field(mu, mean, kernel, rate)


def test_rate_field_refuses_an_empirical_field(explin):
    kernel, rate, mean = explin
    field = centered_field(simulate_hawkes(16, kernel, rate, 1.0, seed=17), mean, K)
    with pytest.raises(ValueError, match="empirical"):
        dev.rate_field(field, mean, kernel, rate)


def _potential(grad: np.ndarray, grid, K: int) -> dev.TestFunction:
    """The test function with phi(t, K) = 0 and the given gradient rows (the last row 0)."""
    values = np.zeros((grid.n + 1, K + 1))
    values[:-1] = -np.cumsum(grad[:, ::-1], axis=1)[:, ::-1]
    return dev.TestFunction.from_values(grid, K, values)


@pytest.mark.parametrize("source", ["random", "t_x2"])
def test_rate_field_closes_the_duality_gap(explin, source):
    # Upsilon_mu(phi*) - [phi*, phi*]/2 attains the supremum I(mu)
    kernel, rate, mean = explin
    shape = (mean.grid.n + 1, K + 1)
    g = np.random.default_rng(5).normal(size=shape) if source == "random" else dev.TestFunction.monomial(mean.grid, K, 1, 2).grad
    mu = dev.solve_linearized(g, mean, kernel, rate, K)
    forms = dev._Functionals(mean, K, mu, kernel, rate)
    val, grad = forms.rate()
    phi = _potential(grad, mean.grid, K)
    gap = forms.upsilon(phi) - 0.5 * forms.inner(phi, phi) - val
    assert abs(gap) <= 1e-12 * val


def test_contraction_consistency(homog):
    # scalar projection of mu^ell: closed-form rate equals the field rate
    kernel, rate, mean = homog
    ell = dev.TestFunction.identity(mean.grid, K)
    mu = dev.linearized_from_test_function(ell, mean, kernel, rate)
    eta = dev.MeanDeviationPath.from_values(
        mean.grid, mu.values @ np.arange(K + 1, dtype=float)
    )
    j_scalar = dev.rate_mean(eta, mean, kernel, rate)
    i_field, _ = dev.rate_field(mu, mean, kernel, rate)
    assert j_scalar == pytest.approx(i_field, rel=1e-12)


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

# SHA-256 of (values, mass_defect) bytes of solve_linearized on a default_rng(7) source;
# re-recorded when solve_mean and the ladder's excitation moved to the shared grid
# memory (values moved by <= 7.6e-16 of their largest magnitude; the tabulated
# ladder keeps every bit given the same mean, so its digests moved with the mean)
LINEARIZED_SHA256 = {
    "exp": (
        "7d003d91d6580f007e19f2d026ec78d38c7df9d5a476da961202ebcee62abd5c",
        "751e194b0f146d63718444cae645ea735bca97b8b080f6d4679abf71a93c86ec",
    ),
    "tab": (
        "21573b2f4b876a3576341562ae779e2129ffe92f50fed86c8d89e436c0c0bf37",
        "09134d95014a85503714c455da76dd1df668ac9e0a274324eab41fb8b65ce6cc",
    ),
}


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


def _left_excitation(kernel, grid, f):
    # H_k = h(0) f_k + dt sum_{j<k} h'(t_k - t_j) f_j for all k through one full
    # convolution, independent of the excitation memory under test
    hp = np.atleast_1d(kernel.deriv(grid.points))
    return kernel.eval(0.0) * f + grid.dt * (np.convolve(hp, f)[: grid.n + 1] - hp[0] * f)


def _upsilon_reference(mu, phi, mean, kernel, rate):
    n, dt = mu.grid.n, mu.grid.dt
    v = mu.values
    law = limit_law_path(mean, K=mu.K)
    term1 = float(v[n] @ phi.values[n])
    term2 = float(np.einsum("kx,kx->", v[1:], phi.values[1:] - phi.values[:-1])) if n else 0.0
    lam = mean.lam[:n]
    term3 = float(np.einsum("k,kx,kx->", dt * lam, v[:n], phi.grad[:n]))
    mproj = v @ np.arange(mu.K + 1, dtype=float)
    conv = _left_excitation(kernel, mu.grid, mproj)[:n]
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
        ups = forms.upsilon(f)
        assert dev.upsilon(mu, f, mean, kernel, rate) == ups
        # the reference sums the excitation in another order
        assert ups == pytest.approx(_upsilon_reference(mu, f, mean, kernel, rate), rel=1e-12)
        for g in fns:
            ip = _inner_reference(f, g, mean, SMALL_K)
            assert forms.inner(f, g) == ip
            assert dev.inner(f, g, mean, SMALL_K) == ip


def test_time_constant_test_functions_are_read_only_broadcast_rows(explin):
    _, _, mean = explin
    for f in (dev.TestFunction.identity(mean.grid, K), dev.TestFunction.indicator_geq(mean.grid, K, 3)):
        for table in (f.values, f.grad):
            assert table.shape == (mean.grid.n + 1, K + 1)
            assert table.strides[0] == 0
            assert not table.flags.writeable
        # the dense table the two constructors used to build
        dense = dev.TestFunction.from_values(mean.grid, K, np.tile(f.values[0], (mean.grid.n + 1, 1)))
        assert dense.values.tobytes() == np.ascontiguousarray(f.values).tobytes()
        assert dense.grad.tobytes() == np.ascontiguousarray(f.grad).tobytes()


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(SMALL_MEANS)), seed=st.integers(0, 2**32 - 1), x0=st.integers(0, SMALL_K))
def test_broadcast_test_functions_give_the_bits_of_dense_copies(kind, seed, x0):
    kernel, rate, mean = SMALL_MEANS[kind]
    rng = np.random.default_rng(seed)
    shape = (mean.grid.n + 1, SMALL_K + 1)
    mu = dev.solve_linearized(rng.normal(size=shape), mean, kernel, rate, SMALL_K)
    forms = dev._Functionals(mean, SMALL_K, mu, kernel, rate)
    g = dev.TestFunction.from_values(mean.grid, SMALL_K, rng.normal(size=shape))
    for f in (dev.TestFunction.identity(mean.grid, SMALL_K), dev.TestFunction.indicator_geq(mean.grid, SMALL_K, x0)):
        dense = dev.TestFunction.from_values(mean.grid, SMALL_K, np.tile(f.values[0], (mean.grid.n + 1, 1)))
        assert forms.upsilon(f) == forms.upsilon(dense)
        assert forms.inner(f, g) == forms.inner(dense, g)
        assert forms.inner(g, f) == forms.inner(g, dense)
        assert forms.inner(f, f) == forms.inner(dense, dense)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(SMALL_MEANS)), states=st.sampled_from([SMALL_K, 30]), seed=st.integers(0, 2**32 - 1))
def test_rate_field_reads_the_source_off_the_ladder(kind, states, seed):
    # for mu solved from source g: I(mu) = (1/2) sum_k dt lam_k sum_{x<K} Law_k g_k^2
    # and grad phi* = g wherever the law reaches, down to Poisson tails of 1e-80
    kernel, rate, mean = SMALL_MEANS[kind]
    n = mean.grid.n
    g = np.random.default_rng(seed).normal(size=(n + 1, states + 1))
    val, grad = dev.rate_field(dev.solve_linearized(g, mean, kernel, rate, states), mean, kernel, rate)
    law = limit_law_path(mean, states)[:n, :states]
    w = mean.grid.dt * mean.lam[:n]
    expected = 0.5 * float(np.einsum("k,kx,kx->", w, law, g[:n, :states] ** 2))
    assert abs(val - expected) <= 1e-12 * expected
    reached = law > 0.0
    assert np.max(np.abs(grad[:, :states][reached] - g[:n, :states][reached])) <= 1e-12
    assert np.all(grad[:, :states][~reached] == 0.0) and np.all(grad[:, states] == 0.0)


def test_from_values_copies_in_c_order(explin):
    # a Fortran-ordered table must give the bits of its C copy: the copy fixes
    # the einsum's summation order
    kernel, rate, mean = explin
    rng = np.random.default_rng(2)
    shape = (mean.grid.n + 1, K + 1)
    table = rng.normal(size=shape)
    mu = dev.solve_linearized(rng.normal(size=shape), mean, kernel, rate, K)
    forms = dev._Functionals(mean, K, mu, kernel, rate)
    f_order = dev.TestFunction.from_values(mean.grid, K, np.asfortranarray(table))
    c_order = dev.TestFunction.from_values(mean.grid, K, table)
    assert f_order.values.flags.c_contiguous and f_order.grad.flags.c_contiguous
    assert forms.upsilon(f_order) == forms.upsilon(c_order)
    assert forms.inner(f_order, f_order) == forms.inner(c_order, c_order)
