import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkes_meanfield.model import (
    Kernel,
    RateFn,
    ValidationError,
    kernel_from_dict,
    kernel_norms,
    kernel_to_dict,
    rate_from_dict,
    rate_to_dict,
    validate_assumptions,
)


def test_norms_zero_kernel():
    assert kernel_norms(Kernel.zero(), 1.0) == (0.0, 0.0)


def test_norms_exponential_closed_form():
    sup, l1 = kernel_norms(Kernel.exponential(1.0, 2.0), 1.0)
    assert sup == 1.0
    assert l1 == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, abs=1e-15)
    # independent quadrature oracle on a fine grid
    ts = np.linspace(0, 1, 20001)
    assert l1 == pytest.approx(np.trapezoid(np.exp(-2.0 * ts), ts), abs=1e-8)


def test_norms_constant_rectangle():
    assert kernel_norms(Kernel.constant(0.3), 2.0) == (0.3, pytest.approx(0.6))


def test_norms_monotone_in_T():
    k = Kernel.exponential(1.3, 0.7)
    l1s = [kernel_norms(k, T)[1] for T in (0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b + 1e-15 for a, b in zip(l1s, l1s[1:]))


def test_norms_tabulated_matches_quadrature():
    grid = np.linspace(0, 2, 21)
    vals = 1.0 / (1.0 + grid)
    k = Kernel.tabulated(grid, vals)
    sup, l1 = kernel_norms(k, 2.0)
    assert sup == pytest.approx(1.0)
    assert l1 == pytest.approx(np.trapezoid(vals, grid), rel=1e-6)


# a narrow spike that would fall between the points of a T/1000 grid (T = 20)
SPIKE = Kernel.tabulated([0.0, 0.005, 0.015, 20.0], [0.0, 90.0, 0.0, 0.0])


def test_norms_tabulated_spike_between_probe_points():
    sup, l1 = kernel_norms(SPIKE, 20.0)
    assert sup == 90.0
    assert l1 == pytest.approx(0.675, rel=1e-12)
    rep = validate_assumptions(SPIKE, RateFn.affine(1.0, 1.0), 20.0)
    assert rep.passed and rep.stability_margin == pytest.approx(0.325, rel=1e-12)


def test_validate_negative_dip_between_probe_points():
    # h dips to -5 between the points of a T/1000 grid (T = 20)
    dip = Kernel.tabulated([0.0, 0.005, 0.015, 20.0], [0.5, -5.0, 0.5, 0.5])
    rep = validate_assumptions(dip, RateFn.affine(1.0, 0.05), 20.0)
    assert rep.stability_margin > 0.0
    assert not rep.passed
    assert any("negative" in w for w in rep.warnings)


@pytest.mark.parametrize("T, want", [(0.5, (1.0, 0.25)), (2.0, (1.0, 1.0)), (3.0, (1.0, 2.0)), (1.5, (1.0, 0.75))])
def test_norms_tabulated_sign_changes_and_tail(T, want):
    # |h| is two triangles per segment where h changes sign, and h = 1 past t = 2
    k = Kernel.tabulated([0.0, 1.0, 2.0], [1.0, -1.0, 1.0])
    sup, l1 = kernel_norms(k, T)
    assert sup == want[0]
    assert l1 == pytest.approx(want[1], rel=1e-12)
    ts = np.linspace(0.0, T, 300001)
    assert l1 == pytest.approx(np.trapezoid(np.abs(k.eval(ts)), ts), abs=1e-8)


def test_exponential_derivative_consistency():
    k = Kernel.exponential(0.8, 1.5)
    ts = np.linspace(0.01, 2.0, 50)
    eps = 1e-6
    fd = (k.eval(ts + eps) - k.eval(ts - eps)) / (2 * eps)
    assert np.max(np.abs(fd - k.deriv(ts)) / np.abs(k.deriv(ts))) < 1e-6


def test_tabulated_kernel_interpolates_linearly():
    k = Kernel.tabulated([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])
    assert k.eval(0.5) == pytest.approx(1.0)
    assert k.deriv(0.5) == pytest.approx(2.0)
    assert k.deriv(1.5) == pytest.approx(0.0)
    assert k.eval(3.0) == pytest.approx(2.0)  # flat beyond the last node


def test_kernel_validation_errors():
    with pytest.raises(ValidationError):
        Kernel.exponential(1.0, -1.0)
    with pytest.raises(ValidationError):
        Kernel.constant(-0.1)
    with pytest.raises(ValidationError):
        Kernel.tabulated([0.0, 1.0], [1.0, float("nan")])
    with pytest.raises(ValidationError):
        kernel_norms(Kernel.zero(), 0.0)


def test_validate_zero_kernel_always_passes():
    for rate in (RateFn.affine(1, 1), RateFn.affine(2, 0), RateFn.affine(0.5, 3.0)):
        rep = validate_assumptions(Kernel.zero(), rate, 1.0)
        assert rep.passed and rep.stability_margin == 1.0


def test_validate_explin_margin():
    rep = validate_assumptions(Kernel.exponential(1, 2), RateFn.affine(1, 1), 1.0)
    assert rep.passed
    assert rep.stability_margin == pytest.approx(1.0 - (1.0 - math.exp(-2.0)) / 2.0, abs=1e-12)


def test_validate_unstable_model_reports_not_raises():
    rep = validate_assumptions(Kernel.constant(1.0), RateFn.affine(1, 1), 2.0)
    assert not rep.passed
    assert rep.stability_margin == pytest.approx(-1.0)
    assert any("margin" in w for w in rep.warnings)


def test_affine_rate_declares_slope_as_lipschitz():
    r = RateFn.affine(1.0, 2.5)
    assert r.lipschitz == 2.5
    rep = validate_assumptions(Kernel.zero(), r, 1.0)
    assert not any("Lipschitz" in w for w in rep.warnings)


def test_nonfinite_rate_raises():
    # phi overflows at x = 10, the end of [0, 10 ||h||_sup]
    r = RateFn.affine(1.0, 1e308)
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="rate value is not finite"):
        validate_assumptions(Kernel.constant(1.0), r, 1.0)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=200, deadline=None)
@given(
    a=_log_uniform(1e-3, 1e3),
    b=_log_uniform(1e-8, 1e8),
    base=_log_uniform(1e-3, 1e12),
    slope=st.floats(0.0, 1e3),
    T=_log_uniform(1e-3, 1e3),
)
def test_validate_exp_affine_fails_only_on_the_margin(a, b, base, slope, T):
    # every exp kernel with an affine rate meets the assumptions other than the margin
    rep = validate_assumptions(Kernel.exponential(a, b), RateFn.affine(base, slope), T)
    assert rep.passed == (rep.stability_margin > 0.0)
    assert all("margin" in w for w in rep.warnings)


# valid models, each with a positive margin, that probe grids and finite
# differences of the closed forms used to refuse by rounding alone
PASSING_MODELS = {
    "exp-b=1e-5": (Kernel.exponential(1.0, 1e-5), RateFn.affine(1.0, 0.5)),
    "exp-b=3e-5": (Kernel.exponential(1.0, 3e-5), RateFn.affine(1.0, 0.5)),
    "exp-b=3e3": (Kernel.exponential(1.0, 3e3), RateFn.affine(1.0, 0.5)),
    "exp-b=1e4": (Kernel.exponential(1.0, 1e4), RateFn.affine(1.0, 0.5)),
    "affine-base=1e8": (Kernel.exponential(1.0, 2.0), RateFn.affine(1e8, 1e-3)),
    "affine-base=1e12": (Kernel.exponential(1.0, 2.0), RateFn.affine(1e12, 0.5)),
    "tabulated-rate-at-1e9": (
        Kernel.exponential(1.0, 2.0),
        RateFn.tabulated([0.0, 0.37, 1.1, 3.0], [1e9, 1e9 + 0.3, 1e9 + 0.9, 1e9 + 1.0]),
    ),
}


@pytest.mark.parametrize("name", sorted(PASSING_MODELS))
def test_validate_accepts_models_with_a_positive_margin(name):
    kernel, rate = PASSING_MODELS[name]
    rep = validate_assumptions(kernel, rate, 1.0)
    assert rep.stability_margin > 0.0
    assert rep.passed and rep.warnings == ()


def test_bare_rate_under_declaring_its_lipschitz_constant_is_reported():
    rate = RateFn("affine", base=1.0, slope=2.0, lipschitz=1.0)
    rep = validate_assumptions(Kernel.exponential(1.0, 2.0), rate, 1.0)
    assert rep.stability_margin > 0.0 and not rep.passed
    assert any("Lipschitz" in w for w in rep.warnings)


def test_bare_rate_that_turns_negative_is_reported():
    # phi(x) = 1 - x is positive at 0 and -9 at the end of [0, 10 ||h||_sup]
    rate = RateFn("affine", base=1.0, slope=-1.0, lipschitz=1.0)
    rep = validate_assumptions(Kernel.exponential(1.0, 2.0), rate, 1.0)
    assert not rep.passed
    assert any("strictly positive" in w for w in rep.warnings)


@pytest.mark.parametrize(
    "model, match",
    [
        (lambda: (Kernel.exponential(1e200, 1e200), RateFn.affine(1.0, 1e-300)), "kernel derivative is not finite at t=0.0"),
        (lambda: (Kernel.tabulated([0.0, 1e-300, 1.0], [0.0, 1e300, 0.0]), RateFn.affine(1.0, 1e-300)),
         "kernel derivative is not finite at t=0.0"),
        (lambda: (Kernel.zero(), RateFn.tabulated([0.0, 1e-300, 1.0], [1.0, 1e300, 1.0])),
         "rate derivative is not finite at x=0.0"),
    ],
    ids=["exp", "tabulated-kernel", "tabulated-rate"],
)
def test_validate_raises_on_an_infinite_slope(model, match):
    with np.errstate(over="ignore", invalid="ignore"):
        kernel, rate = model()
        with pytest.raises(ValidationError, match=match):
            validate_assumptions(kernel, rate, 1.0)


def test_descriptor_round_trip():
    for k in (Kernel.exponential(1.5, 0.3), Kernel.constant(0.2), Kernel.zero(),
              Kernel.tabulated([0.0, 1.0], [0.5, 0.1])):
        k2 = kernel_from_dict(kernel_to_dict(k))
        assert k2.kind == k.kind
        assert np.allclose(k2.eval(np.linspace(0, 1, 7)), k.eval(np.linspace(0, 1, 7)))
    for r in (RateFn.affine(1.0, 2.0), RateFn.tabulated([0.0, 1.0, 2.0], [1.0, 2.0, 2.5])):
        r2 = rate_from_dict(rate_to_dict(r))
        assert r2.kind == r.kind
        assert np.allclose(r2.eval(np.linspace(0, 3, 7)), r.eval(np.linspace(0, 3, 7)))


@pytest.mark.parametrize(
    "parse, spec, name",
    [
        (kernel_from_dict, {"type": "exponential", "a": 1.0}, "'b'"),
        (kernel_from_dict, {"type": "exponential", "a": "1", "b": 2.0}, "'a'"),
        (kernel_from_dict, {"type": "exponential", "a": 1.0, "b": None}, "'b'"),
        (kernel_from_dict, {"type": "exponential", "a": True, "b": 2.0}, "'a'"),
        (kernel_from_dict, {"type": "exponential", "a": 10**400, "b": 2.0}, "'a'"),
        (kernel_from_dict, {"type": "constant"}, "'c'"),
        (kernel_from_dict, {"type": "constant", "c": [0.5]}, "'c'"),
        (kernel_from_dict, {"type": "tabulated", "grid": [0.0, 1.0]}, "'values'"),
        (kernel_from_dict, {"type": "tabulated", "grid": [0.0, "1"], "values": [1.0, 0.0]}, "'grid'"),
        (kernel_from_dict, {"type": "tabulated", "grid": 1.0, "values": [1.0, 0.0]}, "'grid'"),
        (rate_from_dict, {"type": "affine", "base": 1.0}, "'slope'"),
        (rate_from_dict, {"type": "affine", "base": {}, "slope": 1.0}, "'base'"),
        (rate_from_dict, {"type": "tabulated", "values": [1.0, 2.0]}, "'grid'"),
        (rate_from_dict, {"type": "tabulated", "grid": [0.0, 1.0], "values": [1.0, None]}, "'values'"),
    ],
)
def test_descriptor_field_errors_name_the_field(parse, spec, name):
    with pytest.raises(ValidationError, match=name):
        parse(spec)


def test_unknown_descriptor_rejected():
    with pytest.raises(ValidationError):
        kernel_from_dict({"type": "powerlaw", "a": 1.0})
    with pytest.raises(ValidationError):
        rate_from_dict({"type": "sigmoid"})
