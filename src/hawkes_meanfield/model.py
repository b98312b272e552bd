"""Exciting kernels, rate functions, and standing-assumption validation.

A model is a pair ``(Kernel, RateFn)``: the kernel ``h`` weights the influence
of a past jump at lag ``t - s``, the rate function ``phi`` maps accumulated
excitation to a jump intensity.  Every downstream computation (particle
simulation, limit equations, rate functionals) consumes these two objects, so
they are validated once up front: ``h`` nonnegative and differentiable with
locally bounded derivative, ``phi`` positive and Lipschitz, and the stability
product ``alpha * ||h||_L1[0,T] < 1`` that keeps the system subcritical.
Every kernel and rate is a closed form or linear between knots, so each of
these is decided exactly from the parameters, at the knots and the ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Kernel",
    "RateFn",
    "AssumptionReport",
    "ValidationError",
    "kernel_norms",
    "validate_assumptions",
    "kernel_from_dict",
    "kernel_to_dict",
    "rate_from_dict",
    "rate_to_dict",
]

class ValidationError(ValueError):
    """A model produced a non-finite or ill-typed value."""


def _table(grid, values, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only copies of a piecewise-linear table: >= 2 knots from 0 up, finite values."""
    g = np.asarray(grid, dtype=float)
    v = np.asarray(values, dtype=float)
    if g.ndim != 1 or g.shape != v.shape or g.size < 2:
        raise ValidationError(f"tabulated {what} needs matching 1-d grid/values, >= 2 nodes")
    if g[0] != 0.0 or np.any(np.diff(g) <= 0):
        raise ValidationError(f"tabulated {what} grid must start at 0 and increase")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"tabulated {what} values must be finite")
    g = g.copy(); v = v.copy()
    g.flags.writeable = False
    v.flags.writeable = False
    return g, v


def _slope(grid: np.ndarray, values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Slope at t of the interpolant through (grid, values): right-continuous at
    the knots, 0 from the last knot on."""
    slopes = np.diff(values) / np.diff(grid)
    idx = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, slopes.size - 1)
    return np.where(t >= grid[-1], 0.0, slopes[idx])


@dataclass(frozen=True)
class Kernel:
    """Exciting function h: [0, inf) -> [0, inf) with derivative access.

    Construct through the classmethods; ``kind`` selects closed forms where
    they exist (norms, decay caches) and generic paths otherwise.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    grid: np.ndarray | None = field(default=None, repr=False)
    values: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def exponential(cls, a: float, b: float) -> "Kernel":
        """h(t) = a * exp(-b t) with amplitude a >= 0 and decay b > 0."""
        if not (a >= 0.0 and math.isfinite(a)):
            raise ValidationError(f"exponential kernel amplitude must be >= 0, got {a}")
        if not (b > 0.0 and math.isfinite(b)):
            raise ValidationError(f"exponential kernel decay must be > 0, got {b}")
        return cls("exponential", a=float(a), b=float(b))

    @classmethod
    def constant(cls, c: float) -> "Kernel":
        if not (c >= 0.0 and math.isfinite(c)):
            raise ValidationError(f"constant kernel level must be >= 0, got {c}")
        return cls("constant", a=float(c))

    @classmethod
    def zero(cls) -> "Kernel":
        return cls("zero")

    @classmethod
    def tabulated(cls, grid, values) -> "Kernel":
        """Piecewise-linear kernel through (grid, values); flat past the last node.

        The derivative is the slope of the interpolant (right-continuous at
        nodes), which keeps the integration-by-parts convolution well defined.
        """
        g, v = _table(grid, values, "kernel")
        return cls("tabulated", grid=g, values=v)

    def eval(self, t):
        """h(t); accepts scalars or arrays, t >= 0."""
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(t)
        elif self.kind == "constant":
            out = np.full_like(t, self.a)
        elif self.kind == "exponential":
            out = self.a * np.exp(-self.b * t)
        else:
            out = np.interp(t, self.grid, self.values)
        return float(out) if out.ndim == 0 else out

    def deriv(self, t):
        """h'(t); for tabulated kernels, the interpolant's segment slope."""
        t = np.asarray(t, dtype=float)
        if self.kind in ("zero", "constant"):
            out = np.zeros_like(t)
        elif self.kind == "exponential":
            out = -self.a * self.b * np.exp(-self.b * t)
        else:
            out = _slope(self.grid, self.values, t)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RateFn:
    """Jump-rate function phi: [0, inf) -> (0, inf), Lipschitz with constant alpha."""

    kind: str
    base: float = 0.0
    slope: float = 0.0
    lipschitz: float = 0.0
    grid: np.ndarray | None = field(default=None, repr=False)
    values: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def affine(cls, base: float, slope: float) -> "RateFn":
        """phi(x) = base + slope * x; declared Lipschitz constant equals the slope."""
        if not (base > 0.0 and math.isfinite(base)):
            raise ValidationError(f"affine rate base must be > 0, got {base}")
        if not (slope >= 0.0 and math.isfinite(slope)):
            raise ValidationError(f"affine rate slope must be >= 0, got {slope}")
        return cls("affine", base=float(base), slope=float(slope), lipschitz=float(slope))

    @classmethod
    def tabulated(cls, grid, values) -> "RateFn":
        """Piecewise-linear rate through (grid, values), flat extrapolation.

        Lipschitz constant is the largest absolute segment slope.
        """
        g, v = _table(grid, values, "rate")
        if np.any(v <= 0.0):
            raise ValidationError("tabulated rate values must be > 0")
        return cls("tabulated", lipschitz=float(np.max(np.abs(_slope(g, v, g)))), grid=g, values=v)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "affine":
            out = self.base + self.slope * x
        else:
            out = np.interp(x, self.grid, self.values)
        return float(out) if out.ndim == 0 else out

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "affine":
            out = np.full_like(x, self.slope)
        else:
            out = _slope(self.grid, self.values, x)
        return float(out) if out.ndim == 0 else out


def _scalar_rate(rate: RateFn) -> Callable[[float], float]:
    """phi as a closure of one float, for loops that call it once a step.

    It gives the bits of ``rate.eval`` without the 0-d array round trip.
    """
    if rate.kind == "affine":
        base, slope = rate.base, rate.slope
        return lambda x: base + slope * x
    grid, values = rate.grid, rate.values
    return lambda x: float(np.interp(x, grid, values))


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the standing-assumption probe for one (kernel, rate) pair.

    ``passed`` is False rather than raising: a failing model still defines a
    simulable system, but limit-theorem checks refuse to consume it because
    the stability margin underpins every limit statement.
    """

    l1_norm: float
    sup_norm: float
    stability_margin: float
    passed: bool
    warnings: tuple[str, ...]


def _kinks(f: Kernel | RateFn) -> np.ndarray:
    """Where f' may jump: a table's knots, or 0 for a closed form.

    Between kinks f is linear, or an exponential or affine function of
    constant sign and slope, so f' takes its largest |value| at a kink.
    """
    return f.grid if f.kind == "tabulated" else np.zeros(1)


def _knots(f: Kernel | RateFn, upper: float) -> np.ndarray:
    """f's kinks below ``upper``, then ``upper``: the values of f there bound it on [0, upper]."""
    ks = _kinks(f)
    return np.append(ks[ks < upper], upper)


def _require_finite(values: np.ndarray, points: np.ndarray, what: str, var: str) -> None:
    """Raise ValidationError naming the first point where ``what`` is not finite."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise ValidationError(f"{what} is not finite at {var}={float(points[np.argmax(bad)])}")


def kernel_norms(kernel: Kernel, T: float) -> tuple[float, float]:
    """Sup norm and L1 norm of the kernel on [0, T], in closed form.

    A tabulated kernel is linear between its knots and constant past the last
    one, so on the knots clipped to [0, T] its sup norm is the largest |value|
    and its L1 norm sums one exact integral of |linear| per segment.
    """
    if not T > 0:
        raise ValidationError(f"kernel_norms needs T > 0, got {T}")
    if kernel.kind == "zero":
        return 0.0, 0.0
    if kernel.kind == "constant":
        return kernel.a, kernel.a * T
    if kernel.kind == "exponential":
        return kernel.a, (kernel.a / kernel.b) * (1.0 - math.exp(-kernel.b * T))
    ts = _knots(kernel, T)
    vals = kernel.eval(ts)
    lo, hi = np.abs(vals[:-1]), np.abs(vals[1:])
    mean_abs = 0.5 * (lo + hi)
    # a segment whose ends differ in sign holds two triangles around its root
    cross = vals[:-1] * vals[1:] < 0.0
    mean_abs[cross] = 0.5 * (lo[cross] ** 2 + hi[cross] ** 2) / (lo[cross] + hi[cross])
    return float(np.max(np.abs(vals))), float(np.sum(np.diff(ts) * mean_abs))


def validate_assumptions(kernel: Kernel, rate: RateFn, T: float) -> AssumptionReport:
    """Decide the standing assumptions exactly and report the stability margin.

    h and h' must be finite on [0, T], phi finite on [0, xmax] and phi'
    finite, with xmax = max(1, 10 ||h||_sup) the excitation the dynamics
    reach early on; otherwise ValidationError.  The report fails, with a
    warning each, when h < 0 somewhere on [0, T], phi <= 0 somewhere on
    [0, xmax], |phi'| exceeds the declared Lipschitz constant alpha, or the
    margin 1 - alpha ||h||_L1[0,T] of ``kernel_norms`` is not positive.
    h and phi are closed forms or linear between knots, so every extreme
    sits at a point of ``_knots`` or ``_kinks`` and each test is exact.
    """
    if not T > 0:
        raise ValidationError(f"validate_assumptions needs T > 0, got {T}")
    warnings: list[str] = []

    sup_norm, l1_norm = kernel_norms(kernel, T)
    ts = _knots(kernel, T)
    hv = kernel.eval(ts)
    _require_finite(hv, ts, "kernel value", "t")
    _require_finite(kernel.deriv(ts), ts, "kernel derivative", "t")
    if np.any(hv < 0.0):
        warnings.append("kernel takes negative values on [0, T]")

    xmax = max(1.0, 10.0 * sup_norm)
    xs = _knots(rate, xmax)
    pv = rate.eval(xs)
    _require_finite(pv, xs, "rate value", "x")
    if np.any(pv <= 0.0):
        warnings.append(f"rate is not strictly positive on [0, {xmax:.6g}]")
    ks = _kinks(rate)
    slopes = np.abs(rate.deriv(ks))
    _require_finite(slopes, ks, "rate derivative", "x")
    steepest = float(np.max(slopes))
    if steepest > rate.lipschitz:
        warnings.append(f"rate slope {steepest:.6g} exceeds its declared Lipschitz constant {rate.lipschitz:.6g}")

    margin = 1.0 - rate.lipschitz * l1_norm
    if margin <= 0.0:
        warnings.append(
            f"stability margin 1 - alpha*||h||_L1 = {margin:.6g} is not positive; "
            "limit-theorem checks will refuse this model"
        )
    return AssumptionReport(
        l1_norm=l1_norm,
        sup_norm=sup_norm,
        stability_margin=margin,
        passed=margin > 0.0 and not warnings,
        warnings=tuple(warnings),
    )


def kernel_to_dict(kernel: Kernel) -> dict:
    if kernel.kind == "exponential":
        return {"type": "exponential", "a": kernel.a, "b": kernel.b}
    if kernel.kind == "constant":
        return {"type": "constant", "c": kernel.a}
    if kernel.kind == "zero":
        return {"type": "zero"}
    return {"type": "tabulated", "grid": kernel.grid.tolist(), "values": kernel.values.tolist()}


def kernel_from_dict(d: dict) -> Kernel:
    try:
        kind = d["type"]
    except (TypeError, KeyError):
        raise ValidationError("kernel config must be an object with a 'type' field") from None
    if kind == "exponential":
        return Kernel.exponential(d["a"], d["b"])
    if kind == "constant":
        return Kernel.constant(d["c"])
    if kind == "zero":
        return Kernel.zero()
    if kind == "tabulated":
        return Kernel.tabulated(d["grid"], d["values"])
    raise ValidationError(f"unknown kernel type {kind!r}")


def rate_to_dict(rate: RateFn) -> dict:
    if rate.kind == "affine":
        return {"type": "affine", "base": rate.base, "slope": rate.slope}
    return {"type": "tabulated", "grid": rate.grid.tolist(), "values": rate.values.tolist()}


def rate_from_dict(d: dict) -> RateFn:
    try:
        kind = d["type"]
    except (TypeError, KeyError):
        raise ValidationError("rate config must be an object with a 'type' field") from None
    if kind == "affine":
        return RateFn.affine(d["base"], d["slope"])
    if kind == "tabulated":
        return RateFn.tabulated(d["grid"], d["values"])
    raise ValidationError(f"unknown rate type {kind!r}")
