"""Exciting kernels, rate functions, and standing-assumption validation.

A model is a pair ``(Kernel, RateFn)``: the kernel ``h`` weights the influence
of a past jump at lag ``t - s``, the rate function ``phi`` maps accumulated
excitation to a jump intensity.  Every downstream computation (particle
simulation, limit equations, rate functionals) consumes these two objects, so
they are validated once up front: ``h`` nonnegative and differentiable with
locally bounded derivative, ``phi`` positive and Lipschitz, and the stability
product ``alpha * ||h||_L1[0,T] < 1`` that keeps the system subcritical.
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

# kernel probes of validate_assumptions: steps of the grid on [0, T]
_PROBE_STEPS = 1000


class ValidationError(ValueError):
    """A model produced a non-finite or ill-typed value."""


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
        g = np.asarray(grid, dtype=float)
        v = np.asarray(values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 2:
            raise ValidationError("tabulated kernel needs matching 1-d grid/values, >= 2 nodes")
        if g[0] != 0.0 or np.any(np.diff(g) <= 0):
            raise ValidationError("tabulated kernel grid must start at 0 and increase")
        if not np.all(np.isfinite(v)):
            raise ValidationError("tabulated kernel values must be finite")
        g = g.copy(); v = v.copy()
        g.flags.writeable = False
        v.flags.writeable = False
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
            slopes = np.diff(self.values) / np.diff(self.grid)
            idx = np.clip(np.searchsorted(self.grid, t, side="right") - 1, 0, slopes.size - 1)
            out = np.where(t >= self.grid[-1], 0.0, slopes[idx])
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
    fn: Callable[[float], float] | None = field(default=None, repr=False)
    dfn: Callable[[float], float] | None = field(default=None, repr=False)

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
        g = np.asarray(grid, dtype=float)
        v = np.asarray(values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 2:
            raise ValidationError("tabulated rate needs matching 1-d grid/values, >= 2 nodes")
        if g[0] != 0.0 or np.any(np.diff(g) <= 0):
            raise ValidationError("tabulated rate grid must start at 0 and increase")
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise ValidationError("tabulated rate values must be finite and > 0")
        alpha = float(np.max(np.abs(np.diff(v) / np.diff(g))))
        g = g.copy(); v = v.copy()
        g.flags.writeable = False
        v.flags.writeable = False
        return cls("tabulated", lipschitz=alpha, grid=g, values=v)

    @classmethod
    def custom(cls, fn, dfn, lipschitz: float) -> "RateFn":
        """User-supplied phi and phi' with a declared Lipschitz constant."""
        if not (lipschitz >= 0.0 and math.isfinite(lipschitz)):
            raise ValidationError(f"declared Lipschitz constant must be >= 0, got {lipschitz}")
        return cls("custom", lipschitz=float(lipschitz), fn=fn, dfn=dfn)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "affine":
            out = self.base + self.slope * x
        elif self.kind == "tabulated":
            out = np.interp(x, self.grid, self.values)
        else:
            out = np.vectorize(self.fn, otypes=[float])(x) if x.ndim else np.asarray(self.fn(float(x)))
        return float(out) if out.ndim == 0 else out

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "affine":
            out = np.full_like(x, self.slope)
        elif self.kind == "tabulated":
            slopes = np.diff(self.values) / np.diff(self.grid)
            idx = np.clip(np.searchsorted(self.grid, x, side="right") - 1, 0, slopes.size - 1)
            out = np.where(x >= self.grid[-1], 0.0, slopes[idx])
        else:
            out = np.vectorize(self.dfn, otypes=[float])(x) if x.ndim else np.asarray(self.dfn(float(x)))
        return float(out) if out.ndim == 0 else out


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


def kernel_norms(kernel: Kernel, T: float, dt: float) -> tuple[float, float]:
    """Sup norm and L1 norm of the kernel on [0, T].

    Closed forms for the zero / constant / exponential descriptors; grid sup
    plus trapezoid L1 on {0, dt, ..., T} otherwise.
    """
    if not T > 0:
        raise ValidationError(f"kernel_norms needs T > 0, got {T}")
    if not 0 < dt <= T:
        raise ValidationError(f"kernel_norms needs 0 < dt <= T, got dt={dt}")
    if kernel.kind == "zero":
        return 0.0, 0.0
    if kernel.kind == "constant":
        return kernel.a, kernel.a * T
    if kernel.kind == "exponential":
        return kernel.a, (kernel.a / kernel.b) * (1.0 - math.exp(-kernel.b * T))
    n = max(int(round(T / dt)), 1)
    ts = np.linspace(0.0, T, n + 1)
    vals = kernel.eval(ts)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        t_bad = float(ts[np.argmax(bad)])
        raise ValidationError(f"kernel value is not finite at t={t_bad}")
    return float(np.max(np.abs(vals))), float(np.trapezoid(np.abs(vals), ts))


def validate_assumptions(kernel: Kernel, rate: RateFn, T: float) -> AssumptionReport:
    """Probe the model on a T/1000 grid and report the stability margin.

    Checks h >= 0 and finite, h' finite, h' consistent with h under central
    differences, phi > 0, the declared Lipschitz constant, and phi' against
    central differences of phi.  Grid probes cannot certify the assumptions
    over all reals; they catch real misconfiguration cheaply.
    """
    if not T > 0:
        raise ValidationError(f"validate_assumptions needs T > 0, got {T}")
    warnings: list[str] = []
    probes_ok = True

    sup_norm, l1_norm = kernel_norms(kernel, T, T / _PROBE_STEPS)

    ts = np.linspace(0.0, T, _PROBE_STEPS + 1)
    hv = np.atleast_1d(kernel.eval(ts))
    hd = np.atleast_1d(kernel.deriv(ts))
    if not np.all(np.isfinite(hv)):
        t_bad = float(ts[np.argmax(~np.isfinite(hv))])
        raise ValidationError(f"kernel value is not finite at t={t_bad}")
    if not np.all(np.isfinite(hd)):
        t_bad = float(ts[np.argmax(~np.isfinite(hd))])
        raise ValidationError(f"kernel derivative is not finite at t={t_bad}")
    if np.any(hv < 0.0):
        probes_ok = False
        warnings.append("kernel takes negative values on the probe grid")
    if kernel.kind == "exponential":
        # h' must match central differences of h to 1e-6 relative
        eps = 1e-6 * max(T, 1.0)
        mid = ts[1:-1]
        fd = (kernel.eval(mid + eps) - kernel.eval(mid - eps)) / (2.0 * eps)
        scale = np.maximum(np.abs(kernel.deriv(mid)), 1e-12)
        if np.any(np.abs(fd - kernel.deriv(mid)) > 1e-6 * scale + 1e-12):
            probes_ok = False
            warnings.append("exponential kernel derivative inconsistent with finite differences")

    # rate probes on an excitation range the dynamics can actually reach early on
    xmax = max(1.0, 10.0 * sup_norm)
    xs = np.linspace(0.0, xmax, 1001)
    pv = np.atleast_1d(rate.eval(xs))
    pd = np.atleast_1d(rate.deriv(xs))
    if not np.all(np.isfinite(pv)):
        raise ValidationError(f"rate value is not finite at x={float(xs[np.argmax(~np.isfinite(pv))])}")
    if not np.all(np.isfinite(pd)):
        raise ValidationError(f"rate derivative is not finite at x={float(xs[np.argmax(~np.isfinite(pd))])}")
    if np.any(pv <= 0.0):
        probes_ok = False
        warnings.append("rate is not strictly positive on the probe grid")
    dx = xs[1] - xs[0]
    incr = np.abs(np.diff(pv))
    if np.any(incr > rate.lipschitz * dx * (1.0 + 1e-9) + 1e-12):
        probes_ok = False
        warnings.append("rate violates its declared Lipschitz constant on probe pairs")
    # phi' against central differences, skipping the endpoints
    fd = (pv[2:] - pv[:-2]) / (2.0 * dx)
    scale = np.maximum(np.abs(pd[1:-1]), 1e-8)
    rel = np.abs(fd - pd[1:-1]) / scale
    if rate.kind != "tabulated" and np.any(rel > 1e-4):
        probes_ok = False
        warnings.append("rate derivative inconsistent with finite differences of the rate")

    margin = 1.0 - rate.lipschitz * l1_norm
    if margin <= 0.0:
        warnings.append(
            f"stability margin 1 - alpha*||h||_L1 = {margin:.6g} is not positive; "
            "limit-theorem checks will refuse this model"
        )
    passed = margin > 0.0 and probes_ok
    return AssumptionReport(
        l1_norm=l1_norm,
        sup_norm=sup_norm,
        stability_margin=margin,
        passed=passed,
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
    if rate.kind == "tabulated":
        return {"type": "tabulated", "grid": rate.grid.tolist(), "values": rate.values.tolist()}
    raise ValidationError("custom rate functions do not serialize")


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
