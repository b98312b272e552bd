"""Deterministic mean-field limit: the intensity fixed point and its law.

The limit of the particle system is an inhomogeneous Poisson process whose
mean ``m_t`` solves the Volterra fixed point

    m_t = int_0^t phi( int_0^s h(s-u) dm_u ) ds,

with intensity ``lambda(t) = phi(int_0^t h(t-s) dm_s)``.  This module solves
that equation on a uniform grid (explicit stepping plus one Picard sweep; the
stability margin 1 - alpha*||h||_L1 > 0 makes the map a contraction, so a
single correction already controls the first-order error), and truncates the
Poisson law at a finite state count with explicit tail accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Kernel, RateFn

__all__ = [
    "TimeGrid",
    "MeanPath",
    "LimitLaw",
    "SolverDivergenceError",
    "TruncationError",
    "solve_mean",
    "limit_law",
    "limit_law_path",
    "suggested_state_count",
]

# Poisson tail mass beyond K above which the truncated law is refused
_TAIL_THRESHOLD = 1e-8


class SolverDivergenceError(RuntimeError):
    """Non-finite value produced while stepping the limit equation."""


class TruncationError(ValueError):
    """Poisson tail mass beyond the requested state count exceeds the threshold."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = T with spacing dt = T / n.

    A degenerate single-point grid (n = 0) is allowed only for T = 0, so the
    empty-interval solve has a well-typed result.
    """

    T: float
    dt: float
    n: int

    @classmethod
    def from_T_dt(cls, T: float, dt: float) -> "TimeGrid":
        if T == 0.0:
            return cls(0.0, dt if dt > 0 else 1.0, 0)
        if not (T > 0 and dt > 0):
            raise ValueError(f"TimeGrid needs T > 0 and dt > 0, got T={T}, dt={dt}")
        n = int(round(T / dt))
        if n < 1 or abs(n * dt - T) > 1e-9 * max(1.0, T):
            raise ValueError(f"dt={dt} does not divide T={T} into whole steps")
        return cls(float(T), float(T) / n, n)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n + 1)

    def index_of(self, t: float) -> int:
        """Grid index of a time t that must lie on the grid."""
        k = int(round(t / self.dt)) if self.n > 0 else 0
        if not (0 <= k <= self.n) or abs(k * self.dt - t) > 1e-9 * max(1.0, self.T):
            raise ValueError(f"t={t} is not a grid point of {self}")
        return k


@dataclass(frozen=True)
class MeanPath:
    """Grid solution of the limit equation: mean m, intensity lambda, excitation c.

    ``excitation[k]`` is the convolution int_0^{t_k} h(t_k - s) dm_s, i.e. the
    argument of phi, kept because the linearized dynamics need phi'(c_k).
    """

    grid: TimeGrid
    m: np.ndarray
    lam: np.ndarray
    excitation: np.ndarray

    @property
    def m_final(self) -> float:
        return float(self.m[-1])


@dataclass(frozen=True)
class LimitLaw:
    """Poisson(m) truncated to {0..K}: pmf, reported tail mass, mean."""

    pmf: np.ndarray
    tail_mass: float
    mean: float


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _excitation_trapezoid(kernel: Kernel, grid: TimeGrid, f: np.ndarray) -> np.ndarray:
    """c_k = h(0) f_k + int_0^{t_k} h'(t_k - s) f_s ds, trapezoid rule, all k.

    Integration-by-parts form of int h(t-s) df_s for a grid path with f_0 = 0;
    avoids differentiating the path itself.
    """
    n = grid.n
    if n == 0:
        return np.zeros(1)
    h0 = float(kernel.eval(0.0))
    hp = np.atleast_1d(kernel.deriv(grid.points))
    # trapezoid: endpoint weights 1/2 at j=0 and j=k; f_0 = 0 kills the j=0 term
    full = np.convolve(hp, f)[: n + 1]
    corr = 0.5 * (hp * f[0] + hp[0] * f)  # halve the two endpoint terms
    return h0 * f + grid.dt * (full - corr)


def solve_mean(kernel: Kernel, rate: RateFn, T: float, dt: float) -> MeanPath:
    """Solve the limit equation on [0, T] with step dt.

    Explicit Euler stepping m_{k+1} = m_k + dt * phi(c_k) generates a first
    pass; one Picard sweep reintegrates the intensity with the trapezoid rule,
    and the returned lambda is recomputed from the corrected mean so that
    lambda_k = phi(excitation_k) holds exactly.
    """
    if T == 0.0:
        grid = TimeGrid.from_T_dt(0.0, dt)
        lam0 = float(rate.eval(0.0))
        return MeanPath(grid, _freeze(np.zeros(1)), _freeze(np.full(1, lam0)), _freeze(np.zeros(1)))
    if dt > T / 10.0:
        raise ValueError(f"solve_mean needs dt <= T/10, got dt={dt}, T={T}")
    grid = TimeGrid.from_T_dt(T, dt)
    n, step = grid.n, grid.dt
    h0 = float(kernel.eval(0.0))
    hp = np.atleast_1d(kernel.deriv(grid.points))

    # Euler pass; c_k uses the trapezoid rule over the m values known so far
    m = np.zeros(n + 1)
    for k in range(n):
        conv = step * (
            float(np.dot(hp[k::-1], m[: k + 1])) - 0.5 * hp[k] * m[0] - 0.5 * hp[0] * m[k]
        )
        c = h0 * m[k] + conv
        lam = float(rate.eval(c))
        if not math.isfinite(lam):
            raise SolverDivergenceError(f"non-finite intensity at step {k} (t={k * step})")
        m[k + 1] = m[k] + step * lam

    # Picard sweep: reintegrate lambda(m_euler) with the trapezoid rule
    lam0 = np.asarray(rate.eval(_excitation_trapezoid(kernel, grid, m)))
    if not np.all(np.isfinite(lam0)):
        k_bad = int(np.argmax(~np.isfinite(lam0)))
        raise SolverDivergenceError(f"non-finite intensity at step {k_bad} (t={k_bad * step})")
    cum = np.concatenate([[0.0], np.cumsum(0.5 * step * (lam0[1:] + lam0[:-1]))])

    exc = _excitation_trapezoid(kernel, grid, cum)
    lam = np.asarray(rate.eval(exc))
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(cum))):
        raise SolverDivergenceError("non-finite value after the Picard sweep")
    return MeanPath(grid, _freeze(cum), _freeze(lam), _freeze(exc))


def _poisson_pmf(mean: float, K: int) -> tuple[np.ndarray, float]:
    pmf = np.zeros(K + 1)
    if mean == 0.0:
        pmf[0] = 1.0
        return pmf, 0.0
    pmf[0] = math.exp(-mean)
    for x in range(K):
        pmf[x + 1] = pmf[x] * mean / (x + 1)
    tail = max(1.0 - float(np.sum(pmf)), 0.0)
    return pmf, tail


def suggested_state_count(mean_value: float) -> int:
    """Truncation level with super-exponentially small Poisson tail."""
    return int(math.ceil(mean_value + 10.0 * math.sqrt(mean_value + 1.0)))


def limit_law(mean: MeanPath, t: float, K: int) -> LimitLaw:
    """Poisson law of the limit process at a grid time t, truncated at K."""
    if K < 1:
        raise ValueError(f"limit_law needs K >= 1, got {K}")
    k = mean.grid.index_of(t)
    mt = float(mean.m[k])
    pmf, tail = _poisson_pmf(mt, K)
    if tail > _TAIL_THRESHOLD:
        raise TruncationError(
            f"tail mass {tail:.3e} beyond K={K} exceeds {_TAIL_THRESHOLD:.1e}; "
            f"use K >= {suggested_state_count(mt)}"
        )
    return LimitLaw(pmf=_freeze(pmf), tail_mass=tail, mean=mt)


def limit_law_path(mean: MeanPath, K: int) -> np.ndarray:
    """Matrix of Poisson pmfs along the grid: row k is the law at t_k on {0..K}."""
    n = mean.grid.n
    out = np.zeros((n + 1, K + 1))
    out[:, 0] = np.exp(-mean.m)
    for x in range(K):
        out[:, x + 1] = out[:, x] * mean.m / (x + 1)
    return out
