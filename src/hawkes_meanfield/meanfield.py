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

from .model import Kernel, RateFn, _scalar_rate

__all__ = [
    "TimeGrid",
    "MeanPath",
    "LimitLaw",
    "Excitation",
    "SolverDivergenceError",
    "TruncationError",
    "solve_mean",
    "limit_law",
    "limit_law_path",
    "suggested_state_count",
]

# Poisson tail mass beyond K above which the truncated law is refused
_TAIL_THRESHOLD = 1e-8
# excitation below -tol * max|excitation| is refused as quadrature failure
_EXCITATION_TOL = 1e-9


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


class Excitation:
    """Causal excitation memory on a grid: the one forward quadrature of int h(t-s) dX_s.

    Each ``push(f_k)``, in grid order from k = 0, returns

        H_k = h(0) f_k + dt sum_{j<k} h'(t_k - t_j) f_j,

    the integration-by-parts form of int_0^{t_k} h(t_k - s) df_s under the
    left-rectangle rule, for a path with f_0 = 0.  ``lag()`` returns the
    memory's part of the next push, the sum over j < k, and records nothing,
    so ``push(f)`` is ``h0 * f + lag()``.  ``half`` is dt h'(0) / 2: adding
    ``half * f_k`` to a push gives the trapezoid rule.  The memory holds one
    path, and ``f_k`` is a float.  An exponential kernel keeps the decayed sum
    S_k = sum_{j<k} e^{-b(t_k - t_j)} f_j, so a push costs O(1) (Oakes 1975);
    zero and constant kernels have h' = 0 and keep nothing; a tabulated kernel
    keeps the history and takes one dot product, O(k) per push.
    """

    def __init__(self, kernel: Kernel, grid: TimeGrid):
        self._kind = kernel.kind
        hp0 = float(kernel.deriv(0.0))
        self.h0 = float(kernel.eval(0.0))
        self.half = 0.5 * grid.dt * hp0
        if self._kind == "exponential":
            self._decay = math.exp(-kernel.b * grid.dt)
            self._lag = grid.dt * hp0
            self._sum = 0.0
        elif self._kind == "tabulated":
            self._dt, self._k = grid.dt, 0
            self._hp = np.atleast_1d(kernel.deriv(grid.points))
            self._hist = np.zeros(grid.n + 1)

    def lag(self):
        """dt sum_{j<k} h'(t_k - t_j) f_j for the next grid index k."""
        if self._kind == "exponential":
            return self._lag * self._sum
        if self._kind != "tabulated":
            return 0.0
        k = self._k
        return self._dt * float(np.dot(self._hp[k:0:-1], self._hist[:k]))

    def push(self, f):
        """H_k for the next grid value f_k of the path."""
        if self._kind not in ("exponential", "tabulated"):
            return self.h0 * f  # not h0 * f + 0.0, which turns a -0.0 into +0.0
        out = self.h0 * f + self.lag()
        if self._kind == "exponential":
            self._sum = self._decay * (self._sum + f)
        else:
            self._hist[self._k] = f
            self._k += 1
        return out

    @classmethod
    def path(cls, kernel: Kernel, grid: TimeGrid, f: np.ndarray) -> np.ndarray:
        """H_k for every value of a grid path f (f_0 = 0), one push each."""
        memory = cls(kernel, grid)
        return np.array([memory.push(v) for v in np.asarray(f, dtype=float).tolist()])


def solve_mean(kernel: Kernel, rate: RateFn, T: float, dt: float) -> MeanPath:
    """Solve the limit equation on [0, T] with step dt.

    Explicit Euler stepping m_{k+1} = m_k + dt * phi(c_k) generates a first
    pass; one Picard sweep reintegrates the intensity with the trapezoid rule,
    and the returned lambda is recomputed from the corrected mean so that
    lambda_k = phi(excitation_k) holds exactly.  The excitation c_k is the
    trapezoid rule, which for a path with f_0 = 0 is the ``Excitation`` left
    rule plus dt h'(0) f_k / 2.  Raises SolverDivergenceError when lambda is
    not positive and finite, or, for h >= 0, when c dips below
    -_EXCITATION_TOL times its largest magnitude so far: the exact c is then
    nonnegative, so such a dip is quadrature failure (a kernel that varies
    much faster than dt), not rounding.
    """
    if T == 0.0:
        grid = TimeGrid.from_T_dt(0.0, dt)
        lam0 = float(rate.eval(0.0))
        return MeanPath(grid, _freeze(np.zeros(1)), _freeze(np.full(1, lam0)), _freeze(np.zeros(1)))
    if dt > T / 10.0:
        raise ValueError(f"solve_mean needs dt <= T/10, got dt={dt}, T={T}")
    grid = TimeGrid.from_T_dt(T, dt)
    n, step = grid.n, grid.dt
    tol = _EXCITATION_TOL if kernel.kind != "tabulated" or np.all(kernel.values >= 0.0) else math.inf

    def fail(lam, c, k):
        raise SolverDivergenceError(f"intensity {lam:.6g} at excitation {c:.6g}, step {k} (t={k * step})")

    # Euler pass
    phi = _scalar_rate(rate)
    memory = Excitation(kernel, grid)
    half = memory.half
    m = np.zeros(n + 1)
    euler_exc = np.zeros(n + 1)
    mk = peak = 0.0
    for k in range(n):
        c = euler_exc[k] = memory.push(mk) + half * mk
        lam = phi(c)
        peak = max(peak, abs(c))
        if not 0.0 < lam < math.inf or c < -tol * peak:
            fail(lam, c, k)
        mk += step * lam
        m[k + 1] = mk
    euler_exc[n] = memory.push(mk) + half * mk

    # Picard sweep: reintegrate lambda(m_euler) with the trapezoid rule
    lam0 = np.asarray(rate.eval(euler_exc))
    cum = np.concatenate([[0.0], np.cumsum(0.5 * step * (lam0[1:] + lam0[:-1]))])
    exc = Excitation.path(kernel, grid, cum) + half * cum
    lam = np.asarray(rate.eval(exc))
    bad = ~np.isfinite(lam) | (lam <= 0.0) | (exc < -tol * np.max(np.abs(exc)))
    if np.any(bad):
        k = int(np.argmax(bad))
        fail(lam[k], exc[k], k)
    return MeanPath(grid, _freeze(cum), _freeze(lam), _freeze(exc))


def _poisson_rows(m: np.ndarray, K: int) -> np.ndarray:
    """Poisson(m_i) pmfs on {0..K}, one row per mean, by p(x+1) = p(x) m / (x+1)."""
    out = np.zeros((m.size, K + 1))
    out[:, 0] = np.exp(-m)
    for x in range(K):
        out[:, x + 1] = out[:, x] * m / (x + 1)
    return out


def suggested_state_count(mean_value: float) -> int:
    """Truncation level with super-exponentially small Poisson tail."""
    return int(math.ceil(mean_value + 10.0 * math.sqrt(mean_value + 1.0)))


def limit_law(mean: MeanPath, t: float, K: int) -> LimitLaw:
    """Poisson law of the limit process at a grid time t, truncated at K."""
    if K < 1:
        raise ValueError(f"limit_law needs K >= 1, got {K}")
    k = mean.grid.index_of(t)
    mt = float(mean.m[k])
    pmf = _poisson_rows(mean.m[k : k + 1], K)[0]
    tail = max(1.0 - float(np.sum(pmf)), 0.0)
    if tail > _TAIL_THRESHOLD:
        raise TruncationError(
            f"tail mass {tail:.3e} beyond K={K} exceeds {_TAIL_THRESHOLD:.1e}; "
            f"use K >= {suggested_state_count(mt)}"
        )
    return LimitLaw(pmf=_freeze(pmf), tail_mass=tail, mean=mt)


def limit_law_path(mean: MeanPath, K: int) -> np.ndarray:
    """Matrix of Poisson pmfs along the grid: row k is the law at t_k on {0..K}."""
    return _poisson_rows(mean.m, K)
