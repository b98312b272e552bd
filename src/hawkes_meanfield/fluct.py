"""Empirical fluctuation fields and their Gaussian limit processes.

The centered field ``sqrt(N) * (L^N_t - Law_t)`` measures how the empirical
distribution of particle counts fluctuates around the deterministic Poisson
limit.  Its weak limit is a measure-valued Gaussian process; projecting on the
identity test function gives a scalar linear SDE for the mean process.  Both
limits are simulated here on a truncated state lattice {0..K}:

* the scalar mean-process SDE by explicit Euler-Maruyama,
* its variance by deterministic covariance propagation (dense recursion for
  any kernel, a 3-ODE fast path for exponential kernels),
* the measure-valued equation in its strong birth-ladder form

      dX(x) = lam_t [X(x-1) - X(x)] dt
            + phi'(c_t) (int h d<X, ell>) [Law_t(x-1) - Law_t(x)] dt
            + sqrt(lam_t dt) (sqrt(Law_t(x-1)) xi(x-1) - sqrt(Law_t(x)) xi(x)),

  the unique rewriting of the weak equation on the lattice: pairing the weak
  form with the indicator of {x} telescopes the gradient terms into the
  birth-ladder above, with X(-1) = 0 and the flux out of state K dropped and
  accumulated as a mass defect.  The same Gaussian xi(x) feeds states x and
  x+1, which is exactly the noise correlation the weak form prescribes.

The birth-ladder stepper ``_ladder_path`` is shared with the linearized
dynamics of ``deviations``, which replace the noise by a deterministic source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import EventLog
from .meanfield import MeanPath, TruncationError, limit_law, limit_law_path
from .model import Kernel, RateFn
from .rng import MarkStream

__all__ = [
    "FieldPath",
    "SpeedSequence",
    "GridTooFineError",
    "centered_field",
    "rescaled_field",
    "simulate_limit_mean",
    "limit_mean_variance",
    "simulate_limit_field",
]

# |mass defect| at the horizon beyond which a simulated limit field refuses K
_DEFECT_THRESHOLD = 1e-6
# dense covariance propagation is O(n^3) time and O(n^2) memory
_DENSE_CAP = 512


class GridTooFineError(ValueError):
    """Dense covariance propagation refused; use the Monte Carlo fallback."""


@dataclass(frozen=True)
class FieldPath:
    """Signed-measure-valued path on grid x {0..K}.

    ``values[k, x]`` is the field at time t_k in state x; ``mass_defect[k]``
    is the signed mass lost to the truncation (for simulated limit fields, the
    accumulated flux dropped at state K; total mass satisfies
    sum_x values[k, x] = -mass_defect[k]).  For empirical fields ``overflow``
    counts particles beyond K at each grid time.
    """

    grid: object
    K: int
    values: np.ndarray
    mass_defect: np.ndarray
    overflow: np.ndarray | None = None

    def project(self, weights: np.ndarray) -> np.ndarray:
        """<field_t, w> for a state function w given as K+1 weights."""
        return self.values @ np.asarray(weights, dtype=float)

    def to_csv(self) -> str:
        """Long-format export, one row per (grid time, state), floats as plain ``repr``."""
        states = [f",{x}," for x in range(self.K + 1)]
        chunks = ["t,x,value\n"]
        for t, row in zip(self.grid.points.tolist(), self.values.tolist()):
            t_repr = repr(t)
            chunks.append("".join([f"{t_repr}{s}{v!r}\n" for s, v in zip(states, row)]))
        return "".join(chunks)


@dataclass(frozen=True)
class SpeedSequence:
    """Moderate-deviation speed a(N) = N^gamma with gamma in (0, 1/2)."""

    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 0.5:
            raise ValueError(f"speed exponent must lie in (0, 1/2), got {self.gamma}")

    def a(self, N: int) -> float:
        return float(N) ** self.gamma


def _occupancy(log: EventLog, grid, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Particle-count histogram over time: (n+1) x (K+1) counts plus overflow."""
    n = grid.n
    delta = np.zeros((n + 1, K + 2))
    delta[0, 0] = log.N
    sizes = [j.size for j in log.jumps]
    total = int(sum(sizes))
    if total:
        times = np.concatenate([j for j in log.jumps if j.size])
        ranks = np.concatenate([np.arange(s) for s in sizes if s])
        idx = np.searchsorted(grid.points, times, side="left")
        src = np.minimum(ranks, K + 1)
        dst = np.minimum(ranks + 1, K + 1)
        np.add.at(delta, (idx, src), -1.0)
        np.add.at(delta, (idx, dst), 1.0)
    hist = np.cumsum(delta, axis=0)
    return hist[:, : K + 1], hist[:, K + 1].astype(np.int64)


def centered_field(log: EventLog, mean: MeanPath, K: int) -> FieldPath:
    """sqrt(N)-scaled deviation of the empirical count distribution from the limit law."""
    if abs(mean.grid.T - log.T) > 1e-9 * max(1.0, log.T):
        raise ValueError("mean path and event log cover different horizons")
    limit_law(mean, mean.grid.T, K)  # raises TruncationError if K too small
    hist, overflow = _occupancy(log, mean.grid, K)
    law = limit_law_path(mean, K)
    values = math.sqrt(log.N) * (hist / log.N - law)
    defect = -values.sum(axis=1)
    values.flags.writeable = False
    defect.flags.writeable = False
    overflow.flags.writeable = False
    return FieldPath(grid=mean.grid, K=K, values=values, mass_defect=defect, overflow=overflow)


def rescaled_field(log: EventLog, mean: MeanPath, K: int, speed: SpeedSequence) -> FieldPath:
    """Centered field divided by the speed a(N); the moderate-deviation object."""
    base = centered_field(log, mean, K)
    a = speed.a(log.N)
    values = base.values / a
    defect = base.mass_defect / a
    values.flags.writeable = False
    defect.flags.writeable = False
    return FieldPath(grid=base.grid, K=K, values=values, mass_defect=defect, overflow=base.overflow)


def simulate_limit_mean(mean: MeanPath, kernel: Kernel, rate: RateFn, seed: int) -> np.ndarray:
    """One Euler-Maruyama path of the scalar limit SDE on the mean's grid.

    X_{k+1} = X_k + dt phi'(c_k) (h(0) X_k + sum_{j<k} h'(t_k - t_j) X_j dt)
            + sqrt(lam_k dt) xi_k,  X_0 = 0.
    """
    grid = mean.grid
    n, dt = grid.n, grid.dt
    if n == 0:
        return np.zeros(1)
    h0 = float(kernel.eval(0.0))
    hp = np.atleast_1d(kernel.deriv(grid.points))
    phid = np.atleast_1d(rate.deriv(mean.excitation))
    xi = MarkStream(seed, 0).normals(n)
    x = np.zeros(n + 1)
    for k in range(n):
        conv = h0 * x[k] + dt * float(np.dot(hp[k:0:-1], x[:k]))
        x[k + 1] = x[k] + dt * phid[k] * conv + math.sqrt(mean.lam[k] * dt) * xi[k]
        if not math.isfinite(x[k + 1]):
            raise FloatingPointError(f"limit-mean path diverged at step {k}")
    return x


def _variance_dense(mean: MeanPath, kernel: Kernel, rate: RateFn) -> np.ndarray:
    """Covariance propagation of the linear recursion, trapezoid-in-time weights.

    The drift integral and the excitation convolution both use trapezoid
    quadrature and the implicit step is solved exactly (the equation is linear
    scalar), so the propagated variance is second-order accurate in dt.
    """
    grid = mean.grid
    n, dt = grid.n, grid.dt
    h0 = float(kernel.eval(0.0))
    hp = np.atleast_1d(kernel.deriv(grid.points))
    phid = np.atleast_1d(rate.deriv(mean.excitation))
    lam = mean.lam
    cov = np.zeros((n + 1, n + 1))
    var = np.zeros(n + 1)
    for k in range(n):
        a = np.zeros(k + 1)
        a[k] += 1.0
        # explicit half of the drift at time k
        w_k = np.full(k + 1, dt)
        w_k[0] *= 0.5
        if k:
            w_k[k] *= 0.5
        a[k] += 0.5 * dt * phid[k] * h0
        a += 0.5 * dt * phid[k] * (hp[k::-1] * w_k)
        # implicit half at time k+1, with the X_{k+1} terms moved to the left
        w_k1 = np.full(k + 1, dt)
        w_k1[0] *= 0.5
        a += 0.5 * dt * phid[k + 1] * (hp[k + 1 : 0 : -1] * w_k1)
        gamma = 0.5 * dt * phid[k + 1] * (h0 + 0.5 * dt * hp[0])
        denom = 1.0 - gamma
        a /= denom
        s2 = dt * 0.5 * (lam[k] + lam[k + 1]) / denom**2
        cnew = cov[: k + 1, : k + 1] @ a
        vnew = float(a @ cnew) + s2
        cov[k + 1, : k + 1] = cnew
        cov[: k + 1, k + 1] = cnew
        cov[k + 1, k + 1] = vnew
        var[k + 1] = vnew
    return var


def _variance_lyapunov(mean: MeanPath, kernel: Kernel, rate: RateFn) -> np.ndarray:
    """Exponential-kernel fast path: close the SDE with Y_t = int h(t-s) dX_s.

    For h(t) = a e^{-bt} the pair (X, Y) is Markov:
        dX = sig_t Y dt + sqrt(lam_t) dW,
        dY = (a sig_t - b) Y dt + a sqrt(lam_t) dW,   sig_t = phi'(c_t),
    and the covariance P = [[Var X, Cov], [Cov, Var Y]] solves
        P11' = 2 sig P12 + lam
        P12' = (a sig - b) P12 + sig P22 + a lam
        P22' = 2 (a sig - b) P22 + a^2 lam,
    integrated here with RK4 and linear interpolation of lam and sig.
    """
    grid = mean.grid
    n, dt = grid.n, grid.dt
    a_k, b_k = kernel.a, kernel.b
    ts = grid.points
    lam = mean.lam
    sig = np.atleast_1d(rate.deriv(mean.excitation))

    def interp(arr, t):
        return float(np.interp(t, ts, arr))

    def rhs(t, p):
        l = interp(lam, t)
        s = interp(sig, t)
        p11, p12, p22 = p
        return np.array(
            [
                2.0 * s * p12 + l,
                (a_k * s - b_k) * p12 + s * p22 + a_k * l,
                2.0 * (a_k * s - b_k) * p22 + a_k * a_k * l,
            ]
        )

    out = np.zeros(n + 1)
    p = np.zeros(3)
    for k in range(n):
        t = ts[k]
        k1 = rhs(t, p)
        k2 = rhs(t + dt / 2, p + dt / 2 * k1)
        k3 = rhs(t + dt / 2, p + dt / 2 * k2)
        k4 = rhs(t + dt, p + dt * k3)
        p = p + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = p[0]
    return out


def limit_mean_variance(mean: MeanPath, kernel: Kernel, rate: RateFn, method: str = "auto") -> np.ndarray:
    """Var(X_{t_k}) of the scalar limit SDE along the grid.

    ``method`` is "dense" (any kernel, O(n^2) memory / O(n^3) time, refused
    beyond 512 steps), "lyapunov" (exponential kernels only), or
    "auto" (lyapunov when available).
    """
    if mean.grid.n == 0:
        return np.zeros(1)
    if method == "auto":
        method = "lyapunov" if kernel.kind == "exponential" else "dense"
    if method == "lyapunov":
        if kernel.kind != "exponential":
            raise ValueError("the Lyapunov fast path needs an exponential kernel")
        return _variance_lyapunov(mean, kernel, rate)
    if method != "dense":
        raise ValueError(f"unknown method {method!r}")
    if mean.grid.n > _DENSE_CAP:
        raise GridTooFineError(
            f"dense propagation capped at {_DENSE_CAP} steps (grid has {mean.grid.n}); "
            "solve the mean on a coarser grid or estimate the variance by Monte Carlo "
            "over simulate_limit_mean replicas"
        )
    return _variance_dense(mean, kernel, rate)


def _ladder(a: np.ndarray) -> np.ndarray:
    """a(x-1) - a(x) along each row, with a(-1) = 0: the birth-ladder difference."""
    shifted = np.zeros_like(a)
    shifted[:, 1:] = a[:, :-1]
    return shifted - a


def _ladder_path(
    mean: MeanPath,
    kernel: Kernel,
    rate: RateFn,
    law: np.ndarray,
    source: np.ndarray,
    noise: np.ndarray,
) -> FieldPath:
    """Forward-Euler path of the birth-ladder equation on grid x {0..K}.

        X_{k+1}(x) = X_k(x) + dt [ lam_k (X_k(x-1) - X_k(x))
                     + phi'(c_k) H_k (Law_k(x-1) - Law_k(x))
                     + lam_k (source_k(x-1) - source_k(x)) ]
                     + sqrt(lam_k dt) (noise_k(x-1) - noise_k(x)),

    with X_0 = 0 and H_k the excitation response of <X, ell>.  ``law``,
    ``source`` and ``noise`` hold one row per step (n x (K+1)); the flux of
    each out of state K is dropped into the mass defect.  The limit field
    drives the ladder with noise sqrt(Law) xi and the linearized dynamics with
    the source g Law; each passes zeros for the forcing it does not have.
    """
    grid = mean.grid
    n, dt = grid.n, grid.dt
    K = law.shape[1] - 1
    h0 = float(kernel.eval(0.0))
    hp = np.atleast_1d(kernel.deriv(grid.points))
    phid = np.atleast_1d(rate.deriv(mean.excitation))
    lam = mean.lam
    states = np.arange(K + 1, dtype=float)

    # everything that does not depend on the path, for all steps at once
    dlaw = _ladder(law)
    dsource = lam[:n, None] * _ladder(source)
    dnoise = _ladder(noise)

    values = np.zeros((n + 1, K + 1))
    defect = np.zeros(n + 1)
    mproj = np.zeros(n + 1)  # <X, ell> alongside
    x = np.zeros(K + 1)
    shift_x = np.zeros(K + 1)
    for k in range(n):
        conv = h0 * mproj[k] + dt * float(np.dot(hp[k:0:-1], mproj[:k]))
        shift_x[1:] = x[:-1]
        root = math.sqrt(lam[k] * dt)
        x = x + dt * (lam[k] * (shift_x - x) + phid[k] * conv * dlaw[k] + dsource[k]) + root * dnoise[k]
        if not np.isfinite(x).all():
            raise FloatingPointError(f"birth-ladder path diverged at step {k}")
        lost = (
            dt * (lam[k] * values[k, K] + phid[k] * conv * law[k, K] + lam[k] * source[k, K])
            + root * noise[k, K]
        )
        defect[k + 1] = defect[k] + lost
        values[k + 1] = x
        mproj[k + 1] = float(states @ x)
    values.flags.writeable = False
    defect.flags.writeable = False
    return FieldPath(grid=grid, K=K, values=values, mass_defect=defect)


def simulate_limit_field(mean: MeanPath, kernel: Kernel, rate: RateFn, K: int, seed: int) -> FieldPath:
    """One Euler-Maruyama path of the measure-valued limit on grid x {0..K}.

    Raises TruncationError when the limit law or the accumulated flux out of
    state K is not negligible at this K.
    """
    n = mean.grid.n
    limit_law(mean, mean.grid.T, K)
    law = limit_law_path(mean, K)[:n]
    xi = MarkStream(seed, 0).normals(n * (K + 1)).reshape(n, K + 1)
    path = _ladder_path(mean, kernel, rate, law, np.zeros_like(law), np.sqrt(law) * xi)
    defect = path.mass_defect[-1]
    if abs(defect) > _DEFECT_THRESHOLD:
        raise TruncationError(
            f"truncation defect {defect:.3e} exceeds {_DEFECT_THRESHOLD:.1e}; increase K"
        )
    return path
