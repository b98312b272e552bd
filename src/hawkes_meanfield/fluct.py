"""Empirical fluctuation fields and their Gaussian limit processes.

The centered field ``sqrt(N) * (L^N_t - Law_t)`` measures how the empirical
distribution of particle counts fluctuates around the deterministic Poisson
limit.  Its weak limit is a measure-valued Gaussian process; projecting on the
identity test function gives a scalar linear SDE for the mean process.  Both
limits are simulated here on a truncated state lattice {0..K}:

* the scalar mean-process SDE by explicit Euler-Maruyama,
* its terminal variance by one backward pass over the adjoint of the
  implicit-trapezoid recursion, for every kernel,
* the measure-valued equation in its strong birth-ladder form

      dX(x) = lam_t [X(x-1) - X(x)] dt
            + phi'(c_t) (int h d<X, ell>) [Law_t(x-1) - Law_t(x)] dt
            + sqrt(lam_t dt) (sqrt(Law_t(x-1)) xi(x-1) - sqrt(Law_t(x)) xi(x)),

  the unique rewriting of the weak equation on the lattice: pairing the weak
  form with the indicator of {x} telescopes the gradient terms into the
  birth-ladder above, with X(-1) = 0 and the flux out of state K dropped and
  accumulated as a mass defect.  The same Gaussian xi(x) feeds states x and
  x+1, which is exactly the noise correlation the weak form prescribes.

The birth-ladder stepper ``_ladder_path`` steps one path at a time, a
sequence of seeds one seed after another.  It is shared with the linearized
dynamics of ``deviations``, which replace the noise by a deterministic source.
It and the scalar SDE read int h d<X, ell> from a ``meanfield.Excitation``
memory, one push per step: O(1) for exponential kernels.  The variance of the
scalar scheme and of a projection <X_T, w> of the ladder are each exact by
one backward pass through the same memory, the scheme's adjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from . import _text
from .engine import EventLog
from .meanfield import Excitation, MeanPath, TruncationError, limit_law, limit_law_path
from .model import Kernel, RateFn
from .rng import MarkStream

__all__ = [
    "FieldPath",
    "centered_field",
    "simulate_limit_mean",
    "limit_mean_variance",
    "limit_field_variance",
    "simulate_limit_field",
]

# |mass defect| at the horizon beyond which a simulated limit field refuses K
_DEFECT_THRESHOLD = 1e-6
# grid steps that the birth-ladder stepper, the field rate and FieldPath.to_csv
# each take at a time, so that none of their transients is field-sized
_BLOCK = 64


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

    def to_csv(self, fh: BinaryIO) -> None:
        """Write the long-format table, one row per (grid time, state), to the binary file ``fh``.

        Floats are written as their plain ``repr``, in ASCII.  The rows of
        ``_BLOCK`` grid times are rendered and written at a time, so no
        text of the whole table is ever held.
        """
        states = np.arange(self.K + 1)[None, :]
        points = self.grid.points[:, None]
        fh.write(b"t,x,value\n")
        for lo in range(0, len(points), _BLOCK):
            fh.write(_text.rows(points[lo : lo + _BLOCK], states, self.values[lo : lo + _BLOCK]))


def _occupancy(log: EventLog, grid, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Particle-count histogram over time: (n+1) x (K+1) counts plus overflow."""
    n = grid.n
    delta = np.zeros((n + 1, K + 2))
    delta[0, 0] = log.N
    total = log.total_jumps
    if total:
        # rank of each jump within its particle, from the particle-major layout
        firsts = np.cumsum(log.sizes) - log.sizes
        ranks = np.arange(total) - np.repeat(firsts, log.sizes)
        idx = np.searchsorted(grid.points, log.times, side="left")
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


def simulate_limit_mean(mean: MeanPath, kernel: Kernel, rate: RateFn, seed: int) -> np.ndarray:
    """One Euler-Maruyama path of the scalar limit SDE on the mean's grid.

    X_{k+1} = X_k + dt phi'(c_k) (h(0) X_k + sum_{j<k} h'(t_k - t_j) X_j dt)
            + sqrt(lam_k dt) xi_k,  X_0 = 0.
    """
    grid = mean.grid
    n, dt = grid.n, grid.dt
    if n == 0:
        return np.zeros(1)
    memory = Excitation(kernel, grid)
    phid = np.atleast_1d(rate.deriv(mean.excitation))
    xi = MarkStream(seed, 0).normals(n)
    x = np.zeros(n + 1)
    for k in range(n):
        x[k + 1] = x[k] + dt * phid[k] * memory.push(x[k]) + math.sqrt(mean.lam[k] * dt) * xi[k]
        if not math.isfinite(x[k + 1]):
            raise FloatingPointError(f"limit-mean path diverged at step {k}")
    return x


def limit_mean_variance(mean: MeanPath, kernel: Kernel, rate: RateFn) -> float:
    """Var X_T of the implicit-trapezoid scheme for the scalar limit SDE, on the mean's grid.

    The scheme is X_0 = 0, X_j - X_{j-1} = y_{j-1} + y_j + sqrt(dt (lam_{j-1} + lam_j) / 2) xi_j
    with y_j = dt phi'(c_j) (H_j + half X_j) / 2 and H_j the ``Excitation``
    push of X_j: second order in dt.  X_T is linear in the noises, so one
    backward pass of the adjoint p from p_{n+1} = 0 gives
    Var X_T = sum_j dt (lam_{j-1} + lam_j) p_j^2 / 2, with

        p_j (1 - g_j) = p_{j+1} (1 + g_j) + [j = n] + lag_j,   g_j = dt phi'(c_j) (h(0) + half) / 2,

    and lag_j the ``lag()`` of an ``Excitation`` fed q_n, q_{n-1}, ..., where
    q_j = dt phi'(c_j) (p_j + p_{j+1}) / 2.  O(n) for exponential, constant
    and zero kernels, O(n^2) for tabulated ones.
    """
    n, dt, lam = mean.grid.n, mean.grid.dt, mean.lam.tolist()
    phid = np.atleast_1d(rate.deriv(mean.excitation)).tolist()
    memory = Excitation(kernel, mean.grid)
    diag = memory.h0 + memory.half
    p, var = 0.0, 0.0
    for j in range(n, 0, -1):
        g = 0.5 * dt * phid[j] * diag
        p_next, p = p, (p * (1.0 + g) + (j == n) + memory.lag()) / (1.0 - g)
        memory.push(0.5 * dt * phid[j] * (p + p_next))
        var += 0.5 * dt * (lam[j - 1] + lam[j]) * p * p
    return float(var)


def _ladder(a: np.ndarray) -> np.ndarray:
    """a(x-1) - a(x) along the last axis, with a(-1) = 0: the birth-ladder difference."""
    out = np.empty_like(a)
    np.subtract(0.0, a[..., 0], out=out[..., 0])
    np.subtract(a[..., :-1], a[..., 1:], out=out[..., 1:])
    return out


def _require_monotone_steps(mean: MeanPath) -> None:
    """Refuse a grid on which lam_k dt > 1 for some step: there the Euler step
    of the birth ladder is no longer monotone and its paths blow up."""
    top = float(np.max(mean.lam[:mean.grid.n])) * mean.grid.dt
    if top > 1.0:
        raise ValueError(f"max lambda*dt = {top:.6g} > 1: the birth-ladder Euler step is not monotone; decrease dt")


def _ladder_path(
    mean: MeanPath,
    kernel: Kernel,
    rate: RateFn,
    law: np.ndarray,
    g: np.ndarray | None = None,
    noise: np.ndarray | None = None,
) -> FieldPath:
    """Forward-Euler path of the birth-ladder equation on grid x {0..K}.

        X_{k+1}(x) = X_k(x) + dt [ lam_k (X_k(x-1) - X_k(x))
                     + phi'(c_k) H_k (Law_k(x-1) - Law_k(x))
                     + lam_k (g_k(x-1) Law_k(x-1) - g_k(x) Law_k(x)) ]
                     + sqrt(lam_k dt) (noise_k(x-1) - noise_k(x)),

    with X_0 = 0 and H_k the excitation response of <X, ell>.  ``law``, ``g``
    and ``noise`` each hold one row per step (n x (K+1)).  The flux of each
    forcing out of state K is dropped into the mass defect.  The limit field
    drives the ladder with noise sqrt(Law) xi and the linearized dynamics
    with the source g Law.  Either forcing may be omitted, not both: an
    omitted forcing is neither allocated nor added, which gives the bits of
    an explicit zero block, because X starts at +0.0 and a rounded sum is
    -0.0 only when both of its terms are.  The path-free part of each
    forcing, its source g Law included, is formed for ``_BLOCK`` steps at a
    time: every operation on it is elementwise, so its bits do not depend on
    the blocking.  Raises ValueError when lam_k dt > 1 for some step.
    """
    _require_monotone_steps(mean)
    grid = mean.grid
    n, dt = grid.n, grid.dt
    K = law.shape[1] - 1
    phid = np.atleast_1d(rate.deriv(mean.excitation))
    lam = mean.lam
    states = np.arange(K + 1, dtype=float)

    values = np.zeros((n + 1, K + 1))
    conv = np.zeros(n)  # H_k
    memory = Excitation(kernel, grid)
    x = np.zeros(K + 1)
    shift_x = np.zeros(K + 1)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        # everything that does not depend on the path, for this block of steps
        dlaw = _ladder(law[lo:hi])
        if g is not None:
            dsource = _ladder(g[lo:hi] * law[lo:hi])
            dsource *= lam[lo:hi, None]
        if noise is not None:
            dnoise = _ladder(noise[lo:hi])
        for k in range(lo, hi):
            conv[k] = memory.push(states @ x)
            shift_x[1:] = x[:-1]
            drift = lam[k] * (shift_x - x) + (phid[k] * conv[k]) * dlaw[k - lo]
            if g is not None:
                drift += dsource[k - lo]
            x += dt * drift
            if noise is not None:
                x += math.sqrt(lam[k] * dt) * dnoise[k - lo]
            values[k + 1] = x
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise FloatingPointError(f"birth-ladder path diverged at step {bad[0] - 1}")
    # flux out of state K at every step, summed in step order from +0.0
    lost = lam[:n] * values[:n, K] + phid[:n] * conv * law[:, K]
    if g is not None:
        lost += lam[:n] * (g[:, K] * law[:, K])
    lost *= dt
    if noise is not None:
        lost += np.sqrt(lam[:n] * dt) * noise[:, K]
    defect = np.cumsum(np.concatenate([[0.0], lost]))
    values.flags.writeable = False
    defect.flags.writeable = False
    return FieldPath(grid=grid, K=K, values=values, mass_defect=defect)


def simulate_limit_field(mean: MeanPath, kernel: Kernel, rate: RateFn, K: int, seed):
    """Euler-Maruyama paths of the measure-valued limit on grid x {0..K}.

    ``seed`` is one seed, for one ``FieldPath``, or a sequence of seeds, for
    one ``FieldPath`` per seed in order; each path depends on its own seed
    only.  Raises TruncationError when the limit law or the accumulated flux
    out of state K is not negligible at this K.
    """
    n = mean.grid.n
    limit_law(mean, mean.grid.T, K)
    law = limit_law_path(mean, K)[:n]
    root_law = np.sqrt(law)
    single = isinstance(seed, (int, np.integer))
    paths = []
    for s in [seed] if single else seed:
        noise = MarkStream(s, 0).normals(n * (K + 1)).reshape(n, K + 1)
        noise *= root_law  # sqrt(Law) xi
        path = _ladder_path(mean, kernel, rate, law, noise=noise)
        defect = path.mass_defect[-1]
        if abs(defect) > _DEFECT_THRESHOLD:
            raise TruncationError(f"truncation defect {defect:.3e} exceeds {_DEFECT_THRESHOLD:.1e}; increase K")
        paths.append(path)
    return paths[0] if single else paths


def limit_field_variance(mean: MeanPath, kernel: Kernel, rate: RateFn, K: int, weights) -> float:
    """Var <X_T, w> of the birth-ladder scheme that ``simulate_limit_field`` steps.

    X_T is linear in the noises, so one backward pass on the mean's grid gives
    it exactly.  From p_n = w, with d_k(x) = p_{k+1}(x+1) - p_{k+1}(x) and p(K+1) = 0,

        Var += dt lam_k <Law_k, d_k^2>,  q_k = dt phi'(c_k) <Law_k(x-1) - Law_k(x), p_{k+1}>,
        p_k = p_{k+1} + dt lam_k d_k + ell (h(0) q_k + dt sum_{j>k} h'(t_j - t_k) q_j),

    where the lag sum is an ``Excitation`` fed q_{n-1}, q_{n-2}, ..., the
    transpose of its forward left rule.  Raises TruncationError when K is too
    small for the limit law, and ValueError unless ``weights`` is K+1 finite
    floats and lam_k dt <= 1 at every step.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (K + 1,) or not np.all(np.isfinite(w)):
        raise ValueError(f"weights must be {K + 1} finite floats, got shape {w.shape}")
    _require_monotone_steps(mean)
    limit_law(mean, mean.grid.T, K)
    n, dt, lam = mean.grid.n, mean.grid.dt, mean.lam
    law = limit_law_path(mean, K)
    phid = np.atleast_1d(rate.deriv(mean.excitation))
    states = np.arange(K + 1, dtype=float)
    memory = Excitation(kernel, mean.grid)
    p, var = w, 0.0
    for k in range(n - 1, -1, -1):
        d = np.append(p[1:], 0.0) - p
        var += dt * lam[k] * float(law[k] @ (d * d))
        q = dt * phid[k] * float(_ladder(law[k]) @ p)
        p = p + dt * lam[k] * d + memory.push(q) * states
    return float(var)
