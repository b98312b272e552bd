"""Moderate-deviation rate functionals, the linearized dynamics, and duality.

The rate function of the rescaled field is a supremum of a concave quadratic
functional over test functions,

    I(mu) = sup_phi [ Upsilon_mu(phi) - (1/2) [phi, phi] ],

where Upsilon_mu is linear in phi and [f, g] is the excitation-weighted inner
product.  The scalar (mean-process) rate J has a closed form in terms of the
same excitation convolution.  Everything here is built around one discrete
design rule: the forward-Euler solver for the linearized dynamics and the
quadratures inside Upsilon and [.,.] are exact summation-by-parts duals.
Time integrals use left-endpoint sums, the time-derivative pairing uses
right-point values against forward differences,

    <mu_n, phi_n> - sum_k <mu_{k+1}, phi_{k+1} - phi_k>
        = sum_k <mu_{k+1} - mu_k, phi_k>        (Abel summation, exact),

and the state pairing uses the gradient-with-zero-boundary convention, so for
a field mu solved from source g the identity Upsilon_mu(phi) = sum_k dt
lam_k <g_k Law_k, grad phi_k> holds to rounding (plus truncation flux, which
is Poisson-tail small).  With g = grad psi that sum IS [psi, phi]: the Riesz
duality becomes a machine-precision identity on the lattice instead of an
O(dt) approximation.  The excitation in the stepper, in J and in Upsilon is
one quadrature by construction: each pushes its path through a
``meanfield.Excitation`` memory.

The linearized solver is the birth-ladder stepper of the fluctuation field
(``fluct._ladder_path``) driven by the source instead of noise.  Read
backward, the same ladder gives the field rate in closed form: a field mu
from the stepper carries, at every step, a flux a_k(x) = g_k(x) Law_k(x),
and on the lattice, over test functions with phi(t, K) = 0 (a constant shift
is invisible to [., .], and Upsilon sees it only through the truncation flux),

    I(mu) = (1/2) sum_k dt lam_k sum_{x<K} a_k(x)^2 / Law_k(x),

attained at grad phi* = a / Law: the lattice H^{-1}(Law) norm of the
McKean-Vlasov rate.  ``rate_field`` evaluates it over the shared work
``_Functionals``; a caller that already holds that work for mu calls its
``rate`` method.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fluct import _BLOCK, FieldPath, _ladder, _ladder_path
from .meanfield import Excitation, MeanPath, TimeGrid, limit_law_path
from .model import Kernel, RateFn

__all__ = [
    "TestFunction",
    "MeanDeviationPath",
    "rate_mean",
    "inner",
    "upsilon",
    "solve_linearized",
    "linearized_from_test_function",
    "rate_field",
]


@dataclass(frozen=True)
class TestFunction:
    """Test function phi(t, x) tabulated on grid x {0..K}.

    ``grad[k, x] = values[k, x+1] - values[k, x]`` with the boundary column
    grad[:, K] set to zero (one-sided zero extension of the gradient at the
    truncation edge); it is built on first read.  No time derivative is kept:
    the quadratures in this module pair value differences instead (see the
    module docstring).  Both tables are read-only.  A function constant in
    time (``identity``, ``indicator_geq``) stores one state row, and its
    tables are ``np.broadcast_to`` views of that row with time stride 0.
    """

    grid: TimeGrid
    K: int
    values: np.ndarray

    @staticmethod
    def _grad(v: np.ndarray) -> np.ndarray:
        grad = np.zeros_like(v)
        np.subtract(v[..., 1:], v[..., :-1], out=grad[..., :-1])
        return grad

    @functools.cached_property
    def grad(self) -> np.ndarray:
        v = self.values
        if v.strides[0] == 0:
            return np.broadcast_to(self._grad(v[0]), v.shape)
        grad = self._grad(v)
        grad.flags.writeable = False
        return grad

    @classmethod
    def from_values(cls, grid: TimeGrid, K: int, values) -> "TestFunction":
        v = np.array(values, dtype=float, order="C")
        if v.shape != (grid.n + 1, K + 1):
            raise ValueError(f"values must be (n+1) x (K+1) = {(grid.n + 1, K + 1)}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("test function values must be finite")
        return cls._owning(grid, K, v)

    @classmethod
    def _owning(cls, grid: TimeGrid, K: int, v: np.ndarray) -> "TestFunction":
        """Freeze a fresh C-ordered table v, without a copy."""
        v.flags.writeable = False
        return cls(grid=grid, K=K, values=v)

    @classmethod
    def _constant_in_time(cls, grid: TimeGrid, K: int, row: np.ndarray) -> "TestFunction":
        return cls(grid=grid, K=K, values=np.broadcast_to(row, (grid.n + 1, K + 1)))

    @classmethod
    def identity(cls, grid: TimeGrid, K: int) -> "TestFunction":
        """ell(x) = x, the mean-process direction."""
        return cls._constant_in_time(grid, K, np.arange(K + 1, dtype=float))

    @classmethod
    def indicator_geq(cls, grid: TimeGrid, K: int, x0: int) -> "TestFunction":
        """1_{x >= x0}, the coordinate-ladder direction probed by uniqueness."""
        if not 0 <= x0 <= K:
            raise ValueError(f"indicator threshold must lie in [0, {K}], got {x0}")
        return cls._constant_in_time(grid, K, (np.arange(K + 1) >= x0).astype(float))

    @classmethod
    def monomial(cls, grid: TimeGrid, K: int, p: int, q: int) -> "TestFunction":
        """t^p x^q."""
        ts = grid.points[:, None]
        xs = np.arange(K + 1, dtype=float)[None, :]
        return cls._owning(grid, K, ts**p * xs**q)


@dataclass(frozen=True)
class MeanDeviationPath:
    """Scalar deviation path eta with its density; non-AC inputs are flagged.

    ``eta_deriv[k]`` is the density on [t_k, t_{k+1}) so that
    eta[k] = dt * sum_{j<k} eta_deriv[j] when ``ac_flag`` is set.  Absolute
    continuity is declarative: it cannot be decided from samples, so callers
    ingesting step-like data must clear the flag themselves.
    """

    grid: TimeGrid
    eta: np.ndarray
    eta_deriv: np.ndarray
    ac_flag: bool = True

    @classmethod
    def from_values(cls, grid: TimeGrid, values, ac_flag: bool = True) -> "MeanDeviationPath":
        v = np.array(values, dtype=float)
        if v.shape != (grid.n + 1,):
            raise ValueError("eta needs one value per grid point")
        if v[0] != 0.0:
            raise ValueError("deviation paths start at 0")
        d = np.diff(v) / grid.dt if grid.n else np.zeros(0)
        v.flags.writeable = False
        d.flags.writeable = False
        return cls(grid=grid, eta=v, eta_deriv=d, ac_flag=ac_flag)


def _check_match(a_grid: TimeGrid, b_grid: TimeGrid, a_K: int, b_K: int) -> None:
    if a_grid.n != b_grid.n or abs(a_grid.dt - b_grid.dt) > 1e-12 * max(1.0, a_grid.dt):
        raise ValueError("mismatched time discretizations")
    if a_K != b_K:
        raise ValueError(f"mismatched state truncations: {a_K} vs {b_K}")


def rate_mean(
    eta: MeanDeviationPath, mean: MeanPath, kernel: Kernel, rate: RateFn
) -> float:
    """Closed-form scalar rate J(eta); +inf for paths flagged non-AC.

    J = (1/2) sum_k dt (eta'_k - phi'(c_k) int_0^{t_k} h(t_k - s) deta_s)^2
        / lam_k over the left endpoints, the discrete twin of the
    absolutely-continuous branch of the rate function.
    """
    if not eta.ac_flag:
        return math.inf
    if eta.grid.n != mean.grid.n or abs(eta.grid.dt - mean.grid.dt) > 1e-12:
        raise ValueError("eta and mean must share one grid")
    n, dt = eta.grid.n, eta.grid.dt
    lam = mean.lam[:n]
    if np.any(lam <= 0.0):
        raise ValueError("limit intensity must be positive; the model violates its floor")
    phid = np.atleast_1d(rate.deriv(mean.excitation))[:n]
    conv = Excitation.path(kernel, eta.grid, eta.eta[:n])
    num = eta.eta_deriv - phid * conv
    return 0.5 * float(np.sum(dt * num * num / lam))


class _Functionals:
    """The work that [., .], Upsilon_mu and I(mu) share across test functions.

    Built once per (mean, K) and, for Upsilon and I, per field mu: the limit
    law path, the dt * lam weights and, with mu, the excitation response of
    <mu, ell> times dt * phi'(c).  ``inner`` and ``upsilon`` then cost one
    contraction per call instead of a law path (and an O(n^2) convolution)
    per call, and ``rate`` one backward read of mu.
    """

    def __init__(
        self,
        mean: MeanPath,
        K: int,
        mu: FieldPath | None = None,
        kernel: Kernel | None = None,
        rate: RateFn | None = None,
    ):
        if mu is not None:
            _check_match(mu.grid, mean.grid, mu.K, K)
        self.mean, self.K, self.mu = mean, K, mu
        n, dt = mean.grid.n, mean.grid.dt
        self.law = limit_law_path(mean, K)[:n]
        self.w = dt * mean.lam[:n]
        if mu is not None:
            states = np.arange(K + 1, dtype=float)
            conv = Excitation.path(kernel, mu.grid, (mu.values @ states)[:n])
            phid = np.atleast_1d(rate.deriv(mean.excitation))[:n]
            self.w_feedback = dt * phid * conv

    def inner(self, f: TestFunction, g: TestFunction) -> float:
        _check_match(f.grid, g.grid, f.K, g.K)
        _check_match(f.grid, self.mean.grid, f.K, self.K)
        n = self.mean.grid.n
        return float(np.einsum("k,kx,kx,kx->", self.w, self.law, f.grad[:n], g.grad[:n]))

    def upsilon(self, phi: TestFunction) -> float:
        mu = self.mu
        _check_match(mu.grid, phi.grid, mu.K, phi.K)
        n = mu.grid.n
        v = mu.values
        pairing = float(v[n] @ phi.values[n])
        # a function constant in time (time stride 0) has no time differences
        # to pair: the skipped transport term is an exact zero.  The
        # differences die here, before phi's gradient is read (and built).
        if n and phi.values.strides[0]:
            pairing -= float(np.einsum("kx,kx->", v[1:], phi.values[1:] - phi.values[:-1]))
        drift = float(np.einsum("k,kx,kx->", self.w, v[:n], phi.grad[:n]))
        feedback = float(np.einsum("k,kx,kx->", self.w_feedback, self.law, phi.grad[:n]))
        return pairing - drift - feedback

    def rate(self) -> tuple[float, np.ndarray]:
        """I(mu) and grad phi*, read backward off the birth ladder.

        The residual of mu against the unforced ladder (feedback included),
        mu_{k+1} - mu_k - w_k ladder(mu_k) - w_feedback_k ladder(Law_k), is
        w_k (a_k(x-1) - a_k(x)) for the flux a_k of the field's source.  It
        is summed top-down from a_k(K), the mass-defect increment less the
        two known fluxes out of state K; summed bottom-up, a would cancel
        against the Poisson tail of Law.  Returns
        I = (1/2) sum_k w_k sum_{x<K} a_k(x)^2 / Law_k(x), with 0/0 = 0, and
        grad phi* = a / Law with one row per step and column K zero.  Raises
        ValueError for a field that is not a ladder solution: an empirical
        field (``overflow`` set), one that does not start at zero, or one
        with flux at a state the law does not reach.
        """
        mu, law, w, K = self.mu, self.law, self.w, self.K
        if mu.overflow is not None:
            raise ValueError("an empirical field is not a birth-ladder solution")
        v = mu.values
        if np.any(v[0] != 0.0):
            raise ValueError("a birth-ladder solution starts at zero")
        n = law.shape[0]
        top = (np.diff(mu.mass_defect) - w * v[:-1, K] - self.w_feedback * law[:, K]) / w
        # a, as the reversed view of its C-ordered top-down sums, filled in place
        sums = np.empty((n, K))
        flux = sums[:, ::-1]
        grad = np.zeros_like(law)
        # row by row and elementwise, so each block of steps gives the bits of the whole table
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            # (a_k(x-1) - a_k(x)) for every step of the block and every state
            step = _ladder(v[lo:hi])
            step *= -w[lo:hi, None]
            step += v[lo + 1 : hi + 1]
            step -= v[lo:hi]
            feedback = _ladder(law[lo:hi])
            feedback *= self.w_feedback[lo:hi, None]
            step -= feedback
            step /= w[lo:hi, None]
            # a_k(x) = a_k(K) + sum_{y > x} (a_k(y-1) - a_k(y)) for x < K
            np.cumsum(step[:, :0:-1], axis=1, out=sums[lo:hi])
            flux[lo:hi] += top[lo:hi, None]
            reached = law[lo:hi, :K] > 0.0
            if np.any(flux[lo:hi][~reached] != 0.0):
                raise ValueError("the field carries flux at a state the limit law does not reach")
            np.divide(flux[lo:hi], law[lo:hi, :K], out=grad[lo:hi, :K], where=reached)
        return 0.5 * float(np.einsum("k,kx,kx->", w, flux, grad[:, :K])), grad


def inner(f: TestFunction, g: TestFunction, mean: MeanPath, K: int) -> float:
    """Excitation-weighted scalar product [f, g] on the truncated lattice."""
    return _Functionals(mean, K).inner(f, g)


def upsilon(
    mu: FieldPath, phi: TestFunction, mean: MeanPath, kernel: Kernel, rate: RateFn
) -> float:
    """Linear functional Upsilon_mu(phi): terminal pairing minus the transport,
    gradient-drift, and excitation-feedback integrals."""
    return _Functionals(mean, mu.K, mu, kernel, rate).upsilon(phi)


def solve_linearized(
    g: np.ndarray,
    mean: MeanPath,
    kernel: Kernel,
    rate: RateFn,
    K: int,
) -> FieldPath:
    """Forward-Euler solution of the linearized dynamics with source g(t, x).

    Strong birth-ladder form (the noise of the fluctuation field replaced by
    the deterministic source):

        mu_{k+1}(x) = mu_k(x) + dt [ lam_k (mu_k(x-1) - mu_k(x))
                     + phi'(c_k) H_k (Law_k(x-1) - Law_k(x))
                     + lam_k (g_k(x-1) Law_k(x-1) - g_k(x) Law_k(x)) ],

    with mu_0 = 0, H_k the excitation response of <mu, ell>, and the flux out
    of state K dropped into the mass defect; stepped by ``fluct._ladder_path``.
    """
    n = mean.grid.n
    gv = np.asarray(g, dtype=float)
    if gv.shape != (n + 1, K + 1):
        raise ValueError(f"source must be (n+1) x (K+1) = {(n + 1, K + 1)}, got {gv.shape}")
    if not np.all(np.isfinite(gv)):
        raise ValueError("source values must be finite")
    law = limit_law_path(mean, K)[:n]
    return _ladder_path(mean, kernel, rate, law, g=gv[:n])


def linearized_from_test_function(
    psi: TestFunction, mean: MeanPath, kernel: Kernel, rate: RateFn
) -> FieldPath:
    """mu^psi: the linearized solution with source g = grad psi."""
    return solve_linearized(psi.grad, mean, kernel, rate, psi.K)


def rate_field(
    mu: FieldPath, mean: MeanPath, kernel: Kernel, rate: RateFn
) -> tuple[float, np.ndarray]:
    """The field rate I(mu) and the gradient of its maximizer, in closed form.

    Returns (I, grad phi*) with I = (1/2) sum_k dt lam_k sum_{x<K}
    a_k(x)^2 / Law_k(x) for the flux a of mu's source and grad phi* = a / Law,
    one row per grid step with column K zero.  Raises ValueError for a field
    that is not a birth-ladder solution, such as an empirical one.
    """
    return _Functionals(mean, mu.K, mu, kernel, rate).rate()
