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
O(dt) approximation.

The linearized solver is the birth-ladder stepper of the fluctuation field
(``fluct._ladder_path``) driven by the source instead of noise.  ``rate_field``
is one Galerkin solve (``_galerkin``) over the shared work ``_Functionals``;
a caller that already holds that work for mu passes it to ``_galerkin``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fluct import FieldPath, _ladder_path
from .meanfield import MeanPath, TimeGrid, limit_law_path
from .model import Kernel, RateFn

__all__ = [
    "TestFunction",
    "MeanDeviationPath",
    "GramConditioningError",
    "rate_mean",
    "inner",
    "upsilon",
    "solve_linearized",
    "linearized_from_test_function",
    "rate_field",
    "default_basis",
]

# ridge added to the Gram matrix, relative to its mean diagonal
_RIDGE_SCALE = 1e-10


class GramConditioningError(np.linalg.LinAlgError):
    """Gram matrix numerically singular even after ridge regularization."""


@dataclass(frozen=True)
class TestFunction:
    """Test function phi(t, x) tabulated on grid x {0..K}.

    ``grad[k, x] = values[k, x+1] - values[k, x]`` with the boundary column
    grad[:, K] set to zero (one-sided zero extension of the gradient at the
    truncation edge, flagged by ``boundary_zeroed``).  No time derivative is
    kept: the quadratures in this module pair value differences instead (see
    the module docstring).
    """

    grid: TimeGrid
    K: int
    values: np.ndarray
    grad: np.ndarray
    boundary_zeroed: bool = True

    @classmethod
    def from_values(cls, grid: TimeGrid, K: int, values) -> "TestFunction":
        v = np.array(values, dtype=float)
        if v.shape != (grid.n + 1, K + 1):
            raise ValueError(f"values must be (n+1) x (K+1) = {(grid.n + 1, K + 1)}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("test function values must be finite")
        grad = np.zeros_like(v)
        grad[:, :-1] = v[:, 1:] - v[:, :-1]
        v.flags.writeable = False
        grad.flags.writeable = False
        return cls(grid=grid, K=K, values=v, grad=grad)

    @classmethod
    def identity(cls, grid: TimeGrid, K: int) -> "TestFunction":
        """ell(x) = x, the mean-process direction."""
        v = np.tile(np.arange(K + 1, dtype=float), (grid.n + 1, 1))
        return cls.from_values(grid, K, v)

    @classmethod
    def indicator_geq(cls, grid: TimeGrid, K: int, x0: int) -> "TestFunction":
        """1_{x >= x0}, the coordinate-ladder direction probed by uniqueness."""
        if not 0 <= x0 <= K:
            raise ValueError(f"indicator threshold must lie in [0, {K}], got {x0}")
        v = np.tile((np.arange(K + 1) >= x0).astype(float), (grid.n + 1, 1))
        return cls.from_values(grid, K, v)

    @classmethod
    def monomial(cls, grid: TimeGrid, K: int, p: int, q: int) -> "TestFunction":
        """t^p x^q."""
        ts = grid.points[:, None]
        xs = np.arange(K + 1, dtype=float)[None, :]
        return cls.from_values(grid, K, ts**p * xs**q)


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

    @classmethod
    def from_density(cls, grid: TimeGrid, density) -> "MeanDeviationPath":
        d = np.array(density, dtype=float)
        if d.shape != (grid.n,):
            raise ValueError("density needs one value per grid cell")
        v = np.concatenate([[0.0], np.cumsum(d) * grid.dt])
        v.flags.writeable = False
        d.flags.writeable = False
        return cls(grid=grid, eta=v, eta_deriv=d, ac_flag=True)


def _excitation_left(kernel: Kernel, grid: TimeGrid, f: np.ndarray) -> np.ndarray:
    """H_k = h(0) f_k + dt sum_{j<k} h'(t_k - t_j) f_j for all k (left-rectangle).

    This is the quadrature the explicit steppers use; the rate functionals
    must reuse it verbatim for the discrete duality to hold.
    """
    n = grid.n
    if n == 0:
        return np.zeros(1) + float(kernel.eval(0.0)) * f
    h0 = float(kernel.eval(0.0))
    hp = np.atleast_1d(kernel.deriv(grid.points))
    full = np.convolve(hp, f)[: n + 1]
    return h0 * f + grid.dt * (full - hp[0] * f)


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
    conv = _excitation_left(kernel, eta.grid, eta.eta)[:n]
    num = eta.eta_deriv - phid * conv
    return 0.5 * float(np.sum(dt * num * num / lam))


class _Functionals:
    """The work that [., .] and Upsilon_mu share across test functions.

    Built once per (mean, K) and, for Upsilon, per field mu: the limit law
    path, the dt * lam weights and, with mu, the excitation response of
    <mu, ell> times dt * phi'(c).  ``inner`` and ``upsilon`` then cost one
    contraction per call instead of a law path (and an O(n^2) convolution)
    per call.  The contractions stay one einsum per pair: stacking a basis
    into one contraction changes the summation order, and with it the last
    bits of every rate and residual.
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
            conv = _excitation_left(kernel, mu.grid, mu.values @ states)[:n]
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
        term1 = float(v[n] @ phi.values[n])
        term2 = float(np.einsum("kx,kx->", v[1:], phi.values[1:] - phi.values[:-1])) if n else 0.0
        term3 = float(np.einsum("k,kx,kx->", self.w, v[:n], phi.grad[:n]))
        term4 = float(np.einsum("k,kx,kx->", self.w_feedback, self.law, phi.grad[:n]))
        return term1 - term2 - term3 - term4


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
    return _ladder_path(mean, kernel, rate, law, gv[:n] * law, np.zeros_like(law))


def linearized_from_test_function(
    psi: TestFunction, mean: MeanPath, kernel: Kernel, rate: RateFn
) -> FieldPath:
    """mu^psi: the linearized solution with source g = grad psi."""
    return solve_linearized(psi.grad, mean, kernel, rate, psi.K)


def _galerkin(forms: _Functionals, basis: Sequence[TestFunction]) -> tuple[float, np.ndarray]:
    """Solve (G + ridge I) c = b with G_ij = [phi_i, phi_j], b_i = Upsilon_mu(phi_i).

    Returns (b . c / 2, c); ``forms`` carries the field mu.
    """
    if len(basis) < 1:
        raise ValueError("rate_field needs a nonempty basis")
    d = len(basis)
    G = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            G[i, j] = G[j, i] = forms.inner(basis[i], basis[j])
    b = np.array([forms.upsilon(phi) for phi in basis])
    ridge = _RIDGE_SCALE * float(np.trace(G)) / d
    A = G + ridge * np.eye(d)
    try:
        c = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise GramConditioningError(
            f"Gram matrix singular after ridge {ridge:.3e}; cond(G)={np.linalg.cond(G):.3e}"
        ) from exc
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e14:
        raise GramConditioningError(
            f"Gram matrix ill-conditioned after ridge {ridge:.3e}: cond={cond:.3e}"
        )
    return max(0.5 * float(b @ c), 0.0), c


def rate_field(
    mu: FieldPath,
    basis: Sequence[TestFunction],
    mean: MeanPath,
    kernel: Kernel,
    rate: RateFn,
) -> tuple[float, np.ndarray]:
    """Galerkin lower bound on the field rate I(mu) over span(basis).

    Returns (b . c / 2, c) for the ridge-regularized Gram system of the
    basis.  Exact whenever the Riesz representative of Upsilon_mu lies in the
    span; a lower bound otherwise.
    """
    return _galerkin(_Functionals(mean, mu.K, mu, kernel, rate), basis)


def default_basis(
    grid: TimeGrid,
    K: int,
    indicators: int = 5,
    monomials: Sequence[tuple[int, int]] = ((1, 1), (0, 2), (2, 1)),
) -> list[TestFunction]:
    """Identity direction, coordinate ladder indicators, and low-order monomials."""
    fam = [TestFunction.identity(grid, K)]
    for x0 in range(1, min(indicators, K) + 1):
        fam.append(TestFunction.indicator_geq(grid, K, x0))
    for p, q in monomials:
        fam.append(TestFunction.monomial(grid, K, p, q))
    return fam
