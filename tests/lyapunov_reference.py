"""An independent reference for the scalar CLT variance of an exponential kernel.

Imported by the tests only: it shares no code with ``fluct.limit_mean_variance``.
"""

import numpy as np

from hawkes_meanfield.meanfield import MeanPath
from hawkes_meanfield.model import Kernel, RateFn


def _variance_lyapunov(mean: MeanPath, kernel: Kernel, rate: RateFn) -> float:
    """Var X_T for an exponential kernel by another route: close the SDE with Y_t = int h(t-s) dX_s.

    The tests hold ``fluct.limit_mean_variance`` to it.

    For h(t) = a e^{-bt} the pair (X, Y) is Markov:
        dX = sig_t Y dt + sqrt(lam_t) dW,
        dY = (a sig_t - b) Y dt + a sqrt(lam_t) dW,   sig_t = phi'(c_t),
    and the covariance P = [[Var X, Cov], [Cov, Var Y]] solves
        P11' = 2 sig P12 + lam
        P12' = (a sig - b) P12 + sig P22 + a lam
        P22' = 2 (a sig - b) P22 + a^2 lam,
    integrated here with RK4 and linear interpolation of lam and sig, taken
    once at every stage time t_k, t_k + dt/2 and t_k + dt.
    """
    grid = mean.grid
    n, dt = grid.n, grid.dt
    a_k, b_k = kernel.a, kernel.b
    ts = grid.points
    sig = np.atleast_1d(rate.deriv(mean.excitation))
    stages = np.stack([ts[:n], ts[:n] + dt / 2, ts[:n] + dt])
    lam0, lam_h, lam1 = np.interp(stages, ts, mean.lam).tolist()
    sig0, sig_h, sig1 = np.interp(stages, ts, sig).tolist()

    def rhs(l, s, p):
        p11, p12, p22 = p
        return np.array(
            [
                2.0 * s * p12 + l,
                (a_k * s - b_k) * p12 + s * p22 + a_k * l,
                2.0 * (a_k * s - b_k) * p22 + a_k * a_k * l,
            ]
        )

    p = np.zeros(3)
    for k in range(n):
        k1 = rhs(lam0[k], sig0[k], p)
        k2 = rhs(lam_h[k], sig_h[k], p + dt / 2 * k1)
        k3 = rhs(lam_h[k], sig_h[k], p + dt / 2 * k2)
        k4 = rhs(lam1[k], sig1[k], p + dt * k3)
        p = p + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return float(p[0])
