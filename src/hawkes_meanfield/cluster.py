"""Exact cluster-form sampler of the interacting system for an affine rate.

For an affine phi the superposition of the N particles is a linear Hawkes
process (Hawkes & Oakes 1974), drawn generation by generation from its
immigrant-offspring form in numpy.  It is equal in law to the thinning of
:mod:`hawkes_meanfield.engine`, not path by path, and has no coupled or
tilted mode.  One generation loop steps a batch of seeds at once:
``cluster_counts`` reads each particle's jump count off it, and
``simulate_cluster`` is its one-seed case, sorted into an ``EventLog``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .engine import EventLog, _particle_major
from .model import Kernel, RateFn
from .rng import ragged_words, seed_keys, uniform_of, words_at

__all__ = ["simulate_cluster", "cluster_counts", "cluster_batch"]

# largest child-count mean: exp(-mean), where the Poisson inversion starts,
# stays a normal float
_POISSON_MEAN_CEILING = 700.0
# immigrant words a batch of replicas draws at once
_CLUSTER_WORDS = 8192


def _kernel_mass(kernel: Kernel, T: float):
    """H(tau) = int_0^tau h for tau in [0, T], and its inverse, as array functions.

    The inverse maps y in [0, H(tau)] to a lag whose H is y; callers clip it
    to tau, which only rounding can exceed.  ``ValueError`` if h < 0
    somewhere on [0, T].
    """
    if kernel.kind == "tabulated":
        # h on [0, T] is linear between these knots, so H is quadratic between them
        knots = np.append(kernel.grid[kernel.grid < T], T)
        vals = np.interp(knots, kernel.grid, kernel.values)
        if np.any(vals < 0.0):
            raise ValueError("the cluster sampler needs h >= 0 on [0, T]")
        widths = np.diff(knots)
        slopes = np.append(np.diff(vals) / widths, 0.0)  # flat past T, reached only by rounding
        cum = np.concatenate(([0.0], np.cumsum(widths * 0.5 * (vals[:-1] + vals[1:]))))

        def mass(tau):
            j = np.searchsorted(knots, tau, side="right") - 1
            x = tau - knots[j]
            return cum[j] + x * (vals[j] + 0.5 * slopes[j] * x)

        def inverse(y):
            # x with vals[j] x + slopes[j] x^2 / 2 = r, in the form without cancellation
            j = np.searchsorted(cum, y, side="right") - 1
            r = y - cum[j]
            den = vals[j] + np.sqrt(np.maximum(vals[j] ** 2 + 2.0 * slopes[j] * r, 0.0))
            return knots[j] + np.divide(2.0 * r, den, out=np.zeros_like(r), where=den > 0.0)

        return mass, inverse
    if kernel.a < 0.0:
        raise ValueError("the cluster sampler needs h >= 0 on [0, T]")
    if kernel.kind == "exponential":
        scale, b = kernel.a / kernel.b, kernel.b
        return (
            lambda tau: scale * -np.expm1(-b * tau),
            lambda y: -np.log1p(-np.minimum(y / scale, 1.0)) / b,
        )
    level = kernel.a if kernel.kind == "constant" else 0.0
    return (lambda tau: level * tau), (lambda y: y / level)


def _poisson_inverse(mu: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Poisson(mu_i) counts by inversion: the least k with u_i < P(Poisson(mu_i) <= k)."""
    p = np.exp(-mu)
    cdf = p.copy()
    k = np.zeros(mu.size, dtype=np.int64)
    live = np.flatnonzero(u >= cdf)
    while live.size:
        k[live] += 1
        p[live] *= mu[live] / k[live]
        cdf[live] += p[live]
        # a cdf that rounding stalls below u stops once its terms vanish past the mode
        live = live[(u[live] >= cdf[live]) & ((p[live] > 0.0) | (k[live] <= mu[live]))]
    return k


def _immigrant_block(expected: float) -> int:
    """Immigrant spacings a cluster replica draws at once: the expected count
    and six standard deviations, so that a second block is rare."""
    return int(expected + 6.0 * math.sqrt(expected)) + 16


def cluster_batch(N: int, rate: RateFn, T: float) -> int:
    """How many seeds one :func:`cluster_counts` call should step: about
    ``_CLUSTER_WORDS`` immigrant words, which keeps a batch's arrays near 1 MB."""
    return max(1, _CLUSTER_WORDS // _immigrant_block(N * rate.base * T))


def _cluster_generations(N: int, kernel: Kernel, rate: RateFn, T: float, seeds: Sequence[int]):
    """Yield (replica, times, owner uniforms) of each generation of the cluster-form
    systems of ``seeds``, stepped together.

    Entries are grouped by replica, in each replica's draw order.  Replica r
    draws generation g from the stream ``MarkStream(seeds[r], g)``, word for
    word as a loop over its seed alone would: the immigrant blocks, then the
    immigrants' owners; in each later generation the child counts' uniforms,
    then the lags, then the owners.  Every float operation is elementwise, or
    a cumsum along one replica's row, so no replica's bits depend on the others.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if not T > 0:
        raise ValueError(f"need T > 0, got {T}")
    if rate.kind != "affine":
        raise ValueError(f"the cluster sampler needs an affine rate, got {rate.kind!r}")
    mass, inverse = _kernel_mass(kernel, T)
    reach = rate.slope * float(mass(np.float64(T)))  # the largest child-count mean
    if not reach <= _POISSON_MEAN_CEILING:
        raise ValueError(f"child counts of mean above {_POISSON_MEAN_CEILING} are out of the inversion's range")
    seeds = np.array([int(s) % (1 << 64) for s in seeds], dtype=np.uint64)
    R = seeds.size
    keys = seed_keys(seeds, 0)
    immigration = N * rate.base
    block = _immigrant_block(immigration * T)
    # immigrants: each replica's arrivals are its spacings' running sum after
    # its last arrival, a block at a time until that arrival passes T
    used = np.zeros(R, dtype=np.int64)
    last = np.zeros(R)
    rows = np.arange(R)
    reps, times = [], []
    while True:  # at least once, so that no seeds give empty arrays
        u = uniform_of(words_at(keys[rows, None], used[rows, None] + np.arange(1, block + 1)))
        arrivals = np.cumsum(-np.log1p(-u) / immigration, axis=1)
        arrivals += last[rows, None]
        inside = arrivals <= T  # a prefix of each row: arrivals never fall
        reps.append(np.repeat(rows, np.count_nonzero(inside, axis=1)))
        times.append(arrivals[inside])
        used[rows] += block
        last[rows] = arrivals[:, -1]
        rows = rows[last[rows] <= T]
        if not rows.size:
            break
    rep, parents = np.concatenate(reps), np.concatenate(times)
    if len(reps) > 1:  # regroup a second block's arrivals behind their replica's first
        order = np.argsort(rep, kind="stable")
        rep, parents = rep[order], parents[order]
    yield rep, parents, uniform_of(ragged_words(keys, used, np.bincount(rep, minlength=R)))
    generation = 0
    while parents.size and reach > 0.0:
        generation += 1
        keys = seed_keys(seeds, generation)
        sizes = np.bincount(rep, minlength=R)
        room = T - parents
        masses = mass(room)
        kids = _poisson_inverse(rate.slope * masses, uniform_of(ragged_words(keys, np.zeros(R, np.int64), sizes)))
        rep = np.repeat(rep, kids)
        born = np.bincount(rep, minlength=R)
        lags = uniform_of(ragged_words(keys, sizes, born))
        owners = uniform_of(ragged_words(keys, sizes + born, born))
        lags = np.minimum(inverse(lags * np.repeat(masses, kids)), np.repeat(room, kids))
        parents = np.minimum(np.repeat(parents, kids) + lags, T)
        yield rep, parents, owners


def simulate_cluster(N: int, kernel: Kernel, rate: RateFn, T: float, seed: int) -> EventLog:
    """Exact-in-law sample of the N-particle system for an affine phi, by its cluster form.

    For phi(x) = base + slope * x the superposition of the N particles is a
    linear Hawkes process (Hawkes & Oakes 1974): immigrants arrive at rate
    N * base, an event at s has Poisson(slope * H(T - s)) children on (s, T]
    with H = int_0 h, whose lags have density h / H(T - s), and each event
    belongs to a particle drawn uniformly and independently.  The log is drawn
    generation by generation: immigrants as exponential spacings, child counts
    by Poisson inversion, lags by the exact inverse of H, then the owners.
    Generation g draws its words from ``MarkStream(seed, g)`` in that order.
    The loop steps a batch of seeds at once (:func:`cluster_counts`); this is
    its one-seed case, stably sorted by time into a log.

    Equal in law to :func:`simulate_hawkes`, not path by path.  ``ValueError``
    for a non-affine phi, a kernel negative on [0, T], or a child count whose
    mean exceeds the range of the inversion.
    """
    generations = list(_cluster_generations(N, kernel, rate, T, [seed]))
    times = np.concatenate([t for _, t, _ in generations])
    order = np.argsort(times, kind="stable")
    owner = (np.concatenate([u for _, _, u in generations])[order] * N).astype(np.int64)
    return EventLog._from_flat(N, T, *_particle_major(times[order], owner, N), seed, "hawkes")


def cluster_counts(N: int, kernel: Kernel, rate: RateFn, T: float, seeds: Sequence[int]) -> np.ndarray:
    """Each particle's jump count at T in the cluster-form system of each seed, shape (len(seeds), N).

    Row r equals ``simulate_cluster(N, kernel, rate, T, seeds[r]).sizes``: one
    generation loop steps every seed, and the counts are a bincount of the
    owners, with no sort and no log.  Its arrays grow with the number of
    seeds; :func:`cluster_batch` gives a batch of about 1 MB.
    """
    R = len(seeds)
    owners = [rep * N + (u * N).astype(np.int64) for rep, _, u in _cluster_generations(N, kernel, rate, T, seeds)]
    return np.bincount(np.concatenate(owners), minlength=R * N).reshape(R, N)
