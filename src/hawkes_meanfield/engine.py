"""Exact thinning simulation of the interacting particle system.

All three stochastic systems (the interacting counting processes, the
inhomogeneous-Poisson comparison system sharing the same randomness, and the
exponentially tilted variant) are sampled by one walk that thins candidate
points against a dominating rate.  Candidates live on a common deformed clock:
with ``Lbar(t) = int_0^t lbar(s) ds`` the running integral of the per-particle
dominating rate, each particle's candidates are the partial sums of its own
unit exponentials in ``Lbar`` time.  The dominating rate

    lbar = phi(0) + alpha * ||h||_sup[0,T] * Zbar_t

is constant between accepted jumps (the empirical mean ``Zbar`` only moves at
jumps, h >= 0, and phi is alpha-Lipschitz), so the deformed clock is piecewise
linear and candidates can be mapped to real time one at a time, in order,
without ever discarding or re-drawing pending candidates.  Floating-point ties
across particles are broken by particle index.

Since the dominating rate never falls, every candidate whose clock lies within
``(T - t) * lbar`` of the current clock maps to a time in (0, T], whatever
jumps come first.  The walk therefore proceeds in rounds: all candidates
inside that bound draw their marks and next clocks at once, and a sort by
(clock, particle) merges them.  Each stream draws exactly the words a
candidate-by-candidate walk would draw.  Only the draws differ by mode: the
coupled mode holds its streams as arrays (``rng.StreamArray``), mixes a
round's words at once and takes every gap's logarithm from libm in one numpy
call (``rng.exponential_of``), while the interacting and tilted modes draw
the same values one ``MarkStream`` call at a time.

One accept walk serves all three modes.  It decides the sorted round in
speculative blocks of about N candidates: guess which are accepted, compute
from the guess the dominating rate of each candidate (from the running count
of accepts), its time (a cumsum, whose in-order additions give a
candidate-by-candidate walk's bits), the excitation (one vectorized memory
per kernel kind) and, in tilted mode, the count of the candidate's particle
(its committed jumps plus its guessed ones earlier in the block), decide
``u * lbar < lambda`` again, and commit every candidate up to and including
the first decision that differs from its guess: each decision depends only
on earlier ones.  Jump times depend only on the clocks and the count of
accepts, never on the bits of the intensity, whose last bits could decide an
accept only at an exact tie with ``u * lbar``.  So numpy's ``exp`` may enter
the intensity, but only libm's ``log`` enters a clock: numpy's vectorized
``log`` and ``exp`` differ from libm's in the last bit on some arguments, and
on which ones depends on the host.  The array draws reach libm's ``log``
through numpy's scalar loop, which a reversed 1-D array takes; a probe
checks once a process that its bits are ``math.log``'s, and ``math.log``
itself is taken when they are not.

Each particle consumes its own counter-based stream, which is what makes the
shared-randomness coupling and the tilted variant well defined: the same
(seed, particle) pair replays the same candidate points and acceptance marks
under every mode.

The limit intensity of the Poisson comparison system feeds nothing back into
the walk, so the coupled mode records the time and dominating rate of every
candidate (its particle and mark are known from the rounds) and accepts the
Poisson log in one vectorized pass after the walk.  The bound checks
therefore run in this order: the interacting intensity against the dominating
rate at each candidate during the walk, then the limit intensity at every
candidate after it, where the first violating candidate raises
``SimulationError``.  ``coupled_sup_difference`` reads the two logs'
per-particle sup-difference off the same candidates, without the logs.

For an affine phi the interacting system has a second exact sampler, its
cluster form, in :mod:`hawkes_meanfield.cluster`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import BinaryIO, Sequence

import numpy as np

from . import _text
from .meanfield import MeanPath, TimeGrid
from .model import Kernel, RateFn, kernel_norms
from .rng import MarkStream, StreamArray, exponential_of, uniform_of

__all__ = [
    "EventLog",
    "CouplingLog",
    "SimulationError",
    "simulate_hawkes",
    "simulate_coupled",
    "simulate_perturbed",
    "coupled_sup_difference",
    "sup_path_difference",
    "event_log_to_bytes",
    "event_log_from_bytes",
]

_MAGIC = b"HWKS"
_VERSION = 1

# dominating-rate overflow guard: a per-particle bound beyond this is a model error
_RATE_CEILING = 1e12
# largest clock span of one thinning round, about this many candidates a
# particle: a bound near the ceiling would otherwise draw the whole horizon
# at once, though the next jump overflows it
_ROUND_SPAN = 1024.0
# a speculative block of the coupled walk ends before the exponential
# kernel's growth factor e^{b (t - t_0)} passes e^50, far from overflow
_EXP_SPAN = 50.0


class SimulationError(RuntimeError):
    """Simulation aborted (dominating-rate overflow or inconsistent inputs)."""


@dataclass(frozen=True, init=False, eq=False)
class EventLog:
    """Jump times of one simulated system of N particles on (0, T].

    The log is stored flat: ``times`` holds every jump time, particle by
    particle and sorted within each particle, and particle i owns the next
    ``sizes[i]`` of them; both arrays are read-only.  ``jumps`` gives the
    per-particle view, and ``EventLog(N=, T=, jumps=, seed=, kind=)`` builds a
    log from per-particle arrays.
    """

    N: int
    T: float
    times: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)
    seed: int
    kind: str  # hawkes | mf_poisson | perturbed

    def __init__(self, N: int, T: float, jumps: Sequence, seed: int, kind: str):
        parts = [np.asarray(j, dtype=float).reshape(-1) for j in jumps]
        if len(parts) != N:
            raise ValueError(f"need {N} per-particle jump arrays, got {len(parts)}")
        times = np.concatenate(parts) if parts else np.zeros(0)
        _fill_log(self, N, T, times, np.array([p.size for p in parts], dtype=np.int64), seed, kind)

    @classmethod
    def _from_flat(cls, N: int, T: float, times, sizes, seed: int, kind: str) -> "EventLog":
        """A log from its flat times and per-particle counts (arrays the log then owns)."""
        log = cls.__new__(cls)
        _fill_log(log, N, T, times, sizes, seed, kind)
        return log

    @cached_property
    def jumps(self) -> tuple[np.ndarray, ...]:
        """Per-particle sorted jump times, as read-only views of ``times``."""
        ends = np.cumsum(self.sizes).tolist()
        return tuple(self.times[a:b] for a, b in zip([0] + ends[:-1], ends))

    def counts(self, t: float) -> np.ndarray:
        """Integer count of each particle at time t (jumps at exactly t included)."""
        return np.bincount(_owners(self)[self.times <= t], minlength=self.N).astype(np.int64, copy=False)

    @property
    def total_jumps(self) -> int:
        return int(self.times.size)


def _fill_log(log: EventLog, N, T, times, sizes, seed, kind) -> None:
    times = np.asarray(times, dtype=float)
    sizes = np.asarray(sizes, dtype=np.int64)
    times.flags.writeable = False
    sizes.flags.writeable = False
    fields = {"N": int(N), "T": float(T), "times": times, "sizes": sizes, "seed": seed, "kind": kind}
    for name, value in fields.items():
        object.__setattr__(log, name, value)


def _owners(log: EventLog) -> np.ndarray:
    """The particle of each entry of ``log.times``."""
    return np.repeat(np.arange(log.N), log.sizes)


@dataclass(frozen=True)
class CouplingLog:
    """Jointly simulated pair driven by identical candidates and marks."""

    hawkes: EventLog
    poisson: EventLog
    seed: int


def _particle_major(times, owner, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Jump times listed in walk order, regrouped particle by particle, and the count of each.

    The walk visits jumps in time order, so a stable sort by particle keeps
    each particle's times sorted.
    """
    owner = np.asarray(owner, dtype=np.int64)
    # a stable order is unique, and numpy radix-sorts keys of 16 bits or fewer
    order = np.argsort(owner.astype(np.min_scalar_type(N)), kind="stable")
    return np.asarray(times, dtype=float)[order], np.bincount(owner, minlength=N)


class _ConstBlock:
    # the coupled walk's memories read sum_i h(t_k - t_i) / N at a block of
    # candidate times t_0 <= t_1 <= ... from the committed jumps and a guess
    # of which of the block's candidates are accepted (``before`` counts the
    # jumps, committed or guessed, before each candidate); ``commit(n,
    # accepted)`` then keeps the first n candidates of the last block read.
    # h constant (zero included): level * (jumps so far) / N
    def __init__(self, level: float, N: int):
        self.per_jump = level / N

    def values(self, ts, guess, before):
        return self.per_jump * before

    def commit(self, n, accepted):
        pass


class _ExpBlock:
    # h(t) = a e^{-bt}: the committed jumps' decayed sum s at t_ref, and with
    # x_k = b (t_k - t_0) over a block
    #     value_k = a/N e^{-x_k} (s e^{-b (t_0 - t_ref)} + sum_{j<k accepted} e^{x_j}).
    # A block ends before x passes _EXP_SPAN, so values() may read fewer
    # candidates than it is given.
    def __init__(self, a: float, b: float, N: int):
        self.a_over_n = a / N
        self.b = b
        self.s = 0.0
        self.t_ref = 0.0

    def values(self, ts, guess, before):
        x = ts - ts[0]
        x *= self.b
        n = int(x.searchsorted(_EXP_SPAN, side="right"))  # x[0] = 0, so n >= 1
        self.ts, self.x, self.grow = ts, x[:n], np.exp(x[:n])
        self.s0 = self.s * math.exp(-self.b * (ts[0] - self.t_ref))
        jumps = self.grow * guess[:n]
        # the jumps before each candidate: cumsum less its own term, whose
        # rounding the decay e^{-x} then scales down to an ulp of the value
        sums = jumps.cumsum()
        sums -= jumps
        sums += self.s0
        sums *= np.exp(-self.x)
        sums *= self.a_over_n
        return sums

    def commit(self, n, accepted):
        self.s = (self.s0 + float(self.grow[:n][accepted].sum())) * math.exp(-self.x[n - 1])
        self.t_ref = float(self.ts[n - 1])


class _TabBlock:
    # tabulated kernel, linear between knots g_0 = 0 < ... < g_m, flat past
    # g_m: with P_j(t) the jumps whose lag t - t_i reached knot g_j (by
    # searchsorted), segment j holds c_j = P_j - P_{j+1} jumps of time sum S_j
    # and adds c_j v_j + s_j (c_j (t - g_j) - S_j); each jump past g_m adds v_m
    def __init__(self, kernel: Kernel, N: int):
        g, v = kernel.grid, kernel.values
        self.knots = g[1:, None]
        self.starts = g[:-1, None]
        self.heights = v[:-1, None]
        self.slopes = (np.diff(v) / np.diff(g))[:, None]
        self.tail = v[-1]
        self.times = np.zeros(0)  # committed jump times
        self.sums = np.zeros(1)  # their prefix sums, from 0
        self.inv_n = 1.0 / N

    def values(self, ts, guess, before):
        self.ts = ts
        new = ts[guess]
        times = np.concatenate((self.times, new))
        sums = np.concatenate((self.sums, self.sums[-1] + np.cumsum(new)))
        passed = np.vstack((before, np.searchsorted(times, ts - self.knots, side="right")))
        counts = passed[:-1] - passed[1:]
        held = sums[passed[:-1]] - sums[passed[1:]]
        segments = counts * self.heights + self.slopes * (counts * (ts - self.starts) - held)
        return (passed[-1] * self.tail + segments.sum(axis=0)) * self.inv_n

    def commit(self, n, accepted):
        new = self.ts[:n][accepted]
        self.times = np.concatenate((self.times, new))
        self.sums = np.concatenate((self.sums, self.sums[-1] + np.cumsum(new)))


def _make_block(kernel: Kernel, N: int):
    if kernel.kind in ("zero", "constant"):
        return _ConstBlock(kernel.a, N)
    if kernel.kind == "exponential":
        return _ExpBlock(kernel.a, kernel.b, N)
    return _TabBlock(kernel, N)


def _limit_intensity(mean: MeanPath, t: np.ndarray) -> np.ndarray:
    """Limit intensity at times ``t`` by linear interpolation on its uniform grid."""
    lam = mean.lam
    n = mean.grid.n
    if n == 0:
        return np.full_like(t, lam[0])
    pos = t / mean.grid.dt
    k = pos.astype(np.int64)
    frac = pos - k
    kc = np.minimum(k, n - 1)
    lo = lam[kc]
    return np.where(k >= n, lam[n], lo + frac * (lam[kc + 1] - lo))


def _bound_violation(what: str, lam: float, lam_bar: float, t: float) -> str:
    return (
        f"thinning bound violated: {what} {lam!r} exceeds the dominating rate "
        f"{lam_bar!r} at t={t!r} (kernel norm or Lipschitz constant under-reported?)"
    )


def _next_round(pending: np.ndarray, t: float, q_ref: float, lam_bar: float, T: float):
    """Clock limit and ready streams of the walk's next round, or None once its candidates pass T.

    The dominating rate never falls, so every candidate up to the limit maps
    to a time <= T however many jumps come first: a round draws the marks and
    next clocks of all of them at once.  Every stream draws the same words in
    the same order however the clock is cut into rounds.
    """
    # the horizon less a relative 1e-12, so rounding in the walk's running
    # time cannot carry a candidate of a round past T
    q_lim = q_ref + min((T * (1.0 - 1e-12) - t) * lam_bar, _ROUND_SPAN)
    ready = np.flatnonzero(pending <= q_lim)
    if not ready.size:
        # the smallest pending candidate decides the stop, as a heap's top would
        q_lim = float(pending.min())
        if t + (q_lim - q_ref) / lam_bar > T:
            return None
        ready = np.flatnonzero(pending <= q_lim)
    return q_lim, ready


def _run_thinning(
    mode: str, N: int, kernel: Kernel, rate: RateFn, T: float, seed: int, mean: MeanPath | None = None, **options
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray] | None]:
    """(times, sizes) of the interacting log, and of the Poisson log in coupled mode.

    ``options`` are :func:`_candidates`' tilt and stream-remap arguments.
    """
    cand_t, bars, cand_i, marks, accepted = _candidates(mode, N, kernel, rate, T, seed, mean, **options)
    jumps = _particle_major(cand_t[accepted], cand_i[accepted], N)
    if mode != "coupled":
        return jumps, None
    hit = _poisson_accepts(mean, cand_t, bars, marks)
    return jumps, _particle_major(cand_t[hit], cand_i[hit], N)


def _candidates(
    mode: str,
    N: int,
    kernel: Kernel,
    rate: RateFn,
    T: float,
    seed: int,
    mean: MeanPath | None = None,
    grad_psi: np.ndarray | None = None,
    psi_grid: TimeGrid | None = None,
    tilt: float = 0.0,
    stream_indices: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The walk's candidates in walk order: (time, lbar, particle, mark, accepted)."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if not T > 0:
        raise ValueError(f"need T > 0, got {T}")
    phi0 = float(rate.eval(0.0))
    h_sup, _ = kernel_norms(kernel, T)
    # each accepted jump raises the dominating rate by alpha * ||h||_sup / N
    rise = rate.lipschitz * h_sup
    coupled = mode == "coupled"
    tilted = mode == "perturbed"

    # lbar = max(phi(0) + rise * Zbar, floor) * scale: the floor is the
    # limit intensity's peak in coupled mode, the scale the tilt's in perturbed mode
    floor = -math.inf
    if coupled:
        if mean is None or mean.grid.T < T - 1e-12:
            raise SimulationError("coupled simulation needs a mean path solved on [0, T]")
        floor = float(np.max(mean.lam))

    scale = 1.0
    tilt_of = None
    if tilted:
        if not math.isfinite(tilt):
            raise ValueError(f"need a finite tilt, got {tilt}")
        # exp(tilt * grad_psi) <= exp(max(0, max tilt * grad_psi)) for either sign of the tilt
        try:
            scale = math.exp(max(0.0, float(np.max(tilt * grad_psi))))
        except OverflowError:
            raise SimulationError(f"tilt {tilt} overflows the dominating rate; model is pathological") from None
        tilt_of = _tilt_reader(grad_psi, psi_grid, tilt)

    def bound(total: int) -> float:
        lb = phi0 + rise * (total / N)
        if floor > lb:
            lb = floor
        lb *= scale
        if not (lb < _RATE_CEILING):
            raise SimulationError(f"dominating rate {lb:.3e} overflows; model is pathological")
        return lb

    def bounds(before: np.ndarray) -> np.ndarray:
        # bound() at each count of a block: fmax is its "if floor > lb" for
        # every lb it can see (a NaN floor is skipped)
        bars = np.fmax(phi0 + rise * (before / N), floor)
        if tilted:
            bars *= scale
        return bars

    if stream_indices is None:
        stream_indices = np.arange(N)
    elif len(stream_indices) != N:
        raise ValueError(f"need {N} stream indices, got {len(stream_indices)}")
    if coupled:
        streams = StreamArray(seed, stream_indices)
        pending = exponential_of(streams.words(np.arange(N), 1))[:, 0]
        streams.used += 1
        draw = _draw_round
    else:
        # the interacting and tilted modes draw through MarkStream's methods,
        # which the benchmark's tracer counts
        streams = MarkStream.batch(seed, stream_indices)
        pending = np.array([s.exponential() for s in streams])
        draw = _draw_calls
    return _walk(N, kernel, rate, T, phi0, bound, bounds, tilt_of, streams, draw, pending)


def _tilt_reader(grad_psi: np.ndarray, grid: TimeGrid, tilt: float):
    """exp(tilt * grad_psi) at times ``ts`` and counts ``x``, with grad_psi
    linear in t on ``grid``, flat past its end and 0 past its last state."""
    n, dt, top = grid.n, grid.dt, grad_psi.shape[1] - 1

    def tilt_of(ts: np.ndarray, x: np.ndarray) -> np.ndarray:
        pos = ts / dt
        k = pos.astype(np.int64)
        kc, xc = np.minimum(k, n - 1), np.minimum(x, top)
        g0 = grad_psi[kc, xc]
        inside = g0 + (pos - k) * (grad_psi[kc + 1, xc] - g0)
        return np.exp(tilt * np.where(x > top, 0.0, np.where(k >= n, grad_psi[n, xc], inside)))

    return tilt_of


def _draw_round(streams: StreamArray, pending: np.ndarray, rows: np.ndarray, q_lim: float, span: float):
    """Clock, particle and mark of every candidate of the streams ``rows`` with clock <= q_lim.

    Each stream's candidates are its pending clock and the running sums of
    its gaps, each with the mark drawn before the gap, as a
    candidate-by-candidate walk draws them; ``pending`` and ``streams.used``
    move past what is kept.
    """
    m = int(span) + 2  # (mark, gap) pairs a stream draws a pass, about its mean count
    qs, owners, marks = [], [], []
    while rows.size:
        words = streams.words(rows, 2 * m)
        u = uniform_of(words[:, 0::2])
        clocks = np.cumsum(np.column_stack((pending[rows], exponential_of(words[:, 1::2]))), axis=1)
        # clocks never fall, so each stream's clocks <= q_lim are a prefix
        inside = np.count_nonzero(clocks[:, 1:] <= q_lim, axis=1)
        kept = np.minimum(inside + 1, m)
        take = np.arange(m) < kept[:, None]
        qs.append(clocks[:, :-1][take])
        owners.append(np.repeat(rows, kept))
        marks.append(u[take])
        streams.used[rows] += 2 * kept
        pending[rows] = clocks[np.arange(rows.size), kept]
        rows = rows[inside == m]
    return np.concatenate(qs), np.concatenate(owners), np.concatenate(marks)


def _draw_calls(streams: list, pending: np.ndarray, rows: np.ndarray, q_lim: float, span: float):
    """``_draw_round`` over a list of ``MarkStream``s, one ``uniform``/``exponential`` call a draw."""
    qs, owners, marks, after = [], [], [], []
    for i, q in zip(rows.tolist(), pending[rows].tolist()):
        stream = streams[i]
        while q <= q_lim:
            qs.append(q)
            owners.append(i)
            marks.append(stream.uniform())
            q += stream.exponential()
        after.append(q)
    pending[rows] = after
    return np.array(qs), np.array(owners), np.array(marks)


def _walk(N, kernel, rate, T, phi0, bound, bounds, tilt_of, streams, draw, pending):
    """The walk of ``_candidates`` in every mode, decided in speculative blocks.

    ``bound(total)`` is the dominating rate after ``total`` jumps and
    ``bounds`` the same over an array of totals; ``tilt_of(ts, x)`` is the
    tilted mode's intensity factor at times ``ts`` and particle counts ``x``
    (None otherwise); ``draw`` has ``_draw_round``'s signature over
    ``streams``, whose first clocks are ``pending``.  Returns every walked
    candidate's (time, lbar, particle, mark, accepted), in walk order.
    """
    memory = _make_block(kernel, N)
    # one jump moves the intensity by at most alpha ||h||_sup / N, so a
    # guess made across about N candidates settles in a few passes
    block = min(4096, max(64, N))
    # (time, lbar, particle, mark, accepted) of each committed slice
    walked = [(np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=bool))]
    if tilt_of is not None:
        counts = np.zeros(N, dtype=np.int64)  # committed jumps of each particle
    total = 0
    t = 0.0
    q_ref = 0.0
    lam_bar = bound(total)
    accept_rate = phi0 / lam_bar  # guess for candidates no pass has decided

    walking = True
    while walking:
        head = _next_round(pending, t, q_ref, lam_bar, T)
        if head is None:
            break
        q_lim, ready = head
        walk_q, walk_i, walk_u = draw(streams, pending, ready, q_lim, q_lim - q_ref)
        # the candidate-by-candidate walk's (clock, particle) order: distinct
        # clocks fix it alone, and equal ones take the stable lexsort
        order = walk_q.argsort()
        if (walk_q[order[1:]] == walk_q[order[:-1]]).any():
            order = np.lexsort((walk_i, walk_q))
        walk_q, walk_i, walk_u = walk_q[order], walk_i[order], walk_u[order]
        # clock steps between the round's candidates, the first from q_ref
        gaps = walk_q.copy()
        gaps[1:] -= walk_q[:-1]
        gaps[0] -= q_ref
        guess = np.empty(walk_q.size, dtype=bool)
        pos = frontier = 0
        while pos < walk_q.size:
            end = min(walk_q.size, pos + block)
            if end > frontier:
                guess[frontier:end] = walk_u[frontier:end] < accept_rate
            g = guess[pos:end]
            before = total + g.cumsum() - g
            bars = bounds(before)
            # cumsum adds in order, so each time has a candidate-by-candidate walk's bits
            steps = gaps[pos:end] / bars
            steps[0] += t
            ts = steps.cumsum()
            lam = rate.eval(memory.values(ts, g, before))
            n = lam.size
            if tilt_of is not None:
                # each candidate's particle count: its committed jumps plus
                # the guessed ones earlier in the block, by a cumsum over the
                # block sorted stably by particle, restarted at each particle
                owner = walk_i[pos : pos + n]
                by = np.argsort(owner, kind="stable")
                held = g[:n][by]
                run = held.cumsum() - held
                sorted_owner = owner[by]
                x = np.empty(n, dtype=np.int64)
                x[by] = counts[sorted_owner] + run - run[sorted_owner.searchsorted(sorted_owner)]
                lam *= tilt_of(ts[:n], x)
            accept = walk_u[pos : pos + n] * bars[:n] < lam
            if pos + n >= frontier:
                frontier = pos + n
                accept_rate = float(lam[-1] / bars[n - 1])
            wrong = accept != g[:n]
            e = int(wrong.argmax())
            # every decision up to the first wrong guess is exact, that one included
            exact = e + 1 if wrong[e] else n
            ts, bars, lam = ts[:exact], bars[:exact], lam[:exact]
            # where a candidate-by-candidate walk would stop first: a time past T or a bound
            # at the ceiling (both never fall), or an intensity above its bound
            below = lam <= bars * (1.0 + 1e-9)
            v = int(below.argmin())
            keep = min(
                exact if below[v] else v,
                int(ts.searchsorted(T, side="right")),
                int(bars.searchsorted(_RATE_CEILING)),
            )
            if keep:
                kept = accept[:keep]
                # copies: a view would hold the whole block's arrays for a few commits
                walked.append(
                    (ts[:keep].copy(), bars[:keep].copy(), walk_i[pos : pos + keep], walk_u[pos : pos + keep], kept.copy())
                )
                memory.commit(keep, kept)
                if tilt_of is not None:
                    counts += np.bincount(walk_i[pos : pos + keep][kept], minlength=N)
                total += int(np.count_nonzero(kept))
                t = float(ts[keep - 1])
                q_ref = float(walk_q[pos + keep - 1])
                lam_bar = bound(total)  # raises where the bound overflows
            if keep < exact:
                if ts[keep] > T:
                    walking = False
                    break
                raise SimulationError(
                    _bound_violation("intensity", float(lam[keep]), float(bars[keep]), float(ts[keep]))
                )
            guess[pos : pos + n] = accept
            pos += keep

    return tuple(map(np.concatenate, zip(*walked)))


def _poisson_accepts(mean: MeanPath, cand_t: np.ndarray, bars: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """Which walked candidates the Poisson comparison system accepts.

    The limit intensity feeds nothing back into the walk, so the Poisson log
    is accepted in one pass over the walked candidates, after the walk.
    """
    lam_mf = _limit_intensity(mean, cand_t)
    bad = np.flatnonzero(~(lam_mf <= bars * (1.0 + 1e-9)))
    if bad.size:
        j = bad[0]
        raise SimulationError(
            _bound_violation("limit intensity", float(lam_mf[j]), float(bars[j]), float(cand_t[j]))
        )
    return marks * bars < lam_mf


def simulate_hawkes(
    N: int,
    kernel: Kernel,
    rate: RateFn,
    T: float,
    seed: int,
    stream_indices: Sequence[int] | None = None,
) -> EventLog:
    """Exact-in-law sample of the N-particle system on (0, T].

    Every particle jumps with the common intensity
    ``phi(N^-1 sum_j int_0^{t-} h(t-s) dZ_s^j)``; candidates are proposed per
    particle from its own mark stream and accepted against the exact intensity
    at the candidate time.  ``stream_indices`` remaps particles onto stream
    keys (testing hook for the exchangeability contract).
    """
    flat, _ = _run_thinning("hawkes", N, kernel, rate, T, seed, stream_indices=stream_indices)
    return EventLog._from_flat(N, T, *flat, seed, "hawkes")


def simulate_coupled(
    N: int,
    kernel: Kernel,
    rate: RateFn,
    mean: MeanPath,
    T: float,
    seed: int,
) -> CouplingLog:
    """Joint sample of the interacting system and its Poisson comparison system.

    One candidate stream per particle at a rate dominating both intensities;
    a candidate with mark z enters the interacting log iff z <= lam_hawkes/lbar
    and, independently, the Poisson log iff z <= lam_limit/lbar.  With the two
    acceptance regions nested this realizes the usual shared-randomness
    coupling, and with h == 0 the two logs are identical.
    """
    flat, flat_mf = _run_thinning("coupled", N, kernel, rate, T, seed, mean=mean)
    return CouplingLog(
        hawkes=EventLog._from_flat(N, T, *flat, seed, "hawkes"),
        poisson=EventLog._from_flat(N, T, *flat_mf, seed, "mf_poisson"),
        seed=seed,
    )


def coupled_sup_difference(
    N: int,
    kernel: Kernel,
    rate: RateFn,
    mean: MeanPath,
    T: float,
    seed: int,
) -> np.ndarray:
    """``sup_path_difference`` of the pair ``simulate_coupled`` draws, read off the walk.

    A candidate steps the difference of particle i by (interacting accept) -
    (Poisson accept).  The walk visits candidates in time order, so one
    stable sort by particle orders the moving ones by (particle, time), and
    no log is built.
    """
    cand_t, bars, cand_i, marks, accepted = _candidates("coupled", N, kernel, rate, T, seed, mean)
    step = accepted.astype(np.int64) - _poisson_accepts(mean, cand_t, bars, marks)
    moved = np.flatnonzero(step)
    cand_i = cand_i[moved]
    order = np.argsort(cand_i.astype(np.min_scalar_type(N)), kind="stable")
    moved = moved[order]
    return _sup_tail(N, cand_i[order], cand_t[moved], step[moved])


def simulate_perturbed(
    N: int,
    kernel: Kernel,
    rate: RateFn,
    psi_grad: np.ndarray,
    psi_grid: TimeGrid,
    tilt: float,
    T: float,
    seed: int,
) -> EventLog:
    """Tilted system: particle i jumps at ``exp(tilt * grad_psi(t, x_i)) * phi(...)``.

    ``psi_grad`` holds the discrete gradient of the test function on
    grid x {0..K} (linearly interpolated in t, zero beyond K); ``tilt`` is the
    scalar a(N)/sqrt(N).  With psi == 0 the output is bit-identical to
    ``simulate_hawkes`` at the same seed.
    """
    grad = np.asarray(psi_grad, dtype=float)
    if grad.ndim != 2 or grad.shape[0] != psi_grid.n + 1:
        raise ValueError("psi_grad must be (n+1) x (K+1) on the supplied grid")
    if not np.all(np.isfinite(grad)):
        raise ValueError("psi_grad must be finite")
    if psi_grid.T < T - 1e-12:
        raise ValueError("test function grid must cover [0, T]")
    flat, _ = _run_thinning(
        "perturbed", N, kernel, rate, T, seed, grad_psi=grad, psi_grid=psi_grid, tilt=float(tilt)
    )
    return EventLog._from_flat(N, T, *flat, seed, "perturbed")


def sup_path_difference(a: EventLog, b: EventLog) -> np.ndarray:
    """Per-particle sup_t |count_a(t) - count_b(t)| over the common horizon.

    Simultaneous jumps (shared accepted candidates) cancel exactly: the
    difference is evaluated right after each distinct event time.
    """
    if a.N != b.N:
        raise ValueError("event logs must have the same particle count")
    times = np.concatenate([a.times, b.times])
    owner = np.concatenate([_owners(a), _owners(b)])
    step = np.concatenate([np.ones(a.total_jumps, np.int64), -np.ones(b.total_jumps, np.int64)])
    # by particle, then by time: a stable sort by particle of the time order,
    # on the narrowest unsigned key, which numpy radix-sorts.  The order within
    # an equal (particle, time) group is never read, because the difference
    # is read after the last entry of each group.
    order = np.argsort(times)
    order = order[np.argsort(owner[order].astype(np.min_scalar_type(a.N)), kind="stable")]
    return _sup_tail(a.N, owner[order], times[order], step[order])


def _sup_tail(N: int, owner: np.ndarray, times: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Per-particle sup of |running sum of ``step``| over entries sorted by (particle, time)."""
    # running count_a - count_b within each particle: the global running sum
    # minus its value just before the particle's first event
    run = np.cumsum(step)
    starts = np.ones(owner.size, bool)
    starts[1:] = owner[1:] != owner[:-1]
    first = np.maximum.accumulate(np.where(starts, np.arange(owner.size), 0))
    diff = run - (run - step)[first]
    # read the difference right after each distinct (particle, time), so
    # simultaneous jumps of a and b cancel
    last = np.ones(owner.size, bool)
    last[:-1] = (owner[1:] != owner[:-1]) | (times[1:] != times[:-1])
    # the largest |difference| of each particle's run of entries
    owner, gap = owner[last], np.abs(diff[last])
    heads = np.flatnonzero(np.diff(owner, prepend=-1))
    out = np.zeros(N)
    out[owner[heads]] = np.maximum.reduceat(gap, heads)
    return out


def event_log_to_bytes(log: EventLog) -> bytes:
    """Compact binary record: HWKS, version u16, N u32, T f64, seed u64,
    per-particle jump counts u32, then all jump times f64 (little endian)."""
    head = _MAGIC + struct.pack("<HIdQ", _VERSION, log.N, log.T, log.seed)
    return head + log.sizes.astype("<u4").tobytes() + log.times.astype("<f8").tobytes()


def event_log_from_bytes(buf: bytes, kind: str = "hawkes") -> EventLog:
    """Inverse of :func:`event_log_to_bytes`; ``ValueError`` on any malformed record."""
    if buf[:4] != _MAGIC:
        raise ValueError("not an event-log record (bad magic)")
    off = 4 + struct.calcsize("<HIdQ")
    if len(buf) < off:
        raise ValueError(f"truncated event-log header: {len(buf)} of {off} bytes")
    version, n, t, seed = struct.unpack_from("<HIdQ", buf, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported event-log version {version}")
    if not 0.0 < t < math.inf:
        raise ValueError(f"event-log horizon must be finite and positive, got T={t!r}")
    if len(buf) < off + 4 * n:
        raise ValueError(f"truncated event-log counts: {len(buf)} bytes, need {off + 4 * n}")
    counts = np.frombuffer(buf, dtype="<u4", count=n, offset=off)
    off += 4 * n
    expected = off + 8 * int(counts.sum(dtype=np.int64))
    if len(buf) != expected:
        what = "truncated event-log jump times" if len(buf) < expected else "trailing bytes after event log"
        raise ValueError(f"{what}: {len(buf)} bytes, expected {expected}")
    times = np.frombuffer(buf, dtype="<f8", count=(expected - off) // 8, offset=off)
    if not np.all((times > 0.0) & (times <= t)):
        raise ValueError(f"event-log jump times must lie in (0, T] with T={t!r}")
    starts = np.cumsum(counts, dtype=np.int64)[:-1]
    drops = np.flatnonzero(np.diff(times) < 0.0) + 1
    if not np.all(np.isin(drops, starts)):
        raise ValueError("event-log jump times decrease within a particle")
    return EventLog._from_flat(n, t, times.astype(float), counts, int(seed), kind)


def _write_event_log_csv(log: EventLog, fh: BinaryIO) -> None:
    """Write the table ``particle,jump_time``, one row per jump, to the binary file ``fh``."""
    _text.write_csv(fh, "particle,jump_time", _owners(log), log.times)
