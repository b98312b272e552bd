"""Exact thinning simulation of the interacting particle system.

All three stochastic systems (the interacting counting processes, the
inhomogeneous-Poisson comparison system sharing the same randomness, and the
exponentially tilted variant) are sampled by thinning candidate points against
a dominating rate.  Candidates live on a common deformed clock: with
``Lbar(t) = int_0^t lbar(s) ds`` the running integral of the per-particle
dominating rate, each particle's candidates are the partial sums of its own
unit exponentials in ``Lbar`` time.  The dominating rate

    lbar = phi(0) + alpha * ||h||_sup[0,T] * Zbar_t

is constant between accepted jumps (the empirical mean ``Zbar`` only moves at
jumps, h >= 0, and phi is alpha-Lipschitz), so the deformed clock is piecewise
linear and candidates can be mapped to real time one at a time, in order,
without ever discarding or re-drawing pending candidates.  Floating-point ties
across particles are broken by particle index.

Each particle consumes its own counter-based stream, which is what makes the
shared-randomness coupling and the tilted variant well defined: the same
(seed, particle) pair replays the same candidate points and acceptance marks
under every mode.

The limit intensity of the Poisson comparison system feeds nothing back into
the walk, so the coupled mode records every candidate (time, mark times the
dominating rate, particle, dominating rate) and accepts the Poisson log in one
vectorized pass after the walk.  The bound checks therefore run in this
order: the interacting intensity against the dominating rate at each
candidate during the walk, then the limit intensity at every candidate after
it, where the first violating candidate raises ``SimulationError``.
"""

from __future__ import annotations

import heapq
import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .meanfield import MeanPath, TimeGrid
from .model import Kernel, RateFn, kernel_norms
from .rng import MarkStream

__all__ = [
    "EventLog",
    "CouplingLog",
    "SimulationError",
    "simulate_hawkes",
    "simulate_coupled",
    "simulate_perturbed",
    "mean_path",
    "sup_path_difference",
    "event_log_to_bytes",
    "event_log_from_bytes",
    "event_log_to_csv",
]

_MAGIC = b"HWKS"
_VERSION = 1

# dominating-rate overflow guard: a per-particle bound beyond this is a model error
_RATE_CEILING = 1e12


class SimulationError(RuntimeError):
    """Simulation aborted (dominating-rate overflow or inconsistent inputs)."""


@dataclass(frozen=True)
class EventLog:
    """Per-particle sorted jump times of one simulated system on (0, T]."""

    N: int
    T: float
    jumps: tuple[np.ndarray, ...]
    seed: int
    kind: str  # hawkes | mf_poisson | perturbed

    def counts(self, t: float) -> np.ndarray:
        """Integer count of each particle at time t (jumps at exactly t included)."""
        times, owner = _flat_jumps(self)
        return np.bincount(owner[times <= t], minlength=self.N).astype(np.int64, copy=False)

    @property
    def total_jumps(self) -> int:
        return int(sum(j.size for j in self.jumps))


@dataclass(frozen=True)
class CouplingLog:
    """Jointly simulated pair driven by identical candidates and marks."""

    hawkes: EventLog
    poisson: EventLog
    seed: int


def _flat_jumps(log: EventLog) -> tuple[np.ndarray, np.ndarray]:
    """All jump times of a log in particle order, with the particle of each."""
    sizes = [j.size for j in log.jumps]
    times = np.concatenate(log.jumps) if sum(sizes) else np.zeros(0)
    return times, np.repeat(np.arange(log.N), sizes)


def _freeze_jumps(times, owner, N: int) -> tuple[np.ndarray, ...]:
    """Per-particle read-only views of one array of jump times.

    ``times`` and ``owner`` list the jumps in the order of the walk, which is
    time order, so a stable sort by particle keeps each particle's times sorted.
    """
    owner = np.asarray(owner, dtype=np.int64)
    order = np.argsort(owner, kind="stable")
    flat = np.asarray(times, dtype=float)[order]
    flat.flags.writeable = False
    ends = np.cumsum(np.bincount(owner, minlength=N)).tolist()
    return tuple(flat[a:b] for a, b in zip([0] + ends[:-1], ends))


class _ConstCache:
    # h constant (zero included): the convolution is level * (total jumps) / N
    def __init__(self, level: float, N: int):
        self.per_jump = level / N
        self.acc = 0.0

    def add(self, t: float) -> None:
        self.acc += self.per_jump

    def value(self, t: float) -> float:
        return self.acc


class _ExpCache:
    # h(t) = a e^{-bt}: decayed jump sum updated in O(1) per event
    def __init__(self, a: float, b: float, N: int):
        self.a_over_n = a / N
        self.b = b
        self.s = 0.0
        self.t_ref = 0.0

    def add(self, t: float) -> None:
        self.s = self.s * math.exp(-self.b * (t - self.t_ref)) + 1.0
        self.t_ref = t

    def value(self, t: float) -> float:
        return self.a_over_n * self.s * math.exp(-self.b * (t - self.t_ref))


class _GenericCache:
    # tabulated kernel: exact Stieltjes sum over all recorded jumps, O(#jumps) per call
    def __init__(self, kernel: Kernel, N: int):
        self.grid = kernel.grid
        self.values = kernel.values
        self.inv_n = 1.0 / N
        self.times = np.empty(256)
        self.n = 0

    def add(self, t: float) -> None:
        if self.n == self.times.size:
            self.times = np.concatenate([self.times, np.empty(self.n)])
        self.times[self.n] = t
        self.n += 1

    def value(self, t: float) -> float:
        lags = t - self.times[: self.n]
        return float(np.interp(lags, self.grid, self.values).sum()) * self.inv_n


def _make_cache(kernel: Kernel, N: int):
    if kernel.kind in ("zero", "constant"):
        return _ConstCache(kernel.a, N)
    if kernel.kind == "exponential":
        return _ExpCache(kernel.a, kernel.b, N)
    return _GenericCache(kernel, N)


def _scalar_rate(rate: RateFn):
    if rate.kind == "affine":
        base, slope = rate.base, rate.slope
        return lambda x: base + slope * x
    if rate.kind == "custom":
        return rate.fn
    grid, values = rate.grid, rate.values
    return lambda x: float(np.interp(x, grid, values))


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


def _run_thinning(
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
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...] | None]:
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if not T > 0:
        raise ValueError(f"need T > 0, got {T}")
    phi = _scalar_rate(rate)
    phi0 = float(rate.eval(0.0))
    h_sup, _ = kernel_norms(kernel, T, T / 1000.0)
    # each accepted jump raises the dominating rate by alpha * ||h||_sup / N
    rise = rate.lipschitz * h_sup
    cache = _make_cache(kernel, N)
    coupled = mode == "coupled"
    tilted = mode == "perturbed"

    mf_bound = 0.0
    if coupled:
        if mean is None or mean.grid.T < T - 1e-12:
            raise SimulationError("coupled simulation needs a mean path solved on [0, T]")
        mf_bound = float(np.max(mean.lam))

    tilt_bound = 1.0
    if tilted:
        n_psi = psi_grid.n
        dt_psi = psi_grid.dt
        k_states = grad_psi.shape[1] - 1
        tilt_bound = math.exp(max(0.0, tilt * float(np.max(grad_psi))))

        def grad_at(t: float, x: int) -> float:
            if x > k_states:
                return 0.0
            pos = t / dt_psi
            k = int(pos)
            if k >= n_psi:
                return float(grad_psi[n_psi, x])
            frac = pos - k
            g0 = float(grad_psi[k, x])
            return g0 + frac * (float(grad_psi[k + 1, x]) - g0)

    def bound(total: int) -> float:
        lb = phi0 + rise * (total / N)
        if coupled:
            lb = max(lb, mf_bound)
        elif tilted:
            lb *= tilt_bound
        if not (lb < _RATE_CEILING):
            raise SimulationError(f"dominating rate {lb:.3e} overflows; model is pathological")
        return lb

    if stream_indices is None:
        stream_indices = range(N)
    elif len(stream_indices) != N:
        raise ValueError(f"need {N} stream indices, got {len(stream_indices)}")
    streams = MarkStream.batch(seed, stream_indices)
    heap = [(streams[i].exponential(), i) for i in range(N)]
    heapq.heapify(heap)
    replace = heapq.heapreplace
    value = cache.value
    add = cache.add

    # accepted jumps as (time, particle), in walk order
    jump_t: list[float] = []
    jump_i: list[int] = []
    # coupled mode: (time, mark * lbar, particle, lbar) of every candidate
    cand_t: list[float] = []
    cand_zl: list[float] = []
    cand_i: list[int] = []
    cand_bar: list[float] = []
    jump_t_add, jump_i_add = jump_t.append, jump_i.append
    cand_t_add, cand_zl_add = cand_t.append, cand_zl.append
    cand_i_add, cand_bar_add = cand_i.append, cand_bar.append
    counts = [0] * N
    total = 0

    t = 0.0
    q_ref = 0.0
    lam_bar = bound(total)
    slack = lam_bar * (1.0 + 1e-9)

    while True:
        q, i = heap[0]
        t_cand = t + (q - q_ref) / lam_bar
        if t_cand > T:
            break
        stream = streams[i]
        zl = stream.uniform() * lam_bar
        if tilted:
            lam = math.exp(tilt * grad_at(t_cand, counts[i])) * phi(value(t_cand))
        else:
            lam = phi(value(t_cand))
            if coupled:
                cand_t_add(t_cand)
                cand_zl_add(zl)
                cand_i_add(i)
                cand_bar_add(lam_bar)
        # the negated form also catches NaN; an assert would vanish under python -O
        if not lam <= slack:
            raise SimulationError(_bound_violation("intensity", lam, lam_bar, t_cand))
        t = t_cand
        q_ref = q
        if zl < lam:
            jump_t_add(t_cand)
            jump_i_add(i)
            counts[i] += 1
            total += 1
            add(t_cand)
            lam_bar = bound(total)
            slack = lam_bar * (1.0 + 1e-9)
        replace(heap, (q + stream.exponential(), i))

    jumps = _freeze_jumps(jump_t, jump_i, N)
    if not coupled:
        return jumps, None
    # the limit intensity feeds nothing back into the walk: accept the Poisson
    # log in one pass over the recorded candidates
    ct = np.asarray(cand_t, dtype=float)
    bars = np.asarray(cand_bar, dtype=float)
    lam_mf = _limit_intensity(mean, ct)
    bad = np.flatnonzero(~(lam_mf <= bars * (1.0 + 1e-9)))
    if bad.size:
        j = bad[0]
        raise SimulationError(
            _bound_violation("limit intensity", float(lam_mf[j]), float(bars[j]), float(ct[j]))
        )
    hit = np.asarray(cand_zl, dtype=float) < lam_mf
    return jumps, _freeze_jumps(ct[hit], np.asarray(cand_i, dtype=np.int64)[hit], N)


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
    jumps, _ = _run_thinning("hawkes", N, kernel, rate, T, seed, stream_indices=stream_indices)
    return EventLog(N=N, T=float(T), jumps=jumps, seed=seed, kind="hawkes")


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
    jumps, jumps_mf = _run_thinning("coupled", N, kernel, rate, T, seed, mean=mean)
    return CouplingLog(
        hawkes=EventLog(N=N, T=float(T), jumps=jumps, seed=seed, kind="hawkes"),
        poisson=EventLog(N=N, T=float(T), jumps=jumps_mf, seed=seed, kind="mf_poisson"),
        seed=seed,
    )


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
    jumps, _ = _run_thinning(
        "perturbed", N, kernel, rate, T, seed, grad_psi=grad, psi_grid=psi_grid, tilt=float(tilt)
    )
    return EventLog(N=N, T=float(T), jumps=jumps, seed=seed, kind="perturbed")


def mean_path(log: EventLog, grid: TimeGrid) -> np.ndarray:
    """Empirical mean count Zbar(t_k) = N^-1 sum_i count_i(t_k) on the grid."""
    if abs(grid.T - log.T) > 1e-9 * max(1.0, log.T):
        raise ValueError(f"grid horizon {grid.T} does not match log horizon {log.T}")
    allj = np.sort(_flat_jumps(log)[0])
    return np.searchsorted(allj, grid.points, side="right") / log.N


def sup_path_difference(a: EventLog, b: EventLog) -> np.ndarray:
    """Per-particle sup_t |count_a(t) - count_b(t)| over the common horizon.

    Simultaneous jumps (shared accepted candidates) cancel exactly: the
    difference is evaluated right after each distinct event time.
    """
    if a.N != b.N:
        raise ValueError("event logs must have the same particle count")
    ta, pa = _flat_jumps(a)
    tb, pb = _flat_jumps(b)
    times = np.concatenate([ta, tb])
    owner = np.concatenate([pa, pb])
    step = np.concatenate([np.ones(ta.size, np.int64), -np.ones(tb.size, np.int64)])
    order = np.lexsort((times, owner))
    times, owner, step = times[order], owner[order], step[order]
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
    out = np.zeros(a.N)
    np.maximum.at(out, owner[last], np.abs(diff[last]))
    return out


def event_log_to_bytes(log: EventLog) -> bytes:
    """Compact binary record: HWKS, version u16, N u32, T f64, seed u64,
    per-particle jump counts u32, then all jump times f64 (little endian)."""
    head = _MAGIC + struct.pack("<HIdQ", _VERSION, log.N, log.T, log.seed)
    counts = np.array([j.size for j in log.jumps], dtype="<u4").tobytes()
    times = (
        np.concatenate(log.jumps).astype("<f8").tobytes() if log.total_jumps else b""
    )
    return head + counts + times


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
    jumps = []
    pos = 0
    for c in counts:
        arr = times[pos : pos + int(c)].astype(float)
        arr.flags.writeable = False
        jumps.append(arr)
        pos += int(c)
    return EventLog(N=int(n), T=float(t), jumps=tuple(jumps), seed=int(seed), kind=kind)


def event_log_to_csv(log: EventLog) -> str:
    lines = ["particle,jump_time"]
    for i, j in enumerate(log.jumps):
        lines.extend([f"{i},{t!r}" for t in j.tolist()])
    return "\n".join(lines) + "\n"
