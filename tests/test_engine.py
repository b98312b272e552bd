import hashlib
import heapq
import math
import os
import struct
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hawkes_meanfield import engine
from hawkes_meanfield.fluct import limit_mean_variance
from hawkes_meanfield.meanfield import MeanPath, TimeGrid, solve_mean
from hawkes_meanfield.model import Kernel, RateFn, _scalar_rate
from hawkes_meanfield.engine import (
    EventLog,
    SimulationError,
    event_log_from_bytes,
    event_log_to_bytes,
    event_log_to_csv,
    simulate_coupled,
    simulate_hawkes,
    simulate_perturbed,
    sup_path_difference,
)
from hawkes_meanfield.rng import MarkStream, derive_seed


def chi_square_poisson_p(counts: np.ndarray, mean: float) -> float:
    """Goodness-of-fit p-value of integer samples against Poisson(mean)."""
    n = counts.size
    kmax = int(counts.max()) + 1
    obs = np.bincount(counts, minlength=kmax + 1).astype(float)
    pmf = np.zeros(kmax + 1)
    pmf[0] = math.exp(-mean)
    for x in range(kmax):
        pmf[x + 1] = pmf[x] * mean / (x + 1)
    pmf[kmax] = max(1.0 - pmf[:kmax].sum(), 0.0)  # fold the tail into the last bin
    exp = n * pmf
    # merge bins with expected count < 5 from the right
    while exp.size > 2 and exp[-1] < 5.0:
        exp[-2] += exp[-1]
        obs[-2] += obs[-1]
        exp, obs = exp[:-1], obs[:-1]
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return float(stats.chi2.sf(stat, df=exp.size - 1))


def test_homogeneous_mean_count(zero_kernel, const2_rate):
    log = simulate_hawkes(10000, zero_kernel, const2_rate, 1.0, seed=11)
    assert log.total_jumps / log.N == pytest.approx(2.0, abs=0.05)


def test_determinism(zero_kernel, const2_rate):
    a = simulate_hawkes(500, zero_kernel, const2_rate, 1.0, seed=77)
    b = simulate_hawkes(500, zero_kernel, const2_rate, 1.0, seed=77)
    assert all(np.array_equal(x, y) for x, y in zip(a.jumps, b.jumps))
    c = simulate_hawkes(500, zero_kernel, const2_rate, 1.0, seed=78)
    assert any(not np.array_equal(x, y) for x, y in zip(a.jumps, c.jumps))


def test_lln_toward_limit_mean(exp_kernel, affine_rate, explin_mean):
    log = simulate_hawkes(5000, exp_kernel, affine_rate, 1.0, seed=7)
    assert log.total_jumps / log.N == pytest.approx(explin_mean.m_final, abs=0.05)


def test_event_log_invariants(exp_kernel, affine_rate):
    log = simulate_hawkes(200, exp_kernel, affine_rate, 1.0, seed=3)
    for j in log.jumps:
        assert np.all(j > 0.0) and np.all(j <= 1.0)
        assert np.all(np.diff(j) > 0.0)


def test_homogeneous_counts_poisson_chi2(zero_kernel, const2_rate):
    log = simulate_hawkes(5000, zero_kernel, const2_rate, 1.0, seed=101)
    counts = log.counts(1.0)
    assert chi_square_poisson_p(counts, 2.0) > 0.01


def test_exchangeability_by_stream_permutation(exp_kernel, affine_rate):
    base = simulate_hawkes(2, exp_kernel, affine_rate, 5.0, seed=13)
    swap = simulate_hawkes(2, exp_kernel, affine_rate, 5.0, seed=13, stream_indices=[1, 0])
    assert np.array_equal(base.jumps[0], swap.jumps[1])
    assert np.array_equal(base.jumps[1], swap.jumps[0])


def test_empirical_measure_tv_against_limit(zero_kernel, const2_rate):
    log = simulate_hawkes(10000, zero_kernel, const2_rate, 1.0, seed=19)
    counts = np.bincount(log.counts(1.0), minlength=31)
    pmf, ovf = counts[:31] / log.N, int(counts[31:].sum())
    pois = np.zeros(31)
    pois[0] = math.exp(-2.0)
    for x in range(30):
        pois[x + 1] = pois[x] * 2.0 / (x + 1)
    tv = 0.5 * np.sum(np.abs(pmf - pois)) + 0.5 * (ovf / log.N + (1.0 - pois.sum()))
    assert tv <= 0.02
    assert pmf.sum() + ovf / log.N == pytest.approx(1.0, abs=1e-15)


def test_coupling_identical_when_no_excitation(zero_kernel, const2_rate, homog_mean):
    c = simulate_coupled(1000, zero_kernel, const2_rate, homog_mean, 1.0, seed=5)
    for a, b in zip(c.hawkes.jumps, c.poisson.jumps):
        assert np.array_equal(a, b)
    assert np.all(sup_path_difference(c.hawkes, c.poisson) == 0.0)


def test_coupling_poisson_marginal_chi2(exp_kernel, affine_rate, explin_mean):
    c = simulate_coupled(5000, exp_kernel, affine_rate, explin_mean, 1.0, seed=23)
    counts = c.poisson.counts(1.0)
    assert chi_square_poisson_p(counts, explin_mean.m_final) > 0.01


def test_coupling_difference_shrinks_with_n(exp_kernel, affine_rate, explin_mean):
    means = []
    for n_particles in (100, 1600):
        vals = []
        for rep in range(30):
            c = simulate_coupled(
                n_particles, exp_kernel, affine_rate, explin_mean, 1.0,
                seed=derive_seed(31, 100 * n_particles + rep),
            )
            vals.append(sup_path_difference(c.hawkes, c.poisson).mean())
        means.append(np.mean(vals))
    assert means[1] < 0.5 * means[0]  # expect ~ 1/4 under sqrt scaling


def _ell_grad(grid: TimeGrid, K: int) -> np.ndarray:
    g = np.ones((grid.n + 1, K + 1))
    g[:, K] = 0.0
    return g


def test_perturbed_zero_tilt_identical(exp_kernel, affine_rate):
    grid = TimeGrid.from_T_dt(1.0, 0.01)
    base = simulate_hawkes(300, exp_kernel, affine_rate, 1.0, seed=29)
    pert = simulate_perturbed(
        300, exp_kernel, affine_rate, np.zeros((grid.n + 1, 31)), grid, 0.3, 1.0, seed=29
    )
    assert all(np.array_equal(a, b) for a, b in zip(base.jumps, pert.jumps))


def test_perturbed_constant_tilt_poisson_oracle(zero_kernel, const2_rate):
    # h = 0, phi = 2, psi = ell: per-particle Poisson with rate 2 e^u
    grid = TimeGrid.from_T_dt(1.0, 0.01)
    u = 0.25
    n_particles, reps = 1000, 30
    counts = []
    for rep in range(reps):
        log = simulate_perturbed(
            n_particles, zero_kernel, const2_rate, _ell_grad(grid, 30), grid, u, 1.0,
            seed=derive_seed(37, rep),
        )
        counts.append(log.total_jumps / n_particles)
    target = 2.0 * math.exp(u)
    se = math.sqrt(target / (n_particles * reps))
    assert abs(np.mean(counts) - target) <= 3.0 * se


def test_perturbed_positive_tilt_increases_mean(exp_kernel, affine_rate):
    grid = TimeGrid.from_T_dt(1.0, 0.01)
    up, base = [], []
    for rep in range(100):
        seed = derive_seed(41, rep)
        log_p = simulate_perturbed(
            200, exp_kernel, affine_rate, 0.5 * _ell_grad(grid, 40), grid, 0.4, 1.0, seed=seed
        )
        log_0 = simulate_hawkes(200, exp_kernel, affine_rate, 1.0, seed=seed)
        up.append(log_p.total_jumps)
        base.append(log_0.total_jumps)
    assert np.mean(up) > np.mean(base)


def test_sup_path_difference_cancels_shared_jumps():
    a = EventLog(N=1, T=1.0, jumps=(np.array([0.2, 0.5]),), seed=0, kind="hawkes")
    b = EventLog(N=1, T=1.0, jumps=(np.array([0.2, 0.8]),), seed=0, kind="mf_poisson")
    # shared jump at 0.2 cancels; divergence is 1 between 0.5 and 0.8
    assert sup_path_difference(a, b)[0] == 1.0


def test_binary_round_trip(exp_kernel, affine_rate):
    log = simulate_hawkes(50, exp_kernel, affine_rate, 1.0, seed=43)
    back = event_log_from_bytes(event_log_to_bytes(log))
    assert back.N == log.N and back.T == log.T and back.seed == log.seed
    assert all(np.array_equal(a, b) for a, b in zip(back.jumps, log.jumps))
    assert event_log_to_bytes(log)[:4] == b"HWKS"


def test_binary_rejects_garbage():
    with pytest.raises(ValueError):
        event_log_from_bytes(b"NOPE" + b"\0" * 40)


def test_csv_format(zero_kernel, const2_rate):
    log = simulate_hawkes(3, zero_kernel, const2_rate, 1.0, seed=47)
    text = event_log_to_csv(log)
    lines = text.strip().split("\n")
    assert lines[0] == "particle,jump_time"
    assert len(lines) == 1 + log.total_jumps
    # every field parses as a plain number and the times are the binary record's, bit for bit
    rows = [line.split(",") for line in lines[1:]]
    particles = [int(p) for p, _ in rows]
    times = [float(t) for _, t in rows]
    stored = event_log_from_bytes(event_log_to_bytes(log))
    assert particles == [i for i, j in enumerate(stored.jumps) for _ in range(j.size)]
    assert times == np.concatenate(stored.jumps).tolist()


# --- vectorized post-processing against per-particle references -------------------

def _sup_path_difference_loop(a: EventLog, b: EventLog) -> np.ndarray:
    # reference: the per-particle union of event times
    out = np.zeros(a.N)
    for i in range(a.N):
        ja, jb = a.jumps[i], b.jumps[i]
        if ja.size == 0 and jb.size == 0:
            continue
        times = np.union1d(ja, jb)
        diff = np.searchsorted(ja, times, side="right") - np.searchsorted(jb, times, side="right")
        out[i] = float(np.max(np.abs(diff)))
    return out


# jump times on a coarse lattice, so logs share jumps and repeat times often
_lattice_jumps = st.lists(st.integers(1, 8), max_size=6).map(
    lambda ks: np.array(sorted(k / 8.0 for k in ks))
)


@st.composite
def _log_pairs(draw):
    n = draw(st.integers(1, 6))
    logs = []
    for kind in ("hawkes", "mf_poisson"):
        jumps = tuple(draw(_lattice_jumps) for _ in range(n))
        logs.append(EventLog(N=n, T=1.0, jumps=jumps, seed=0, kind=kind))
    return logs


@settings(max_examples=300, deadline=None)
@given(_log_pairs())
def test_sup_path_difference_matches_per_particle_reference(pair):
    a, b = pair
    assert np.array_equal(sup_path_difference(a, b), _sup_path_difference_loop(a, b))
    assert np.array_equal(sup_path_difference(b, a), _sup_path_difference_loop(b, a))


@st.composite
def _shared_log_pairs(draw):
    # up to 600 particles, so the sort key takes one byte or two, with jumps at
    # a few particles and at those 256 above them; the second log keeps some of
    # the first's jumps (shared) and adds its own, and the lattice of times
    # makes either log repeat a time within one particle
    n = draw(st.integers(1, 600))
    some = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    entry = st.tuples(st.sampled_from(some + [i + 256 for i in some if i + 256 < n]), st.integers(1, 8))
    first = draw(st.lists(entry, max_size=40))
    kept = draw(st.lists(st.booleans(), min_size=len(first), max_size=len(first)))
    second = [e for e, keep in zip(first, kept) if keep] + draw(st.lists(entry, max_size=40))
    logs = []
    for entries, kind in ((first, "hawkes"), (second, "mf_poisson")):
        jumps = [[] for _ in range(n)]
        for i, k in entries:
            jumps[i].append(k / 8.0)
        logs.append(EventLog(N=n, T=1.0, jumps=tuple(np.array(sorted(j)) for j in jumps), seed=0, kind=kind))
    return logs


@settings(max_examples=200, deadline=None)
@given(_shared_log_pairs())
def test_sup_path_difference_matches_reference_with_shared_and_tied_jumps(pair):
    a, b = pair
    assert np.array_equal(sup_path_difference(a, b), _sup_path_difference_loop(a, b))
    assert np.array_equal(sup_path_difference(b, a), _sup_path_difference_loop(b, a))


def test_sup_path_difference_matches_reference_on_coupled_logs(exp_kernel, affine_rate, explin_mean):
    c = simulate_coupled(2000, exp_kernel, affine_rate, explin_mean, 1.0, seed=59)
    got = sup_path_difference(c.hawkes, c.poisson)
    assert got.max() > 0
    assert np.array_equal(got, _sup_path_difference_loop(c.hawkes, c.poisson))


@settings(max_examples=200, deadline=None)
@given(_log_pairs(), st.data())
def test_counts_match_per_particle_searchsorted(pair, data):
    log = pair[0]
    jump_times = sorted({float(t) for j in log.jumps for t in j})
    t = data.draw(st.sampled_from(jump_times) if jump_times else st.just(0.5))  # often exactly on a jump
    want = np.array([np.searchsorted(j, t, side="right") for j in log.jumps], dtype=np.int64)
    got = log.counts(t)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert np.array_equal(log.counts(1.0), [j.size for j in log.jumps])


# --- golden bytes ------------------------------------------------------------------

def _sha(log: EventLog) -> str:
    return hashlib.sha256(event_log_to_bytes(log)).hexdigest()


# recorded before the grouped sup_path_difference and the batch-built mark
# streams went in: both must leave every event-log byte unchanged.  The two
# coupled digests were re-recorded when solve_mean's excitation moved to the
# shared grid memory: the coupled walk reads mean.lam for its floor and its
# Poisson log, and jump times moved by <= 1.8e-15 relative, no jump added or lost
GOLDEN = {
    "hawkes_exp": "b6ab2a1e9146e6f1e6724d69faa1416eb84640cbf4047457e59ee2a58daad054",
    "hawkes_exp_remap": "ca4a2daf849d7255fbed64a2aef0c4078ddeda57c5a0f773c324a3adaa86b6b3",
    "hawkes_tab": "1fbd838f106ca2ea77afa2c93e56a7f3925f6f8c6f3f6637e028bdaa721338d5",
    "coupled_hawkes": "54f2fc4d5462a6954e3e45a521e788ec6d26c94b74d972bf45cdd2ce38d7cdbb",
    "coupled_poisson": "42ce3b76f89697ccde4ded349832c48b5206bdc3996d198eea9bd3c35b1f48b2",
    "perturbed": "f848772dd331884e3edec95d9f0548c6e351209e531283ba1143565e20142ef8",
}


def test_golden_bytes_hawkes(exp_kernel, affine_rate):
    # T = 2 runs many particles past the prefetched words of their streams
    assert _sha(simulate_hawkes(300, exp_kernel, affine_rate, 2.0, seed=2024)) == GOLDEN["hawkes_exp"]
    remap = simulate_hawkes(40, exp_kernel, affine_rate, 2.0, seed=2024, stream_indices=range(39, -1, -1))
    assert _sha(remap) == GOLDEN["hawkes_exp_remap"]
    tab = Kernel.tabulated([0.0, 0.25, 0.5, 1.0], [1.0, 0.7, 0.4, 0.0])
    assert _sha(simulate_hawkes(120, tab, affine_rate, 1.0, seed=2025)) == GOLDEN["hawkes_tab"]


def test_golden_bytes_coupled(exp_kernel, affine_rate, explin_mean):
    c = simulate_coupled(400, exp_kernel, affine_rate, explin_mean, 1.0, seed=2026)
    assert _sha(c.hawkes) == GOLDEN["coupled_hawkes"]
    assert _sha(c.poisson) == GOLDEN["coupled_poisson"]


def test_golden_bytes_perturbed(exp_kernel, affine_rate):
    grid = TimeGrid.from_T_dt(1.0, 0.01)
    log = simulate_perturbed(200, exp_kernel, affine_rate, 0.5 * _ell_grad(grid, 40), grid, 0.4, 1.0, seed=2027)
    assert _sha(log) == GOLDEN["perturbed"]


# recorded before the thinning walk moved to flat jump logs, the tabulated
# memory to a growable buffer and the Poisson log to a pass after the walk;
# re-recorded when solve_mean's excitation moved to the shared grid memory
# (mean.lam moved by <= 1.7e-15 relative, jump times by <= 4.4e-16)
GOLDEN_WALK = {
    "coupled_tab_hawkes": "535b69e2d0e5d782849db244e2f1f0b200172b5f03885921e23ef453608a7769",
    "coupled_tab_poisson": "e8485e6eb1472f2f045dacb309be2506b7a1ec97d9d3069896b4ec39fac3ee8d",
    "coupled_coarse_hawkes": "afe90b28272592eb6864a89239c19110262c1763bd813da6fd0c539cfa7e66aa",
    "coupled_coarse_poisson": "e034a9b68846582db3ac3ab22226401f6934b6e7b8484d0c2e26a6b5a3a76dac",
}
TAB = Kernel.tabulated([0.0, 0.25, 0.5, 1.0], [1.0, 0.7, 0.4, 0.0])


def test_golden_bytes_coupled_tabulated(affine_rate):
    # several hundred jumps: the tabulated memory outgrows its first buffer
    mean = solve_mean(TAB, affine_rate, 1.0, 1e-3)
    c = simulate_coupled(400, TAB, affine_rate, mean, 1.0, seed=2028)
    assert c.hawkes.total_jumps > 500
    assert _sha(c.hawkes) == GOLDEN_WALK["coupled_tab_hawkes"]
    assert _sha(c.poisson) == GOLDEN_WALK["coupled_tab_poisson"]


def test_golden_bytes_coupled_coarse_mean(exp_kernel, affine_rate):
    # dt = 0.1: the limit intensity is interpolated across wide grid cells
    mean = solve_mean(exp_kernel, affine_rate, 1.0, 0.1)
    c = simulate_coupled(300, exp_kernel, affine_rate, mean, 1.0, seed=2029)
    assert _sha(c.hawkes) == GOLDEN_WALK["coupled_coarse_hawkes"]
    assert _sha(c.poisson) == GOLDEN_WALK["coupled_coarse_poisson"]


# recorded with the zero kernel on its own cache, before it shared the constant one
GOLDEN_ZERO = {
    "hawkes": "162a8a7c8d6469fdebc8a74f6a67e244ac245c51d8d88cb61453b99bee492822",
    "coupled": "a32d33f49f8ed6e9debaf751059119ab458635f5f9da845716ffdc5851b2a054",
}


def test_golden_bytes_zero_kernel(zero_kernel, const2_rate, homog_mean):
    assert _sha(simulate_hawkes(300, zero_kernel, const2_rate, 1.0, seed=2030)) == GOLDEN_ZERO["hawkes"]
    c = simulate_coupled(300, zero_kernel, const2_rate, homog_mean, 1.0, seed=2031)
    # no excitation: both logs accept the same candidates
    assert _sha(c.hawkes) == GOLDEN_ZERO["coupled"]
    assert _sha(c.poisson) == GOLDEN_ZERO["coupled"]


def _lambda_interp_reference(mean):
    """The per-candidate limit intensity the walk evaluated before the post-walk pass."""
    lam = mean.lam
    n = mean.grid.n
    if n == 0:
        lam0 = float(lam[0])
        return lambda t: lam0
    dt = mean.grid.dt

    def at(t: float) -> float:
        pos = t / dt
        k = int(pos)
        if k >= n:
            return float(lam[n])
        frac = pos - k
        return float(lam[k]) + frac * (float(lam[k + 1]) - float(lam[k]))

    return at


@pytest.mark.parametrize("T, dt", [(1.0, 1e-3), (1.0, 0.1), (0.7, 0.05), (0.0, 0.1)])
def test_limit_intensity_matches_scalar_interpolation(exp_kernel, affine_rate, T, dt):
    mean = solve_mean(exp_kernel, affine_rate, T, dt)
    pts = mean.grid.points
    # random times, the grid points and their left neighbours, and the
    # horizon's right neighbours, where t / dt reaches n and k >= n holds
    t = np.concatenate([
        np.random.default_rng(3).uniform(0.0, T, 400),
        pts,
        np.nextafter(pts, -1.0),
        [np.nextafter(T, 2.0), T * (1.0 + 1e-13)],
    ])
    t = t[t > 0.0]
    ref = _lambda_interp_reference(mean)
    got = engine._limit_intensity(mean, t)
    assert [float.hex(v) for v in got.tolist()] == [float.hex(ref(v)) for v in t.tolist()]
    if mean.grid.n:
        assert np.any((t / mean.grid.dt).astype(np.int64) >= mean.grid.n)


def test_limit_intensity_bound_checked_after_the_walk(exp_kernel, affine_rate, explin_mean):
    # a NaN at the horizon hides the limit path from the dominating rate, so
    # early candidates see a limit intensity above it; the first one raises,
    # with the message the in-walk check gave (recorded before the change)
    lam = explin_mean.lam.copy()
    lam[-1] = np.nan
    bad = MeanPath(explin_mean.grid, explin_mean.m, lam, explin_mean.excitation)
    with pytest.raises(SimulationError) as err:
        simulate_coupled(200, exp_kernel, affine_rate, bad, 1.0, seed=8)
    assert str(err.value) == (
        "thinning bound violated: limit intensity 1.0030044091870645 exceeds the dominating "
        "rate 1.0 at t=0.003008940942540929 (kernel norm or Lipschitz constant under-reported?)"
    )


@pytest.mark.parametrize("seed", [1, 99])
def test_dominating_rate_overflow_raises_within_one_round(seed):
    # at seed 99 the first jump is its round's last candidate, and the bound
    # 5e11 made the next round draw the whole horizon: 5e11 candidates
    with pytest.raises(SimulationError, match="dominating rate 1.000e\\+12 overflows"):
        simulate_hawkes(2, Kernel.constant(1.0), RateFn.affine(1.0, 1e12), 1.0, seed=seed)


def test_returned_jump_arrays_are_read_only(exp_kernel, affine_rate, explin_mean):
    grid = TimeGrid.from_T_dt(1.0, 0.01)
    c = simulate_coupled(50, exp_kernel, affine_rate, explin_mean, 1.0, seed=5)
    logs = [
        simulate_hawkes(50, exp_kernel, affine_rate, 1.0, seed=5),
        simulate_hawkes(50, TAB, affine_rate, 1.0, seed=5),
        c.hawkes,
        c.poisson,
        simulate_perturbed(50, exp_kernel, affine_rate, _ell_grad(grid, 30), grid, 0.3, 1.0, seed=5),
    ]
    logs.append(event_log_from_bytes(event_log_to_bytes(logs[0])))
    for log in logs:
        assert len(log.jumps) == 50 and log.total_jumps > 0
        for j in log.jumps:
            assert not j.flags.writeable
            with pytest.raises(ValueError):
                j[:1] = 0.0


def test_thinning_draws_through_the_module_stream_class(monkeypatch, exp_kernel, affine_rate):
    # an instrumented MarkStream swapped into the engine sees every draw
    draws = {"uniform": 0, "exponential": 0}

    class Counting(MarkStream):
        __slots__ = ()

        def uniform(self):
            draws["uniform"] += 1
            return MarkStream.uniform(self)

        def exponential(self):
            draws["exponential"] += 1
            return MarkStream.exponential(self)

    plain = simulate_hawkes(100, exp_kernel, affine_rate, 1.0, seed=61)
    monkeypatch.setattr(engine, "MarkStream", Counting)
    counted = simulate_hawkes(100, exp_kernel, affine_rate, 1.0, seed=61)
    assert event_log_to_bytes(counted) == event_log_to_bytes(plain)
    assert draws["uniform"] >= plain.total_jumps > 0
    # one exponential per particle up front, then one per candidate
    assert draws["exponential"] == draws["uniform"] + 100


def test_stream_indices_must_cover_every_particle(exp_kernel, affine_rate):
    with pytest.raises(ValueError, match="stream indices"):
        simulate_hawkes(3, exp_kernel, affine_rate, 1.0, seed=1, stream_indices=[0, 1])


# --- the thinning bound is enforced by an exception, not an assert -----------------

def _under_reported_norms(kernel, T):
    return 0.0, 0.0


@pytest.mark.parametrize("mode", ["hawkes", "coupled", "perturbed"])
def test_under_reported_sup_norm_raises(monkeypatch, exp_kernel, affine_rate, mode):
    # with ||h||_sup reported as 0 the dominating rate stays at phi(0) = 1
    # (and the comparison intensity is 1), so the first jump's excitation
    # pushes the intensity past it
    monkeypatch.setattr(engine, "kernel_norms", _under_reported_norms)
    grid = TimeGrid.from_T_dt(1.0, 0.01)
    run = {
        "hawkes": lambda: simulate_hawkes(200, exp_kernel, affine_rate, 1.0, seed=67),
        "coupled": lambda: simulate_coupled(
            200, exp_kernel, affine_rate, solve_mean(Kernel.zero(), RateFn.affine(1.0, 0.0), 1.0, 1e-2), 1.0, seed=67
        ),
        "perturbed": lambda: simulate_perturbed(
            200, exp_kernel, affine_rate, np.zeros((grid.n + 1, 4)), grid, 0.1, 1.0, seed=67
        ),
    }[mode]
    with pytest.raises(SimulationError, match="thinning bound violated"):
        run()


def test_under_reported_sup_norm_raises_under_optimize():
    script = (
        "from hawkes_meanfield import engine\n"
        "from hawkes_meanfield.model import Kernel, RateFn\n"
        "engine.kernel_norms = lambda kernel, T: (0.0, 0.0)\n"
        "try:\n"
        "    engine.simulate_hawkes(200, Kernel.exponential(1.0, 2.0), RateFn.affine(1.0, 1.0), 1.0, seed=67)\n"
        "except engine.SimulationError:\n"
        "    print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def test_spike_kernel_simulates_under_its_exact_sup_norm(affine_rate):
    # with the sup norm sampled on a T/1000 grid this kernel read 0, so the
    # dominating rate stayed at phi(0) and the walk raised at seed 0
    spike = Kernel.tabulated([0.0, 0.005, 0.015, 20.0], [0.0, 90.0, 0.0, 0.0])
    log = simulate_hawkes(1, spike, affine_rate, 20.0, seed=0)
    assert log.total_jumps > 0 and np.all((log.times > 0.0) & (log.times <= 20.0))


# --- the binary codec rejects malformed records -------------------------------------

def _record(n: int, T: float, counts, times) -> bytes:
    head = b"HWKS" + struct.pack("<HIdQ", 1, n, T, 0)
    return head + np.array(counts, "<u4").tobytes() + np.array(times, "<f8").tobytes()


def test_binary_valid_hand_built_record():
    log = event_log_from_bytes(_record(2, 1.0, [2, 1], [0.25, 0.5, 1.0]))
    assert [j.tolist() for j in log.jumps] == [[0.25, 0.5], [1.0]]


def test_binary_rejects_truncated_header():
    good = _record(2, 1.0, [2, 1], [0.25, 0.5, 1.0])
    for cut in (6, 20, 25):
        with pytest.raises(ValueError, match="truncated"):
            event_log_from_bytes(good[:cut])


def test_binary_rejects_truncated_body():
    good = _record(2, 1.0, [2, 1], [0.25, 0.5, 1.0])
    for cut in (30, len(good) - 8, len(good) - 1):
        with pytest.raises(ValueError, match="truncated"):
            event_log_from_bytes(good[:cut])


def test_binary_rejects_trailing_bytes(exp_kernel, affine_rate):
    buf = event_log_to_bytes(simulate_hawkes(20, exp_kernel, affine_rate, 1.0, seed=71))
    with pytest.raises(ValueError, match="trailing"):
        event_log_from_bytes(buf + b"junk!!!!")


def test_binary_rejects_decreasing_times():
    with pytest.raises(ValueError, match="decrease"):
        event_log_from_bytes(_record(2, 1.0, [2, 1], [0.5, 0.25, 1.0]))
    # a drop between two particles is not a decrease
    event_log_from_bytes(_record(2, 1.0, [2, 1], [0.25, 0.5, 0.1]))


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, float("nan"), float("inf")])
def test_binary_rejects_times_outside_horizon(bad):
    with pytest.raises(ValueError, match=r"\(0, T\]"):
        event_log_from_bytes(_record(2, 1.0, [1, 1], [0.5, bad]))


@pytest.mark.parametrize("T", [0.0, -1.0, float("nan"), float("inf")])
def test_binary_rejects_bad_horizon(T):
    with pytest.raises(ValueError, match="horizon"):
        event_log_from_bytes(_record(1, T, [0], []))


# --- the round walk against the candidate-by-candidate heap walk it replaced --------

class _RefExpCache:
    def __init__(self, a, b, N):
        self.a_over_n, self.b, self.s, self.t_ref = a / N, b, 0.0, 0.0

    def add(self, t):
        self.s = self.s * math.exp(-self.b * (t - self.t_ref)) + 1.0
        self.t_ref = t

    def value(self, t):
        return self.a_over_n * self.s * math.exp(-self.b * (t - self.t_ref))


class _RefConstCache:
    def __init__(self, level, N):
        self.per_jump, self.acc = level / N, 0.0

    def add(self, t):
        self.acc += self.per_jump

    def value(self, t):
        return self.acc


class _RefTabCache:
    def __init__(self, kernel, N):
        self.kernel, self.inv_n, self.times = kernel, 1.0 / N, []

    def add(self, t):
        self.times.append(t)

    def value(self, t):
        lags = t - np.asarray(self.times, dtype=float)
        return float(np.interp(lags, self.kernel.grid, self.kernel.values).sum()) * self.inv_n


def _ref_cache(kernel, N):
    if kernel.kind in ("zero", "constant"):
        return _RefConstCache(kernel.a, N)
    if kernel.kind == "exponential":
        return _RefExpCache(kernel.a, kernel.b, N)
    return _RefTabCache(kernel, N)


def _heap_walk(stream_cls, mode, N, kernel, rate, T, seed, mean=None, grad_psi=None, psi_grid=None, tilt=0.0,
               stream_indices=None):
    """Reference thinning: pop the smallest (clock, particle) pair off a heap, one candidate at a time.

    Returns the per-particle jump times of the interacting log and, in coupled
    mode, of the Poisson log.
    """
    phi = _scalar_rate(rate)
    phi0 = float(rate.eval(0.0))
    rise = rate.lipschitz * engine.kernel_norms(kernel, T)[0]
    cache = _ref_cache(kernel, N)
    coupled, tilted = mode == "coupled", mode == "perturbed"
    mf_bound = float(np.max(mean.lam)) if coupled else 0.0
    lam_mf = _lambda_interp_reference(mean) if coupled else None
    tilt_bound = math.exp(max(0.0, tilt * float(np.max(grad_psi)))) if tilted else 1.0

    def grad_at(t, x):
        if x > grad_psi.shape[1] - 1:
            return 0.0
        pos = t / psi_grid.dt
        k = int(pos)
        if k >= psi_grid.n:
            return float(grad_psi[psi_grid.n, x])
        g0 = float(grad_psi[k, x])
        return g0 + (pos - k) * (float(grad_psi[k + 1, x]) - g0)

    def bound(total):
        lb = phi0 + rise * (total / N)
        if coupled:
            lb = max(lb, mf_bound)
        elif tilted:
            lb *= tilt_bound
        return lb

    streams = stream_cls.batch(seed, range(N) if stream_indices is None else stream_indices)
    heap = [(streams[i].exponential(), i) for i in range(N)]
    heapq.heapify(heap)
    jumps = [[] for _ in range(N)]
    poisson = [[] for _ in range(N)]
    counts = [0] * N
    total = 0
    t = q_ref = 0.0
    lam_bar = bound(0)
    while True:
        q, i = heap[0]
        t_cand = t + (q - q_ref) / lam_bar
        if t_cand > T:
            break
        zl = streams[i].uniform() * lam_bar
        lam = phi(cache.value(t_cand))
        if tilted:
            lam = math.exp(tilt * grad_at(t_cand, counts[i])) * lam
        assert lam <= lam_bar * (1.0 + 1e-9)
        if coupled and zl < lam_mf(t_cand):
            poisson[i].append(t_cand)
        t, q_ref = t_cand, q
        if zl < lam:
            jumps[i].append(t_cand)
            counts[i] += 1
            total += 1
            cache.add(t_cand)
            lam_bar = bound(total)
        heapq.heapreplace(heap, (q + streams[i].exponential(), i))
    return jumps, (poisson if coupled else None)


def _counting_streams(draws):
    class Counting(MarkStream):
        __slots__ = ()

        def uniform(self):
            draws[self.key, "uniform"] += 1
            return MarkStream.uniform(self)

        def exponential(self):
            draws[self.key, "exponential"] += 1
            return MarkStream.exponential(self)

    return Counting


def _recording_arrays(made):
    class Recording(engine.StreamArray):
        def __init__(self, seed, indices):
            super().__init__(seed, indices)
            made.append(self)

    return Recording


_WALK_RATES = {"affine": RateFn.affine(1.0, 1.0), "tabulated": RateFn.tabulated([0.0, 1.0, 4.0], [0.8, 1.4, 2.0])}
_WALK_KERNELS = {
    "zero": Kernel.zero(),
    "constant": Kernel.constant(0.3),
    "exp": Kernel.exponential(1.0, 2.0),
    "tabulated": TAB,
}
_WALK_MEANS = {
    (k, r): solve_mean(_WALK_KERNELS[k], _WALK_RATES[r], 2.0, 0.01) for k in _WALK_KERNELS for r in _WALK_RATES
}


@st.composite
def _walk_cases(draw):
    N = draw(st.integers(1, 60))
    # remapped streams with repeats give exact ties between particles
    remap = draw(st.none() | st.lists(st.integers(0, max(0, N // 3)), min_size=N, max_size=N))
    return dict(
        N=N,
        seed=draw(st.integers(0, 2**64 - 1)),
        kernel=draw(st.sampled_from(sorted(_WALK_KERNELS))),
        rate=draw(st.sampled_from(sorted(_WALK_RATES))),
        mode=draw(st.sampled_from(["hawkes", "coupled", "perturbed"])),
        T=draw(st.sampled_from([0.3, 1.0, 2.0])),
        remap=remap,
        tilt=draw(st.sampled_from([0.1, 0.6])),
    )


def _assert_walk_matches_heap_walk(mode, N, kernel, rate, T, seed, **extra):
    """The engine's walk against the heap walk: the same logs byte for byte, and the same words per stream key."""
    ref_draws, new_draws = Counter(), Counter()
    want, want_mf = _heap_walk(_counting_streams(ref_draws), mode, N, kernel, rate, T, seed, **extra)
    arrays = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "MarkStream", _counting_streams(new_draws))
        m.setattr(engine, "StreamArray", _recording_arrays(arrays))
        got, got_mf = engine._run_thinning(mode, N, kernel, rate, T, seed, **extra)

    def record(jumps):
        return event_log_to_bytes(EventLog(N=N, T=T, jumps=jumps, seed=0, kind=mode))

    assert event_log_to_bytes(EventLog._from_flat(N, T, *got, 0, mode)) == record(want)
    if mode == "coupled":
        assert event_log_to_bytes(EventLog._from_flat(N, T, *got_mf, 0, mode)) == record(want_mf)
        # the coupled walk reads words off array streams, not MarkStream calls:
        # compare the words each stream key consumed
        (streams,) = arrays
        assert not new_draws
        for key, used in zip(streams.keys.tolist(), streams.used.tolist()):
            new_draws[key] += used
        ref_draws = Counter({key: ref_draws[key, "uniform"] + ref_draws[key, "exponential"] for key, _ in ref_draws})
    assert new_draws == ref_draws


@settings(max_examples=300, deadline=None)
@given(_walk_cases())
def test_round_walk_matches_heap_walk(case):
    mode = case["mode"]
    grid = TimeGrid.from_T_dt(2.0, 0.05)
    grad = np.random.default_rng(case["seed"] % 2**32).uniform(-1.0, 1.0, size=(grid.n + 1, 6))
    _assert_walk_matches_heap_walk(
        mode,
        case["N"],
        _WALK_KERNELS[case["kernel"]],
        _WALK_RATES[case["rate"]],
        case["T"],
        case["seed"],
        mean=_WALK_MEANS[case["kernel"], case["rate"]] if mode == "coupled" else None,
        grad_psi=grad if mode == "perturbed" else None,
        psi_grid=grid if mode == "perturbed" else None,
        tilt=case["tilt"] if mode == "perturbed" else 0.0,
        stream_indices=case["remap"],
    )


@pytest.mark.parametrize(
    "N, seed, mode",
    [
        # the coupled cases carry no mode in their ids, which stay stable
        pytest.param(N, seed, mode, id=f"{N}-{seed}" + ("" if mode == "coupled" else f"-{mode}"))
        for mode in ("coupled", "hawkes", "perturbed")
        for N, seed in ((1000, 71), (4000, 72))
    ],
)
@pytest.mark.parametrize("kernel, rate", [("exp", "affine"), ("exp", "tabulated"), ("tabulated", "affine"),
                                          ("tabulated", "tabulated")])
def test_coupled_walk_matches_heap_walk_across_blocks(N, seed, mode, kernel, rate):
    # about 1.5 N candidates a run, walked in blocks of N: the guesses of
    # later blocks rest on commits of earlier ones, and in perturbed mode
    # each particle's count is carried across commits
    extra = {}
    if mode == "coupled":
        extra = dict(mean=_WALK_MEANS[kernel, rate])
    elif mode == "perturbed":
        # a count past the gradient's last state reads 0, so a few states suffice
        grid = TimeGrid.from_T_dt(1.0, 0.05)
        grad = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(grid.n + 1, 3))
        extra = dict(grad_psi=grad, psi_grid=grid, tilt=0.6)
    _assert_walk_matches_heap_walk(mode, N, _WALK_KERNELS[kernel], _WALK_RATES[rate], 1.0, seed, **extra)


@pytest.mark.parametrize("N, seed", [(200, 3), (2000, 2)])
def test_coupled_walk_orders_equal_clocks_by_particle(N, seed):
    # particles 2k and 2k + 1 share a stream, so every clock and mark comes
    # twice; with h(0) = 0 a jump raises the bound but not the intensity, so
    # the first of a tied pair can take the jump the second then misses
    late = Kernel.tabulated([0.0, 0.1, 1.0], [0.0, 1.0, 0.0])
    rate = RateFn.affine(1.0, 1.0)
    _assert_walk_matches_heap_walk(
        "coupled", N, late, rate, 1.0, seed,
        mean=solve_mean(late, rate, 1.0, 1e-2), stream_indices=[i // 2 for i in range(N)],
    )


@pytest.mark.parametrize("seed", [81, 82, 83])
def test_coupled_walk_cuts_blocks_of_a_stiff_exponential_kernel(monkeypatch, seed):
    # b = 500: a block spans 0.1 time units before e^{b (t - t_0)} passes e^50
    stiff, rate = Kernel.exponential(1.0, 500.0), RateFn.affine(1.0, 1.0)
    mean = solve_mean(stiff, rate, 2.0, 1e-4)
    cuts = []
    values = engine._ExpBlock.values

    def counting(self, ts, guess, before):
        out = values(self, ts, guess, before)
        cuts.append(out.size < ts.size)
        return out

    monkeypatch.setattr(engine._ExpBlock, "values", counting)
    _assert_walk_matches_heap_walk("coupled", 5, stiff, rate, 2.0, seed, mean=mean)
    assert any(cuts)


@pytest.mark.parametrize("kernel", ["exp", "tabulated"])
@pytest.mark.parametrize("rate", ["affine", "tabulated"])
def test_coupled_and_hawkes_modes_share_candidates_and_marks(kernel, rate):
    # a limit intensity never above phi(0) leaves the dominating rate of the
    # coupled walk equal to the interacting walk's, so the interacting logs
    # of the two modes are the same bytes
    kernel, rate = _WALK_KERNELS[kernel], _WALK_RATES[rate]
    low = solve_mean(Kernel.zero(), RateFn.affine(float(rate.eval(0.0)), 0.0), 1.0, 1e-2)
    coupled = simulate_coupled(1000, kernel, rate, low, 1.0, seed=91)
    assert event_log_to_bytes(coupled.hawkes) == event_log_to_bytes(simulate_hawkes(1000, kernel, rate, 1.0, seed=91))
    assert coupled.hawkes.total_jumps > 500


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    knots=st.integers(1, 6),
    dyadic=st.booleans(),
    N=st.integers(1, 50),
)
def test_tabulated_memory_matches_the_interpolated_sum(seed, knots, dyadic, N):
    # the segment counts and time sums against h interpolated at every jump;
    # dyadic knots and steps put lags exactly on knots
    rng = np.random.default_rng(seed)
    if dyadic:
        grid = np.concatenate([[0.0], np.sort(rng.choice(np.arange(1, 17), knots, replace=False)) / 8.0])
        steps = rng.choice([0.0, 0.125, 0.25, 0.5], size=300)
    else:
        grid = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 1.5, knots))])
        steps = rng.exponential(0.02, size=300)
    kernel = Kernel.tabulated(grid, rng.uniform(-0.5, 2.0, knots + 1))
    memory, reference = engine._make_block(kernel, N), _RefTabCache(kernel, N)
    t = 0.0
    for step, jump in zip(steps.tolist(), (rng.random(300) < 0.6).tolist()):
        t += step
        want = reference.value(t)
        scale = (len(reference.times) + 1) * float(np.max(np.abs(kernel.values))) / N
        # a one-candidate block, guessed rejected, then committed with its decision
        (got,) = memory.values(np.array([t]), np.zeros(1, dtype=bool), np.array([len(reference.times)]))
        assert abs(got - want) <= 1e-12 * scale
        memory.commit(1, np.array([jump]))
        if jump:
            reference.add(t)


# --- the cluster sampler -------------------------------------------------------

_CLUSTER_KERNELS = {"exp": Kernel.exponential(1.0, 2.0), "tab": TAB}
# replicas a rung of the affine identities: the variance ratio's SE is about
# 0.035, so a 3-SE band holds it to about +-0.1
_IDENTITY_REPLICAS = 2000


def _totals(sampler, N, kernel, rate, bank, replicas):
    return np.array([sampler(N, kernel, rate, 1.0, derive_seed(bank, rep)).total_jumps for rep in range(replicas)])


@pytest.mark.parametrize("sampler", [engine.simulate_cluster, simulate_hawkes], ids=["cluster", "thinning"])
@pytest.mark.parametrize("name", sorted(_CLUSTER_KERNELS))
def test_affine_identities_hold_at_every_N(sampler, name, affine_rate):
    # For an affine phi the total count is a linear Hawkes process, so
    # E Zbar_T = m_T and N Var Zbar_T = Var X_T at every N: a sampler test
    # with no limit in it, on frozen seed banks (one a rung)
    kernel = _CLUSTER_KERNELS[name]
    mean = solve_mean(kernel, affine_rate, 1.0, 1e-3)
    limit_var = limit_mean_variance(mean, kernel, affine_rate)
    for bank, N in ((41, 4), (42, 16), (43, 64)):
        zbar = _totals(sampler, N, kernel, affine_rate, bank, _IDENTITY_REPLICAS) / N
        R = zbar.size
        dev = zbar - zbar.mean()
        s2 = float(np.mean(dev**2)) * R / (R - 1)
        gap_se = (zbar.mean() - mean.m_final) / math.sqrt(s2 / R)
        # delta-method SE of the sample variance from the sample fourth moment
        ratio = N * s2 / limit_var
        ratio_se = N * math.sqrt(max(float(np.mean(dev**4)) - s2**2, 0.0) / R) / limit_var
        assert abs(gap_se) <= 3.0, f"N={N}: E Zbar - m_T is {gap_se:.2f} SE"
        assert abs(ratio - 1.0) <= 3.0 * ratio_se, f"N={N}: N Var / Var X_T = {ratio:.4f} +- {ratio_se:.4f}"


def test_cluster_matches_thinning_in_law(exp_kernel, affine_rate):
    # frozen seeds: KS on the totals, and chi-square on particle 0's count
    # (one particle a replica, so the samples are independent)
    N, R = 16, 2000
    logs = {
        name: [sampler(N, exp_kernel, affine_rate, 1.0, derive_seed(bank, rep)) for rep in range(R)]
        for name, sampler, bank in (("cluster", engine.simulate_cluster, 51), ("thinning", simulate_hawkes, 52))
    }
    totals = {k: np.array([log.total_jumps for log in v]) for k, v in logs.items()}
    assert stats.ks_2samp(totals["cluster"], totals["thinning"]).pvalue > 0.01
    first = {k: np.array([int(log.sizes[0]) for log in v]) for k, v in logs.items()}
    table = np.array([np.bincount(first[k], minlength=12)[:12] for k in logs], dtype=float)
    table[:, -1] += [np.sum(first[k] >= 12) for k in logs]
    while table[:, -1].sum() < 10.0:  # merge sparse tail cells
        table = np.column_stack([table[:, :-2], table[:, -2:].sum(axis=1)])
    assert stats.chi2_contingency(table).pvalue > 0.01


def test_cluster_zero_kernel_is_a_poisson_system(zero_kernel, const2_rate):
    log = engine.simulate_cluster(5000, zero_kernel, const2_rate, 1.0, seed=101)
    assert chi_square_poisson_p(log.counts(1.0), 2.0) > 0.01
    assert stats.kstest(log.times, "uniform").pvalue > 0.01


def test_cluster_constant_kernel_keeps_the_affine_identities():
    kernel, rate = Kernel.constant(0.5), RateFn.affine(1.0, 1.0)
    mean = solve_mean(kernel, rate, 1.0, 1e-3)
    limit_var = limit_mean_variance(mean, kernel, rate)
    N, R = 16, 2000
    zbar = _totals(engine.simulate_cluster, N, kernel, rate, 61, R) / N
    assert abs(zbar.mean() - mean.m_final) <= 3.0 * zbar.std(ddof=1) / math.sqrt(R)
    assert N * zbar.var(ddof=1) / limit_var == pytest.approx(1.0, abs=3.0 * math.sqrt(2.0 / (R - 1)))


@pytest.mark.parametrize("name", sorted(_CLUSTER_KERNELS))
def test_cluster_same_seed_same_bytes(name, affine_rate):
    kernel = _CLUSTER_KERNELS[name]
    a, b, c = (engine.simulate_cluster(300, kernel, affine_rate, 1.0, seed) for seed in (5, 5, 6))
    assert event_log_to_bytes(a) == event_log_to_bytes(b) != event_log_to_bytes(c)
    # a valid record: times in (0, T], sorted within each particle
    assert event_log_to_bytes(event_log_from_bytes(event_log_to_bytes(a))) == event_log_to_bytes(a)
    assert a.kind == "hawkes" and a.sizes.sum() == a.total_jumps


@pytest.mark.parametrize("name", ["tab", "spike"])
def test_cluster_kernel_mass_inverts_exactly(name):
    kernel = TAB if name == "tab" else Kernel.tabulated([0.0, 0.005, 0.015, 20.0], [0.0, 90.0, 0.0, 0.0])
    T = 1.0
    mass, inverse = engine._kernel_mass(kernel, T)
    lags = np.linspace(0.0, T, 4001)
    # H against a fine trapezoid sum of the interpolant
    fine = np.linspace(0.0, T, 400001)
    h = kernel.eval(fine)
    reference = np.concatenate([[0.0], np.cumsum(np.diff(fine) * 0.5 * (h[1:] + h[:-1]))])[::100]
    assert np.max(np.abs(mass(lags) - reference)) <= 1e-9
    y = mass(lags)
    back = inverse(y)
    # a lag where h = 0 is not unique: compare through H
    assert np.max(np.abs(mass(np.minimum(back, T)) - y)) <= 1e-12 * y[-1]


def test_cluster_refuses_what_it_cannot_sample_exactly(exp_kernel, affine_rate):
    concave = RateFn.tabulated([0.0, 1.0, 4.0], [1.0, 2.0, 2.5])
    with pytest.raises(ValueError, match="affine"):
        engine.simulate_cluster(10, exp_kernel, concave, 1.0, seed=1)
    dip = Kernel.tabulated([0.0, 0.5, 1.0], [1.0, -0.2, 0.0])
    with pytest.raises(ValueError, match="h >= 0"):
        engine.simulate_cluster(10, dip, affine_rate, 1.0, seed=1)
    # only h on [0, T] enters the law
    late_dip = Kernel.tabulated([0.0, 1.0, 2.0], [1.0, 0.5, -1.0])
    assert engine.simulate_cluster(10, late_dip, affine_rate, 1.0, seed=1).total_jumps > 0
    with pytest.raises(ValueError, match="inversion"):
        engine.simulate_cluster(10, Kernel.constant(1e3), affine_rate, 1.0, seed=1)
