import hashlib
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hawkes_meanfield import engine
from hawkes_meanfield.meanfield import MeanPath, TimeGrid, solve_mean
from hawkes_meanfield.model import Kernel, RateFn
from hawkes_meanfield.engine import (
    EventLog,
    SimulationError,
    event_log_from_bytes,
    event_log_to_bytes,
    event_log_to_csv,
    mean_path,
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


def test_mean_path_examples():
    grid = TimeGrid.from_T_dt(1.0, 0.2)
    empty = EventLog(N=3, T=1.0, jumps=(np.array([]),) * 3, seed=0, kind="hawkes")
    assert np.array_equal(mean_path(empty, grid), np.zeros(6))
    log = EventLog(
        N=2, T=1.0, jumps=(np.array([0.5]), np.array([0.25, 0.75])), seed=0, kind="hawkes"
    )
    zbar = mean_path(log, grid)
    assert zbar[grid.index_of(0.6)] == pytest.approx(1.0)
    assert np.all(np.diff(zbar) >= 0)
    assert np.allclose((zbar * 2) % 1.0, 0.0)  # increments are multiples of 1/N
    single = EventLog(N=1, T=1.0, jumps=(np.array([0.3, 0.7]),), seed=0, kind="hawkes")
    assert mean_path(single, grid)[-1] == pytest.approx(2.0)


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
# streams went in: both must leave every event-log byte unchanged
GOLDEN = {
    "hawkes_exp": "b6ab2a1e9146e6f1e6724d69faa1416eb84640cbf4047457e59ee2a58daad054",
    "hawkes_exp_remap": "ca4a2daf849d7255fbed64a2aef0c4078ddeda57c5a0f773c324a3adaa86b6b3",
    "hawkes_tab": "1fbd838f106ca2ea77afa2c93e56a7f3925f6f8c6f3f6637e028bdaa721338d5",
    "coupled_hawkes": "16a6c074b5e479ad93bd2843827b7f5a2bb0a9c9d58c78f55cacc0b0cd367804",
    "coupled_poisson": "5fb67e648997254d358636e1da297b6713a189aa0ec0f2880bbf434ad5e22d77",
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
# memory to a growable buffer and the Poisson log to a pass after the walk
GOLDEN_WALK = {
    "coupled_tab_hawkes": "6f1e208acb7ccbd55058303e6e3de54ac1c92a239f95ddc6d40af8e7c7394f71",
    "coupled_tab_poisson": "16cabe9d3fee3ea4374aa7e850339e787513b9ee924f36a89857949ce939b267",
    "coupled_coarse_hawkes": "80a7258dbed422dca8fecb1aaa41a926a9273bc786c3071c117809d4aa2a6b24",
    "coupled_coarse_poisson": "b178f03a2a4ad7e0f45ad76a39b3d501c75b29dcec094cdb0d33e396a8cb1ebb",
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

def _under_reported_norms(kernel, T, dt):
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
        "engine.kernel_norms = lambda kernel, T, dt: (0.0, 0.0)\n"
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
