"""Experiment orchestration: config parsing, replica execution, checks, artifacts.

One JSON config file drives every subcommand.  Replicas run under derived
per-replica seeds keyed by replica index, so the aggregated statistics are
identical no matter how many workers execute them, and reruns with the same
config and seed produce byte-identical artifacts (summaries carry no wall
clock; runtimes go to stderr).

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration/model error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import BinaryIO

import numpy as np

from . import __version__
from .model import (
    AssumptionReport,
    Kernel,
    RateFn,
    ValidationError,
    kernel_from_dict,
    kernel_to_dict,
    rate_from_dict,
    rate_to_dict,
    validate_assumptions,
)
from .meanfield import MeanPath, SolverDivergenceError, TimeGrid, limit_law, solve_mean, suggested_state_count
from .cluster import cluster_batch, cluster_counts
from .engine import (
    SimulationError,
    _write_event_log_csv,
    coupled_sup_difference,
    event_log_to_bytes,
    simulate_coupled,
    simulate_hawkes,
    sup_path_difference,  # unused here; perfbench's tracer wraps it at this name
)
from .fluct import (
    FieldPath,
    _require_monotone_steps,
    centered_field,  # unused here; perfbench's tracer wraps it at this name
    limit_field_variance,
    limit_mean_variance,
    simulate_limit_field,  # unused here; perfbench's tracer wraps it at this name
)
from . import deviations as dev
from .rng import derive_seed
from ._text import write_csv

__all__ = ["ExperimentConfig", "ResultBundle", "ConfigError", "run", "main"]

class ConfigError(ValueError):
    """Bad configuration file or field."""


@dataclass
class ExperimentConfig:
    subcommand: str
    kernel: Kernel
    rate: RateFn
    T: float = 1.0
    dt: float = 1e-3
    K: int = 0  # 0 = auto from the solved mean
    N_list: tuple[int, ...] = (1000,)
    replicas: int = 100
    gamma: float = 0.25
    seed: int = 1
    workers: int = 1
    params: dict = field(default_factory=dict)
    output: str = "results"

    @property
    def N(self) -> int:
        """The particle count of a subcommand that runs one N."""
        _require(len(self.N_list) == 1, f"field 'N' must be one integer for {self.subcommand}, got {list(self.N_list)}")
        return self.N_list[0]


@dataclass
class ResultBundle:
    summary: dict
    # each artifact's bytes, or a writer that renders them into an open binary file
    artifacts: dict[str, bytes | Callable[[BinaryIO], None]]
    passed: bool


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # an int beyond the float range has no finite float value
    return (_is_int(value) and abs(value) <= sys.float_info.max) or (isinstance(value, float) and math.isfinite(value))


def _param_number(spec: dict, name: str, default: float, where: str = "params") -> float:
    v = spec.get(name, default)
    _require(_is_number(v), f"{where}.{name} must be a finite number, got {v!r}")
    return float(v)


def _seed(value, source: str) -> int:
    # the event-log record stores the seed as a u64
    _require(_is_int(value) and 0 <= value < 1 << 64, f"{source} must be an integer in [0, 2**64), got {value!r}")
    return value


def load_config(path: str, subcommand: str, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    return build_config(raw, subcommand, overrides)


def build_config(raw: dict, subcommand: str, overrides: dict | None = None) -> ExperimentConfig:
    _require(isinstance(raw, dict), "config root must be a JSON object")
    model = raw.get("model")
    _require(isinstance(model, dict), "field 'model' must be an object with kernel and rate")
    try:
        kernel = kernel_from_dict(model.get("kernel"))
        rate = rate_from_dict(model.get("rate"))
    except ValidationError as exc:
        raise ConfigError(f"field 'model': {exc}") from exc

    def num(name, default, positive=True):
        v = raw.get(name, default)
        _require(_is_number(v), f"field {name!r} must be a finite number")
        if positive:
            _require(v > 0, f"field {name!r} must be > 0, got {v}")
        return float(v)

    T = num("T", 1.0)
    dt = num("dt", 1e-3)
    K = raw.get("K", 0)
    _require(_is_int(K) and K >= 0, f"field 'K' must be a nonnegative integer, got {K}")
    n_raw = raw.get("N", 1000)
    if _is_int(n_raw):
        n_list = (n_raw,)
    else:
        _require(
            isinstance(n_raw, list) and n_raw and all(_is_int(v) for v in n_raw),
            "field 'N' must be a positive integer or a nonempty list of them",
        )
        n_list = tuple(n_raw)
    _require(all(v > 0 for v in n_list), "field 'N' entries must be > 0")
    replicas = raw.get("replicas", 100)
    _require(_is_int(replicas) and replicas > 0, "field 'replicas' must be a positive integer")
    gamma = num("gamma", 0.25)
    _require(0.0 < gamma < 0.5, f"field 'gamma' must lie in (0, 1/2), got {gamma}")
    seed = _seed(raw.get("seed", 1), "field 'seed'")
    params = raw.get("params", {})
    _require(isinstance(params, dict), "field 'params' must be an object")
    output = raw.get("output", "results")
    _require(isinstance(output, str) and output, "field 'output' must be a nonempty string")

    cfg = ExperimentConfig(
        subcommand=subcommand,
        kernel=kernel,
        rate=rate,
        T=T,
        dt=dt,
        K=int(K),
        N_list=n_list,
        replicas=replicas,
        gamma=gamma,
        seed=int(seed),
        params=params,
        output=output,
    )
    for key, val in (overrides or {}).items():
        if val is not None:
            setattr(cfg, key, val)
    cfg.seed = _seed(cfg.seed, "--seed")
    env_seed = os.environ.get("HAWKES_SEED")
    if env_seed is not None:
        try:
            env = int(env_seed)
        except ValueError:
            raise ConfigError(f"HAWKES_SEED must be an integer, got {env_seed!r}") from None
        cfg.seed = _seed(env, "HAWKES_SEED")
    return cfg


# ---------------------------------------------------------------------------
# replica workers (module level so they pickle under multiprocessing)

def _pmap(fn, count: int, workers: int) -> list:
    if workers <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    # imported here, as only a pool needs it: it costs a process about 0.5 MB resident
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    # outputs do not depend on the worker count, so more processes than cores buy nothing
    with ctx.Pool(min(workers, count, os.cpu_count() or 1)) as pool:
        return pool.map(fn, range(count))


def _replica_counts(args, chunk: int) -> np.ndarray:
    """Each particle's jump count at T in each replica of ``chunk``, shape (replicas, N).

    An affine phi draws the chunk's replicas together by their cluster form,
    any other phi draws each by thinning.  Both samplers are exact in law;
    they draw different paths from one seed.
    """
    kernel, rate, N, T, seed, replicas, size = args[:7]
    seeds = [derive_seed(seed, rep) for rep in range(chunk * size, min(replicas, (chunk + 1) * size))]
    if rate.kind == "affine":
        return cluster_counts(N, kernel, rate, T, seeds)
    return np.array([simulate_hawkes(N, kernel, rate, T, s).sizes for s in seeds])


def _w_zbar(args, chunk: int) -> list[float]:
    N = args[2]
    return (_replica_counts(args, chunk).sum(axis=1) / N).tolist()


def _w_field_proj(args, chunk: int) -> list[float]:
    # the centered field's entry at (T, x0), from the count of particles at x0
    N, (x0, law_x0) = args[2], args[7:]
    at_x0 = np.count_nonzero(_replica_counts(args, chunk) == x0, axis=1)
    return (math.sqrt(N) * (at_x0 / N - law_x0)).tolist()


def _per_replica(worker, cfg: ExperimentConfig, *extra) -> list[float]:
    """``worker``'s value of each replica of ``cfg``, in replica order.

    A worker task draws one chunk of replicas: a cluster batch at an affine
    phi, else one replica.
    """
    size = cluster_batch(cfg.N, cfg.rate, cfg.T) if cfg.rate.kind == "affine" else 1
    args = (cfg.kernel, cfg.rate, cfg.N, cfg.T, cfg.seed, cfg.replicas, size, *extra)
    chunks = _pmap(functools.partial(worker, args), -(-cfg.replicas // size), cfg.workers)
    return [value for chunk in chunks for value in chunk]


def _w_couple(args, rep: int) -> tuple[float, float]:
    kernel, rate, N, T, seed, mean = args
    d = coupled_sup_difference(N, kernel, rate, mean, T, derive_seed(seed, rep))
    return float(d.mean()), float(d.max())


# ---------------------------------------------------------------------------
# subcommand pipelines

def _csv(header: str, *columns) -> Callable[[BinaryIO], None]:
    """A writer of the CSV table whose columns are the given sequences, floats as
    their plain ``repr``: the text is rendered when the table is written."""
    return lambda fh: write_csv(fh, header, *columns)


def _provenance(cfg: ExperimentConfig) -> dict:
    return {
        "version": __version__,
        "subcommand": cfg.subcommand,
        "seed": cfg.seed,
        "model": {"kernel": kernel_to_dict(cfg.kernel), "rate": rate_to_dict(cfg.rate)},
        "T": cfg.T,
        "dt": cfg.dt,
        "K": cfg.K,
        "N": list(cfg.N_list),
        "replicas": cfg.replicas,
        "gamma": cfg.gamma,
        "params": cfg.params,
    }


def _auto_K(cfg: ExperimentConfig, mean: MeanPath) -> int:
    """K of a birth-ladder run, from the solved mean when ``cfg.K`` is 0; refused when a
    ladder step is not monotone or the limit law's tail beyond K is not negligible."""
    K = cfg.K if cfg.K >= 1 else suggested_state_count(mean.m_final)
    _require_monotone_steps(mean)
    limit_law(mean, mean.grid.T, K)
    return K


def _run_meanfield(cfg: ExperimentConfig, report: AssumptionReport) -> tuple[dict, dict, bool]:
    mean = solve_mean(cfg.kernel, cfg.rate, cfg.T, cfg.dt)
    art = {"meanfield.csv": _csv("t,m,lambda", mean.grid.points, mean.m, mean.lam)}
    summary = {
        "final_m": mean.m_final,
        "final_lambda": float(mean.lam[-1]),
        "stability_margin": report.stability_margin,
        "assumptions_passed": report.passed,
        "warnings": list(report.warnings),
    }
    return summary, art, True


def _run_simulate(cfg: ExperimentConfig, report: None) -> tuple[dict, dict, bool]:
    kind = cfg.params.get("kind", "hawkes")
    if kind == "hawkes":
        log = simulate_hawkes(cfg.N, cfg.kernel, cfg.rate, cfg.T, cfg.seed)
    elif kind == "mf_poisson":
        mean = solve_mean(cfg.kernel, cfg.rate, cfg.T, cfg.dt)
        log = simulate_coupled(cfg.N, cfg.kernel, cfg.rate, mean, cfg.T, cfg.seed).poisson
    else:
        raise ConfigError(f"params.kind must be 'hawkes' or 'mf_poisson', got {kind!r}")
    art = {
        "events.bin": event_log_to_bytes(log),
        "events.csv": functools.partial(_write_event_log_csv, log),
    }
    summary = {
        "kind": kind,
        "total_jumps": log.total_jumps,
        "mean_count": log.total_jumps / log.N,
    }
    return summary, art, True


def _variance_ratio(samples, limit_var: float, band: float, art: dict, **extra) -> tuple[dict, dict, bool]:
    """Pass when the samples' variance over the limit variance lies in 1 +- band."""
    emp_var = float(np.var(samples, ddof=1))
    ratio = emp_var / limit_var
    ok = (1.0 - band) <= ratio <= (1.0 + band)
    summary = {
        **extra,
        "empirical_variance": emp_var,
        "limit_variance": limit_var,
        "ratio": ratio,
        "band": band,
        "pass": ok,
    }
    return summary, art, ok


def _ratio_band(cfg: ExperimentConfig, limit_var: float, default: float) -> float:
    """``params.band`` of a variance-ratio check, once the ratio is known to be defined."""
    _require(cfg.replicas >= 2, f"field 'replicas' must be >= 2 for a sample variance, got {cfg.replicas}")
    band = cfg.params.get("band", default)
    _require(_is_number(band) and band > 0, f"params.band must be a finite number > 0, got {band!r}")
    _require(math.isfinite(limit_var) and limit_var > 0, f"the limit variance is {limit_var!r}; a variance ratio needs it finite and > 0")
    return float(band)


def _run_clt_check(cfg: ExperimentConfig, report: AssumptionReport) -> tuple[dict, dict, bool]:
    mean = solve_mean(cfg.kernel, cfg.rate, cfg.T, cfg.dt)
    limit_var = limit_mean_variance(mean, cfg.kernel, cfg.rate)
    band = _ratio_band(cfg, limit_var, 0.10)
    zbars = _per_replica(_w_zbar, cfg)
    x = math.sqrt(cfg.N) * (np.asarray(zbars) - mean.m_final)
    art = {"clt_samples.csv": _csv("replica,scaled_deviation", range(x.size), x)}
    return _variance_ratio(x, limit_var, band, art)


def _run_field_clt_check(cfg: ExperimentConfig, report: AssumptionReport) -> tuple[dict, dict, bool]:
    x0 = cfg.params.get("state", 0)
    mean = solve_mean(cfg.kernel, cfg.rate, cfg.T, cfg.dt)
    K = _auto_K(cfg, mean)
    _require(_is_int(x0) and 0 <= x0 <= K, f"params.state must be an integer in [0, K] = [0, {K}], got {x0!r}")
    limit_var = limit_field_variance(mean, cfg.kernel, cfg.rate, K, np.eye(K + 1)[x0])
    band = _ratio_band(cfg, limit_var, 0.20)
    law_x0 = limit_law(mean, mean.grid.T, K).pmf[x0]
    emp = _per_replica(_w_field_proj, cfg, x0, law_x0)
    art = {"field_clt_empirical.csv": _csv("replica,projection", range(len(emp)), emp)}
    return _variance_ratio(emp, limit_var, band, art, state=x0, K=K)


def _run_couple_scaling(cfg: ExperimentConfig, report: AssumptionReport) -> tuple[dict, dict, bool]:
    if len(set(cfg.N_list)) < 3:
        raise ConfigError("couple-scaling needs >= 3 distinct values in 'N' to regress a slope")
    slope_max = _param_number(cfg.params, "slope_max", -0.35)
    slope_min = _param_number(cfg.params, "slope_min", -0.65)
    mean = solve_mean(cfg.kernel, cfg.rate, cfg.T, cfg.dt)
    rows = []
    mean_diffs = []
    for j, n_particles in enumerate(cfg.N_list):
        res = _pmap(
            functools.partial(
                _w_couple,
                (cfg.kernel, cfg.rate, n_particles, cfg.T, derive_seed(cfg.seed, 7000 + j), mean),
            ),
            cfg.replicas,
            cfg.workers,
        )
        per_particle = float(np.mean([r[0] for r in res]))
        max_particle = float(np.mean([r[1] for r in res]))
        mean_diffs.append(per_particle)
        rows.append((n_particles, per_particle, max_particle))
    art = {"couple_scaling.csv": _csv("N,mean_sup_diff,mean_max_sup_diff", *zip(*rows))}
    if cfg.rate.lipschitz * report.sup_norm == 0.0:
        # the model makes the two intensities identical, so the coupled logs agree
        ok = all(d == 0.0 for d in mean_diffs)
        summary = {
            "degenerate": True,
            "slope": None,
            "pass": ok,
            "note": "identical intensities: rate Lipschitz constant x kernel sup norm is 0",
        }
        return summary, art, ok
    zero = [n for n, d in zip(cfg.N_list, mean_diffs) if d == 0.0]
    if zero:
        summary = {
            "degenerate": False,
            "slope": None,
            "window": [slope_min, slope_max],
            "pass": False,
            "note": f"mean sup-difference exactly zero at N = {zero}; a log-log slope needs every rung > 0",
        }
        return summary, art, False
    logs_n = np.log(np.asarray(cfg.N_list, dtype=float))
    logs_d = np.log(np.asarray(mean_diffs))
    # the least-squares line in closed form: np.polyfit would fault in LAPACK
    # code pages at the run's largest heap
    dx = logs_n - logs_n.mean()
    slope = (dx @ (logs_d - logs_d.mean())) / (dx @ dx)
    intercept = logs_d.mean() - slope * logs_n.mean()
    ok = slope_min <= slope <= slope_max
    summary = {
        "degenerate": False,
        "slope": float(slope),
        "intercept": float(intercept),
        "window": [slope_min, slope_max],
        "pass": bool(ok),
    }
    return summary, art, bool(ok)


def _run_exp_moment(cfg: ExperimentConfig, report: AssumptionReport) -> tuple[dict, dict, bool]:
    thetas_n = cfg.params.get("theta_times_N", [0.01, 0.05])
    _require(
        isinstance(thetas_n, list) and thetas_n and all(_is_number(v) and v >= 0 for v in thetas_n),
        "params.theta_times_N must be a list of finite nonnegative numbers",
    )
    ci_slack = _param_number(cfg.params, "ci_slack", 3.0)
    phi0 = float(cfg.rate.eval(0.0))
    # a bound no double holds is refused before any replica is drawn
    for tn in map(float, thetas_n):
        try:
            math.exp(2.0 * tn * phi0 * cfg.T / report.stability_margin)
        except OverflowError:
            raise ConfigError(f"theta*N={tn}: the bound exp(2 theta N phi(0) T / margin) overflows a double") from None
    zbars = np.asarray(_per_replica(_w_zbar, cfg))
    rows = []
    all_ok = True
    warnings = []
    for tn in thetas_n:
        tn = float(tn)
        # exponent theta*N*Zbar = tn*Zbar with theta = tn/N; keep it under exp overflow
        while tn > 0 and float(np.max(tn * zbars)) > 700.0:
            warnings.append(f"theta*N={tn} overflows exp; halved")
            tn /= 2.0
        samples = np.exp(tn * zbars)
        est = float(np.mean(samples))
        se = float(np.std(samples, ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else 0.0
        slack = ci_slack * se / est if est > 0 else 0.0
        bound = math.exp(2.0 * tn * phi0 * cfg.T / report.stability_margin)
        ok = est <= bound * (1.0 + slack)
        all_ok = all_ok and ok
        rows.append((tn, est, se, bound, ok))
    names = ("theta_times_N", "estimate", "std_error", "bound", "pass")
    art = {"exp_moment.csv": _csv(",".join(names), *zip(*rows))}
    summary = {
        "rows": [dict(zip(names, r)) for r in rows],
        "warnings": warnings,
        "pass": all_ok,
    }
    return summary, art, all_ok


def _named_test_function(name: str, grid: TimeGrid, K: int, x0: int = 1) -> dev.TestFunction:
    if name == "identity":
        return dev.TestFunction.identity(grid, K)
    if name == "indicator":
        return dev.TestFunction.indicator_geq(grid, K, x0)
    if name == "t_identity":
        return dev.TestFunction.monomial(grid, K, 1, 1)
    raise ConfigError(f"unknown test-function family {name!r}")


def _probe_basis(grid: TimeGrid, K: int) -> Iterator[dev.TestFunction]:
    """The 10 probe directions, built one at a time as they are read."""
    yield dev.TestFunction.identity(grid, K)
    for p, q in ((1, 1), (0, 2), (2, 1)):
        yield dev.TestFunction.monomial(grid, K, p, q)
    for x0 in (1, 2, 3, 4, 5, 6):
        yield dev.TestFunction.indicator_geq(grid, K, x0)


def _mdp_functionals(
    psi: dev.TestFunction, mean: MeanPath, K: int, kernel: Kernel, rate: RateFn
) -> tuple[FieldPath, float, float, float]:
    """mu = mu^psi with I(mu), (1/2) [psi, psi] and the largest duality residual
    |Upsilon_mu(phi) - [psi, phi]| / (1 + |[psi, phi]|) over the probe directions.

    The functionals' tables die on return, before a caller renders mu.
    """
    mu = dev.linearized_from_test_function(psi, mean, kernel, rate)
    forms = dev._Functionals(mean, K, mu, kernel, rate)
    worst = 0.0
    for phi in _probe_basis(mean.grid, K):
        # Upsilon first: it pairs phi's time differences before phi's
        # gradient is built, so the two tables never coexist
        ups = forms.upsilon(phi)
        ip = forms.inner(psi, phi)
        worst = max(worst, abs(ups - ip) / (1.0 + abs(ip)))
        del phi  # so that the next direction is built without this one
    return mu, forms.rate()[0], 0.5 * forms.inner(psi, psi), worst


def _run_mdp_rate(cfg: ExperimentConfig, report: AssumptionReport) -> tuple[dict, dict, bool]:
    mean = solve_mean(cfg.kernel, cfg.rate, cfg.T, cfg.dt)
    spec = cfg.params.get("eta", {"family": "linear", "scale": 1.0})
    _require(isinstance(spec, dict), "params.eta must be an object")
    ac = spec.get("ac", True)
    _require(isinstance(ac, bool), f"params.eta.ac must be true or false, got {ac!r}")
    if "csv" in spec:
        try:
            data = np.loadtxt(spec["csv"], delimiter=",", skiprows=1, ndmin=2)
        except OSError as exc:
            raise ConfigError(f"cannot read eta csv: {exc}") from exc
        _require(data.shape[1] == 2, f"eta csv must have two columns (t, eta), got {data.shape[1]}")
        _require(bool(np.all(np.isfinite(data))), "eta csv values must be finite")
        ts, vals = data[:, 0], data[:, 1]
        if ts.shape != mean.grid.points.shape or np.max(np.abs(ts - mean.grid.points)) > 1e-9:
            raise ConfigError("eta csv grid must match the configured (T, dt) grid")
    else:
        family = spec.get("family", "linear")
        scale = _param_number(spec, "scale", 1.0, "params.eta")
        ts = mean.grid.points
        if family == "linear":
            vals = scale * ts
        elif family == "quadratic":
            vals = scale * ts * ts
        elif family == "sin":
            vals = scale * np.sin(math.pi * ts / cfg.T)
        else:
            raise ConfigError(f"unknown eta family {family!r}")
    eta = dev.MeanDeviationPath.from_values(mean.grid, vals, ac_flag=ac)
    value = dev.rate_mean(eta, mean, cfg.kernel, cfg.rate)
    art = {"eta.csv": _csv("t,eta", mean.grid.points, eta.eta)}
    summary = {
        "rate": value if math.isfinite(value) else "inf",
        "finite": math.isfinite(value),
    }
    return summary, art, True


def _run_mdp_field(cfg: ExperimentConfig, report: AssumptionReport) -> tuple[dict, dict, bool]:
    mean = solve_mean(cfg.kernel, cfg.rate, cfg.T, cfg.dt)
    K = _auto_K(cfg, mean)
    spec = cfg.params.get("psi", {"family": "identity"})
    _require(isinstance(spec, dict), "params.psi must be an object")
    x0 = spec.get("x0", 1)
    _require(_is_int(x0), f"params.psi.x0 must be an integer, got {x0!r}")
    psi = _named_test_function(spec.get("family", "identity"), mean.grid, K, x0)
    # the functionals first and the artifacts after them, so the transients of
    # the rate and of the probes never meet the CSV bytes
    mu, i_est, half_norm, resid = _mdp_functionals(psi, mean, K, cfg.kernel, cfg.rate)
    proj = mu.values @ np.arange(K + 1, dtype=float)
    art = {
        "mu_projection.csv": _csv("t,mu_ell", mean.grid.points, proj),
        "mu_field.csv": mu.to_csv,
    }
    summary = {
        "K": K,
        "rate_estimate": i_est,
        "half_inner_psi_psi": half_norm,
        "max_duality_residual": resid,
        "final_projection": float(proj[-1]),
    }
    return summary, art, True


def _run_mdp_duality(cfg: ExperimentConfig, report: AssumptionReport) -> tuple[dict, dict, bool]:
    resid_tol = _param_number(cfg.params, "residual_tol", 1e-6)
    rate_tol = _param_number(cfg.params, "rate_tol", 0.01)
    mean = solve_mean(cfg.kernel, cfg.rate, cfg.T, cfg.dt)
    K = _auto_K(cfg, mean)
    grid = mean.grid
    rows = []
    all_ok = True
    # one psi at a time, each with the default threshold x0 = 1 of its family
    for name, family in (("identity", "identity"), ("indicator_ge1", "indicator"), ("t_identity", "t_identity")):
        psi = _named_test_function(family, grid, K)
        i_est, half_norm, worst = _mdp_functionals(psi, mean, K, cfg.kernel, cfg.rate)[1:]
        rel = abs(i_est - half_norm) / half_norm if half_norm > 0 else 0.0
        ok = worst <= resid_tol and rel <= rate_tol
        all_ok = all_ok and ok
        rows.append((name, worst, half_norm, i_est, rel, ok))
    names = ("psi", "max_residual", "half_inner", "rate_estimate", "rate_rel_err", "pass")
    art = {"duality.csv": _csv(",".join(names), *zip(*rows))}
    summary = {
        "K": K,
        "rows": [dict(zip(names, r)) for r in rows],
        "residual_tol": resid_tol,
        "rate_tol": rate_tol,
        "pass": all_ok,
    }
    return summary, art, all_ok


_RUNNERS = {
    "meanfield": _run_meanfield,
    "simulate": _run_simulate,
    "clt-check": _run_clt_check,
    "field-clt-check": _run_field_clt_check,
    "couple-scaling": _run_couple_scaling,
    "exp-moment": _run_exp_moment,
    "mdp-rate": _run_mdp_rate,
    "mdp-field": _run_mdp_field,
    "mdp-duality": _run_mdp_duality,
}
SUBCOMMANDS = tuple(_RUNNERS)


def run(cfg: ExperimentConfig) -> ResultBundle:
    """Dispatch a parsed config to its pipeline; deterministic given (config, seed).

    Every pipeline but ``simulate`` gets the model's assumption report: ``meanfield``
    reports a failed one, and the limit-theorem checks refuse to run on it.  A
    pipeline returns (summary, artifacts, passed), and its summary gets the provenance.
    """
    if cfg.subcommand not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {cfg.subcommand!r}")
    report = None
    if cfg.subcommand != "simulate":
        report = validate_assumptions(cfg.kernel, cfg.rate, cfg.T)
        if not report.passed and cfg.subcommand != "meanfield":
            raise ConfigError(
                "model fails the standing assumptions "
                f"(stability margin {report.stability_margin:.6g}); "
                "limit-theorem checks refuse to run: " + "; ".join(report.warnings)
            )
    summary, artifacts, passed = _RUNNERS[cfg.subcommand](cfg, report)
    return ResultBundle(summary={"provenance": _provenance(cfg), **summary}, artifacts=artifacts, passed=passed)


def write_bundle(bundle: ResultBundle, outdir: str) -> None:
    """Write summary.json and then the artifacts in name order, each as its bytes
    or rendered by its writer into the open file; ``ValueError``, before anything
    is written, for a summary that strict JSON cannot hold (NaN or an infinity)."""
    text = json.dumps(bundle.summary, sort_keys=True, indent=2, allow_nan=False)
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    for name, data in sorted(bundle.artifacts.items()):
        with open(os.path.join(outdir, name), "wb") as fh:
            if isinstance(data, bytes):
                fh.write(data)
            else:
                data(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hawkes-mf",
        description="Simulation and verification toolkit for mean-field limits of Hawkes systems",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--output", default=None, help="output directory (overrides config)")
        p.add_argument("--workers", type=int, default=None, help="replica parallelism (default 1)")
        p.add_argument("--seed", type=int, default=None, help="seed override (HAWKES_SEED beats this)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        cfg = load_config(
            args.config,
            args.subcommand,
            overrides={"output": args.output, "workers": args.workers, "seed": args.seed},
        )
        bundle = run(cfg)
    except (ConfigError, ValidationError, ValueError, SolverDivergenceError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_bundle(bundle, cfg.output)
    print(f"runtime: {time.perf_counter() - t0:.3f}s (not part of the artifacts)", file=sys.stderr)
    return 0 if bundle.passed else 1


if __name__ == "__main__":
    sys.exit(main())
