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
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .model import (
    Kernel,
    RateFn,
    ValidationError,
    kernel_from_dict,
    kernel_to_dict,
    rate_from_dict,
    rate_to_dict,
    validate_assumptions,
)
from .meanfield import MeanPath, TimeGrid, solve_mean, suggested_state_count
from .engine import (
    event_log_to_bytes,
    event_log_to_csv,
    simulate_coupled,
    simulate_hawkes,
    sup_path_difference,
)
from .fluct import (
    centered_field,
    limit_mean_variance,
    simulate_limit_field,
)
from . import deviations as dev
from .rng import derive_seed

__all__ = ["ExperimentConfig", "ResultBundle", "ConfigError", "run", "main"]

SUBCOMMANDS = (
    "meanfield",
    "simulate",
    "clt-check",
    "field-clt-check",
    "couple-scaling",
    "exp-moment",
    "mdp-rate",
    "mdp-field",
    "mdp-duality",
)

_NEEDS_ASSUMPTIONS = {
    "clt-check",
    "field-clt-check",
    "couple-scaling",
    "exp-moment",
    "mdp-rate",
    "mdp-field",
    "mdp-duality",
}


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
        return self.N_list[0]


@dataclass
class ResultBundle:
    summary: dict
    artifacts: dict[str, bytes]
    passed: bool


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


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
        _require(isinstance(v, (int, float)) and math.isfinite(v), f"field {name!r} must be a finite number")
        if positive:
            _require(v > 0, f"field {name!r} must be > 0, got {v}")
        return float(v)

    T = num("T", 1.0)
    dt = num("dt", 1e-3)
    K = raw.get("K", 0)
    _require(isinstance(K, int) and K >= 0, f"field 'K' must be a nonnegative integer, got {K}")
    n_raw = raw.get("N", 1000)
    if isinstance(n_raw, int):
        n_list = (n_raw,)
    else:
        _require(
            isinstance(n_raw, list) and n_raw and all(isinstance(v, int) for v in n_raw),
            "field 'N' must be a positive integer or a nonempty list of them",
        )
        n_list = tuple(n_raw)
    _require(all(v > 0 for v in n_list), "field 'N' entries must be > 0")
    replicas = raw.get("replicas", 100)
    _require(isinstance(replicas, int) and replicas > 0, "field 'replicas' must be a positive integer")
    gamma = num("gamma", 0.25)
    _require(0.0 < gamma < 0.5, f"field 'gamma' must lie in (0, 1/2), got {gamma}")
    seed = raw.get("seed", 1)
    _require(isinstance(seed, int) and seed >= 0, "field 'seed' must be a nonnegative integer")
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
    env_seed = os.environ.get("HAWKES_SEED")
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"HAWKES_SEED must be an integer, got {env_seed!r}") from None
    return cfg


# ---------------------------------------------------------------------------
# replica workers (module level so they pickle under multiprocessing)

def _pmap(fn, count: int, workers: int) -> list:
    if workers <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(workers, count)) as pool:
        return pool.map(fn, range(count))


def _w_zbar(args, rep: int) -> float:
    kernel, rate, N, T, seed = args
    log = simulate_hawkes(N, kernel, rate, T, derive_seed(seed, rep))
    return log.total_jumps / N


def _w_field_proj(args, rep: int) -> float:
    kernel, rate, N, T, seed, mean, K, x0 = args
    log = simulate_hawkes(N, kernel, rate, T, derive_seed(seed, rep))
    f = centered_field(log, mean, K)
    return float(f.values[-1, x0])


def _w_limit_field_proj(args, rep: int) -> float:
    kernel, rate, mean, K, seed, x0 = args
    f = simulate_limit_field(mean, kernel, rate, K, derive_seed(seed, rep))
    return float(f.values[-1, x0])


def _w_couple(args, rep: int) -> tuple[float, float]:
    kernel, rate, N, T, seed, mean = args
    c = simulate_coupled(N, kernel, rate, mean, T, derive_seed(seed, rep))
    d = sup_path_difference(c.hawkes, c.poisson)
    return float(d.mean()), float(d.max())


# ---------------------------------------------------------------------------
# subcommand pipelines

def _csv(header: str, rows) -> bytes:
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


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
    return cfg.K if cfg.K >= 1 else suggested_state_count(mean.m_final)


def _run_meanfield(cfg: ExperimentConfig) -> ResultBundle:
    mean = solve_mean(cfg.kernel, cfg.rate, cfg.T, cfg.dt)
    report = validate_assumptions(cfg.kernel, cfg.rate, cfg.T)
    rows = zip(mean.grid.points.tolist(), mean.m.tolist(), mean.lam.tolist())
    art = {"meanfield.csv": _csv("t,m,lambda", rows)}
    summary = {
        "provenance": _provenance(cfg),
        "final_m": mean.m_final,
        "final_lambda": float(mean.lam[-1]),
        "stability_margin": report.stability_margin,
        "assumptions_passed": report.passed,
        "warnings": list(report.warnings),
    }
    return ResultBundle(summary=summary, artifacts=art, passed=True)


def _run_simulate(cfg: ExperimentConfig) -> ResultBundle:
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
        "events.csv": event_log_to_csv(log).encode(),
    }
    summary = {
        "provenance": _provenance(cfg),
        "kind": kind,
        "total_jumps": log.total_jumps,
        "mean_count": log.total_jumps / log.N,
    }
    return ResultBundle(summary=summary, artifacts=art, passed=True)


def _variance_grid_mean(cfg: ExperimentConfig) -> MeanPath:
    # dense propagation is O(n^3); re-solve the mean on a coarse grid for it
    var_dt = float(cfg.params.get("variance_dt", max(cfg.dt, cfg.T / 256.0)))
    n = max(int(round(cfg.T / var_dt)), 10)
    return solve_mean(cfg.kernel, cfg.rate, cfg.T, cfg.T / n)


def _run_clt_check(cfg: ExperimentConfig) -> ResultBundle:
    band = float(cfg.params.get("band", 0.10))
    mean = solve_mean(cfg.kernel, cfg.rate, cfg.T, cfg.dt)
    coarse = _variance_grid_mean(cfg)
    method = cfg.params.get("variance_method", "auto")
    limit_var = float(limit_mean_variance(coarse, cfg.kernel, cfg.rate, method=method)[-1])
    zbars = _pmap(
        functools.partial(_w_zbar, (cfg.kernel, cfg.rate, cfg.N, cfg.T, cfg.seed)),
        cfg.replicas,
        cfg.workers,
    )
    x = math.sqrt(cfg.N) * (np.asarray(zbars) - mean.m_final)
    emp_var = float(np.var(x, ddof=1))
    ratio = emp_var / limit_var
    ok = (1.0 - band) <= ratio <= (1.0 + band)
    art = {"clt_samples.csv": _csv("replica,scaled_deviation", enumerate(x.tolist()))}
    summary = {
        "provenance": _provenance(cfg),
        "empirical_variance": emp_var,
        "limit_variance": limit_var,
        "ratio": ratio,
        "band": band,
        "pass": ok,
    }
    return ResultBundle(summary=summary, artifacts=art, passed=ok)


def _run_field_clt_check(cfg: ExperimentConfig) -> ResultBundle:
    band = float(cfg.params.get("band", 0.20))
    x0 = int(cfg.params.get("state", 0))
    mean = solve_mean(cfg.kernel, cfg.rate, cfg.T, cfg.dt)
    K = _auto_K(cfg, mean)
    field_dt = float(cfg.params.get("field_dt", max(cfg.dt, cfg.T / 100.0)))
    n = max(int(round(cfg.T / field_dt)), 10)
    mean_field_grid = solve_mean(cfg.kernel, cfg.rate, cfg.T, cfg.T / n)
    field_reps = int(cfg.params.get("field_replicas", cfg.replicas))

    emp = _pmap(
        functools.partial(_w_field_proj, (cfg.kernel, cfg.rate, cfg.N, cfg.T, cfg.seed, mean, K, x0)),
        cfg.replicas,
        cfg.workers,
    )
    spde = _pmap(
        functools.partial(
            _w_limit_field_proj,
            (cfg.kernel, cfg.rate, mean_field_grid, K, derive_seed(cfg.seed, 1 << 20), x0),
        ),
        field_reps,
        cfg.workers,
    )
    emp_var = float(np.var(emp, ddof=1))
    spde_var = float(np.var(spde, ddof=1))
    ratio = emp_var / spde_var
    ok = (1.0 - band) <= ratio <= (1.0 + band)
    art = {
        "field_clt_empirical.csv": _csv("replica,projection", enumerate(emp)),
        "field_clt_spde.csv": _csv("replica,projection", enumerate(spde)),
    }
    summary = {
        "provenance": _provenance(cfg),
        "state": x0,
        "K": K,
        "empirical_variance": emp_var,
        "spde_variance": spde_var,
        "ratio": ratio,
        "band": band,
        "pass": ok,
    }
    return ResultBundle(summary=summary, artifacts=art, passed=ok)


def _run_couple_scaling(cfg: ExperimentConfig) -> ResultBundle:
    if len(cfg.N_list) < 3:
        raise ConfigError("couple-scaling needs >= 3 values in 'N' to regress a slope")
    slope_max = float(cfg.params.get("slope_max", -0.35))
    slope_min = float(cfg.params.get("slope_min", -0.65))
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
    if all(d == 0.0 for d in mean_diffs):
        summary = {
            "provenance": _provenance(cfg),
            "degenerate": True,
            "slope": None,
            "pass": True,
            "note": "all coupled differences exactly zero (identical intensities)",
        }
        art = {"couple_scaling.csv": _csv("N,mean_sup_diff,mean_max_sup_diff", rows)}
        return ResultBundle(summary=summary, artifacts=art, passed=True)
    logs_n = np.log(np.asarray(cfg.N_list, dtype=float))
    logs_d = np.log(np.asarray(mean_diffs))
    slope, intercept = np.polyfit(logs_n, logs_d, 1)
    ok = slope_min <= slope <= slope_max
    art = {"couple_scaling.csv": _csv("N,mean_sup_diff,mean_max_sup_diff", rows)}
    summary = {
        "provenance": _provenance(cfg),
        "degenerate": False,
        "slope": float(slope),
        "intercept": float(intercept),
        "window": [slope_min, slope_max],
        "pass": bool(ok),
    }
    return ResultBundle(summary=summary, artifacts=art, passed=bool(ok))


def _run_exp_moment(cfg: ExperimentConfig) -> ResultBundle:
    report = validate_assumptions(cfg.kernel, cfg.rate, cfg.T)
    thetas_n = cfg.params.get("theta_times_N", [0.01, 0.05])
    _require(
        isinstance(thetas_n, list) and thetas_n and all(isinstance(v, (int, float)) and v >= 0 for v in thetas_n),
        "params.theta_times_N must be a list of nonnegative numbers",
    )
    phi0 = float(cfg.rate.eval(0.0))
    zbars = np.asarray(
        _pmap(
            functools.partial(_w_zbar, (cfg.kernel, cfg.rate, cfg.N, cfg.T, cfg.seed)),
            cfg.replicas,
            cfg.workers,
        )
    )
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
        slack = float(cfg.params.get("ci_slack", 3.0)) * se / est if est > 0 else 0.0
        bound = math.exp(2.0 * tn * phi0 * cfg.T / report.stability_margin)
        ok = est <= bound * (1.0 + slack)
        all_ok = all_ok and ok
        rows.append((tn, est, se, bound, ok))
    art = {"exp_moment.csv": _csv("theta_times_N,estimate,std_error,bound,pass", rows)}
    summary = {
        "provenance": _provenance(cfg),
        "rows": [
            {"theta_times_N": r[0], "estimate": r[1], "std_error": r[2], "bound": r[3], "pass": r[4]}
            for r in rows
        ],
        "warnings": warnings,
        "pass": all_ok,
    }
    return ResultBundle(summary=summary, artifacts=art, passed=all_ok)


def _named_test_function(name: str, grid: TimeGrid, K: int, x0: int = 1) -> dev.TestFunction:
    if name in ("identity", "ell"):
        return dev.TestFunction.identity(grid, K)
    if name == "indicator":
        return dev.TestFunction.indicator_geq(grid, K, x0)
    if name in ("t_identity", "t_ell"):
        return dev.TestFunction.monomial(grid, K, 1, 1)
    raise ConfigError(f"unknown test-function family {name!r}")


def _probe_basis(grid: TimeGrid, K: int) -> list[dev.TestFunction]:
    fam = [
        dev.TestFunction.identity(grid, K),
        dev.TestFunction.monomial(grid, K, 1, 1),
        dev.TestFunction.monomial(grid, K, 0, 2),
        dev.TestFunction.monomial(grid, K, 2, 1),
    ]
    for x0 in (1, 2, 3, 4, 5, 6):
        fam.append(dev.TestFunction.indicator_geq(grid, K, x0))
    return fam  # 10 directions


def _duality_residual(forms: dev._Functionals, psi: dev.TestFunction, phi: dev.TestFunction) -> float:
    """|Upsilon_mu(phi) - [psi, phi]| / (1 + |[psi, phi]|) for mu = mu^psi."""
    ip = forms.inner(psi, phi)
    return abs(forms.upsilon(phi) - ip) / (1.0 + abs(ip))


def _run_mdp_rate(cfg: ExperimentConfig) -> ResultBundle:
    mean = solve_mean(cfg.kernel, cfg.rate, cfg.T, cfg.dt)
    spec = cfg.params.get("eta", {"family": "linear", "scale": 1.0})
    _require(isinstance(spec, dict), "params.eta must be an object")
    ac = bool(spec.get("ac", True))
    if "csv" in spec:
        try:
            data = np.loadtxt(spec["csv"], delimiter=",", skiprows=1)
        except OSError as exc:
            raise ConfigError(f"cannot read eta csv: {exc}") from exc
        ts, vals = data[:, 0], data[:, 1]
        if ts.shape != mean.grid.points.shape or np.max(np.abs(ts - mean.grid.points)) > 1e-9:
            raise ConfigError("eta csv grid must match the configured (T, dt) grid")
        eta = dev.MeanDeviationPath.from_values(mean.grid, vals, ac_flag=ac)
    else:
        family = spec.get("family", "linear")
        scale = float(spec.get("scale", 1.0))
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
    art = {"eta.csv": _csv("t,eta", zip(mean.grid.points.tolist(), eta.eta.tolist()))}
    summary = {
        "provenance": _provenance(cfg),
        "rate": value if math.isfinite(value) else "inf",
        "finite": math.isfinite(value),
    }
    return ResultBundle(summary=summary, artifacts=art, passed=True)


def _run_mdp_field(cfg: ExperimentConfig) -> ResultBundle:
    mean = solve_mean(cfg.kernel, cfg.rate, cfg.T, cfg.dt)
    K = _auto_K(cfg, mean)
    spec = cfg.params.get("psi", {"family": "identity"})
    _require(isinstance(spec, dict), "params.psi must be an object")
    psi = _named_test_function(spec.get("family", "identity"), mean.grid, K, int(spec.get("x0", 1)))
    mu = dev.linearized_from_test_function(psi, mean, cfg.kernel, cfg.rate)
    states = np.arange(K + 1, dtype=float)
    proj = mu.values @ states
    basis = dev.default_basis(mean.grid, K)
    forms = dev._Functionals(mean, K, mu, cfg.kernel, cfg.rate)
    i_est, _ = dev._galerkin(forms, basis)
    # the directions of _probe_basis: all but 1_{x >= 6} are members of basis
    probes = basis + [dev.TestFunction.indicator_geq(mean.grid, K, 6)]
    resid = max(_duality_residual(forms, psi, phi) for phi in probes)
    art = {
        "mu_projection.csv": _csv("t,mu_ell", zip(mean.grid.points.tolist(), proj.tolist())),
        "mu_field.csv": mu.to_csv().encode(),
    }
    summary = {
        "provenance": _provenance(cfg),
        "K": K,
        "rate_estimate": i_est,
        "half_inner_psi_psi": 0.5 * forms.inner(psi, psi),
        "max_duality_residual": resid,
        "final_projection": float(proj[-1]),
    }
    return ResultBundle(summary=summary, artifacts=art, passed=True)


def _run_mdp_duality(cfg: ExperimentConfig) -> ResultBundle:
    resid_tol = float(cfg.params.get("residual_tol", 1e-6))
    rate_tol = float(cfg.params.get("rate_tol", 0.01))
    mean = solve_mean(cfg.kernel, cfg.rate, cfg.T, cfg.dt)
    K = _auto_K(cfg, mean)
    grid = mean.grid
    psis = {
        "identity": dev.TestFunction.identity(grid, K),
        "indicator_ge1": dev.TestFunction.indicator_geq(grid, K, 1),
        "t_identity": dev.TestFunction.monomial(grid, K, 1, 1),
    }
    probes = _probe_basis(grid, K)
    rows = []
    all_ok = True
    for name, psi in psis.items():
        mu = dev.linearized_from_test_function(psi, mean, cfg.kernel, cfg.rate)
        forms = dev._Functionals(mean, K, mu, cfg.kernel, cfg.rate)
        worst = 0.0
        for phi in probes:
            worst = max(worst, _duality_residual(forms, psi, phi))
        half_norm = 0.5 * forms.inner(psi, psi)
        basis = probes if any(np.array_equal(psi.values, p.values) for p in probes) else probes + [psi]
        i_est, _ = dev._galerkin(forms, basis)
        rel = abs(i_est - half_norm) / half_norm if half_norm > 0 else 0.0
        ok = worst <= resid_tol and rel <= rate_tol
        all_ok = all_ok and ok
        rows.append((name, worst, half_norm, i_est, rel, ok))
    art = {
        "duality.csv": _csv("psi,max_residual,half_inner,rate_estimate,rate_rel_err,pass", rows)
    }
    summary = {
        "provenance": _provenance(cfg),
        "K": K,
        "rows": [
            {
                "psi": r[0],
                "max_residual": r[1],
                "half_inner": r[2],
                "rate_estimate": r[3],
                "rate_rel_err": r[4],
                "pass": r[5],
            }
            for r in rows
        ],
        "residual_tol": resid_tol,
        "rate_tol": rate_tol,
        "pass": all_ok,
    }
    return ResultBundle(summary=summary, artifacts=art, passed=all_ok)


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


def run(cfg: ExperimentConfig) -> ResultBundle:
    """Dispatch a parsed config to its pipeline; deterministic given (config, seed)."""
    if cfg.subcommand not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {cfg.subcommand!r}")
    if cfg.subcommand in _NEEDS_ASSUMPTIONS:
        report = validate_assumptions(cfg.kernel, cfg.rate, cfg.T)
        if not report.passed:
            raise ConfigError(
                "model fails the standing assumptions "
                f"(stability margin {report.stability_margin:.6g}); "
                "limit-theorem checks refuse to run: " + "; ".join(report.warnings)
            )
    return _RUNNERS[cfg.subcommand](cfg)


def write_bundle(bundle: ResultBundle, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(bundle.summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for name, data in sorted(bundle.artifacts.items()):
        with open(os.path.join(outdir, name), "wb") as fh:
            fh.write(data)


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
    except (ConfigError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_bundle(bundle, cfg.output)
    print(f"runtime: {time.perf_counter() - t0:.3f}s (not part of the artifacts)", file=sys.stderr)
    return 0 if bundle.passed else 1


if __name__ == "__main__":
    sys.exit(main())
