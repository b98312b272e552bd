"""The benchmark's pinned ``hawkes-mf`` checks, their gates, and the workloads.

Each check is one ``hawkes-mf`` subcommand with a fixed config; only the seed
changes between runs, and it is written into the config.  A gate reads the
run's ``summary.json`` and returns the reasons the run is wrong (an empty list
means the output passed).  A workload is a sequence of checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

EXP_MODEL = {
    "kernel": {"type": "exponential", "a": 1.0, "b": 2.0},
    "rate": {"type": "affine", "base": 1.0, "slope": 1.0},
}
# smooth piecewise-linear kernel whose knots the T/1000 probe grid resolves
TAB_MODEL = {
    "kernel": {"type": "tabulated", "grid": [0.0, 0.25, 0.5, 1.0], "values": [1.0, 0.7, 0.4, 0.0]},
    "rate": {"type": "affine", "base": 1.0, "slope": 1.0},
}

CLT_REPLICAS = 200
# The ratio of a sample variance over R replicas to the exact limit variance
# has standard error sqrt(2/(R-1)) = 0.100 at R=200; the band is 3.7 of them
# (two-sided chi-square tail 4e-4), so a correct sampler fails on few seeds.
CLT_BAND = 0.37

FIELD_REPLICAS = 100
FIELD_LIMIT_REPLICAS = 400
# Two sample variances (99 and 399 degrees of freedom): standard error
# sqrt(2/99 + 2/399) = 0.159; the band is 3.8 of them (F-tail 9e-4).
FIELD_BAND = 0.60

COUPLE_REPLICAS = 48
# The log-log slope of the mean coupled sup-difference over N = 500..4000 has
# a seed-to-seed standard deviation of about 0.06 at 20 replicas (40 seeds;
# at 20 replicas the window failed 1 seed in 10 with a correct sampler), so
# about 0.04 at 48; the window is then 3.6 of them either side of -1/2.
COUPLE_SLOPE = (-0.65, -0.35)

MDP_RESIDUAL_TOL = 1e-6
MDP_RATE_TOL = 1e-2


def _finite(summary: dict, key: str) -> float | None:
    value = summary.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        return None
    return float(value)


def _ratio_gate(summary: dict, band: float) -> list[str]:
    ratio = _finite(summary, "ratio")
    if ratio is None:
        return [f"ratio is missing or not finite: {summary.get('ratio')!r}"]
    problems = []
    if not abs(ratio - 1.0) <= band:
        problems.append(f"variance ratio {ratio:.4f} outside 1 +/- {band}")
    if summary.get("pass") is not True:
        problems.append("summary reports pass != true")
    return problems


def clt_gate(summary: dict) -> list[str]:
    return _ratio_gate(summary, CLT_BAND)


def field_gate(summary: dict) -> list[str]:
    return _ratio_gate(summary, FIELD_BAND)


def couple_gate(summary: dict) -> list[str]:
    slope = _finite(summary, "slope")
    if summary.get("degenerate") is not False or slope is None:
        return [f"no coupling slope (degenerate={summary.get('degenerate')!r})"]
    lo, hi = COUPLE_SLOPE
    problems = []
    if not lo <= slope <= hi:
        problems.append(f"log-log slope {slope:.4f} outside [{lo}, {hi}]")
    if summary.get("pass") is not True:
        problems.append("summary reports pass != true")
    return problems


def mdp_gate(summary: dict) -> list[str]:
    resid = _finite(summary, "max_duality_residual")
    rate = _finite(summary, "rate_estimate")
    half = _finite(summary, "half_inner_psi_psi")
    if resid is None or rate is None or half is None or half <= 0.0:
        return ["duality residual or rate fields missing, not finite, or half-norm <= 0"]
    problems = []
    if not resid <= MDP_RESIDUAL_TOL:
        problems.append(f"max duality residual {resid:.3e} > {MDP_RESIDUAL_TOL}")
    rel = abs(rate - half) / half
    if not rel <= MDP_RATE_TOL:
        problems.append(f"rate estimate off half-norm by {rel:.3e} > {MDP_RATE_TOL}")
    return problems


@dataclass(frozen=True)
class Check:
    """One ``hawkes-mf`` subcommand with its pinned config and correctness gate."""

    name: str
    subcommand: str
    config: dict
    gate: Callable[[dict], list[str]]

    def config_for(self, seed: int) -> dict:
        return {**self.config, "seed": seed}


@dataclass(frozen=True)
class Workload:
    """One sample of a workload runs its checks in order, one process each."""

    name: str
    checks: tuple[Check, ...]


CLT_EXP = Check(
    "clt-exp",
    "clt-check",
    {
        "model": EXP_MODEL,
        "T": 1.0,
        "dt": 1e-3,
        "N": 1000,
        "replicas": CLT_REPLICAS,
        "params": {"band": CLT_BAND},
    },
    clt_gate,
)
COUPLE_EXP = Check(
    "couple-exp",
    "couple-scaling",
    {
        "model": EXP_MODEL,
        "T": 1.0,
        "dt": 1e-3,
        "N": [500, 1000, 2000, 4000],
        "replicas": COUPLE_REPLICAS,
        "params": {"slope_min": COUPLE_SLOPE[0], "slope_max": COUPLE_SLOPE[1]},
    },
    couple_gate,
)
FIELD_CLT_TAB = Check(
    "field-clt-tab",
    "field-clt-check",
    {
        "model": TAB_MODEL,
        "T": 1.0,
        "dt": 1e-3,
        "N": 250,
        "K": 0,
        "replicas": FIELD_REPLICAS,
        "params": {"field_replicas": FIELD_LIMIT_REPLICAS, "band": FIELD_BAND},
    },
    field_gate,
)
MDP_FIELD_FINE = Check(
    "mdp-field-fine",
    "mdp-field",
    {
        "model": EXP_MODEL,
        "T": 1.0,
        "dt": 1e-4,
        "K": 30,
        "params": {"psi": {"family": "identity"}},
    },
    mdp_gate,
)

# The three particle checks share one workload: on this class of shared 2-core
# host the CPU speed drifts by +/-25% over tens of seconds, and only runs of
# about a minute per workload keep the run-to-run spread inside the bounds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("particle-checks", (CLT_EXP, COUPLE_EXP, FIELD_CLT_TAB)),
        Workload("mdp-field-fine", (MDP_FIELD_FINE,)),
    )
}
