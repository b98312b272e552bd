import hashlib
import io
import json
import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from hawkes_meanfield import cli, fluct
from hawkes_meanfield import deviations as dev
from hawkes_meanfield.engine import event_log_from_bytes
from hawkes_meanfield.meanfield import limit_law_path, solve_mean


EXPLIN = {
    "model": {
        "kernel": {"type": "exponential", "a": 1.0, "b": 2.0},
        "rate": {"type": "affine", "base": 1.0, "slope": 1.0},
    },
    "T": 1.0,
    "dt": 0.001,
    "K": 30,
    "N": 300,
    "replicas": 40,
    "gamma": 0.25,
    "seed": 12345,
}

HOMOG = {
    "model": {
        "kernel": {"type": "zero"},
        "rate": {"type": "affine", "base": 2.0, "slope": 0.0},
    },
    "T": 1.0,
    "dt": 0.001,
    "K": 30,
    "N": 500,
    "replicas": 50,
    "gamma": 0.25,
    "seed": 99,
}


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _summary(out):
    with open(os.path.join(out, "summary.json")) as fh:
        return json.load(fh)


def test_meanfield_subcommand(tmp_path):
    cfg = _write(tmp_path, EXPLIN)
    out = str(tmp_path / "out")
    rc = cli.main(["meanfield", "--config", cfg, "--output", out])
    assert rc == 0
    s = _summary(out)
    assert s["final_lambda"] == pytest.approx(2.0 - math.exp(-1.0), abs=1e-3)
    assert s["stability_margin"] == pytest.approx(1.0 - (1.0 - math.exp(-2.0)) / 2.0, abs=1e-9)
    rows = open(os.path.join(out, "meanfield.csv")).read().strip().split("\n")
    assert rows[0] == "t,m,lambda"
    assert len(rows) == 1002


def test_unknown_subcommand_usage_error(capsys):
    rc = cli.main(["frobnicate", "--config", "x.json"])
    assert rc == 2


def test_missing_config_is_config_error(tmp_path):
    rc = cli.main(["meanfield", "--config", str(tmp_path / "nope.json")])
    assert rc == 2


def test_invalid_field_named_in_error(tmp_path, capsys):
    bad = dict(EXPLIN)
    bad["gamma"] = 0.9
    cfg = _write(tmp_path, bad)
    rc = cli.main(["meanfield", "--config", cfg, "--output", str(tmp_path / "o")])
    assert rc == 2
    assert "gamma" in capsys.readouterr().err


def test_unstable_model_refused_for_checks(tmp_path, capsys):
    bad = {
        "model": {
            "kernel": {"type": "constant", "c": 1.0},
            "rate": {"type": "affine", "base": 1.0, "slope": 1.0},
        },
        "T": 2.0,
        "dt": 0.002,
        "N": 100,
        "replicas": 10,
        "seed": 1,
    }
    cfg = _write(tmp_path, bad)
    rc = cli.main(["clt-check", "--config", cfg, "--output", str(tmp_path / "o")])
    assert rc == 2
    assert "stability" in capsys.readouterr().err
    # but plain simulation is allowed on the same model
    rc = cli.main(["simulate", "--config", cfg, "--output", str(tmp_path / "o2")])
    assert rc == 0


def test_simulate_artifacts_round_trip(tmp_path):
    cfg = _write(tmp_path, HOMOG)
    out = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", cfg, "--output", out]) == 0
    with open(os.path.join(out, "events.bin"), "rb") as fh:
        log = event_log_from_bytes(fh.read())
    assert log.N == 500 and log.seed == 99
    csv = open(os.path.join(out, "events.csv")).read().strip().split("\n")
    assert csv[0] == "particle,jump_time"
    assert len(csv) == 1 + log.total_jumps
    assert [float(row.split(",")[1]) for row in csv[1:]] == np.concatenate(log.jumps).tolist()
    s = _summary(out)
    assert s["total_jumps"] == log.total_jumps


def test_clt_check_homogeneous_passes(tmp_path):
    cfg = dict(HOMOG)
    cfg["N"] = 1000
    cfg["replicas"] = 2500
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "clt")
    rc = cli.main(["clt-check", "--config", path, "--output", out])
    s = _summary(out)
    assert s["limit_variance"] == pytest.approx(2.0, abs=1e-9)
    assert rc == 0 and s["pass"] is True
    assert 0.9 <= s["ratio"] <= 1.1


DETERMINISM_CASES = {
    "clt-check": HOMOG,
    "field-clt-check": {**HOMOG, "N": 100, "replicas": 20},
    "couple-scaling": {**EXPLIN, "N": [50, 100, 200], "replicas": 6, "params": {"slope_min": -3.0, "slope_max": 3.0}},
    # two cluster batches (46 replicas and 14) of an exponential kernel
    "exp-moment": {**EXPLIN, "N": 100, "replicas": 60},
}


@pytest.mark.parametrize("subcommand", sorted(DETERMINISM_CASES))
def test_determinism_across_runs_and_workers(tmp_path, subcommand):
    cfg = _write(tmp_path, DETERMINISM_CASES[subcommand])
    outs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "2")):
        out = str(tmp_path / name)
        cli.main([subcommand, "--config", cfg, "--output", out, "--workers", workers])
        outs.append(out)
    files = sorted(os.listdir(outs[0]))
    for other in outs[1:]:
        assert sorted(os.listdir(other)) == files
        for f in files:
            a = open(os.path.join(outs[0], f), "rb").read()
            b = open(os.path.join(other, f), "rb").read()
            assert a == b, f"artifact {f} differs"


TAB_MODEL = {
    "kernel": {"type": "tabulated", "grid": [0.0, 0.25, 0.5, 1.0], "values": [1.0, 0.7, 0.4, 0.0]},
    "rate": {"type": "affine", "base": 1.0, "slope": 1.0},
}
GOLDEN_CONFIGS = {
    "field-clt-check": {
        "model": TAB_MODEL, "T": 1.0, "dt": 0.001, "N": 60, "replicas": 32, "seed": 808,
        "params": {"band": 0.9},
    },
    "couple-scaling": {
        "model": EXPLIN["model"], "T": 1.0, "dt": 0.001, "N": [50, 100, 200], "replicas": 6, "seed": 809,
        "params": {"slope_min": -3.0, "slope_max": 3.0},
    },
    "mdp-field": {**EXPLIN, "dt": 0.0025},
    "meanfield": EXPLIN,
    "simulate-hawkes": {
        "model": EXPLIN["model"], "T": 1.0, "N": 200, "seed": 810, "params": {"kind": "hawkes"},
    },
    "simulate-mf_poisson": {
        "model": EXPLIN["model"], "T": 1.0, "dt": 0.001, "N": 200, "seed": 811, "params": {"kind": "mf_poisson"},
    },
    "clt-check": {
        "model": EXPLIN["model"], "T": 1.0, "dt": 0.001, "N": 100, "replicas": 16, "seed": 812,
        "params": {"band": 0.9},
    },
    "exp-moment": {"model": EXPLIN["model"], "T": 1.0, "dt": 0.001, "N": 100, "replicas": 10, "seed": 813},
    "mdp-rate": {**EXPLIN, "params": {"eta": {"family": "sin", "scale": 0.5}}},
    "mdp-duality": {**EXPLIN, "dt": 0.0025},
    # three cluster batches: 19, 19 and 2 replicas
    "clt-check-batches": {
        "model": EXPLIN["model"], "T": 1.0, "dt": 0.001, "N": 300, "replicas": 40, "seed": 814,
        "params": {"band": 0.9},
    },
}
# the subcommand of each golden case whose name is not one
GOLDEN_SUBCOMMANDS = {"simulate-hawkes": "simulate", "simulate-mf_poisson": "simulate", "clt-check-batches": "clt-check"}
# SHA-256 of every artifact.  The particle checks' digests were recorded before
# the thinning walk went to rounds, the event logs to one flat array and the
# limit-field replicas to one batch; mdp-field's CSVs before the time-constant
# test functions became broadcast views, the ladder's forcing optional and the
# CSV writer one byte buffer, and its summary when the closed-form field rate
# replaced the Galerkin lower bound (only ``rate_estimate`` moved).
# All three mdp-field digests were re-recorded when the grid excitation became
# one shared memory: the floats moved by <= 4.9e-16 of each table's largest
# magnitude.  The field-clt-check summary was re-recorded when its limit
# variance became the exact backward pass in place of limit-field replicas
# (``spde_variance`` -> ``limit_variance``, and its ``ratio``), and
# field_clt_spde.csv went away; field_clt_empirical.csv kept every byte.
# Both field-clt-check digests were re-recorded when replicas at an affine phi
# went to the cluster sampler, a new sample of the same law, and the golden
# config to 32 replicas (ratio 0.6079 -> 0.7502).
# The other subcommands' digests were recorded before artifacts were rendered
# as they are written, so that every writer is pinned byte for byte.
# clt-check-batches was recorded before cluster replicas were drawn in batches.
GOLDEN_ARTIFACTS = {
    "field-clt-check": {
        "field_clt_empirical.csv": "5abc8ce4ecfe33a1f01c768291eeffeda98ee59a206f51332cc4d0ebd2e64a1b",
        "summary.json": "0e53468945f1cff899a55d9d476b1b697455166bb5950c8829b8cc42c3d6ff16",
    },
    "couple-scaling": {
        "couple_scaling.csv": "0d3a04175e96845377f6f229d424ed575c4c73a1bfe25c8e8fc2091fd436b071",
        # the closed-form line fit moved the slope and intercept in their last bits only
        # (slope -0.45876891990401414 -> -0.45876891990401364)
        "summary.json": "bb5520dadb1a9690569e4258f3b309ecda8eaddf551df822dd87adcf2ba33946",
    },
    "mdp-field": {
        "mu_field.csv": "bf3967105f3189166080b329f6200426ccff416cfd5fef6e4bc22eba8a2daffa",
        "mu_projection.csv": "5f806c40f08e382125be13e4ca14b1f6157e82a5e76a190ef93f43d331909217",
        "summary.json": "df249b9e298cf8b49ca4fe08ced6757f296e5d8d0f77bb037c44632d30e64d70",
    },
    "meanfield": {
        "meanfield.csv": "81c47151036fd8c9deb6127b4e32594ca76dc1e1aa7ebebbc91511585a1e12c4",
        "summary.json": "32eaaa9d34ea86079b6237d9baad6273c8e530f0a84442edb146f48f9b877fca",
    },
    "simulate-hawkes": {
        "events.bin": "97024522963acdac1b24101337cf0b0b31f7036e3a227858f1391a699bbb9fc9",
        "events.csv": "b061ea390a0596683c1611cb0f4c5af9ec74816f0fc4d2c8a288442823740900",
        "summary.json": "dca9597ad2ee67552c4aa810c085db8f2d1afed149e16dc9210628a6b55ded13",
    },
    "simulate-mf_poisson": {
        "events.bin": "6ef23cc95a05176c4e90bb6567fcc65e3d6bdc45a94bce029fab9f756fa47c53",
        "events.csv": "920cdb3118a3f43d172df6e96b3394fcd2b9bd5aed513722f6e07aa2d217965e",
        "summary.json": "318894fa7f95fe2f353b59c73cbd297e48b878684731e65d9cd88f9eab00a0d5",
    },
    "clt-check": {
        "clt_samples.csv": "4693f483e49268a8936fb268683fc5355d275ac09c2fc0613e21a12593c6887c",
        "summary.json": "741feea6cda22a3836075b1b3390357c37beeae0e8d4e693bbca56cbc88b019e",
    },
    "exp-moment": {
        "exp_moment.csv": "4a3c9704f192b2ea1c64b1c8dabd091bbdbbdcf86ae496857e71c237a4f295ea",
        "summary.json": "bf080fba28cd60d153180b17f0a86d5a50f68991cf2576315c6d954dff919a2b",
    },
    "mdp-rate": {
        "eta.csv": "27a9391bac588596029a8648d28d3b6fc09b64f5b3965508482027baa8bfca75",
        "summary.json": "0357f827ca8590367196d8901d1b94fca71611735882aac9eef18b94c6e6d279",
    },
    "mdp-duality": {
        "duality.csv": "df2a80977ffefe77355727b792aa063f20327eb9c91cd36a7b8dea72ba027949",
        "summary.json": "139c230174a853059fc03843a05b9570ee41ebdfe5ca81e74f953bdbb5be47e9",
    },
    "clt-check-batches": {
        "clt_samples.csv": "2457fa7b9a23dc48e4acd3cbb9b625427e0e0f9369ec788247652b577ff50657",
        "summary.json": "c0549deffb9f384b10fe0bb677c9079bc154a0da6b02a5729ad9ece15340056f",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN_ARTIFACTS))
def test_artifact_golden_bytes(tmp_path, case):
    out = str(tmp_path / "out")
    config = _write(tmp_path, GOLDEN_CONFIGS[case])
    assert cli.main([GOLDEN_SUBCOMMANDS.get(case, case), "--config", config, "--output", out]) == 0
    got = {f: hashlib.sha256(open(os.path.join(out, f), "rb").read()).hexdigest() for f in sorted(os.listdir(out))}
    assert got == GOLDEN_ARTIFACTS[case]


@pytest.mark.parametrize("subcommand", ["clt-check", "field-clt-check"])
def test_replica_values_do_not_depend_on_the_batches(tmp_path, monkeypatch, subcommand):
    # batches sized from the input (19 replicas at N = 300, 22 at N = 250), then
    # one replica a batch, then 7, and two workers
    case = GOLDEN_CONFIGS["clt-check-batches"]
    if subcommand == "field-clt-check":
        case = {**case, "model": TAB_MODEL, "N": 250, "replicas": 50}
    cfg = cli.build_config(case, subcommand)
    assert 2 * cli.cluster_batch(cfg.N, cfg.rate, cfg.T) < cfg.replicas
    path = _write(tmp_path, case)
    outs = []
    for name, size, workers in (("a", None, "1"), ("b", 1, "1"), ("c", 7, "1"), ("d", None, "2")):
        if size is not None:
            monkeypatch.setattr(cli, "cluster_batch", lambda N, rate, T, size=size: size)
        outs.append(str(tmp_path / name))
        cli.main([subcommand, "--config", path, "--output", outs[-1], "--workers", workers])
        monkeypatch.undo()
    for other in outs[1:]:
        for f in sorted(os.listdir(outs[0])):
            assert open(os.path.join(other, f), "rb").read() == open(os.path.join(outs[0], f), "rb").read(), (other, f)


def test_pmap_pool_is_capped_at_the_core_count(monkeypatch):
    sizes = []

    class StubPool:
        # records the requested size and runs the work in this process
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(i) for i in items]

    class StubContext:
        Pool = StubPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: StubContext())
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert cli._pmap(abs, 20000, 100000) == list(range(20000))
    assert cli._pmap(abs, 2, 100000) == [0, 1]
    assert sizes == [3, 2]


def test_env_seed_override(tmp_path, monkeypatch):
    cfg = _write(tmp_path, HOMOG)
    out1 = str(tmp_path / "e1")
    monkeypatch.setenv("HAWKES_SEED", "4242")
    cli.main(["simulate", "--config", cfg, "--output", out1])
    monkeypatch.delenv("HAWKES_SEED")
    assert _summary(out1)["provenance"]["seed"] == 4242


def test_exp_moment_homogeneous_mgf_oracle(tmp_path):
    cfg = dict(HOMOG)
    cfg["N"] = 500
    cfg["replicas"] = 200
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "mgf")
    rc = cli.main(["exp-moment", "--config", path, "--output", out])
    assert rc == 0
    s = _summary(out)
    for row in s["rows"]:
        tn = row["theta_times_N"]
        theta = tn / cfg["N"]
        oracle = math.exp(cfg["N"] * 2.0 * (math.exp(theta) - 1.0))
        assert row["estimate"] == pytest.approx(oracle, rel=0.02)
        assert row["estimate"] <= row["bound"] * (1 + 3 * row["std_error"] / row["estimate"])
        assert row["pass"] is True


def test_exp_moment_theta_zero_equality(tmp_path):
    cfg = dict(HOMOG)
    cfg["replicas"] = 10
    cfg["params"] = {"theta_times_N": [0.0]}
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "t0")
    rc = cli.main(["exp-moment", "--config", path, "--output", out])
    assert rc == 0
    row = _summary(out)["rows"][0]
    assert row["estimate"] == 1.0 and row["bound"] == 1.0


def test_couple_scaling_needs_three_points(tmp_path, capsys):
    cfg = dict(EXPLIN)
    cfg["N"] = [500]
    path = _write(tmp_path, cfg)
    rc = cli.main(["couple-scaling", "--config", path, "--output", str(tmp_path / "x")])
    assert rc == 2
    assert "3" in capsys.readouterr().err


def test_couple_scaling_needs_three_distinct_points(tmp_path, capsys):
    # repeated rungs leave fewer than two distinct abscissae: no slope to fit
    cfg = dict(EXPLIN)
    cfg["N"] = [100, 100, 100]
    path = _write(tmp_path, cfg)
    rc = cli.main(["couple-scaling", "--config", path, "--output", str(tmp_path / "x")])
    assert rc == 2
    assert "distinct" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x")


def test_couple_scaling_degenerate_homogeneous(tmp_path):
    cfg = dict(HOMOG)
    cfg["N"] = [50, 100, 200]
    cfg["replicas"] = 5
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "deg")
    rc = cli.main(["couple-scaling", "--config", path, "--output", out])
    assert rc == 0
    s = _summary(out)
    assert s["degenerate"] is True and s["pass"] is True


def test_couple_scaling_with_some_zero_rungs_reports_no_slope(tmp_path):
    # a weak kernel and 2 replicas: the coupled logs agree at N = 20 and 80 but
    # not at 40, where the log of 0 used to give the slope NaN
    cfg = {
        "model": {
            "kernel": {"type": "exponential", "a": 0.05, "b": 2.0},
            "rate": {"type": "affine", "base": 1.0, "slope": 1.0},
        },
        "T": 1.0, "dt": 0.001, "N": [20, 40, 80], "replicas": 2, "seed": 1,
    }
    out = str(tmp_path / "o")
    assert cli.main(["couple-scaling", "--config", _write(tmp_path, cfg), "--output", out]) == 1
    with open(os.path.join(out, "summary.json")) as fh:
        s = json.load(fh, parse_constant=_refuse_constant)
    assert s["slope"] is None and s["pass"] is False and s["degenerate"] is False
    assert "N = [20, 80]" in s["note"]


def test_couple_scaling_all_zero_rungs_of_distinct_intensities_fail(tmp_path):
    # at seed 3 every rung of the weak kernel reads 0, which the run used to
    # report as the degenerate model of identical intensities, and pass
    cfg = {
        "model": {
            "kernel": {"type": "exponential", "a": 0.05, "b": 2.0},
            "rate": {"type": "affine", "base": 1.0, "slope": 1.0},
        },
        "T": 1.0, "dt": 0.001, "N": [20, 40, 80], "replicas": 2, "seed": 3,
    }
    out = str(tmp_path / "o")
    assert cli.main(["couple-scaling", "--config", _write(tmp_path, cfg), "--output", out]) == 1
    s = _summary(out)
    assert s["slope"] is None and s["pass"] is False and s["degenerate"] is False
    assert "N = [20, 40, 80]" in s["note"]


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_write_bundle_refuses_a_summary_that_is_not_strict_json(tmp_path, value):
    out = str(tmp_path / "o")
    with pytest.raises(ValueError):
        cli.write_bundle(cli.ResultBundle({"ratio": value}, {"a.csv": b"x\n"}, True), out)
    assert not os.path.exists(out)


def test_mdp_rate_linear_family(tmp_path):
    cfg = dict(HOMOG)
    cfg["params"] = {"eta": {"family": "linear", "scale": 1.0}}
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "rate")
    rc = cli.main(["mdp-rate", "--config", path, "--output", out])
    assert rc == 0
    assert _summary(out)["rate"] == pytest.approx(0.25, abs=1e-6)


def test_mdp_rate_non_ac(tmp_path):
    cfg = dict(HOMOG)
    cfg["params"] = {"eta": {"family": "linear", "scale": 1.0, "ac": False}}
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "rate_inf")
    rc = cli.main(["mdp-rate", "--config", path, "--output", out])
    assert rc == 0
    s = _summary(out)
    assert s["rate"] == "inf" and s["finite"] is False


def test_mdp_field_and_duality(tmp_path):
    cfg = dict(EXPLIN)
    cfg["dt"] = 0.0025
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "field")
    rc = cli.main(["mdp-field", "--config", path, "--output", out])
    assert rc == 0
    s = _summary(out)
    assert s["max_duality_residual"] <= 1e-6
    assert s["rate_estimate"] == pytest.approx(s["half_inner_psi_psi"], rel=1e-12)
    field_rows = open(os.path.join(out, "mu_field.csv")).read().strip().split("\n")
    assert field_rows[0] == "t,x,value"
    assert len(field_rows) == 1 + 401 * 31
    # every field parses as a plain number, and the values are mu's, bit for bit
    table = np.array([[float(v) for v in row.split(",")] for row in field_rows[1:]])
    config = cli.load_config(path, "mdp-field")
    mean = solve_mean(config.kernel, config.rate, config.T, config.dt)
    psi = dev.TestFunction.identity(mean.grid, 30)
    mu = dev.linearized_from_test_function(psi, mean, config.kernel, config.rate)
    assert table[:, 0].tolist() == np.repeat(mean.grid.points, 31).tolist()
    assert table[:, 1].tolist() == np.tile(np.arange(31.0), 401).tolist()
    assert table[:, 2].tolist() == mu.values.ravel().tolist()
    out2 = str(tmp_path / "dual")
    rc = cli.main(["mdp-duality", "--config", path, "--output", out2])
    assert rc == 0
    assert _summary(out2)["pass"] is True


# float.hex of the mdp-field summary at dt = 0.0025, recorded before the rate
# functionals shared their law and convolution; ``rate_estimate`` re-recorded
# when the closed-form field rate replaced the Galerkin lower bound, and
# ``max_duality_residual`` (a rounding residue, 2.5e-15 -> 2.2e-15) when the
# grid excitation became one shared memory
MDP_FIELD_HEX = {
    "max_duality_residual": "0x1.3d94f8cf7992fp-49",
    "half_inner_psi_psi": "0x1.5df414fc66cb4p-1",
    "rate_estimate": "0x1.5df414fc66cbcp-1",
}


def test_mdp_field_summary_golden_bits(tmp_path):
    cfg = dict(EXPLIN)
    cfg["dt"] = 0.0025
    out = str(tmp_path / "field")
    assert cli.main(["mdp-field", "--config", _write(tmp_path, cfg), "--output", out]) == 0
    s = _summary(out)
    assert {key: float(s[key]).hex() for key in MDP_FIELD_HEX} == MDP_FIELD_HEX


def test_mdp_field_rate_is_exact_outside_any_basis(tmp_path):
    # 1_{x >= 8} lies outside the span of the probe directions, where a
    # Galerkin lower bound read 65 % low
    cfg = {**EXPLIN, "params": {"psi": {"family": "indicator", "x0": 8}}}
    out = str(tmp_path / "field")
    assert cli.main(["mdp-field", "--config", _write(tmp_path, cfg), "--output", out]) == 0
    s = _summary(out)
    assert s["rate_estimate"] == pytest.approx(s["half_inner_psi_psi"], rel=1e-12)


# traced peak of run + write_bundle at EXPLIN, in field-sized arrays of
# (n+1)(K+1) doubles, with about 10 % over the measured 5.1 (mdp-field) and
# 7.1 (mdp-duality, whose last psi is a time-dependent table): the artifacts
# are rendered as they are written, the ladder's forcing and the rate's
# transients are formed a block of steps at a time, and a probe's gradient
# is built only after its time differences are paired.  The peaks were 5.8
# and 7.3 (run alone) when the CSV bytes were rendered whole and the forcing,
# the rate's transients and the gradients held as whole tables.
MDP_PEAK_FIELDS = {"mdp-field": 5.6, "mdp-duality": 7.8}


@pytest.mark.parametrize("subcommand", ["mdp-field", "mdp-duality"])
def test_mdp_peak_memory_is_bounded(tmp_path, subcommand):
    cfg = cli.load_config(_write(tmp_path, EXPLIN), subcommand)
    cli.run(cli.load_config(_write(tmp_path, {**EXPLIN, "dt": 0.01}, "warm.json"), subcommand))
    tracemalloc.start()
    try:
        cli.write_bundle(cli.run(cfg), str(tmp_path / "out"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    field = (round(cfg.T / cfg.dt) + 1) * (cfg.K + 1) * 8
    assert peak <= MDP_PEAK_FIELDS[subcommand] * field, f"peak {peak / field:.2f} field-sized arrays"


@pytest.mark.parametrize("subcommand, psis", [("mdp-field", 1), ("mdp-duality", 3)])
def test_mdp_runs_build_two_law_paths_per_psi(tmp_path, monkeypatch, subcommand, psis):
    # one for solving mu^psi, one for the functionals (rate, [., .], Upsilon) of that mu
    calls = []

    def counting(mean, K):
        calls.append(K)
        return limit_law_path(mean, K)

    for module in (fluct, dev):
        monkeypatch.setattr(module, "limit_law_path", counting)
    cfg = dict(EXPLIN)
    cfg["dt"] = 0.0025
    out = str(tmp_path / "out")
    assert cli.main([subcommand, "--config", _write(tmp_path, cfg), "--output", out]) == 0
    assert len(calls) == 2 * psis


def test_field_clt_check_runs(tmp_path):
    cfg = dict(HOMOG)
    cfg["N"] = 400
    cfg["replicas"] = 150
    cfg["params"] = {"band": 0.35}
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "fclt")
    rc = cli.main(["field-clt-check", "--config", path, "--output", out])
    s = _summary(out)
    assert rc == 0 and s["pass"] is True
    assert "limit_variance" in s and "spde_variance" not in s
    assert sorted(os.listdir(out)) == ["field_clt_empirical.csv", "summary.json"]


def test_couple_scaling_smoke(tmp_path):
    cfg = dict(EXPLIN)
    cfg["N"] = [100, 200, 400]
    cfg["replicas"] = 15
    cfg["params"] = {"slope_min": -1.5, "slope_max": 0.5}  # wide window: smoke only
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "cpl")
    rc = cli.main(["couple-scaling", "--config", path, "--output", out])
    assert rc == 0
    s = _summary(out)
    assert s["degenerate"] is False and isinstance(s["slope"], float)
    rows = open(os.path.join(out, "couple_scaling.csv")).read().strip().split("\n")
    assert rows[0] == "N,mean_sup_diff,mean_max_sup_diff"
    assert len(rows) == 4


def test_clt_check_oracle_runs_on_the_solver_grid(tmp_path, monkeypatch):
    cfg = {**GOLDEN_CONFIGS["field-clt-check"], "N": 50, "replicas": 8, "params": {"band": 0.99}}
    solves = []
    real_solve = cli.solve_mean
    monkeypatch.setattr(cli, "solve_mean", lambda *a: solves.append(a) or real_solve(*a))
    out = str(tmp_path / "clt")
    cli.main(["clt-check", "--config", _write(tmp_path, cfg), "--output", out])
    config = cli.build_config(cfg, "clt-check")
    mean = real_solve(config.kernel, config.rate, config.T, config.dt)
    assert mean.grid.n == 1000 and len(solves) == 1
    assert _summary(out)["limit_variance"] == fluct.limit_mean_variance(mean, config.kernel, config.rate)


def test_field_clt_check_oracle_runs_on_the_solver_grid(tmp_path, monkeypatch):
    # the retired knobs field_dt and field_replicas are ignored, and the
    # limit field is never simulated
    params = {"band": 0.99, "state": 2, "field_dt": 0.01, "field_replicas": 400}
    cfg = {**GOLDEN_CONFIGS["field-clt-check"], "N": 50, "replicas": 32, "params": params}
    solves = []
    real_solve = cli.solve_mean
    monkeypatch.setattr(cli, "solve_mean", lambda *a: solves.append(a) or real_solve(*a))
    monkeypatch.setattr(fluct, "simulate_limit_field", None)
    monkeypatch.setattr(cli, "simulate_limit_field", None)
    out = str(tmp_path / "fclt")
    assert cli.main(["field-clt-check", "--config", _write(tmp_path, cfg), "--output", out]) == 0
    config = cli.build_config(cfg, "field-clt-check")
    mean = real_solve(config.kernel, config.rate, config.T, config.dt)
    assert mean.grid.n == 1000 and len(solves) == 1
    s = _summary(out)
    weights = np.eye(s["K"] + 1)[2]
    assert s["limit_variance"] == fluct.limit_field_variance(mean, config.kernel, config.rate, s["K"], weights)
    assert s["ratio"] == s["empirical_variance"] / s["limit_variance"]


@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_out_of_range_seed_is_a_config_error(tmp_path, monkeypatch, capsys, source):
    # event logs store the seed as a u64: each seed source is checked before any run
    cfg, argv = dict(HOMOG), []
    if source == "flag":
        argv = ["--seed", "-1"]
    elif source == "env":
        monkeypatch.setenv("HAWKES_SEED", "-3")
    else:
        cfg["seed"] = 2**64
    out = str(tmp_path / "o")
    assert cli.main(["simulate", "--config", _write(tmp_path, cfg), "--output", out, *argv]) == 2
    assert {"flag": "--seed", "env": "HAWKES_SEED", "config": "field 'seed'"}[source] in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("columns", [2, 1], ids=["one-row", "one-column"])
def test_mdp_rate_eta_csv_of_wrong_shape_is_a_config_error(tmp_path, capsys, columns):
    # numpy reads either file as a 1-d array unless asked for a table
    ts = np.linspace(0.0, 1.0, 11).tolist() if columns == 1 else [0.0]
    eta = tmp_path / "eta.csv"
    eta.write_text("t,eta\n" + "".join(",".join([repr(t)] * columns) + "\n" for t in ts))
    cfg = {**HOMOG, "dt": 0.1, "params": {"eta": {"csv": str(eta)}}}
    out = str(tmp_path / "o")
    assert cli.main(["mdp-rate", "--config", _write(tmp_path, cfg), "--output", out]) == 2
    assert "eta csv" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_mdp_rate_eta_csv_with_non_finite_value_is_a_config_error(tmp_path, capsys):
    # an undefined path has no rate: it is refused, not reported as +inf
    rows = [[repr(t), repr(t)] for t in np.linspace(0.0, 1.0, 11).tolist()]
    rows[5][1] = "nan"
    eta = tmp_path / "eta.csv"
    eta.write_text("t,eta\n" + "".join(",".join(row) + "\n" for row in rows))
    cfg = {**HOMOG, "dt": 0.1, "params": {"eta": {"csv": str(eta)}}}
    out = str(tmp_path / "o")
    assert cli.main(["mdp-rate", "--config", _write(tmp_path, cfg), "--output", out]) == 2
    assert "eta csv values must be finite" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("subcommand", ["clt-check", "field-clt-check"])
def test_variance_check_with_one_replica_is_a_config_error(tmp_path, capsys, subcommand):
    # one replica has no sample variance; it used to write NaN into summary.json
    cfg = {**HOMOG, "N": 50, "replicas": 1}
    out = str(tmp_path / "o")
    assert cli.main([subcommand, "--config", _write(tmp_path, cfg), "--output", out]) == 2
    assert "replicas" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("band", [-1, 0, math.inf, None, "0.5"])
@pytest.mark.parametrize("subcommand", ["clt-check", "field-clt-check"])
def test_variance_check_band_must_be_a_positive_number(tmp_path, capsys, subcommand, band):
    # a band <= 0 can only fail; it is refused before any replica runs
    cfg = {**HOMOG, "N": 50, "replicas": 4, "params": {"band": band}}
    out = str(tmp_path / "o")
    assert cli.main([subcommand, "--config", _write(tmp_path, cfg), "--output", out]) == 2
    assert "params.band" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_field_clt_check_refuses_a_zero_limit_variance(tmp_path, capsys):
    # the Poisson(2) law underflows to 0 at state 400, and so does the limit variance
    cfg = {**HOMOG, "dt": 0.01, "K": 400, "params": {"state": 400}}
    out = str(tmp_path / "o")
    assert cli.main(["field-clt-check", "--config", _write(tmp_path, cfg), "--output", out]) == 2
    assert "limit variance is 0.0" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "field, value",
    [
        ("K", True),
        ("N", True),
        ("N", [100, True]),
        ("replicas", True),
        ("seed", True),
        ("seed", False),
        ("T", True),
        ("T", 10**400),
    ],
)
def test_build_config_refuses_json_values_of_the_wrong_kind(field, value):
    # json loads true/false as bool, an int subclass, and 1 followed by 400
    # zeros as an int that no float can hold
    with pytest.raises(cli.ConfigError, match=f"'{field}'"):
        cli.build_config({**HOMOG, field: value}, "simulate")


# one small config per subcommand, each one a test above already runs
STRICT_JSON_CASES = {
    "meanfield": EXPLIN,
    "simulate": HOMOG,
    **DETERMINISM_CASES,
    "exp-moment": {**HOMOG, "replicas": 10},
    "mdp-rate": {**HOMOG, "params": {"eta": {"family": "linear", "scale": 1.0, "ac": False}}},
    "mdp-field": GOLDEN_CONFIGS["mdp-field"],
    "mdp-duality": {**EXPLIN, "dt": 0.0025},
}


def _refuse_constant(name):
    raise ValueError(f"summary.json holds {name}, which strict JSON has no token for")


@pytest.mark.parametrize("subcommand", sorted(STRICT_JSON_CASES))
def test_summary_is_strict_json(tmp_path, subcommand):
    assert set(STRICT_JSON_CASES) == set(cli.SUBCOMMANDS)
    out = str(tmp_path / "o")
    assert cli.main([subcommand, "--config", _write(tmp_path, STRICT_JSON_CASES[subcommand]), "--output", out]) in (0, 1)
    with open(os.path.join(out, "summary.json")) as fh:
        json.load(fh, parse_constant=_refuse_constant)


@pytest.mark.parametrize("state", [99, -1, 1.7, True])
def test_field_clt_check_rejects_state_outside_lattice(tmp_path, capsys, state):
    cfg = {**HOMOG, "params": {"state": state}}
    out = str(tmp_path / "o")
    assert cli.main(["field-clt-check", "--config", _write(tmp_path, cfg), "--output", out]) == 2
    assert "params.state" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_simulate_mf_poisson_kind(tmp_path):
    cfg = dict(HOMOG)
    cfg["params"] = {"kind": "mf_poisson"}
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "mf")
    assert cli.main(["simulate", "--config", path, "--output", out]) == 0
    assert _summary(out)["kind"] == "mf_poisson"


def test_clt_check_accepts_an_exp_kernel_of_slow_decay(tmp_path):
    # exp(1, 1e-5) has margin 0.5; finite differences of h' once refused it
    cfg = {**HOMOG, "N": 100, "replicas": 20}
    cfg["model"] = {
        "kernel": {"type": "exponential", "a": 1.0, "b": 1e-5},
        "rate": {"type": "affine", "base": 1.0, "slope": 0.5},
    }
    out = str(tmp_path / "o")
    assert cli.main(["clt-check", "--config", _write(tmp_path, cfg), "--output", out]) in (0, 1)
    assert _summary(out)["limit_variance"] > 0


# a negative excitation in the mean solve, a dominating rate that overflows,
# and a model field that is missing
MODEL_ERRORS = {
    "missing-field": (
        ["meanfield"],
        {"kernel": {"type": "exponential", "a": 1.0}, "rate": {"type": "affine", "base": 1.0, "slope": 0.5}},
        {},
        "field 'model': exponential kernel config needs the field 'b'",
    ),
    "solver-divergence": (
        ["meanfield", "clt-check"],
        {"kernel": {"type": "exponential", "a": 1.0, "b": 5000.0}, "rate": {"type": "affine", "base": 1.0, "slope": 0.5}},
        {"dt": 0.001},
        "excitation",
    ),
    "simulation-overflow": (
        ["simulate"],
        {"kernel": {"type": "constant", "c": 1.0}, "rate": {"type": "affine", "base": 1.0, "slope": 1e12}},
        {"N": 2},
        "overflows",
    ),
}


@pytest.mark.parametrize("case", sorted(MODEL_ERRORS))
def test_model_errors_exit_2_without_output(tmp_path, capsys, case):
    subcommands, model, extra, message = MODEL_ERRORS[case]
    path = _write(tmp_path, {**HOMOG, **extra, "model": model})
    for subcommand in subcommands:
        out = str(tmp_path / subcommand)
        assert cli.main([subcommand, "--config", path, "--output", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not os.path.exists(out)


@pytest.mark.parametrize("theta", ["1e400", "true", "-1", '"0.5"'])
def test_exp_moment_refuses_a_theta_that_is_not_a_finite_number(tmp_path, capsys, monkeypatch, theta):
    # 1e400 loads as inf, which halving never brings under the overflow cap
    monkeypatch.setattr(cli, "_pmap", lambda *a: pytest.fail("a replica ran"))
    text = json.dumps(HOMOG)[:-1] + f', "params": {{"theta_times_N": [{theta}]}}}}'
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = str(tmp_path / "o")
    assert cli.main(["exp-moment", "--config", str(path), "--output", out]) == 2
    assert "params.theta_times_N" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "subcommand, params, name",
    [
        ("mdp-field", {"psi": {"family": "indicator", "x0": 2.7}}, "params.psi.x0"),
        ("mdp-field", {"psi": {"family": "indicator", "x0": True}}, "params.psi.x0"),
        ("mdp-rate", {"eta": {"family": "linear", "ac": "false"}}, "params.eta.ac"),
        ("mdp-rate", {"eta": {"family": "linear", "ac": 0}}, "params.eta.ac"),
        ("mdp-rate", {"eta": {"family": "linear", "scale": "0.5"}}, "params.eta.scale"),
        ("mdp-rate", {"eta": {"family": "linear", "scale": True}}, "params.eta.scale"),
        ("couple-scaling", {"slope_min": True}, "params.slope_min"),
        ("couple-scaling", {"slope_max": "0.5"}, "params.slope_max"),
        ("exp-moment", {"ci_slack": True}, "params.ci_slack"),
        ("mdp-duality", {"residual_tol": "0.5"}, "params.residual_tol"),
        ("mdp-duality", {"rate_tol": math.inf}, "params.rate_tol"),
    ],
)
def test_params_of_the_wrong_kind_are_config_errors(tmp_path, capsys, monkeypatch, subcommand, params, name):
    monkeypatch.setattr(cli, "_pmap", lambda *a: pytest.fail("a replica ran"))
    cfg = {**HOMOG, "N": [50, 100, 200], "dt": 0.01, "params": params}
    out = str(tmp_path / "o")
    assert cli.main([subcommand, "--config", _write(tmp_path, cfg), "--output", out]) == 2
    assert name in capsys.readouterr().err
    assert not os.path.exists(out)


def test_mdp_field_refuses_a_birth_ladder_step_that_is_not_monotone(tmp_path, capsys):
    # lambda dt = 40: each Euler step overshoots, and the field grew to 1e160
    cfg = {**HOMOG, "dt": 0.1, "model": {"kernel": {"type": "zero"}, "rate": {"type": "affine", "base": 400.0, "slope": 0.0}}}
    out = str(tmp_path / "o")
    assert cli.main(["mdp-field", "--config", _write(tmp_path, cfg), "--output", out]) == 2
    assert "not monotone" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("subcommand", ["field-clt-check", "mdp-field", "mdp-duality"])
def test_lattice_runs_refuse_a_state_count_with_a_poisson_tail(tmp_path, capsys, subcommand):
    # Poisson(1.37) puts 5.4e-4 of its mass beyond K = 6; mdp-field once ran
    # there with a duality residual of 0.03
    cfg = {**EXPLIN, "dt": 0.01, "K": 6, "N": 50, "replicas": 4}
    out = str(tmp_path / "o")
    assert cli.main([subcommand, "--config", _write(tmp_path, cfg), "--output", out]) == 2
    assert "tail mass" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("subcommand", ["simulate", "clt-check", "field-clt-check", "exp-moment"])
def test_one_particle_count_subcommands_refuse_a_list_of_N(tmp_path, capsys, monkeypatch, subcommand):
    # each runs one N; it used to run the first entry and record all three
    monkeypatch.setattr(cli, "simulate_hawkes", lambda *a: pytest.fail("a particle system ran"))
    monkeypatch.setattr(cli, "cluster_counts", lambda *a: pytest.fail("a particle system ran"))
    cfg = {**HOMOG, "dt": 0.01, "N": [50, 5000, 100000], "replicas": 4}
    out = str(tmp_path / "o")
    assert cli.main([subcommand, "--config", _write(tmp_path, cfg), "--output", out]) == 2
    assert "field 'N'" in capsys.readouterr().err
    assert not os.path.exists(out)


CONCAVE_RATE = {"type": "tabulated", "grid": [0.0, 1.0, 4.0], "values": [1.0, 2.0, 2.5]}


@pytest.mark.parametrize("subcommand", ["clt-check", "field-clt-check", "exp-moment"])
# the ids name the sampler that must not run; the cluster sampler's replicas
# run through its batched entry point
@pytest.mark.parametrize(
    "rate, unused",
    [(EXPLIN["model"]["rate"], "simulate_hawkes"), (CONCAVE_RATE, "cluster_counts")],
    ids=["rate0-simulate_hawkes", "rate1-simulate_cluster"],
)
def test_replicas_take_the_cluster_sampler_exactly_at_an_affine_rate(tmp_path, monkeypatch, subcommand, rate, unused):
    monkeypatch.setattr(cli, unused, lambda *a: pytest.fail(f"{unused} ran"))
    cfg = {**EXPLIN, "model": {**EXPLIN["model"], "rate": rate}, "dt": 0.01, "K": 0, "N": 40, "replicas": 4}
    assert cli.main([subcommand, "--config", _write(tmp_path, cfg), "--output", str(tmp_path / "o")]) in (0, 1)


@pytest.mark.parametrize("subcommand", sorted(STRICT_JSON_CASES))
def test_every_summary_carries_the_provenance_of_its_config(subcommand):
    cfg = cli.build_config(STRICT_JSON_CASES[subcommand], subcommand)
    assert cli.run(cfg).summary["provenance"] == cli._provenance(cfg)


@pytest.mark.parametrize("subcommand, validations", [("meanfield", 1), ("exp-moment", 1), ("simulate", 0)])
def test_assumptions_are_validated_once_per_run(tmp_path, monkeypatch, subcommand, validations):
    calls = []
    real = cli.validate_assumptions
    monkeypatch.setattr(cli, "validate_assumptions", lambda *a: calls.append(a) or real(*a))
    cfg = {**HOMOG, "dt": 0.01, "N": 50, "replicas": 4}
    assert cli.main([subcommand, "--config", _write(tmp_path, cfg), "--output", str(tmp_path / "o")]) == 0
    assert len(calls) == validations


@pytest.mark.parametrize("family", ["ell", "t_ell"])
def test_psi_family_aliases_are_unknown(tmp_path, capsys, family):
    cfg = {**HOMOG, "dt": 0.01, "params": {"psi": {"family": family}}}
    out = str(tmp_path / "o")
    assert cli.main(["mdp-field", "--config", _write(tmp_path, cfg), "--output", out]) == 2
    assert f"unknown test-function family {family!r}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_csv_writer_keeps_the_old_bytes_on_mixed_columns():
    # int, float and bool columns as exp_moment.csv has them, with an inf and a -0.0,
    # as Python sequences and as arrays; the reference is the writer they replaced
    floats = [0.1, -0.0, float("inf"), 1e-300, 2.5e16, 123456.789]
    bools = [True, False, True, True, False, False]
    columns = (range(6), floats, bools, np.arange(-3, 3) * 999, np.array(floats[::-1]), np.array(bools))
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    old = "\n".join(["a,b,c,d,e,f"] + [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows])
    buf = io.BytesIO()
    cli._csv("a,b,c,d,e,f", *columns)(buf)
    assert buf.getvalue() == (old + "\n").encode()


def test_exp_moment_bound_overflow_is_a_config_error(tmp_path, capsys):
    # margin 0.1358, so theta N = 100 puts the bound at exp(1473)
    cfg = {
        "model": {
            "kernel": {"type": "exponential", "a": 1.0, "b": 2.0},
            "rate": {"type": "affine", "base": 1.0, "slope": 1.999},
        },
        "T": 1.0,
        "dt": 0.01,
        "N": 50,
        "replicas": 20,
        "seed": 3,
        "params": {"theta_times_N": [0.01, 100]},
    }
    out = str(tmp_path / "o")
    assert cli.main(["exp-moment", "--config", _write(tmp_path, cfg), "--output", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "theta*N=100.0" in err and "overflows" in err
    assert not os.path.exists(out)
