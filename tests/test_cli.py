import json
import math
import os

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
    cfg["replicas"] = 300
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "clt")
    rc = cli.main(["clt-check", "--config", path, "--output", out])
    s = _summary(out)
    assert s["limit_variance"] == pytest.approx(2.0, abs=1e-9)
    assert rc == 0 and s["pass"] is True
    assert 0.9 <= s["ratio"] <= 1.1


def test_determinism_across_runs_and_workers(tmp_path):
    cfg = _write(tmp_path, HOMOG)
    outs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        out = str(tmp_path / name)
        rc = cli.main(["clt-check", "--config", cfg, "--output", out, "--workers", workers])
        outs.append(out)
    files = sorted(os.listdir(outs[0]))
    for other in outs[1:]:
        assert sorted(os.listdir(other)) == files
        for f in files:
            a = open(os.path.join(outs[0], f), "rb").read()
            b = open(os.path.join(other, f), "rb").read()
            assert a == b, f"artifact {f} differs"


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
    assert s["rate_estimate"] == pytest.approx(s["half_inner_psi_psi"], rel=0.01)
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


# float.hex of the mdp-field summary at dt = 0.0025, recorded before the Galerkin
# functionals shared their law and convolution
MDP_FIELD_HEX = {
    "max_duality_residual": "0x1.6af3657f665ecp-49",
    "half_inner_psi_psi": "0x1.5df414fc66cb4p-1",
    "rate_estimate": "0x1.5df414fba62f5p-1",
}


def test_mdp_field_summary_golden_bits(tmp_path):
    cfg = dict(EXPLIN)
    cfg["dt"] = 0.0025
    out = str(tmp_path / "field")
    assert cli.main(["mdp-field", "--config", _write(tmp_path, cfg), "--output", out]) == 0
    s = _summary(out)
    assert {key: float(s[key]).hex() for key in MDP_FIELD_HEX} == MDP_FIELD_HEX


@pytest.mark.parametrize("subcommand, psis", [("mdp-field", 1), ("mdp-duality", 3)])
def test_mdp_runs_build_two_law_paths_per_psi(tmp_path, monkeypatch, subcommand, psis):
    # one for solving mu^psi, one for the Galerkin functionals of that mu
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
    cfg["params"] = {"field_replicas": 300, "band": 0.35}
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "fclt")
    rc = cli.main(["field-clt-check", "--config", path, "--output", out])
    s = _summary(out)
    assert rc == 0 and s["pass"] is True
    assert os.path.exists(os.path.join(out, "field_clt_empirical.csv"))
    assert os.path.exists(os.path.join(out, "field_clt_spde.csv"))


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


def test_simulate_mf_poisson_kind(tmp_path):
    cfg = dict(HOMOG)
    cfg["params"] = {"kind": "mf_poisson"}
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "mf")
    assert cli.main(["simulate", "--config", path, "--output", out]) == 0
    assert _summary(out)["kind"] == "mf_poisson"
