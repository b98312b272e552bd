"""Self-tests of the benchmark: names, self-time arithmetic, gates, tracing.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import Counter

import pytest

import run
import spans
from spans import Span, Tracer, layer_metrics, percentile, self_times, union_length
from workloads import CLT_EXP, COUPLE_EXP, FIELD_CLT_TAB, MDP_FIELD_FINE, WORKLOADS

CHECKS = {c.name: c for c in (CLT_EXP, COUPLE_EXP, FIELD_CLT_TAB, MDP_FIELD_FINE)}

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


# a root with two children, one of which has a child of its own
NESTED = [
    Span("cli.pmap", 0.0, 10.0, -1),
    Span("engine.simulate_hawkes", 1.0, 4.0, 0),
    Span("model.kernel_norms", 2.0, 3.0, 1),
    Span("engine.simulate_hawkes", 5.0, 9.0, 0),
    Span("model.kernel_norms", 6.0, 6.5, 3),
]


# --- names ------------------------------------------------------------------

def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_every_check_runs_in_one_workload():
    placed = [c.name for w in WORKLOADS.values() for c in w.checks]
    assert sorted(placed) == sorted(CHECKS)


def test_end_to_end_names_and_units_match_benchmark_json():
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in BENCH["end_to_end"])


def test_traced_output_names_match_benchmark_json():
    assert _declared("per_layer") == spans.PER_LAYER_UNITS
    counts = Counter({"engine.uniform": 10, "engine.accepted_jumps": 8})
    per_run = layer_metrics(NESTED, counts, wall_s=10.5)
    metrics = run.traced_metrics([per_run, per_run], [10.5, 10.7], [10.0, 10.2])
    line = run.result_line(metrics, _declared("per_layer"), attempted=5, failed=0)
    assert set(line["metrics"]) == set(_declared("per_layer"))
    assert line["correct"] is True


def test_result_line_refuses_undeclared_or_missing_metrics():
    units = _declared("end_to_end")
    values = {name: 1.0 for name in units}
    run.result_line(values, units, attempted=1, failed=0)
    with pytest.raises(run.BenchError):
        run.result_line({**values, "extra_s": 1.0}, units, attempted=1, failed=0)
    with pytest.raises(run.BenchError):
        run.result_line({k: v for k, v in values.items() if k != "wall_s"}, units, 1, 0)


# --- self-time arithmetic -----------------------------------------------------

def test_self_times_of_nested_spans():
    assert self_times(NESTED) == pytest.approx([3.0, 2.0, 1.0, 3.5, 0.5])


def test_self_time_clips_children_and_merges_overlaps():
    spans_ = [
        Span("a", 0.0, 4.0, -1),
        Span("b", 1.0, 2.0, 0),
        Span("c", 1.5, 3.0, 0),  # overlaps b: together they cover [1, 3]
        Span("d", 3.5, 5.0, 0),  # runs past its parent: only [3.5, 4] counts
    ]
    assert self_times(spans_)[0] == pytest.approx(4.0 - 2.0 - 0.5)
    assert union_length([(0, 1), (0.5, 2), (3, 3), (4, 5)]) == pytest.approx(3.0)


def test_layer_metrics_account_for_the_wall_time():
    counts = Counter({"engine.uniform": 100, "engine.exponential": 110,
                      "fluct.block": 64, "engine.accepted_jumps": 80})
    m = layer_metrics(NESTED, counts, wall_s=10.25)
    assert m["engine.simulate_hawkes.self_s"] == pytest.approx(5.5)
    assert m["model.kernel_norms.calls"] == 2
    assert m["cli.pmap.self_s"] == pytest.approx(3.0)
    assert m["trace.unaccounted_s"] == pytest.approx(0.25)
    assert m["engine.simulate_hawkes.p50_ms"] == pytest.approx(3500.0)
    assert m["engine.accept_ratio"] == pytest.approx(0.8)
    assert m["engine.us_per_candidate"] == pytest.approx(1e6 * 5.5 / 100)
    assert m["rng.scalar_draws"] == 210 and m["rng.block_draws"] == 64


def test_percentile_interpolates():
    assert percentile([], 0.5) == 0.0
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile(range(101), 0.95) == pytest.approx(95.0)


# --- correctness gates ----------------------------------------------------------

PASSING = {
    "clt-exp": {"ratio": 1.04, "pass": True},
    "couple-exp": {"slope": -0.52, "degenerate": False, "pass": True},
    "field-clt-tab": {"ratio": 0.91, "pass": True},
    "mdp-field-fine": {"max_duality_residual": 4e-15, "rate_estimate": 0.6839223,
                       "half_inner_psi_psi": 0.6839224},
}

CORRUPTED = {
    "clt-exp": [{"ratio": 1.5, "pass": True}, {"ratio": math.nan, "pass": True},
                {"ratio": 1.0, "pass": False}, {}],
    "couple-exp": [{"slope": -0.2, "degenerate": False, "pass": True},
                   {"slope": None, "degenerate": True, "pass": True}],
    "field-clt-tab": [{"ratio": 0.3, "pass": True}, {"ratio": "1.0", "pass": True}],
    "mdp-field-fine": [{**PASSING["mdp-field-fine"], "max_duality_residual": 1e-3},
                       {**PASSING["mdp-field-fine"], "rate_estimate": 0.70},
                       {**PASSING["mdp-field-fine"], "half_inner_psi_psi": 0.0}],
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_gate_passes_a_correct_summary(name, tmp_path):
    assert CHECKS[name].gate(PASSING[name]) == []
    (tmp_path / "summary.json").write_text(json.dumps(PASSING[name]))
    hashes, problems = run.check_output(CHECKS[name], str(tmp_path))
    assert problems == [] and list(hashes) == ["summary.json"]


@pytest.mark.parametrize("name", list(CHECKS))
def test_corrupted_summary_trips_the_gate(name, tmp_path):
    for summary in CORRUPTED[name]:
        assert CHECKS[name].gate(summary), summary
        (tmp_path / "summary.json").write_text(json.dumps(summary))
        _, problems = run.check_output(CHECKS[name], str(tmp_path))
        assert problems


def test_check_output_reports_exit_code_and_missing_summary(tmp_path):
    _, problems = run.check_output(CLT_EXP, str(tmp_path), exit_code=1)
    assert any("exit code 1" in p for p in problems)
    assert any("summary.json" in p for p in problems)


# --- tracing the real package ------------------------------------------------------

@pytest.fixture()
def package():
    sys.path.insert(0, run.SRC)
    try:
        from hawkes_meanfield import cli, engine, model

        yield cli, engine, model
    finally:
        sys.path.remove(run.SRC)


def test_tracer_restores_the_package_and_leaves_results_unchanged(package):
    cli, engine, model = package
    kernel, rate = model.Kernel.exponential(1.0, 2.0), model.RateFn.affine(1.0, 1.0)
    originals = (cli.simulate_hawkes, engine.MarkStream, engine.kernel_norms)
    plain = cli.simulate_hawkes(50, kernel, rate, 1.0, 7)

    tracer = Tracer()
    with tracer.installed():
        assert cli.simulate_hawkes is not originals[0]
        traced = cli.simulate_hawkes(50, kernel, rate, 1.0, 7)
    assert (cli.simulate_hawkes, engine.MarkStream, engine.kernel_norms) == originals

    assert all((a == b).all() for a, b in zip(plain.jumps, traced.jumps))
    assert [s.name for s in tracer.spans] == ["engine.simulate_hawkes", "model.kernel_norms"]
    assert tracer.spans[1].parent == 0
    m = tracer.metrics(wall_s=1.0)
    assert m["engine.accepted_jumps"] == plain.total_jumps
    # one uniform mark per candidate, one exponential per candidate plus one per particle
    assert m["rng.scalar_draws"] == 2 * m["engine.candidates"] + 50
    assert 0.0 < m["engine.accept_ratio"] <= 1.0
