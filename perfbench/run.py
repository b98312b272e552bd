#!/usr/bin/env python3
"""Benchmark of the ``hawkes-mf`` toolkit on pinned workloads (see workloads.py).

Run from the repository root:

    python3 perfbench/run.py --workload particle-checks --seed 1 --seconds 55 --trace 0

``--trace 0`` runs the workload as a user would: each of its checks in one
``hawkes-mf`` process at a time with ``--workers 1``.  One pass over the
checks is one sample, repeated for ``--seconds`` seconds, and the end-to-end
metrics are medians over the samples.  Before each sample a probe process
imports the package and loads a config, which gives the set-up time.  Every
process's ``summary.json`` must pass its check's correctness gate, and every
sample must write the same artifact bytes as the first; one extra sample with
``--workers 2`` must match them too.

``--trace 1`` runs ``cli.run`` + ``cli.write_bundle`` in this process,
alternating untraced and traced repetitions (see ``spans.py``), and reports
the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with the
machine, the provenance, every sample and the SHA-256 of every artifact is
written to ``.perfbench_out/<workload>/``.  Exit codes: 0 result printed,
2 bad arguments or no package source to measure, 3 the output disagrees
with BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

from spans import PER_LAYER_UNITS, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "hawkes_meanfield")
OUT = os.path.join(ROOT, ".perfbench_out")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}

# single-threaded numerics: the workloads are sized for one core per process
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

MIN_RUNS = 3
MIN_SETUPS = 10
CHILD_TIMEOUT_S = 60.0

SETUP_PROBE = "import sys\nfrom hawkes_meanfield import cli\ncli.load_config(sys.argv[1], sys.argv[2])\n"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# provenance and output checks

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _source_sha256() -> str:
    """Digest of the package source, which identifies the code where git cannot."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


def artifact_hashes(outdir: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_output(check, outdir: str, exit_code: int = 0) -> tuple[dict[str, str], list[str]]:
    """Artifact hashes of one check's run and the reasons it is wrong (empty if correct)."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return {}, problems + [f"no readable summary.json: {exc}"]
    problems += check.gate(summary)
    return artifact_hashes(outdir), problems


def _prefixed(check, hashes: dict[str, str], problems: list[str]) -> tuple[dict, list]:
    return ({f"{check.name}/{k}": v for k, v in hashes.items()},
            [f"{check.name}: {p}" for p in problems])


# ---------------------------------------------------------------------------
# untraced runs: one hawkes-mf process at a time

def spawn(argv: list[str], cwd: str, log_path: str) -> tuple[int, float, float]:
    """Run one process to exit: (exit code, wall seconds, peak RSS in MB of its tree)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=log, stderr=log
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_untraced(workload, seconds: float, work: str) -> tuple[dict, dict]:
    outdir = os.path.join(work, "out")
    log_path = os.path.join(work, "children.log")
    py = sys.executable
    first = workload.checks[0]

    def setup_probe() -> float:
        argv = [py, "-c", SETUP_PROBE, config_path(work, first), first.subcommand]
        code, wall, _ = spawn(argv, work, log_path)
        if code != 0:
            raise BenchError(f"set-up probe exited {code}; see {log_path}")
        return wall

    def run_cli(workers: int) -> dict:
        """One sample: each check of the workload in its own hawkes-mf process."""
        sample = {"workers": workers, "wall_s": 0.0, "peak_rss_mb": 0.0, "hashes": {}, "problems": []}
        for check in workload.checks:
            argv = [py, "-m", "hawkes_meanfield.cli", check.subcommand, "--config",
                    config_path(work, check), "--output", outdir, "--workers", str(workers)]
            code, wall, rss = spawn(argv, work, log_path)
            hashes, problems = _prefixed(check, *check_output(check, outdir, code))
            shutil.rmtree(outdir, ignore_errors=True)
            sample["wall_s"] += wall
            sample["peak_rss_mb"] = max(sample["peak_rss_mb"], rss)
            sample["hashes"].update(hashes)
            sample["problems"] += problems
        return sample

    setup_probe()  # warm-up: byte-compiles the package and fills the file cache
    runs, setups = [], []
    start = time.perf_counter()
    while True:
        setups.append(setup_probe())
        runs.append(run_cli(1))
        if runs[-1]["hashes"] != runs[0]["hashes"] and not runs[-1]["problems"]:
            runs[-1]["problems"].append("artifact bytes differ from the first run")
        elapsed = time.perf_counter() - start
        median_wall = statistics.median(r["wall_s"] for r in runs)
        if len(runs) >= MIN_RUNS and elapsed + median_wall > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(setup_probe())

    # determinism across worker counts, outside the timed runs
    workers_check = run_cli(2)
    if workers_check["hashes"] != runs[0]["hashes"] and not workers_check["problems"]:
        workers_check["problems"].append("--workers 2 artifact bytes differ from --workers 1")

    attempts = runs + [workers_check]
    failed = sum(1 for r in attempts if r["problems"])
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "pass_ratio": (len(attempts) - failed) / len(attempts),
    }
    record = {"runs": attempts, "setup_samples_s": setups,
              "samples": f"{len(runs)} timed samples, {len(setups)} set-up probes, 1 --workers 2 check",
              "artifact_sha256": runs[0]["hashes"], "attempted": len(attempts), "failed": failed}
    return metrics, record


# ---------------------------------------------------------------------------
# traced runs: cli.run + cli.write_bundle in this process

def traced_metrics(layer_runs: list[dict], traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Per-metric medians over the traced repetitions, plus the tracing overhead."""
    metrics = {name: statistics.median(m[name] for m in layer_runs) for name in layer_runs[0]}
    untraced = statistics.median(untraced_walls)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead"] = statistics.median(traced_walls) / untraced - 1.0
    return metrics


def measure_traced(workload, seconds: float, work: str) -> tuple[dict, dict]:
    sys.path.insert(0, SRC)
    from hawkes_meanfield import cli

    configs = [
        (check, cli.load_config(config_path(work, check), check.subcommand, overrides={"workers": 1}))
        for check in workload.checks
    ]
    walls = {False: [], True: []}
    layer_runs, runs = [], []
    last_spans = []

    def repetition(traced: bool | None) -> None:
        """cli.run + cli.write_bundle for each check; ``traced=None`` is the untimed warm-up."""
        nonlocal last_spans
        tracer = Tracer()
        wall = 0.0
        passed = {}
        with tracer.installed() if traced else contextlib.nullcontext():
            for check, cfg in configs:
                t0 = time.perf_counter()
                bundle = cli.run(cfg)
                cli.write_bundle(bundle, os.path.join(work, check.name))
                wall += time.perf_counter() - t0
                passed[check.name] = bundle.passed
        hashes, problems = {}, []
        for check, _ in configs:
            outdir = os.path.join(work, check.name)
            h, p = _prefixed(check, *check_output(check, outdir, 0 if passed[check.name] else 1))
            shutil.rmtree(outdir, ignore_errors=True)
            hashes.update(h)
            problems += p
        if runs and hashes != runs[0]["hashes"] and not problems:
            problems.append("artifact bytes differ from the first run")
        runs.append({"traced": traced, "wall_s": wall, "hashes": hashes, "problems": problems})
        if traced is not None:
            walls[traced].append(wall)
        if traced:
            layer_runs.append(tracer.metrics(wall))
            last_spans = tracer.spans

    repetition(None)  # neither side should pay first-use costs
    start = time.perf_counter()
    order = (False, True)
    while True:
        for traced in order:
            repetition(traced)
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(layer_runs)) > seconds:
            break
        order = order[::-1]  # alternate which side goes first

    metrics = traced_metrics(layer_runs, walls[True], walls[False])
    failed = sum(1 for r in runs if r["problems"])
    t_ref = last_spans[0].start if last_spans else 0.0
    record = {
        "runs": runs,
        "artifact_sha256": runs[0]["hashes"],
        "attempted": len(runs),
        "failed": failed,
        "samples": f"{len(walls[True])} traced and {len(walls[False])} untraced repetitions",
        "spans": [[s.name, s.start - t_ref, s.end - t_ref, s.parent] for s in last_spans],
    }
    return metrics, record


# ---------------------------------------------------------------------------

def config_path(work: str, check) -> str:
    return os.path.join(work, f"{check.name}.json")


def expected_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units BENCHMARK.json declares for this mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    listed = {w["name"] for w in bench["workloads"]}
    if listed != set(WORKLOADS):
        raise BenchError(f"BENCHMARK.json workloads {sorted(listed)} != {sorted(WORKLOADS)}")
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def result_line(metrics: dict[str, float], units: dict[str, str], attempted: int, failed: int) -> dict:
    if set(metrics) != set(units):
        raise BenchError(f"measured {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    trace = bool(args.trace)
    workload = WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"perfbench: no hawkes_meanfield source under {SRC}", file=sys.stderr)
        return 2
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    try:
        expected = expected_metrics(trace)
        if expected != units:
            raise BenchError(f"BENCHMARK.json lists {expected}, the benchmark emits {units}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    # children inherit this environment: the seed comes from the config alone
    os.environ.pop("HAWKES_SEED", None)
    os.environ.update(THREAD_ENV)
    pythonpath = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + pythonpath if pythonpath else "")
    info = provenance(args.seed)
    workdir = os.path.join(OUT, workload.name, f"seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    configs = {check.name: check.config_for(args.seed) for check in workload.checks}
    for check in workload.checks:
        with open(config_path(workdir, check), "w", encoding="utf-8") as fh:
            json.dump(configs[check.name], fh, indent=2)
    measure = measure_traced if trace else measure_untraced
    try:
        metrics, record = measure(workload, args.seconds, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    shutil.rmtree(workdir, ignore_errors=True)

    try:
        result = result_line(metrics, units, record["attempted"], record["failed"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    record_path = os.path.join(OUT, workload.name, f"seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "configs": configs, "provenance": info,
                   "result": result, **record}, fh, indent=1)

    checks = ", ".join(f"{c.name} ({c.subcommand})" for c in workload.checks)
    print(f"# {workload.name}: {checks}; seed {args.seed}, trace {args.trace}")
    print("# machine " + json.dumps(info, sort_keys=True))
    print(f"# samples: {record['samples']}")
    for name, digest in record["artifact_sha256"].items():
        print(f"# sha256 {digest}  {name}")
    for reason in sorted({p for r in record["runs"] for p in r["problems"]}):
        print(f"# FAILED: {reason}")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"# record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
