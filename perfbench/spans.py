"""In-memory spans around hawkes_meanfield's layers, recorded from outside the package.

``Tracer.installed()`` replaces each public function at the name its callers
look up (``cli.simulate_hawkes``, ``deviations.inner``, ``engine.kernel_norms``,
``fluct.FieldPath.to_csv``, ...) with a wrapper that records a span (name,
start, end, parent), and swaps ``engine.MarkStream`` and ``fluct.MarkStream``
for a subclass that counts draws.  Everything is restored on exit, and nothing
in the package itself changes.  ``layer_metrics`` turns one traced run into
the per-layer numbers listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


# (module, attribute path, span name): every place a caller looks a public
# function up during the four workloads.
WRAPPED = (
    ("cli", "derive_seed", "rng.derive_seed"),
    ("cli", "validate_assumptions", "model.validate_assumptions"),
    ("model", "kernel_norms", "model.kernel_norms"),
    ("engine", "kernel_norms", "model.kernel_norms"),
    ("cli", "solve_mean", "meanfield.solve_mean"),
    ("fluct", "limit_law", "meanfield.limit_law"),
    ("fluct", "limit_law_path", "meanfield.limit_law_path"),
    ("deviations", "limit_law_path", "meanfield.limit_law_path"),
    ("cli", "simulate_hawkes", "engine.simulate_hawkes"),
    ("cli", "simulate_coupled", "engine.simulate_coupled"),
    ("cli", "sup_path_difference", "engine.sup_path_difference"),
    ("cli", "centered_field", "fluct.centered_field"),
    ("cli", "limit_mean_variance", "fluct.limit_mean_variance"),
    ("cli", "simulate_limit_field", "fluct.simulate_limit_field"),
    ("fluct", "FieldPath.to_csv", "fluct.to_csv"),
    ("deviations", "solve_linearized", "deviations.solve_linearized"),
    ("deviations", "inner", "deviations.inner"),
    ("deviations", "upsilon", "deviations.upsilon"),
    ("deviations", "rate_field", "deviations.rate_field"),
    ("cli", "_pmap", "cli.pmap"),
    ("cli", "write_bundle", "cli.write_bundle"),
)

# modules whose MarkStream is replaced by the counting subclass
COUNTED_STREAMS = ("engine", "fluct")

PER_LAYER_UNITS = {
    "rng.scalar_draws": "count",
    "rng.block_draws": "count",
    "model.kernel_norms.calls": "count",
    "model.validate_assumptions.self_s": "s",
    "meanfield.solve_mean.self_s": "s",
    "meanfield.solve_mean.grid_steps": "count",
    "meanfield.limit_law_path.calls": "count",
    "meanfield.limit_law_path.self_s": "s",
    "engine.simulate_hawkes.self_s": "s",
    "engine.simulate_hawkes.p50_ms": "ms",
    "engine.simulate_hawkes.p95_ms": "ms",
    "engine.simulate_coupled.self_s": "s",
    "engine.sup_path_difference.self_s": "s",
    "engine.candidates": "count",
    "engine.accepted_jumps": "count",
    "engine.accept_ratio": "ratio",
    "engine.us_per_candidate": "us",
    "fluct.simulate_limit_field.self_s": "s",
    "fluct.centered_field.self_s": "s",
    "fluct.limit_mean_variance.self_s": "s",
    "fluct.to_csv.self_s": "s",
    "deviations.solve_linearized.self_s": "s",
    "deviations.inner.calls": "count",
    "deviations.inner.self_s": "s",
    "deviations.upsilon.calls": "count",
    "deviations.upsilon.self_s": "s",
    "deviations.rate_field.self_s": "s",
    "cli.pmap.self_s": "s",
    "cli.write_bundle.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead": "ratio",
    "trace.unaccounted_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
}


def union_length(intervals) -> float:
    """Total length covered by a set of (lo, hi) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end)) for c in children[i]
        )
        out.append(span.end - span.start - covered)
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 1]); 0.0 for no values."""
    vals = sorted(values)
    if not vals:
        return 0.0
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (pos - lo) * (vals[hi] - vals[lo])


def layer_metrics(spans: list[Span], counts: Counter, wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced run whose wall time was ``wall_s``.

    ``trace.overhead`` and ``trace.untraced_wall_s`` need an untraced run, so
    the caller adds them.
    """
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span, own in zip(spans, selfs):
        self_s[span.name] += own
        calls[span.name] += 1
    hawkes_ms = [1e3 * (s.end - s.start) for s in spans if s.name == "engine.simulate_hawkes"]
    candidates = counts["engine.uniform"]
    accepted = counts["engine.accepted_jumps"]
    thinning_s = self_s["engine.simulate_hawkes"] + self_s["engine.simulate_coupled"]
    scalar = sum(counts[f"{m}.{kind}"] for m in COUNTED_STREAMS for kind in ("uniform", "exponential"))
    return {
        "rng.scalar_draws": scalar,
        "rng.block_draws": sum(counts[f"{m}.block"] for m in COUNTED_STREAMS),
        "model.kernel_norms.calls": calls["model.kernel_norms"],
        "model.validate_assumptions.self_s": self_s["model.validate_assumptions"],
        "meanfield.solve_mean.self_s": self_s["meanfield.solve_mean"],
        "meanfield.solve_mean.grid_steps": counts["meanfield.solve_mean.grid_steps"],
        "meanfield.limit_law_path.calls": calls["meanfield.limit_law_path"],
        "meanfield.limit_law_path.self_s": self_s["meanfield.limit_law_path"],
        "engine.simulate_hawkes.self_s": self_s["engine.simulate_hawkes"],
        "engine.simulate_hawkes.p50_ms": percentile(hawkes_ms, 0.50),
        "engine.simulate_hawkes.p95_ms": percentile(hawkes_ms, 0.95),
        "engine.simulate_coupled.self_s": self_s["engine.simulate_coupled"],
        "engine.sup_path_difference.self_s": self_s["engine.sup_path_difference"],
        "engine.candidates": candidates,
        "engine.accepted_jumps": accepted,
        "engine.accept_ratio": accepted / candidates if candidates else 0.0,
        "engine.us_per_candidate": 1e6 * thinning_s / candidates if candidates else 0.0,
        "fluct.simulate_limit_field.self_s": self_s["fluct.simulate_limit_field"],
        "fluct.centered_field.self_s": self_s["fluct.centered_field"],
        "fluct.limit_mean_variance.self_s": self_s["fluct.limit_mean_variance"],
        "fluct.to_csv.self_s": self_s["fluct.to_csv"],
        "deviations.solve_linearized.self_s": self_s["deviations.solve_linearized"],
        "deviations.inner.calls": calls["deviations.inner"],
        "deviations.inner.self_s": self_s["deviations.inner"],
        "deviations.upsilon.calls": calls["deviations.upsilon"],
        "deviations.upsilon.self_s": self_s["deviations.upsilon"],
        "deviations.rate_field.self_s": self_s["deviations.rate_field"],
        "cli.pmap.self_s": self_s["cli.pmap"],
        "cli.write_bundle.self_s": self_s["cli.write_bundle"],
        "cli.artifact_bytes": counts["cli.artifact_bytes"],
        "trace.unaccounted_s": wall_s - sum(selfs),
        "trace.wall_s": wall_s,
    }


def _counting_stream(base: type, counts: Counter, module: str) -> type:
    """A MarkStream subclass that tallies its draws under ``module``."""
    uniform_key, exponential_key, block_key = f"{module}.uniform", f"{module}.exponential", f"{module}.block"

    class CountingMarkStream(base):
        __slots__ = ()

        def uniform(self):
            counts[uniform_key] += 1
            return base.uniform(self)

        def exponential(self):
            counts[exponential_key] += 1
            return base.exponential(self)

        def uniforms(self, n):
            counts[block_key] += n
            return base.uniforms(self, n)

        def normals(self, n):
            counts[block_key] += n
            return base.normals(self, n)

    return CountingMarkStream


def _dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str, observe: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot so spans stay in start order
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent)
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def _observers(self) -> dict[str, Callable]:
        counts = self.counts

        def grid_steps(mean, args):
            counts["meanfield.solve_mean.grid_steps"] += mean.grid.n

        def hawkes_jumps(log, args):
            counts["engine.accepted_jumps"] += log.total_jumps

        def coupled_jumps(coupling, args):
            counts["engine.accepted_jumps"] += coupling.hawkes.total_jumps

        def written_bytes(_, args):
            counts["cli.artifact_bytes"] += _dir_bytes(args[1])

        return {
            "meanfield.solve_mean": grid_steps,
            "engine.simulate_hawkes": hawkes_jumps,
            "engine.simulate_coupled": coupled_jumps,
            "cli.write_bundle": written_bytes,
        }

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers and counting streams in; restore the originals on exit."""
        mods = {}
        saved = []  # (owner, attribute, original)
        observers = self._observers()
        try:
            for mod_name, path, span_name in WRAPPED:
                mod = mods.setdefault(mod_name, importlib.import_module(f"hawkes_meanfield.{mod_name}"))
                *owners, attr = path.split(".")
                owner = functools.reduce(getattr, owners, mod)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, span_name, observers.get(span_name)))
            for mod_name in COUNTED_STREAMS:
                mod = importlib.import_module(f"hawkes_meanfield.{mod_name}")
                saved.append((mod, "MarkStream", mod.MarkStream))
                mod.MarkStream = _counting_stream(mod.MarkStream, self.counts, mod_name)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self, wall_s: float) -> dict[str, float]:
        return layer_metrics(self.spans, self.counts, wall_s)
