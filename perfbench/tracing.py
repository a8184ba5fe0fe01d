"""Span tracing from outside the package, for the benchmark's traced run.

A ``Tracer`` replaces the package functions listed in ``WRAP_POINTS`` with
wrappers at the names their callers look up (a module global such as
``impulselab.experiments.skorohod_upper`` or a class attribute such as
``BrownianRecord.generate``). Each wrapped call records a span - name, start,
end, parent span and pass - in memory; ``remove`` puts every original back.
Nothing under ``src/`` knows about tracing, and an untraced run installs
nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import statistics
import time
from collections import defaultdict


def _count_replicas(counters, args, kwargs, result):
    counters["batch.replicas"] += len(result)
    counters["batch.impulses"] += int(result.counts.sum())


def _count_trace_columns(counters, args, kwargs, result):
    w_increments = args[2] if len(args) > 2 else kwargs["w_increments"]
    counters["trace.columns"] += 1 if w_increments.ndim == 1 else w_increments.shape[1]


def _count_good(counters, args, kwargs, result):
    counters["classify.calls"] += 1
    counters["classify.good"] += int(result.is_good)


def _count_points(counters, args, kwargs, result):
    # Evaluation points before deduplication: the first path's samples, the
    # pre-images of the second path's samples, and the distortion knots.
    x1, x2, distortion = args[:3]
    counters["skorohod.points"] += (x1.sample_times().shape[0] + x2.sample_times().shape[0]
                                    + distortion.knot_times.shape[0])


def _count_evaluations(counters, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    counters["driver.evaluations"] += config.replicas * len(config.eps_grid)


# (module, attribute the callers look up, span name, counter hook). One
# function can sit at several names; each name gets its own wrapper.
WRAP_POINTS = (
    ("impulselab.cli", "main", "cli.main", None),
    ("impulselab.cli", "load_config", "cli.load_config", None),
    ("impulselab.cli", "open_dest", "cli.write", None),
    ("impulselab.cli", "lln_experiment", "experiments.driver", _count_evaluations),
    ("impulselab.experiments", "clt_experiment", "experiments.driver", _count_evaluations),
    ("impulselab.experiments", "integrate_deterministic", "system.integrate", None),
    ("impulselab.experiments", "simulate_batch", "stochastic.simulate_batch", _count_replicas),
    ("impulselab.stochastic", "simulate_batch", "stochastic.simulate_batch", _count_replicas),
    ("impulselab.stochastic", "BrownianRecord.generate", "stochastic.noise", None),
    ("impulselab.experiments", "fluctuation_trace", "fluctuation.trace", _count_trace_columns),
    ("impulselab.experiments", "classify_good_set", "stochastic.classify", _count_good),
    ("impulselab.experiments", "build_aligning_distortion", "cadlag.align", None),
    ("impulselab.stochastic", "BatchResult.path", "stochastic.batch_path", None),
    ("impulselab.experiments", "skorohod_upper", "cadlag.skorohod", _count_points),
    ("impulselab.experiments", "first_order_on_grid", "fluctuation.first_order", None),
    ("impulselab.experiments", "fit_rate", "experiments.fit", None),
    ("impulselab.experiments", "ks_test", "experiments.ks", None),
    ("impulselab.fpt", "fpt_cdf", "fpt.cdf", None),
)

PASS_SPAN = "pass"


class Tracer:
    """In-memory spans plus counters gathered at the same boundaries."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.passes = [], [], [], [], []
        self.counters = defaultdict(int)
        self._stack = []
        self._pass = -1
        self._installed = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.passes.append(self._pass)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def run_pass(self, pass_id: int, fn, *args):
        """Call ``fn(*args)`` as the root span of one pass."""
        self._pass = pass_id
        index = self._open(PASS_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _traced(self, fn, name: str, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result
        return wrapper

    def _traced_context(self, fn, name: str):
        """Wrap a ``@contextmanager`` function: the span covers the whole
        ``with`` block (for ``open_dest``: open, every write, and close)."""
        @functools.wraps(fn)
        @contextlib.contextmanager
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                with fn(*args, **kwargs) as value:
                    yield value
            finally:
                self._close(index)
        return wrapper

    def install(self, points=WRAP_POINTS) -> None:
        for module_name, attribute, name, hook in points:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            if isinstance(original, classmethod):
                wrapper = classmethod(self._traced(original.__func__, name, hook))
            elif inspect.isgeneratorfunction(getattr(original, "__wrapped__", None)):
                wrapper = self._traced_context(original, name)
            else:
                wrapper = self._traced(original, name, hook)
            setattr(owner, leaf, wrapper)
            self._installed.append((owner, leaf, original))

    def remove(self) -> None:
        """Put every original back, newest first, and check that it is back."""
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)
            current = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            if current is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{leaf}")

    def durations_ns(self) -> list:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times_ns(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        durations = self.durations_ns()
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        return own

    def by_name(self) -> dict:
        """name -> {"calls", "total_ns", "self_ns", "durations_ns"}."""
        table = {}
        for name, duration, own in zip(self.names, self.durations_ns(), self.self_times_ns()):
            row = table.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0,
                                          "durations_ns": []})
            row["calls"] += 1
            row["total_ns"] += duration
            row["self_ns"] += own
            row["durations_ns"].append(duration)
        return table

    def write(self, path) -> None:
        """Write the spans (one [name, start_ns, end_ns, parent, pass] row each)."""
        payload = {"fields": ["name", "start_ns", "end_ns", "parent", "pass"],
                   "spans": [list(row) for row in zip(self.names, self.starts, self.ends,
                                                       self.parents, self.passes)],
                   "counters": dict(self.counters)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def layer_metrics(tracer: Tracer, untraced: list, traced: list, untraced_cpu: list) -> dict:
    """Per-layer metrics as name -> (value, unit, samples).

    ``untraced`` and ``traced`` are the pass wall times with tracing off and
    on, ``untraced_cpu`` the process CPU time of each untraced pass. Layer
    figures are averaged over the traced passes; a layer the workload never
    reaches reads 0 with 0 samples.
    """
    passes = len(traced)
    table = tracer.by_name()
    counters = tracer.counters
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "durations_ns": []}

    def row(name):
        return table.get(name, empty)

    def ratio(total, count):
        return total / count if count else 0.0

    metrics = {}
    sk = row("cadlag.skorohod")
    sk_ms = [d / 1e6 for d in sk["durations_ns"]]
    metrics["cadlag.skorohod.ms.p50"] = (
        statistics.median(sk_ms) if sk_ms else 0.0, "ms", len(sk_ms))
    metrics["cadlag.skorohod.ms.p99"] = (
        _percentile(sk_ms, 0.99) if sk_ms else 0.0, "ms", len(sk_ms))
    metrics["cadlag.skorohod.calls"] = (sk["calls"] / passes, "count", passes)
    metrics["cadlag.skorohod.points_per_call"] = (
        ratio(counters["skorohod.points"], sk["calls"]), "points", sk["calls"])
    for name, metric, unit, scale in (
            ("cadlag.align", "cadlag.align.us_per_call", "us", 1e3),
            ("stochastic.batch_path", "stochastic.batch_path.ms_per_call", "ms", 1e6),
            ("fluctuation.first_order", "fluctuation.first_order.ms_per_call", "ms", 1e6),
            ("stochastic.classify", "stochastic.classify.us_per_call", "us", 1e3),
            ("stochastic.noise", "stochastic.noise.ms_per_replica", "ms", 1e6),
            ("system.integrate", "system.integrate.ms", "ms", 1e6),
            ("fpt.cdf", "fpt.cdf.ms", "ms", 1e6),
            ("experiments.fit", "experiments.fit.ms", "ms", 1e6),
            ("cli.load_config", "cli.load_config.ms", "ms", 1e6)):
        calls = row(name)["calls"]
        metrics[metric] = (ratio(row(name)["total_ns"] / scale, calls), unit, calls)
    columns = counters["trace.columns"]
    metrics["fluctuation.trace.ms_per_replica"] = (
        ratio(row("fluctuation.trace")["total_ns"] / 1e6, columns), "ms", columns)
    replicas = counters["batch.replicas"]
    batch = row("stochastic.simulate_batch")
    metrics["stochastic.simulate_batch.ms_per_replica"] = (
        ratio(batch["total_ns"] / 1e6, replicas), "ms", replicas)
    metrics["stochastic.step_loop.ms_per_replica"] = (
        ratio(batch["self_ns"] / 1e6, replicas), "ms", replicas)
    metrics["stochastic.impulses_per_replica"] = (
        ratio(counters["batch.impulses"], replicas), "count", replicas)
    classified = counters["classify.calls"]
    metrics["stochastic.good_ratio"] = (
        ratio(counters["classify.good"], classified), "ratio", classified)
    evaluations = counters["driver.evaluations"]
    metrics["experiments.driver_self.ms_per_replica"] = (
        ratio(row("experiments.driver")["self_ns"] / 1e6, evaluations), "ms", evaluations)
    writes = row("cli.write")["calls"]
    metrics["cli.write.ms"] = (row("cli.write")["total_ns"] / 1e6 / passes if writes else 0.0,
                               "ms", passes if writes else 0)
    metrics["process.cpu_s"] = (statistics.median(untraced_cpu), "s", len(untraced_cpu))
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio", passes)
    return metrics


def layer_split(tracer: Tracer, passes: int) -> list:
    """Self time per span name and pass, largest first: [(name, calls, self_s)]."""
    rows = [(name, r["calls"] / passes, r["self_ns"] / 1e9 / passes)
            for name, r in tracer.by_name().items()]
    return sorted(rows, key=lambda r: -r[2])
