"""Monte Carlo estimation of path-distance moments across a noise grid.

The harness simulates M replicas in chunks. One Brownian record drives a
replica at every epsilon, so each chunk is simulated at all noise levels in
one step loop, with one fluctuation trace shared by the levels, and scored at
all levels in one distance call. Each noisy path is aligned with the
deterministic trajectory through the good-set time distortion of its epsilon
(identity off the good set); the kernel returns the two terms of the
Skorohod upper bound, the distortion's cost and the sup distance, and the
driver records their maximum and averages its beta-th power per epsilon. A
log-log least squares fit across the epsilon grid estimates the convergence
rate. The refined mode couples a first-order correction to the same replicas
and reports both distance sets so baseline and refinement can be compared
seed for seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

# The driver scores whole chunks with batch_skorohod_upper. The per-replica
# reference path it replaced (classify_good_set, build_aligning_distortion,
# first_order_on_grid, skorohod_upper) stays bound here, where
# perfbench/tracing.py wraps it.
from .cadlag import batch_skorohod_upper, build_aligning_distortion, skorohod_upper  # noqa: F401
from .errors import ConfigError, DataError, ParameterError
from .fluctuation import first_order_on_grid, fluctuation_trace  # noqa: F401
from .stochastic import NoiseParams, classify_good_set, good_set_mask, simulate_batch  # noqa: F401
from .system import SystemSpec, integrate_deterministic, simulation_grid


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid, replica budget, moment order, and good-set exponent.

    `chunk_size` bounds the paths one step loop advances and one distance
    call scores at once, counted as replicas times epsilon levels; a chunk
    holds at least one replica.
    """

    eps_grid: tuple
    replicas: int
    beta: int
    nu: float
    p: float
    dt: float
    horizon: float
    master_seed: int
    chunk_size: int = 250

    def __post_init__(self):
        grid = self.eps_grid
        grid = None if isinstance(grid, str) or not np.iterable(grid) else tuple(grid)
        if grid is None or not all(isinstance(e, numbers.Real) for e in grid):
            raise ConfigError("epsilon grid must be a sequence of numbers", field="eps_grid")
        grid = tuple(float(e) for e in grid)
        object.__setattr__(self, "eps_grid", grid)
        if len(grid) == 0:
            raise ConfigError("epsilon grid must not be empty", field="eps_grid")
        if any(not (0.0 < e < 1.0) for e in grid):
            raise ConfigError("every epsilon must lie in (0, 1)", field="eps_grid")
        if len(set(grid)) < len(grid):
            raise ConfigError("epsilon values must be distinct", field="eps_grid")
        if not isinstance(self.replicas, numbers.Integral) or self.replicas < 1:
            raise ConfigError("replica count must be a positive integer", field="replicas")
        if 2 * len(grid) * int(self.replicas) >= np.iinfo(np.intp).max // 8:
            raise ConfigError("replica count exceeds what an array can hold", field="replicas")
        if self.beta not in (1, 2):
            raise ConfigError("moment order beta must be 1 or 2", field="beta")
        if not self.p < math.inf:
            raise ConfigError("angular exponent p must be finite", field="p")
        if not (1.0 < self.nu < self.p):
            raise ConfigError("good-set exponent nu must lie in (1, p)", field="nu")
        if not self.dt > 0.0:
            raise ConfigError("step must be positive", field="dt")
        if self.dt == math.inf:
            raise ConfigError("step must be finite", field="dt")
        if not self.horizon > 0.0:
            raise ConfigError("horizon must be positive", field="horizon")
        if self.horizon == math.inf:
            raise ConfigError("horizon must be finite", field="horizon")
        if not isinstance(self.chunk_size, numbers.Integral) or self.chunk_size < 1:
            raise ConfigError("chunk size must be a positive integer", field="chunk_size")
        if not isinstance(self.master_seed, numbers.Integral) or self.master_seed < 0:
            raise ConfigError("seed must be a nonnegative integer", field="seed")


@dataclass(frozen=True)
class EpsilonRow:
    epsilon: float
    mean_distance: float
    stderr: float
    bad_freq: float
    replicas: int


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    slope_stderr: float


@dataclass(frozen=True)
class ExperimentReport:
    """One run's rows and fit (of the refined distance in clt mode, with the
    baseline's alongside) and the `config` it ran: its beta, nu, p and seed."""

    mode: str
    config: ExperimentConfig
    rows: tuple
    fit: RateFit | None
    baseline_rows: tuple | None = None
    baseline_fit: RateFit | None = None


def fit_rate(points) -> RateFit:
    """Least squares of log(mean) on log(epsilon); needs >= 3 positive points."""
    pts = [(float(e), float(m)) for e, m in points]
    if len(pts) < 3:
        raise DataError("rate fit needs at least 3 points")
    if not all(0.0 < v < math.inf for pt in pts for v in pt):
        raise DataError("rate fit needs positive finite epsilons and means")
    x = np.log([e for e, _ in pts])
    y = np.log([m for _, m in pts])
    (slope, intercept), residuals, rank, *_ = np.polyfit(x, y, 1, full=True)
    if rank < 2:
        raise DataError("rate fit needs distinct epsilon values")
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(float(residuals[0]) / (x.shape[0] - 2) / sxx)
    return RateFit(slope=float(slope), intercept=float(intercept), slope_stderr=stderr)


def ks_test(sample, cdf, level: float = 0.01):
    """One-sample Kolmogorov-Smirnov check at the given level.

    Returns (statistic, passed) with the asymptotic critical value
    sqrt(-ln(level/2)/2)/sqrt(n).
    """
    data = np.sort(np.asarray(sample, dtype=float))
    n = data.shape[0]
    if n < 100:
        raise DataError("Kolmogorov-Smirnov check needs at least 100 samples")
    if not (0.0 < level < 1.0):
        raise ParameterError("level must lie in (0, 1)")
    values = np.asarray(cdf(data), dtype=float)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    statistic = float(np.max(np.maximum(np.abs(values - upper), np.abs(values - lower))))
    critical = math.sqrt(-0.5 * math.log(level / 2.0)) / math.sqrt(n)
    return statistic, statistic < critical


def _row(epsilon: float, powered: np.ndarray, bad: int) -> EpsilonRow:
    m = powered.shape[0]
    mean = float(np.mean(powered))
    stderr = float(np.std(powered, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return EpsilonRow(epsilon=epsilon, mean_distance=mean, stderr=stderr,
                      bad_freq=bad / m, replicas=m)


def _maybe_fit(rows) -> RateFit | None:
    if len(rows) < 3:
        return None
    return fit_rate([(r.epsilon, r.mean_distance) for r in rows])


def _run(config: ExperimentConfig, spec: SystemSpec, compute_refined: bool):
    """Shared driver. Returns one row list per first path: the deterministic
    path, then, when `compute_refined`, the first-order path."""
    grid = simulation_grid(spec.alpha, config.horizon, config.dt)
    det = integrate_deterministic(spec, grid)
    eps_grid = config.eps_grid
    deltas = [eps ** config.nu for eps in eps_grid]
    for eps, delta in zip(eps_grid, deltas):
        if delta >= spec.alpha / 4.0:
            raise ConfigError(f"epsilon {eps} gives delta {delta:.4g} >= alpha/4; "
                              "good-set classification is undefined there")
    levels = tuple(NoiseParams(epsilon=eps, p=config.p, sigma=1) for eps in eps_grid)
    n_eps = len(eps_grid)
    distances = np.empty((2 if compute_refined else 1, n_eps, config.replicas))
    bad = np.zeros(n_eps, dtype=np.int64)
    per_chunk = max(1, config.chunk_size // n_eps)
    for offset in range(0, config.replicas, per_chunk):
        count = min(per_chunk, config.replicas - offset)
        batch = simulate_batch(spec, levels, config.horizon, config.dt, config.master_seed,
                               count, replica_offset=offset, store_increments=compute_refined)
        trace = fluctuation_trace(spec, det, batch.w_increments) if compute_refined else None
        batch = replace(batch, w_increments=None)  # the kernel does not read them
        good = good_set_mask(batch.tau, batch.counts, spec.alpha, grid.n_impulses,
                             np.repeat(deltas, count))
        bad += count - np.count_nonzero(good.reshape(n_eps, count), axis=1)
        cost, sup = batch_skorohod_upper(det, batch, good, trace)
        distances[:, :, offset:offset + count] = np.maximum(cost, sup).reshape(-1, n_eps, count)
        del batch, trace
    return [[_row(eps, d ** config.beta, b) for eps, d, b in zip(eps_grid, first, bad.tolist())]
            for first in distances]


def lln_experiment(config: ExperimentConfig, spec: SystemSpec) -> ExperimentReport:
    """Distance between the noisy path and the deterministic trajectory."""
    (rows,) = _run(config, spec, compute_refined=False)
    return ExperimentReport(mode="lln", config=config, rows=tuple(rows), fit=_maybe_fit(rows))


def clt_experiment(config: ExperimentConfig, spec: SystemSpec) -> ExperimentReport:
    """Distance to the first-order refinement, with the baseline alongside."""
    base_rows, refined_rows = _run(config, spec, compute_refined=True)
    return ExperimentReport(mode="clt", config=config, rows=tuple(refined_rows),
                            fit=_maybe_fit(refined_rows),
                            baseline_rows=tuple(base_rows),
                            baseline_fit=_maybe_fit(base_rows))
