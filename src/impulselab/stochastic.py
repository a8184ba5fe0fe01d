"""Euler-Maruyama simulation of the impulsive system under small noise.

The radial component gains additive noise epsilon*dW; the angular component
advances at unit speed (optionally perturbed by zeta*f(r, theta)) plus
sigma*epsilon^p*dB. An impulse fires at the first grid step whose endpoint
angle reaches the wedge angle alpha; the crossing time is located by linear
interpolation inside the step, the radius is reset through h there, and the
remainder of the step is advanced with a fresh Brownian increment, so no
increment is ever reused across an impulse.

Per-replica randomness comes from counter-based generators derived from a
master seed and the replica index, which makes every result reproducible and
independent of chunking or scheduling order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cadlag import CadlagPath, assemble_from_grid
from .errors import ParameterError, ResolutionError, RunawayError
from .fpt import derived_tail_constant
from .system import ImpulseSchedule, SimulationGrid, SystemSpec, simulation_grid

_F_PROBE = 41


@dataclass(frozen=True)
class NoiseParams:
    """Noise intensities: radial scale epsilon, angular scale sigma*epsilon^p.

    epsilon = 0 is accepted as the degenerate no-noise case even though the
    perturbation regime of interest is epsilon in (0, 1).
    """

    epsilon: float
    p: float
    sigma: int = 1
    zeta: float = 0.0
    angular_drift: Callable | None = None

    def __post_init__(self):
        if not (0.0 <= self.epsilon < 1.0):
            raise ParameterError("epsilon must lie in [0, 1)")
        if self.p <= 1.0:
            raise ParameterError("angular exponent p must exceed 1")
        if self.sigma not in (0, 1):
            raise ParameterError("sigma must be 0 or 1")
        if self.zeta < 0.0:
            raise ParameterError("zeta must be nonnegative")
        if self.angular_drift is not None:
            rr, tt = np.meshgrid(np.linspace(-8.0, 8.0, _F_PROBE),
                                 np.linspace(0.0, 2.0 * math.pi, _F_PROBE))
            vals = np.abs(np.asarray(self.angular_drift(rr, tt), dtype=float))
            if float(np.max(vals)) >= 1.0:
                raise ParameterError("angular drift perturbation must satisfy sup|f| < 1")

    @property
    def angular_scale(self) -> float:
        return self.sigma * self.epsilon ** self.p


def replica_seed_sequence(master_seed: int, replica_index: int) -> np.random.SeedSequence:
    """Stream for one replica; distinct replicas get independent streams."""
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(replica_index),))


@dataclass(frozen=True, eq=False)
class BrownianRecord:
    """Increments of the two driving Brownian motions on a simulation grid.

    `w_increments[j]` and `b_increments[j]` have variance equal to the j-th
    step length. The unit-normal aux draws supply the fresh partial-step
    increments consumed after each impulse.
    """

    dt: float
    times: np.ndarray
    w_increments: np.ndarray
    b_increments: np.ndarray
    aux_w: np.ndarray
    aux_b: np.ndarray
    seed_entropy: int
    spawn_key: tuple

    @classmethod
    def generate(cls, grid: SimulationGrid, seed, n_aux: int) -> "BrownianRecord":
        if isinstance(seed, np.random.SeedSequence):
            seed_seq = seed
        else:
            seed_seq = np.random.SeedSequence(int(seed))
        rng = np.random.Generator(np.random.Philox(seed_seq))
        scale = np.sqrt(grid.steps)
        n = grid.steps.shape[0]
        w = rng.standard_normal(n) * scale
        b = rng.standard_normal(n) * scale
        aux_w = rng.standard_normal(n_aux)
        aux_b = rng.standard_normal(n_aux)
        entropy = seed_seq.entropy if isinstance(seed_seq.entropy, int) else 0
        return cls(dt=grid.dt, times=grid.times, w_increments=w, b_increments=b,
                   aux_w=aux_w, aux_b=aux_b, seed_entropy=entropy,
                   spawn_key=tuple(seed_seq.spawn_key))


def default_impulse_cap(alpha: float, horizon: float) -> int:
    return 10 * int(math.ceil(horizon / alpha))


def _advance_batch(spec: SystemSpec, noise: NoiseParams, grid: SimulationGrid,
                   w_inc: np.ndarray, b_inc: np.ndarray,
                   aux_w: np.ndarray, aux_b: np.ndarray, n_max: int):
    """Vectorised step loop over all replicas in the chunk. Returns grid
    samples, impulse data, and counts. Arrays w_inc/b_inc are (n_steps, M)."""
    times, steps = grid.times, grid.steps
    n, m = w_inc.shape
    eps = noise.epsilon
    eps_ang = noise.angular_scale
    zeta, f = noise.zeta, noise.angular_drift
    alpha = grid.alpha
    drift, reset = spec.drift, spec.reset

    r_state = np.full(m, spec.r0)
    th_state = np.zeros(m)
    r_path = np.empty((n + 1, m))
    th_path = np.empty((n + 1, m))
    r_path[0] = r_state
    th_path[0] = th_state
    tau = np.full((m, n_max), np.nan)
    pre = np.full((m, n_max), np.nan)
    post = np.full((m, n_max), np.nan)
    counts = np.zeros(m, dtype=np.int64)

    for j in range(n):
        h = float(steps[j])
        t_end = float(times[j + 1])
        rem = np.full(m, h)
        cur_w = eps * w_inc[j]
        cur_b = eps_ang * b_inc[j]
        while True:
            active = rem > 0.0
            r_prop = r_state + np.asarray(drift(r_state), dtype=float) * rem + cur_w
            if zeta == 0.0 or f is None:
                th_prop = th_state + rem + cur_b
            else:
                th_prop = th_state + rem * (1.0 + zeta * np.asarray(f(r_state, th_state), dtype=float)) + cur_b
            cross = active & (th_prop >= alpha)
            finish = active & ~cross
            if finish.any():
                r_state[finish] = r_prop[finish]
                th_state[finish] = th_prop[finish]
                rem[finish] = 0.0
            if not cross.any():
                break
            idx = np.nonzero(cross)[0]
            frac = (alpha - th_state[idx]) / (th_prop[idx] - th_state[idx])
            k = counts[idx]
            if np.any(k >= n_max):
                raise RunawayError(f"impulse count exceeded the cap of {n_max}")
            tau_hit = t_end - rem[idx] * (1.0 - frac)
            r_pre = r_state[idx] + frac * (r_prop[idx] - r_state[idx])
            r_post = np.asarray(reset(r_pre), dtype=float)
            tau[idx, k] = tau_hit
            pre[idx, k] = r_pre
            post[idx, k] = r_post
            counts[idx] = k + 1
            new_rem = (1.0 - frac) * rem[idx]
            sq = np.sqrt(new_rem)
            r_state[idx] = r_post
            th_state[idx] = 0.0
            rem[idx] = new_rem
            cur_w = np.zeros(m)
            cur_b = np.zeros(m)
            cur_w[idx] = eps * aux_w[idx, k] * sq
            cur_b[idx] = eps_ang * aux_b[idx, k] * sq
        r_path[j + 1] = r_state
        th_path[j + 1] = th_state
    return r_path, th_path, tau, pre, post, counts


@dataclass(frozen=True, eq=False)
class BatchResult:
    """Vectorised simulation output with lazy per-replica object views."""

    grid: SimulationGrid
    r_values: np.ndarray       # (n_steps + 1, M)
    theta_values: np.ndarray   # (n_steps + 1, M)
    tau: np.ndarray            # (M, n_max), nan padded
    pre: np.ndarray
    post: np.ndarray
    counts: np.ndarray         # (M,)
    master_seed: int
    replica_offset: int
    w_increments: np.ndarray | None = None  # (n_steps, M) when stored
    b_increments: np.ndarray | None = None

    def __len__(self) -> int:
        return self.counts.shape[0]

    def impulse_times(self, i: int) -> np.ndarray:
        return self.tau[i, : self.counts[i]]

    def schedule(self, i: int) -> ImpulseSchedule:
        c = int(self.counts[i])
        return ImpulseSchedule(times=self.tau[i, :c].copy(),
                               pre_values=self.pre[i, :c].copy(),
                               post_values=self.post[i, :c].copy())

    def path(self, i: int) -> CadlagPath:
        c = int(self.counts[i])
        values = np.stack([self.r_values[:, i], self.theta_values[:, i]], axis=1)
        pre_states = np.stack([self.pre[i, :c], np.full(c, self.grid.alpha)], axis=1)
        post_states = np.stack([self.post[i, :c], np.zeros(c)], axis=1)
        return assemble_from_grid(self.grid.horizon, self.grid.times, values,
                                  self.tau[i, :c], pre_states, post_states)


def _check_stochastic_dt(alpha: float, dt: float) -> None:
    if dt > alpha / 200.0:
        raise ResolutionError("stochastic step size must not exceed alpha/200")


def simulate_batch(spec: SystemSpec, noise: NoiseParams, horizon: float, dt: float,
                   master_seed: int, n_replicas: int, replica_offset: int = 0,
                   n_max: int | None = None, store_increments: bool = False) -> BatchResult:
    """Simulate replicas `replica_offset .. replica_offset + n_replicas - 1`.

    Results are a pure function of (spec, noise, horizon, dt, master_seed,
    replica index); chunk boundaries do not affect them.
    """
    if n_replicas < 1:
        raise ParameterError("need at least one replica")
    _check_stochastic_dt(spec.alpha, dt)
    grid = simulation_grid(spec.alpha, horizon, dt)
    if n_max is None:
        n_max = default_impulse_cap(spec.alpha, horizon)
    n = grid.steps.shape[0]
    w_inc = np.empty((n, n_replicas))
    b_inc = np.empty((n, n_replicas))
    aux_w = np.empty((n_replicas, n_max))
    aux_b = np.empty((n_replicas, n_max))
    for i in range(n_replicas):
        rec = BrownianRecord.generate(grid, replica_seed_sequence(master_seed, replica_offset + i), n_max)
        w_inc[:, i] = rec.w_increments
        b_inc[:, i] = rec.b_increments
        aux_w[i] = rec.aux_w
        aux_b[i] = rec.aux_b
    r_path, th_path, tau, pre, post, counts = _advance_batch(
        spec, noise, grid, w_inc, b_inc, aux_w, aux_b, n_max)
    return BatchResult(grid=grid, r_values=r_path, theta_values=th_path,
                       tau=tau, pre=pre, post=post, counts=counts,
                       master_seed=master_seed, replica_offset=replica_offset,
                       w_increments=w_inc if store_increments else None,
                       b_increments=b_inc if store_increments else None)


def simulate_path(spec: SystemSpec, noise: NoiseParams, horizon: float, dt: float,
                  seed: int, n_max: int | None = None):
    """One replica; returns (path, impulse schedule, driving Brownian record)."""
    _check_stochastic_dt(spec.alpha, dt)
    grid = simulation_grid(spec.alpha, horizon, dt)
    if n_max is None:
        n_max = default_impulse_cap(spec.alpha, horizon)
    record = BrownianRecord.generate(grid, seed, n_max)
    r_path, th_path, tau, pre, post, counts = _advance_batch(
        spec, noise, grid, record.w_increments[:, None], record.b_increments[:, None],
        record.aux_w[None, :], record.aux_b[None, :], n_max)
    result = BatchResult(grid=grid, r_values=r_path, theta_values=th_path,
                         tau=tau, pre=pre, post=post, counts=counts,
                         master_seed=int(seed) if not isinstance(seed, np.random.SeedSequence) else 0,
                         replica_offset=0)
    return result.path(0), result.schedule(0), record


@dataclass(frozen=True)
class GoodSetRecord:
    """Outcome of the impulse-alignment test for one replica."""

    delta: float
    n_expected: int
    is_good: bool
    deviations: np.ndarray


def classify_good_set(schedule: ImpulseSchedule, alpha: float, n_expected: int,
                      delta: float) -> GoodSetRecord:
    """Good means exactly n_expected impulses, each within delta of k*alpha."""
    times = schedule.times
    is_good = bool(good_set_mask(times[None, :], np.array([times.shape[0]]), alpha,
                                 n_expected, delta)[0])
    upto = min(times.shape[0], n_expected)
    deviations = np.abs(times[:upto] - alpha * np.arange(1, upto + 1))
    return GoodSetRecord(delta=delta, n_expected=n_expected, is_good=is_good,
                         deviations=deviations)


def good_set_mask(tau: np.ndarray, counts: np.ndarray, alpha: float, n_expected: int,
                  delta: float) -> np.ndarray:
    """:func:`classify_good_set` for a batch: `tau` is (M, n_max), valid up to
    `counts`, as in :class:`BatchResult`. Returns the (M,) good flags."""
    if not (0.0 < delta < alpha / 4.0):
        raise ParameterError("delta must lie in (0, alpha/4)")
    if n_expected < 0:
        raise ParameterError("expected impulse count must be nonnegative")
    lead = np.asarray(tau, dtype=float)[:, :n_expected]
    deviations = np.abs(lead - alpha * np.arange(1, lead.shape[1] + 1))
    return (np.asarray(counts) == n_expected) & np.all(deviations <= delta, axis=1)


def good_set_probability_bound(horizon_index: int, alpha: float, epsilon: float,
                               p: float, delta: float, tail_constant: float | None = None) -> float:
    """Closed-form bound on the probability of leaving the good set.

    Scales like (epsilon^p/delta) * exp(-delta^2/(4*alpha*epsilon^{2p})) with
    prefactor K*T*(T+1), T = horizon_index. Conservative but explicit.
    """
    if horizon_index < 1:
        raise ParameterError("horizon index must be a positive integer")
    if not (0.0 < delta < min(1.0, alpha / 2.0)):
        raise ParameterError("delta must lie in (0, min(1, alpha/2))")
    if not (0.0 < epsilon < 1.0) or p <= 1.0:
        raise ParameterError("need epsilon in (0,1) and p > 1")
    if tail_constant is None:
        tail_constant = derived_tail_constant(alpha)
    eps_p = epsilon ** p
    t = float(horizon_index)
    return tail_constant * t * (t + 1.0) * (eps_p / delta) * math.exp(
        -delta * delta / (4.0 * alpha * eps_p * eps_p))
