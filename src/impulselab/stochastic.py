"""Euler-Maruyama simulation of the impulsive system under small noise.

The radial component gains additive noise epsilon*dW; the angular component
advances at unit speed plus sigma*epsilon^p*dB. An impulse fires at the
first grid step whose endpoint angle reaches the wedge angle alpha; the
crossing time is located by linear interpolation inside the step, the radius
is reset through h there, and the remainder of the step is advanced with a
fresh Brownian increment, so no increment is ever reused across an impulse.

Per-replica randomness comes from counter-based generators derived from a
master seed and the replica index, which makes every result reproducible and
independent of chunking or scheduling order. The expansion x + epsilon*Z is
pathwise, so one record drives a replica at every noise level: a batch can
hold several levels, drawn once and advanced together in one step loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cadlag import CadlagPath, assemble_from_grid
from .errors import ParameterError, ResolutionError, RunawayError
from .fpt import derived_tail_constant
from .system import ImpulseSchedule, SimulationGrid, SystemSpec, simulation_grid


@dataclass(frozen=True)
class NoiseParams:
    """Noise intensities: radial scale epsilon, angular scale sigma*epsilon^p.

    epsilon = 0 is accepted as the degenerate no-noise case even though the
    perturbation regime of interest is epsilon in (0, 1).
    """

    epsilon: float
    p: float
    sigma: int = 1

    def __post_init__(self):
        if not (0.0 <= self.epsilon < 1.0):
            raise ParameterError("epsilon must lie in [0, 1)", field="epsilon")
        if self.p <= 1.0:
            raise ParameterError("angular exponent p must exceed 1", field="p")
        if self.sigma not in (0, 1):
            raise ParameterError("sigma must be 0 or 1", field="sigma")

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

    times: np.ndarray
    w_increments: np.ndarray
    b_increments: np.ndarray
    aux_w: np.ndarray
    aux_b: np.ndarray

    @classmethod
    def generate(cls, grid: SimulationGrid, seed_seq: np.random.SeedSequence,
                 n_aux: int) -> "BrownianRecord":
        """Draw a record from one stream, such as :func:`replica_seed_sequence`'s."""
        if not isinstance(seed_seq, np.random.SeedSequence):
            raise ParameterError("draw records from a SeedSequence, e.g. replica_seed_sequence")
        rng = np.random.Generator(np.random.Philox(seed_seq))
        scale = np.sqrt(grid.steps)
        n = grid.steps.shape[0]
        w = rng.standard_normal(n) * scale
        b = rng.standard_normal(n) * scale
        aux_w = rng.standard_normal(n_aux)
        aux_b = rng.standard_normal(n_aux)
        return cls(times=grid.times, w_increments=w, b_increments=b,
                   aux_w=aux_w, aux_b=aux_b)


def default_impulse_cap(alpha: float, horizon: float) -> int:
    return 10 * int(math.ceil(horizon / alpha))


def _advance_batch(spec: SystemSpec, eps: np.ndarray, eps_ang: np.ndarray,
                   grid: SimulationGrid, w_inc: np.ndarray, b_inc: np.ndarray,
                   aux_w: np.ndarray, aux_b: np.ndarray, n_max: int):
    """Vectorised step loop over every replica at every noise level.

    `w_inc`/`b_inc` are the raw (n_steps, M) increments and `aux_w`/`aux_b`
    the (M, n_max) unit draws of M replicas; `eps` and `eps_ang` hold the
    radial and angular scales of E noise levels. Column ``e*M + i`` is
    replica i at level e. Each step proposes ``r + b(r)*h + eps*w[j]`` and
    ``theta + h + eps^p*b[j]`` for all E*M columns straight into row j+1 of
    the path arrays; only the columns whose proposed angle reaches alpha go
    through the impulse loop. Returns grid samples, impulse data and counts.
    """
    times, steps = grid.times, grid.steps
    n, m = w_inc.shape
    eps_col, eps_ang_col = np.repeat(eps, m), np.repeat(eps_ang, m)
    alpha = grid.alpha
    drift, reset = spec.drift, spec.reset

    c = eps.shape[0] * m
    r_path = np.empty((n + 1, c))
    th_path = np.empty((n + 1, c))
    r_path[0] = spec.r0
    th_path[0] = 0.0
    tau = np.full((c, n_max), np.nan)
    pre = np.full((c, n_max), np.nan)
    post = np.full((c, n_max), np.nan)
    counts = np.zeros(c, dtype=np.int64)

    for j in range(n):
        h = float(steps[j])
        r_now, th_now = r_path[j], th_path[j]
        r_next, th_next = r_path[j + 1], th_path[j + 1]
        np.multiply(np.asarray(drift(r_now), dtype=float), h, out=r_next)
        np.add(r_now, r_next, out=r_next)
        r_next += np.multiply.outer(eps, w_inc[j]).ravel()
        np.add(th_now, h, out=th_next)
        th_next += np.multiply.outer(eps_ang, b_inc[j]).ravel()
        cross = th_next >= alpha
        if not cross.any():
            continue
        idx = np.flatnonzero(cross)
        # Crossing columns: state at the start of the (remaining) step, its
        # proposal, and the time left in the step.
        r_state, th_state = r_now[idx], th_now[idx]
        r_prop, th_prop = r_next[idx], th_next[idx]
        rem = np.full(idx.size, h)
        t_end = float(times[j + 1])
        while True:
            frac = (alpha - th_state) / (th_prop - th_state)
            k = counts[idx]
            if np.any(k >= n_max):
                raise RunawayError(f"impulse count exceeded the cap of {n_max}")
            tau[idx, k] = t_end - rem * (1.0 - frac)
            r_pre = r_state + frac * (r_prop - r_state)
            r_state = np.asarray(reset(r_pre), dtype=float)
            th_state = np.zeros(idx.size)
            pre[idx, k] = r_pre
            post[idx, k] = r_state
            counts[idx] = k + 1
            rem = (1.0 - frac) * rem
            sq = np.sqrt(rem)
            replica = idx % m
            r_prop = r_state + np.asarray(drift(r_state), dtype=float) * rem \
                + eps_col[idx] * aux_w[replica, k] * sq
            th_prop = th_state + rem + eps_ang_col[idx] * aux_b[replica, k] * sq
            # With no time left (rem = 0) the proposal is the post-impulse
            # state itself, and its angle 0 does not cross.
            cross = th_prop >= alpha
            done = ~cross
            r_next[idx[done]] = r_prop[done]
            th_next[idx[done]] = th_prop[done]
            if not cross.any():
                break
            idx, rem = idx[cross], rem[cross]
            r_state, th_state = r_state[cross], th_state[cross]
            r_prop, th_prop = r_prop[cross], th_prop[cross]
    return r_path, th_path, tau, pre, post, counts


@dataclass(frozen=True, eq=False)
class BatchResult:
    """Vectorised simulation output with lazy per-column object views.

    A batch of M replicas at E noise levels has E*M columns: column
    ``e*M + i`` is replica ``replica_offset + i`` at level e. The stored
    radial increments are per replica, shared by all levels.
    """

    grid: SimulationGrid
    r_values: np.ndarray       # (n_steps + 1, E*M)
    theta_values: np.ndarray   # (n_steps + 1, E*M)
    tau: np.ndarray            # (E*M, n_max), nan padded
    pre: np.ndarray
    post: np.ndarray
    counts: np.ndarray         # (E*M,)
    master_seed: int
    replica_offset: int
    w_increments: np.ndarray | None = None  # (n_steps, M) when stored

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


def simulate_batch(spec: SystemSpec, noise: NoiseParams | tuple, horizon: float, dt: float,
                   master_seed: int, n_replicas: int, replica_offset: int = 0,
                   n_max: int | None = None, store_increments: bool = False) -> BatchResult:
    """Simulate replicas `replica_offset .. replica_offset + n_replicas - 1`.

    `noise` is one :class:`NoiseParams` or a tuple of noise levels. Each
    replica's record is drawn once and drives it at every level, so column
    ``e*n_replicas + i`` of the result is replica ``replica_offset + i`` at
    level e, and the stored radial increments are (n_steps, n_replicas).
    Results are a pure function of (spec, level, horizon, dt, master_seed,
    replica index); chunk boundaries and the other levels do not affect them.
    """
    levels = (noise,) if isinstance(noise, NoiseParams) else tuple(noise)
    if not levels:
        raise ParameterError("need at least one noise level")
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
    eps = np.array([lv.epsilon for lv in levels])
    eps_ang = np.array([lv.angular_scale for lv in levels])
    r_path, th_path, tau, pre, post, counts = _advance_batch(
        spec, eps, eps_ang, grid, w_inc, b_inc, aux_w, aux_b, n_max)
    return BatchResult(grid=grid, r_values=r_path, theta_values=th_path,
                       tau=tau, pre=pre, post=post, counts=counts,
                       master_seed=master_seed, replica_offset=replica_offset,
                       w_increments=w_inc if store_increments else None)


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
