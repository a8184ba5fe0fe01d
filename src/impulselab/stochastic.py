"""Euler-Maruyama simulation of the impulsive system under small noise.

The radial component gains additive noise epsilon*dW; the angular component
advances at unit speed plus sigma*epsilon^p*dB. An impulse fires at the
first grid step whose endpoint angle reaches the wedge angle alpha; the
crossing time is located by linear interpolation inside the step, the radius
is reset through h there, and the remainder of the step is advanced with a
fresh Brownian increment, so no increment is ever reused across an impulse.

Per-replica randomness comes from counter-based generators derived from a
master seed and the replica index, which makes every result reproducible and
independent of chunking or scheduling order. Blocks of replicas draw on up
to as many threads as the process may use CPUs, so a draw source must be safe
to call concurrently for disjoint replica ranges and fill only their rows; the
results do not depend on the thread count. The expansion x + epsilon*Z is
pathwise, so one record drives a replica at every noise level: a batch can
hold several levels, drawn once and advanced together in one step loop. The
radial draws are scaled into rows 1..n of the radius array of every level
before the loop starts, and each step adds the drift part to the row already
there. The angle does not depend on the radius, so a batch stores each replica's
angular increments once, with the angle at the end of each step that holds an
impulse, and rebuilds any column's angle from them on demand.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .cadlag import CadlagPath
from .errors import DataError, ParameterError
from .fpt import FptParams, fpt_tail_bound
from .system import SimulationGrid, SystemSpec, polar_path, simulation_grid


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
        if not self.p > 1.0:
            raise ParameterError("angular exponent p must exceed 1", field="p")
        if self.p == math.inf:
            raise ParameterError("angular exponent p must be finite", field="p")
        if self.sigma not in (0, 1):
            raise ParameterError("sigma must be 0 or 1", field="sigma")

    @property
    def angular_scale(self) -> float:
        return self.sigma * self.epsilon ** self.p


def _count(value, field: str) -> int:
    """`value` as a nonnegative int; numpy integers pass, floats do not."""
    try:
        count = operator.index(value)
    except TypeError:
        count = -1
    if count < 0:
        raise ParameterError(f"{field} must be a nonnegative integer, got {value!r}", field=field)
    return count


def replica_seed_sequence(master_seed: int, replica_index: int) -> np.random.SeedSequence:
    """Stream for one replica; distinct replicas get independent streams.

    This is the seed convention: every draw of the package starts here.
    """
    return np.random.SeedSequence(entropy=_count(master_seed, "master_seed"),
                                  spawn_key=(_count(replica_index, "replica_index"),))


@dataclass(frozen=True, eq=False)
class BrownianRecord:
    """Increments of the two driving Brownian motions on a simulation grid.

    `w_increments[j]` and `b_increments[j]` have variance equal to the j-th
    step length. The unit-normal aux draws supply the fresh partial-step
    increments consumed after each impulse.

    The package draws through :func:`simulate_batch`; `generate` is the
    one-stream use of its draw routine, :func:`_draw_block`. The class stays
    only because the benchmark's tracer wraps `generate` and tests use it as
    an independent draw; the ROADMAP item that mends the tracer deletes it.
    """

    times: np.ndarray
    w_increments: np.ndarray
    b_increments: np.ndarray
    aux_w: np.ndarray
    aux_b: np.ndarray

    @classmethod
    def generate(cls, grid: SimulationGrid, seed_seq: np.random.SeedSequence,
                 n_aux: int) -> "BrownianRecord":
        """Draw a record from one stream, such as :func:`replica_seed_sequence`'s.
        `n_aux` is :func:`simulate_batch`'s `n_max`: the angular aux draws
        follow `n_aux` radial ones, so a record holds its replica's bits only
        at the batch's `n_max`."""
        w, b = np.empty((2, 1, grid.steps.shape[0]))
        aux_w, aux_b = np.empty((2, 1, n_aux))
        _draw_block([seed_seq], np.sqrt(grid.steps), w, b, aux_w, aux_b)
        return cls(times=grid.times, w_increments=w[0], b_increments=b[0],
                   aux_w=aux_w[0], aux_b=aux_b[0])


def _draw_block(seqs, scale: np.ndarray, w: np.ndarray, b: np.ndarray,
                aux_w: np.ndarray, aux_b: np.ndarray) -> None:
    """Fill row k of `w`, then `b`, then `aux_w`, then `aux_b` with unit
    normals from the stream `seqs[k]`; this draw order is the seed convention.
    Then scale `w` and `b` by `scale`, the square roots of the step lengths."""
    for k, seed_seq in enumerate(seqs):
        if not isinstance(seed_seq, np.random.SeedSequence):
            raise ParameterError("draw records from a SeedSequence, e.g. replica_seed_sequence")
        rng = np.random.Generator(np.random.Philox(seed_seq))
        for out in (w[k], b[k], aux_w[k], aux_b[k]):
            rng.standard_normal(out=out)
    w *= scale
    b *= scale


_NOISE_BLOCK = 32  # replicas drawn into one reused (2, block, n_steps) buffer
# Threads that draw noise blocks at once; capped because each owns a buffer.
_WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1, 8)
_THETA_WINDOW = 16  # angle rows the step loop fills ahead from the increments


def _advance_batch(spec: SystemSpec, levels: tuple, grid: SimulationGrid, m: int,
                   n_max: int, draw, store_increments: bool) -> BatchResult:
    """Vectorised step loop over `m` replicas at every noise level in `levels`.

    Column ``e*m + i`` of the result is replica i at ``levels[e]``. Blocks of
    at most `_NOISE_BLOCK` replicas get their noise from ``draw(start, stop,
    w, b, aux_w, aux_b)``, which fills row k for replica ``start + k``:
    step-scaled increments in `w` and `b`, unit draws in the n_max aux rows.
    The blocks are dealt round-robin to up to `_WORKERS` shares: share 0 runs
    on the calling thread and each other share on a thread of its own, all
    joined before the step loop. So `draw` must be safe to call concurrently
    for disjoint ``[start, stop)`` ranges and fill only those rows. A share
    that raises stops; once every share has stopped, the exception of the
    lowest share that raised is raised again. Each level scales a share's
    reused `w` block into rows j+1 of its radius columns, and `b` is stored
    once per replica. The angle lives in a window of `_THETA_WINDOW` rows,
    scaled ahead from the stored `b`; each step then adds the drift part
    ``r + b(r)*h`` and ``theta + h`` to the row already there, and only the
    columns whose proposed angle reaches alpha go through the impulse loop.
    """
    times, steps = grid.times, grid.steps
    n, c = steps.shape[0], len(levels) * m
    eps = np.array([lv.epsilon for lv in levels])
    eps_ang = np.array([lv.angular_scale for lv in levels])
    r_path = np.empty((n + 1, c))
    b_stored = np.empty((n, m))
    aux_w, aux_b = np.empty((2, m, n_max))
    w_stored = np.empty((n, m)) if store_increments else None
    starts = range(0, m, _NOISE_BLOCK)
    workers = min(_WORKERS, len(starts))
    buffers = np.empty((workers, 2, _NOISE_BLOCK, n))
    failures = [None] * workers

    def fill(share: int) -> None:
        try:
            for start in starts[share::workers]:
                stop = min(start + _NOISE_BLOCK, m)
                w, b = buffers[share, :, : stop - start]
                draw(start, stop, w, b, aux_w[start:stop], aux_b[start:stop])
                for e in range(len(levels)):
                    np.multiply(w.T, eps[e], out=r_path[1:, e * m + start: e * m + stop])
                b_stored[:, start:stop] = b.T
                if w_stored is not None:
                    w_stored[:, start:stop] = w.T
        except BaseException as exc:  # re-raised below, once every share has stopped
            failures[share] = exc

    helpers = [threading.Thread(target=fill, args=(share,)) for share in range(1, workers)]
    for thread in helpers:
        thread.start()
    fill(0)
    for thread in helpers:
        thread.join()
    del buffers
    for exc in failures:
        if exc is not None:
            raise exc
    eps_col, eps_ang_col = np.repeat(eps, m), np.repeat(eps_ang, m)
    alpha = grid.alpha
    drift, reset = spec.drift, spec.reset

    r_path[0] = spec.r0
    window = np.empty((_THETA_WINDOW + 1, len(levels), m))
    th_rows = window.reshape(_THETA_WINDOW + 1, c)
    tau = np.full((c, n_max), np.nan)
    pre = np.full((c, n_max), np.nan)
    post = np.full((c, n_max), np.nan)
    jump_step = np.full((c, n_max), -1, dtype=np.intp)
    theta_end = np.full((c, n_max), np.nan)
    counts = np.zeros(c, dtype=np.int64)
    move = np.empty(c)
    hits = np.empty(c, dtype=bool)

    for j in range(n):
        row = j % _THETA_WINDOW
        if row == 0:
            th_rows[0] = th_rows[_THETA_WINDOW] if j else 0.0
            ahead = b_stored[j: j + _THETA_WINDOW, None, :]
            np.multiply(ahead, eps_ang[:, None], out=window[1: ahead.shape[0] + 1])
        h = float(steps[j])
        r_now, th_now = r_path[j], th_rows[row]
        r_next, th_next = r_path[j + 1], th_rows[row + 1]
        np.multiply(np.asarray(drift(r_now), dtype=float), h, out=move)
        move += r_now
        r_next += move
        np.add(th_now, h, out=move)
        th_next += move
        if not np.greater_equal(th_next, alpha, out=hits).any():
            continue
        idx = np.flatnonzero(hits)
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
                raise ParameterError(f"impulse count exceeded the cap of {n_max}")
            tau[idx, k] = t_end - rem * (1.0 - frac)
            jump_step[idx, k] = j
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
            th_next[idx[done]] = theta_end[idx[done], k[done]] = th_prop[done]
            if not cross.any():
                break
            idx, rem = idx[cross], rem[cross]
            r_state, th_state = r_state[cross], th_state[cross]
            r_prop, th_prop = r_prop[cross], th_prop[cross]
    return BatchResult(grid=grid, r_values=r_path, b_increments=b_stored, tau=tau, pre=pre,
                       post=post, counts=counts, jump_step=jump_step, theta_end=theta_end,
                       levels=levels, w_increments=w_stored)


@dataclass(frozen=True, eq=False)
class BatchResult:
    """Vectorised simulation output with lazy per-column object views.

    A batch of M replicas at the E noise levels `levels` has E*M columns:
    column ``e*M + i`` is the batch's i-th replica at ``levels[e]``, and a
    column count that does not split evenly over the levels is refused. The
    radius is stored per column. The angle is not: it is rebuilt by
    :meth:`theta_rows` from the step-scaled angular increments, stored once
    per replica and shared by all levels, and from the angle recorded at the
    end of each step that holds an impulse. The radial increments are per
    replica too, and stored only when asked for.
    """

    grid: SimulationGrid
    r_values: np.ndarray       # (n_steps + 1, E*M)
    b_increments: np.ndarray   # (n_steps, M)
    tau: np.ndarray            # (E*M, n_max), nan padded
    pre: np.ndarray
    post: np.ndarray
    counts: np.ndarray         # (E*M,)
    # Per impulse: its grid step j, the one whose (t_j, t_j+1] holds it, -1
    # padded; and the angle at that step's end, set on the step's last
    # impulse and nan on an impulse that another follows in the same step.
    jump_step: np.ndarray      # (E*M, n_max)
    theta_end: np.ndarray      # (E*M, n_max)
    levels: tuple              # (E,) NoiseParams
    w_increments: np.ndarray | None = None  # (n_steps, M) when stored

    def __post_init__(self):
        if not self.levels or len(self) % len(self.levels):
            raise DataError("the columns must split evenly over the noise levels")

    def __len__(self) -> int:
        return self.counts.shape[0]

    def impulse_times(self, i: int) -> np.ndarray:
        return self.tau[i, : self.counts[i]]

    def theta_rows(self, columns) -> np.ndarray:
        """Grid samples of the angle of the given columns, one row each:
        (len(columns), n_steps + 1).

        The step loop's arithmetic, theta_j+1 = (theta_j + h_j) + s_j with
        s_j = epsilon^p * b_j, run as one running sum over the sequence 0,
        h_0, s_0, h_1, s_1, ... that restarts at the angle recorded at the end
        of each step that holds an impulse; so the rows are bitwise the loop's.
        """
        columns = np.asarray(columns, dtype=np.intp)
        steps = self.grid.steps
        n, m = self.b_increments.shape
        scales = np.array([level.angular_scale for level in self.levels])
        seq = np.empty((columns.shape[0], 2 * n + 1))
        seq[:, 0] = 0.0
        seq[:, 1::2] = steps
        np.multiply(self.b_increments[:, columns % m].T, scales[columns // m, None],
                    out=seq[:, 2::2])
        for out, col in zip(seq, columns.tolist()):
            count = int(self.counts[col])
            lo = 0
            # A step's later impulse writes over its earlier one's nan.
            for j, theta in zip(self.jump_step[col, :count].tolist(),
                                self.theta_end[col, :count].tolist()):
                np.add.accumulate(out[lo: 2 * j + 2], out=out[lo: 2 * j + 2])
                lo = 2 * j + 2
                out[lo] = theta
            np.add.accumulate(out[lo:], out=out[lo:])
        return np.ascontiguousarray(seq[:, ::2])

    def path(self, i: int) -> CadlagPath:
        c = int(self.counts[i])
        return polar_path(self.grid, self.r_values[:, i], self.theta_rows([i])[0],
                          self.tau[i, :c], self.pre[i, :c], self.post[i, :c])


def simulate_batch(spec: SystemSpec, noise: NoiseParams | tuple, horizon: float, dt: float,
                   master_seed: int, n_replicas: int, replica_offset: int = 0,
                   n_max: int | None = None, store_increments: bool = False) -> BatchResult:
    """Simulate replicas `replica_offset .. replica_offset + n_replicas - 1`.

    `noise` is one :class:`NoiseParams` or a tuple of noise levels, which
    the result records as its `levels`. Replica i draws once, from
    ``replica_seed_sequence(master_seed, replica_offset + i)``, and that draw
    drives it at every level: column ``e*n_replicas + i`` of the result is it
    at ``levels[e]``. The result always holds the radius of every column, the
    impulse data and the (n_steps, n_replicas) angular increments, from which
    :meth:`BatchResult.theta_rows` rebuilds any column's angle;
    `store_increments` adds the (n_steps, n_replicas) radial increments.
    Results are a pure function of (spec, level, horizon, dt, master_seed,
    replica index, n_max); chunk boundaries, the other levels and the
    number of threads that draw do not affect them. `n_max` caps a replica's
    impulses; by default it is ten times the noiseless count. It is part of
    the seed convention: the angular post-impulse draws follow `n_max` radial
    ones, so another `n_max` changes a replica's path from the step of its
    first impulse on. The seeds are checked before anything is drawn.
    """
    levels = tuple(noise) if isinstance(noise, (tuple, list)) else (noise,)
    if not all(isinstance(level, NoiseParams) for level in levels):
        raise ParameterError(f"noise must be NoiseParams or a tuple of them, got {noise!r}",
                             field="noise")
    if not levels:
        raise ParameterError("need at least one noise level")
    master_seed = _count(master_seed, "master_seed")
    replica_offset = _count(replica_offset, "replica_offset")
    if _count(n_replicas, "n_replicas") < 1:
        raise ParameterError("need at least one replica", field="n_replicas")
    if dt > spec.alpha / 200.0:
        raise ParameterError("stochastic step size must not exceed alpha/200")
    grid = simulation_grid(spec.alpha, horizon, dt)
    n_max = 10 * int(math.ceil(horizon / spec.alpha)) if n_max is None else _count(n_max, "n_max")
    scale = np.sqrt(grid.steps)

    def replica_streams(start, stop, *blocks):
        _draw_block([replica_seed_sequence(master_seed, replica_offset + i)
                     for i in range(start, stop)], scale, *blocks)
    return _advance_batch(spec, levels, grid, n_replicas, n_max, replica_streams,
                          store_increments)


@dataclass(frozen=True)
class GoodSetRecord:
    """Outcome of the impulse-alignment test for one replica."""

    is_good: bool


def classify_good_set(times: np.ndarray, alpha: float, n_expected: int,
                      delta: float) -> GoodSetRecord:
    """Good means exactly n_expected impulse `times`, each within delta of k*alpha."""
    times = np.asarray(times, dtype=float)
    return GoodSetRecord(is_good=bool(good_set_mask(times[None, :], np.array([times.shape[0]]),
                                                    alpha, n_expected, delta)[0]))


def good_set_mask(tau: np.ndarray, counts: np.ndarray, alpha: float, n_expected: int,
                  delta) -> np.ndarray:
    """:func:`classify_good_set` for a batch: `tau` is (M, n_max), valid up to
    `counts`, as in :class:`BatchResult`, and `delta` one threshold or an (M,)
    array of them, one per row. Returns the (M,) good flags."""
    tau, counts = np.asarray(tau, dtype=float), np.asarray(counts)
    delta = np.reshape(np.asarray(delta, dtype=float), (-1, 1))
    if counts.shape != tau.shape[:1]:
        raise ParameterError(f"counts needs {tau.shape[0]} entries, got shape {counts.shape}")
    if delta.shape[0] not in (1, tau.shape[0]):
        raise ParameterError(f"delta needs 1 or {tau.shape[0]} entries, got {delta.shape[0]}")
    if not np.all((0.0 < delta) & (delta < alpha / 4.0)):
        raise ParameterError("delta must lie in (0, alpha/4)")
    lead = tau[:, :_count(n_expected, "n_expected")]
    deviations = np.abs(lead - alpha * np.arange(1, lead.shape[1] + 1))
    return (counts == n_expected) & np.all(deviations <= delta, axis=1)


def good_set_probability_bound(horizon_index: int, alpha: float, epsilon: float,
                               p: float, delta: float) -> float:
    """Closed-form bound on the probability of leaving the good set.

    T*(T+1) times :func:`fpt_tail_bound` at the angular noise scale epsilon^p,
    T = horizon_index; the tail bound checks alpha and delta.
    """
    if _count(horizon_index, "horizon_index") < 1:
        raise ParameterError("horizon index must be a positive integer", field="horizon_index")
    p_ok = 1.0 < p < math.inf
    if not (0.0 < epsilon < 1.0 and p_ok):
        raise ParameterError("need epsilon in (0,1) and p > 1", field="epsilon" if p_ok else "p")
    t = float(horizon_index)
    return t * (t + 1.0) * fpt_tail_bound(FptParams(alpha=alpha, eps_p=epsilon ** p), delta)
