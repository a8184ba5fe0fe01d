"""Right-continuous piecewise paths and Skorohod-type distances.

A path on [0, T] is stored as contiguous segments. Within a segment the path
is continuous (sampled values, linearly interpolated); segment boundaries
after the first are the jump times, where the path is right-continuous with a
finite left limit. Distances between two paths are evaluated against a time
distortion lambda: the reported value is

    max( sup_{s<t} |log((lambda(t)-lambda(s))/(t-s))| ,
         sup_t |x1(t) - x2(lambda(t))| )

which upper-bounds the Skorohod J1 distance for any admissible lambda. For a
piecewise-linear lambda the first term equals the max over knot intervals of
|log slope|, because every chord slope is a convex combination of segment
slopes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError, ParameterError
from ._text import format_float, open_dest

_REL_TOL = 1e-9
# Distortions one skorohod_oracle call may try; each costs about 1.4 ms on two
# 3-jump paths at dt = 0.005.
_ORACLE_BUDGET = 10_000


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=float)
    out.setflags(write=False)
    return out


class Segment(NamedTuple):
    times: np.ndarray   # (m,), strictly increasing
    values: np.ndarray  # (m, d)


class CadlagPath:
    """Piecewise-continuous path on [0, T], T its last sample time, with
    jumps at the starts of its segments after the first."""

    def __init__(self, segments: Sequence[tuple]):
        segs = []
        for times, values in segments:
            t = _readonly(np.atleast_1d(times))
            v = np.asarray(values, dtype=float)
            if v.ndim == 1:
                v = v[:, None]
            v = _readonly(v)
            if t.shape[0] != v.shape[0]:
                raise DataError("segment times and values disagree in length")
            if t.shape[0] >= 2 and not np.all(np.diff(t) > 0):
                raise DataError("segment times must be strictly increasing")
            if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
                raise DataError("path samples must be finite")
            segs.append(Segment(t, v))
        if not segs:
            raise DataError("a path needs at least one segment")
        dim = segs[0].values.shape[1]
        if any(s.values.shape[1] != dim for s in segs):
            raise DataError("segments disagree on state dimension")
        starts = np.array([s.times[0] for s in segs])
        if starts[0] != 0.0:
            raise DataError("first segment must start at time 0")
        if any(a.times[-1] != b.times[0] for a, b in zip(segs, segs[1:])):
            raise DataError("segments must tile [0, T] without gaps")
        if any(s.times.shape[0] < 2 for s in segs[:-1]):
            raise DataError("only the terminal segment may be a single point")
        if not segs[-1].times[-1] > 0.0:
            raise DataError("a path must end after time 0")
        self.horizon = float(segs[-1].times[-1])
        self.dim = dim
        self.segments = tuple(segs)
        self.jump_times = _readonly(starts[1:])
        self._starts = _readonly(starts)
        self._sample_times = None

    def sample_times(self) -> np.ndarray:
        """All sample times, concatenated across segments (with duplicates at jumps)."""
        if self._sample_times is None:
            self._sample_times = _readonly(
                np.concatenate([s.times for s in self.segments])
            )
        return self._sample_times

    def values_at(self, t, side: str = "right") -> np.ndarray:
        """Evaluate the path at times t; side='left' gives left limits at jumps."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if side == "right":
            idx = np.searchsorted(self._starts, t, side="right") - 1
        elif side == "left":
            idx = np.searchsorted(self._starts, t, side="left") - 1
        else:
            raise ParameterError("side must be 'right' or 'left'")
        idx = np.clip(idx, 0, len(self.segments) - 1)
        out = np.empty((t.shape[0], self.dim))
        for k, seg in enumerate(self.segments):
            mask = idx == k
            if not mask.any():
                continue
            tq = t[mask]
            for c in range(self.dim):
                out[mask, c] = np.interp(tq, seg.times, seg.values[:, c])
        return out

    def value_at(self, t: float, side: str = "right") -> np.ndarray:
        return self.values_at(np.array([t]), side=side)[0]


def assemble_from_grid(times, values, jump_times, pre_states, post_states) -> CadlagPath:
    """Build a path from grid samples plus per-jump left/right states.

    `values[j]` is the (d,) state at `times[j]` (already post-reset if a jump
    lands exactly on a grid time). Jumps strictly inside a step get the
    interpolated pre state as the closing sample of one segment and the post
    state opening the next.
    """
    segments = []
    start_t = times[0]
    start_v = values[0]
    for k in range(jump_times.shape[0]):
        tau = jump_times[k]
        inner = (times > start_t) & (times < tau)
        seg_t = np.concatenate([[start_t], times[inner], [tau]])
        seg_v = np.vstack([start_v[None, :], values[inner], pre_states[k][None, :]])
        segments.append((seg_t, seg_v))
        start_t = tau
        start_v = post_states[k]
    inner = times > start_t
    seg_t = np.concatenate([[start_t], times[inner]])
    seg_v = np.vstack([start_v[None, :], values[inner]])
    segments.append((seg_t, seg_v))
    return CadlagPath(segments)


@dataclass(frozen=True, eq=False)
class TimeDistortion:
    """Piecewise-linear increasing bijection of [0, T], T its last knot time."""

    knot_times: np.ndarray
    knot_values: np.ndarray
    horizon: float = field(init=False)

    def __post_init__(self):
        kt = np.atleast_1d(np.asarray(self.knot_times, dtype=float))
        kv = np.atleast_1d(np.asarray(self.knot_values, dtype=float))
        if kt.shape != kv.shape or kt.shape[0] < 2:
            raise DataError("need matching knot arrays with >= 2 knots")
        horizon = float(kt[-1])
        tol = _REL_TOL * max(1.0, horizon)
        if abs(kt[0]) > tol or abs(kv[0]) > tol:
            raise DataError("distortion must fix time 0")
        if abs(kv[-1] - horizon) > tol:
            raise DataError("distortion must fix the horizon")
        if not (np.all(np.diff(kt) > 0) and np.all(np.diff(kv) > 0)):
            raise DataError("knot times and images must strictly increase")
        kt, kv = kt.copy(), kv.copy()
        kt[0] = kv[0] = 0.0
        kv[-1] = horizon
        object.__setattr__(self, "knot_times", _readonly(kt))
        object.__setattr__(self, "knot_values", _readonly(kv))
        object.__setattr__(self, "horizon", horizon)

    @classmethod
    def identity(cls, horizon: float) -> "TimeDistortion":
        return cls(np.array([0.0, horizon]), np.array([0.0, horizon]))

    def apply(self, t) -> np.ndarray:
        return np.interp(t, self.knot_times, self.knot_values)

    def inverse(self, s) -> np.ndarray:
        return np.interp(s, self.knot_values, self.knot_times)

    def slopes(self) -> np.ndarray:
        return np.diff(self.knot_values) / np.diff(self.knot_times)


def distortion_cost(distortion: TimeDistortion) -> float:
    """Max over knot intervals of |log slope|; zero exactly for the identity."""
    return float(np.max(np.abs(np.log(distortion.slopes()))))


def _check_compatible(x1: CadlagPath, x2: CadlagPath) -> None:
    if abs(x1.horizon - x2.horizon) > _REL_TOL * max(1.0, x1.horizon):
        raise DataError("paths must share the same horizon")
    if x1.dim != x2.dim:
        raise DataError("paths must share the same state dimension")


def skorohod_upper(x1: CadlagPath, x2: CadlagPath, distortion: TimeDistortion) -> float:
    """Distance upper bound max(distortion cost, sup_t |x1(t) - x2(lambda(t))|).

    The sup is exact for these piecewise-linear paths: it is attained at a
    breakpoint of t -> (x1(t), x2(lambda(t))) from one side, and both one-sided
    limits at every breakpoint are inspected.
    """
    _check_compatible(x1, x2)
    if abs(distortion.horizon - x1.horizon) > _REL_TOL * max(1.0, x1.horizon):
        raise DataError("distortion horizon must match the paths")
    gamma = distortion_cost(distortion)
    ts = np.unique(
        np.concatenate(
            [
                x1.sample_times(),
                distortion.inverse(x2.sample_times()),
                distortion.knot_times,
            ]
        )
    )
    ts = ts[(ts >= 0.0) & (ts <= x1.horizon)]
    lam_ts = distortion.apply(ts)
    sup = 0.0
    for side in ("right", "left"):
        diff = x1.values_at(ts, side) - x2.values_at(lam_ts, side)
        sup = max(sup, float(np.max(np.sqrt(np.sum(diff * diff, axis=1)))))
    return max(gamma, sup)


def uniform_distance(x1: CadlagPath, x2: CadlagPath) -> float:
    """Sup-norm distance, i.e. the upper bound under the identity distortion."""
    return skorohod_upper(x1, x2, TimeDistortion.identity(x1.horizon))


def build_aligning_distortion(det_times, stoch_times, horizon: float, good: bool) -> TimeDistortion:
    """Distortion sending each deterministic impulse time to its noisy twin.

    Knots are (0,0), (k*alpha, tau_k) for k = 1..N, (T, T). With good=False the
    identity is returned regardless of the impulse times.
    """
    if not good:
        return TimeDistortion.identity(horizon)
    det_times = np.atleast_1d(np.asarray(det_times, dtype=float))
    stoch_times = np.atleast_1d(np.asarray(stoch_times, dtype=float))
    if det_times.shape != stoch_times.shape:
        raise DataError("need one noisy impulse time per deterministic one")
    n = det_times.shape[0]
    if n == 0:
        return TimeDistortion.identity(horizon)
    alpha = det_times[0]
    if alpha <= 0:
        raise DataError("deterministic impulse times must be positive")
    expected = alpha * np.arange(1, n + 1)
    if np.max(np.abs(det_times - expected)) > _REL_TOL * alpha * n:
        raise DataError("deterministic impulse times must be k*alpha")
    if not (n * alpha < horizon < (n + 1) * alpha):
        raise DataError("horizon must lie strictly between impulse counts")
    if np.any(np.diff(stoch_times) <= 0) or stoch_times[0] <= 0:
        raise DataError("noisy impulse times must be strictly increasing and positive")
    if stoch_times[-1] >= horizon:
        raise DataError("last noisy impulse time must precede the horizon")
    if np.max(np.abs(stoch_times - expected)) >= alpha / 4:
        raise DataError("impulse deviations must stay below alpha/4")
    kt = np.concatenate([[0.0], det_times, [horizon]])
    kv = np.concatenate([[0.0], stoch_times, [horizon]])
    return TimeDistortion(kt, kv)


# Query points scored at once by batch_skorohod_upper. About fifteen float
# arrays of this length are alive per block, so a block's temporaries stay
# near 4 MB whatever the replica count.
_POINT_BUDGET = 1 << 15
_NO_JUMPS = np.empty(0, dtype=np.intp)


def _grid_steps(start, steps, jump_index=_NO_JUMPS, pre=0.0):
    """Start value and slope of every grid step of a path jumping at grid
    indices `jump_index`: the grid samples `start` hold the post-jump values
    at the jumps, and the pre-jump value `pre` ends the step before each. The
    extra last entry is the horizon sample with slope 0, so index j serves
    every t in [times[j], times[j+1]) and t = T."""
    end = start[..., 1:]
    if jump_index.size:
        end = end.copy()
        end[..., jump_index - 1] = pre
    slope = np.zeros_like(start)
    np.divide(end - start[..., :-1], steps, out=slope[..., :-1])
    return start, slope


class _Grid:
    """The shared grid, the deterministic path on it and the lookup tables,
    built once per kernel call.

    `locate(t)` is ``np.searchsorted(times, t, side="right") - 1`` by
    arithmetic. The bucket int(t * scale), clipped to the table, is monotone
    in t, so grid points in lower buckets lie below t and those in higher
    buckets above it. The index is then `lo[b]`, the last point below the
    bucket, plus the number of the bucket's own points that do not exceed t,
    counted in as many rounds as the fullest bucket has points. That is exact
    for any increasing `times` with a positive last entry; on a grid at a
    regular step a bucket holds one or two points.
    """

    def __init__(self, det):
        grid = det.grid
        times, jump_index, alpha = grid.times, grid.boundary_indices, grid.alpha
        n = times.shape[0]
        self.times, self.alpha, self.steps = times, alpha, grid.steps
        self.last = n - 1
        self.scale = self.last / times[-1]
        buckets = self._bucket(times)
        self.lo = np.searchsorted(buckets, np.arange(n)) - 1
        rounds = np.bincount(buckets).max()
        padded = np.concatenate([[-np.inf], times, np.full(rounds, np.inf)])
        # after[k - 1][b]: the k-th grid point after lo[b], or +inf.
        self.after = [padded[self.lo + k + 1] for k in range(1, rounds + 1)]
        self.knots = np.concatenate([[0.0], times[jump_index], [times[-1]]])
        self.jump_index = jump_index
        self.jump_order = np.full(n, -1)
        self.jump_order[jump_index] = np.arange(jump_index.shape[0])
        r, pre = det.r_values, det.pre_radii
        self.det = (*_grid_steps(r, self.steps, jump_index, pre), pre)
        self.theta = _grid_steps(det.theta_values, self.steps, jump_index, alpha)

    def _bucket(self, t):
        b = (t * self.scale).astype(np.intp)
        return np.clip(b, 0, self.last, out=b)

    def locate(self, t):
        """Index of the last grid point at or below each t."""
        b = self._bucket(t)
        j = self.lo.take(b)
        for after in self.after:
            j += after.take(b) <= t
        return j

    def first_order(self, trace, levels, columns, per_level):
        """Grid step starts and slopes and pre-jump radii of det + epsilon *
        trace for the given columns; column c reads trace column c mod
        per_level at level levels[c // per_level]."""
        eps = levels[columns // per_level, None]
        values, pre = (a[:, columns % per_level].T for a in trace)
        det_r, _, det_pre = self.det
        fo_pre = det_pre + eps * pre
        start = np.add(det_r, eps * values, order="C")
        return (*_grid_steps(start, self.steps, self.jump_index, fo_pre), fo_pre)


class _ReplicaBlock:
    """A block of noisy replicas and their distortions as flat arrays.

    Every table it reads has one row per replica; a first path shared by all
    rows, the deterministic one, comes as read-only broadcast views.
    Values are computed with np.interp's arithmetic (slope * (x - x_j) + y_j,
    y_j exactly at a knot), which makes every distance bitwise equal to
    skorohod_upper on the path objects.
    """

    def __init__(self, grid, r, theta, tau, pre, post, counts, good):
        self.grid, self.good = grid, good
        knots = grid.knots
        size, n_points = r.shape
        self.offsets = (np.arange(size) * n_points)[:, None]
        self.knot_offsets = (np.arange(size) * knots.shape[0])[:, None]
        self.r = _grid_steps(r, grid.steps)
        self.theta = _grid_steps(theta, grid.steps)
        # Good rows map the deterministic jump times onto their noisy twins;
        # the others keep the identity, whose arithmetic is exact.
        self.kt = np.tile(knots, (size, 1))
        self.kv = kv = self.kt.copy()
        kv[good, 1:-1] = tau[good, : knots.shape[0] - 2]
        forward = np.diff(kv, axis=1) / np.diff(knots)
        self.cost = np.max(np.abs(np.log(forward)), axis=1)
        self.forward = np.pad(forward, ((0, 0), (0, 1)))
        self.backward = np.pad(np.diff(knots) / np.diff(kv, axis=1), ((0, 0), (0, 1)))
        width = max(int(counts.max(initial=0)), 1)
        self.tau, self.pre, self.post = tau[:, :width], pre[:, :width], post[:, :width]
        self.counts = counts
        # Steps whose closed span [t_j, t_j+1] holds a noisy jump: only there
        # do the grid samples not describe the noisy path.
        rows, cols = np.nonzero(np.arange(width) < counts[:, None])
        jumps = self.tau[rows, cols]
        step = grid.locate(jumps)
        self.flag = np.zeros((size, n_points), dtype=bool)
        self.flag[rows, step] = True
        on_grid = (grid.times[step] == jumps) & (step > 0)
        self.flag[rows[on_grid], step[on_grid] - 1] = True

    def _map(self, x, xs, ys, slopes):
        """The piecewise-linear map through the knots (xs, ys) of each row,
        with `slopes` on the knot intervals, at x inside [0, T]; the identity
        on rows that are not good."""
        j = np.zeros(np.broadcast_shapes(np.shape(x), (xs.shape[0], 1)), dtype=np.intp)
        for c in range(1, xs.shape[1]):
            j += x >= xs[:, c:c + 1]
        flat = self.knot_offsets + j
        y = slopes.take(flat) * (x - xs.take(flat)) + ys.take(flat)
        return np.where(self.good[:, None], y, x)

    def lam(self, t):
        """lambda(t) row by row."""
        return self._map(t, self.kt, self.kv, self.forward)

    def lam_inv(self, s):
        """lambda^{-1}(s) row by row."""
        return self._map(s, self.kv, self.kt, self.backward)

    def noisy_at(self, u):
        """Right values of the noisy paths at u, plus the flat indices where u
        is a noisy jump time and the radius just before that jump."""
        times = self.grid.times
        j = self.grid.locate(u)
        flat = self.offsets + j
        du = u - times[j]
        (r0, r_slope), (th0, th_slope) = self.r, self.theta
        r = r_slope.take(flat) * du + r0.take(flat)
        th = th_slope.take(flat) * du + th0.take(flat)
        fix = np.flatnonzero(self.flag.take(flat))
        # Queries in a step that holds a jump: interpolate between the knots
        # of the segment they fall in, as CadlagPath does.
        row = fix // u.shape[1]
        uq, jq = u.ravel()[fix], j.ravel()[fix]
        taus, cnt = self.tau[row], self.counts[row]
        k = np.count_nonzero((np.arange(taus.shape[1]) < cnt[:, None]) & (taus <= uq[:, None]),
                             axis=1)
        col = np.arange(fix.shape[0])
        prev, nxt = np.maximum(k - 1, 0), np.minimum(k, taus.shape[1] - 1)
        start = np.where(k > 0, taus[col, prev], -np.inf)
        end = np.where(k < cnt, taus[col, nxt], np.inf)
        j_next = np.minimum(jq + 1, times.shape[0] - 1)
        from_jump = start >= times[jq]
        to_jump = end <= times[j_next]
        t_left = np.where(from_jump, start, times[jq])
        t_right = np.where(to_jump, end, times[j_next])
        left, right = flat.ravel()[fix], flat.ravel()[fix] - jq + j_next
        with np.errstate(divide="ignore", invalid="ignore"):
            for values, (samples, _), at_start, at_end in (
                    (r, self.r, self.post[row, prev], self.pre[row, nxt]),
                    (th, self.theta, 0.0, self.grid.alpha)):
                y_left = np.where(from_jump, at_start, samples.take(left))
                y_right = np.where(to_jump, at_end, samples.take(right))
                slope = (y_right - y_left) / (t_right - t_left)
                values.ravel()[fix] = np.where(uq == t_left, y_left,
                                               slope * (uq - t_left) + y_left)
        at_jump = (k > 0) & (uq == start)
        return r, th, fix[at_jump], self.pre[row, prev][at_jump]

    def first_at(self, t, firsts):
        """Right values of the first paths, row by row, and the angle at t,
        of shape (rows, k), plus the flat indices where t is a deterministic
        jump time and the order of that jump."""
        grid = self.grid
        (th0, th_slope), jump_order = grid.theta, grid.jump_order
        j1 = grid.locate(t)
        d1 = t - grid.times[j1]
        th1 = th_slope[j1] * d1 + th0[j1]
        idx = self.offsets + j1
        r1 = [slope.take(idx) * d1 + start.take(idx) for start, slope, _ in firsts]
        on_grid = np.flatnonzero(d1 == 0)
        order = jump_order[j1.ravel()[on_grid]]
        return r1, th1, on_grid[order >= 0], order[order >= 0]

    def scan(self, t, firsts, sup2):
        """Fold sup |x1(t) - x2(lambda(t))|^2 over one query set into the
        rows of `sup2`, one per first path (grid step starts, slopes and
        pre-jump radii, by row). The kernel's two sets are the grid itself,
        t=None, and a (rows, k) array of lambda^-1(grid ∪ tau)."""
        grid = self.grid
        if t is None:
            t = grid.times
            width = t.shape[0]
            r1 = [start for start, _, _ in firsts]
            th1 = np.broadcast_to(grid.theta[0], (self.good.shape[0], width))
            jumps1 = (self.offsets + grid.jump_index).ravel()
            order1 = np.tile(grid.jump_order[grid.jump_index], self.good.shape[0])
        else:
            width = t.shape[1]
            r1, th1, jumps1, order1 = self.first_at(t, firsts)
        r2, th2, jumps2, pre2 = self.noisy_at(self.lam(t))
        dth = th1 - th2
        dth2 = dth * dth
        for s2, r in zip(sup2, r1):
            dr = r - r2
            np.maximum(s2, np.max(dr * dr + dth2, axis=1), out=s2)
        # Left limits differ from right values only at jump points.
        points = np.union1d(jumps1, jumps2)
        row = points // width
        at1 = np.searchsorted(points, jumps1)
        at2 = np.searchsorted(points, jumps2)
        th1_left = th1.flat[points]
        th1_left[at1] = grid.alpha
        r2_left = r2.ravel()[points]
        r2_left[at2] = pre2
        th2_left = th2.ravel()[points]
        th2_left[at2] = grid.alpha
        dth = th1_left - th2_left
        for s2, r, (_, _, pre1) in zip(sup2, r1, firsts):
            r1_left = r.flat[points]
            r1_left[at1] = pre1[row[at1], order1]
            dr = r1_left - r2_left
            np.maximum.at(s2, row, dr * dr + dth * dth)


def batch_skorohod_upper(det, batch, good, trace=None):
    """:func:`skorohod_upper` for every column of a ``BatchResult``.

    `det` is the ``DeterministicSolution`` and `batch` the ``BatchResult``
    scored against it; both live on one grid, whose jump indices and wedge
    angle are read from ``det.grid``. With M replicas, column ``e * M + i``
    of the batch is replica i at the noise level ``batch.levels[e]`` it was
    simulated at. Column c is compared under the aligning distortion through
    the deterministic jump times and ``batch.tau[c]`` when `good[c]`, else
    under the identity.

    Returns ``(cost, sup)``: `cost` is the (C,) cost of each column's
    distortion, and `sup` the (F, C) sup terms, row 0 against the
    deterministic path and, with a trace, row 1 against the first-order path
    ``det + batch.levels[e].epsilon * trace[:, i]`` in the radius, where
    ``trace = (values, pre)`` is the output of ``fluctuation_trace``
    for the M replicas. ``np.maximum(cost, sup[f])`` equals ``skorohod_upper``
    on the corresponding path objects, because the sup runs over the same
    points, with right values everywhere and left limits at the jump points.
    Each block of columns is scored over two query sets: the grid, which holds
    the knots, then λ⁻¹ of the noisy path's breakpoints, grid ∪ tau.
    """
    times = det.grid.times
    if not np.array_equal(batch.grid.times, times):
        raise DataError("batch and deterministic path live on different grids")
    tau, counts, m = batch.tau, batch.counts, len(batch)
    levels = np.array([level.epsilon for level in batch.levels])
    per_level = m // levels.shape[0]
    n_points, n_jumps = times.shape[0], det.grid.n_impulses
    good = np.asarray(good)
    if good.dtype != bool or good.shape != (m,):
        raise DataError(f"good must be a ({m},) bool array")
    want = [(n_points, per_level), (n_jumps, per_level)]
    if trace is not None and [np.shape(a) for a in trace] != want:
        raise DataError(f"trace arrays must have the shapes {want}")
    if good.any():
        legs = np.diff(tau[good, :n_jumps], axis=1, prepend=0.0, append=times[-1])
        if np.any(counts[good] != n_jumps) or not np.all(legs > 0):
            raise DataError("a good replica needs one increasing impulse time per "
                            "deterministic jump, inside (0, T)")
    grid = _Grid(det)
    cost, sup = np.empty(m), np.zeros((1 if trace is None else 2, m))
    size = max(1, _POINT_BUDGET // n_points)
    for lo in range(0, m, size):
        rows = slice(lo, min(m, lo + size))
        block = _ReplicaBlock(grid, np.ascontiguousarray(batch.r_values[:, rows].T),
                              np.ascontiguousarray(batch.theta_values[:, rows].T), tau[rows],
                              batch.pre[rows], batch.post[rows], counts[rows], good[rows])
        firsts = [[np.broadcast_to(a, (rows.stop - lo, a.shape[0])) for a in grid.det]]
        if trace is not None:
            firsts.append(grid.first_order(trace, levels, np.arange(lo, rows.stop), per_level))
        # Unused impulse slots query t = 0.
        valid = np.arange(block.tau.shape[1]) < block.counts[:, None]
        sup2 = sup[:, rows]
        block.scan(None, firsts, sup2)
        block.scan(block.lam_inv(np.concatenate(
            [np.broadcast_to(times, (valid.shape[0], n_points)), np.where(valid, block.tau, 0.0)],
            axis=1)), firsts, sup2)
        cost[rows] = block.cost
    return cost, np.sqrt(sup, out=sup)


def _aligning_inputs(delta: float, alpha: float, horizon: float) -> None:
    for name, value in (("delta", delta), ("alpha", alpha), ("horizon", horizon)):
        if not 0.0 < value < math.inf:
            raise ParameterError(f"{name} must be positive and finite, got {value!r}", field=name)


def aligning_cost_bound(delta: float, alpha: float, horizon: float) -> float:
    """Bound 4*T*delta/alpha on the cost of an aligning distortion.

    Valid when deviations are at most delta < alpha/(4T) and the final leg
    T - N*alpha is not shorter than max(2*delta, alpha/(2T)).
    """
    _aligning_inputs(delta, alpha, horizon)
    return 4.0 * horizon * delta / alpha


def aligning_slope_deviation_bound(delta: float, alpha: float, horizon: float) -> float:
    """Bound on |slope - 1| over an aligning distortion with deviations <= delta.

    Interior slopes deviate by at most 2*delta/alpha, the final leg by at most
    delta/(T - floor(T/alpha)*alpha); the sup over the whole distortion is the
    larger of the two.
    """
    _aligning_inputs(delta, alpha, horizon)
    if not math.isfinite(horizon / alpha):
        raise ParameterError(f"horizon/alpha must be finite, got {horizon!r}/{alpha!r}")
    n = int(np.floor(horizon / alpha + 1e-12))
    tail = horizon - n * alpha
    if tail <= 0:
        raise ParameterError("horizon must not be a multiple of alpha")
    return max(2.0 * delta / alpha, delta / tail)


def skorohod_oracle(x1: CadlagPath, x2: CadlagPath, resolution: int = 16) -> float:
    """Brute-force minimisation of the distance upper bound on small instances.

    Candidate distortions put knots at the jump times of x1; knot images sweep
    a dyadic grid around the jump times of x2 (so the result is nonincreasing
    in `resolution`). Always at least as large as the true infimum, and the
    identity is always among the candidates.
    """
    _check_compatible(x1, x2)
    if resolution < 8:
        raise ParameterError("resolution must be at least 8")
    if len(x1.jump_times) > 4 or len(x2.jump_times) > 4:
        raise DataError("oracle handles at most 4 jumps per path")
    horizon = x1.horizon
    best = skorohod_upper(x1, x2, TimeDistortion.identity(horizon))
    knots = x1.jump_times
    if knots.shape[0] == 0:
        return best
    targets = x2.jump_times if x2.jump_times.shape[0] else knots
    r_eff = 1 << (int(resolution).bit_length() - 1)
    # An offset grid that the exact check below would refuse is refused
    # before it is allocated; so is one whose offsets would collapse after
    # rounding into fewer candidates.
    if math.comb(targets.shape[0] * (2 * r_eff + 1), knots.shape[0]) > _ORACLE_BUDGET:
        raise DataError(f"oracle would try more than {_ORACLE_BUDGET} distortions")
    anchors = np.unique(np.concatenate([[0.0], targets, [horizon]]))
    width = float(np.min(np.diff(anchors))) / 2.0
    offsets = width * np.arange(-r_eff, r_eff + 1) / r_eff
    cands = np.unique(
        np.concatenate([targets[:, None] + offsets[None, :], knots[:, None]], axis=None)
    )
    cands = cands[(cands > _REL_TOL) & (cands < horizon - _REL_TOL)]
    if math.comb(cands.shape[0], knots.shape[0]) > _ORACLE_BUDGET:
        raise DataError(f"oracle would try more than {_ORACLE_BUDGET} distortions")
    for images in itertools.combinations(cands, knots.shape[0]):
        kt = np.concatenate([[0.0], knots, [horizon]])
        kv = np.concatenate([[0.0], np.asarray(images), [horizon]])
        lam = TimeDistortion(kt, kv)
        best = min(best, skorohod_upper(x1, x2, lam))
    return best


def write_path_csv(path: CadlagPath, destination) -> None:
    """Emit a path as CSV: jump-time header, then (segment_index, t, values)."""
    with open_dest(destination) as fh:
        header = ",".join(["jump_times"] + [format_float(t) for t in path.jump_times])
        fh.write(header + "\n")
        cols = ",".join(f"value_{c + 1}" for c in range(path.dim))
        fh.write(f"segment_index,t,{cols}\n")
        for k, seg in enumerate(path.segments):
            for j in range(seg.times.shape[0]):
                vals = ",".join(format_float(v) for v in seg.values[j])
                fh.write(f"{k},{format_float(seg.times[j])},{vals}\n")


def read_path_csv(source) -> CadlagPath:
    """Inverse of :func:`write_path_csv`; round-trips samples exactly.

    A file that is not such a CSV raises :class:`DataError`, naming the line
    at fault where there is one."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    if (len(lines) < 2 or not lines[0].startswith("jump_times")
            or not lines[1].startswith("segment_index,t,value_1")):
        raise DataError("not a path CSV: lines 1-2 are not its two headers")
    width, number = len(lines[1].split(",")), 1
    seg_times, seg_values = [], []
    try:
        jump_times = np.array([float(x) for x in lines[0].split(",")[1:]])
        for number, line in enumerate(lines[2:], start=3):
            if not line:
                continue
            row = [float(x) for x in line.split(",")]
            if len(row) != width:
                raise DataError(f"path CSV line {number}: {len(row)} fields, header has {width}")
            if row[0] == len(seg_times):
                seg_times.append([])
                seg_values.append([])
            elif not seg_times or row[0] != len(seg_times) - 1:
                raise DataError(f"path CSV line {number}: segment index {row[0]:g} does not "
                                f"follow {len(seg_times) - 1}")
            seg_times[-1].append(row[1])
            seg_values[-1].append(row[2:])
    except ValueError:
        raise DataError(f"path CSV line {number}: a field is not a number") from None
    if not seg_times:
        raise DataError("not a path CSV: no sample after line 2")
    segments = [(np.array(t), np.array(v)) for t, v in zip(seg_times, seg_values)]
    try:
        path = CadlagPath(segments)
    except DataError as err:
        raise DataError(f"not a path CSV: {err}") from None
    if not np.array_equal(jump_times, path.jump_times):
        raise DataError("path CSV line 1: jump times do not match the segment starts")
    return path
