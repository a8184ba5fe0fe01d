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
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ComplexityGuardError,
    DataError,
    InvalidDistortionError,
    InvalidInputError,
    ParameterError,
    ShapeError,
)
from ._text import format_float, open_dest

_REL_TOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=float)
    out.setflags(write=False)
    return out


class Segment(NamedTuple):
    times: np.ndarray   # (m,), strictly increasing
    values: np.ndarray  # (m, d)


class CadlagPath:
    """Piecewise-continuous path with jumps at its interior segment starts."""

    def __init__(self, horizon: float, segments: Sequence[tuple], jump_times=None):
        if not np.isfinite(horizon) or horizon <= 0:
            raise ShapeError(f"horizon must be a positive real, got {horizon!r}")
        segs = []
        for times, values in segments:
            t = _readonly(np.atleast_1d(times))
            v = np.asarray(values, dtype=float)
            if v.ndim == 1:
                v = v[:, None]
            v = _readonly(v)
            if t.shape[0] != v.shape[0]:
                raise ShapeError("segment times and values disagree in length")
            if t.shape[0] >= 2 and not np.all(np.diff(t) > 0):
                raise ShapeError("segment times must be strictly increasing")
            if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
                raise ShapeError("path samples must be finite")
            segs.append(Segment(t, v))
        if not segs:
            raise ShapeError("a path needs at least one segment")
        dim = segs[0].values.shape[1]
        if any(s.values.shape[1] != dim for s in segs):
            raise ShapeError("segments disagree on state dimension")
        starts = np.array([s.times[0] for s in segs])
        ends = np.array([s.times[-1] for s in segs])
        if starts[0] != 0.0:
            raise ShapeError("first segment must start at time 0")
        for k in range(1, len(segs)):
            if ends[k - 1] != starts[k]:
                raise ShapeError("segments must tile [0, T] without gaps")
        if any(s.times.shape[0] < 2 for s in segs[:-1]):
            raise ShapeError("only the terminal segment may be a single point")
        if abs(ends[-1] - horizon) > _REL_TOL * max(1.0, horizon):
            raise ShapeError("last segment must end at the horizon")
        if jump_times is not None:
            jt = np.atleast_1d(np.asarray(jump_times, dtype=float))
            if jt.shape[0] != len(segs) - 1 or not np.array_equal(jt, starts[1:]):
                raise ShapeError("jump times must coincide with segment starts")
        self.horizon = float(horizon)
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


def assemble_from_grid(horizon, times, values, jump_times, pre_states, post_states) -> CadlagPath:
    """Build a path from grid samples plus per-jump left/right states.

    `values[j]` is the state at `times[j]` (already post-reset if a jump lands
    exactly on a grid time). Jumps strictly inside a step get the interpolated
    pre state as the closing sample of one segment and the post state opening
    the next.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    jump_times = np.atleast_1d(np.asarray(jump_times, dtype=float))
    pre_states = np.atleast_2d(np.asarray(pre_states, dtype=float))
    post_states = np.atleast_2d(np.asarray(post_states, dtype=float))
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
    return CadlagPath(horizon, segments, jump_times=jump_times)


@dataclass(frozen=True, eq=False)
class TimeDistortion:
    """Piecewise-linear increasing bijection of [0, T] onto itself."""

    knot_times: np.ndarray
    knot_values: np.ndarray
    horizon: float = field(default=0.0)

    def __post_init__(self):
        kt = np.atleast_1d(np.asarray(self.knot_times, dtype=float))
        kv = np.atleast_1d(np.asarray(self.knot_values, dtype=float))
        if kt.shape != kv.shape or kt.shape[0] < 2:
            raise InvalidDistortionError("need matching knot arrays with >= 2 knots")
        horizon = float(self.horizon) if self.horizon else float(kt[-1])
        tol = _REL_TOL * max(1.0, horizon)
        if abs(kt[0]) > tol or abs(kv[0]) > tol:
            raise InvalidDistortionError("distortion must fix time 0")
        if abs(kt[-1] - horizon) > tol or abs(kv[-1] - horizon) > tol:
            raise InvalidDistortionError("distortion must fix the horizon")
        if not (np.all(np.diff(kt) > 0) and np.all(np.diff(kv) > 0)):
            raise InvalidDistortionError("knot times and images must strictly increase")
        kt = kt.copy()
        kv = kv.copy()
        kt[0] = kv[0] = 0.0
        kt[-1] = kv[-1] = horizon
        object.__setattr__(self, "knot_times", _readonly(kt))
        object.__setattr__(self, "knot_values", _readonly(kv))
        object.__setattr__(self, "horizon", horizon)

    @classmethod
    def identity(cls, horizon: float) -> "TimeDistortion":
        return cls(np.array([0.0, horizon]), np.array([0.0, horizon]), horizon)

    def apply(self, t) -> np.ndarray:
        return np.interp(t, self.knot_times, self.knot_values)

    def inverse(self, s) -> np.ndarray:
        return np.interp(s, self.knot_values, self.knot_times)

    def slopes(self) -> np.ndarray:
        return np.diff(self.knot_values) / np.diff(self.knot_times)

    def is_identity(self) -> bool:
        return bool(np.all(self.slopes() == 1.0))


def distortion_cost(distortion: TimeDistortion) -> float:
    """Max over knot intervals of |log slope|; zero exactly for the identity."""
    return float(np.max(np.abs(np.log(distortion.slopes()))))


def _check_compatible(x1: CadlagPath, x2: CadlagPath) -> None:
    if abs(x1.horizon - x2.horizon) > _REL_TOL * max(1.0, x1.horizon):
        raise ShapeError("paths must share the same horizon")
    if x1.dim != x2.dim:
        raise ShapeError("paths must share the same state dimension")


def skorohod_upper(x1: CadlagPath, x2: CadlagPath, distortion: TimeDistortion) -> float:
    """Distance upper bound max(distortion cost, sup_t |x1(t) - x2(lambda(t))|).

    The sup is exact for these piecewise-linear paths: it is attained at a
    breakpoint of t -> (x1(t), x2(lambda(t))) from one side, and both one-sided
    limits at every breakpoint are inspected.
    """
    _check_compatible(x1, x2)
    if abs(distortion.horizon - x1.horizon) > _REL_TOL * max(1.0, x1.horizon):
        raise ShapeError("distortion horizon must match the paths")
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
        raise InvalidInputError("need one noisy impulse time per deterministic one")
    n = det_times.shape[0]
    if n == 0:
        return TimeDistortion.identity(horizon)
    alpha = det_times[0]
    if alpha <= 0:
        raise InvalidInputError("deterministic impulse times must be positive")
    expected = alpha * np.arange(1, n + 1)
    if np.max(np.abs(det_times - expected)) > _REL_TOL * alpha * n:
        raise InvalidInputError("deterministic impulse times must be k*alpha")
    if not (n * alpha < horizon < (n + 1) * alpha):
        raise InvalidInputError("horizon must lie strictly between impulse counts")
    if np.any(np.diff(stoch_times) <= 0) or stoch_times[0] <= 0:
        raise InvalidInputError("noisy impulse times must be strictly increasing and positive")
    if stoch_times[-1] >= horizon:
        raise InvalidInputError("last noisy impulse time must precede the horizon")
    if np.max(np.abs(stoch_times - expected)) >= alpha / 4:
        raise InvalidInputError("impulse deviations must stay below alpha/4")
    kt = np.concatenate([[0.0], det_times, [horizon]])
    kv = np.concatenate([[0.0], stoch_times, [horizon]])
    return TimeDistortion(kt, kv, horizon)


# Query points scored at once by batch_skorohod_upper. About fifteen float
# arrays of this length are alive per block, so a block's temporaries stay
# near 4 MB whatever the replica count.
_POINT_BUDGET = 1 << 15
_NO_JUMPS = np.empty(0, dtype=np.intp)


def _grid_steps(start, steps, jump_index=_NO_JUMPS, pre=0.0, post=0.0):
    """Start value and slope of every grid step of a path jumping at grid
    indices `jump_index`: the post-jump value starts the step at a jump and
    the pre-jump value ends the step before it. `start` holds the grid
    samples and is overwritten at the jumps. The extra last entry is the
    horizon sample with slope 0, so index j serves every t in
    [times[j], times[j+1]) and t = T."""
    start[..., jump_index] = post
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

    def __init__(self, times, jump_index, alpha, det):
        n = times.shape[0]
        self.times, self.alpha = times, alpha
        self.steps = np.diff(times)
        self.last = n - 1
        self.scale = self.last / times[-1]
        buckets = self._bucket(times)
        self.lo = np.searchsorted(buckets, np.arange(n)) - 1
        rounds = np.bincount(buckets).max()
        padded = np.concatenate([[-np.inf], times, np.full(rounds, np.inf)])
        # after[k - 1][b]: the k-th grid point after lo[b], or +inf.
        self.after = [padded[self.lo + k + 1] for k in range(1, rounds + 1)]
        self.knots = np.concatenate([[0.0], times[jump_index], [times[-1]]])
        self.knot_index = np.concatenate([[0], jump_index, [n - 1]])
        self.jump_index = jump_index
        jump_order = np.full(n, -1)
        jump_order[jump_index] = np.arange(jump_index.shape[0])
        self.jump_order = jump_order
        self.jump_points = np.flatnonzero(jump_order >= 0)
        det_r, det_theta, det_pre, det_post = det
        self.det_r, self.det_pre, self.det_post = det_r, det_pre, det_post
        self.det = (_grid_steps(det_r.copy(), self.steps, jump_index, det_pre, det_post),
                    det_pre)
        self.theta = _grid_steps(det_theta.copy(), self.steps, jump_index, alpha, 0.0)

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
        """Grid steps and pre-jump radii of det + epsilon * trace for the
        given columns; column c reads trace column c mod per_level at level
        levels[c // per_level]."""
        eps = levels[columns // per_level, None]
        values, pre, post = (a[:, columns % per_level].T for a in trace)
        fo_pre = self.det_pre + eps * pre
        start = np.add(self.det_r, eps * values, order="C")
        return (_grid_steps(start, self.steps, self.jump_index, fo_pre,
                            self.det_post + eps * post), fo_pre)


class _ReplicaBlock:
    """A block of noisy replicas and their distortions as flat arrays.

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
        kv = np.tile(knots, (size, 1))
        kv[good, 1:-1] = tau[good, : knots.shape[0] - 2]
        forward = np.diff(kv, axis=1) / np.diff(knots)
        self.cost = np.max(np.abs(np.log(forward)), axis=1)
        self.kv = kv
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

    def lam(self, t):
        """lambda(t) row by row; t is (rows, k), inside [0, T]."""
        knots = self.grid.knots
        j = np.zeros(t.shape, dtype=np.intp)
        for knot in knots[1:]:
            j += t >= knot
        flat = self.knot_offsets + j
        u = self.forward.take(flat) * (t - knots[j]) + self.kv.take(flat)
        return np.where(self.good[:, None], u, t)

    def lam_grid(self):
        """lambda on the grid, one knot interval of grid points at a time."""
        grid = self.grid
        u = np.empty((self.good.shape[0], grid.times.shape[0]))
        bounds = grid.knot_index
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            np.multiply(self.forward[:, k:k + 1], grid.times[a:b] - grid.knots[k], out=u[:, a:b])
            u[:, a:b] += self.kv[:, k:k + 1]
        u[:, -1] = self.kv[:, -1]
        np.copyto(u, grid.times, where=~self.good[:, None])
        return u

    def lam_inv(self, s):
        """lambda^{-1}(s) row by row."""
        j = np.zeros(np.broadcast_shapes(np.shape(s), (self.kv.shape[0], 1)), dtype=np.intp)
        for c in range(1, self.kv.shape[1]):
            j += s >= self.kv[:, c:c + 1]
        flat = self.knot_offsets + j
        t = self.backward.take(flat) * (s - self.kv.take(flat)) + self.grid.knots[j]
        return np.where(self.good[:, None], t, s)

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
        if fix.size == 0:
            return r, th, fix, np.empty(0)
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
        """Right values of the first paths and the angle at t, of shape
        (rows, k), plus the flat indices where t is a deterministic jump time
        and the order of that jump."""
        grid = self.grid
        (th0, th_slope), jump_order = grid.theta, grid.jump_order
        j1 = grid.locate(t)
        d1 = t - grid.times[j1]
        th1 = th_slope[j1] * d1 + th0[j1]
        r1 = []
        for (start, slope), _ in firsts:
            if start.ndim == 1:
                r1.append(slope[j1] * d1 + start[j1])
            else:
                idx = self.offsets + j1
                r1.append(slope.take(idx) * d1 + start.take(idx))
        on_grid = np.flatnonzero(d1 == 0)
        order = jump_order[j1.ravel()[on_grid]]
        return r1, th1, on_grid[order >= 0], order[order >= 0]

    def scan(self, t, firsts, sup2):
        """Fold sup |x1(t) - x2(lambda(t))|^2 over one query array into `sup2`,
        one entry per first path. t=None means the grid itself."""
        grid = self.grid
        if t is None:
            t = grid.times
            width = t.shape[0]
            r1 = [steps[0] for steps, _ in firsts]
            th1 = grid.theta[0]
            jumps1 = (self.offsets + grid.jump_points).ravel()
            order1 = np.tile(grid.jump_order[grid.jump_points], self.good.shape[0])
            u = self.lam_grid()
        else:
            width = t.shape[1]
            r1, th1, jumps1, order1 = self.first_at(t, firsts)
            u = self.lam(t)
        r2, th2, jumps2, pre2 = self.noisy_at(u)
        dth = th1 - th2
        dth2 = dth * dth
        for s2, r in zip(sup2, r1):
            dr = r - r2
            np.maximum(s2, np.max(dr * dr + dth2, axis=1), out=s2)
        if jumps1.size == 0 and jumps2.size == 0:
            return
        # Left limits differ from right values only at jump points.
        points = np.union1d(jumps1, jumps2)
        row = points // width
        at1 = np.searchsorted(points, jumps1)
        at2 = np.searchsorted(points, jumps2)
        th1_left = _pick(th1, points, width)
        th1_left[at1] = grid.alpha
        r2_left = r2.ravel()[points]
        r2_left[at2] = pre2
        th2_left = th2.ravel()[points]
        th2_left[at2] = grid.alpha
        dth = th1_left - th2_left
        for s2, r, (_, pre1) in zip(sup2, r1, firsts):
            r1_left = _pick(r, points, width)
            r1_left[at1] = pre1[order1] if pre1.ndim == 1 else pre1[row[at1], order1]
            dr = r1_left - r2_left
            np.maximum.at(s2, row, dr * dr + dth * dth)


def _pick(a, flat, width):
    """Entries of a (rows, width) array, or of one row shared by all rows."""
    return a[flat % width] if a.ndim == 1 else a.ravel()[flat]


def batch_skorohod_upper(times, jump_index, alpha, det, noisy, good, trace=None,
                         epsilon=0.0):
    """:func:`skorohod_upper` for a batch of planar replicas on one shared grid.

    Every path is sampled on `times` (the grid, ending at the horizon) and
    its state is (radius, angle); the angle jumps from `alpha` to 0 at each
    jump. `det = (r, theta, pre, post)` is the deterministic path: grid
    samples, and the radii just before and after its jumps, which sit at the
    grid indices `jump_index`. `noisy = (r, theta, tau, pre, post, counts)`
    holds the noisy columns laid out as in ``BatchResult``: grid samples of
    shape (n + 1, C), impulse arrays of shape (C, n_max) valid up to
    `counts`. Column c is compared under the aligning distortion through
    (times[jump_index], tau[c]) when `good[c]`, else under the identity.

    `epsilon` is one noise level or a tuple of E levels. With E levels the
    C = E * M columns follow the layout of a multi-level ``simulate_batch``:
    column ``e * M + i`` is replica i at level ``epsilon[e]``.

    Returns ``(to_det, to_first_order)``, each of shape (C,). The second
    compares column ``e * M + i`` with the first-order path
    ``det + epsilon[e] * trace[:, i]`` in the radius, where
    ``trace = (values, pre, post)`` is the output of ``fluctuation_trace``
    for the M replicas; it is None without a trace. Each entry equals
    ``skorohod_upper`` on the corresponding path objects, because the sup
    runs over the same points, grid ∪ λ⁻¹(grid ∪ tau) ∪ knots, with right
    values everywhere and left limits at the jump points.
    """
    times = np.asarray(times, dtype=float)
    jump_index = np.asarray(jump_index, dtype=np.intp)
    r_values, theta_values, tau, pre, post, counts = noisy
    tau, counts, good = np.asarray(tau, dtype=float), np.asarray(counts), np.asarray(good, bool)
    pre, post = np.asarray(pre, dtype=float), np.asarray(post, dtype=float)
    levels = np.atleast_1d(np.asarray(epsilon, dtype=float))
    m = counts.shape[0]
    if levels.ndim != 1 or m % levels.shape[0]:
        raise InvalidInputError("the noisy columns must split evenly over the noise levels")
    per_level = m // levels.shape[0]
    n_points, n_jumps = times.shape[0], jump_index.shape[0]
    if good.any():
        legs = np.diff(tau[good, :n_jumps], axis=1, prepend=0.0, append=times[-1])
        if np.any(counts[good] != n_jumps) or not np.all(legs > 0):
            raise InvalidInputError("a good replica needs one increasing impulse time per "
                                    "deterministic jump, inside (0, T)")
    grid = _Grid(times, jump_index, alpha, tuple(np.asarray(a, dtype=float) for a in det))
    if trace is not None:
        trace = tuple(np.asarray(a, dtype=float) for a in trace)
    out = [np.empty(m) for _ in range(1 if trace is None else 2)]
    size = max(1, _POINT_BUDGET // n_points)
    for lo in range(0, m, size):
        rows = slice(lo, min(m, lo + size))
        block = _ReplicaBlock(grid, np.ascontiguousarray(r_values[:, rows].T),
                              np.ascontiguousarray(theta_values[:, rows].T),
                              tau[rows], pre[rows], post[rows], counts[rows], good[rows])
        firsts = [grid.det]
        if trace is not None:
            firsts.append(grid.first_order(trace, levels, np.arange(lo, rows.stop), per_level))
        sup2 = [np.zeros(block.good.shape[0]) for _ in firsts]
        # grid, lambda^-1(grid), lambda^-1(tau); unused impulse slots query t = 0.
        valid = np.arange(block.tau.shape[1]) < block.counts[:, None]
        block.scan(None, firsts, sup2)
        block.scan(block.lam_inv(times), firsts, sup2)
        block.scan(block.lam_inv(np.where(valid, block.tau, 0.0)), firsts, sup2)
        for dest, s2 in zip(out, sup2):
            dest[rows] = np.maximum(block.cost, np.sqrt(s2))
    return out[0], (out[1] if trace is not None else None)


def aligning_cost_bound(delta: float, alpha: float, horizon: float) -> float:
    """Bound 4*T*delta/alpha on the cost of an aligning distortion.

    Valid when deviations are at most delta < alpha/(4T) and the final leg
    T - N*alpha is not shorter than max(2*delta, alpha/(2T)).
    """
    return 4.0 * horizon * delta / alpha


def aligning_slope_deviation_bound(delta: float, alpha: float, horizon: float) -> float:
    """Bound on |slope - 1| over an aligning distortion with deviations <= delta.

    Interior slopes deviate by at most 2*delta/alpha, the final leg by at most
    delta/(T - floor(T/alpha)*alpha); the sup over the whole distortion is the
    larger of the two.
    """
    n = int(np.floor(horizon / alpha + 1e-12))
    tail = horizon - n * alpha
    if tail <= 0:
        raise InvalidInputError("horizon must not be a multiple of alpha")
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
        raise ComplexityGuardError("oracle handles at most 4 jumps per path")
    horizon = x1.horizon
    best = skorohod_upper(x1, x2, TimeDistortion.identity(horizon))
    knots = x1.jump_times
    if knots.shape[0] == 0:
        return best
    targets = x2.jump_times if x2.jump_times.shape[0] else knots
    r_eff = 1 << (int(resolution).bit_length() - 1)
    anchors = np.unique(np.concatenate([[0.0], targets, [horizon]]))
    width = float(np.min(np.diff(anchors))) / 2.0
    offsets = width * np.arange(-r_eff, r_eff + 1) / r_eff
    cands = np.unique(
        np.concatenate([targets[:, None] + offsets[None, :], knots[:, None]], axis=None)
    )
    cands = cands[(cands > _REL_TOL) & (cands < horizon - _REL_TOL)]
    for images in itertools.combinations(cands, knots.shape[0]):
        kt = np.concatenate([[0.0], knots, [horizon]])
        kv = np.concatenate([[0.0], np.asarray(images), [horizon]])
        lam = TimeDistortion(kt, kv, horizon)
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
    """Inverse of :func:`write_path_csv`; round-trips samples exactly."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    if len(lines) < 3 or not lines[0].startswith("jump_times"):
        raise DataError("not a path CSV: missing jump_times header")
    head = lines[0].split(",")
    jump_times = np.array([float(x) for x in head[1:]]) if len(head) > 1 else np.empty(0)
    seg_times: list[list[float]] = []
    seg_values: list[list[list[float]]] = []
    for line in lines[2:]:
        if not line:
            continue
        parts = line.split(",")
        k = int(parts[0])
        while k >= len(seg_times):
            seg_times.append([])
            seg_values.append([])
        seg_times[k].append(float(parts[1]))
        seg_values[k].append([float(x) for x in parts[2:]])
    if not seg_times:
        raise DataError("path CSV contains no samples")
    horizon = seg_times[-1][-1]
    segments = [(np.array(t), np.array(v)) for t, v in zip(seg_times, seg_values)]
    return CadlagPath(horizon, segments, jump_times=jump_times if jump_times.size else None)
