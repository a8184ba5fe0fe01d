"""Planar impulsive system: radial drift, unit angular speed, reset at a wedge.

State (r, theta) evolves by dr/dt = b(r), dtheta/dt = 1 inside the wedge
0 <= theta < alpha. When theta reaches alpha, the state is reset to
(h(r), 0). With theta(0) = 0 the impulse times are exactly t_k = k*alpha, so
the radial flow can be integrated segment by segment with a fixed-step RK4
scheme whose final partial step lands on each impulse time exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cadlag import CadlagPath, assemble_from_grid
from .errors import HorizonError, ParameterError, ResolutionError

TWO_PI = 2.0 * math.pi
_PROBE_POINTS = 161


@dataclass(frozen=True)
class DriftModel:
    """Radial drift callable with its derivative.

    The built-in families' ``fn`` answers a float (numpy float64 included)
    with a float and an array with an array, with the same bits either way.
    """

    fn: Callable
    derivative: Callable


@dataclass(frozen=True)
class ResetModel:
    """Reset map callable with its derivative."""

    fn: Callable
    derivative: Callable


def _finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{what} must be finite")
    return value


def constant_drift(c: float) -> DriftModel:
    """b(r) = c, so b' = 0."""
    c = _finite(c, "drift level")
    return DriftModel(fn=lambda r: c if isinstance(r, float)
                      else np.full_like(np.asarray(r, dtype=float), c),
                      derivative=lambda r: np.zeros_like(np.asarray(r, dtype=float)))


def tanh_drift(c: float) -> DriftModel:
    """b(r) = c*tanh(r), so b'(r) = c/cosh(r)**2."""
    c = _finite(c, "tanh drift scale")
    return DriftModel(fn=lambda r: c * np.tanh(r),
                      derivative=lambda r: c / np.cosh(r) ** 2)


def linear_reset(kappa: float) -> ResetModel:
    """h(r) = kappa*r with kappa > 0."""
    kappa = _finite(kappa, "linear reset slope")
    if kappa <= 0:
        raise ParameterError("linear reset slope must be positive")
    return ResetModel(fn=lambda r: kappa * np.asarray(r, dtype=float),
                      derivative=lambda r: np.full_like(np.asarray(r, dtype=float), kappa))


def saturating_reset(scale: float) -> ResetModel:
    """h(r) = scale*r/(1+|r|), extended oddly; steepest at the origin."""
    scale = _finite(scale, "saturating reset scale")
    if scale <= 0:
        raise ParameterError("saturating reset scale must be positive")

    def fn(r):
        r = np.asarray(r, dtype=float)
        return scale * r / (1.0 + np.abs(r))

    def derivative(r):
        r = np.asarray(r, dtype=float)
        return scale / (1.0 + np.abs(r)) ** 2

    return ResetModel(fn=fn, derivative=derivative)


def _table(points, what: str):
    """Finite (r, value) pairs as two arrays sorted by strictly increasing r."""
    pts = sorted((float(x), float(y)) for x, y in points)
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ParameterError(f"{what} table entries must be finite")
    if xs.shape[0] < 2 or np.any(np.diff(xs) <= 0):
        raise ParameterError(f"{what} table needs >= 2 strictly increasing abscissae")
    return xs, ys


def _edge_derivative(h0, h1, m0, m1):
    """One-sided three-point end derivative, kept from overshooting."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(xs: np.ndarray, ys: np.ndarray):
    """Knots and (4, n-1) power-basis coefficients of the PCHIP interpolant.

    Fritsch and Carlson's monotone cubic with Fritsch and Butland's harmonic-mean
    knot derivatives and Moler's end derivatives, in scipy's
    `PchipInterpolator` arithmetic, so that both give the same bits. Piece j
    is c[0, j]*s**3 + c[1, j]*s**2 + c[2, j]*s + c[3, j] with s = r - xs[j];
    no coefficient is -0.0.
    """
    h = np.diff(xs)
    m = np.diff(ys) / h
    if m.shape[0] == 1:
        d = np.array([m[0], m[0]])
    else:
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d = np.zeros_like(ys)
        d[1:-1][~flat] = 1.0 / whmean[~flat]
        d[0] = _edge_derivative(h[0], h[1], m[0], m[1])
        d[-1] = _edge_derivative(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    # + 0.0 turns a -0.0 coefficient into +0.0, as scipy's sum, which starts
    # from 0.0, does.
    return xs, np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], ys[:-1])) + 0.0


def _piecewise(xs: np.ndarray, c: np.ndarray) -> Callable:
    """Evaluator of the pieces `c` on knots `xs`, extended from the end pieces.

    The powers are summed in scipy's `PPoly` order, lowest first; NaN gives NaN.
    """
    inner = xs[1:-1]
    top, rows = c[-1], tuple(c[-2::-1])

    def at(r):
        r = np.asarray(r, dtype=float)
        j = inner.searchsorted(r, side="right")
        s = r - xs[j]
        out, power = top[j], s
        for k, row in enumerate(rows):
            if k:
                power = power * s
            term = row[j]
            term *= power
            out += term
        return out

    return at


def _value_and_slope(knots: np.ndarray, c: np.ndarray):
    """Evaluators of the pieces `c` and of their derivative, whose coefficients
    (3*c[0], 2*c[1], c[2]) are the ones `PPoly.derivative` forms."""
    return _piecewise(knots, c), _piecewise(knots, c[:-1] * np.array([[3.0], [2.0], [1.0]]))


def _odd_pchip(xs: np.ndarray, ys: np.ndarray):
    # Mirror the table through the origin so the interpolant is odd.
    xs_full = np.concatenate([-xs[::-1], xs[1:]]) if xs[0] == 0 else np.concatenate([-xs[::-1], xs])
    ys_full = np.concatenate([-ys[::-1], ys[1:]]) if xs[0] == 0 else np.concatenate([-ys[::-1], ys])
    return _pchip(xs_full, ys_full)


def table_drift(points) -> DriftModel:
    """Monotone-cubic interpolation of tabulated (r, b(r)) pairs.

    Outside the table hull the drift is clamped to its boundary values, so it
    stays bounded on all of R as the model assumes.
    """
    xs, c = _pchip(*_table(points, "drift"))
    value_at, slope_at = _value_and_slope(xs, c)
    lo, hi = float(xs[0]), float(xs[-1])
    # Plain-float copy of the pieces for scalar calls.
    knots = xs.tolist()
    c0, c1, c2, c3 = c.tolist()
    last = len(knots) - 2

    def fn(r):
        if isinstance(r, float):
            # The array path's clip, piece search and power sum, in that order.
            r = min(max(float(r), lo), hi)
            j = min(bisect_right(knots, r) - 1, last)
            s = r - knots[j]
            return c3[j] + c2[j] * s + c1[j] * (s * s) + c0[j] * ((s * s) * s)
        return np.asarray(value_at(np.asarray(r).clip(lo, hi)), dtype=float)

    def derivative(r):
        r = np.asarray(r, dtype=float)
        inside = (r >= lo) & (r <= hi)
        return np.where(inside, slope_at(r.clip(lo, hi)), 0.0)

    return DriftModel(fn=fn, derivative=derivative)


def table_reset(points) -> ResetModel:
    """Monotone-cubic reset through tabulated (r, h(r)) pairs with h(0) = 0."""
    xs, ys = _table(points, "reset")
    if xs[0] < 0 or (xs[0] == 0 and ys[0] != 0):
        raise ParameterError("reset table must cover r >= 0 with h(0) = 0")
    if xs[0] > 0:
        xs = np.concatenate([[0.0], xs])
        ys = np.concatenate([[0.0], ys])
    if np.any(np.diff(ys) <= 0):
        raise ParameterError("reset table values must strictly increase")
    knots, c = _odd_pchip(xs, ys)
    value_at, slope_at = _value_and_slope(knots, c)
    hi = float(xs[-1])
    hi_val = float(ys[-1])
    # Beyond the table hull, continue with the final chord slope so the odd
    # extension stays strictly increasing on all of R.
    tail_slope = float((ys[-1] - ys[-2]) / (xs[-1] - xs[-2]))

    def fn(r):
        r = np.asarray(r, dtype=float)
        inside = np.abs(r) <= hi
        out = value_at(r.clip(-hi, hi))
        return np.where(inside, out, np.sign(r) * (hi_val + (np.abs(r) - hi) * tail_slope))

    def derivative(r):
        r = np.asarray(r, dtype=float)
        inside = np.abs(r) <= hi
        return np.where(inside, slope_at(r.clip(-hi, hi)), tail_slope)

    return ResetModel(fn=fn, derivative=derivative)


@dataclass(frozen=True)
class SystemSpec:
    """Immutable description of one impulsive system instance.

    Callables must accept numpy arrays, and the drift also numpy float64
    scalars: `integrate_deterministic` calls it on one float64 per RK4 stage.
    The derivatives drive the first-order fluctuation process. The reset is
    sampled at construction: it must fix the origin and strictly increase.
    """

    drift: Callable
    drift_derivative: Callable
    reset: Callable
    reset_derivative: Callable
    alpha: float
    r0: float

    def __post_init__(self):
        if not (0.0 < self.alpha < TWO_PI):
            raise ParameterError("alpha must lie in (0, 2*pi)", field="alpha")
        if not self.r0 > 0:
            raise ParameterError("initial radius must be positive", field="r0")
        if self.r0 == math.inf:
            raise ParameterError("initial radius must be finite", field="r0")
        rs = np.linspace(0.0, max(8.0, 4.0 * self.r0), _PROBE_POINTS)
        h = np.asarray(self.reset(rs), dtype=float)
        # Negated comparisons, so that a NaN sample fails them.
        if not abs(float(h[0])) <= 1e-12:
            raise ParameterError("reset map must fix the origin")
        if not np.all(np.diff(h) > 0):
            raise ParameterError("reset map must be strictly increasing")

    @classmethod
    def from_models(cls, drift: DriftModel, reset: ResetModel, alpha: float, r0: float) -> "SystemSpec":
        return cls(drift=drift.fn, drift_derivative=drift.derivative,
                   reset=reset.fn, reset_derivative=reset.derivative,
                   alpha=float(alpha), r0=float(r0))


@dataclass(frozen=True)
class SimulationGrid:
    """Time grid on [0, T] whose points include every impulse time k*alpha."""

    times: np.ndarray
    steps: np.ndarray
    boundary_indices: np.ndarray
    alpha: float
    horizon: float

    @property
    def n_impulses(self) -> int:
        return self.boundary_indices.shape[0]

    def impulse_times(self) -> np.ndarray:
        return self.times[self.boundary_indices]


def simulation_grid(alpha: float, horizon: float, dt: float) -> SimulationGrid:
    """Segment-aligned grid: uniform steps of dt, shortened to land on k*alpha."""
    if not dt > 0:
        raise ResolutionError("step size must be positive")
    q = horizon / alpha
    n = int(math.floor(q + 1e-12)) if math.isfinite(q) else 0
    if n < 1 or not (1e-9 < q - n < 1 - 1e-9):
        raise HorizonError(
            "horizon must lie strictly between consecutive impulse times "
            f"(got T={horizon!r}, alpha={alpha!r})"
        )
    ends = np.append(alpha * np.arange(1, n + 1), horizon)
    times = [0.0]
    boundary_indices = []
    start = 0.0
    for i, end in enumerate(ends):
        span = end - start
        m = int(math.floor(span / dt + 1e-9))
        inner = start + dt * np.arange(1, m + 1)
        if m >= 1 and end - inner[-1] <= dt * 1e-6:
            inner = inner[:-1]
        times.extend(inner.tolist())
        times.append(end)
        if i < n:
            boundary_indices.append(len(times) - 1)
        start = end
    t = np.asarray(times)
    return SimulationGrid(times=t, steps=np.diff(t),
                          boundary_indices=np.asarray(boundary_indices, dtype=int),
                          alpha=alpha, horizon=horizon)


def _rk4_step(b: Callable, y: float, h: float) -> float:
    k1 = float(b(y))
    k2 = float(b(y + 0.5 * h * k1))
    k3 = float(b(y + 0.5 * h * k2))
    k4 = float(b(y + h * k3))
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(frozen=True)
class DeterministicSolution:
    """Grid samples of the noiseless flow plus impulse pre/post radii."""

    grid: SimulationGrid
    r_values: np.ndarray
    theta_values: np.ndarray
    pre_radii: np.ndarray
    post_radii: np.ndarray


def integrate_deterministic(spec: SystemSpec, grid: SimulationGrid) -> DeterministicSolution:
    """RK4 radial flow on the grid with resets applied at segment boundaries."""
    n = grid.steps.shape[0]
    r = np.empty(n + 1)
    r[0] = spec.r0
    boundary = set(int(j) for j in grid.boundary_indices)
    pre, post = [], []
    for j in range(n):
        y = _rk4_step(spec.drift, r[j], float(grid.steps[j]))
        if j + 1 in boundary:
            pre.append(y)
            y = float(spec.reset(y))
            post.append(y)
        r[j + 1] = y
    seg_starts = np.concatenate([[0.0], grid.impulse_times()])
    idx = np.searchsorted(grid.times[grid.boundary_indices], grid.times, side="right")
    theta = grid.times - seg_starts[idx]
    return DeterministicSolution(grid=grid, r_values=r, theta_values=theta,
                                 pre_radii=np.asarray(pre), post_radii=np.asarray(post))


def polar_path(grid, r_values, theta_values, jump_times, pre_radii, post_radii) -> CadlagPath:
    """(r, theta) samples on `grid` as a path whose angle reaches alpha before
    each of `jump_times` and restarts from 0 after it."""
    k = jump_times.shape[0]
    values = np.stack([r_values, theta_values], axis=1)
    pre_states = np.stack([pre_radii, np.full(k, grid.alpha)], axis=1)
    post_states = np.stack([post_radii, np.zeros(k)], axis=1)
    return assemble_from_grid(grid.horizon, grid.times, values, jump_times, pre_states, post_states)


def solution_to_path(sol: DeterministicSolution) -> CadlagPath:
    return polar_path(sol.grid, sol.r_values, sol.theta_values, sol.grid.impulse_times(),
                      sol.pre_radii, sol.post_radii)


def deterministic_trajectory(spec: SystemSpec, horizon: float, dt: float) -> CadlagPath:
    """Noiseless trajectory as a path; its jumps are the impulses.

    Requires dt <= alpha/100 and a horizon strictly inside an inter-impulse
    interval with at least one impulse before it.
    """
    if dt > spec.alpha / 100.0:
        raise ResolutionError("step size must not exceed alpha/100")
    grid = simulation_grid(spec.alpha, horizon, dt)
    return solution_to_path(integrate_deterministic(spec, grid))

