"""First-order fluctuation correction around the deterministic trajectory.

Between impulses the radial correction R1 solves dR1 = b'(r(t)) R1 dt + dW,
driven by the same Brownian increments as a coupled noisy simulation; at each
deterministic impulse time kα it is rescaled by h'(r-), the reset slope at the
pre-impulse radius, and R1(0) = 0. The angular correction is identically zero
because the angular noise enters only at order epsilon^p with p > 1. The
first-order approximation of the noisy system is then x(t) + epsilon*Z(t),
with Z = (R1, 0).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .cadlag import CadlagPath, assemble_from_grid
from .errors import AlignmentError, ParameterError
from .system import DeterministicSolution, SystemSpec, solution_to_path


def fluctuation_trace(spec: SystemSpec, det: DeterministicSolution,
                      w_increments: np.ndarray):
    """Euler recursion for R1, vectorised over replica columns.

    `w_increments` has shape (n_steps,) or (n_steps, M) and holds raw (unit
    noise scale) Brownian increments on the deterministic grid. Returns
    (values, pre, post): grid samples with the post-impulse convention at
    impulse indices, plus pre/post values at each impulse.
    """
    single = w_increments.ndim == 1
    w_inc = w_increments[:, None] if single else w_increments
    grid = det.grid
    steps = grid.steps
    n = steps.shape[0]
    if w_inc.shape[0] != n:
        raise AlignmentError("increment count does not match the grid step count")
    growth = 1.0 + np.asarray(spec.drift_derivative(det.r_values[:-1]), dtype=float) * steps
    slopes = np.asarray(spec.reset_derivative(det.pre_radii), dtype=float)
    at_boundary = {int(idx): k for k, idx in enumerate(grid.boundary_indices)}
    m = w_inc.shape[1]
    values = np.empty((n + 1, m))
    values[0] = 0.0
    pre = np.empty((slopes.shape[0], m))
    post = np.empty_like(pre)
    cur = np.zeros(m)
    for j in range(n):
        cur = growth[j] * cur + w_inc[j]
        k = at_boundary.get(j + 1)
        if k is not None:
            pre[k] = cur
            cur = slopes[k] * cur
            post[k] = cur
        values[j + 1] = cur
    if single:
        return values[:, 0], pre[:, 0], post[:, 0]
    return values, pre, post


def fluctuation_path(spec: SystemSpec, det: DeterministicSolution,
                     w_increments: np.ndarray) -> CadlagPath:
    """R1 driven by one (n_steps,) column of raw increments, as a scalar path.

    Its jumps sit exactly at the deterministic impulse times, never at the
    noisy ones.
    """
    grid = det.grid
    values, pre, post = fluctuation_trace(spec, det, w_increments)
    return assemble_from_grid(grid.horizon, grid.times, values[:, None],
                              grid.impulse_times(), pre[:, None], post[:, None])


def first_order_on_grid(det: DeterministicSolution, trace_values: np.ndarray,
                        trace_pre: np.ndarray, trace_post: np.ndarray,
                        epsilon: float) -> CadlagPath:
    """Assemble x + epsilon*Z directly from one column of a batched trace.

    Jumps stay at the deterministic impulse times; the angle is not corrected.
    """
    if epsilon < 0.0:
        raise ParameterError("epsilon must be nonnegative")
    if trace_values.shape != det.r_values.shape:
        raise AlignmentError("correction and deterministic path live on different grids")
    return solution_to_path(replace(det, r_values=det.r_values + epsilon * trace_values,
                                    pre_radii=det.pre_radii + epsilon * trace_pre,
                                    post_radii=det.post_radii + epsilon * trace_post))
