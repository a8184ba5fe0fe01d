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
from .errors import DataError, ParameterError
from .system import DeterministicSolution, SystemSpec, solution_to_path


def fluctuation_trace(spec: SystemSpec, det: DeterministicSolution,
                      w_increments: np.ndarray):
    """Euler recursion for R1, vectorised over replica columns.

    `w_increments` has shape (n_steps, M) and holds raw (unit noise scale)
    Brownian increments on the deterministic grid. Returns (values, pre): grid
    samples, which hold the post-impulse value at each impulse index, and the
    value just before each impulse.
    """
    steps = det.grid.steps
    if w_increments.ndim != 2 or w_increments.shape[0] != steps.shape[0]:
        raise DataError("increments must be (n_steps, M) columns on the grid")
    n, m = w_increments.shape
    growth = 1.0 + np.asarray(spec.drift_derivative(det.r_values[:-1]), dtype=float) * steps
    slopes = np.asarray(spec.reset_derivative(det.pre_radii), dtype=float)
    at_boundary = {int(idx): k for k, idx in enumerate(det.grid.boundary_indices)}
    values = np.zeros((n + 1, m))
    pre = np.empty((slopes.shape[0], m))
    cur = np.zeros(m)
    for j in range(n):
        cur = growth[j] * cur + w_increments[j]
        k = at_boundary.get(j + 1)
        if k is not None:
            pre[k] = cur
            cur = slopes[k] * cur
        values[j + 1] = cur
    return values, pre


def fluctuation_path(spec: SystemSpec, det: DeterministicSolution,
                     w_increments: np.ndarray) -> CadlagPath:
    """R1 driven by one (n_steps,) column of raw increments, as a scalar path.

    Its jumps sit exactly at the deterministic impulse times, never at the
    noisy ones.
    """
    grid = det.grid
    values, pre = fluctuation_trace(spec, det, w_increments[:, None])
    return assemble_from_grid(grid.times, values, grid.impulse_times(), pre,
                              values[grid.boundary_indices])


def first_order_on_grid(det: DeterministicSolution, values: np.ndarray, pre: np.ndarray,
                        epsilon: float) -> CadlagPath:
    """Assemble x + epsilon*Z from one column `values`, `pre` of a batched
    trace. Jumps stay at the deterministic impulse times; the angle is not
    corrected."""
    if epsilon < 0.0:
        raise ParameterError("epsilon must be nonnegative")
    if values.shape != det.r_values.shape:
        raise DataError("correction and deterministic path live on different grids")
    return solution_to_path(replace(det, r_values=det.r_values + epsilon * values,
                                    pre_radii=det.pre_radii + epsilon * pre))
