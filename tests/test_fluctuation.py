"""First-order correction: closed forms, coupling checks, approximation."""

import numpy as np
import pytest

from impulselab import (
    AlignmentError,
    BrownianRecord,
    DriftModel,
    ParameterError,
    ResetModel,
    SystemSpec,
    constant_drift,
    first_order_on_grid,
    integrate_deterministic,
    linear_reset,
    replica_seed_sequence,
    simulation_grid,
    solution_to_path,
)
from impulselab.fluctuation import fluctuation_path, fluctuation_trace


@pytest.fixture
def unit_setup():
    spec = SystemSpec.from_models(constant_drift(0.2), linear_reset(0.5),
                                  alpha=1.0, r0=1.0)
    grid = simulation_grid(1.0, 2.5, 1e-3)
    det = integrate_deterministic(spec, grid)
    record = BrownianRecord.generate(grid, replica_seed_sequence(42, 0), 8)
    return spec, grid, det, record


def brownian_values(grid, record) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(record.w_increments)])


class TestFluctuationTrace:
    def test_zero_drift_derivative_closed_form(self, unit_setup):
        spec, grid, det, record = unit_setup
        values, pre, post = fluctuation_trace(spec, det, record.w_increments)
        w = brownian_values(grid, record)
        first = grid.times < 1.0
        np.testing.assert_allclose(values[first], w[first], atol=1e-12)
        i1 = int(np.searchsorted(grid.times, 1.0))
        assert pre[0] == pytest.approx(w[i1], abs=1e-12)
        assert post[0] == pytest.approx(0.5 * w[i1], abs=1e-12)
        second = (grid.times >= 1.0) & (grid.times < 2.0)
        np.testing.assert_allclose(values[second],
                                   0.5 * w[i1] + (w[second] - w[i1]), atol=1e-12)

    def test_null_driver(self, unit_setup):
        spec, grid, det, _ = unit_setup
        values, pre, post = fluctuation_trace(spec, det, np.zeros(grid.steps.shape[0]))
        assert np.all(values == 0.0)
        assert np.all(pre == 0.0) and np.all(post == 0.0)

    def test_annihilating_reset_restarts(self):
        drift = constant_drift(0.2)
        reset = ResetModel(fn=lambda r: np.asarray(r, dtype=float),
                           derivative=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                           slope_bound=1.0)
        spec = SystemSpec.from_models(drift, reset, alpha=1.0, r0=1.0)
        grid = simulation_grid(1.0, 2.5, 1e-3)
        det = integrate_deterministic(spec, grid)
        record = BrownianRecord.generate(grid, replica_seed_sequence(7, 0), 8)
        values, _, post = fluctuation_trace(spec, det, record.w_increments)
        w = brownian_values(grid, record)
        assert np.all(post == 0.0)
        second = (grid.times >= 1.0) & (grid.times < 2.0)
        i1 = int(np.searchsorted(grid.times, 1.0))
        np.testing.assert_allclose(values[second], w[second] - w[i1], atol=1e-12)

    def test_linearity_in_driver(self, unit_setup):
        spec, grid, det, record = unit_setup
        other = BrownianRecord.generate(grid, replica_seed_sequence(43, 0), 8)
        v1, _, _ = fluctuation_trace(spec, det, record.w_increments)
        v2, _, _ = fluctuation_trace(spec, det, other.w_increments)
        v_sum, _, _ = fluctuation_trace(spec, det, record.w_increments + other.w_increments)
        v_scaled, _, _ = fluctuation_trace(spec, det, 3.0 * record.w_increments)
        np.testing.assert_allclose(v_sum, v1 + v2, atol=1e-12)
        np.testing.assert_allclose(v_scaled, 3.0 * v1, atol=1e-12)

    def test_increment_count_checked(self, unit_setup):
        spec, _, det, record = unit_setup
        with pytest.raises(AlignmentError):
            fluctuation_trace(spec, det, record.w_increments[:-10])


class TestFluctuationPath:
    def test_structure(self, unit_setup):
        spec, grid, det, record = unit_setup
        z = fluctuation_path(spec, det, record)
        assert z.dim == 1
        np.testing.assert_array_equal(z.jump_times, [1.0, 2.0])
        assert z.value_at(0.0)[0] == 0.0

    def test_grid_mismatch_rejected(self, unit_setup):
        spec, _, det, _ = unit_setup
        coarse = simulation_grid(1.0, 2.5, 2e-3)
        with pytest.raises(AlignmentError):
            fluctuation_path(spec, det,
                             BrownianRecord.generate(coarse, replica_seed_sequence(1, 0), 8))

    def test_missing_drift_derivative_rejected(self, unit_setup):
        _, grid, det, record = unit_setup
        bare = SystemSpec(drift=lambda r: np.full_like(np.asarray(r, dtype=float), 0.2),
                          drift_bound=0.2,
                          reset=lambda r: 0.5 * np.asarray(r, dtype=float),
                          reset_derivative=lambda r: np.full_like(np.asarray(r, dtype=float), 0.5),
                          reset_slope_bound=0.5, alpha=1.0, r0=1.0)
        with pytest.raises(ParameterError):
            fluctuation_path(bare, det, record)
        with pytest.raises(ParameterError):
            fluctuation_trace(bare, det, record.w_increments)


def first_order(spec, det, record, epsilon):
    values, pre, post = fluctuation_trace(spec, det, record.w_increments)
    return first_order_on_grid(spec, det, values, pre, post, epsilon)


class TestFirstOrderApproximation:
    def test_zero_epsilon_returns_deterministic(self, unit_setup):
        spec, _, det, record = unit_setup
        det_path = solution_to_path(spec, det)
        approx = first_order(spec, det, record, 0.0)
        for sa, sb in zip(approx.segments, det_path.segments):
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_zero_correction_returns_deterministic(self, unit_setup):
        spec, grid, det, _ = unit_setup
        det_path = solution_to_path(spec, det)
        zeros = np.zeros(grid.times.shape[0])
        approx = first_order_on_grid(spec, det, zeros, np.zeros(2), np.zeros(2), 0.3)
        for sa, sb in zip(approx.segments, det_path.segments):
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_composed_closed_form_at_interior_time(self, unit_setup):
        spec, grid, det, record = unit_setup
        eps = 0.1
        approx = first_order(spec, det, record, eps)
        w = brownian_values(grid, record)
        i1 = int(np.searchsorted(grid.times, 1.0))
        i15 = int(np.searchsorted(grid.times, 1.5))
        expected = 0.7 + eps * (0.5 * w[i1] + (w[i15] - w[i1]))
        assert approx.value_at(1.5)[0] == pytest.approx(expected, abs=1e-10)
        # the angular component is untouched by the correction
        assert approx.value_at(1.5)[1] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_array_equal(approx.jump_times, [1.0, 2.0])

    def test_negative_epsilon_rejected(self, unit_setup):
        spec, _, det, record = unit_setup
        with pytest.raises(ParameterError):
            first_order(spec, det, record, -0.1)

    def test_grid_mismatch_rejected(self, unit_setup):
        spec, _, det, record = unit_setup
        values, pre, post = fluctuation_trace(spec, det, record.w_increments)
        other_grid = simulation_grid(1.0, 2.5, 2e-3)
        other_det = integrate_deterministic(spec, other_grid)
        with pytest.raises(AlignmentError):
            first_order_on_grid(spec, other_det, values, pre, post, 0.1)
