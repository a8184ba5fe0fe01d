"""First-order correction: closed forms, coupling checks, approximation."""

import math

import numpy as np
import pytest

from impulselab import (
    BrownianRecord,
    DataError,
    NoiseParams,
    ParameterError,
    ResetModel,
    SystemSpec,
    constant_drift,
    first_order_on_grid,
    integrate_deterministic,
    linear_reset,
    replica_seed_sequence,
    saturating_reset,
    simulate_batch,
    simulation_grid,
    solution_to_path,
    table_drift,
    table_reset,
    tanh_drift,
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


def one_trace(spec, det, w_increments):
    """The trace of one (n_steps,) increment column, as 1-D arrays."""
    values, pre = fluctuation_trace(spec, det, w_increments[:, None])
    return values[:, 0], pre[:, 0]


class TestFluctuationTrace:
    def test_zero_drift_derivative_closed_form(self, unit_setup):
        spec, grid, det, record = unit_setup
        values, pre = one_trace(spec, det, record.w_increments)
        w = brownian_values(grid, record)
        first = grid.times < 1.0
        np.testing.assert_allclose(values[first], w[first], atol=1e-12)
        i1 = int(np.searchsorted(grid.times, 1.0))
        assert pre[0] == pytest.approx(w[i1], abs=1e-12)
        assert values[i1] == pytest.approx(0.5 * w[i1], abs=1e-12)
        second = (grid.times >= 1.0) & (grid.times < 2.0)
        np.testing.assert_allclose(values[second],
                                   0.5 * w[i1] + (w[second] - w[i1]), atol=1e-12)

    def test_null_driver(self, unit_setup):
        spec, grid, det, _ = unit_setup
        values, pre = one_trace(spec, det, np.zeros(grid.steps.shape[0]))
        assert np.all(values == 0.0)
        assert np.all(pre == 0.0)

    def test_annihilating_reset_restarts(self):
        drift = constant_drift(0.2)
        reset = ResetModel(fn=lambda r: np.asarray(r, dtype=float),
                           derivative=lambda r: np.zeros_like(np.asarray(r, dtype=float)))
        spec = SystemSpec.from_models(drift, reset, alpha=1.0, r0=1.0)
        grid = simulation_grid(1.0, 2.5, 1e-3)
        det = integrate_deterministic(spec, grid)
        record = BrownianRecord.generate(grid, replica_seed_sequence(7, 0), 8)
        values, _ = one_trace(spec, det, record.w_increments)
        w = brownian_values(grid, record)
        assert np.all(values[grid.boundary_indices] == 0.0)
        second = (grid.times >= 1.0) & (grid.times < 2.0)
        i1 = int(np.searchsorted(grid.times, 1.0))
        np.testing.assert_allclose(values[second], w[second] - w[i1], atol=1e-12)

    def test_linearity_in_driver(self, unit_setup):
        spec, grid, det, record = unit_setup
        other = BrownianRecord.generate(grid, replica_seed_sequence(43, 0), 8)
        v1, _ = one_trace(spec, det, record.w_increments)
        v2, _ = one_trace(spec, det, other.w_increments)
        v_sum, _ = one_trace(spec, det, record.w_increments + other.w_increments)
        v_scaled, _ = one_trace(spec, det, 3.0 * record.w_increments)
        np.testing.assert_allclose(v_sum, v1 + v2, atol=1e-12)
        np.testing.assert_allclose(v_scaled, 3.0 * v1, atol=1e-12)

    def test_table_model_matches_a_scalar_recursion(self):
        # The lln_cli_table model, with b' and h' taken by central differences
        # of the drift and reset themselves.
        drift = table_drift([(0, 0.25), (0.5, 0.22), (1, 0.2), (2, 0.15), (4, 0.1)])
        reset = table_reset([(0.25, 0.125), (0.5, 0.25), (1, 0.45), (2, 0.8)])
        spec = SystemSpec.from_models(drift, reset, alpha=np.pi / 2, r0=1.0)
        grid = simulation_grid(np.pi / 2, 4.0, 1e-3)
        det = integrate_deterministic(spec, grid)
        record = BrownianRecord.generate(grid, replica_seed_sequence(11, 0), 8)
        values, pre = one_trace(spec, det, record.w_increments)

        def slope(fn, r, h=1e-6):
            return float((fn(np.array([r + h])) - fn(np.array([r - h])))[0] / (2.0 * h))

        boundary = list(grid.boundary_indices)
        cur, want = 0.0, [0.0]
        for j, step in enumerate(grid.steps):
            cur = (1.0 + slope(drift.fn, det.r_values[j]) * step) * cur + record.w_increments[j]
            if j + 1 in boundary:
                k = boundary.index(j + 1)
                assert pre[k] == pytest.approx(cur, rel=1e-6, abs=1e-9)
                cur *= slope(reset.fn, det.pre_radii[k])
                assert values[j + 1] == pytest.approx(cur, rel=1e-6, abs=1e-9)
            want.append(cur)
        np.testing.assert_allclose(values, want, rtol=1e-6, atol=1e-9)

    def test_increment_count_checked(self, unit_setup):
        spec, _, det, record = unit_setup
        with pytest.raises(DataError, match=r"\(n_steps, M\) columns"):
            fluctuation_trace(spec, det, record.w_increments[:-10, None])
        with pytest.raises(DataError, match=r"\(n_steps, M\) columns"):
            fluctuation_trace(spec, det, record.w_increments)


class TestFluctuationPath:
    def test_structure(self, unit_setup):
        spec, grid, det, record = unit_setup
        z = fluctuation_path(spec, det, record.w_increments)
        assert z.dim == 1
        np.testing.assert_array_equal(z.jump_times, [1.0, 2.0])
        assert z.value_at(0.0)[0] == 0.0

    def test_grid_mismatch_rejected(self, unit_setup):
        spec, _, det, _ = unit_setup
        coarse = simulation_grid(1.0, 2.5, 2e-3)
        with pytest.raises(DataError, match=r"\(n_steps, M\) columns"):
            fluctuation_path(spec, det, BrownianRecord.generate(
                coarse, replica_seed_sequence(1, 0), 8).w_increments)


def first_order(spec, det, record, epsilon):
    values, pre = one_trace(spec, det, record.w_increments)
    return first_order_on_grid(det, values, pre, epsilon)


class TestFirstOrderApproximation:
    def test_zero_epsilon_returns_deterministic(self, unit_setup):
        spec, _, det, record = unit_setup
        det_path = solution_to_path(det)
        approx = first_order(spec, det, record, 0.0)
        for sa, sb in zip(approx.segments, det_path.segments):
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_zero_correction_returns_deterministic(self, unit_setup):
        spec, grid, det, _ = unit_setup
        det_path = solution_to_path(det)
        zeros = np.zeros(grid.times.shape[0])
        approx = first_order_on_grid(det, zeros, np.zeros(2), 0.3)
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
        values, pre = one_trace(spec, det, record.w_increments)
        other_grid = simulation_grid(1.0, 2.5, 2e-3)
        other_det = integrate_deterministic(spec, other_grid)
        with pytest.raises(DataError, match="different grids"):
            first_order_on_grid(other_det, values, pre, 0.1)


def variance_equation(b, db, h, dh, alpha, r0, horizon, dt):
    """Var(Z(horizon)) from dV = (2 b'(x) V + 1) dt with V(0) = 0 and
    V -> h'(x-)^2 V at each impulse k*alpha, where x solves dx = b(x) dt,
    x -> h(x-): RK4 on (x, V), with steps that land on each impulse time."""
    def rhs(x, v):
        return b(x), 2.0 * db(x) * v + 1.0

    x, v, start = r0, 0.0, 0.0
    while start < horizon:
        end = min(start + alpha, horizon)
        n = math.ceil((end - start) / dt)
        step = (end - start) / n
        for _ in range(n):
            k1 = rhs(x, v)
            k2 = rhs(x + step / 2 * k1[0], v + step / 2 * k1[1])
            k3 = rhs(x + step / 2 * k2[0], v + step / 2 * k2[1])
            k4 = rhs(x + step * k3[0], v + step * k3[1])
            x += step / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            v += step / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        if end < horizon:
            x, v = h(x), dh(x) ** 2 * v
        start = end
    return v


# Each system as (package models, closed-form b, b', h, h' for the reference).
VARIANCE_SYSTEMS = {
    "acceptance": (constant_drift(0.2), linear_reset(0.5),
                   lambda x: 0.2, lambda x: 0.0, lambda x: 0.5 * x, lambda x: 0.5),
    "curved": (tanh_drift(0.5), saturating_reset(1.5),
               lambda x: 0.5 * math.tanh(x), lambda x: 0.5 / math.cosh(x) ** 2,
               lambda x: 1.5 * x / (1.0 + abs(x)), lambda x: 1.5 / (1.0 + abs(x)) ** 2),
}
VARIANCE_SEED, VARIANCE_REPLICAS, VARIANCE_CHUNK = 0, 4000, 1000


@pytest.fixture(scope="module")
def final_corrections():
    """Z(T) of every replica on each system at T = 4, dt = 1e-3. Both wedges
    are quarter turns, so one draw of radial increments drives both traces."""
    alpha, horizon, dt = np.pi / 2, 4.0, 1e-3
    grid = simulation_grid(alpha, horizon, dt)
    specs = {name: SystemSpec.from_models(drift, reset, alpha=alpha, r0=1.0)
             for name, (drift, reset, *_) in VARIANCE_SYSTEMS.items()}
    dets = {name: integrate_deterministic(spec, grid) for name, spec in specs.items()}
    finals = {name: [] for name in specs}
    for offset in range(0, VARIANCE_REPLICAS, VARIANCE_CHUNK):
        batch = simulate_batch(specs["acceptance"], NoiseParams(epsilon=0.1, p=2.0), horizon,
                               dt, VARIANCE_SEED, VARIANCE_CHUNK, replica_offset=offset,
                               store_increments=True)
        for name, spec in specs.items():
            finals[name].append(fluctuation_trace(spec, dets[name], batch.w_increments)[0][-1])
        del batch
    return {name: np.concatenate(z) for name, z in finals.items()}


@pytest.mark.parametrize("name", list(VARIANCE_SYSTEMS))
def test_final_variance_solves_the_variance_equation(final_corrections, name):
    reference = variance_equation(*VARIANCE_SYSTEMS[name][2:], alpha=np.pi / 2, r0=1.0,
                                  horizon=4.0, dt=1e-3)
    z = final_corrections[name]
    se = reference * math.sqrt(2.0 / (z.shape[0] - 1))
    assert abs(np.var(z, ddof=1) - reference) < 3.0 * se, (np.var(z, ddof=1), reference, se)
