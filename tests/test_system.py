"""Deterministic impulsive dynamics: spec validation and integration."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impulselab import (
    HorizonError,
    ParameterError,
    ResolutionError,
    SystemSpec,
    constant_drift,
    deterministic_trajectory,
    integrate_deterministic,
    linear_reset,
    saturating_reset,
    simulation_grid,
    table_drift,
    table_reset,
    tanh_drift,
)


@pytest.fixture
def halving_unit_spec() -> SystemSpec:
    return SystemSpec.from_models(constant_drift(0.2), linear_reset(0.5), alpha=1.0, r0=1.0)


class TestSystemSpecValidation:
    def test_alpha_range(self):
        for alpha in (0.0, -1.0, 2 * np.pi, 7.0):
            with pytest.raises(ParameterError):
                SystemSpec.from_models(constant_drift(0.1), linear_reset(0.5),
                                       alpha=alpha, r0=1.0)

    def test_initial_radius_positive(self):
        with pytest.raises(ParameterError):
            SystemSpec.from_models(constant_drift(0.1), linear_reset(0.5),
                                   alpha=1.0, r0=0.0)

    @staticmethod
    def spec_with_reset(reset):
        return SystemSpec(drift=lambda r: np.zeros_like(r),
                          drift_derivative=lambda r: np.zeros_like(r),
                          reset=reset,
                          reset_derivative=lambda r: np.ones_like(np.asarray(r, dtype=float)),
                          alpha=1.0, r0=1.0)

    def test_reset_must_fix_origin(self):
        for reset in (lambda r: np.asarray(r, dtype=float) + 1.0,
                      lambda r: np.asarray(r, dtype=float) + np.nan):
            with pytest.raises(ParameterError, match="fix the origin"):
                self.spec_with_reset(reset)

    def test_reset_must_increase(self):
        for reset in (lambda r: -np.asarray(r, dtype=float),
                      lambda r: np.where(np.asarray(r) > 1.0, np.nan, r)):
            with pytest.raises(ParameterError, match="strictly increasing"):
                self.spec_with_reset(reset)

    def test_zero_drift_allowed(self):
        spec = SystemSpec.from_models(constant_drift(0.0), linear_reset(1.0),
                                      alpha=1.0, r0=1.0)
        assert spec.drift(1.0) == 0.0


class TestDeterministicTrajectory:
    def test_zero_drift_identity_reset(self):
        spec = SystemSpec.from_models(constant_drift(0.0), linear_reset(1.0),
                                      alpha=1.0, r0=1.0)
        path = deterministic_trajectory(spec, horizon=2.5, dt=1e-3)
        for t in (0.3, 0.999, 1.0, 1.7, 2.499):
            assert path.value_at(t)[0] == pytest.approx(1.0, abs=1e-12)
        # angular sawtooth: theta(t) = t - floor(t)
        assert path.value_at(1.5)[1] == pytest.approx(0.5, abs=1e-12)
        assert path.value_at(1.0, side="left")[1] == pytest.approx(1.0, abs=1e-12)
        assert path.value_at(1.0, side="right")[1] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_array_equal(path.jump_times, [1.0, 2.0])

    def test_hand_integrated_exemplar(self, halving_unit_spec):
        path = deterministic_trajectory(halving_unit_spec, horizon=2.5, dt=1e-3)
        np.testing.assert_allclose(path.values_at(path.jump_times, "left")[:, 0], [1.2, 0.8],
                                   atol=1e-10)
        np.testing.assert_allclose(path.values_at(path.jump_times, "right")[:, 0], [0.6, 0.4],
                                   atol=1e-10)
        assert path.value_at(2.5)[0] == pytest.approx(0.5, abs=1e-10)
        assert path.value_at(1.0, side="left")[0] == pytest.approx(1.2, abs=1e-10)
        assert path.value_at(1.0, side="right")[0] == pytest.approx(0.6, abs=1e-10)

    def test_two_impulses_recorded(self, halving_unit_spec):
        path = deterministic_trajectory(halving_unit_spec, horizon=2.5, dt=1e-3)
        assert path.jump_times.shape[0] == 2

    def test_impulse_times_exact(self):
        spec = SystemSpec.from_models(tanh_drift(0.5), linear_reset(0.7),
                                      alpha=np.pi / 2, r0=1.0)
        path = deterministic_trajectory(spec, horizon=4.0, dt=1e-3)
        np.testing.assert_array_equal(path.jump_times, np.pi / 2 * np.arange(1, 3))

    def test_post_equals_reset_of_pre(self):
        spec = SystemSpec.from_models(tanh_drift(0.5), saturating_reset(2.0),
                                      alpha=1.0, r0=1.0)
        path = deterministic_trajectory(spec, horizon=3.5, dt=1e-3)
        pre = path.values_at(path.jump_times, "left")[:, 0]
        post = path.values_at(path.jump_times, "right")[:, 0]
        np.testing.assert_allclose(post, spec.reset(pre), atol=1e-12)

    def test_richardson_fourth_order(self):
        spec = SystemSpec.from_models(tanh_drift(0.5), linear_reset(0.7),
                                      alpha=1.0, r0=1.0)
        vals = []
        for dt in (4e-3, 2e-3, 1e-3):
            path = deterministic_trajectory(spec, horizon=2.5, dt=dt)
            vals.append(path.value_at(2.5)[0])
        ratio = (vals[0] - vals[1]) / (vals[1] - vals[2])
        assert 16.0 * 0.7 <= abs(ratio) <= 16.0 * 1.3

    def test_contraction_of_resets(self):
        spec = SystemSpec.from_models(constant_drift(0.0), linear_reset(0.5),
                                      alpha=1.0, r0=2.0)
        path = deterministic_trajectory(spec, horizon=6.3, dt=1e-3)
        sup = max(float(np.max(np.abs(seg.values[:, 0]))) for seg in path.segments)
        assert sup <= 2.0 + 1e-12

    def test_horizon_on_impulse_rejected(self, halving_unit_spec):
        with pytest.raises(HorizonError):
            deterministic_trajectory(halving_unit_spec, horizon=2.0, dt=1e-3)

    def test_horizon_before_first_impulse_rejected(self, halving_unit_spec):
        with pytest.raises(HorizonError):
            deterministic_trajectory(halving_unit_spec, horizon=0.5, dt=1e-3)

    @pytest.mark.parametrize("horizon, dt, error", [
        (np.nan, 1e-3, HorizonError), (np.inf, 1e-3, HorizonError), (2.5, np.nan, ResolutionError),
    ])
    def test_grid_rejects_values_that_are_not_finite(self, horizon, dt, error):
        with pytest.raises(error):
            simulation_grid(1.0, horizon, dt)

    def test_coarse_step_rejected(self, halving_unit_spec):
        with pytest.raises(ResolutionError):
            deterministic_trajectory(halving_unit_spec, horizon=2.5, dt=0.02)

    def test_path_jump_times_match_schedule(self, halving_unit_spec):
        # The jumps are the grid's impulse times, and their one-sided limits
        # the integrator's pre/post radii, bit for bit.
        path = deterministic_trajectory(halving_unit_spec, horizon=2.5, dt=1e-3)
        grid = simulation_grid(1.0, 2.5, 1e-3)
        sol = integrate_deterministic(halving_unit_spec, grid)
        np.testing.assert_array_equal(path.jump_times, grid.impulse_times())
        np.testing.assert_array_equal(path.values_at(path.jump_times, "left")[:, 0],
                                      sol.pre_radii)
        np.testing.assert_array_equal(path.values_at(path.jump_times, "right")[:, 0],
                                      sol.post_radii)


# sha256 of `integrate_deterministic(...).r_values.tobytes()` at alpha = pi/2,
# r0 = 1, T = 4, dt = 1e-3, recorded when every drift call still went through
# the array path.
_PINNED_R_VALUES = {
    "table": "9f8ff670bcd38b5bf6eabb26fe79848122f865b3fce8b55afeefaa06c347b432",
    "acceptance": "d63318989481c6ed7365faa6038113d22a44b15ed89f47f0d50fd83236cd8102",
}


@pytest.mark.parametrize("model", sorted(_PINNED_R_VALUES))
def test_rk4_solution_is_pinned(model):
    if model == "table":
        drift = table_drift([(0, 0.25), (0.5, 0.22), (1, 0.2), (2, 0.15), (4, 0.1)])
        reset = table_reset([(0.25, 0.125), (0.5, 0.25), (1, 0.45), (2, 0.8)])
    else:
        drift, reset = constant_drift(0.2), linear_reset(0.5)
    spec = SystemSpec.from_models(drift, reset, alpha=np.pi / 2, r0=1.0)
    # The same system with every drift call forced through the array path.
    forced = dataclasses.replace(
        spec, drift=lambda r: drift.fn(np.atleast_1d(r)).reshape(np.shape(r)))
    grid = simulation_grid(np.pi / 2, 4.0, 1e-3)
    sol, ref = integrate_deterministic(spec, grid), integrate_deterministic(forced, grid)
    for name in ("r_values", "pre_radii", "post_radii"):
        np.testing.assert_array_equal(getattr(sol, name).view(np.int64),
                                      getattr(ref, name).view(np.int64))
    assert hashlib.sha256(sol.r_values.tobytes()).hexdigest() == _PINNED_R_VALUES[model]


class TestTableModels:
    def test_table_spec_integrates(self):
        drift = table_drift([(-2.0, -0.3), (0.0, 0.0), (1.0, 0.15), (2.0, 0.25), (3.0, 0.3)])
        reset = table_reset([(0.0, 0.0), (0.5, 0.2), (1.0, 0.45), (2.0, 0.8), (3.0, 1.1)])
        spec = SystemSpec.from_models(drift, reset, alpha=1.0, r0=1.0)
        path = deterministic_trajectory(spec, horizon=2.5, dt=1e-3)
        assert path.jump_times.shape[0] == 2
        assert np.isfinite(path.value_at(2.5)[0])

    def test_table_values_reproduced(self):
        drift = table_drift([(0.0, 0.0), (1.0, 0.15), (2.0, 0.25)])
        np.testing.assert_allclose(drift.fn(np.array([0.0, 1.0, 2.0])),
                                   [0.0, 0.15, 0.25], atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(start=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
           table=st.lists(st.tuples(st.floats(1e-3, 3.0),
                                    st.one_of(st.just(-0.0),
                                              st.integers(-2000, 2000).map(lambda k: k / 1000))),
                          min_size=2, max_size=12),
           c=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
           randoms=st.lists(st.floats(-20.0, 20.0), max_size=20))
    # A -0.0 value at a 0.0 abscissa, queried at -0.0: scipy's sum gives +0.0.
    @example(start=0.0, table=[(1.0, -0.0), (1.0, 1.0), (1.0, -1.0)], c=0.0, randoms=[])
    def test_float_path_matches_array_path(self, start, table, c, randoms):
        # Gaps of at least 1e-3 keep the abscissae strictly increasing; the
        # first pair's gap is unused.
        xs = (start + np.cumsum([0.0] + [g for g, _ in table[1:]])).tolist()
        drift = table_drift(zip(xs, [y for _, y in table]))
        queries = [*xs, *np.nextafter(xs, -np.inf), *np.nextafter(xs, np.inf), -0.0,
                   xs[0] - 1.0, xs[-1] + 1.0, -1e300, 1e300, np.nan, *randoms]
        for model in (drift, constant_drift(c)):
            for q in queries:
                expected = model.fn(np.array([q]))[0]
                for arg in (float(q), np.float64(q)):
                    got = model.fn(arg)
                    assert isinstance(got, float)
                    if np.isnan(expected):
                        assert np.isnan(got), (q, arg)
                    else:
                        assert np.float64(got).view(np.int64) == expected.view(np.int64), (q, arg)

    def test_table_drift_derivative(self):
        # The lln_cli_table drift: the derivative is the slope of the
        # interpolant inside the table hull [0, 4] and 0 where it is clamped.
        drift = table_drift([(0, 0.25), (0.5, 0.22), (1, 0.2), (2, 0.15), (4, 0.1)])
        r = np.linspace(0.01, 3.99, 200)
        h = 1e-6
        central = (drift.fn(r + h) - drift.fn(r - h)) / (2.0 * h)
        np.testing.assert_allclose(drift.derivative(r), central, rtol=0.0, atol=1e-7)
        outside = np.array([-3.0, -1e-3, 4.001, 10.0])
        assert np.all(drift.derivative(outside) == 0.0)

    def test_saturating_reset_derivative(self):
        # The |r| kink puts the central difference 1.5e-6 off at r = 0.
        reset = saturating_reset(1.5)
        r = np.array([-3.0, -0.5, 0.0, 0.2, 1.0, 4.0])
        h = 1e-6
        central = (reset.fn(r + h) - reset.fn(r - h)) / (2.0 * h)
        np.testing.assert_allclose(reset.derivative(r), central, rtol=0.0, atol=1e-5)

    def test_reset_table_odd_extension(self):
        reset = table_reset([(0.0, 0.0), (1.0, 0.45), (3.0, 1.1)])
        r = np.array([-4.0, -0.7, 0.7, 4.0])
        np.testing.assert_allclose(reset.fn(-r), -reset.fn(r), atol=1e-12)

    def test_reset_table_increasing_everywhere(self):
        reset = table_reset([(0.0, 0.0), (0.5, 0.2), (1.0, 0.45), (3.0, 1.1)])
        r = np.linspace(-10.0, 10.0, 2001)
        assert np.all(np.diff(reset.fn(r)) > 0)

    def test_short_table_rejected(self):
        with pytest.raises(ParameterError):
            table_drift([(0.0, 0.0)])

    def test_reset_table_must_anchor_origin(self):
        with pytest.raises(ParameterError):
            table_reset([(0.0, 0.1), (1.0, 0.5)])

    def test_reset_table_must_increase(self):
        with pytest.raises(ParameterError):
            table_reset([(0.0, 0.0), (1.0, 0.5), (2.0, 0.4)])


def _scipy_drift(points):
    """`table_drift`'s arithmetic on scipy's `PchipInterpolator`: the oracle it
    must match bit for bit."""
    from scipy.interpolate import PchipInterpolator

    xs, ys = (np.array(v, dtype=float) for v in zip(*sorted(points)))
    interp = PchipInterpolator(xs, ys, extrapolate=False)
    slope = interp.derivative()
    lo, hi = xs[0], xs[-1]
    return (lambda q: interp(np.clip(q, lo, hi)),
            lambda q: np.where((q >= lo) & (q <= hi), slope(np.clip(q, lo, hi)), 0.0))


def _scipy_reset(points):
    """`table_reset`'s arithmetic on scipy's `PchipInterpolator`, and its knots."""
    from scipy.interpolate import PchipInterpolator

    xs, ys = (np.array(v, dtype=float) for v in zip(*sorted(points)))
    if xs[0] > 0:
        xs, ys = np.concatenate([[0.0], xs]), np.concatenate([[0.0], ys])
    # The odd extension through the origin, mirrored as `table_reset` does.
    interp = PchipInterpolator(np.concatenate([-xs[::-1], xs[1:]]),
                               np.concatenate([-ys[::-1], ys[1:]]))
    slope = interp.derivative()
    hi, hi_val = xs[-1], ys[-1]
    tail = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    return (lambda q: np.where(np.abs(q) <= hi, interp(np.clip(q, -hi, hi)),
                               np.sign(q) * (hi_val + (np.abs(q) - hi) * tail)),
            lambda q: np.where(np.abs(q) <= hi, slope(np.clip(q, -hi, hi)), tail),
            interp.x)


def _queries(knots):
    knots = np.asarray(knots, dtype=float)
    lo, hi = knots.min(), knots.max()
    return np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                           [-0.0, 0.0, lo - 1.0, hi + 1.0, -hi - 1.0, -1e300, 1e300, np.nan]])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


# Table values: the small set makes flat segments, sign changes and -0.0 common.
_VALUES = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5]),
                    st.integers(-2000, 2000).map(lambda k: k / 1000))


class TestTableModelsMatchScipy:
    @settings(max_examples=150, deadline=None)
    @given(start=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
           drift_table=st.lists(st.tuples(st.floats(1e-3, 3.0), _VALUES), min_size=2, max_size=12),
           reset_table=st.lists(st.tuples(st.floats(1e-3, 3.0), st.floats(1e-3, 3.0)),
                                min_size=1, max_size=11),
           reset_at_origin=st.booleans())
    # Two and three points; a -0.0 value at a 0.0 abscissa, whose sum at -0.0
    # scipy starts from +0.0; then Moler's end derivative set to 0 (its sign
    # differs from the end slope) and set to 3 times the end slope (the two end
    # slopes differ in sign and it exceeds that).
    @example(start=0.0, drift_table=[(1.0, -0.0), (1.0, 1.0)],
             reset_table=[(1.0, 1.0)], reset_at_origin=True)
    @example(start=-1.0, drift_table=[(1.0, 0.0), (1.0, -0.0), (1.0, 0.0)],
             reset_table=[(1.0, 1.0), (0.5, 0.5)], reset_at_origin=False)
    @example(start=0.0, drift_table=[(1.0, -0.0), (1.0, 1.0), (1.0, -1.0)],
             reset_table=[(1.0, 1.0)], reset_at_origin=True)
    @example(start=0.0, drift_table=[(1.0, 0.0), (1.0, 1.0), (1.0, 6.0)],
             reset_table=[(1.0, 1.0), (1.0, 5.0)], reset_at_origin=True)
    @example(start=0.0, drift_table=[(1.0, 0.0), (1.0, 1.0), (1.0, -4.0), (1.0, -4.0)],
             reset_table=[(1.0, 1.0), (1.0, 5.0)], reset_at_origin=False)
    def test_fit_and_evaluation_are_scipys(self, start, drift_table, reset_table,
                                           reset_at_origin):
        # Gaps of at least 1e-3 keep the abscissae strictly increasing; the
        # first drift gap is unused.
        xs = (start + np.cumsum([0.0] + [g for g, _ in drift_table[1:]])).tolist()
        drift_points = list(zip(xs, [y for _, y in drift_table]))
        rx, ry = (np.cumsum(v).tolist() for v in zip(*reset_table))
        reset_points = list(zip(rx, ry))
        if reset_at_origin or len(reset_points) == 1:
            reset_points = [(0.0, 0.0), *reset_points]
        want_b, want_db = _scipy_drift(drift_points)
        want_h, want_dh, mirrored = _scipy_reset(reset_points)
        drift, reset = table_drift(drift_points), table_reset(reset_points)

        q = _queries(xs)
        np.testing.assert_array_equal(_bits(drift.fn(q)), _bits(want_b(q)))
        np.testing.assert_array_equal(_bits(drift.derivative(q)), _bits(want_db(q)))
        np.testing.assert_array_equal(_bits([drift.fn(float(x)) for x in q]), _bits(want_b(q)))

        q = _queries(mirrored)
        np.testing.assert_array_equal(_bits(reset.fn(q)), _bits(want_h(q)))
        np.testing.assert_array_equal(_bits(reset.derivative(q)), _bits(want_dh(q)))

    @pytest.mark.parametrize("ys, want", [((0.0, 1.0, 2.0), 1.0), ((0.0, 1.0, 6.0), 0.0),
                                          ((0.0, 1.0, -4.0), 3.0)])
    def test_end_derivative_branches(self, ys, want):
        # At unit spacing the one-sided estimate is (3*m0 - m1)/2 = 1, -1 and 4.
        drift = table_drift(zip((0.0, 1.0, 2.0), ys))
        assert drift.derivative(np.array([0.0]))[0] == want
