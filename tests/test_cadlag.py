"""Path containers, time distortions, and Skorohod-type distances."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impulselab import (
    CadlagPath,
    DataError,
    ParameterError,
    TimeDistortion,
    aligning_cost_bound,
    aligning_slope_deviation_bound,
    build_aligning_distortion,
    distortion_cost,
    read_path_csv,
    skorohod_oracle,
    skorohod_upper,
    uniform_distance,
    write_path_csv,
)


def step_path(jump: float, height: float, horizon: float = 1.0) -> CadlagPath:
    seg1 = (np.array([0.0, jump]), np.array([0.0, 0.0]))
    seg2 = (np.array([jump, horizon]), np.array([height, height]))
    return CadlagPath([seg1, seg2])


def constant_path(value: float, horizon: float = 1.0, dim: int = 1) -> CadlagPath:
    vals = np.full((2, dim), value)
    return CadlagPath([(np.array([0.0, horizon]), vals)])


@st.composite
def cadlag_paths(draw, horizon: float, dim: int, values=st.floats(-1e3, 1e3)) -> CadlagPath:
    """Random paths on [0, horizon] with up to three jumps."""
    cuts = sorted(draw(st.sets(st.integers(1, 99), max_size=3)))
    bounds = [0.0, *(horizon * c / 100 for c in cuts), horizon]
    segments = []
    for start, end in zip(bounds[:-1], bounds[1:]):
        n = draw(st.integers(2, 5))
        samples = draw(st.lists(values, min_size=n * dim, max_size=n * dim))
        segments.append((np.linspace(start, end, n), np.reshape(samples, (n, dim))))
    return CadlagPath(segments)


@st.composite
def distortions(draw, horizon: float) -> TimeDistortion:
    """Random piecewise-linear increasing bijections of [0, horizon]."""
    n = draw(st.integers(0, 3))
    inner = st.lists(st.integers(1, 99), min_size=n, max_size=n, unique=True)
    times = [0.0, *(horizon * c / 100 for c in sorted(draw(inner))), horizon]
    images = [0.0, *(horizon * c / 100 for c in sorted(draw(inner))), horizon]
    return TimeDistortion(np.array(times), np.array(images))


@st.composite
def path_pairs(draw):
    horizon = draw(st.floats(0.5, 10.0))
    dim = draw(st.integers(1, 2))
    return horizon, draw(cadlag_paths(horizon, dim)), draw(cadlag_paths(horizon, dim))


class TestCadlagPath:
    def test_left_and_right_limits_at_jump(self):
        path = step_path(0.4, 1.0)
        assert path.value_at(0.4, side="left")[0] == 0.0
        assert path.value_at(0.4, side="right")[0] == 1.0
        with pytest.raises(ParameterError):
            path.values_at([0.4], side="middle")

    def test_segments_must_tile_interval(self):
        with pytest.raises(DataError, match="must tile"):
            CadlagPath(
                [
                    (np.array([0.0, 0.3]), np.array([0.0, 0.0])),
                    (np.array([0.5, 1.0]), np.array([1.0, 1.0])),
                ],
            )

    def test_first_segment_must_start_at_zero(self):
        with pytest.raises(DataError, match="start at time 0"):
            CadlagPath([(np.array([0.1, 1.0]), np.array([0.0, 0.0]))])

    def test_jump_times_must_match_segment_starts(self):
        seg1 = (np.array([0.0, 0.4]), np.array([0.0, 0.0]))
        seg2 = (np.array([0.4, 1.0]), np.array([1.0, 1.0]))
        path = CadlagPath([seg1, seg2])
        np.testing.assert_array_equal(path.jump_times, [0.4])
        assert path.horizon == 1.0

    def test_interpolation_within_segment(self):
        path = CadlagPath([(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 0.0]))])
        assert path.value_at(0.5)[0] == pytest.approx(1.0)
        assert path.value_at(1.5)[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("segments, message", [
        ([([0.0], [1.0])], "must end after time 0"),
        ([([0.0, 0.5, 1.0], [0.0, 0.0])], "disagree in length"),
        ([([0.0, 0.5, 0.5, 1.0], [0.0, 0.0, 0.0, 0.0])], "strictly increasing"),
        ([], "at least one segment"),
        ([([0.0, 0.5], [[0.0], [0.0]]), ([0.5, 1.0], [[1.0, 1.0], [1.0, 1.0]])],
         "state dimension"),
        ([([0.0, 0.5], [0.0, 0.0]), ([0.5], [1.0]), ([0.5, 1.0], [2.0, 2.0])],
         "only the terminal segment"),
    ], ids=["zero horizon", "lengths", "order", "no segments", "dimensions",
            "inner point segment"])
    def test_malformed_segments_rejected(self, segments, message):
        segments = [(np.array(t), np.array(v)) for t, v in segments]
        with pytest.raises(DataError, match=message):
            CadlagPath(segments)


class TestTimeDistortion:
    def test_identity_has_zero_cost(self):
        lam = TimeDistortion.identity(4.0)
        assert distortion_cost(lam) == 0.0

    def test_three_knot_example_cost(self):
        lam = TimeDistortion(
            np.array([0.0, 1.0, 2.0, 2.5]), np.array([0.0, 1.05, 1.98, 2.5])
        )
        np.testing.assert_allclose(lam.slopes(), [1.05, 0.93, 1.04])
        assert distortion_cost(lam) == pytest.approx(abs(math.log(0.93)), abs=1e-12)
        assert distortion_cost(lam) == pytest.approx(0.072571, abs=1e-6)

    def test_two_interval_example_cost(self):
        lam = TimeDistortion(np.array([0.0, 0.4, 1.0]), np.array([0.0, 0.5, 1.0]))
        assert distortion_cost(lam) == pytest.approx(math.log(1.25), abs=1e-12)

    def test_nonincreasing_knots_rejected(self):
        with pytest.raises(DataError, match="must strictly increase"):
            TimeDistortion(np.array([0.0, 0.5, 0.4, 1.0]), np.array([0.0, 0.3, 0.6, 1.0]))
        with pytest.raises(DataError, match="must strictly increase"):
            TimeDistortion(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.0, 1.0]))

    def test_must_fix_endpoints(self):
        with pytest.raises(DataError, match=">= 2 knots"):
            TimeDistortion(np.array([0.0]), np.array([0.0]))
        with pytest.raises(DataError, match="fix time 0"):
            TimeDistortion(np.array([0.0, 1.0]), np.array([0.1, 1.0]))
        with pytest.raises(DataError, match="fix the horizon"):
            TimeDistortion(np.array([0.0, 1.0]), np.array([0.0, 0.9]))

    def test_apply_inverse_round_trip(self):
        lam = TimeDistortion(np.array([0.0, 1.0, 2.5]), np.array([0.0, 1.2, 2.5]))
        ts = np.linspace(0.0, 2.5, 11)
        np.testing.assert_allclose(lam.inverse(lam.apply(ts)), ts, atol=1e-12)


class TestSkorohodUpper:
    def test_identical_paths_identity_distortion(self):
        path = step_path(0.4, 1.0)
        assert skorohod_upper(path, path, TimeDistortion.identity(1.0)) == 0.0

    def test_constant_offset(self):
        x1 = constant_path(0.0)
        x2 = constant_path(3.0)
        assert uniform_distance(x1, x2) == pytest.approx(3.0, abs=1e-12)

    def test_aligned_steps_cost_only(self):
        x1 = step_path(0.4, 1.0)
        x2 = step_path(0.5, 1.0)
        lam = TimeDistortion(np.array([0.0, 0.4, 1.0]), np.array([0.0, 0.5, 1.0]))
        assert skorohod_upper(x1, x2, lam) == pytest.approx(math.log(1.25), abs=1e-12)

    def test_identity_equals_uniform_distance(self):
        x1 = step_path(0.4, 1.0)
        x2 = step_path(0.5, 1.0)
        assert uniform_distance(x1, x2) == pytest.approx(1.0, abs=1e-12)
        assert skorohod_upper(x1, x2, TimeDistortion.identity(1.0)) == uniform_distance(x1, x2)

    def test_euclidean_norm_on_components(self):
        vals = np.array([[0.0, 0.0], [0.0, 0.0]])
        x1 = CadlagPath([(np.array([0.0, 1.0]), vals)])
        x2 = CadlagPath([(np.array([0.0, 1.0]), vals + np.array([3.0, 4.0]))])
        assert uniform_distance(x1, x2) == pytest.approx(5.0, abs=1e-12)

    def test_mismatched_horizon_rejected(self):
        with pytest.raises(DataError, match="same horizon"):
            skorohod_upper(constant_path(0.0, 1.0), constant_path(0.0, 2.0),
                           TimeDistortion.identity(1.0))
        with pytest.raises(DataError, match="distortion horizon"):
            skorohod_upper(constant_path(0.0, 1.0), constant_path(0.0, 1.0),
                           TimeDistortion.identity(2.0))

    def test_mismatched_dimension_rejected(self):
        with pytest.raises(DataError, match="same state dimension"):
            skorohod_upper(constant_path(0.0, dim=1), constant_path(0.0, dim=2),
                           TimeDistortion.identity(1.0))

    @settings(max_examples=50, deadline=None)
    @given(pair=path_pairs(), data=st.data())
    def test_upper_bound_dominates_distortion_cost(self, pair, data):
        horizon, x1, x2 = pair
        lam = data.draw(distortions(horizon))
        assert skorohod_upper(x1, x2, lam) >= distortion_cost(lam)

    @settings(max_examples=50, deadline=None)
    @given(pair=path_pairs())
    def test_uniform_distance_is_symmetric(self, pair):
        _, x1, x2 = pair
        assert uniform_distance(x1, x2) == uniform_distance(x2, x1)

    def test_upper_bound_dominates_oracle(self):
        x1 = step_path(0.3, 1.0)
        x2 = step_path(0.6, 0.8)
        oracle = skorohod_oracle(x1, x2)
        for images in (0.45, 0.6, 0.75):
            lam = TimeDistortion(np.array([0.0, 0.3, 1.0]), np.array([0.0, images, 1.0]))
            assert skorohod_upper(x1, x2, lam) >= oracle >= 0.0


class TestSkorohodOracle:
    def test_identical_paths(self):
        path = step_path(0.4, 1.0)
        assert skorohod_oracle(path, path) <= 1e-12

    def test_step_alignment_instance(self):
        x1 = step_path(0.4, 1.0)
        x2 = step_path(0.5, 1.0)
        assert skorohod_oracle(x1, x2) == pytest.approx(math.log(1.25), abs=1e-3)

    def test_unequal_heights_instance(self):
        x1 = step_path(0.4, 1.0)
        x2 = step_path(0.5, 1.1)
        assert skorohod_oracle(x1, x2) == pytest.approx(math.log(1.25), abs=1e-3)

    def test_symmetry_within_tolerance(self):
        x1 = step_path(0.4, 1.0)
        x2 = step_path(0.5, 1.1)
        a = skorohod_oracle(x1, x2, resolution=64)
        b = skorohod_oracle(x2, x1, resolution=64)
        assert abs(a - b) <= 1e-2

    def test_nonincreasing_in_resolution(self):
        x1 = step_path(0.35, 1.0)
        x2 = step_path(0.55, 0.9)
        coarse = skorohod_oracle(x1, x2, resolution=8)
        fine = skorohod_oracle(x1, x2, resolution=32)
        assert fine <= coarse + 1e-12

    def test_too_many_jumps_guarded(self):
        times = np.linspace(0.0, 1.0, 13)
        segs = []
        for k in range(6):
            t = np.array([times[2 * k], times[2 * k + 2]])
            segs.append((t, np.array([float(k), float(k)])))
        ragged = CadlagPath([(np.array([0.0, 1.0]), np.array([0.0, 0.0]))])
        many = CadlagPath(segs)
        with pytest.raises(DataError, match="at most 4 jumps"):
            skorohod_oracle(many, ragged)

    def test_large_resolution_refused_before_allocating(self):
        x1, x2 = step_path(0.4, 1.0), step_path(0.5, 1.0)
        assert skorohod_oracle(x1, x2, resolution=4096) == pytest.approx(math.log(1.25),
                                                                         abs=1e-3)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="more than 10000 distortions"):
                skorohod_oracle(x1, x2, resolution=2 ** 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The 2**21 + 1 candidate offsets alone would take 16 MB.
        assert peak < 1_000_000

    @pytest.mark.parametrize("resolution", [2 ** 50, 2 ** 62], ids=["2^50", "2^62"])
    def test_huge_resolution_refused(self, resolution):
        # Offsets this fine collapse after rounding: at 2**50 their grid would
        # not fit in memory, and at 2**62 np.arange overflows to no offsets.
        x1, x2 = step_path(0.4, 1.0), step_path(0.5, 1.0)
        with pytest.raises(DataError, match="more than 10000 distortions"):
            skorohod_oracle(x1, x2, resolution=resolution)

    def test_resolution_floor(self):
        path = step_path(0.4, 1.0)
        with pytest.raises(ParameterError):
            skorohod_oracle(path, path, resolution=4)


class TestAligningDistortion:
    def test_example_knots_and_slopes(self):
        lam = build_aligning_distortion([1.0, 2.0], [1.05, 1.98], 2.5, good=True)
        np.testing.assert_allclose(lam.knot_times, [0.0, 1.0, 2.0, 2.5])
        np.testing.assert_allclose(lam.knot_values, [0.0, 1.05, 1.98, 2.5])
        np.testing.assert_allclose(lam.slopes(), [1.05, 0.93, 1.04])

    def test_exact_times_give_identity(self):
        lam = build_aligning_distortion([1.0, 2.0], [1.0, 2.0], 2.5, good=True)
        assert distortion_cost(lam) == 0.0
        lam = build_aligning_distortion([], [], 2.5, good=True)
        np.testing.assert_array_equal(lam.knot_times, [0.0, 2.5])
        np.testing.assert_array_equal(lam.knot_values, [0.0, 2.5])

    def test_bad_flag_forces_identity(self):
        lam = build_aligning_distortion([1.0, 2.0], [0.2, 9.0], 2.5, good=False)
        assert distortion_cost(lam) == 0.0

    def test_ordering_violations_rejected(self):
        with pytest.raises(DataError, match="strictly increasing and positive"):
            build_aligning_distortion([1.0, 2.0], [1.9, 1.1], 2.5, good=True)
        with pytest.raises(DataError, match="precede the horizon"):
            build_aligning_distortion([1.0, 2.0], [1.0, 2.6], 2.5, good=True)
        with pytest.raises(DataError, match="one noisy impulse time per"):
            build_aligning_distortion([1.0, 2.0], [1.0], 2.5, good=True)
        with pytest.raises(DataError, match="must be positive"):
            build_aligning_distortion([0.0, 1.0], [0.1, 1.0], 2.5, good=True)
        with pytest.raises(DataError, match="must be k\\*alpha"):
            build_aligning_distortion([1.0, 2.5], [1.0, 2.4], 2.8, good=True)

    def test_large_deviations_rejected(self):
        with pytest.raises(DataError, match="below alpha/4"):
            build_aligning_distortion([1.0, 2.0], [1.3, 2.0], 2.5, good=True)

    def test_horizon_between_impulse_counts(self):
        with pytest.raises(DataError, match="strictly between impulse counts"):
            build_aligning_distortion([1.0, 2.0], [1.02, 1.98], 2.0, good=True)


class TestAligningBounds:
    def test_cost_bound_formula(self):
        assert aligning_cost_bound(0.05, 1.0, 2.5) == pytest.approx(0.5)

    def test_slope_bound_is_max_of_two_terms(self):
        assert aligning_slope_deviation_bound(0.25, 1.0, 2.8) == pytest.approx(
            max(2 * 0.25 / 1.0, 0.25 / 0.8)
        )

    def test_slope_bound_rejects_multiple_horizon(self):
        with pytest.raises(ParameterError, match="multiple of alpha"):
            aligning_slope_deviation_bound(0.1, 1.0, 3.0)

    def test_slope_bound_rejects_an_overflowing_ratio(self):
        with pytest.raises(ParameterError, match="horizon/alpha must be finite"):
            aligning_slope_deviation_bound(0.1, 1e-300, 1e300)

    @pytest.mark.parametrize("bound", [aligning_cost_bound, aligning_slope_deviation_bound])
    @pytest.mark.parametrize("position", [0, 1, 2], ids=["delta", "alpha", "horizon"])
    @pytest.mark.parametrize("value", [-0.1, 0.0, math.nan, math.inf, -math.inf])
    def test_inputs_must_be_positive_and_finite(self, bound, position, value):
        args = [0.1, 1.0, 2.5]
        args[position] = value
        with pytest.raises(ParameterError, match="positive and finite"):
            bound(*args)

    def test_min_form_counterexample(self):
        # alpha=1, T=2.8, N=2, delta=0.25, tau=(0.8, 2.2): every deviation is
        # 0.2 <= delta and the tail leg is 0.8 >= 2*delta, yet the middle slope
        # is 1.4, so max|J-1| = 0.4 exceeds min(2d/a, d/(T-Na)) = 0.3125. The
        # max of the two terms is the valid per-slope bound.
        lam = build_aligning_distortion([1.0, 2.0], [0.8, 2.2], 2.8, good=True)
        dev = float(np.max(np.abs(lam.slopes() - 1.0)))
        min_form = min(2 * 0.25 / 1.0, 0.25 / 0.8)
        assert dev > min_form
        assert dev <= aligning_slope_deviation_bound(0.25, 1.0, 2.8)
        assert distortion_cost(lam) <= aligning_cost_bound(0.25, 1.0, 2.8)


def fixed_csv_path() -> CadlagPath:
    rng = np.random.default_rng(3)
    seg1 = (np.linspace(0.0, 0.7, 5), rng.standard_normal((5, 2)))
    seg2 = (np.linspace(0.7, 2.0, 7), rng.standard_normal((7, 2)))
    return CadlagPath([seg1, seg2])


class TestPathCsv:
    @settings(max_examples=50, deadline=None)
    @given(path=st.tuples(st.floats(1e-3, 1e6), st.integers(1, 3)).flatmap(
        lambda hd: cadlag_paths(*hd, values=st.floats(allow_nan=False, allow_infinity=False))))
    @example(path=fixed_csv_path())
    def test_round_trip_exact(self, path):
        buf = io.StringIO()
        write_path_csv(path, buf)
        again = read_path_csv(io.StringIO(buf.getvalue()))
        assert again.horizon == path.horizon
        np.testing.assert_array_equal(again.jump_times, path.jump_times)
        for sa, sb in zip(again.segments, path.segments):
            np.testing.assert_array_equal(sa.times, sb.times)
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_round_trip_no_jumps(self):
        path = constant_path(2.5, horizon=1.5)
        buf = io.StringIO()
        write_path_csv(path, buf)
        again = read_path_csv(io.StringIO(buf.getvalue()))
        assert again.jump_times.shape == (0,)
        assert uniform_distance(path, again) == 0.0
