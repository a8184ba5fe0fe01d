"""Inverse Gaussian hitting-time analytics and renewal moment bounds."""

import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from impulselab import (
    FptParams,
    ParameterError,
    derived_tail_constant,
    fpt_cdf,
    fpt_density,
    fpt_laplace,
    fpt_tail_bound,
    renewal_mgf_bound,
)


def density_fn(params):
    return lambda t: fpt_density(params, np.atleast_1d(t))[0]


def integrate_density(params, weight=lambda t: 1.0):
    f = density_fn(params)
    split = 2.0 * params.alpha
    head, _ = quad(lambda t: weight(t) * f(t), 0.0, split,
                   points=[params.alpha], limit=200)
    tail, _ = quad(lambda t: weight(t) * f(t), split, np.inf, limit=200)
    return head + tail


class TestFptParams:
    def test_shape(self):
        assert FptParams(alpha=1.0, eps_p=0.2).shape == pytest.approx(25.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            FptParams(alpha=0.0, eps_p=0.1)
        with pytest.raises(ParameterError):
            FptParams(alpha=1.0, eps_p=1.0)

    @pytest.mark.parametrize("alpha, eps_p, field", [
        (1.0, 1e-170, "eps_p"), (1.0, 1e-155, "eps_p"), (1e160, 0.5, "alpha"),
        (1e-320, 0.2, "alpha"),
    ], ids=["zero division", "infinite", "overflow", "zero"])
    def test_shape_must_be_a_positive_finite_float(self, alpha, eps_p, field):
        with pytest.raises(ParameterError, match="must be a positive finite float") as info:
            FptParams(alpha, eps_p)
        assert info.value.field == field


class TestDensity:
    def test_peak_value_closed_form(self):
        params = FptParams(alpha=math.pi / 2, eps_p=0.01)
        assert fpt_density(params, math.pi / 2) == pytest.approx(100.0 / math.pi, rel=1e-14)

    def test_normalizes_to_one(self):
        params = FptParams(alpha=1.0, eps_p=0.2)
        assert integrate_density(params) == pytest.approx(1.0, abs=1e-8)

    def test_mean_equals_alpha(self):
        params = FptParams(alpha=1.0, eps_p=0.2)
        assert integrate_density(params, weight=lambda t: t) == pytest.approx(1.0, abs=1e-6)

    def test_vanishes_toward_origin(self):
        params = FptParams(alpha=1.0, eps_p=0.2)
        assert fpt_density(params, 1e-6) < 1e-300

    def test_scalar_nonpositive_is_domain_error(self):
        params = FptParams(alpha=1.0, eps_p=0.2)
        with pytest.raises(ParameterError, match="supported on t > 0"):
            fpt_density(params, 0.0)
        with pytest.raises(ParameterError, match="supported on t > 0"):
            fpt_density(params, -1.0)

    def test_array_nonpositive_entries_are_zero(self):
        params = FptParams(alpha=1.0, eps_p=0.2)
        out = fpt_density(params, np.array([-1.0, 0.0, 1.0]))
        assert out[0] == 0.0 and out[1] == 0.0 and out[2] > 0.0

    def test_non_finite_arguments(self):
        params = FptParams(alpha=1.0, eps_p=0.2)
        assert fpt_density(params, math.inf) == 0.0
        assert math.isnan(fpt_density(params, math.nan))
        with pytest.raises(ParameterError, match="supported on t > 0"):
            fpt_density(params, -math.inf)
        out = fpt_density(params, np.array([math.inf, -math.inf, math.nan, 1.0]))
        np.testing.assert_array_equal(out[:3], [0.0, 0.0, math.nan])
        assert out[3].view(np.int64) == fpt_density(params, np.array([1.0]))[0].view(np.int64)

    def test_extreme_arguments(self):
        # t**3 underflows below about 3e-108 and overflows near 1e300; the
        # density is 0 at both ends, without a warning.
        params = FptParams(alpha=1.0, eps_p=0.2)
        extreme = [5e-324, 1e-200, 3e-108, 1e-100, 1e100, 1e300, 1.7e308]
        for t in extreme:
            assert fpt_density(params, t) == 0.0
        out = fpt_density(params, np.array([*extreme, 1.0]))
        np.testing.assert_array_equal(out[:-1], 0.0)
        assert out[-1].view(np.int64) == fpt_density(params, np.array([1.0]))[0].view(np.int64)


class TestCdf:
    def test_value_at_mean(self):
        params = FptParams(alpha=1.0, eps_p=0.2)
        assert fpt_cdf(params, 1.0) == pytest.approx(0.5395066941013855, abs=1e-12)

    def test_value_below_mean(self):
        params = FptParams(alpha=1.0, eps_p=0.2)
        assert fpt_cdf(params, 0.8) == pytest.approx(0.152794183780733, abs=1e-12)

    def test_matches_quadrature(self):
        params = FptParams(alpha=1.0, eps_p=0.2)
        f = density_fn(params)
        for c in (0.5, 0.8, 1.0, 1.4, 2.5):
            numeric, _ = quad(f, 0.0, c, limit=200)
            assert fpt_cdf(params, c) == pytest.approx(numeric, abs=1e-8)

    def test_total_mass(self):
        params = FptParams(alpha=1.0, eps_p=0.2)
        assert fpt_cdf(params, 1e6) == pytest.approx(1.0, abs=1e-10)

    def test_nondecreasing(self):
        params = FptParams(alpha=1.0, eps_p=0.1)
        cs = np.linspace(0.01, 5.0, 500)
        vals = fpt_cdf(params, cs)
        assert np.all(np.diff(vals) >= 0.0)

    def test_nonpositive_argument_is_zero(self):
        params = FptParams(alpha=1.0, eps_p=0.2)
        assert fpt_cdf(params, 0.0) == 0.0
        assert fpt_cdf(params, -2.0) == 0.0
        np.testing.assert_array_equal(fpt_cdf(params, np.array([-1.0, 0.0])), [0.0, 0.0])

    def test_non_finite_arguments(self):
        params = FptParams(alpha=1.0, eps_p=0.2)
        assert fpt_cdf(params, math.inf) == 1.0
        assert fpt_cdf(params, -math.inf) == 0.0
        assert math.isnan(fpt_cdf(params, math.nan))
        finite = np.array([0.5, 1.0, 1e6])
        out = fpt_cdf(params, np.array([0.5, math.inf, 1.0, -math.inf, math.nan, 1e6]))
        np.testing.assert_array_equal(out[[1, 3, 4]], [1.0, 0.0, math.nan])
        # The finite entries keep the bits they have without the others.
        np.testing.assert_array_equal(out[[0, 2, 5]].view(np.int64),
                                      fpt_cdf(params, finite).view(np.int64))

    def test_extreme_arguments(self):
        params = FptParams(alpha=1.0, eps_p=0.2)
        low, high = [5e-324, 1e-200, 3e-108, 1e-100], [1e100, 1e300, 1.7e308]
        for c in low:
            assert fpt_cdf(params, c) == 0.0
        for c in high:
            assert fpt_cdf(params, c) == 1.0
        out = fpt_cdf(params, np.array([*low, 0.8, *high]))
        np.testing.assert_array_equal(out[[0, 1, 2, 3, 5, 6, 7]], [0.0] * 4 + [1.0] * 3)
        assert out[4].view(np.int64) == fpt_cdf(params, np.array([0.8]))[0].view(np.int64)

    def test_survives_huge_shape(self):
        # shape 2.47e9: the exp(2*shape/mean) factor overflows unless the
        # product is taken in log space
        params = FptParams(alpha=math.pi / 2, eps_p=1e-4)
        val = fpt_cdf(params, math.pi / 2)
        assert 0.49 < val < 0.51
        assert np.isfinite(fpt_cdf(params, 0.9 * math.pi / 2))

    def test_derivative_matches_density(self):
        params = FptParams(alpha=1.0, eps_p=0.2)
        h = 1e-6
        for t in (0.6, 0.9, 1.0, 1.3, 2.0):
            slope = (fpt_cdf(params, t + h) - fpt_cdf(params, t - h)) / (2 * h)
            assert slope == pytest.approx(fpt_density(params, t), rel=1e-6)


class TestTailBound:
    def test_constant_assembly(self):
        assert derived_tail_constant(1.0) == pytest.approx(
            math.sqrt(1 / (2 * math.pi)) + math.sqrt(1 / math.pi) + 1 / math.sqrt(8 * math.pi)
        )
        assert derived_tail_constant(1.0) == pytest.approx(1.16260, abs=1e-5)
        for alpha in (0.0, math.nan):
            with pytest.raises(ParameterError):
                derived_tail_constant(alpha)

    def test_example_bound_dominates_exact(self):
        params = FptParams(alpha=1.0, eps_p=0.05)
        bound = fpt_tail_bound(params, 0.3)
        assert bound == pytest.approx(1.1626030041499054 * (0.05 / 0.3) * math.exp(-9.0), rel=1e-12)
        assert bound == pytest.approx(2.392e-5, rel=1e-3)
        exact = fpt_cdf(params, 0.7) + 1.0 - fpt_cdf(params, 1.3)
        assert bound >= exact

    def test_decreasing_in_delta(self):
        params = FptParams(alpha=1.0, eps_p=0.05)
        deltas = np.linspace(0.05, 0.49, 20)
        vals = [fpt_tail_bound(params, d) for d in deltas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_finite_at_range_edge(self):
        params = FptParams(alpha=1.0, eps_p=0.05)
        assert math.isfinite(fpt_tail_bound(params, 0.5 - 1e-9))

    def test_delta_range_enforced(self):
        params = FptParams(alpha=1.0, eps_p=0.05)
        for delta in (0.0, 0.5, 1.5):
            with pytest.raises(ParameterError):
                fpt_tail_bound(params, delta)


class TestLaplace:
    def test_unit_at_zero(self):
        assert fpt_laplace(FptParams(alpha=1.0, eps_p=0.1), 0.0) == 1.0

    def test_closed_form_example(self):
        val = fpt_laplace(FptParams(alpha=1.0, eps_p=0.1), 1.0)
        assert val == pytest.approx(math.exp(100.0 * (1.0 - math.sqrt(1.02))), rel=1e-12)
        assert val == pytest.approx(0.369707, abs=5e-6)

    def test_strictly_decreasing_to_zero(self):
        params = FptParams(alpha=1.0, eps_p=0.1)
        lams = np.linspace(0.0, 50.0, 26)
        vals = [fpt_laplace(params, lam) for lam in lams]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-10

    def test_matches_quadrature(self):
        params = FptParams(alpha=1.0, eps_p=0.2)
        for lam in (0.3, 1.0, 2.5):
            numeric = integrate_density(params, weight=lambda t: math.exp(-lam * t))
            assert fpt_laplace(params, lam) == pytest.approx(numeric, abs=1e-7)

    def test_negative_argument_rejected(self):
        for lam in (-0.5, math.nan):
            with pytest.raises(ParameterError):
                fpt_laplace(FptParams(alpha=1.0, eps_p=0.1), lam)

    def test_stable_for_tiny_noise(self):
        val = fpt_laplace(FptParams(alpha=1.0, eps_p=1e-8), 1.0)
        assert val == pytest.approx(math.exp(-1.0), rel=1e-9)


class TestRenewalBound:
    def test_example_configuration_admissible(self):
        eps = 0.01 ** 0.25  # eps^(2p) = 0.01 at p = 2
        bound = renewal_mgf_bound(0.5, 1.0, eps, 2.0, 4.0)
        assert math.isfinite(bound)
        assert bound >= 1.0
        # by-hand admissibility of the smallest candidate above critical
        lam = 1.02 * (0.5 + 0.125)
        assert math.exp(0.5) * fpt_laplace(FptParams(1.0, 0.1), lam) < 1.0

    def test_dominates_unit_moment(self):
        eps = 0.01 ** 0.25
        assert renewal_mgf_bound(1e-6, 1.0, eps, 2.0, 4.0) >= 1.0

    @pytest.mark.parametrize("gamma, want", [(12.0, 1.424511662570356e38),
                                             (15.0, 2.2062442959851622e57),
                                             (20.0, 1.655165878215092e98)])
    def test_overflowing_candidates_are_skipped(self, gamma, want):
        # Past gamma = 12 the largest multipliers overflow exp(lam * t); the
        # smaller admissible ones still give the bound.
        assert renewal_mgf_bound(gamma, 1.0, 0.5, 2.0, 1.0) == pytest.approx(want, rel=1e-12)

    def test_no_finite_candidate_is_a_search_error(self):
        with pytest.raises(ParameterError, match="no admissible"):
            renewal_mgf_bound(50.0, 1.0, 0.5, 2.0, 1.0)

    def test_gamma_must_be_positive(self):
        for gamma in (0.0, math.nan):
            with pytest.raises(ParameterError):
                renewal_mgf_bound(gamma, 1.0, 0.1, 2.0, 4.0)

    def test_time_must_be_nonnegative(self):
        for t in (-1.0, math.nan):
            with pytest.raises(ParameterError):
                renewal_mgf_bound(0.5, 1.0, 0.1, 2.0, t)


def test_moderate_arguments_keep_their_bits():
    """Density and distribution function on 7002 points in [0.01, 1000] at
    three parameter pairs, as sha256 of their bytes; recorded before the
    extreme arguments took the limits."""
    ts = np.concatenate([np.logspace(-2, 3, 5001), np.linspace(0.05, 5.0, 2001)])
    digest = hashlib.sha256()
    for alpha, eps_p in ((1.0, 0.2), (math.pi / 2, 0.05), (0.3, 0.9)):
        params = FptParams(alpha, eps_p)
        digest.update(fpt_density(params, ts).tobytes())
        digest.update(fpt_cdf(params, ts).tobytes())
    assert digest.hexdigest() == "c4806d1f97595f4d31790fae40e95719e8e26ca99e4b37ee1eed3edca765cc0c"
