"""Inverse Gaussian hitting-time analytics and renewal moment bounds."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import special
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
from impulselab.fpt import _erfcx


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
        # shape 2.47e9: the textbook form's exp(2*shape/mean) factor overflows
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

    # mpmath values of F (60 digits) on either side of alpha = 1. The textbook
    # form's factor exp(2*shape/alpha) is exp(2e22) and exp(2e308) here.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps_p, want", [
        (1e-11, [0.022750123012905615, 0.50000000000199471, 0.97724987698547466]),
        (1e-154, [0.0, 0.5, 1.0]),
    ])
    def test_tiny_noise(self, eps_p, want):
        got = fpt_cdf(FptParams(1.0, eps_p), np.array([0.99999999998, 1.0, 1.00000000002]))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_subnormal_lower_tail(self):
        # mpmath values; a subnormal near 1e-313 carries about 10 digits.
        got = fpt_cdf(FptParams(1.5707963, 0.04), np.array([0.5, 0.50125, 0.6]))
        np.testing.assert_allclose(got[:2], [9.4617289984984919e-314, 3.001074252695162e-312],
                                   rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(got[2], 1.2263827036922348e-215, rtol=1e-12, atol=0.0)


@given(st.lists(st.floats(0.0, 1e300) | st.just(math.inf), min_size=1, max_size=40))
@example([0.0, 0.46875, np.nextafter(0.46875, 1.0), 4.0, np.nextafter(4.0, 5.0), 1.4e154,
          1e300, math.inf])
def test_erfcx_matches_scipy(zs):
    """Cody's approximations in numpy agree with scipy's erfcx to 4e-15
    relative (1.1e-15 at worst over 4e6 draws), 0 at +inf."""
    z = np.array(zs)
    np.testing.assert_allclose(_erfcx(z), special.erfcx(z), rtol=4e-15, atol=0.0)


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


# The digests below hash 7002 points in [0.01, 1000] at three parameter pairs;
# CDF_REFERENCES holds mpmath values of F (60 digits) at every 250th point.
DIGEST_TIMES = np.concatenate([np.logspace(-2, 3, 5001), np.linspace(0.05, 5.0, 2001)])
CDF_REFERENCES = {
    (1.0, 0.2): [
        0, 6.4782155260896835e-297, 2.9415690572634365e-163, 3.9203681904243832e-88,
        5.4101905097191636e-46, 1.5946781671730117e-22, 9.2061084593640705e-10,
        0.0022978442779278065, 0.53950669410138596, 0.99877653825444168, 0.99999999971646281,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0.025256780529726637, 0.91344368638255313,
        0.99964795961499908, 0.99999954519128498, 0.99999999963696307, 0.99999999999977196,
        0.99999999999999989, 1,
    ],
    (math.pi / 2, 0.05): [
        0, 0, 0, 0, 0, 0, 0, 1.80537622877272e-159, 2.1301701425014691e-30, 0.9991329424113442,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 5.5318225015754519e-109, 2.5438654513880811e-07,
        0.99999937466027422, 1, 1, 1, 1, 1,
    ],
    (0.3, 0.9): [
        0.0012361295757000014, 0.017845735234077263, 0.086907559023674211, 0.22641639401755292,
        0.40879153737019053, 0.59192886848447623, 0.74706035606682153, 0.86241582155049457,
        0.93750806888324023, 0.97837129990514271, 0.99515041570486651, 0.99947128877380753,
        0.99998317254587188, 0.99999993709231672, 0.99999999999456624, 1, 1, 1, 1, 1, 1,
        0.8885494974094259, 0.95899499992607773, 0.98138927451626978, 0.99067763747319704,
        0.99504890833735171, 0.99726557687731443, 0.99844668728962749, 0.99909861974455327,
    ],
}


def _digest(fn) -> str:
    digest = hashlib.sha256()
    for alpha, eps_p in CDF_REFERENCES:
        digest.update(fn(FptParams(alpha, eps_p), DIGEST_TIMES).tobytes())
    return digest.hexdigest()


def test_density_keeps_its_bits():
    assert _digest(fpt_density) == "6e948f60d608641075ebc0ea230cfd0114d45ff2aef427dc267ac14763e24ac6"


def test_cdf_keeps_its_bits():
    """Recorded with the erfcx form of fpt_cdf."""
    assert _digest(fpt_cdf) == "4c60102a44e9eb7476db4cde4018a0dae44425985a47cd9225fb78e6f8ccb138"


def test_cdf_matches_mpmath_on_the_digest_grid():
    for (alpha, eps_p), want in CDF_REFERENCES.items():
        got = fpt_cdf(FptParams(alpha, eps_p), DIGEST_TIMES[::250])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
