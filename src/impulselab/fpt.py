"""Inverse Gaussian first-passage analytics for the time between impulses.

With unit angular speed and noise scale s = epsilon^p, the first hitting time
of the level alpha is inverse Gaussian with mean alpha and shape alpha^2/s^2.
This module evaluates its density, distribution function, a two-sided tail
bound with an explicit constant, the Laplace transform, and an exponential
moment bound for the induced renewal counting process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_TWO_PI = 2.0 * math.pi
# Beyond this band t**3 and (t - alpha)**2 leave the double range; for alpha
# in [1e-40, 1e40] the density there is below 1e-300 and F within it of 0 or 1.
_MODERATE = (1e-100, 1e100)


@dataclass(frozen=True)
class FptParams:
    """Level alpha and angular noise scale eps_p (= epsilon**p)."""

    alpha: float
    eps_p: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ParameterError("alpha must be positive", field="alpha")
        if self.alpha == math.inf:
            raise ParameterError("alpha must be finite", field="alpha")
        if not (0.0 < self.eps_p < 1.0):
            raise ParameterError("angular noise scale must lie in (0, 1)", field="eps_p")
        try:
            shape = self.shape
        except (OverflowError, ZeroDivisionError):
            shape = math.inf
        if not 0.0 < shape < math.inf:
            # A shape of 0 needs a tiny alpha, as eps_p < 1; an infinite one
            # is blamed on alpha where alpha > 1/eps_p, on eps_p otherwise.
            raise ParameterError(
                "shape alpha^2/eps_p^2 must be a positive finite float, "
                f"got alpha={self.alpha!r}, eps_p={self.eps_p!r}",
                field="alpha" if shape == 0.0 or self.alpha * self.eps_p > 1.0 else "eps_p")

    @property
    def shape(self) -> float:
        """Inverse Gaussian shape parameter alpha^2 / eps_p^2."""
        return self.alpha ** 2 / self.eps_p ** 2


def _moderate(t_arr: np.ndarray, low: float, high: float):
    """Output for `t_arr`, NaN at NaN, `low` below and `high` above the
    _MODERATE band, and the mask of the band, which the caller fills in."""
    out = np.where(np.isnan(t_arr), math.nan, np.where(t_arr > 1.0, high, low))
    return out, (t_arr > _MODERATE[0]) & (t_arr < _MODERATE[1])


def fpt_density(params: FptParams, t):
    """Hitting-time density. Scalar nonpositive t is a domain error; in array
    evaluation nonpositive entries return 0 so quadrature stays total. The
    density is 0 at +inf and beyond _MODERATE, and NaN at NaN."""
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    if scalar:
        if t_arr <= 0.0:
            raise ParameterError("density is supported on t > 0")
        t_arr = t_arr[None]
    alpha, s = params.alpha, params.eps_p
    out, pos = _moderate(t_arr, 0.0, 0.0)
    tp = t_arr[pos]
    out[pos] = alpha / (s * np.sqrt(_TWO_PI * tp ** 3)) * np.exp(
        -((tp - alpha) ** 2) / (2.0 * s * s * tp))
    return float(out[0]) if scalar else out


def fpt_cdf(params: FptParams, c):
    """Distribution function F(c) of the hitting time.

    With scale = eps_p*sqrt(2c), u = |c - alpha|/scale and
    v = (c + alpha)/scale (so v^2 - u^2 = 2*shape/alpha), the inverse
    Gaussian law (Chhikara and Folks 1989) gives

        F(c) = (1/2) exp(-u^2) [erfcx(u) + erfcx(v)]      for c <= alpha,
        F(c) = 1 - (1/2) exp(-u^2) [erfcx(u) - erfcx(v)]  for c > alpha,

    erfcx the scaled complementary error function. The factor
    exp(2*shape/alpha) of the textbook form cancels against erfc(v) in
    closed form, so no step forms it, overflows or loses digits to it, and
    subnormal tails keep their value. F is 0 below the _MODERATE band, 1
    above it and NaN at NaN.
    """
    c_arr = np.asarray(c, dtype=float)
    scalar = c_arr.ndim == 0
    if scalar:
        c_arr = c_arr[None]
    alpha = params.alpha
    out, pos = _moderate(c_arr, 0.0, 1.0)
    cp = c_arr[pos]
    scale = params.eps_p * np.sqrt(2.0 * cp)
    u = np.abs(cp - alpha) / scale
    erfcx_u, erfcx_v = _erfcx(u), _erfcx((cp + alpha) / scale)
    # exp(-u^2) is 0 once u > 27.3; the cap keeps u^2 finite.
    half_damp = 0.5 * np.exp(-np.square(np.minimum(u, 30.0)))
    out[pos] = np.where(cp <= alpha,
                        half_damp * (erfcx_u + erfcx_v),
                        1.0 - half_damp * (erfcx_u - erfcx_v))
    return float(out[0]) if scalar else out


# Cody's rational Chebyshev approximations (Math. Comp. 23, 1969; CALERF),
# highest degree first: erf(z) = z*R(z^2) on [0, 0.46875], erfcx(z) = R(z) on
# (0.46875, 4] and erfcx(z) = (1/sqrt(pi) - R(1/z^2)/z^2)/z above 4.
_ERF_NUM = (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
            3.77485237685302021e02, 3.20937758913846947e03)
_ERF_DEN = (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
            2.84423683343917062e03)
_MID_NUM = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
            6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
            1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03)
_MID_DEN = (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
            1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
            3.43936767414372164e03, 1.23033935480374942e03)
_TAIL_NUM = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
             1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4)
_TAIL_DEN = (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
             6.05183413124413191e-2, 2.33520497626869185e-3)
_INV_SQRT_PI = 0.5641895835477562869


def _erfcx(z: np.ndarray) -> np.ndarray:
    """exp(z^2)*erfc(z) for z >= 0, +inf included (0 there), in float64;
    within 1e-15 relative of the exact value."""
    out = np.empty_like(z)
    small = z <= 0.46875
    tail = z > 4.0
    mid = ~(small | tail)
    y = z[small]
    y2 = y * y
    out[small] = np.exp(y2) * (1.0 - y * _horner(_ERF_NUM, y2) / _horner(_ERF_DEN, y2))
    y = z[mid]
    out[mid] = _horner(_MID_NUM, y) / _horner(_MID_DEN, y)
    y = z[tail]
    # (1/y)^2 underflows to 0 instead of overflowing for y > 1e154.
    w = np.square(1.0 / y)
    out[tail] = (_INV_SQRT_PI - w * _horner(_TAIL_NUM, w) / _horner(_TAIL_DEN, w)) / y
    return out


def _horner(coefs, x: np.ndarray) -> np.ndarray:
    """The polynomial with `coefs`, highest degree first, at x, in one buffer."""
    acc = np.full_like(x, coefs[0])
    for coef in coefs[1:]:
        acc *= x
        acc += coef
    return acc


def derived_tail_constant(alpha: float) -> float:
    """Prefactor K(alpha) = sqrt(alpha/2pi) + sqrt(alpha/pi) + 1/sqrt(8 pi alpha).

    Assembled so that K*(s/delta)*exp(-delta^2/(4*alpha*s^2)) dominates both
    one-sided hitting-time tails for every 0 < delta < min(1, alpha/2).
    """
    if not alpha > 0.0:
        raise ParameterError("alpha must be positive")
    return (math.sqrt(alpha / _TWO_PI) + math.sqrt(alpha / math.pi)
            + 1.0 / math.sqrt(4.0 * _TWO_PI * alpha))


def fpt_tail_bound(params: FptParams, delta: float) -> float:
    """Upper bound for P(|tau - alpha| >= delta)."""
    alpha, s = params.alpha, params.eps_p
    if not (0.0 < delta < min(1.0, alpha / 2.0)):
        raise ParameterError("delta must lie in (0, min(1, alpha/2))")
    k = derived_tail_constant(alpha)
    return k * (s / delta) * math.exp(-delta * delta / (4.0 * alpha * s * s))


def fpt_laplace(params: FptParams, lam: float) -> float:
    """Laplace transform E[exp(-lam * tau)].

    Evaluated as exp(-2*alpha*lam / (1 + sqrt(1 + 2*lam*s^2))), which equals
    the direct form exp((alpha/s^2)(1 - sqrt(1 + 2*lam*s^2))) without the
    catastrophic cancellation the direct form suffers for small s.
    """
    if not lam >= 0.0:
        raise ParameterError("transform argument must be nonnegative")
    s2 = params.eps_p ** 2
    return math.exp(-2.0 * params.alpha * lam / (1.0 + math.sqrt(1.0 + 2.0 * lam * s2)))


_LAMBDA_FACTORS = (1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 1.25, 1.1, 1.05, 1.02)


def renewal_mgf_bound(gamma: float, alpha: float, epsilon: float, p: float,
                      t: float) -> float:
    """Bound for E[exp(gamma * Q_t)], Q_t the number of impulses by time t.

    Valid multipliers are lam > gamma/alpha + gamma^2/(2 alpha^2); for such
    lam the bound is kappa(lam)*exp(lam*t) with
    kappa = 1 + (1 + sqrt(1+2 lam)) / (2 alpha lam - gamma (1 + sqrt(1+2 lam))),
    uniform over the noise scale. The smallest bound over a candidate grid of
    multipliers is returned; each candidate is double-checked against the
    admissibility condition exp(gamma)*E[exp(-lam tau)] < 1.
    """
    # Negated comparisons, so that NaN fails them.
    if not gamma > 0.0:
        raise ParameterError("gamma must be positive")
    if not t >= 0.0:
        raise ParameterError("time must be nonnegative")
    params = FptParams(alpha=alpha, eps_p=epsilon ** p)
    lam_crit = gamma / alpha + gamma ** 2 / (2.0 * alpha ** 2)
    best = math.inf
    for factor in _LAMBDA_FACTORS:
        lam = factor * lam_crit
        root = 1.0 + math.sqrt(1.0 + 2.0 * lam)
        denom = 2.0 * alpha * lam - gamma * root
        if denom <= 0.0:
            continue
        try:
            if math.exp(gamma) * fpt_laplace(params, lam) >= 1.0:
                continue
            bound = (1.0 + root / denom) * math.exp(lam * t)
        except OverflowError:
            continue  # an infinite candidate is never the minimum
        best = min(best, bound)
    if not math.isfinite(best):
        raise ParameterError("no admissible exponential-moment multiplier found")
    return best
