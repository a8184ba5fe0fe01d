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

from .errors import BoundSearchError, DomainError, ParameterError

_TWO_PI = 2.0 * math.pi


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

    @property
    def shape(self) -> float:
        """Inverse Gaussian shape parameter alpha^2 / eps_p^2."""
        return self.alpha ** 2 / self.eps_p ** 2


def fpt_density(params: FptParams, t):
    """Hitting-time density. Scalar nonpositive t is a domain error; in array
    evaluation nonpositive entries return 0 so quadrature stays total. The
    density is 0 at +inf and NaN at NaN."""
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    if scalar:
        if t_arr <= 0.0:
            raise DomainError("density is supported on t > 0")
        t_arr = t_arr[None]
    alpha, s = params.alpha, params.eps_p
    out = np.where(np.isnan(t_arr), math.nan, 0.0)
    pos = (t_arr > 0.0) & (t_arr < math.inf)
    tp = t_arr[pos]
    out[pos] = alpha / (s * np.sqrt(_TWO_PI * tp ** 3)) * np.exp(
        -((tp - alpha) ** 2) / (2.0 * s * s * tp))
    return float(out[0]) if scalar else out


def fpt_cdf(params: FptParams, c):
    """Distribution function F(c) of the hitting time.

    Uses the chi-square tail G(z) = 2(1 - Phi(sqrt(z))) split into the cases
    c <= mean and c > mean; the exponentially large factor exp(2*shape/mean)
    multiplies an exponentially small tail, so that product is evaluated in
    log space. F is 0 at -inf, 1 at +inf and NaN at NaN.
    """
    # Local: scipy.special costs about 0.35 s and 25 MB at import.
    from scipy.special import log_ndtr, ndtr

    c_arr = np.asarray(c, dtype=float)
    scalar = c_arr.ndim == 0
    if scalar:
        c_arr = c_arr[None]
    mu, lam = params.alpha, params.shape
    out = np.where(np.isnan(c_arr), math.nan, np.where(c_arr == math.inf, 1.0, 0.0))
    pos = (c_arr > 0.0) & (c_arr < math.inf)
    cp = c_arr[pos]
    a = lam * (cp - mu) ** 2 / (mu * mu * cp)
    half_g_a = ndtr(-np.sqrt(a))                       # (1/2)G(a)
    log_half_g_shift = log_ndtr(-np.sqrt(a + 4.0 * lam / mu))
    second = np.exp(2.0 * lam / mu + math.log(2.0) + log_half_g_shift)
    below = cp <= mu
    vals = np.where(below,
                    half_g_a + 0.5 * second,
                    1.0 - half_g_a + 0.5 * second)
    out[pos] = np.clip(vals, 0.0, 1.0)
    return float(out[0]) if scalar else out


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
        raise BoundSearchError("no admissible exponential-moment multiplier found")
    return best
