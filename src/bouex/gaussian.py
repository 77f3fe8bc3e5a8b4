"""Exact Gaussian/Ornstein-Uhlenbeck transition laws.

This is the shared numerical core: every simulation module builds on the
closed-form OU transition N(x e^{-mu s}, (1-e^{-2 mu s})/(2 mu)), the
variance-t normalization and the pairwise covariance induced by a shared
ancestry time.  All formulas with a 2*mu (or 2*gamma) denominator are evaluated
through expm1, which is cancellation-free down to mu = 0+; mu = 0 itself
takes the exact Brownian branch.  The transition variance has one
implementation, `ou_variance`, for one spring constant and any number of
durations s >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)
INV_SQRT_4PI = 1.0 / math.sqrt(4.0 * math.pi)
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


@dataclass(frozen=True)
class SpringParams:
    """Spring constant and simulation horizon of one branching-diffusion run."""

    mu: float
    horizon_t: float

    def __post_init__(self):
        if not 0.0 < self.horizon_t < math.inf:
            raise ValueError(f"horizon_t must be finite and positive, got {self.horizon_t}")
        if not 0.0 <= self.mu < math.inf:
            raise ValueError(f"spring constant must be finite and >= 0, got {self.mu}")


@dataclass(frozen=True)
class GammaConstants:
    """Start/end slope constants of the limiting variance profile.

    For gamma = inf, d_gamma is stored as the float 'inf' sentinel; any
    downstream dilation by d_gamma must branch on it explicitly.
    """

    gamma: float
    c_gamma: float
    d_gamma: float


def ou_variance(mu, s):
    """Variance (1 - e^{-2 mu s})/(2 mu) of the OU transition over duration s.

    One formula for a scalar mu >= 0 and a scalar or array s >= 0, evaluated
    in place on a fresh copy of s: expm1(k s) / k with k = -2 mu, and s
    itself at mu = 0.  Where k s is below the smallest normal float it has
    lost digits (up to a factor 2 after the division), while the variance
    s (1 - mu s + ...) is s itself to full precision, so s is returned there.
    An array mu, a negative mu or a negative duration raises ValueError.
    """
    if np.ndim(mu) or not mu >= 0:
        raise ValueError(f"spring constant must be a scalar >= 0, got {mu!r}")
    out = np.array(s, dtype=float)
    low = out.min(initial=math.inf)
    if low < 0:
        raise ValueError("duration must be non-negative")
    if mu > 0:
        k = -2.0 * float(mu)
        s = out.copy() if low < _TINY / -k else None
        out *= k
        np.expm1(out, out=out)
        out /= k
        if s is not None:  # some k s is subnormal
            np.copyto(out, s, where=s < _TINY / -k)
    return float(out) if out.ndim == 0 else out


def normalization_factor(mu: float, t: float) -> float:
    """Dilation lambda_{mu t} making the time-t position have variance t."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be finite and positive, got {t}")
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"spring constant must be finite and >= 0, got {mu}")
    if mu == 0.0:
        return 1.0
    return math.sqrt(2.0 * mu * t / -math.expm1(-2.0 * mu * t))


def pair_covariance(mu: float, t: float, tau) -> float:
    """Covariance of two normalized positions that split at time tau.

    Equals t (e^{2 mu tau}-1)/(e^{2 mu t}-1), evaluated in the overflow-free
    form t e^{-2 mu (t-tau)} var_mu(tau)/var_mu(t) with `ou_variance`, which
    stays exact where 2 mu t is subnormal; tau = t gives t exactly, and the
    mu = 0 limit is tau.
    """
    tau_arr = np.asarray(tau, dtype=float)
    if np.any(tau_arr < 0) or np.any(tau_arr > t * (1 + 1e-12)):
        raise ValueError("split time must lie in [0, t]")
    if mu < 0:
        raise ValueError("spring constant must be non-negative")
    if mu == 0.0:
        out = tau_arr
    else:
        out = t * (ou_variance(mu, tau_arr) / ou_variance(mu, t)) \
            * np.exp(-2.0 * mu * (t - tau_arr))
    return float(out) if np.ndim(tau) == 0 else out


def gamma_constants(gamma: float) -> GammaConstants:
    """Slope constants c_gamma = sqrt(2g/(e^{2g}-1)), d_gamma = sqrt(2g/(1-e^{-2g}))."""
    if not gamma > 0:
        raise ValueError("gamma must lie in (0, inf]")
    if math.isinf(gamma):
        return GammaConstants(gamma=math.inf, c_gamma=0.0, d_gamma=math.inf)
    two_g = 2.0 * gamma
    c = math.sqrt(two_g / math.expm1(two_g)) if two_g < 700 else 0.0
    return GammaConstants(gamma=gamma, c_gamma=c, d_gamma=normalization_factor(gamma, 1.0))


def ou_bridge_moments(x_a, x_b, mu, d_as, d_sb):
    """Conditional mean/variance at an interior time of an OU path.

    The path starts at x_a, is pinned to x_b after total duration
    d_as + d_sb, and is queried after d_as.
    """
    m_s = np.asarray(x_a, float) * np.exp(-mu * d_as)
    v_s = ou_variance(mu, d_as)
    m_b = np.asarray(x_a, float) * np.exp(-mu * (d_as + d_sb))
    v_b = ou_variance(mu, d_as + d_sb)
    cov = np.exp(-mu * d_sb) * v_s
    with np.errstate(invalid="ignore", divide="ignore"):
        gain = np.where(v_b > 0, cov / np.where(v_b > 0, v_b, 1.0), 0.0)
    mean = m_s + gain * (np.asarray(x_b, float) - m_b)
    var = np.maximum(v_s - gain * cov, 0.0)
    return mean, var


def sample_ou_bridge(x_a, x_b, mu, d_as, d_sb, rng):
    mean, var = ou_bridge_moments(x_a, x_b, mu, d_as, d_sb)
    return mean + np.sqrt(var) * rng.standard_normal(np.shape(mean) or None)
