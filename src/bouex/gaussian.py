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
class GammaConstants:
    """Start/end slope constants of the limiting variance profile.

    For gamma = inf, d_gamma is stored as the float 'inf' sentinel; any
    downstream dilation by d_gamma must branch on it explicitly.
    """

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


def _check_spring(mu: float, t: float) -> None:
    """Raise ValueError unless t is finite and positive and mu finite and >= 0."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be finite and positive, got {t}")
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"spring constant must be finite and >= 0, got {mu}")


def normalization_factor(mu: float, t: float) -> float:
    """Dilation lambda_{mu t} making the time-t position have variance t.

    lambda^2 = 2 mu t / (1 - e^{-2 mu t}).  Where 2 mu t is below the
    smallest normal float, mu = 0 included, lambda is 1 to full precision
    and 1 is returned, as `ou_variance` returns s there.
    """
    _check_spring(mu, t)
    two_mu_t = 2.0 * mu * t
    if two_mu_t < _TINY:
        return 1.0
    return math.sqrt(two_mu_t / -math.expm1(-two_mu_t))


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
        return GammaConstants(c_gamma=0.0, d_gamma=math.inf)
    two_g = 2.0 * gamma
    c = math.sqrt(two_g / math.expm1(two_g)) if two_g < 700 else 0.0
    return GammaConstants(c_gamma=c, d_gamma=normalization_factor(gamma, 1.0))
