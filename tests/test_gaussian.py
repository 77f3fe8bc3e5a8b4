"""Core transition laws and constants."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bouex.cloud import _decayed, _ou_step, simulate_forest
from bouex.gaussian import (GammaConstants, gamma_constants, normalization_factor,
                            ou_variance, pair_covariance)
from bouex.rng import substream
from bouex.window import leaves


class TestOuTransition:
    """The transition's mean `cloud._decayed` and variance `ou_variance`."""

    def test_brownian_limit(self):
        assert (_decayed(0.0, 2.0, 1.5), ou_variance(0.0, 2.0)) == (1.5, 2.0)

    def test_closed_form(self):
        mean = _decayed(1.0, np.array([math.log(2.0)]), np.array([1.0]))
        assert mean[0] == pytest.approx(0.5, rel=1e-14)
        assert ou_variance(1.0, math.log(2.0)) == pytest.approx(0.375, rel=1e-14)

    def test_stationary_contraction(self):
        mean = _decayed(1e6, np.array([1.0]), np.array([5.0]))
        assert abs(mean[0]) < 1e-4
        assert ou_variance(1e6, 1.0) == pytest.approx(0.5e-6, rel=1e-9)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            ou_variance(1.0, -0.1)
        with pytest.raises(ValueError):
            ou_variance(-1.0, 0.1)

    @pytest.mark.parametrize("mu", [0.1, 1.0, 10.0])
    def test_stationary_variance(self, mu):
        # variance is increasing to 1/(2 mu) as the duration grows
        durations = np.array([0.1, 1.0, 10.0, 100.0, 1000.0])
        vars_ = np.array([ou_variance(mu, s) for s in durations])
        assert np.all(np.diff(vars_) > -1e-15)
        assert vars_[-1] == pytest.approx(1.0 / (2.0 * mu), rel=1e-8)

    def test_tiny_mu_matches_high_precision(self):
        # expm1 evaluation is exact where naive (1-e^{-2 mu s})/(2 mu) cancels
        for mu, expected in [(1e-9, 1.999999996), (1e-6, 1.9999960000053333),
                             (1e-3, 1.9960053280042638)]:
            assert ou_variance(mu, 2.0) == pytest.approx(expected, rel=1e-13)


def _sample_ou_step(x, mu, s, rng):
    """Exact draws of the transition from each of x over duration s: the one
    OU step, `cloud._ou_step`, fed standard normals."""
    x = np.asarray(x, dtype=float)
    return _ou_step(mu, np.full(x.shape, s), x, rng.standard_normal(x.shape))


class TestSampleOuStep:
    def test_degenerate_duration(self):
        assert _sample_ou_step([1.7], 2.0, 0.0, substream(0, 0)).tolist() == [1.7]

    def test_lln_against_transition(self):
        rng = substream(101, 0)
        draws = _sample_ou_step(np.ones(10_000), 1.0, 1.0, rng)
        mean, var = math.exp(-1.0), ou_variance(1.0, 1.0)
        assert abs(draws.mean() - mean) < 4.0 * math.sqrt(var / draws.size)


class TestNormalization:
    def test_brownian_case(self):
        assert normalization_factor(0.0, 7.0) == 1.0

    def test_large_t_asymptote(self):
        lam = normalization_factor(1.0, 20.0)
        assert lam == pytest.approx(math.sqrt(40.0), rel=1e-6)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            normalization_factor(1.0, 0.0)

    def test_rejects_infinite_t(self):
        with pytest.raises(ValueError):
            normalization_factor(1.0, math.inf)

    def test_normalized_variance_is_t(self):
        t, mu, n = 3.0, 1.0, 100_000
        rng = substream(11, 0)
        lam = normalization_factor(mu, t)
        draws = lam * _sample_ou_step(np.zeros(n), mu, t, rng)
        se = draws.var() * math.sqrt(2.0 / n)  # stderr of a normal variance estimate
        assert abs(draws.var(ddof=1) - t) < 4.0 * se


class TestPairCovariance:
    def test_same_particle(self):
        assert pair_covariance(1.3, 2.0, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_independent_branches(self):
        assert pair_covariance(1.3, 2.0, 0.0) == 0.0

    def test_closed_form_value(self):
        assert pair_covariance(1.0, 2.0, 1.0) == pytest.approx(0.23840584404423511,
                                                               rel=1e-13)

    def test_brownian_limit(self):
        assert pair_covariance(0.0, 2.0, 0.7) == 0.7

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pair_covariance(1.0, 2.0, 2.5)

    def test_monotone_in_mu(self):
        taus = [0.5, 1.0, 1.5]
        for tau in taus:
            vals = [pair_covariance(mu, 2.0, tau) for mu in (0.0, 0.1, 1.0, 10.0, 50.0)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_no_overflow_at_huge_mu(self):
        v = pair_covariance(1e6, 2.0, 1.0)
        assert 0.0 <= v < 1e-10

    def test_empirical_sibling_covariance(self):
        # two lineages split at tau = 1: one shared OU step then independent ones
        mu, t, tau, n = 1.0, 2.0, 1.0, 100_000
        rng = substream(12, 0)
        shared = _sample_ou_step(np.zeros(n), mu, tau, rng)
        x1 = _sample_ou_step(shared, mu, t - tau, rng)
        x2 = _sample_ou_step(shared, mu, t - tau, rng)
        lam2 = 2.0 * mu * t / -math.expm1(-2.0 * mu * t)
        prod = lam2 * x1 * x2
        se = prod.std(ddof=1) / math.sqrt(n)
        assert abs(prod.mean() - pair_covariance(mu, t, tau)) < 4.0 * se


class TestGammaConstants:
    def test_infinite_gamma_sentinel(self):
        gc = gamma_constants(math.inf)
        assert gc.c_gamma == 0.0
        assert math.isinf(gc.d_gamma)

    def test_small_gamma_expansion(self):
        gc = gamma_constants(1e-6)
        assert abs(gc.c_gamma - 1.0) < 1e-5
        assert abs(gc.d_gamma - 1.0) < 1e-5
        # leading behaviour c ~ 1 - g/2, d ~ 1 + g/2
        gc = gamma_constants(1e-3)
        assert gc.c_gamma == pytest.approx(1.0 - 5e-4, abs=5e-7)
        assert gc.d_gamma == pytest.approx(1.0 + 5e-4, abs=5e-7)

    def test_high_precision_value(self):
        gc = gamma_constants(1.0)
        assert gc.c_gamma == pytest.approx(0.55949556343132097, rel=1e-14)
        assert gc.d_gamma == pytest.approx(1.5208666231788149, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gamma_constants(0.0)

    @pytest.mark.parametrize("gamma", [1e-8, 1e-3, 0.3, 1.0, 4.0, 50.0])
    def test_defining_identities(self, gamma):
        gc = gamma_constants(gamma)
        assert gc.c_gamma ** 2 * math.expm1(2 * gamma) == pytest.approx(
            2 * gamma, rel=1e-12)
        assert gc.d_gamma ** 2 * -math.expm1(-2 * gamma) == pytest.approx(
            2 * gamma, rel=1e-12)
        assert 0.0 < gc.c_gamma < 1.0 < gc.d_gamma


class TestSpringParams:
    """The one (mu, t) check, at every entry point that takes a spring and a horizon."""

    ENTRIES = (lambda mu, t: simulate_forest(mu, t, 2, substream(1, 0)),
               lambda mu, t: leaves(mu, t, 2, substream(1, 0)),
               normalization_factor)

    def test_validation(self):
        for entry in self.ENTRIES:
            for mu, t, message in ((-0.1, 1.0, "spring constant"),
                                   (math.nan, 1.0, "spring constant"),
                                   (0.1, 0.0, "t must be"), (0.1, math.nan, "t must be")):
                with pytest.raises(ValueError, match=message):
                    entry(mu, t)
            entry(0.0, 2.0)

    def test_rejects_infinite_horizon(self):
        for entry in self.ENTRIES:
            for mu, t in ((1.0, math.inf), (math.inf, 1.0)):
                with pytest.raises(ValueError, match="must be finite"):
                    entry(mu, t)


@pytest.mark.parametrize("mu", [0.0, 1e-300, 0.1, 1.0, 10.0])
def test_ou_variance_scalar_mu_has_the_array_bits(mu):
    # one formula: a scalar duration gives the bits of the same duration in an array
    s = np.concatenate(([0.0, 1e-300, 1e-12, 30.0], np.linspace(0.0, 30.0, 301)))
    array = ou_variance(mu, s)
    assert all(ou_variance(mu, float(v)) == a for v, a in zip(s, array))


def test_ou_variance_rejects_negative_duration_and_array_mu():
    for mu, s in [(1.0, -0.5), (0.0, -0.5), (1e-300, -1e-300), (1.0, [1.0, -0.5]),
                  (np.array([1.0]), 1.0), ([0.0, 1.0], [1.0, 1.0]), (-1.0, 1.0),
                  (math.nan, 1.0)]:
        with pytest.raises(ValueError):
            ou_variance(mu, s)


@given(mu=st.floats(0.0, 50.0), s1=st.floats(0.0, 100.0), s2=st.floats(0.0, 100.0))
@example(mu=1e-300, s1=0.0, s2=1e-12)  # -2 mu s is subnormal
def test_ou_variance_grows_in_s_and_stays_at_most_s(mu, s1, s2):
    # at most s up to the rounding of one IEEE operation
    lo, hi = sorted((s1, s2))
    v_lo, v_hi = ou_variance(mu, lo), ou_variance(mu, hi)
    assert v_lo <= v_hi
    assert v_hi <= np.nextafter(hi, math.inf)


_EPS = float(np.finfo(float).eps)
_mu = st.floats(0.0, 1e3)


@given(mu=_mu, t=st.floats(1e-6, 50.0), frac=st.floats(0.0, 1.0))
@example(mu=5e-324, t=0.25, frac=0.0)  # 2 mu t is subnormal
def test_pair_covariance_lies_in_zero_tau(mu, t, frac):
    # at most tau up to the rounding of a few IEEE operations
    tau = t * frac
    assert 0.0 <= pair_covariance(mu, t, tau) <= tau * (1.0 + 4.0 * _EPS)


@given(mu=_mu, t=st.floats(1e-6, 50.0))
@example(mu=5e-324, t=0.25)
@example(mu=6.103515625e-05, t=46.5)  # t (v / v) is t, but (t v) / v need not be
def test_pair_covariance_ends(mu, t):
    assert pair_covariance(mu, t, 0.0) == 0.0
    assert pair_covariance(mu, t, t) == t


@given(t=st.floats(1e-6, 50.0), frac=st.floats(0.0, 1.0))
def test_pair_covariance_is_tau_at_mu_zero(t, frac):
    assert pair_covariance(0.0, t, t * frac) == t * frac


@given(mu=_mu, t=st.floats(1e-6, 50.0))
@example(mu=5e-324, t=0.25)  # 2 mu t underflows to 0
def test_normalization_factor_scales_the_variance_to_t(mu, t):
    # the worst seen relative error of lambda^2 var_mu(t) is 4.4e-16
    lam = normalization_factor(mu, t)
    assert 1.0 <= lam < math.inf
    assert lam * lam * ou_variance(mu, t) == pytest.approx(t, rel=8.0 * _EPS, abs=0.0)


@given(gamma=st.floats(5e-324, 350.0))
def test_gamma_constants_bracket_one(gamma):
    gc = gamma_constants(gamma)
    assert 0.0 <= gc.c_gamma <= 1.0 <= gc.d_gamma < math.inf

