"""Spine process, prefactor estimators, decoration and limit-process samplers."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from bouex.errors import RejectionBudgetError
from bouex.gaussian import INV_SQRT_4PI, SQRT2
from bouex.rng import substream
from bouex.spine import (CHUNK, estimate_C, estimate_C_curve, sample_decoration,
                         sample_limit_process, truncation_horizon,
                         truncation_miss_bound, _draw_branches, _sort_blocks, _spine_atoms)
from bouex.suite import check_curve_monotone


class TestTruncationHorizon:
    @given(rho=st.floats(1.05, 6.0), a=st.floats(-8.0, 3.0),
           eps=st.floats(1e-12, 0.5), eps_up=st.floats(0.0, 0.49))
    def test_certifies_eps_and_shrinks_as_eps_grows(self, rho, a, eps, eps_up):
        T = truncation_horizon(rho, a, eps)
        assert truncation_miss_bound(rho, a, T) <= eps
        assert truncation_horizon(rho, a, min(eps + eps_up, 0.999)) <= T

    def test_monotone_in_rho(self):
        ts = [truncation_horizon(r, -6.0, 0.01) for r in (1.25, 1.5, 2.0, 4.0)]
        assert all(b < a for a, b in zip(ts, ts[1:]))

    def test_monotone_in_eps(self):
        assert truncation_horizon(1.5, 0.0, 0.005) > truncation_horizon(1.5, 0.0, 0.01)

    def test_bound_is_met(self):
        for rho, a, eps in [(1.5, -6.0, 0.01), (2.0, 0.0, 1e-3), (4.0, 0.0, 1e-3)]:
            T = truncation_horizon(rho, a, eps)
            assert truncation_miss_bound(rho, a, T) <= eps * (1 + 1e-9)

    def test_rejects_rho_at_most_one(self):
        with pytest.raises(ValueError):
            truncation_horizon(1.0, 0.0, 0.01)

    def test_nan_fails_every_range_check(self):
        # each check is written so that a NaN fails it, as a bad value would
        rng = substream(51, 0)
        for call in (lambda: truncation_horizon(math.nan, 0.0, 0.01),
                     lambda: truncation_miss_bound(math.nan, 0.0, 1.0),
                     lambda: sample_decoration(math.nan, 2.0, -1.0, 10, rng),
                     lambda: sample_decoration(2.0, 2.0, math.nan, 10, rng),
                     lambda: sample_decoration(2.0, math.nan, -1.0, 10, rng),
                     lambda: estimate_C_curve([math.nan, 2.0], 2.0, 10, 1),
                     lambda: estimate_C_curve([1.5], math.nan, 10, 1)):
            with pytest.raises(ValueError, match="nan"):
                call()

    def test_empirical_certificate(self):
        # branches after a certified horizon rarely reach the window
        rho, a, eps, n = 1.5, -6.0, 0.01, 800
        T = truncation_horizon(rho, a, eps)
        changed = sum(_new_atoms_after(rho, T, a, substream(50, k))
                      for k in range(n))
        assert changed / n <= eps + 4.0 * math.sqrt(eps / n)

    def test_examples_scale(self):
        assert 2.0 < truncation_horizon(4.0, 0.0, 1e-3) < 4.0


def _new_atoms_after(rho, T, a, rng):
    """1 if a branch in (T, 2T] contributes an atom >= a (fresh realization)."""
    from bouex.window import collect_atoms_above

    rep, sigma, b, _ = _draw_branches(1, 2 * T, rng)
    late = sigma > T
    if not np.any(late):
        return 0
    sig = sigma[late]
    bb = b[late]
    drift = SQRT2 * rho * sig
    res = collect_atoms_above(0.0, sig, 0.0, a + drift - bb, 1.0, bb - drift,
                              np.zeros(sig.size, dtype=np.int64), 1, rng,
                              prune_tol=1e-10)
    return int(res.atoms.size > 0)


class TestSampleSpine:
    def test_atom_at_zero_always(self):
        for k in range(20):
            res, _ = _spine_atoms(1, 3.0, SQRT2 * 1.5, -5.0, substream(51, k), 1e-9)
            assert 0.0 in res.atoms

    def test_void_probability_of_no_children(self):
        # realizations with no branch at all occur with probability e^{-2T}
        T, n = 1.0, 30_000
        none = 0
        for j in range((n + 4095) // 4096):
            m = min(4096, n - 4096 * j)
            rep, sigma, _, _ = _draw_branches(m, T, substream(52, j))
            none += m - np.unique(rep).size
        p = none / n
        target = math.exp(-2.0 * T)
        assert abs(p - target) < 4.0 * math.sqrt(target * (1 - target) / n)

    def test_mean_children(self):
        T, n = 2.5, 20_000
        total = 0
        for j in range((n + 4095) // 4096):
            m = min(4096, n - 4096 * j)
            rep, sigma, _, _ = _draw_branches(m, T, substream(53, j))
            total += rep.size
        se = math.sqrt(2 * T / n)  # Poisson variance
        assert abs(total / n - 2 * T) < 4.0 * se

    def test_window_respected(self):
        res, _ = _spine_atoms(1, 4.0, SQRT2 * 1.2, -3.0, substream(54, 0), 1e-9)
        assert res.atoms.min() >= -3.0

    def test_spine_brownian_increments(self):
        # B at branch times has the right marginal variance
        n = 20_000
        rep, sigma, b, b_T = _draw_branches(n, 2.0, substream(55, 0))
        # test var(B_T) = T
        assert abs(b_T.var(ddof=1) - 2.0) < 4.0 * 2.0 * math.sqrt(2.0 / n)
        # B at the branch times: E[B_s^2] = s; regression residual is centred
        resid = b * b - sigma
        se = resid.std(ddof=1) / math.sqrt(resid.size)
        assert abs(resid.mean()) < 4.0 * se


class TestSortBlocks:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_lexsort(self, seed):
        # replicas with no value, and exact ties within and across blocks
        gen = np.random.default_rng(seed)
        counts = gen.poisson(3.0, size=200) * (gen.random(200) < 0.8)
        rep = np.repeat(np.arange(counts.size), counts)
        values = gen.integers(0, 5, size=rep.size) * 0.25 + gen.choice([0.0, 1e-300], rep.size)
        assert np.count_nonzero(counts == 0) > 10 and np.unique(values).size < values.size
        order = np.lexsort((values, rep))
        got = _sort_blocks(counts, values)
        assert np.array_equal(got, values[order]) and np.array_equal(rep, rep[order])

    def test_no_values(self):
        for counts in (np.zeros(3, dtype=np.int64), np.zeros(0, dtype=np.int64)):
            assert _sort_blocks(counts, np.zeros(0)).size == 0


class TestEstimateC:
    def test_endpoint_values(self):
        res = estimate_C(4.0, truncation_horizon(4.0, 0.0, 1e-3), 30_000, seed=56)
        # true value sits ~ 1/rho^2 below the rho -> inf limit
        assert 0.255 < res.estimate < 0.275
        assert res.pruned_mass < 1e-4
        assert res.warning is None

    def test_rho_one_flagged_and_decreasing(self):
        r10 = estimate_C(1.0, 6.0, 4000, seed=57)
        r20 = estimate_C(1.0, 12.0, 4000, seed=58)
        assert r10.warning == "rho_at_one"
        assert r20.estimate < r10.estimate
        assert r10.estimate < INV_SQRT_4PI

    def test_estimate_in_range(self):
        res = estimate_C(2.0, 8.0, 2000, seed=59)
        assert 0.0 <= res.estimate <= INV_SQRT_4PI
        assert res.n_accepted == round(res.estimate / INV_SQRT_4PI * res.n_samples)

    def test_determinism(self):
        a = estimate_C(1.5, 6.0, 3000, seed=60)
        b = estimate_C(1.5, 6.0, 3000, seed=60)
        assert a.estimate == b.estimate

    def test_chunking_invariance(self):
        # the replica-to-stream mapping is fixed by the chunk grid, which is
        # the constant spine.CHUNK; n crosses one chunk boundary
        n = CHUNK + 1000
        a = estimate_C(1.5, 6.0, n, seed=61)
        b = estimate_C(1.5, 6.0, n, seed=61)
        assert a.estimate == b.estimate


class TestCurve:
    def test_monotone_and_endpoint_consistency(self):
        grid = np.arange(1.2, 4.01, 0.2)
        curve = estimate_C_curve(grid, 6.0, 5000, seed=62)
        est = [r.estimate for r in curve]
        assert all(b >= a for a, b in zip(est, est[1:]))
        single = estimate_C(4.0, 6.0, 5000, seed=63)
        top = curve[-1]
        se = math.hypot(top.stderr, single.stderr)
        assert abs(top.estimate - single.estimate) < 4.0 * se
        # the curve check reports c's slope between its two lowest points, 1.1 and 1.2
        details = check_curve_monotone(300, seed=62, horizon_T=4.0).details
        c = details["estimates"]
        assert details["right_derivative_at_one"] == pytest.approx((c[1] - c[0]) / 0.1, rel=1e-12)
        assert details["right_derivative_at_one"] >= 0.0

    def test_uncoupled_consistency(self):
        grid = np.array([1.5, 2.5])
        curve = estimate_C_curve(grid, 8.0, 6000, seed=64)
        for rho, res in zip(grid, curve):
            solo = estimate_C(float(rho), 8.0, 6000, seed=65)
            se = math.hypot(res.stderr, solo.stderr)
            assert abs(res.estimate - solo.estimate) < 4.0 * se


class TestDecoration:
    def test_max_atom_is_zero(self):
        rng = substream(66, 0)
        sizes = set()
        for _ in range(30):
            atoms = sample_decoration(2.0, 5.0, -4.0, 500, rng)
            # the atoms as an ascending float64 array, the atom at 0 last
            assert isinstance(atoms, np.ndarray) and atoms.dtype == np.float64
            assert atoms.ndim == 1 and np.all(np.diff(atoms) >= 0.0)
            assert atoms[-1] == 0.0
            assert atoms.min() >= -4.0
            sizes.add(atoms.size)
        assert max(sizes) > 2  # some draws have atoms to order

    def test_high_speed_sparsity_trend(self):
        # decorations thin out toward a single atom as the speed grows;
        # the mean extra-atom count in [-1, 0] decays like 1/rho
        # (about 0.40 at rho=4, so well below 1 but not yet below 0.2)
        rng = substream(67, 0)
        means = []
        for rho in (4.0, 16.0):
            T = truncation_horizon(rho, -1.0, 1e-3)
            extra = [len(sample_decoration(rho, T, -1.0, 200, rng)) - 1
                     for _ in range(400)]
            means.append(np.mean(extra))
        assert means[0] < 0.6
        assert means[1] < 0.2 < means[0]
        # acceptance rate approx sqrt(4 pi) C(4) ~ 0.94
        res = estimate_C(4.0, truncation_horizon(4.0, 0.0, 1e-3), 5000, seed=68)
        assert res.n_accepted / res.n_samples > 0.9

    def test_budget_error(self):
        with pytest.raises(RejectionBudgetError):
            # rho barely above 1 at a long horizon: voidness is rare
            sample_decoration(1.01, 40.0, -1.0, 3, substream(69, 0))

    def test_truncation_self_consistency(self):
        # window-atom counts are distributionally stable when T is doubled
        rho, a = 1.75, -2.0
        T = truncation_horizon(rho, a, 0.01)
        rng1, rng2 = substream(70, 0), substream(70, 1)
        n = 250
        c1 = np.array([len(sample_decoration(rho, T, a, 4000, rng1))
                       for _ in range(n)], dtype=float)
        c2 = np.array([len(sample_decoration(rho, 2 * T, a, 4000, rng2))
                       for _ in range(n)], dtype=float)
        se = math.hypot(c1.std(ddof=1), c2.std(ddof=1)) / math.sqrt(n)
        assert abs(c1.mean() - c2.mean()) < 4.0 * se


class TestLimitProcess:
    def test_gamma_inf_void_law(self):
        n = 15_000
        z_grid = np.array([-1.0, 0.0, 1.0])
        hits = np.zeros(3)
        for j in range((n + 8191) // 8192):
            m = min(8192, n - 8192 * j)
            rng = substream(71, j)
            for _ in range(m):
                atoms = sample_limit_process(math.inf, -1.0, rng)
                for i, z in enumerate(z_grid):
                    hits[i] += not np.any(atoms >= z)
        emp = hits / n
        target = 1.0 / (1.0 + np.exp(-SQRT2 * z_grid) * INV_SQRT_4PI)
        se = np.sqrt(target * (1 - target) / n)
        assert np.all(np.abs(emp - target) < 4.0 * se)

    def test_atom_positions_truncated_exponential(self):
        rng = substream(72, 0)
        window = -0.5
        atoms = []
        for _ in range(4000):
            atoms.extend(sample_limit_process(math.inf, window, rng))
        atoms = np.array(atoms)
        assert atoms.min() >= window
        # conditional law of position - window is Exp(sqrt 2)
        assert stats.kstest(atoms - window, "expon",
                            args=(0.0, 1.0 / SQRT2)).pvalue > 0.01

    def test_window_restriction_exactness_gamma_inf(self):
        # enlarging the window and restricting back leaves statistics unchanged
        n = 8_000
        za = []
        zb = []
        for j, (seed_a, seed_b) in enumerate([(73, 74)]):
            rng_a, rng_b = substream(seed_a, 0), substream(seed_b, 0)
            for _ in range(n):
                sa = sample_limit_process(math.inf, -0.5, rng_a)
                sb = sample_limit_process(math.inf, -2.5, rng_b)
                za.append(np.count_nonzero(sa >= -0.5))
                zb.append(np.count_nonzero(sb >= -0.5))
        za, zb = np.array(za), np.array(zb)
        se = math.hypot(za.std(ddof=1), zb.std(ddof=1)) / math.sqrt(n)
        assert abs(za.mean() - zb.mean()) < 4.0 * se

    def test_finite_gamma_properties(self):
        rng = substream(75, 0)
        atoms = sample_limit_process(1.0, -1.0, rng, c_value=0.21, proxy_horizon=6.0,
                                     decoration_horizon=8.0)
        assert atoms.size == 0 or atoms.min() >= -1.0

    @pytest.mark.parametrize("gamma, kw", [
        (math.inf, {}),
        (2.0, dict(c_value=0.25, proxy_horizon=5.0, decoration_horizon=5.0))],
        ids=["gamma-inf", "gamma-2"])
    def test_returns_an_ascending_array(self, gamma, kw):
        rng = substream(78, 0)
        sizes = set()
        for _ in range(40):
            atoms = sample_limit_process(gamma, -1.5, rng, **kw)
            assert isinstance(atoms, np.ndarray) and atoms.dtype == np.float64
            assert atoms.ndim == 1 and np.all(np.diff(atoms) >= 0.0)
            assert atoms.size == 0 or atoms[0] >= -1.5
            sizes.add(atoms.size)
        assert max(sizes) > 2  # some draws have atoms to order

    @pytest.mark.parametrize("window_a", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_window(self, window_a):
        for gamma, c_value in ((math.inf, None), (2.0, 0.25)):
            with pytest.raises(ValueError, match="window_a must be finite"):
                sample_limit_process(gamma, window_a, substream(75, 0), c_value=c_value)

    @pytest.mark.parametrize("c_value", [math.nan, math.inf, 0.0, -0.2])
    def test_rejects_a_c_value_not_finite_and_positive(self, c_value):
        with pytest.raises(ValueError, match="c_value must be finite and positive"):
            sample_limit_process(2.0, -1.0, substream(75, 0), c_value=c_value)

    def test_finite_gamma_needs_c_value(self):
        with pytest.raises(ValueError):
            sample_limit_process(2.0, -1.0, substream(75, 0))

    def test_infinite_gamma_rejects_c_value(self):
        # gamma = inf always uses 1/sqrt(4 pi); a given c would go unused
        with pytest.raises(ValueError):
            sample_limit_process(math.inf, -1.0, substream(75, 0), c_value=0.3)

    def test_window_restriction_finite_gamma(self):
        # decorations only move atoms down, so window restriction is exact:
        # counts above -0.5 agree between window -0.5 and window -1.5 runs
        n = 1500
        rng_a, rng_b = substream(76, 0), substream(77, 0)
        ca, cb = [], []
        for _ in range(n):
            sa = sample_limit_process(2.0, -0.5, rng_a, c_value=0.25,
                                      proxy_horizon=6.0, decoration_horizon=6.0)
            sb = sample_limit_process(2.0, -1.5, rng_b, c_value=0.25,
                                      proxy_horizon=6.0, decoration_horizon=6.0)
            ca.append(np.count_nonzero(sa >= -0.5))
            cb.append(np.count_nonzero(sb >= -0.5))
        ca, cb = np.array(ca), np.array(cb)
        se = math.hypot(ca.std(ddof=1), cb.std(ddof=1)) / math.sqrt(n)
        assert abs(ca.mean() - cb.mean()) < 4.0 * se
