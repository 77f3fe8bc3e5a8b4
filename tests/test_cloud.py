"""Branching-diffusion simulation: exact laws, martingales, genealogy."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from bouex.cloud import (additive_martingale_per_rep, derivative_martingale_per_rep,
                         leaves, simulate_forest)
from bouex import cli, cloud as cloud_mod
from bouex.checks import (check_many_to_one, check_many_to_two, check_spine_identity,
                          check_yule_counts, exponential_window, smooth_step)
from bouex.errors import ResourceLimitError
from bouex.gaussian import SQRT2, normalization_factor, ou_variance, pair_covariance
from bouex.rng import substream
from bouex.spine import sample_limit_process


class TestSimulateCloud:
    def test_short_horizon_single_leaf(self):
        rng = substream(1, 0)
        branched = 0
        for _ in range(200):
            cloud = simulate_forest(0.0, 1e-6, 1, rng)
            branched += cloud.leaf_index.size > 1
        assert branched == 0

    def test_yule_mean(self):
        rep, _ = leaves(0.0, 3.0, 10_000, substream(2, 0))
        counts = np.bincount(rep, minlength=10_000)
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - math.exp(3.0)) < 4.0 * se

    def test_uniform_leaf_marginal_ks(self):
        # one uniformly chosen leaf per replica is exactly OU-distributed
        n = 10_000
        rep, x = leaves(1.0, 3.0, n, substream(3, 0))
        rng = substream(3, 1)
        picks = np.empty(n)
        offsets = np.concatenate(([0], np.cumsum(np.bincount(rep, minlength=n))))
        order = np.argsort(rep, kind="stable")
        xs = x[order]
        for r in range(n):
            block = xs[offsets[r]:offsets[r + 1]]
            picks[r] = block[rng.integers(0, block.size)]
        sd = math.sqrt(ou_variance(1.0, 3.0))
        assert stats.kstest(picks / sd, "norm").pvalue > 0.01

    def test_branch_times_increase_along_paths(self):
        f = simulate_forest(0.5, 4.0, 1, substream(4, 0))
        has_parent = f.parent >= 0
        assert np.all(f.t_end[has_parent] > f.t_end[f.parent[has_parent]] - 1e-15)

    def test_horizon_cap(self):
        with pytest.raises(ResourceLimitError, match="e\\^t"):
            simulate_forest(0.0, 17.0, 1, substream(5, 0))

    def test_forest_is_held_about_once_while_merged(self):
        # the waves' pieces of a column die as it is merged, not at the end
        simulate_forest(0.1, 6.0, 256, substream(2, 0))
        tracemalloc.start()
        try:
            forest = simulate_forest(0.1, 6.0, 256, substream(2, 0))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert forest.n_nodes > 150_000 and peak < 1.3 * held

    def test_determinism(self):
        a = simulate_forest(1.0, 3.0, 1, substream(6, 3))
        b = simulate_forest(1.0, 3.0, 1, substream(6, 3))
        assert np.array_equal(a.leaf_positions, b.leaf_positions)


class TestManyToOne:
    """Exact first-moment identity over a function battery."""

    @pytest.mark.parametrize("mu,t", [(0.0, 3.0), (1.0, 3.0)])
    def test_battery(self, mu, t):
        n = 20_000
        rep, x = leaves(mu, t, n, substream(7, 0))
        v = ou_variance(mu, t)
        battery = [
            (lambda y: np.ones_like(y), math.exp(t)),
            (lambda y: np.exp(0.5 * y), math.exp(t) * math.exp(0.125 * v)),
            (lambda y: y * y, math.exp(t) * v),
            (lambda y: (y >= 1.0).astype(float),
             math.exp(t) * stats.norm.sf(1.0 / math.sqrt(v))),
        ]
        for f, target in battery:
            s = np.bincount(rep, weights=f(x), minlength=n)
            se = s.std(ddof=1) / math.sqrt(n)
            assert abs(s.mean() - target) < 4.0 * se + 1e-12


class TestMartingales:
    def test_beta_zero_is_yule_martingale(self):
        rep, x = leaves(0.0, 3.0, 20_000, substream(12, 0))
        w = additive_martingale_per_rep(rep, x, 3.0, 20_000, 0.0)
        counts = np.bincount(rep, minlength=20_000)
        assert np.allclose(w, math.exp(-3.0) * counts)
        se = w.std(ddof=1) / math.sqrt(w.size)
        assert abs(w.mean() - 1.0) < 4.0 * se

    def test_additive_mean_one(self):
        rep, x = leaves(0.0, 5.0, 10_000, substream(13, 0))
        w = additive_martingale_per_rep(rep, x, 5.0, 10_000, 0.5)
        se = w.std(ddof=1) / math.sqrt(w.size)
        assert abs(w.mean() - 1.0) < 4.0 * se

    def test_critical_beta_degenerates(self):
        w5 = np.concatenate([additive_martingale_per_rep(
            *leaves(0.0, 5.0, 50, substream(14, j)), 5.0, 50, SQRT2) for j in range(4)])
        w10 = np.concatenate([additive_martingale_per_rep(
            *leaves(0.0, 10.0, 25, substream(15, j)), 10.0, 25, SQRT2) for j in range(8)])
        assert np.median(w10) < 0.5 * np.median(w5)

    def test_derivative_short_horizon(self):
        rng = substream(16, 0)
        while True:
            cloud = simulate_forest(0.0, 1e-4, 1, rng)
            if cloud.leaf_index.size == 1:
                break
        (val,) = derivative_martingale_per_rep(cloud.rep[cloud.leaf_index],
                                               cloud.leaf_positions, 1e-4, 1)
        assert abs(val - SQRT2 * 1e-4 * math.exp(-2e-4)) < 0.01

    def test_derivative_mean_zero(self):
        rep, x = leaves(0.0, 4.0, 100_000, substream(17, 0))
        z = derivative_martingale_per_rep(rep, x, 4.0, 100_000)
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean()) < 4.0 * se

    def test_derivative_mostly_positive_late(self):
        z = np.concatenate([derivative_martingale_per_rep(
            *leaves(0.0, 9.0, 50, substream(18, j)), 9.0, 50) for j in range(6)])
        assert np.mean(z < 0) < 0.05


def _mrca_time(forest, u, v):
    """Branch time of the most recent common ancestor of leaves u, v of one
    replica, leaves indexed in storage order."""
    ancestors = set()
    node = int(forest.leaf_index[u])
    while node >= 0:
        ancestors.add(node)
        node = int(forest.parent[node])
    node = int(forest.leaf_index[v])
    while node not in ancestors:
        node = int(forest.parent[node])
    return float(forest.t_end[node])


class TestSiblingCovariance:
    def test_matches_pair_covariance_at_mrca(self):
        mu, t = 1.0, 2.0
        lam = normalization_factor(mu, t)
        rng = substream(19, 0)
        resid = []
        for _ in range(4000):
            cloud = simulate_forest(mu, t, 1, rng)
            if cloud.leaf_index.size < 2:
                continue
            u, v = rng.choice(cloud.leaf_index.size, size=2, replace=False)
            tau = _mrca_time(cloud, int(u), int(v))
            x = cloud.leaf_positions
            resid.append(lam * x[u] * lam * x[v] - pair_covariance(mu, t, tau))
        resid = np.array(resid)
        se = resid.std(ddof=1) / math.sqrt(resid.size)
        assert abs(resid.mean()) < 4.0 * se


class TestLeafPath:
    def test_leaf_only_consumers_build_no_forest(self, monkeypatch, tmp_path):
        # leaves come from cloud.leaves; a Forest is built only to read a genealogy
        def no_forest(*args, **kwargs):
            raise AssertionError("a leaf-only consumer built a Forest")

        monkeypatch.setattr(cloud_mod, "Forest", no_forest)
        for report in (check_many_to_one(1.0, 2.0, smooth_step(0.0, 1.0), 200, seed=1),
                       check_many_to_two(0.0, 1.5, exponential_window(0.5, 0.0), 200,
                                         seed=2),
                       check_yule_counts(2.0, 200, seed=3),
                       check_spine_identity(1.5, 1.5, 200, seed=4)):
            assert np.isfinite(report.statistic)
        out = tmp_path / "mart.csv"
        assert cli.main(["simulate", "--mu", "0", "--t", "2", "--replicas", "5",
                         "--emit", "martingales", "-o", str(out)]) == 0
        atoms = sample_limit_process(2.0, -1.0, substream(5, 0), c_value=0.25,
                                     proxy_horizon=4.0, decoration_horizon=4.0)
        assert np.all(np.isfinite(atoms))

    def test_horizon_cap_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a tree past the horizon cap")

        monkeypatch.setattr(cloud_mod, "_waves", no_draw)
        with pytest.raises(ResourceLimitError, match="e\\^t"):
            leaves(0.0, 17.0, 1, substream(5, 0))

    @pytest.mark.parametrize("mu,t", [(math.nan, 2.0), (0.0, math.nan), (0.0, 0.0)])
    def test_bad_parameters_are_value_errors(self, mu, t):
        with pytest.raises(ValueError):
            leaves(mu, t, 1, substream(5, 0))
