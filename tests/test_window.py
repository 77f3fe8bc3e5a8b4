"""Certified pruned collection vs. exhaustive simulation."""

import math

import numpy as np
import pytest
from scipy import stats

from bouex.cloud import simulate_forest
from bouex.errors import ResourceLimitError
from bouex.gaussian import normalization_factor, ou_variance
from bouex.measure import Centering
from bouex.rng import substream
from bouex.window import (CollectedAtoms, collect_atoms_above,
                          subtree_exceedance_bound, windowed_extremal_atoms)


def brute_force_counts(mu, t, level_raw, n, seed):
    """Windowed leaf counts per replica by full enumeration."""
    counts = []
    for j in range((n + 255) // 256):
        m = min(256, n - 256 * j)
        forest = simulate_forest(mu, t, m, substream(seed, j))
        rep, x = forest.leaf_positions()
        sel = x >= level_raw
        counts.append(np.bincount(rep[sel], minlength=m))
    return np.concatenate(counts)


class TestCollector:
    def test_mean_count_matches_many_to_one(self):
        # expected number of leaves above the level is e^t * Gaussian tail
        mu, t, level, n = 1.0, 4.0, 2.2, 40_000
        res = collect_atoms_above(
            mu, np.full(n, t), np.zeros(n), np.full(n, level),
            np.ones(n), np.zeros(n), np.arange(n), n, substream(30, 0),
            prune_tol=1e-10)
        counts = np.bincount(res.group, minlength=n)
        target = math.exp(t) * stats.norm.sf(level / math.sqrt(ou_variance(mu, t)))
        se = counts.std(ddof=1) / math.sqrt(n)
        assert abs(counts.mean() - target) < 4.0 * se + res.pruned_mass.mean()

    def test_distribution_matches_brute_force(self):
        mu, t, level = 0.5, 3.0, 1.5
        n = 30_000
        pruned = collect_atoms_above(
            mu, np.full(n, t), np.zeros(n), np.full(n, level),
            np.ones(n), np.zeros(n), np.arange(n), n, substream(31, 0),
            prune_tol=1e-9)
        c1 = np.bincount(pruned.group, minlength=n)
        c2 = brute_force_counts(mu, t, level, n, seed=32)
        # same count law: compare via a two-sample chi-square on {0,1,2,3+}
        kmax = 3
        o1 = np.bincount(np.minimum(c1, kmax), minlength=kmax + 1)
        o2 = np.bincount(np.minimum(c2, kmax), minlength=kmax + 1)
        tbl = np.vstack([o1, o2])
        tbl = tbl[:, tbl.sum(axis=0) > 0]
        assert stats.chi2_contingency(tbl).pvalue > 0.005

    def test_atom_values_match_brute_force_ks(self):
        mu, t, level = 0.0, 3.0, 2.0
        n = 20_000
        res = collect_atoms_above(
            mu, np.full(n, t), np.zeros(n), np.full(n, level),
            np.ones(n), np.zeros(n), np.arange(n), n, substream(33, 0),
            prune_tol=1e-10)
        forest_atoms = []
        for j in range((n + 255) // 256):
            m = min(256, n - 256 * j)
            forest = simulate_forest(mu, t, m, substream(34, j))
            _, x = forest.leaf_positions()
            forest_atoms.append(x[x >= level])
        brute = np.concatenate(forest_atoms)
        assert stats.ks_2samp(res.atoms, brute).pvalue > 0.005

    def test_zero_prune_tol_collects_everything(self):
        n = 500
        res = collect_atoms_above(
            0.0, np.full(n, 2.0), np.zeros(n), np.full(n, -np.inf),
            np.ones(n), np.zeros(n), np.arange(n), n, substream(35, 0),
            prune_tol=0.0)
        counts = np.bincount(res.group, minlength=n)
        assert np.all(counts >= 1)
        assert np.all(res.pruned_mass == 0.0)

    def test_affine_output_map(self):
        n = 200
        res = collect_atoms_above(
            0.0, np.full(n, 1.0), np.zeros(n), np.full(n, -np.inf),
            np.full(n, 2.0), np.full(n, -3.0), np.arange(n), n, substream(36, 0),
            prune_tol=0.0)
        assert res.atoms.min() >= 2.0 * -10.0 - 3.0  # sane range
        res2 = collect_atoms_above(
            0.0, np.full(n, 1.0), np.zeros(n), np.full(n, -np.inf),
            np.ones(n), np.zeros(n), np.arange(n), n, substream(36, 0),
            prune_tol=0.0)
        assert np.allclose(np.sort(res.atoms), np.sort(2.0 * res2.atoms - 3.0))

    def test_determinism(self):
        args = (1.0, np.full(100, 3.0), np.zeros(100), np.full(100, 0.0),
                np.ones(100), np.zeros(100), np.arange(100), 100)
        r1 = collect_atoms_above(*args, substream(37, 0), prune_tol=1e-8)
        r2 = collect_atoms_above(*args, substream(37, 0), prune_tol=1e-8)
        assert np.array_equal(r1.atoms, r2.atoms)
        assert np.array_equal(r1.group, r2.group)

    def test_stop_level_halts_group(self):
        n = 2000
        res = collect_atoms_above(
            0.0, np.full(n, 3.0), np.zeros(n), np.full(n, -1.0),
            np.ones(n), np.zeros(n), np.arange(n), n, substream(38, 0),
            prune_tol=1e-9, stop_level=-1.0)
        # most groups emit something above -1 (max > -1 w.h.p.) and stop
        assert res.stopped.mean() > 0.9

    def test_pruned_mass_bounds_miss_probability(self):
        # with an aggressive tolerance the tally must still cover the deficit
        mu, t, level, n = 0.0, 4.0, 3.0, 100_000
        res = collect_atoms_above(
            mu, np.full(n, t), np.zeros(n), np.full(n, level),
            np.ones(n), np.zeros(n), np.arange(n), n, substream(39, 0),
            prune_tol=1e-3)
        counts = np.bincount(res.group, minlength=n)
        target = math.exp(t) * stats.norm.sf(level / math.sqrt(t))
        se = counts.std(ddof=1) / math.sqrt(n)
        deficit = target - counts.mean()
        assert deficit < 4.0 * se + res.pruned_mass.mean()

    def test_max_per_group_empty_groups_are_minus_inf(self):
        res = CollectedAtoms(group=np.array([1, 3, 1, 3, 3]),
                             atoms=np.array([0.5, -2.0, 1.5, -1.0, -3.0]),
                             pruned_mass=np.zeros(5), stopped=np.zeros(5, bool),
                             n_nodes=0)
        np.testing.assert_array_equal(res.max_per_group(),
                                      [-np.inf, 1.5, -np.inf, -1.0, -np.inf])
        none = CollectedAtoms(group=np.zeros(0, np.int64), atoms=np.zeros(0),
                              pruned_mass=np.zeros(3), stopped=np.zeros(3, bool),
                              n_nodes=0)
        np.testing.assert_array_equal(none.max_per_group(), np.full(3, -np.inf))

    def test_node_cap(self):
        with pytest.raises(ResourceLimitError):
            collect_atoms_above(
                0.0, np.full(64, 12.0), np.zeros(64), np.full(64, -np.inf),
                np.ones(64), np.zeros(64), np.arange(64), 64, substream(40, 0),
                prune_tol=0.0, node_cap=10_000)

    def test_subtree_bound_scalar(self):
        assert subtree_exceedance_bound(0.0, 0.0, 1.0, 0.5) == 1.0
        assert subtree_exceedance_bound(0.0, 0.0, 0.0, 0.5) == 0.0
        b = subtree_exceedance_bound(0.0, 2.0, 0.0, 5.0)
        assert 0.0 < b < 1.0
        assert b == pytest.approx(math.exp(2.0) * stats.norm.sf(5.0 / math.sqrt(2.0)),
                                  rel=1e-10)


class TestOneWaveCore:
    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_collector_and_forest_draw_the_same_tree(self, mu):
        # unpruned, unwindowed collection is the forest's leaf set, bit for bit
        n, t = 300, 4.0
        res = collect_atoms_above(
            mu, np.full(n, t), np.zeros(n), np.full(n, -np.inf), np.ones(n),
            np.zeros(n), np.arange(n), n, substream(44, 0), prune_tol=0)
        forest = simulate_forest(mu, t, n, substream(44, 0))
        rep, x = forest.leaf_positions()
        assert np.array_equal(res.group, rep)
        assert np.array_equal(res.atoms, x)
        assert res.n_nodes == forest.n_nodes
        assert np.array_equal(forest.positions_for(forest.mu), x)

    @pytest.mark.parametrize("stop_level", [None, 5.0])
    def test_non_positive_horizon_roots(self, stop_level):
        # live roots: groups 0..n-1; roots with tau <= 0 get groups n, n+1, n+2
        n, mu = 60, 0.5
        tau, x0 = np.full(n, 3.0), np.zeros(n)
        level, scale, offset = np.full(n, -1.0), np.ones(n), np.zeros(n)
        group = np.arange(n)
        live = collect_atoms_above(mu, tau, x0, level, scale, offset, group, n,
                                   substream(45, 0), stop_level=stop_level)

        # at its level -> atom 2 * 0.5 + 1; below it -> nothing; 2 * 3 + 1 > 5
        dead = dict(tau=[0.0, -1.0, 0.0], x0=[0.5, -2.0, 3.0], level=[0.5, -1.0, 1.0])
        at = [0, 20, 40]  # interleaved with the live roots
        mixed = collect_atoms_above(
            mu, np.insert(tau, at, dead["tau"]), np.insert(x0, at, dead["x0"]),
            np.insert(level, at, dead["level"]), np.insert(scale, at, 2.0),
            np.insert(offset, at, 1.0), np.insert(group, at, [n, n + 1, n + 2]),
            n + 3, substream(45, 0), stop_level=stop_level)

        assert np.array_equal(mixed.group, np.concatenate(([n, n + 2], live.group)))
        assert np.array_equal(mixed.atoms, np.concatenate(([2.0, 7.0], live.atoms)))
        # tau <= 0 roots draw no random numbers and expand no node
        assert mixed.n_nodes == live.n_nodes
        assert np.array_equal(mixed.pruned_mass[:n], live.pruned_mass)
        assert np.all(mixed.pruned_mass[n:] == 0.0)
        assert np.array_equal(mixed.stopped[:n], live.stopped)
        assert mixed.stopped[n:].tolist() == [False, False, stop_level is not None]


class TestWindowedExtremal:
    def test_counts_match_exact_mean(self):
        mu, t, window, n = 1.0, 8.0, 0.0, 10_000
        centering = Centering("bou_tilde", t)
        res = windowed_extremal_atoms(mu, t, centering, window, n, substream(41, 0))
        counts = np.bincount(res.group, minlength=n)
        lam = normalization_factor(mu, t)
        target = math.exp(t) * stats.norm.sf(
            (window + centering.value) / lam / math.sqrt(ou_variance(mu, t)))
        se = counts.std(ddof=1) / math.sqrt(n)
        assert abs(counts.mean() - target) < 4.0 * se + res.pruned_mass.mean()

    def test_atoms_respect_window(self):
        res = windowed_extremal_atoms(1.0, 6.0, Centering("bou_tilde", 6.0), -1.0,
                                      2000, substream(42, 0))
        assert res.atoms.size == 0 or res.atoms.min() >= -1.0
