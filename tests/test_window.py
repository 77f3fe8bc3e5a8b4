"""Certified pruned collection vs. exhaustive simulation."""

import hashlib
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import log_ndtr

from bouex import checks, cli, cloud, window as window_mod
from bouex.checks import _leaf_sums, smooth_step, spine_identity_sides
from bouex.cloud import (additive_martingale_per_rep, derivative_martingale_per_rep,
                         leaves, simulate_forest)
from bouex.errors import ResourceLimitError
from bouex.gaussian import SQRT2, normalization_factor, ou_variance
from bouex.measure import Centering
from bouex.rng import substream
from bouex.spine import _draw_branches, _spine_atoms, sample_decoration, sample_limit_process
from bouex.window import (CollectedAtoms, _exceedance_log_bound, _log_tail_floor,
                          _prunable, _standard_score, collect_atoms_above,
                          windowed_extremal_atoms)


def brute_force_counts(mu, t, level_raw, n, seed):
    """Windowed leaf counts per replica by full enumeration."""
    counts = []
    for j in range((n + 255) // 256):
        m = min(256, n - 256 * j)
        rep, x = leaves(mu, t, m, substream(seed, j))
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
            _, x = leaves(mu, t, m, substream(34, j))
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

    def test_node_cap(self, monkeypatch):
        monkeypatch.setattr(window_mod, "_NODE_CAP", 10_000)
        with pytest.raises(ResourceLimitError):
            collect_atoms_above(
                0.0, np.full(64, 12.0), np.zeros(64), np.full(64, -np.inf),
                np.ones(64), np.zeros(64), np.arange(64), 64, substream(40, 0),
                prune_tol=0.0)


class TestOneWaveCore:
    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_collector_and_forest_draw_the_same_tree(self, mu):
        # unpruned, unwindowed collection is the forest's leaf set, bit for bit
        n, t = 300, 4.0
        res = collect_atoms_above(
            mu, np.full(n, t), np.zeros(n), np.full(n, -np.inf), np.ones(n),
            np.zeros(n), np.arange(n), n, substream(44, 0), prune_tol=0)
        forest = simulate_forest(mu, t, n, substream(44, 0))
        rep, x = forest.rep[forest.is_leaf], forest.x_end[forest.is_leaf]
        assert np.array_equal(res.group, rep)
        assert np.array_equal(res.atoms, x)
        assert res.n_nodes == forest.n_nodes
        assert np.array_equal(forest.positions_for(mu), x)
        # the leaf path has the forest's leaves, bit for bit (the sign of zero too)
        rep_l, x_l = leaves(mu, t, n, substream(44, 0))
        assert rep_l.tobytes() == rep.tobytes() and x_l.tobytes() == x.tobytes()

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


class TestPruneScreen:
    @given(st.floats(-40.0, 40.0))
    def test_floor_is_below_the_log_tail(self, z):
        assert _log_tail_floor(np.array([z]))[0] + 0.22 <= log_ndtr(-z)

    @settings(max_examples=200, deadline=None)
    @given(mu=st.sampled_from([0.0, 1e-300, 0.05, 1.0, 10.0]),
           seed=st.integers(0, 2**32 - 1),
           prune_tol=st.one_of(st.floats(1e-15, 0.999999),
                               st.sampled_from([0.999999, 1.0, 2.0])))
    def test_screened_drops_equal_the_exact_test(self, mu, seed, prune_tol):
        # random batches with tiny and large tau, levels on both sides of x;
        # the dropped mass is exp of the dropped log bounds
        gen = np.random.default_rng(seed)
        n = 400
        tau = np.exp(gen.uniform(-35.0, np.log(16.0), n))
        x = gen.normal(0.0, 3.0, n)
        level = x + gen.normal(0.0, 6.0, n) * np.sqrt(np.minimum(tau, 1.0))
        log_tol = math.log(prune_tol)
        drop, log_bound = _prunable(mu, tau, x, level, log_tol)
        exact = _exceedance_log_bound(tau, _standard_score(mu, tau, x, level))
        want = np.flatnonzero(exact <= log_tol)
        assert np.array_equal(drop, want)
        assert np.array_equal(log_bound, exact[want])

    @pytest.mark.parametrize("mu, tau, x, level", [(0.0, 2.0, 0.0, 5.0),
                                                    (0.5, 1.5, 0.3, 2.0)])
    def test_log_bound_closed_form(self, mu, tau, x, level):
        # the bound of one subtree is e^tau P(N(x e^{-mu tau}, var_mu(tau)) >= level);
        # at log_tol 0 every subtree whose bound is below 1 is dropped
        drop, log_bound = _prunable(mu, np.array([tau]), np.array([x]), np.array([level]),
                                    0.0)
        sd = math.sqrt(tau if mu == 0.0 else -math.expm1(-2.0 * mu * tau) / (2.0 * mu))
        bound = math.exp(tau) * stats.norm.sf((level - x * math.exp(-mu * tau)) / sd)
        assert 0.0 < bound < 1.0
        assert drop.tolist() == [0]
        assert math.exp(log_bound[0]) == pytest.approx(bound, rel=1e-10)


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

    def test_nan_window_fails_and_infinite_windows_hold(self):
        centering = Centering("bou_tilde", 3.0)
        with pytest.raises(ValueError, match="NaN"):
            windowed_extremal_atoms(1.0, 3.0, centering, math.nan, 4, substream(43, 0))
        everything = windowed_extremal_atoms(1.0, 3.0, centering, -math.inf, 4,
                                             substream(43, 0))
        nothing = windowed_extremal_atoms(1.0, 3.0, centering, math.inf, 4, substream(43, 0))
        assert everything.atoms.size >= 4 and nothing.atoms.size == 0


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _mixed_roots_run():
    # live and tau <= 0 roots, several roots per group, pruning and early stops
    gen = np.random.default_rng(7)
    m = 200
    tau = np.where(gen.random(m) < 0.2, -gen.random(m), 4.0 * gen.random(m))
    tau[::17] = 0.0
    x0, level = gen.normal(size=m), gen.normal(1.0, 1.0, size=m)
    return collect_atoms_above(0.7, tau, x0, level, np.full(m, 1.5), np.full(m, -0.25),
                               np.arange(m) % 50, 50, substream(96, 0), prune_tol=1e-6,
                               stop_level=3.0)


def _flat_run(mu, level, seed, scalar_roots=False, **kw):
    # every root shares x0, level, scale and offset: as per-root arrays or as scalars
    n = 512
    shared = (0.0, level, 1.0, 0.0) if scalar_roots else \
        (np.zeros(n), np.full(n, level), np.ones(n), np.zeros(n))
    return collect_atoms_above(mu, np.full(n, 3.0), *shared, np.arange(n), n,
                               substream(seed, 0), **kw)


_TRAVERSALS = {
    # the extremes benchmark config: mu=1, t=8, tilde centring, window 0.5
    "extremes": (lambda: windowed_extremal_atoms(
        1.0, 8.0, Centering("bou_tilde", 8.0), 0.5, 256, substream(91, 0),
        prune_tol=1e-7),
        "3ade0b18193c960c3c8e3f52f2f7fdc937954e8561d8797ffa33aaed66dfef6c", 1224500),
    "window-8": (lambda: windowed_extremal_atoms(
        1.0, 8.0, Centering("bou_tilde", 8.0), -8.0, 16, substream(92, 0)),
        "733121e9ff18090e8b642e6fd4790cbb7ef83d95ec0453f52634c6e7eed674c2", 72840),
    "mu0-window-1": (lambda: windowed_extremal_atoms(
        0.0, 8.0, Centering("bbm_threehalves", 8.0), -1.0, 128, substream(93, 0)),
        "710b2178734221c75a5d99345c41c389f25c99de3fd2e804268ff69b471df8b4", 182668),
    "stop-level": (lambda: _flat_run(0.0, -1.0, 94, prune_tol=1e-9, stop_level=0.5),
                   "e835c625496b21d1c37761c4bf4cde2d42d2635cf4e5461556a031d3502a6f99", 7014),
    "prune-tol-0": (lambda: _flat_run(0.5, 1.0, 95, prune_tol=0.0),
                    "f841e278f0439bd48cb777f7933d337ca7f87b49d4124e2dfba455326265e851", 19726),
    "prune-tol-0-scalar-roots": (
        lambda: _flat_run(0.5, 1.0, 95, scalar_roots=True, prune_tol=0.0),
        "f841e278f0439bd48cb777f7933d337ca7f87b49d4124e2dfba455326265e851", 19726),
    "mixed-roots": (_mixed_roots_run,
                    "5b680f10d1a79f08d6cfddf845ca73b413246918d05bf9e5046238f26b09d715", 2529),
}

_FORESTS = {
    0.0: ("77948ce80d8972e4307dad80257f179011c2c3bf13792547561554e629a75362", 17404),
    1.0: ("41dc34d7ac839a00092afd430eec6a917d7f489f0589e0b7b9b9ebf25e3566f2", 16054),
}


def _cli_table(tmp_path, *argv):
    out = tmp_path / "table.csv"
    assert cli.main([*argv, "-o", str(out)]) == 0
    return out.read_bytes()


def _martingale_table(tmp_path):
    return _cli_table(tmp_path, "simulate", "--mu", "0", "--t", "5", "--replicas", "1100",
                      "--emit", "martingales", "--betas", "0", "0.5", "1.2", "--seed", "21")


def _yule_counts(monkeypatch):
    # the per-replica leaf counts that check_yule_counts bins
    seen = []

    def recording(*args):
        seen.append(replica_values(*args))
        return seen[-1]

    replica_values = checks._replica_values
    monkeypatch.setattr(checks, "_replica_values", recording)
    checks.check_yule_counts(4.0, 700, seed=22)
    (counts,) = seen
    return counts


def _limit_process_atoms():
    return (sample_limit_process(2.0, -1.0, substream(24, 0), c_value=0.25,
                                 proxy_horizon=6.0, decoration_horizon=6.0),)


def _single_cloud_outputs():
    # the leaves of one-replica forests, and the martingales of the Brownian one
    out = []
    for gamma, t, seed in ((0.0, 3.5, 101), (0.5, 3.0, 102), (1.0, 3.5, 103),
                           (2.0, 4.0, 104)):
        cloud = simulate_forest(gamma / t, t, 1, substream(seed, 0))
        x = cloud.leaf_positions
        out.append(x)
        if gamma == 0.0:
            rep = cloud.rep[cloud.leaf_index]
            out.append(np.concatenate(
                [additive_martingale_per_rep(rep, x, t, 1, beta) for beta in (0.0, 0.5, 1.2)]
                + [derivative_martingale_per_rep(rep, x, t, 1)]))
    return out


_SINGLE_CLOUD = "f8905a5fe9ae9f7650f57fe46f7ccc8a12bb1a9f2c312c533cb484c9ba8c817e"

_LEAF_CONSUMERS = {
    "simulate-martingales": lambda tmp_path, monkeypatch: (_martingale_table(tmp_path),),
    "leaf-sums-mu1": lambda tmp_path, monkeypatch: (
        _leaf_sums(1.0, 4.0, smooth_step(0.0, 1.0), 700, 24),),
    "leaf-sums-mu0": lambda tmp_path, monkeypatch: (
        _leaf_sums(0.0, 4.0, smooth_step(0.0, 1.0), 700, 25),),
    "yule-counts": lambda tmp_path, monkeypatch: (_yule_counts(monkeypatch),),
    "spine-identity-sides": lambda tmp_path, monkeypatch: (
        np.asarray(spine_identity_sides(1.5, 1.5, 5000, 26)),),
    "limit-process-gamma-2": lambda tmp_path, monkeypatch: _limit_process_atoms(),
}

_LEAF_DIGESTS = {
    "simulate-martingales":
        "736c1325740ef488aa5f1335f52444adc75b14fc679783c9f3c5c457186881fd",
    "leaf-sums-mu1":
        "747e19e341bc565567230abd5a924b5b6be24994bb6de9ff3b1b9c7b4a527287",
    "leaf-sums-mu0":
        "ded79b33504d30428633688bff86b72a3aae7e03f542abf4bb4f1cc25bb3dd74",
    "yule-counts":
        "31e0793566225ba7e46b4909b9b7af660e63ff6a19e3cc1cde99d1ead73c0433",
    "spine-identity-sides":
        "262a09b671169d51c801c3917de1f066d8445e1be92ef5f3926f27df635c7dcb",
    "limit-process-gamma-2":
        "632745745c9d17324a278e84069643af8b7930785ac84da059fec14051075a90",
}

# Forest.positions_for on the mu = 1 forest of _FORESTS, for other spring constants
_POSITIONS = {
    0.0: "7ed69851ce258ccb3b907df080e39b796fd4dfd7d42a3cf9f8b1c827ab7eb755",
    0.1: "f30a5905a7416d47e7ab4230f0cb194bb62a9135f8cc9b652780d88eb6c6b3ee",
    10.0: "150d76f801189041cf405363044f0f72d58a4c15aff009a351f02ac7773f15f4",
    math.inf: "8e464cad34760ec6e9946a7854b9d222a600c6c818023deb5929f84891148758",
}

# check_slepian_monotonicity: the laplace and pair_z fields of a fixed-seed report
_SLEPIAN = ([0.940367755725013, 0.9189858167081527, 0.8930980375231485, 0.8945310951454227],
            [-1.692365838477227, -2.1355629671268397, 0.26737081766136683])

# _draw_branches(n, T) at (n, T); the two short horizons give replicas with no branch
_BRANCHES = {
    (1, 1e-6): "4e16dbd7538b58ff653d6ac9976279adc9d5a6e32e4fb85f32b0b2227f964838",
    (7, 0.05): "4bd29e5a9b08e14de0e54886aefb65ddc27e56c1eab6664bf3b402e20d13fa20",
    (64, 2.0): "263fc925eb96c6341e2e63c25a7867231399d4b03633e6728335b8f2d5dbf0fe",
    (4096, 7.3): "e83d32b3d78dbbf411fe16c61a70ff91c99b8d415cbbb4e605ea227d552424d6",
}

# eight one-replica spine realizations at rho 1.5, T 4; no atom at 0 above window 0.5
_SPINES = {
    -2.0: "a610ec8103a1360cb5b0f41eb6ba7bab43023333564f0f6afab7c8ad1ece4def",
    0.5: "d1780e60fb0aa048c02d579ff0bc22558f3c16c6a42b363cfdaf2b2f7e88aeaa",
}

_DECORATIONS = "9ccb0d972ac72450712a2c79141f02b1041d0b9af0f0f5721c17ff3bf420c0bd"

_ESTIMATE_C = ("estimate-c", "--rho-min", "1.0", "--rho-max", "2.0", "--steps", "3",
               "--replicas", "400", "--seed", "28")
_SIMULATE = ("simulate", "--mu", "1", "--t", "5", "--replicas", "4100", "--seed", "29")

# CLI tables: one horizon per rho or one for the grid; two chunks of 4096
_CLI_TABLES = {
    "estimate-c": (_ESTIMATE_C,
                   "ac84a516241d00c37aa52e77697b04f55ddadfd70bbda8268ca04a8150f43939"),
    "estimate-c-coupled": (
        _ESTIMATE_C + ("--coupled",),
        "5e4f94d32dbdcc9a519ae937fce84f8ca972b783ab5c34a18c470b35bded5cd3"),
    "simulate-max": (
        _SIMULATE + ("--emit", "max"),
        "b5834a976d50b58b3c6c77aede59868b6ac114a31b2e1dda5f44c99c58de9f99"),
    "simulate-atoms-above": (
        _SIMULATE + ("--emit", "atoms-above", "--window=1.0"),
        "434a296bd0b6edd6bf42e1c40038121be1947a2507f3c1b78ea49bf7ba740bce"),
    "decorate": (
        ("decorate", "--rho", "3.0", "--window-a", "-2.0", "--samples", "20", "--seed", "30"),
        "0ccac8a71379a830195cccff1bf5fe88f9ee736cb6e7b67032c2e17a6f71abea"),
    # the smoke grid of the KPP oracle; its dt (0.001) divides the u phase
    "kpp": (("kpp", "--rho", "1.5", "--rho", "2", "--t-max", "6", "--dx", "0.1"),
            "0c80cf701188223c5b324442d4f1ac19fe198d53cb9094490eae8016918843f3"),
}


class TestPinnedBits:
    """Fixed-seed output of the traversal and its consumers, pinned bit for bit.

    A speed-up or a simplification must leave these digests unchanged.  They
    depend on the floating-point kernels of the numpy/scipy build, so a new
    build may need them regenerated at a commit known to be correct.
    """

    @pytest.mark.parametrize("name", list(_TRAVERSALS))
    def test_collect_atoms_above(self, name):
        run, digest, n_nodes = _TRAVERSALS[name]
        res = run()
        assert (_digest(res.group, res.atoms, res.pruned_mass, res.stopped),
                res.n_nodes) == (digest, n_nodes)

    @pytest.mark.parametrize("mu", list(_FORESTS))
    def test_simulate_forest(self, mu):
        f = simulate_forest(mu, 5.0, 64, substream(97, int(mu)))
        assert (_digest(f.rep, f.parent, f.t_end, f.duration, f.xi, f.x_end, f.is_leaf,
                        np.asarray(f.wave_edges)), f.n_nodes) == _FORESTS[mu]

    @pytest.mark.parametrize("name", list(_LEAF_CONSUMERS))
    def test_leaf_consumer(self, name, tmp_path, monkeypatch):
        # the Monte Carlo that reads only leaves: CLI bytes, check inputs, W proxy
        assert _digest(*_LEAF_CONSUMERS[name](tmp_path, monkeypatch)) == _LEAF_DIGESTS[name]

    @pytest.mark.parametrize("mu", list(_POSITIONS))
    def test_positions_for(self, mu):
        f = simulate_forest(1.0, 5.0, 64, substream(97, 1))
        assert _digest(f.positions_for(mu)) == _POSITIONS[mu]

    def test_single_cloud(self):
        assert _digest(*_single_cloud_outputs()) == _SINGLE_CLOUD

    def test_slepian_report(self):
        r = checks.check_slepian_monotonicity([0.1, 1.0, 10.0, math.inf],
                                              smooth_step(0.0, 1.0), 4.0, 300, 27)
        assert (r.details["laplace"], r.details["pair_z"]) == _SLEPIAN

    @pytest.mark.parametrize("name", list(_CLI_TABLES))
    def test_cli_table(self, name, tmp_path):
        argv, digest = _CLI_TABLES[name]
        assert _digest(_cli_table(tmp_path, *argv)) == digest

    @pytest.mark.parametrize("n, horizon", list(_BRANCHES))
    def test_draw_branches(self, n, horizon):
        draws = _draw_branches(n, horizon, substream(98, n))
        assert _digest(*draws) == _BRANCHES[n, horizon]

    @pytest.mark.parametrize("window_a", list(_SPINES))
    def test_sample_spine(self, window_a):
        rng = substream(99, 0)
        spines = [_spine_atoms(1, 4.0, SQRT2 * 1.5, window_a, rng, 1e-9)[0] for _ in range(8)]
        atoms = [np.sort(res.atoms) for res in spines]
        assert _digest(*atoms, np.asarray([np.count_nonzero(a > 0.0) for a in atoms]),
                       np.asarray([res.pruned_mass[0] for res in spines])) == _SPINES[window_a]

    def test_sample_decoration(self):
        rng = substream(100, 0)
        decorations = [sample_decoration(2.0, 3.0, -3.0, 1000, rng) for _ in range(6)]
        assert _digest(*decorations) == _DECORATIONS


_DEFAULT_BLOCK = cloud._BLOCK_ROWS


def _cuts(n_nodes=math.inf, blocks=(_DEFAULT_BLOCK, 1000, 7, 1)):
    """(id, (workers, block)) for 1, 2 and 3 workers at each of `blocks`
    that cuts a traversal of n_nodes nodes into at most 5,000 blocks."""
    return [(f"{w}-worker{'s' * (w > 1)}" + ("" if b == _DEFAULT_BLOCK else f"-gate-{b}"),
             (w, b)) for b in blocks if n_nodes <= 10_000 * b for w in (1, 2, 3)]


@pytest.fixture
def split_waves(request, monkeypatch):
    """Waves cut into blocks of `block` rows on `workers` usable cores, with
    threads switching often.  A wave of at most `block` kept rows runs
    whole on the calling thread, so the block size is also the gate between
    whole and streamed waves; at 1000 rows whole and streamed waves take
    turns in one traversal; 3 workers are more threads than a 2-core host
    has."""
    workers, block = request.param
    monkeypatch.setattr(cloud, "_WORKERS", workers)
    monkeypatch.setattr(cloud, "_BLOCK_ROWS", block)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


class TestSplitWaves:
    """The worker count and the block size of the wave core never change a bit."""

    @pytest.mark.parametrize("split_waves, name", [
        pytest.param(cut, name, id=f"{cut_id}-{name}")
        for name, (_, _, n_nodes) in _TRAVERSALS.items() for cut_id, cut in _cuts(n_nodes)],
        indirect=["split_waves"])
    def test_collect_atoms_above(self, name, split_waves):
        run, digest, n_nodes = _TRAVERSALS[name]
        res = run()
        assert (_digest(res.group, res.atoms, res.pruned_mass, res.stopped),
                res.n_nodes) == (digest, n_nodes)

    @pytest.mark.parametrize("split_waves, mu", [
        pytest.param(cut, mu, id=f"{cut_id}-{mu}")
        for mu, (_, n_nodes) in _FORESTS.items() for cut_id, cut in _cuts(n_nodes)],
        indirect=["split_waves"])
    def test_simulate_forest(self, mu, split_waves):
        f = simulate_forest(mu, 5.0, 64, substream(97, int(mu)))
        assert (_digest(f.rep, f.parent, f.t_end, f.duration, f.xi, f.x_end, f.is_leaf,
                        np.asarray(f.wave_edges)), f.n_nodes) == _FORESTS[mu]

    # about 1.2M nodes in two chunks
    @pytest.mark.parametrize("split_waves", [
        pytest.param(cut, id=cut_id) for cut_id, cut in _cuts(1.2e6)], indirect=True)
    def test_simulate_max_table(self, tmp_path, split_waves):
        argv, digest = _CLI_TABLES["simulate-max"]
        assert _digest(_cli_table(tmp_path, *argv)) == digest

    def test_blocks_hold_a_bounded_share_of_the_largest_wave(self, monkeypatch):
        # in blocks of 1,024 rows the extremes pin's traced peak stays under
        # 50 bytes per node of its largest wave (115,470 nodes); whole waves
        # held 82-88, these blocks 30-35
        monkeypatch.setattr(cloud, "_BLOCK_ROWS", 1024)
        sizes = []  # the node count of each wave up to each block
        waves = window_mod._waves

        def recording(*args):
            for block in waves(*args):
                sizes.append(block.start + block.tau.size)
                yield block

        monkeypatch.setattr(window_mod, "_waves", recording)
        run, _, n_nodes = _TRAVERSALS["extremes"]
        run()
        tracemalloc.start()
        try:
            res = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_nodes == n_nodes and peak < 50 * max(sizes)

    def test_reader_may_stop_in_a_streamed_wave(self, monkeypatch):
        # the wave core closed after the first block of a streamed wave cancels
        # the blocks queued on the pool and waits for the running ones
        monkeypatch.setattr(cloud, "_WORKERS", 3)
        monkeypatch.setattr(cloud, "_BLOCK_ROWS", 16)
        waves = cloud._waves(0.0, np.full(512, 2.0), np.zeros(512), substream(5, 0), 10**6)
        first = next(waves)
        waves.close()
        monkeypatch.setattr(cloud, "_WORKERS", 1)
        alone = next(cloud._waves(0.0, np.full(512, 2.0), np.zeros(512), substream(5, 0), 10**6))
        assert all(np.array_equal(getattr(first, k), getattr(alone, k))
                   for k in ("root", "tau", "life", "xi", "leaf", "dur", "x_new"))

    def test_block_that_raises_beside_a_running_one_raises(self, monkeypatch):
        # a pool thread runs block 0 for 0.3 s while the calling thread, which
        # needs it, steps block 1, which raises: the error must come once
        # block 0 has returned, with no block left running, and not hang
        monkeypatch.setattr(cloud, "_WORKERS", 2)
        monkeypatch.setattr(cloud, "_BLOCK_ROWS", 4)
        entered, running, raised = threading.Event(), [], []
        step = cloud._step

        def stepping(*args):
            if not threading.current_thread().name.startswith("bouex-wave"):
                raise MemoryError("stolen block")
            running.append(1)
            entered.set()
            time.sleep(0.3)
            running.pop()
            return step(*args)

        gen, drawn = substream(5, 0), []

        def normal(size):  # block 0 is running on the pool before block 1 is drawn
            if drawn:
                entered.wait(10)
            drawn.append(size)
            return gen.standard_normal(size)

        rng = SimpleNamespace(exponential=gen.exponential, standard_normal=normal)

        def read():
            try:
                for _ in cloud._waves(0.0, np.full(12, 1.0), np.zeros(12), rng, 10**6):
                    pass
            except MemoryError:
                raised.append(list(running))

        monkeypatch.setattr(cloud, "_step", stepping)
        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(10)
        assert not reader.is_alive() and raised == [[]]

    def test_stop_level_groups_straddle_slices(self, monkeypatch):
        # 35 groups interleaved over 700 roots: every block holds rows of every
        # group, so a stop found in one block must hold back rows of the others
        n, g = 700, 35

        def run():
            return collect_atoms_above(0.3, np.full(n, 3.0), 0.0, np.linspace(-1.0, 1.5, n),
                                       1.0, 0.0, np.arange(n) % g, g, substream(47, 0),
                                       prune_tol=1e-6, stop_level=3.5)

        whole = run()
        assert 0 < whole.stopped.sum() < g
        for workers, block in ((2, 1), (3, 7)):
            monkeypatch.setattr(cloud, "_WORKERS", workers)
            monkeypatch.setattr(cloud, "_BLOCK_ROWS", block)
            cut = run()
            for a, b in zip((whole.group, whole.atoms, whole.pruned_mass, whole.stopped),
                            (cut.group, cut.atoms, cut.pruned_mass, cut.stopped)):
                assert np.array_equal(a, b)
            assert cut.n_nodes == whole.n_nodes

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_one_core_makes_no_pool(self):
        # a fresh interpreter bound to one core draws the extremes pin, whose
        # largest waves are streamed on more cores, with no thread besides its own
        src = os.path.dirname(os.path.dirname(os.path.abspath(cloud.__file__)))
        script = """
import os, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from bouex import cloud
from bouex.measure import Centering
from bouex.rng import substream
from bouex.window import windowed_extremal_atoms
res = windowed_extremal_atoms(1.0, 8.0, Centering("bou_tilde", 8.0), 0.5, 256,
                              substream(91, 0), prune_tol=1e-7)
for a in (res.group, res.atoms, res.pruned_mass, res.stopped):
    print(a.tobytes().hex())
print(res.n_nodes, cloud._WORKERS, cloud._pool.cache_info().currsize,
      threading.active_count())
"""
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        *arrays, counts = out.stdout.split("\n")[:5]
        _, digest, n_nodes = _TRAVERSALS["extremes"]
        assert _digest(*(bytes.fromhex(a) for a in arrays)) == digest
        assert counts.split() == [str(n_nodes), "1", "0", "1"]
