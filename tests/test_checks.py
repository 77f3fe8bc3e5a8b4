"""Verification harness mechanics and the check battery at reduced scale."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from bouex import checks, cloud
from bouex.checks import (CheckReport, check_first_moment,
                          check_iid_limit, check_many_to_one, check_many_to_two,
                          check_max_limit_law, check_second_moment_gap,
                          check_slepian_monotonicity, check_spine_identity,
                          check_yule_counts, check_limit_process_law,
                          exponential_window, gaussian_expectation,
                          iid_finite_t_functional, iid_limit_functional,
                          indicator, pair_expectation,
                          reports_to_json, simulate_iid_laplace, smooth_step,
                          spine_identity_sides)
from bouex.gaussian import SQRT2
from bouex.rng import chunks
from bouex import suite


class TestTestFunctions:
    def test_smooth_step_shape(self):
        phi = smooth_step(-1.0, 0.5, height=2.0)
        x = np.linspace(-2.0, 1.0, 301)
        v = phi(x)
        assert np.all(v[x <= -1.0] == 0.0)
        assert np.all(v[x >= -0.5] == 2.0)
        assert np.all(np.diff(v) >= -1e-12)

    def test_indicator_and_window(self):
        assert indicator(0.5)(np.array([0.4, 0.5, 0.6])).tolist() == [0.0, 1.0, 1.0]
        w = exponential_window(1.0, 0.0)
        assert w(np.array([-0.1, 0.0, 1.0])).tolist() == [0.0, 1.0, math.e]


class TestOracles:
    def test_gaussian_expectation_closed_forms(self):
        # indicator and exponential-window quadrature vs closed forms
        from scipy.stats import norm
        v = 1.7
        assert gaussian_expectation(indicator(0.8), v, 0.8) == pytest.approx(
            norm.sf(0.8 / math.sqrt(v)), rel=1e-8)
        beta, a = 0.6, 0.3
        target = math.exp(0.5 * beta * beta * v - beta * a) * \
            norm.sf((a - beta * v) / math.sqrt(v))
        assert gaussian_expectation(exponential_window(beta, a), v, a) == \
            pytest.approx(target, rel=1e-8)

    def test_pair_expectation_independent_factorizes(self):
        f = indicator(0.5)
        v = 1.3
        single = gaussian_expectation(f, v, 0.5)
        assert pair_expectation(f, v, 0.0) == pytest.approx(single * single, rel=1e-6)

    def test_pair_expectation_full_correlation(self):
        f = indicator(0.5)
        v = 1.3
        assert pair_expectation(f, v, v * (1 - 1e-12)) == pytest.approx(
            gaussian_expectation(f, v, 0.5), rel=1e-5)

    def test_pair_expectation_smooth_step_consistency(self):
        # Monte Carlo cross-check of the 2-d quadrature
        f = smooth_step(0.0, 1.0)
        v, c = 1.0, 0.6
        rng = np.random.default_rng(7)
        z1 = rng.standard_normal(200_000)
        z2 = c * z1 + math.sqrt(v - c * c / v * v) * rng.standard_normal(200_000)
        emp = (f(z1 * math.sqrt(v) / math.sqrt(v)) * f(z2)).mean()
        val = pair_expectation(f, v, c)
        se = (f(z1) * f(z2)).std() / math.sqrt(z1.size)
        assert abs(val - emp) < 5 * se + 0.003

    @pytest.mark.parametrize("v", [1.3, 2.0])
    def test_pair_expectation_smooth_step_limits(self, v):
        # closed-form conditional mean: independence factorizes, full correlation squares
        f = smooth_step(-0.5, 0.8, height=2.0)
        single = gaussian_expectation(f, v, -0.5)
        assert pair_expectation(f, v, 0.0) == pytest.approx(single * single, rel=1e-8)
        square = gaussian_expectation(lambda x: f(x) ** 2, v, -0.5)
        assert pair_expectation(f, v, v) == pytest.approx(square, rel=1e-8)
        assert pair_expectation(f, v, v * (1 - 1e-12)) == pytest.approx(square, rel=1e-8)

    def test_iid_limit_formula_at_zero(self):
        # the limiting CDF of the maximum at z=0 is exactly 1/2 under the
        # tilde centring; in these (m_t) coordinates the plateau-inf step at 0
        # gives (1 + 1/sqrt(4 pi) * ... ) -- sanity: monotone in the height
        lo = iid_limit_functional(smooth_step(0.0, 1.0, height=1.0))
        hi = iid_limit_functional(smooth_step(0.0, 1.0, height=20.0))
        assert 0.0 < hi < lo < 1.0

    def test_finite_t_approaches_limit(self):
        phi = smooth_step(0.0, 1.0, height=20.0)
        d10 = abs(iid_finite_t_functional(phi, 10.0) - iid_limit_functional(phi))
        d14 = abs(iid_finite_t_functional(phi, 14.0) - iid_limit_functional(phi))
        assert d14 < d10 < 0.08
        assert d14 < 0.05


class TestClosedForms:
    """The scipy-free oracle formulas of `checks` against scipy.stats itself."""

    def test_norm_pdf_is_scipy_bit_for_bit(self):
        from scipy.stats import norm
        rng = np.random.default_rng(3)
        x = np.concatenate([5.0 * rng.standard_normal(20_000),
                            [0.0, -0.0, 40.0, np.inf, -np.inf]])
        for sd in (0.3, 1.0, math.sqrt(1.7), math.sqrt(10.0)):
            np.testing.assert_array_equal(checks._norm_pdf(x, sd), norm.pdf(x, scale=sd))
            for xi in x[:2000]:
                assert checks._norm_pdf(float(xi), sd) == norm.pdf(float(xi), scale=sd)

    def test_gaussian_expectation_is_scipy_bit_for_bit(self):
        from scipy.integrate import quad
        from scipy.stats import norm
        for f, v, lo in ((indicator(0.8), 1.7, 0.8),
                         (exponential_window(0.6, 0.3), 1.7, 0.3),
                         (smooth_step(-0.5, 0.8, height=2.0), 3.0, -0.5)):
            sd = math.sqrt(v)
            ref, _ = quad(lambda x: f(x) * norm.pdf(x, scale=sd), lo, np.inf, limit=200)
            assert gaussian_expectation(f, v, lo) == ref

    def test_ks_statistic_is_scipy_bit_for_bit(self):
        from scipy.stats import kstest
        rng = np.random.default_rng(4)

        def cdf(z):
            return 1.0 / (1.0 + np.exp(-SQRT2 * np.asarray(z, dtype=float)))

        for n in (1, 2, 7, 100, 2000):
            for _ in range(5):
                # rounding to one decimal makes ties; -inf stands for an empty replica
                sample = np.round(rng.standard_normal(n), 1)
                sample[rng.random(n) < 0.2] = -np.inf
                assert checks._ks_statistic(sample, cdf) == kstest(sample, cdf).statistic
        assert checks._ks_statistic(np.full(5, -np.inf), cdf) == 1.0

    def test_chisquare_is_scipy_bit_for_bit(self):
        from scipy.stats import chisquare
        rng = np.random.default_rng(5)
        for k in (2, 3, 10, 40):
            for n in (50, 3000):
                probs = rng.random(k) + 0.05
                probs /= probs.sum()
                obs = rng.multinomial(n, probs)
                ref = chisquare(obs, f_exp=n * probs)
                assert checks._chisquare(obs, n * probs) == (ref.statistic, ref.pvalue)

    def test_chisquare_rejects_unequal_totals(self):
        from scipy.stats import chisquare
        obs, expected = np.array([10, 20, 30]), np.array([10.0, 20.0, 31.0])
        with pytest.raises(ValueError):
            chisquare(obs, f_exp=expected)
        with pytest.raises(ValueError, match="relative tolerance"):
            checks._chisquare(obs, expected)

    @pytest.mark.parametrize("v", [0.7, 2.5])
    def test_bvn_upper_matches_multivariate_normal(self, v):
        from scipy.stats import multivariate_normal
        for h in (-3.0, -0.5, 0.0, 0.4, 2.0, 6.0):
            for rho in (-0.9, 0.0, 0.5, 0.99):
                b, c = h * math.sqrt(v), rho * v
                ref = multivariate_normal(mean=[0.0, 0.0], cov=[[v, c], [c, v]]).cdf([-b, -b])
                assert checks._bvn_upper(b, v, c) == pytest.approx(ref, rel=0, abs=1e-12)

    @pytest.mark.parametrize("h", [-3.0, -0.5, 0.0, 0.4, 2.0, 6.0])
    def test_bvn_upper_degenerate_correlations(self, h):
        from scipy.special import ndtr
        v = 1.9
        b = h * math.sqrt(v)
        assert checks._bvn_upper(b, v, v) == ndtr(-h)
        assert checks._bvn_upper(b, v, -v) == pytest.approx(
            max(0.0, ndtr(-h) - ndtr(h)), rel=0, abs=1e-15)
        assert checks._bvn_upper(-math.inf, v, 0.3 * v) == 1.0


def test_scipy_stats_and_integrate_load_only_on_first_quadrature(tmp_path):
    # a fresh interpreter: importing bouex and running kpp and simulate loads
    # neither scipy.stats nor scipy.integrate; the first quadrature loads integrate
    src = os.path.dirname(os.path.dirname(os.path.abspath(checks.__file__)))
    script = """
import sys
import bouex, bouex.cli
from bouex.checks import gaussian_expectation, indicator
out = sys.argv[1]
assert bouex.cli.main(["kpp", "--rho", "1.5", "--t-max", "2", "--dx", "0.2", "-o", out]) == 0
assert bouex.cli.main(["simulate", "--mu", "1.0", "--t", "2.0", "--replicas", "5",
                       "--emit", "max", "--seed", "1", "-o", out]) == 0
print("scipy.stats" in sys.modules, "scipy.integrate" in sys.modules)
gaussian_expectation(indicator(0.5), 1.0, 0.5)
print("scipy.integrate" in sys.modules)
"""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out.csv")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "False", "True"]


def test_scipy_linalg_loads_only_on_first_kpp_solve(tmp_path):
    # a fresh interpreter: importing bouex and running simulate leaves
    # scipy.linalg unloaded; the first KPP front loads it
    src = os.path.dirname(os.path.dirname(os.path.abspath(checks.__file__)))
    script = """
import sys
import bouex, bouex.cli
out = sys.argv[1]
assert bouex.cli.main(["simulate", "--mu", "1.0", "--t", "2.0", "--replicas", "5",
                       "--emit", "max", "--seed", "1", "-o", out]) == 0
print("scipy.linalg" in sys.modules)
assert bouex.cli.main(["kpp", "--rho", "1.5", "--t-max", "2", "--dx", "0.2", "-o", out]) == 0
print("scipy.linalg" in sys.modules)
"""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out.csv")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "True"]


class TestReports:
    def test_pass_iff_statistic_below_threshold(self):
        r = CheckReport.make("x", 1.0, 2.0, 10)
        assert r.passed and not r.failed
        r = CheckReport.make("x", 3.0, 2.0, 10)
        assert not r.passed and r.failed

    def test_inconclusive_is_not_failed(self):
        r = CheckReport.make("x", math.inf, 2.0, 10, inconclusive=True)
        assert not r.passed and not r.failed

    def test_json_round_trip(self):
        r = CheckReport.make("x", 1.0, 2.0, 10, extra_field=[1, 2])
        data = json.loads(reports_to_json([r]))
        assert data[0]["name"] == "x"
        assert data[0]["details"]["extra_field"] == [1, 2]


class TestChecksReduced:
    """Every check at a scale that runs in seconds."""

    def test_many_to_one(self):
        r = check_many_to_one(1.0, 3.0, indicator(1.0), 20_000, seed=80)
        assert r.passed

    def test_many_to_one_brownian_exponential(self):
        r = check_many_to_one(0.0, 3.0, exponential_window(0.5, 0.0), 20_000, seed=81)
        assert r.passed

    def test_many_to_two_yule_closed_form(self):
        # f == 1 (indicator at -inf): target reduces to 2 e^{2t} - e^t exactly
        t = 1.5
        r = check_many_to_two(1.0, t, indicator(-math.inf), 20_000, seed=82)
        assert r.passed
        assert r.details["target"] == pytest.approx(
            2 * math.exp(2 * t) - math.exp(t), rel=1e-6)

    def test_many_to_two_exponential(self):
        r = check_many_to_two(1.0, 1.5, exponential_window(0.5, 0.0), 20_000, seed=83)
        assert r.passed

    def test_many_to_two_smooth_step(self):
        # its target quadrature used to take minutes; the Monte Carlo side takes ms
        start = time.perf_counter()
        r = check_many_to_two(1.0, 2.0, smooth_step(0.0, 1.0), 200, seed=2)
        assert time.perf_counter() - start < 30.0
        assert r.passed

    def test_many_to_two_decorrelation_large_mu(self):
        # strong spring: the pair term approaches the product of singles
        from bouex.checks import pair_expectation
        from bouex.gaussian import ou_variance
        f = indicator(0.5)
        t = 1.5
        for mu, tol in [(50.0, 0.02)]:
            v = ou_variance(mu, t)
            c = math.exp(-2 * mu * (t - 0.5)) * ou_variance(mu, 0.5)
            single = gaussian_expectation(f, v, 0.5)
            assert pair_expectation(f, v, c) == pytest.approx(single ** 2, rel=tol)

    def test_spine_identity_weight_positivity(self):
        # importance weights lie in (0, 1] on the conditioning event
        from bouex.spine import _draw_branches
        from bouex.rng import substream
        _, _, _, b_T = _draw_branches(5000, 1.0, substream(84, 0))
        w = np.where(b_T <= 0, np.exp(SQRT2 * 1.5 * b_T), np.nan)
        w = w[~np.isnan(w)]
        assert np.all((w > 0) & (w <= 1.0))

    def test_spine_identity_passes(self):
        r = check_spine_identity(1.0, 1.0, 60_000, seed=85)
        assert r.passed

    def test_spine_identity_mutation_detected(self):
        r = check_spine_identity(1.5, 1.5, 60_000, seed=86, drift_sign=+1.0)
        assert not r.passed

    def test_max_limit_law(self):
        r = check_max_limit_law(1.0, 8.0, 2000, seed=87, threshold=0.08)
        assert r.passed
        assert abs(r.details["median"]) < 0.3

    def test_max_limit_law_cdf_value(self, monkeypatch):
        # replica maxima at the quantiles (i - 1/2)/n of expit(scale z): against
        # the limit law (1 + e^{-sqrt2 z})^{-1} the KS distance is exactly 1/(2n)
        # at scale sqrt2, and a law mis-scaled to expit(z) reads far above it
        from scipy.special import logit
        n = 400
        quantiles = logit((np.arange(1, n + 1) - 0.5) / n)

        def report(scale):
            class Collected:
                def max_per_group(self):
                    return quantiles / scale

            monkeypatch.setattr(checks, "windowed_extremal_atoms",
                                lambda *args, **kwargs: Collected())
            return check_max_limit_law(1.0, 8.0, n, seed=0)

        exact = report(SQRT2)
        assert exact.statistic == pytest.approx(1.0 / (2 * n), rel=0, abs=1e-12)
        assert exact.passed
        mis_scaled = report(1.0)
        assert mis_scaled.statistic > 1.5 * mis_scaled.threshold

    def test_first_moment(self):
        # at t=8 the finite-horizon deficit at z=-1 already exceeds the 0.2
        # band (it re-enters by t=12), so the reduced grid stays at z >= 0
        r = check_first_moment(1.0, 8.0, (0.0, 1.0, 2.0), 4000, seed=88)
        assert r.passed

    def test_first_moment_validates_levels(self):
        with pytest.raises(ValueError):
            check_first_moment(1.0, 8.0, (5.0,), 100, seed=89)

    def test_second_moment_gap(self):
        r = check_second_moment_gap(1.0, 8.0, (0.5, 1.0, 1.5, 2.0, 2.5),
                                    30_000, seed=90)
        assert r.passed or r.inconclusive
        if r.passed:
            gaps = [g for g in r.details["gaps"] if g > 0]
            assert gaps[0] > gaps[-1]

    def test_second_moment_gap_inconclusive_path(self):
        r = check_second_moment_gap(1.0, 4.0, (1.4, 1.6, 1.8), 50, seed=91)
        assert r.inconclusive or r.passed

    def test_slepian(self):
        r = check_slepian_monotonicity([0.1, 1.0, 10.0, math.inf],
                                       smooth_step(0.0, 1.0), 5.0, 1500, seed=92)
        assert r.passed
        assert len(r.details["laplace"]) == 4

    def test_slepian_single_point_trivial(self, monkeypatch):
        # one spring constant has no pair to compare, so no forest is drawn
        from bouex import checks

        def no_forest(*args, **kwargs):
            raise AssertionError("single-point Slepian check drew a forest")

        monkeypatch.setattr(checks, "simulate_forest", no_forest)
        r = check_slepian_monotonicity([0.5], smooth_step(0.0, 1.0), 4.0, 200,
                                       seed=93)
        assert r.passed

    def test_slepian_constant_phi_equal(self):
        # a flat test function only sees the leaf count, equal across mu
        r = check_slepian_monotonicity([0.5, 5.0], smooth_step(-30.0, 1e-6), 4.0,
                                       2000, seed=94)
        assert abs(r.details["laplace"][0] - r.details["laplace"][1]) < 1e-12

    def test_iid_limit(self):
        r = check_iid_limit(12.0, 20_000, seed=95, tol=0.06)
        assert r.passed
        for row in r.details["rows"]:
            assert row["z_vs_exact"] < 4.5

    def test_iid_simulator_matches_brute_force(self):
        # exact-law shortcut vs full mu = inf forests at small t
        from bouex.cloud import simulate_forest
        from bouex.measure import Centering
        from bouex.rng import substream
        phi = smooth_step(0.0, 1.0, height=2.0)
        t, n = 6.0, 4000
        mean_fast, se_fast = simulate_iid_laplace(phi, t, n, seed=96)
        m_t = Centering("bou_onehalf", t).value
        vals = []
        for j in range((n + 255) // 256):
            m = min(256, n - 256 * j)
            forest = simulate_forest(1.0, t, m, substream(97, j))
            leaves = forest.positions_for(math.inf)
            rep = forest.rep[forest.is_leaf]
            tot = np.bincount(rep, weights=phi(leaves - m_t), minlength=m)
            vals.append(np.exp(-tot))
        vals = np.concatenate(vals)
        se = math.hypot(se_fast, vals.std(ddof=1) / math.sqrt(n))
        assert abs(mean_fast - vals.mean()) < 4.0 * se

    def test_yule_counts(self):
        r = check_yule_counts(4.0, 3000, seed=98)
        assert r.passed

    def test_yule_counts_with_one_bin_is_inconclusive(self, monkeypatch):
        # n e^{-t} = 0.034 < 5 leaves one bin, and a chi-square with no
        # degree of freedom; no tree is drawn for it
        monkeypatch.setattr(checks, "leaves", None)
        r = check_yule_counts(8.0, 100, 1)
        assert (r.inconclusive, r.failed, r.details["bins"]) == (True, False, 1)
        assert r.statistic == math.inf and "n e^{-t} < 5" in r.details["note"]

    def test_limit_process_law(self):
        r = check_limit_process_law(5000, seed=99)
        assert r.passed


@pytest.fixture(params=[1, 2, 3], ids=["1-worker", "2-workers", "3-workers"])
def chunk_workers(request, monkeypatch):
    """Chunk jobs on `workers` threads, with threads switching often; 3
    workers are more threads than a 2-core host has.  Pool threads never
    stop early, however little of a chunk's time they run."""
    monkeypatch.setattr(cloud, "_WORKERS", request.param)
    monkeypatch.setattr(cloud, "_CHUNK_CPU_SHARE", 0.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


def _recorded_job(monkeypatch, run):
    """run()'s output and the (n, size, draw) of its one `_replica_values` job."""
    seen = []
    replica_values = checks._replica_values

    def recording(n, size, draw):
        seen.append((n, size, draw))
        return replica_values(n, size, draw)

    monkeypatch.setattr(checks, "_replica_values", recording)
    out = run()
    (job,) = seen
    return out, job


_CHUNK_JOBS = {
    # six chunks of 512 replicas but the last, of small full trees (280k nodes)
    "leaf-sums": lambda: checks._leaf_sums(1.0, 4.0, smooth_step(0.0, 1.0), 2600, 31),
    # three chunks of 2048 replicas but the last, pruned (1.3M nodes)
    "counts-above": lambda: checks._counts_above(1.0, 5.0, (0.0, 0.5, 1.0), 5000, 32),
    # one chunk, pruned, whose waves the pool streams (9.6k nodes)
    "one-chunk": lambda: checks._counts_above(0.5, 3.0, (0.0, 1.0), 300, 33),
}

_DEFAULT_BLOCK = cloud._BLOCK_ROWS
# the block sizes each job runs at besides the default: those that cut it
# into at most 5,000 blocks
_JOB_BLOCKS = {"leaf-sums": (1000,), "counts-above": (1000,), "one-chunk": (1000, 7, 1)}


class TestChunkExecutor:
    """The checks' chunks run at once on `cloud._run`, the one executor of
    chunks and of a wave's row-wise decisions, and the worker count never
    changes a bit."""

    def test_keeps_task_order(self, chunk_workers):
        # tasks of uneven length finish out of order on more threads
        def task(i):
            time.sleep(0.002 * (i % 3))
            return i

        assert cloud._run([lambda i=i: task(i) for i in range(7)]) == list(range(7))

    def test_raises_once_every_started_task_returned(self, chunk_workers):
        # task 1 raises after 30 ms and task 2 at once, while task 0 runs on
        # for 60 ms; the lowest failure is raised only once task 0 is done
        started, returned = [], []

        def task(i):
            started.append(i)
            try:
                time.sleep({0: 0.06, 1: 0.03}.get(i, 0.0))
                if i in (1, 2):
                    raise ValueError(f"task {i}")
                return i
            finally:
                returned.append(i)

        with pytest.raises(ValueError, match="task 1"):
            cloud._run([lambda i=i: task(i) for i in range(6)])
        assert {0, 1} <= set(started) and sorted(returned) == sorted(started)

    def test_one_task_makes_no_pool(self, monkeypatch):
        monkeypatch.setattr(cloud, "_WORKERS", 5)
        pools, threads = cloud._pool.cache_info(), threading.active_count()
        assert cloud._run([lambda: 5]) == [5]
        assert (cloud._pool.cache_info(), threading.active_count()) == (pools, threads)

    @pytest.mark.parametrize("name, block", [
        pytest.param(name, block, id=name if block is None else f"{name}-block-{block}")
        for name, blocks in _JOB_BLOCKS.items() for block in (None,) + blocks])
    def test_equals_serial_loop(self, name, block, chunk_workers, monkeypatch):
        # blocks of `block` rows (None: the default) on `chunk_workers`
        # threads, against a loop over the chunks in default blocks on one
        if block is not None:
            monkeypatch.setattr(cloud, "_BLOCK_ROWS", block)
        got, (n, size, draw) = _recorded_job(monkeypatch, _CHUNK_JOBS[name])
        monkeypatch.setattr(cloud, "_WORKERS", 1)
        monkeypatch.setattr(cloud, "_BLOCK_ROWS", _DEFAULT_BLOCK)
        serial = np.concatenate([draw(j, m) for j, _, m in chunks(n, size)])
        assert got.dtype == serial.dtype and np.array_equal(got, serial)

    def test_chunks_run_at_once(self, monkeypatch):
        # each pair of chunks meets at a barrier, which a loop would never pass
        monkeypatch.setattr(cloud, "_WORKERS", 2)
        monkeypatch.setattr(cloud, "_CHUNK_CPU_SHARE", 0.0)
        barrier = threading.Barrier(2, timeout=30)

        def draw(j, m):
            barrier.wait()
            return np.full(m, j, dtype=float)

        got = checks._replica_values(35, 10, draw)
        assert np.array_equal(got, np.repeat(np.arange(4.0), [10, 10, 10, 5]))

    def test_pool_thread_stops_after_a_chunk_spent_waiting(self, monkeypatch):
        # a chunk that sleeps runs for none of its time: each pool thread
        # runs one at most, and the calling thread the rest
        monkeypatch.setattr(cloud, "_WORKERS", 3)
        threads = []

        def draw(j, m):
            threads.append(threading.current_thread())
            time.sleep(0.001)
            return np.full(m, j)

        got = checks._replica_values(200, 10, draw)
        assert np.array_equal(got, np.repeat(np.arange(20), 10))
        assert sum(t is not threading.current_thread() for t in threads) <= 2

    def test_lowest_failing_chunk_raises(self, chunk_workers):
        # chunk 2 of 6 raises last, after chunk 3 has raised; each thread
        # then takes no further chunk, and chunks past 3 take 20 ms
        ran = []

        def draw(j, m):
            ran.append(j)
            if j == 2:
                time.sleep(0.1)
            if j in (2, 3):
                raise ValueError(f"chunk {j}")
            time.sleep(0.02 if j > 3 else 0.0)
            return np.zeros(m)

        with pytest.raises(ValueError, match="chunk 2"):
            checks._replica_values(60, 10, draw)
        assert {0, 1, 2} <= set(ran) <= set(range(2 + chunk_workers))

    def test_one_core_makes_no_pool(self, monkeypatch):
        monkeypatch.setattr(cloud, "_WORKERS", 1)
        monkeypatch.setattr(cloud, "_BLOCK_ROWS", 256)
        pools, threads = cloud._pool.cache_info(), threading.active_count()
        for run in _CHUNK_JOBS.values():
            run()
        assert (cloud._pool.cache_info(), threading.active_count()) == (pools, threads)

    def test_chunk_workers_never_hand_a_block_to_the_pool(self, monkeypatch):
        # every wave of more than 64 kept rows has several blocks; a chunk
        # worker steps them itself, and only a job of one chunk streams them
        # through the pool
        monkeypatch.setattr(cloud, "_WORKERS", 2)
        monkeypatch.setattr(cloud, "_CHUNK_CPU_SHARE", 0.0)
        monkeypatch.setattr(cloud, "_BLOCK_ROWS", 64)
        calls = []  # per block: whether its thread runs a chunk job, and the thread
        step = cloud._step

        def recording(*args):
            calls.append((cloud._in_chunk(), threading.current_thread()))
            return step(*args)

        monkeypatch.setattr(cloud, "_step", recording)
        checks._counts_above(1.0, 4.0, (0.0, 1.0), 3000, 33)
        assert calls and all(chunk for chunk, _ in calls)
        calls.clear()
        checks._counts_above(1.0, 4.0, (0.0, 1.0), 2000, 33)
        assert not any(chunk for chunk, _ in calls)
        assert any(thread is not threading.current_thread() for _, thread in calls)


class TestSuite:
    def test_smoke_suite_runs_and_reports_all(self, smoke_run):
        # the reports of the session's one suite.run_suite("smoke", seed=123)
        reports = smoke_run.reports
        names = {r.name for r in reports}
        assert names == {n for n, _ in suite._specs("smoke")}
        failed = [r.name for r in reports if r.failed]
        assert failed == []

    def test_smoke_reports_are_pinned(self, smoke_run):
        # fixed-seed output of the whole smoke suite (seed 123): a change to a
        # check's signature, name or threshold must leave these bytes alone
        digest = hashlib.sha256(reports_to_json(smoke_run.reports).encode()).hexdigest()
        assert digest == "298e8c1467d7bfa1a49874e3717744434d74a0132978030f7365ea8a3bd76dd1"

    def test_threshold_scaling_meta(self):
        # doubling n must not flip a robust pass (statistical thresholds
        # scale as 1/sqrt(n) through the stderr)
        for seed in (201, 202):
            a = check_many_to_one(1.0, 3.0, indicator(1.0), 10_000, seed=seed)
            b = check_many_to_one(1.0, 3.0, indicator(1.0), 20_000, seed=seed)
            assert a.passed and b.passed

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            suite.run_suite("nope", seed=1)
