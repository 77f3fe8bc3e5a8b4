"""Tests of the benchmark itself: tracer coverage and neutrality, the exact
output properties behind the failure count, and count determinism.

    python -m pytest perfbench

Each workload runs one untraced and two traced passes at a fixed seed
(about a minute on two cores).
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads as wk  # noqa: E402
from tracer import Tracer, unit  # noqa: E402
from bouex.checks import CheckReport  # noqa: E402
from bouex.window import CollectedAtoms  # noqa: E402

SEED = 20240801

# the workload on which each layer's metrics must be non-zero
HOME = {"rng": "forest", "gaussian": "extremes", "cloud": "forest", "window": "extremes",
        "spine": "prefactor", "kpp": "prefactor", "suite": "prefactor", "checks": "forest",
        "cli": "extremes", "other": "extremes"}
HOME_EXCEPTIONS = {"window.collect_atoms_above.small_call_us": "prefactor",
                   "checks.check_first_moment.self_s": "extremes"}
# defect and false-alarm counts: 0 is a legitimate reading
MAY_BE_ZERO = {"window.empty_max", "checks.failed"}

# where each traced name is bound in bouex today
KNOWN_BINDINGS = {
    "collect_atoms_above": ("window", "spine", "checks"),
    "simulate_forest": ("cloud", "spine", "checks", "cli"),
    "substream": ("rng", "spine", "checks", "cli"),
    "solve_kpp": ("kpp", "suite", "cli"),
    "windowed_extremal_atoms": ("window", "checks", "cli"),
    "ou_variance": ("cloud", "window", "checks"),
    "estimate_C": ("spine", "suite", "cli"),
}


def home(metric):
    return HOME_EXCEPTIONS.get(metric) or HOME[metric.split(".")[0]]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: one untraced pass and two traced passes on pass-0 inputs."""
    out = {}
    for name in wk.WORKLOADS:
        ops = wk.build(name, SEED)
        outdir = str(tmp_path_factory.mktemp(name))
        plain = wk.run_pass(ops(0, outdir), fingerprints=True)
        traced = []
        for _ in range(2):
            with Tracer() as tr:
                res = wk.run_pass(ops(0, outdir), tracer=tr, fingerprints=True)
            traced.append((res, tr.summary(res.observed)))
        out[name] = (plain, traced)
    return out


def per_layer_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


class TestTracerCoverage:
    def test_rebinds_every_known_import_and_restores_it(self):
        import bouex
        originals = {name: getattr(getattr(bouex, mods[0]), name)
                     for name, mods in KNOWN_BINDINGS.items()}
        with Tracer() as tr:
            bound = set(tr.bindings)
            for name, mods in KNOWN_BINDINGS.items():
                for mod in mods:
                    assert f"bouex.{mod}.{name}" in bound
                    assert getattr(getattr(bouex, mod), name) is not originals[name]
        for name, mods in KNOWN_BINDINGS.items():
            for mod in mods:
                assert getattr(getattr(bouex, mod), name) is originals[name]

    def test_every_metric_nonzero_on_its_home_workload(self, runs):
        summary_names = set(runs["forest"][1][0][1])
        for metric in summary_names - MAY_BE_ZERO:
            value = runs[home(metric)][1][0][1][metric]
            assert value > 0, f"{metric} reads {value} on {home(metric)}"

    def test_benchmark_json_lists_every_metric_with_its_unit(self, runs):
        produced = {k: unit(k) for k in runs["forest"][1][0][1]}
        produced.update({"trace.overhead_frac": "ratio", "process.cpu_util": "ratio"})
        assert per_layer_spec() == produced


class TestNeutralityAndDeterminism:
    def test_traced_outputs_bit_identical_to_untraced(self, runs):
        for name, (plain, traced) in runs.items():
            assert plain.failures == [] and traced[0][0].failures == []
            assert plain.fingerprints == traced[0][0].fingerprints, name

    @pytest.mark.parametrize("metric", [
        "window.collect_atoms_above.nodes", "cloud.simulate_forest.nodes",
        "kpp.solve_kpp.steps", "rng.draws"])
    def test_counts_repeat_exactly(self, runs, metric):
        first, second = (s[metric] for _, s in runs[home(metric)][1])
        assert first == second and first > 0

    def test_all_count_metrics_repeat(self, runs):
        for name, (_, traced) in runs.items():
            a, b = traced[0][1], traced[1][1]
            assert {k: v for k, v in a.items() if unit(k) == "count"} == \
                {k: v for k, v in b.items() if unit(k) == "count"}, name


def table(cols, rows):
    lines = ["# schema=1", ",".join(cols)] + [",".join(repr(float(v)) for v in r) for r in rows]
    return wk.CliResult(0, "\n".join(lines) + "\n")


def report(statistic=0.0, **details):
    return CheckReport.make("x", statistic, 0.0, 1, **details)


class TestFailureGate:
    """Each exact property counted in the failure share rejects a bad output."""

    def test_atom_below_window_or_not_finite(self):
        good = CollectedAtoms(group=np.zeros(2, int), atoms=np.array([0.5, 1.0]),
                              pruned_mass=np.zeros(1), stopped=np.zeros(1, bool), n_nodes=3)
        assert wk.collected_problems([good], 0.5) == []
        low = CollectedAtoms(group=np.zeros(2, int), atoms=np.array([0.49, 1.0]),
                             pruned_mass=np.zeros(1), stopped=np.zeros(1, bool), n_nodes=3)
        assert wk.collected_problems([low], 0.5)
        assert wk.atoms_problems([math.nan], 0.0)

    def test_cli_nonzero_exit(self):
        assert wk.cli_problems(wk.CliResult(3, ""), lambda data: []) == ["exit code 3"]

    def test_max_table(self):
        check = wk.max_table_problems(3, -8.0)
        good = table(["replica", "max"], [(0, 1.0), (1, -math.inf), (2, -7.0)])
        assert wk.cli_problems(good, check) == []
        assert wk.empty_max(good)["window.empty_max"] == 1
        assert wk.cli_problems(table(["replica", "max"], [(0, 1.0), (1, 2.0)]), check)
        assert wk.cli_problems(table(["replica", "max"],
                                     [(0, 1.0), (1, -9.0), (2, 0.0)]), check)

    def test_atoms_table_sorted_within_replica(self):
        check = wk.atoms_table_problems(2, -8.0)
        assert wk.cli_problems(table(["replica", "atom"],
                                     [(0, -1.0), (0, 2.0), (1, -3.0)]), check) == []
        assert wk.cli_problems(table(["replica", "atom"],
                                     [(0, 2.0), (0, -1.0), (1, -3.0)]), check)
        assert wk.cli_problems(table(["replica", "atom"], [(1, -1.0), (0, 2.0)]), check)

    def test_decreasing_curve(self):
        assert wk.curve_problems(report(0.0, estimates=[0.1, 0.2])) == []
        assert wk.curve_problems(report(1.0, estimates=[0.2, 0.1]))

    def test_prefactor_out_of_range(self):
        assert wk.dual_problems(report(spine=0.2, pde=0.21)) == []
        assert wk.dual_problems(report(spine=0.5, pde=0.21))
        assert wk.c_problems("spine", math.nan)

    def test_decoration_bounds_and_atom_at_zero(self):
        check = wk.decoration_table_problems(2, -4.0)
        assert wk.cli_problems(table(["sample_id", "atom"],
                                     [(0, 0.0), (0, -1.0), (1, 0.0)]), check) == []
        assert wk.cli_problems(table(["sample_id", "atom"], [(0, 0.0), (1, -1.0)]), check)
        assert wk.cli_problems(table(["sample_id", "atom"],
                                     [(0, 0.0), (0, 0.5), (1, 0.0)]), check)

    def test_negative_martingale(self):
        check = wk.martingale_table_problems(1)
        cols = ["replica", "W_beta_0.0", "Z"]
        assert wk.cli_problems(table(cols, [(0, 1.0, -0.5)]), check) == []
        assert wk.cli_problems(table(cols, [(0, -1.0, 0.5)]), check)

    def test_failed_ops_are_counted(self):
        def boom():
            raise RuntimeError("op failure")
        ops = [wk.Op("raises", boom, wk.no_problems),
               wk.Op("bad", lambda: [-1.0], lambda out: wk.atoms_problems(out, 0.0)),
               wk.Op("good", lambda: [1.0], lambda out: wk.atoms_problems(out, 0.0))]
        res = wk.run_pass(ops)
        assert res.attempted == 3 and len(res.failures) == 2


class TestCommand:
    def run(self, cwd, *args):
        return subprocess.run([sys.executable, "perfbench/run.py", *args],
                              cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_traced_run_prints_every_per_layer_metric(self):
        out = self.run(ROOT, "--workload", "forest", "--seed", "3", "--seconds", "1",
                       "--trace", "1")
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
        assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer_spec()

    def test_fails_without_the_source_tree(self, tmp_path):
        shutil.copytree(HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
        out = self.run(tmp_path, "--workload", "forest", "--seed", "3", "--seconds", "1")
        assert out.returncode != 0 and out.stdout == ""
