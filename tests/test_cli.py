"""CLI surface: flags, outputs, determinism, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from bouex import cli
from bouex.cli import main


def run(args):
    return main(args)


def test_import_starts_no_thread():
    # importing the CLI stays cheap: the wave core's thread pool is made on
    # the first large wave, not at import
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = ("import threading, bouex.cli, bouex.cloud; "
              "print(threading.active_count(), bouex.cloud._pool.cache_info().currsize)")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["1", "0"]


class TestEstimateC:
    def test_csv_shape_and_header(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run(["estimate-c", "--rho-min", "2.0", "--rho-max", "4.0",
                    "--steps", "2", "--replicas", "400", "--seed", "9",
                    "--horizon-eps", "0.05", "-o", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "# schema=1"
        header = [ln for ln in lines if ln.startswith("#")]
        assert any("seed=9" in ln for ln in header)
        cols = next(ln for ln in lines if not ln.startswith("#"))
        assert cols == "rho,c_estimate,stderr,n,horizon_T,accepted,warning"
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(data) == 2
        est = float(data[1].split(",")[1])
        assert 0.2 < est < 1.0 / math.sqrt(4 * math.pi)

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["estimate-c", "--rho-min", "1.5", "--rho-max", "2.5", "--steps",
                "3", "--replicas", "300", "--seed", "4", "--horizon-t", "5.0"]
        run(args + ["-o", str(a)])
        run(args + ["-o", str(b)])
        assert a.read_bytes().replace(b"a.csv", b"") == \
            b.read_bytes().replace(b"b.csv", b"")

    def test_header_echoes_horizon_t(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["estimate-c", "--rho-min", "2.0", "--rho-max", "2.0",
                    "--steps", "1", "--replicas", "100", "--seed", "4",
                    "--horizon-t", "5.0", "-o", str(out)]) == 0
        assert "# horizon_t=5.0\n" in out.read_text()

    def test_rho_one_warning_row(self, tmp_path):
        out = tmp_path / "c.csv"
        run(["estimate-c", "--rho-min", "1.0", "--rho-max", "1.0", "--steps",
             "1", "--replicas", "200", "--seed", "5", "-o", str(out)])
        row = out.read_text().strip().split("\n")[-1]
        assert row.endswith("rho_at_one")

    def test_coupled_monotone(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run(["estimate-c", "--rho-min", "1.2", "--rho-max", "3.0",
                    "--steps", "8", "--replicas", "500", "--seed", "6",
                    "--coupled", "--horizon-t", "5.0", "-o", str(out)])
        assert code == 0
        rows = [ln for ln in out.read_text().strip().split("\n")
                if not ln.startswith("#")][1:]
        ests = [float(r.split(",")[1]) for r in rows]
        assert all(b >= a for a, b in zip(ests, ests[1:]))

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["estimate-c", "--rho-min", "2.0"])
        assert exc.value.code == 2


class TestKpp:
    def test_csv_and_refinement_columns(self, tmp_path):
        out = tmp_path / "kpp.csv"
        code = run(["kpp", "--rho", "1.5", "--t-max", "6.0", "--dx", "0.1",
                    "--checkpoints", "4.0", "5.0", "6.0", "-o", str(out)])
        assert code == 0
        lines = [ln for ln in out.read_text().strip().split("\n")
                 if not ln.startswith("#")]
        assert lines[0] == "rho,t,w_probe,c_of_t,c_extrapolated,uncertainty"
        assert len(lines) == 4
        c_ext = float(lines[1].split(",")[4])
        assert 0.1 < c_ext < 0.25

    def test_field_dump(self, tmp_path):
        out = tmp_path / "kpp.csv"
        dump = tmp_path / "field.csv"
        code = run(["kpp", "--rho", "1.5", "--t-max", "4.0", "--dx", "0.1",
                    "--checkpoints", "4.0", "-o", str(out),
                    "--dump-field", str(dump)])
        assert code == 0
        # one checkpoint: the per-t row is written, the extrapolation is not
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")
                if not ln.startswith("#")][1:]
        assert len(rows) == 1
        rho, t, w_probe, c_of_t, c_ext, unc = rows[0]
        assert (float(rho), float(t)) == (1.5, 4.0)
        assert math.isfinite(float(w_probe)) and float(c_of_t) > 0
        assert (c_ext, unc) == ("", "")
        lines = dump.read_text().strip().split("\n")
        assert lines[0] == "t,x,w"
        assert len(lines) > 1
        assert all(float(ln.split(",")[0]) == 4.0 for ln in lines[1:])


    def test_header_echoes_checkpoints(self, tmp_path):
        out = tmp_path / "kpp.csv"
        assert run(["kpp", "--rho", "1.5", "--t-max", "4.0", "--dx", "0.2",
                    "--checkpoints", "3.0", "4.0", "-o", str(out)]) == 0
        assert "# checkpoints=3.0,4.0\n" in out.read_text()

    def test_rho_one_rows_without_extrapolation(self, tmp_path):
        out = tmp_path / "kpp.csv"
        code = run(["kpp", "--rho", "1.0", "--t-max", "4.0", "--dx", "0.1",
                    "-o", str(out)])
        assert code == 0
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")
                if not ln.startswith("#")][1:]
        assert [float(r[1]) for r in rows] == [2.0, 3.0, 4.0]
        for rho, t, w_probe, c_of_t, c_ext, unc in rows:
            assert float(rho) == 1.0
            assert math.isfinite(float(w_probe)) and float(c_of_t) > 0
            assert (c_ext, unc) == ("", "")

    def test_rho_below_one_usage_error(self, tmp_path, capsys):
        out = tmp_path / "kpp.csv"
        code = run(["kpp", "--rho", "1.5", "--rho", "0.5", "--t-max", "4.0",
                    "--dx", "0.1", "-o", str(out)])
        assert code == 2
        assert "--rho must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_before_t_switch_usage_error(self, tmp_path, capsys):
        # the step IC's u phase stores no field, so t = 0.25 has no row to write
        out = tmp_path / "kpp.csv"
        code = run(["kpp", "--rho", "2", "--t-max", "3", "--dx", "0.2",
                    "--checkpoints", "0.25", "1", "2", "-o", str(out)])
        assert code == 2
        assert "checkpoint 0.25" in capsys.readouterr().err
        assert not out.exists()

    def test_non_positive_dt_usage_error(self, tmp_path, capsys):
        out = tmp_path / "kpp.csv"
        code = run(["kpp", "--rho", "1.5", "--t-max", "3", "--dx", "0.2",
                    "--dt", "0", "-o", str(out)])
        assert code == 2
        assert "dt must be positive" in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_emit_max(self, tmp_path):
        # --emit max writes each replica's largest atom at or above the
        # window, and -inf for a replica with none; seed 2 has such a replica.
        # atoms-above draws the same trees at the same seed and window.
        common = ["simulate", "--mu", "1.0", "--t", "6.0", "--replicas", "50",
                  "--window", "-8.0", "--seed", "2"]
        out, atoms_out = tmp_path / "sim.csv", tmp_path / "atoms.csv"
        assert run(common + ["--emit", "max", "-o", str(out)]) == 0
        assert run(common + ["--emit", "atoms-above", "-o", str(atoms_out)]) == 0

        def table(path):
            return [ln.split(",") for ln in path.read_text().strip().split("\n")
                    if not ln.startswith("#")][1:]

        rows = table(out)
        assert [int(r) for r, _ in rows] == list(range(50))
        vals = np.array([float(v) for _, v in rows])
        expected = np.full(50, -math.inf)
        for r, a in table(atoms_out):
            expected[int(r)] = max(expected[int(r)], float(a))
        np.testing.assert_array_equal(vals, expected)
        assert np.all(vals[np.isfinite(vals)] >= -8.0)

    def test_emit_atoms_above_sorted_and_windowed(self, tmp_path):
        out = tmp_path / "sim.csv"
        run(["simulate", "--mu", "1.0", "--t", "6.0", "--replicas", "40",
             "--emit", "atoms-above", "--window", "-3.0", "--seed", "3",
             "-o", str(out)])
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")
                if not ln.startswith("#")][1:]
        atoms = [(int(r), float(a)) for r, a in rows]
        assert all(a >= -3.0 for _, a in atoms)
        assert atoms == sorted(atoms)

    def test_emit_martingales(self, tmp_path):
        out = tmp_path / "sim.csv"
        run(["simulate", "--mu", "0.0", "--t", "4.0", "--replicas", "30",
             "--emit", "martingales", "--betas", "0.0", "0.5", "--seed", "4",
             "-o", str(out)])
        lines = [ln for ln in out.read_text().strip().split("\n")
                 if not ln.startswith("#")]
        assert lines[0] == "replica,W_beta_0.0,W_beta_0.5,Z"
        assert len(lines) == 31

    def test_martingales_need_mu_zero(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--mu", "1.0", "--t", "1.0", "--replicas", "1",
                    "--emit", "martingales", "-o", str(out)])
        assert code == 2
        assert "--emit martingales requires --mu 0" in capsys.readouterr().err
        assert not out.exists()

    def test_resource_cap_exit_3(self, tmp_path):
        code = run(["simulate", "--mu", "0.0", "--t", "30.0", "--replicas", "1",
                    "--emit", "max", "-o", str(tmp_path / "x.csv")])
        assert code == 3

    def test_martingales_horizon_cap_exit_3_before_any_draw(self, tmp_path, monkeypatch):
        from bouex import cloud

        def no_draw(*args, **kwargs):
            raise AssertionError("drew a tree past the horizon cap")

        monkeypatch.setattr(cloud, "_waves", no_draw)
        out = tmp_path / "x.csv"
        assert run(["simulate", "--mu", "0", "--t", "17", "--replicas", "1",
                    "--emit", "martingales", "-o", str(out)]) == 3
        assert not out.exists()


class TestDecorateAndLimit:
    def test_decorate_output(self, tmp_path):
        out = tmp_path / "dec.csv"
        summary = tmp_path / "dec.json"
        code = run(["decorate", "--rho", "3.0", "--window-a", "-2.0",
                    "--samples", "20", "--seed", "8", "-o", str(out),
                    "--summary", str(summary)])
        assert code == 0
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")
                if not ln.startswith("#")][1:]
        by_sample = {}
        for sid, atom in rows:
            by_sample.setdefault(int(sid), []).append(float(atom))
        assert set(by_sample) == set(range(20))
        for atoms in by_sample.values():
            assert max(atoms) == 0.0
        assert json.loads(summary.read_text())["samples"] == 20

    def test_rejection_budget_exit_5(self, tmp_path):
        code = run(["decorate", "--rho", "1.05", "--window-a", "-1.0",
                    "--samples", "5", "--max-attempts", "2", "--horizon-t",
                    "30.0", "--seed", "9", "-o", str(tmp_path / "d.csv")])
        assert code == 5

    def test_limit_process_gamma_inf(self, tmp_path):
        out = tmp_path / "lp.csv"
        code = run(["limit-process", "--gamma", "inf", "--window-a", "-1.0",
                    "--samples", "200", "--seed", "10", "-o", str(out)])
        assert code == 0
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")
                if not ln.startswith("#")][1:]
        assert all(float(a) >= -1.0 for _, a in rows)

    def test_limit_process_finite_gamma(self, tmp_path):
        out = tmp_path / "lp.csv"
        code = run(["limit-process", "--gamma", "2.0", "--window-a", "-0.5",
                    "--samples", "5", "--c-value", "0.25", "--proxy-horizon",
                    "5.0", "--seed", "11", "-o", str(out)])
        assert code == 0

    def test_limit_process_atom_cap_exit_3_before_the_draw(self, tmp_path, capsys):
        # at window -20 the Poisson mean is about 1.6e11 atoms at the default
        # seed, 1.3 TB of float64
        out = tmp_path / "lp.csv"
        start = time.perf_counter()
        assert run(["limit-process", "--gamma", "inf", "--window-a=-20", "--samples", "1",
                    "-o", str(out)]) == 3
        assert time.perf_counter() - start < 1.0
        assert "exceeds the atom cap" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["estimate-c", "--rho-min", "1.0001", "--rho-max", "1.0001", "--steps", "1",
         "--replicas", "10"],
        ["decorate", "--rho", "1.0001", "--samples", "1"],
        ["limit-process", "--gamma", "1e-5", "--samples", "1"],
    ], ids=lambda argv: argv[0])
    def test_rho_near_one_exit_3_before_any_draw(self, argv, tmp_path, capsys, monkeypatch):
        # no horizon up to 1e7 certifies the truncation at rho 1.0001 (or
        # d_gamma 1 + 5e-6), which is a resource limit, not a failed check
        from bouex import spine

        def no_draw(*args, **kwargs):
            raise AssertionError("drew past an uncertified horizon")

        for module, name in ((cli, "estimate_C_curve"), (cli, "sample_decoration"),
                             (spine, "estimate_C")):
            monkeypatch.setattr(module, name, no_draw)
        out = tmp_path / "out.csv"
        assert run(argv + ["-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: rho=") and "window_a=" in err
        assert "Traceback" not in err and not out.exists()


def _argv_from_header(text):
    """The command line that a table's `# key=value` header describes."""
    argv = []
    for line in text.split("\n"):
        if not line.startswith("# "):
            break
        key, value = line[2:].split("=", 1)
        if key == "command":
            argv.insert(0, value)
        elif key != "schema" and value not in ("", "False"):
            argv.append("--" + key.replace("_", "-"))
            if value != "True":
                argv += value.split(",")
    return argv


@pytest.mark.parametrize("argv", [
    ["simulate", "--mu", "0", "--t", "2", "--replicas", "3", "--emit",
     "martingales", "--betas", "0.3", "--seed", "5"],
    ["limit-process", "--gamma", "2", "--c-value", "0.25", "--proxy-horizon", "5",
     "--window-a", "-0.5", "--samples", "3", "--seed", "11"],
    pytest.param(["limit-process", "--gamma", "2", "--proxy-horizon", "5",
                  "--window-a", "-0.5", "--samples", "3"], id="limit-process-c-estimated"),
], ids=lambda argv: argv[0])
def test_header_reruns_to_the_same_bytes(argv, tmp_path):
    # every flag that shapes the rows is echoed, so the header is a command line;
    # limit-process echoes the intensity constant c it estimated
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert run(argv + ["-o", str(first)]) == 0
    assert "# c_value=\n" not in first.read_text()
    assert run(_argv_from_header(first.read_text()) + ["-o", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("argv", [
    ["estimate-c", "--rho-min", "1.5", "--rho-max", "2", "--steps", "2",
     "--replicas", "0"],
    ["decorate", "--rho", "1.0"],
    ["simulate", "--mu", "1", "--t", "0", "--replicas", "1", "--emit", "max"],
    ["limit-process", "--gamma", "0"],
    pytest.param(["simulate", "--mu", "nan", "--t", "2", "--replicas", "2",
                  "--emit", "max"], id="simulate-mu-nan"),
    pytest.param(["simulate", "--mu", "inf", "--t", "2", "--replicas", "2",
                  "--emit", "max"], id="simulate-mu-inf"),
    pytest.param(["simulate", "--mu", "1", "--t", "inf", "--replicas", "1",
                  "--emit", "max"], id="simulate-t-inf"),
    pytest.param(["simulate", "--mu", "0", "--t", "nan", "--replicas", "1",
                  "--emit", "martingales"], id="simulate-martingales-t-nan"),
    pytest.param(["kpp", "--rho", "2", "--t-max", "inf"], id="kpp-t-max-inf"),
    pytest.param(["kpp", "--rho", "1.5", "--t-max", "3", "--dx", "8"], id="kpp-four-points"),
    pytest.param(["kpp", "--rho", "2", "--t-max", "1.5"], id="kpp-no-checkpoint"),
    pytest.param(["kpp", "--rho", "2", "--t-max", "5", "--ic-mode", "ramp", "--checkpoints",
                  "0", "5"], id="kpp-ramp-checkpoint-0"),
    pytest.param(["estimate-c", "--rho-min", "1.5", "--rho-max", "2", "--steps", "2",
                  "--replicas", "0", "--coupled"], id="estimate-c-coupled-no-replicas"),
    pytest.param(["limit-process", "--gamma", "inf", "--c-value", "0.3"],
                 id="limit-process-gamma-inf-c-value"),
    pytest.param(["estimate-c", "--rho-min", "1.5", "--rho-max", "2", "--steps", "0",
                  "--replicas", "10"], id="estimate-c-steps-0"),
    pytest.param(["estimate-c", "--rho-min", "1.5", "--rho-max", "2", "--steps", "0",
                  "--replicas", "10", "--coupled"], id="estimate-c-coupled-steps-0"),
    pytest.param(["estimate-c", "--rho-min", "1.5", "--rho-max", "2", "--steps", "0",
                  "--replicas", "10", "--coupled", "--horizon-t", "2"],
                 id="estimate-c-coupled-horizon-t-steps-0"),
], ids=lambda argv: argv[0])
def test_library_value_error_is_usage_error(argv, tmp_path, capsys):
    # a value argparse accepts but the library rejects: exit 2, no traceback
    out = tmp_path / "out.csv"
    assert run(argv + ["-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bouex {argv[0]}: error: ")
    assert "Traceback" not in err
    assert not out.exists()


# an otherwise valid, small command line for each subcommand with a float
# flag, and the flags a flag is read under, where the base does not read it
_NAN_BASES = {
    "estimate-c": {"--rho-min": "1.5", "--rho-max": "2", "--steps": "2", "--replicas": "10"},
    "kpp": {"--rho": "2", "--t-max": "2", "--dx": "0.1"},
    "simulate": {"--mu": "1", "--t": "2", "--replicas": "3", "--emit": "max"},
    "decorate": {"--rho": "2", "--window-a": "-1", "--samples": "2"},
    "limit-process": {"--gamma": "2", "--c-value": "0.25", "--proxy-horizon": "4",
                      "--window-a": "-1", "--samples": "2"},
}
_NAN_MODES = {"--betas": {"--mu": "0", "--emit": "martingales"}}


def _flags(kind):
    """(subcommand, flag) for every flag of type `kind` of every subcommand,
    but --seed."""
    sub, = (a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    return [pytest.param(command, flag, id=command + flag)
            for command, parser in sub.choices.items() for action in parser._actions
            if action.type is kind and action.dest != "seed"
            for flag in action.option_strings[:1]]


def _nan_argv(command, values, out):
    return [command, *(v for pair in values.items() for v in pair), "-o", str(out)]


@pytest.mark.parametrize("command, flag", _flags(float))
def test_nan_float_flag_is_usage_error(command, flag, tmp_path, capsys):
    # a NaN passes every `x <= bound` check, so each range check must be
    # written to fail on it
    out = tmp_path / "out.csv"
    values = {**_NAN_BASES[command], **_NAN_MODES.get(flag, {}), flag: "nan"}
    assert run(_nan_argv(command, values, out)) == 2
    err = capsys.readouterr().err
    prefix = f"bouex {command}: error: "
    assert err.startswith(prefix) and err.strip() != prefix.strip()
    assert not out.exists()


@pytest.mark.parametrize("command, flag", _flags(int))
def test_count_below_one_is_usage_error(command, flag, tmp_path, capsys):
    # a count below 1 would write a header-only table; it is refused whether
    # it comes from the command line or from --config
    out, config = tmp_path / "out.csv", tmp_path / "config.json"
    config.write_text(json.dumps({flag[2:]: 0}))
    base = {k: v for k, v in _NAN_BASES[command].items() if k != flag}
    for argv, value in ((_nan_argv(command, {**base, flag: "-3"}, out), -3),
                        (_nan_argv(command, base, out) + ["--config", str(config)], 0)):
        assert run(argv) == 2
        assert capsys.readouterr().err == \
            f"bouex {command}: error: {flag} must be >= 1, got {value}\n"
        assert not out.exists()


def test_nan_or_very_negative_window_is_a_usage_error(capsys):
    # a NaN window fails the horizon certificate's range check, and a window
    # whose envelope e^(-sqrt(2) window_a) overflows names window_a
    from bouex.spine import sample_limit_process, truncation_horizon, truncation_miss_bound
    for call in (lambda: truncation_horizon(2.0, math.nan, 0.01),
                 lambda: truncation_miss_bound(2.0, math.nan, 3.0)):
        with pytest.raises(ValueError, match="window_a must be finite, got nan"):
            call()
    for call in (lambda: truncation_horizon(2.0, -1000.0, 0.01),
                 lambda: truncation_miss_bound(2.0, -1000.0, 3.0),
                 lambda: sample_limit_process(math.inf, -1000.0, np.random.default_rng(1))):
        with pytest.raises(ValueError, match="window_a=-1000.0 is too negative"):
            call()
    for argv in (["limit-process", "--gamma", "inf"],
                 ["limit-process", "--gamma", "2", "--c-value", "0.2"],
                 ["decorate", "--rho", "2"]):
        assert run(argv + ["--window-a=-1000", "--samples", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bouex {argv[0]}: error: window_a=-1000.0 is too negative")
    # a finite envelope whose Poisson mean is past what numpy can draw
    for window, argv in ((-500, ["limit-process", "--gamma", "inf"]),
                         (-40, ["limit-process", "--gamma", "2", "--c-value", "0.2"])):
        assert run(argv + [f"--window-a={window}", "--samples", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bouex limit-process: error: window_a={window}.0 is too "
                              "negative: the Poisson mean")


@pytest.mark.parametrize("command, mode", [pytest.param(c, None, id=c) for c in _NAN_BASES] +
                         [pytest.param("simulate", f, id="simulate" + f) for f in _NAN_MODES])
def test_nan_cases_are_otherwise_valid(command, mode, tmp_path):
    values = {**_NAN_BASES[command], **_NAN_MODES.get(mode, {})}
    assert run(_nan_argv(command, values, tmp_path / "out.csv")) == 0


class TestVerify:
    def test_smoke_suite_exit_0_and_json(self, smoke_run):
        # the session's one run of `verify --suite smoke --seed 123 -o FILE`
        assert smoke_run.code == 0
        reports = smoke_run.json
        from bouex.suite import _specs
        assert {r["name"] for r in reports} == {n for n, _ in _specs("smoke")}

    def test_corrupted_check_fails_exit_1(self, tmp_path, monkeypatch):
        # corrupt the spine drift sign through the registry
        import bouex.suite as suite_mod
        from bouex import checks

        def specs(scale):
            return [("spine_identity_rho15", lambda s: checks.check_spine_identity(
                1.5, 1.5, 30_000, s, drift_sign=+1.0))]

        monkeypatch.setattr(suite_mod, "_specs", specs)
        code = run(["verify", "--suite", "smoke", "--seed", "123",
                    "-o", str(tmp_path / "r.json")])
        assert code == 1


class TestConfigMerge:
    def test_config_file_defaults_and_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"replicas": 150, "horizon-t": 4.0,
                                   "rho-min": 2.0, "rho-max": 2.0, "steps": 1}))
        # both spellings of the flag: --config PATH and --config=PATH
        for config in (["--config", str(cfg)], [f"--config={cfg}"]):
            out = tmp_path / "o.csv"
            code = run(["estimate-c"] + config + ["--seed", "3",
                        "--replicas", "200", "-o", str(out)])
            assert code == 0, config
            rows = [ln for ln in out.read_text().strip().split("\n")
                    if not ln.startswith("#")][1:]
            assert rows[0].split(",")[3] == "200"  # explicit flag wins
            assert rows[0].split(",")[4] == "4.0"  # config default applies

    def test_config_list_for_appending_flag(self, tmp_path):
        # --rho appends; a config list is used only when no --rho is given
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": [1.5, 2.0], "t-max": 2.5, "dx": 0.2}))
        for flags, rhos in (([], "1.5,2.0"), (["--rho", "3.0"], "3.0")):
            out = tmp_path / "k.csv"
            assert run(["kpp", "--config", str(cfg), "-o", str(out)] + flags) == 0
            assert f"# rho={rhos}\n" in out.read_text()
