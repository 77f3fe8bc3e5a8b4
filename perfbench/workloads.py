"""Workloads of the bouex benchmark: fixed lists of calls ("ops") into bouex.

Pass k of a run gives op i the seed derived from (run seed, k, i), so one run
seed fixes the whole sequence of inputs.  Every op's output is checked
against exact properties that hold for every seed; statistical verdicts of
the checks are counted apart (``checks.failed``) because any change to the
random numbers flips them at their false-alarm rate.

Ops call bouex through module attributes (``window.windowed_extremal_atoms``
and so on), never through names bound here, so the tracer's re-bound
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from bouex import checks, cli, rng, spine, suite, window
from bouex.gaussian import INV_SQRT_4PI
from bouex.measure import Centering

# extremes: mu=1, t=8, tilde centring; the second-moment-gap traversal config
EXT_MU, EXT_T = 1.0, 8.0
EXT_WINDOW, EXT_PRUNE, EXT_REPS, EXT_CHUNK = 0.5, 1e-7, 4096, checks.CHUNK
EXT_MAX_REPS, EXT_MAX_WINDOW = 500, -8.0     # `simulate --emit max`, default window
EXT_DUMP_REPS = 8                            # `simulate --emit atoms-above`
EXT_FIRST_MOMENT_REPS = 1000                 # smoke size

# prefactor: rho=2; the KPP grid is the `kpp` CLI default
PRE_RHO, PRE_DUAL_REPS, PRE_T_MAX, PRE_DX = 2.0, 2000, 10.0, 0.05
PRE_C_REPS, PRE_CURVE_REPS, PRE_CURVE_T = 20000, 2000, 6.0
PRE_DEC_SAMPLES, PRE_DEC_WINDOW = 200, -4.0

# forest: unpruned Yule trees
FOR_M2O_REPS, FOR_SLEPIAN_REPS, FOR_M2TWO_REPS, FOR_YULE_REPS = 8000, 2000, 20000, 4000
FOR_MART_REPS, FOR_MART_T = 512, 8.0


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]  # exact-property violations, [] when correct
    observe: Callable[[object], dict] = lambda out: {}


@dataclass(frozen=True)
class CliResult:
    code: int
    text: str


@dataclass
class PassResult:
    seconds: float                   # op time only, validation excluded
    attempted: int
    failures: list                   # "op: reason" per failed op
    observed: dict
    fingerprints: list = field(default_factory=list)


def op_seed(seed: int, k: int, i: int) -> int:
    return int(np.random.SeedSequence([int(seed) % 2**63, k, i]).generate_state(1)[0])


# -- exact output properties -------------------------------------------------


def atoms_problems(atoms, lo, hi=math.inf) -> list:
    a = np.asarray(atoms, dtype=float)
    if not np.all(np.isfinite(a)):
        return ["non-finite atom"]
    if np.any(a < lo):
        return [f"atom below the window {lo}"]
    if np.any(a > hi):
        return [f"atom above {hi}"]
    return []


def collected_problems(chunks, lo) -> list:
    return [p for res in chunks for p in atoms_problems(res.atoms, lo)]


def c_problems(label, value) -> list:
    if not (math.isfinite(value) and 0.0 <= value <= INV_SQRT_4PI):
        return [f"{label} c={value!r} outside [0, 1/sqrt(4 pi)]"]
    return []


def parse_table(text) -> np.ndarray:
    """Rows of a bouex CSV table as a float matrix (comments and header dropped)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    n_cols = len(lines[0].split(","))
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]],
                    dtype=float).reshape(-1, n_cols)


def cli_problems(res: CliResult, table_problems) -> list:
    if res.code != 0:
        return [f"exit code {res.code}"]
    return table_problems(parse_table(res.text))


def one_row_per_replica(data, replicas) -> list:
    if not np.array_equal(data[:, 0], np.arange(replicas)):
        return [f"expected one row per replica 0..{replicas - 1}"]
    return []


def max_table_problems(replicas, lo):
    def problems(data):
        mx = data[:, 1]
        empty = mx == -math.inf  # counted as window.empty_max, not a failure
        return one_row_per_replica(data, replicas) + atoms_problems(mx[~empty], lo)
    return problems


def atoms_table_problems(replicas, lo):
    def problems(data):
        rep, atom = data[:, 0], data[:, 1]
        out = atoms_problems(atom, lo)
        if np.any((rep < 0) | (rep >= replicas)):
            out.append("replica id out of range")
        same = rep[1:] == rep[:-1]
        if np.any(np.diff(rep) < 0) or np.any(np.diff(atom)[same] < 0):
            out.append("atoms not sorted within each replica")
        return out
    return problems


def decoration_table_problems(samples, lo):
    def problems(data):
        sid, atom = data[:, 0], data[:, 1]
        out = atoms_problems(atom, lo, 0.0)
        if not np.array_equal(np.unique(sid), np.arange(samples)):
            out.append(f"expected samples 0..{samples - 1}")
        if np.unique(sid[atom == 0.0]).size != np.unique(sid).size:
            out.append("a decoration lacks its atom at 0")
        return out
    return problems


def martingale_table_problems(replicas):
    def problems(data):
        out = one_row_per_replica(data, replicas)
        w = data[:, 1:-1]  # additive martingales; the last column is Z
        if not np.all(np.isfinite(data[:, 1:])):
            out.append("non-finite martingale value")
        elif np.any(w < 0):
            out.append("negative additive martingale")
        return out
    return problems


def curve_problems(report) -> list:
    est = np.asarray(report.details["estimates"], dtype=float)
    out = [p for c in est for p in c_problems("curve", float(c))]
    if report.statistic != 0 or np.any(np.diff(est) < 0):
        out.append(f"coupled curve not monotone ({report.statistic:g} violations)")
    return out


def dual_problems(report) -> list:
    d = report.details
    return c_problems("spine", d["spine"]) + c_problems("pde", d["pde"])


# -- observed counts -----------------------------------------------------------


def verdict(report) -> dict:
    return {"checks.failed": int(report.failed)}


def cli_bytes(res: CliResult) -> dict:
    return {"cli.bytes_written": len(res.text)}


def empty_max(res: CliResult) -> dict:
    n = 0
    if res.code == 0:
        n = int(np.count_nonzero(parse_table(res.text)[:, 1] == -math.inf))
    return {"window.empty_max": n, **cli_bytes(res)}


def no_problems(out) -> list:
    return []


# -- ops -----------------------------------------------------------------------


def run_cli(argv, path) -> CliResult:
    try:
        code = cli.main(argv + ["--output", path])
    except SystemExit as exc:  # argparse usage errors and explicit exits
        code = exc.code if isinstance(exc.code, int) else 1
    text = ""
    if code == 0:
        with open(path) as fh:
            text = fh.read()
    return CliResult(code, text)


def cli_op(name, argv, outdir, check, observe=cli_bytes) -> Op:
    path = os.path.join(outdir, name + ".csv")
    return Op(name, lambda: run_cli(argv, path), lambda r: cli_problems(r, check), observe)


def report_op(name, call, check=no_problems) -> Op:
    return Op(name, call, check, verdict)


def extremes(seed: int):
    centering = Centering("bou_tilde", EXT_T)

    def collect(s):
        out, done, j = [], 0, 0
        while done < EXT_REPS:
            m = min(EXT_CHUNK, EXT_REPS - done)
            out.append(window.windowed_extremal_atoms(
                EXT_MU, EXT_T, centering, EXT_WINDOW, m, rng.substream(s, j),
                prune_tol=EXT_PRUNE))
            done += m
            j += 1
        return out

    def ops(k, outdir):
        s = [op_seed(seed, k, i) for i in range(4)]
        sim = ["simulate", "--mu", "1", "--t", "8", "--centering", "tilde"]
        return [
            Op("windowed_extremal_atoms", lambda: collect(s[0]),
               lambda out: collected_problems(out, EXT_WINDOW)),
            cli_op("simulate_max", sim + ["--replicas", str(EXT_MAX_REPS), "--emit", "max",
                                          "--seed", str(s[1])], outdir,
                   max_table_problems(EXT_MAX_REPS, EXT_MAX_WINDOW), empty_max),
            cli_op("simulate_atoms_above",
                   sim + ["--replicas", str(EXT_DUMP_REPS), "--emit", "atoms-above",
                          f"--window={EXT_MAX_WINDOW}", "--seed", str(s[2])], outdir,
                   atoms_table_problems(EXT_DUMP_REPS, EXT_MAX_WINDOW)),
            report_op("check_first_moment", lambda: checks.check_first_moment(
                EXT_MU, EXT_T, (0.0, 1.0, 2.0), EXT_FIRST_MOMENT_REPS, s[3])),
        ]

    return ops


def prefactor(seed: int):
    horizon = spine.truncation_horizon(PRE_RHO, 0.0, 1e-2)

    def ops(k, outdir):
        s = [op_seed(seed, k, i) for i in range(4)]
        return [
            report_op("check_dual_prefactor", lambda: suite.check_dual_prefactor(
                PRE_RHO, PRE_DUAL_REPS, s[0], t_max=PRE_T_MAX, dx=PRE_DX), dual_problems),
            Op("estimate_C", lambda: spine.estimate_C(PRE_RHO, horizon, PRE_C_REPS, s[1]),
               lambda r: c_problems("spine", r.estimate)),
            report_op("check_curve_monotone", lambda: suite.check_curve_monotone(
                PRE_CURVE_REPS, s[2], horizon_T=PRE_CURVE_T), curve_problems),
            cli_op("decorate", ["decorate", "--rho", "2", f"--window-a={PRE_DEC_WINDOW}",
                                "--samples", str(PRE_DEC_SAMPLES), "--seed", str(s[3])],
                   outdir, decoration_table_problems(PRE_DEC_SAMPLES, PRE_DEC_WINDOW)),
        ]

    return ops


def forest(seed: int):
    step = checks.smooth_step(0.0, 1.0)
    exp_window = checks.exponential_window(0.5, 0.0)

    def ops(k, outdir):
        s = [op_seed(seed, k, i) for i in range(5)]
        return [
            report_op("check_many_to_one", lambda: checks.check_many_to_one(
                1.0, 6.0, step, FOR_M2O_REPS, s[0])),
            report_op("check_slepian_monotonicity", lambda: checks.check_slepian_monotonicity(
                [0.1, 1.0, 10.0, math.inf], step, 6.0, FOR_SLEPIAN_REPS, s[1])),
            report_op("check_many_to_two", lambda: checks.check_many_to_two(
                1.0, 1.5, exp_window, FOR_M2TWO_REPS, s[2])),
            report_op("check_yule_counts", lambda: checks.check_yule_counts(
                5.0, FOR_YULE_REPS, s[3])),
            cli_op("simulate_martingales",
                   ["simulate", "--mu", "0", "--t", str(FOR_MART_T), "--replicas",
                    str(FOR_MART_REPS), "--emit", "martingales", "--seed", str(s[4])],
                   outdir, martingale_table_problems(FOR_MART_REPS)),
        ]

    return ops


WORKLOADS = {"extremes": extremes, "prefactor": prefactor, "forest": forest}


def build(name: str, seed: int) -> Callable[[int, str], list]:
    """Set up a workload; returns ops(pass index, output directory) -> [Op]."""
    return WORKLOADS[name](seed)


# -- one pass --------------------------------------------------------------------


def fingerprint(out) -> str:
    return hashlib.sha256(pickle.dumps(out, protocol=4)).hexdigest()


def run_pass(ops, tracer=None, fingerprints=False) -> PassResult:
    """Run ops back to back (closed loop) and check every output."""
    res = PassResult(seconds=0.0, attempted=0, failures=[], observed={})
    for op in ops:
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.call()
            else:
                with tracer.span("op." + op.name):
                    out = op.call()
        except Exception:  # an op that raises is a failed op; keep measuring
            res.seconds += time.perf_counter() - t0
            res.failures.append(f"{op.name}: raised")
            traceback.print_exc(file=sys.stderr)
            continue
        res.seconds += time.perf_counter() - t0
        problems = op.check(out)
        if problems:
            res.failures.append(f"{op.name}: {'; '.join(problems)}")
        for key, val in op.observe(out).items():
            res.observed[key] = res.observed.get(key, 0) + val
        if fingerprints:
            res.fingerprints.append(fingerprint(out))
    return res
