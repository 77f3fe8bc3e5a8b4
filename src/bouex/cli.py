"""Experiment runner: every capability as a reproducible subcommand.

`estimate-c` has one estimator call, `estimate_C_curve`, once per group of
rho values: without `--coupled` each rho of the grid is its own group, with
its own certified horizon and independent draws; with `--coupled` the whole
grid is one group on common random numbers, at the horizon of its lowest
rho, so the rows are monotone in rho.

Outputs are CSV (data) or JSON (reports) with the fully resolved config
echoed in `# key=value` header comments, so re-running the header reproduces
the file byte for byte.  The header echoes every parsed flag except
`--config`, `--output`, `--dump-field` and `--summary`, which name files
rather than shape the rows; `decorate` also echoes the horizon it resolved,
and `limit-process` at a finite gamma without `--c-value` echoes the
intensity constant c it estimated once, before the first sample.
Numeric formatting uses shortest round-trip floats;
an empty measure's maximum is written as the string -inf, and an unset
optional flag as an empty value.  `kpp` leaves the c_extrapolated and
uncertainty cells empty when it stores fewer than two checkpoints, since the
1/t extrapolation needs two, and for rho = 1, where c(rho) has no 1/t
extrapolation; a rho below 1 is a usage error.

`--config PATH` (or `--config=PATH`) names a JSON file of flag values, keyed
by flag name without the leading dashes; they act as defaults, so a flag the
file supplies is no longer required and a flag given on the command line wins.

Exit codes: 0 ok, 1 failed verification check, 2 usage error (a bad flag, or
a ValueError from the library), 3 resource cap, 4 numerical failure, 5
rejection budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .checks import reports_to_json
from .cloud import additive_martingale_per_rep, derivative_martingale_per_rep
from .errors import NumericalFailureError, RejectionBudgetError, ResourceLimitError
from .kpp import KppParams, dump_checkpoints, estimate_C_pde, prefactor_of_t, \
    front_tail, solve_kpp
from .measure import Centering
from .rng import chunks, substream
from .spine import estimate_C_curve, limit_intensity, \
    sample_decoration, sample_limit_process, truncation_horizon
from .suite import run_suite
from .window import leaves, windowed_extremal_atoms

SCHEMA = 1


def _fmt(v) -> str:
    if v is None:
        return ""  # an unset flag
    if isinstance(v, float):
        return repr(float(v))  # shortest round-trip decimal
    if isinstance(v, (list, tuple)):
        return ",".join(map(_fmt, v))
    return str(v)


_NOT_ECHOED = {"command", "func", "config", "output", "dump_field", "summary"}


def _write_table(args, columns, rows, **resolved):
    """Write the table to args.output under the header of every echoed flag."""
    header = [("command", args.command), *resolved.items()]
    header += [(k, v) for k, v in vars(args).items() if k not in _NOT_ECHOED]
    lines = [f"# schema={SCHEMA}"]
    lines += [f"# {k}={_fmt(v)}" for k, v in header]
    lines.append(",".join(columns))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write_output(args, "\n".join(lines) + "\n")


def _write_output(args, text):
    """Write text to stdout (`-o -`, the default) or to the file args.output."""
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)


def cmd_estimate_c(args) -> int:
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps}")
    grid = np.linspace(args.rho_min, args.rho_max, args.steps)
    # --coupled: one curve over the grid, on common random numbers, at the
    # horizon of its lowest rho; otherwise each rho is a curve of its own
    groups = [grid] if args.coupled else [grid[i:i + 1] for i in range(grid.size)]
    rows = []
    for rhos in groups:
        horizon = args.horizon_t if args.horizon_t is not None else \
            _default_horizon(float(rhos[0]), args.horizon_eps)
        results = estimate_C_curve(rhos, horizon, args.replicas, args.seed)
        estimates = [r.estimate for r in results]
        if any(b < a for a, b in zip(estimates, estimates[1:])):
            raise AssertionError("coupled estimates must be monotone")
        rows += [[float(rho), res.estimate, res.stderr, res.n_samples, horizon,
                  res.n_accepted, res.warning or ""] for rho, res in zip(rhos, results)]
    _write_table(args, ["rho", "c_estimate", "stderr", "n", "horizon_T", "accepted",
                        "warning"], rows)
    return 0


def _default_horizon(rho: float, eps: float) -> float:
    if rho <= 1.0 + 1e-12:
        return 10.0
    return truncation_horizon(rho, 0.0, eps)


def cmd_kpp(args) -> int:
    rhos = args.rho
    if not all(rho >= 1.0 for rho in rhos):
        raise ValueError(f"--rho must be >= 1, got {_fmt(rhos)}")
    params = KppParams(dx=args.dx, dt=args.dt, t_max=args.t_max, rho_max=max(rhos),
                       ic_mode=args.ic_mode, ic_slope=args.ic_slope,
                       checkpoints=tuple(args.checkpoints or ()))
    field = solve_kpp(params)
    if args.dump_field:
        dump_checkpoints(field, args.dump_field)
    rows = []
    for rho in rhos:
        extrapolated = ["", ""]
        if len(field.times) >= 2 and rho > 1.0:
            res = estimate_C_pde(field, rho)
            extrapolated = [res.estimate, res.stderr]
        for t in field.times:
            rows.append([rho, t, front_tail(field, rho, t),
                         prefactor_of_t(field, rho, t)] + extrapolated)
    _write_table(args, ["rho", "t", "w_probe", "c_of_t", "c_extrapolated", "uncertainty"],
                 rows)
    return 0


def cmd_simulate(args) -> int:
    if args.emit == "martingales" and args.mu != 0.0:
        raise ValueError("--emit martingales requires --mu 0")
    centering = Centering(args.centering, args.t)
    rows = []
    if args.emit == "martingales":
        betas = args.betas
        if not all(map(math.isfinite, betas)):
            raise ValueError(f"--betas must be finite, got {_fmt(betas)}")
        columns = ["replica"] + [f"W_beta_{_fmt(b)}" for b in betas] + ["Z"]
        for j, start, m in chunks(args.replicas, 1024):
            rep, x = leaves(0.0, args.t, m, substream(args.seed, j))
            ws = [additive_martingale_per_rep(rep, x, args.t, m, b) for b in betas]
            z = derivative_martingale_per_rep(rep, x, args.t, m)
            for i in range(m):
                rows.append([start + i] + [float(w[i]) for w in ws] + [float(z[i])])
    else:  # one windowed traversal per chunk; max and atoms-above differ in the rows
        columns = ["replica", "max" if args.emit == "max" else "atom"]
        for j, start, m in chunks(args.replicas, 4096):
            res = windowed_extremal_atoms(args.mu, args.t, centering, args.window,
                                          m, substream(args.seed, j))
            if args.emit == "max":
                mx = res.max_per_group()
                rows += [[start + i, float(mx[i])] for i in range(m)]
            else:
                order = np.lexsort((res.atoms, res.group))
                rows += [[start + int(res.group[i]), float(res.atoms[i])] for i in order]
    _write_table(args, columns, rows)
    return 0


def cmd_decorate(args) -> int:
    horizon = args.horizon_t if args.horizon_t is not None else \
        truncation_horizon(args.rho, args.window_a, args.horizon_eps)
    rng = substream(args.seed, 0)
    rows = []
    for k in range(args.samples):
        atoms = sample_decoration(args.rho, horizon, args.window_a, args.max_attempts, rng)
        rows += [[k, float(a)] for a in atoms]
    _write_table(args, ["sample_id", "atom"], rows, horizon_T=horizon)
    if args.summary:
        with open(args.summary, "w") as fh:
            json.dump({"schema": SCHEMA, "samples": args.samples,
                       "horizon_T": horizon}, fh)
    return 0


def cmd_limit_process(args) -> int:
    if args.c_value is None and not math.isinf(args.gamma):
        args.c_value = limit_intensity(args.gamma, substream(args.seed, 1))
    rng = substream(args.seed, 0)
    rows = []
    for k in range(args.samples):
        atoms = sample_limit_process(args.gamma, args.window_a, rng,
                                     c_value=args.c_value,
                                     proxy_horizon=args.proxy_horizon,
                                     max_attempts=args.max_attempts)
        rows += [[k, float(a)] for a in atoms]
    _write_table(args, ["sample_id", "atom"], rows)
    return 0


def cmd_verify(args) -> int:
    def progress(report):
        status = "PASS" if report.passed else \
            ("INCONCLUSIVE" if report.inconclusive else "FAIL")
        print(f"[{status}] {report.name}: statistic={report.statistic:.4g} "
              f"threshold={report.threshold:.4g} n={report.n}", file=sys.stderr)

    reports = run_suite(args.suite, args.seed, progress=progress)
    _write_output(args, reports_to_json(reports) + "\n")
    return 1 if any(r.failed for r in reports) else 0


class _ConfigParser(argparse.ArgumentParser):
    """Argument parser whose flags take their defaults from a config mapping.

    A flag whose dest is in `config` is no longer required and defaults to
    the config value.  An appending flag (`--rho`) gets the config list only
    when it is not given at all, since argparse appends to a default.
    """

    def __init__(self, *args, config=None, **kwargs):
        self.config = config or {}
        self.append_defaults = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.dest in self.config:
            value = self.config[action.dest]
            action.required = False
            if kwargs.get("action") == "append":
                self.append_defaults[action.dest] = \
                    value if isinstance(value, list) else [value]
            else:
                action.default = value
        return action

    def parse_known_args(self, args=None, namespace=None):
        ns, extras = super().parse_known_args(args, namespace)
        for dest, value in self.append_defaults.items():
            if getattr(ns, dest) is None:
                setattr(ns, dest, list(value))
        return ns, extras


def _build_parser(config=None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bouex",
        description="Branching Ornstein-Uhlenbeck / Brownian extremes toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(_ConfigParser, config=config))

    def add_common(p):
        p.add_argument("--seed", type=int, default=20240801)
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with default parameter values")
        p.add_argument("--output", "-o", type=str, default="-")

    p = sub.add_parser("estimate-c", help="spine Monte Carlo prefactor curve")
    p.add_argument("--rho-min", type=float, required=True)
    p.add_argument("--rho-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--horizon-eps", type=float, default=1e-2)
    p.add_argument("--horizon-t", type=float, default=None,
                   help="override the certified truncation horizon")
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--coupled", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_estimate_c)

    p = sub.add_parser("kpp", help="Fisher-KPP front oracle")
    p.add_argument("--rho", type=float, action="append", required=True)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--dx", type=float, default=0.05)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--checkpoints", type=float, nargs="*", default=None)
    p.add_argument("--ic-mode", choices=("step", "ramp", "uniform"), default="step")
    p.add_argument("--ic-slope", type=float, default=50.0)
    p.add_argument("--dump-field", type=str, default=None)
    add_common(p)
    p.set_defaults(func=cmd_kpp)

    p = sub.add_parser("simulate", help="branching-diffusion extremal output")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--centering", choices=("bbm", "bou", "tilde"), default="tilde")
    p.add_argument("--emit", choices=("max", "atoms-above", "martingales"),
                   required=True)
    p.add_argument("--window", type=float, default=-8.0,
                   help="lower cutoff for max / atoms-above; under --emit max "
                        "a replica with no atom at or above it gets -inf")
    p.add_argument("--betas", type=float, nargs="*", default=[0.0, 0.5, 1.0])
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decorate", help="rejection-sample the decoration law")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--window-a", type=float, default=-4.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--max-attempts", type=int, default=10_000)
    p.add_argument("--horizon-eps", type=float, default=1e-2)
    p.add_argument("--horizon-t", type=float, default=None)
    p.add_argument("--summary", type=str, default=None)
    add_common(p)
    p.set_defaults(func=cmd_decorate)

    p = sub.add_parser("limit-process", help="sample the limiting point process")
    p.add_argument("--gamma", type=float, required=True, help="float or 'inf'")
    p.add_argument("--window-a", type=float, default=-4.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--max-attempts", type=int, default=10_000)
    p.add_argument("--c-value", type=float, default=None,
                   help="intensity constant c; finite gamma only")
    p.add_argument("--proxy-horizon", type=float, default=12.0)
    add_common(p)
    p.set_defaults(func=cmd_limit_process)

    p = sub.add_parser("verify", help="run a named check suite")
    p.add_argument("--suite", choices=("smoke", "fast", "full"), default="fast")
    add_common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def _merge_config(argv) -> argparse.ArgumentParser:
    """Apply --config file values as defaults; explicit flags win.

    The file is read before the command line is parsed, from either
    `--config PATH` or `--config=PATH`, and the parser is built with its
    values as the subcommand's defaults.  A flag the config supplies is
    therefore no longer required.  Keys name flags without the leading
    dashes (`horizon-t` or `horizon_t`); keys that name no flag of the
    subcommand are ignored.
    """
    pre = argparse.ArgumentParser(prog="bouex", usage=argparse.SUPPRESS,
                                  add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return _build_parser()
    try:
        with open(path) as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        pre.error(f"cannot read --config {path}: {exc}")
    if not isinstance(values, dict):
        pre.error(f"--config {path} must hold a JSON object")
    return _build_parser({k.replace("-", "_"): v for k, v in values.items()})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _merge_config(argv).parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # an invalid value that argparse cannot see
        print(f"bouex {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except RejectionBudgetError as exc:
        print(f"rejection budget: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
