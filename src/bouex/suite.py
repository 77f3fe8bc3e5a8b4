"""Named check suites for the verification runner.

smoke: about 8 s on a 2-core host (`verify --suite smoke --seed 1000`), used
by the CLI tests.  fast: about 22 s there.  full: every check at acceptance
scale; it currently stops with ResourceLimitError (exit 3) inside
`max_limit_law`, whose replicas overrun the collector's node cap in one
chunk.  Every suite registers the same check names so reports are
comparable across scales; `run_suite` names each report after its registry
key.
"""

from __future__ import annotations

import math

import numpy as np

from . import checks
from .checks import CheckReport, exponential_window, indicator, smooth_step
from .kpp import KppParams, estimate_C_pde, solve_kpp
from .spine import estimate_C, estimate_C_curve, truncation_horizon


def check_curve_monotone(n: int, seed: int, horizon_T: float = 6.0) -> CheckReport:
    """Coupled prefactor curve must be non-decreasing, exactly, per realization."""
    grid = np.round(np.arange(1.1, 4.0001, 0.1), 10)
    c = np.array([r.estimate for r in estimate_C_curve(grid, horizon_T, n, seed)])
    violations = int(np.count_nonzero(np.diff(c) < 0))
    return CheckReport.make("curve_monotone", violations, 0, n, estimates=c.tolist(),
                            right_derivative_at_one=float((c[1] - c[0]) / (grid[1] - grid[0])))


def check_dual_prefactor(rho: float, n: int, seed: int, t_max: float = 10.0,
                         dx: float = 0.05) -> CheckReport:
    """Spine Monte Carlo and the KPP oracle must agree at 3 sigma + 10%.

    The spine horizon truncates at error 1e-2, which the tolerance absorbs.
    """
    horizon = truncation_horizon(rho, 0.0, 1e-2)
    mc = estimate_C(rho, horizon, n, seed)
    params = KppParams(dx=dx, t_max=t_max, rho_max=max(rho, 1.5))
    field = solve_kpp(params)
    pde = estimate_C_pde(field, rho)
    tol = 3.0 * math.hypot(mc.stderr, pde.stderr) + 0.1 * abs(pde.estimate) \
        + 1e-2 / math.sqrt(4 * math.pi)
    stat = abs(mc.estimate - pde.estimate)
    return CheckReport.make("dual_prefactor", stat, tol, n, rho=rho,
                            spine=mc.estimate, spine_stderr=mc.stderr,
                            pde=pde.estimate, pde_uncertainty=pde.stderr,
                            horizon_T=horizon)


def _specs(scale: str):
    """(name, runner) pairs; `scale` picks the replica/horizon tier."""
    if scale not in ("smoke", "fast", "full"):
        raise ValueError(f"unknown suite {scale!r}")

    def tier(smoke_v, fast_v, full_v):
        return {"smoke": smoke_v, "fast": fast_v, "full": full_v}[scale]

    return [
        ("many_to_one_brownian", lambda s: checks.check_many_to_one(
            0.0, 3.0, indicator(1.0), tier(2000, 20000, 100_000), s)),
        ("many_to_one_ou", lambda s: checks.check_many_to_one(
            1.0, 3.0, exponential_window(0.5, 0.0), tier(2000, 20000, 100_000), s)),
        ("many_to_one_ou_long", lambda s: checks.check_many_to_one(
            1.0, tier(4.0, 6.0, 6.0), smooth_step(0.0, 1.0), tier(1000, 10000, 100_000),
            s)),
        ("many_to_two", lambda s: checks.check_many_to_two(
            1.0, 1.5, exponential_window(0.5, 0.0), tier(2000, 20000, 100_000), s)),
        ("spine_identity_rho1", lambda s: checks.check_spine_identity(
            1.0, 1.0, tier(5000, 100_000, 1_000_000), s)),
        ("spine_identity_rho15", lambda s: checks.check_spine_identity(
            1.5, 1.5, tier(5000, 100_000, 1_000_000), s)),
        ("max_limit_law", lambda s: checks.check_max_limit_law(
            1.0, tier(6.0, 8.0, 12.0), tier(1000, 2000, 10_000), s,
            threshold=tier(0.12, 0.08, 0.05))),
        ("first_moment", lambda s: checks.check_first_moment(
            1.0, tier(8.0, 8.0, 12.0),
            tier((0.0, 1.0, 2.0), (0.0, 1.0, 2.0), (-1.0, 0.0, 1.0, 2.0)),
            tier(1000, 4000, 10_000), s)),
        ("second_moment_gap", lambda s: checks.check_second_moment_gap(
            1.0, tier(8.0, 8.0, 10.0), (0.5, 1.0, 1.5, 2.0, 2.5),
            tier(20_000, 50_000, 200_000), s)),
        ("slepian_monotonicity", lambda s: checks.check_slepian_monotonicity(
            [0.1, 1.0, 10.0, math.inf], smooth_step(0.0, 1.0),
            tier(5.0, 6.0, 8.0), tier(500, 2000, 10_000), s)),
        ("iid_limit", lambda s: checks.check_iid_limit(
            tier(10.0, 12.0, 14.0), tier(5000, 20_000, 100_000), s,
            tol=tier(0.08, 0.06, 0.05))),
        ("yule_geometric_counts", lambda s: checks.check_yule_counts(
            tier(4.0, 5.0, 6.0), tier(2000, 4000, 10_000), s)),
        ("limit_process_void_law", lambda s: checks.check_limit_process_law(
            tier(4000, 20_000, 100_000), s)),
        ("curve_monotone", lambda s: check_curve_monotone(
            tier(300, 2000, 10_000), s, horizon_T=tier(4.0, 6.0, 12.0))),
        ("dual_prefactor_rho2", lambda s: check_dual_prefactor(
            2.0, tier(2000, 10_000, 30_000), s,
            t_max=tier(6.0, 8.0, 12.0), dx=tier(0.1, 0.05, 0.05))),
    ]


def run_suite(suite: str, seed: int, progress=None):
    reports = []
    for i, (name, runner) in enumerate(_specs(suite)):
        report = runner(seed + 7919 * i)
        report.name = name
        reports.append(report)
        if progress is not None:
            progress(report)
    return reports
