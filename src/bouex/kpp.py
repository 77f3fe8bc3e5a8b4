"""Deterministic front oracle: the Fisher-KPP tail equation in log domain.

u(x, t) = P(max displacement at t > x) solves  u_t = u_xx/2 + u - u^2  from a
step initial condition.  The far tail decays like e^{-(rho^2-1)t} along the
ray x = sqrt(2) rho t, so the solver works on w = log u, where the equation
reads  w_t = w_xx/2 + (w_x)^2/2 + 1 - e^w.

The step IC is handled exactly: the first `t_switch` time units are
integrated in u space (where the step is representable), then the field is
transferred to log space.  Grid points whose u value is too small to carry
relative accuracy at the switch are continued with the exact linearized
tail; a saddle-point argument shows they are beyond the reach of every probe
ray, so this does not touch the extracted front values.  A log-ramp IC mode
is kept for sensitivity studies; note that a ramp of slope b inflates the
tail on the ray x = sqrt(2) rho t by roughly 1 + sqrt(2) rho/(b - sqrt(2) rho),
which is why it is not the default.

Time grid: every stored field lies on the grid k dt, k = 0, 1, ...  The
default dt is the largest step within the stability bound that divides
`t_switch`, so the u phase ends on the grid and every integer time is a grid
time.  A checkpoint must be a whole number of steps (to 1e-9 relative), lie
in [0, t_max] and, in step mode, not precede `t_switch`; it is stored at
its own step, k = checkpoint / dt.

Both phases solve one constant linear system per implicit step.  Its
Dirichlet rows hold known values: row 0, and row n-2 once the right edge's
extrapolation row n-1 is substituted into it (in the u phase that edge only
reaches points the tail formula replaces).  The rows between are symmetric
positive-definite and tridiagonal, so they are factored once (LAPACK pttrf)
and each step is one pttrs.  This matches `scipy.linalg.solve_banded` on
the full system to rounding, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.special import log_ndtr

from .errors import NumericalFailureError
from .gaussian import SQRT2
from .results import EstimatorResult

_SWITCH_FLOOR = 1e-11


@dataclass(frozen=True)
class KppParams:
    dx: float = 0.05
    dt: Optional[float] = None          # default: stability-limited, see dt_value
    t_max: float = 10.0
    rho_max: float = 2.0
    ic_mode: str = "step"               # "step" | "ramp" | "uniform"
    ic_slope: float = 50.0              # ramp mode regularization slope
    ic_value: float = 0.5               # uniform mode level
    t_switch: ClassVar[float] = 0.5     # u-phase length in step mode
    x_lo: ClassVar[float] = -8.0
    margin: ClassVar[float] = 8.0
    nonlinear: bool = True              # False: solver-verification (pure growth) mode
    checkpoints: tuple = ()

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.dx, self.t_max, self.rho_max)):
            raise ValueError("dx, t_max, rho_max must be finite and positive")
        if not 0.0 < self.ic_slope < math.inf:
            raise ValueError(f"ic_slope must be finite and positive, got {self.ic_slope}")
        if self.n_points < 5:
            raise ValueError(f"the grid has {self.n_points} points; the implicit "
                             f"solve needs at least 5 (reduce dx)")
        if self.ic_mode not in ("step", "ramp", "uniform"):
            raise ValueError(f"unknown ic_mode {self.ic_mode!r}")
        if self.ic_mode == "uniform" and not 0.0 < self.ic_value < 1.0:
            raise ValueError("uniform IC level must lie in (0, 1)")
        if self.dt is not None and not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.dt is not None and self.dt > self.stability_dt * (1 + 1e-9):
            raise ValueError(
                f"dt={self.dt} exceeds the gradient-CFL stability bound "
                f"{self.stability_dt:.3g} for this domain")
        dt = self.dt_value
        first = self.t_switch if self.ic_mode == "step" else 0.0
        for tc in self.checkpoint_times:
            if not first <= tc <= self.t_max * (1 + 1e-9):
                raise ValueError(f"checkpoint {tc} lies outside [{first}, {self.t_max}] "
                                 f"for ic_mode {self.ic_mode!r}")
            if abs(tc / dt - round(tc / dt)) > 1e-9 * tc / dt:
                raise ValueError(f"checkpoint {tc} is not a whole number of "
                                 f"dt={dt:.6g} steps")

    @property
    def x_hi(self) -> float:
        return SQRT2 * self.rho_max * self.t_max + self.margin

    @property
    def n_points(self) -> int:
        return int(round((self.x_hi - self.x_lo) / self.dx)) + 1

    @property
    def stability_dt(self) -> float:
        # the explicit (w_x)^2 term advects at speed |w_x|, which is at most
        # x_hi / t_switch once log space is entered, or the ramp's slope
        grad = self.x_hi / self.t_switch
        if self.ic_mode == "ramp":
            grad = max(grad, self.ic_slope)
        return 0.5 * self.dx / grad

    @property
    def dt_value(self) -> float:
        if self.dt is not None:
            return self.dt
        bound = min(0.25 * self.dx**2, self.stability_dt)
        return self.t_switch / math.ceil(self.t_switch / bound)

    @property
    def checkpoint_times(self) -> tuple:
        if self.checkpoints:
            return tuple(sorted(self.checkpoints))
        lo = max(2.0, math.ceil(self.t_max / 2.0))
        return tuple(float(t) for t in np.arange(lo, self.t_max + 1e-9, 1.0))


@dataclass
class KppField:
    x: np.ndarray
    times: list
    w: list                      # one array per checkpoint time

    def w_at(self, t: float) -> np.ndarray:
        for tk, wk in zip(self.times, self.w):
            if math.isclose(tk, t, rel_tol=0, abs_tol=1e-9):
                return wk
        raise ValueError(f"t={t} is not a stored checkpoint (have {self.times})")


def _implicit_solver(n: int, r: float):
    """Factor the implicit matrix once; return its per-step solve.

    Rows 1..n-2 are (-r, 1 + 2r, -r); row 0 is x[0] = b[0], and row n-1 is
    x[n-1] = 2 x[n-2] - x[n-3] + b[n-1].  `solve(b, t, step)` overwrites b
    with x and returns it; a non-finite b is a NumericalFailureError naming
    the time and step.
    """
    hi = n - 2              # the interior is x[1:hi]
    zeros = np.zeros(n)     # 0 * b[i] is NaN exactly when b[i] is not finite
    d, e, info = dpttrf(np.full(hi - 1, 1.0 + 2.0 * r), np.full(hi - 2, -r))
    if info != 0:
        raise NumericalFailureError(f"tridiagonal factorization failed (info={info})")

    def solve(b: np.ndarray, t: float, step: int) -> np.ndarray:
        if math.isnan(np.dot(zeros, b)):
            raise NumericalFailureError(
                f"non-finite right-hand side at t={t:.4f} (step {step})")
        b[hi] += r * b[n - 1]       # row n-2 reduces to x[n-2] = b[n-2] + r b[n-1]
        b[1] += r * b[0]            # move the known x[0] and x[hi] to the right
        b[hi - 1] += r * b[hi]
        _, info = dpttrs(d, e, b[1:hi], overwrite_b=1)
        if info != 0:
            raise NumericalFailureError(
                f"tridiagonal solve failed at t={t:.4f} (step {step}, info={info})")
        b[n - 1] += 2.0 * b[hi] - b[hi - 1]
        return b

    return solve


def _log_tail(x: np.ndarray, t: float) -> np.ndarray:
    """log of the exact linearized tail e^t P(N(0, t) > x)."""
    return t + log_ndtr(-x / math.sqrt(t))


def solve_kpp(params: KppParams) -> KppField:
    """Advance the field to t_max, storing the requested checkpoints."""
    dx, dt = params.dx, params.dt_value
    n = params.n_points
    x = params.x_lo + dx * np.arange(n)
    r = 0.5 * dt / dx**2
    nonlin = params.nonlinear

    cps = list(params.checkpoint_times)
    cp_steps = [round(tc / dt) for tc in cps]
    stored_t, stored_w = [], []

    def store(step: int, w: np.ndarray):
        while len(stored_t) < len(cps) and cp_steps[len(stored_t)] == step:
            stored_t.append(cps[len(stored_t)])
            stored_w.append(w.copy())

    def left_bc_w(t: float) -> float:
        if params.ic_mode == "uniform":
            u0 = params.ic_value
            return math.log(u0) + t - math.log1p(u0 * math.expm1(t)) if nonlin \
                else math.log(u0) + t
        if not nonlin:
            return float(_log_tail(np.array([params.x_lo]), max(t, 1e-12))[0])
        return 0.0

    solve = _implicit_solver(n, r)
    t = 0.0
    n_u = 0
    if params.ic_mode == "step":
        u = np.where(x < 0, 1.0, 0.0)
        i0 = int(np.argmin(np.abs(x)))
        u[i0] = 0.5
        n_u = int(round(params.t_switch / dt))
        for k in range(n_u):
            rhs = u + dt * (u - (u * u if nonlin else 0.0))
            rhs[0] = math.exp(left_bc_w(t + dt))
            rhs[-1] = 0.0
            u = solve(rhs, t + dt, k)
            t += dt
        w = np.where(u > _SWITCH_FLOOR, np.log(np.maximum(u, 1e-300)),
                     np.minimum(_log_tail(x, t), math.log(_SWITCH_FLOOR)))
        w = np.minimum(w, 0.0) if nonlin else w
    elif params.ic_mode == "ramp":
        w = -params.ic_slope * np.maximum(x, 0.0)
    else:
        w = np.full(n, math.log(params.ic_value))

    store(n_u, w)
    total_steps = int(round((params.t_max - t) / dt))
    check_every = max(1, total_steps // 50)
    wx, rhs, growth = np.zeros(n), np.empty(n), np.empty(n)
    for k in range(total_steps):
        # rhs = w + dt * (0.5 * wx * wx + 1 - e^min(w, 50)), in that order, in place
        np.subtract(w[2:], w[:-2], out=wx[1:-1])
        wx[1:-1] /= 2.0 * dx
        np.multiply(0.5, wx, out=rhs)
        rhs *= wx
        rhs += 1.0
        if nonlin:
            np.minimum(w, 50.0, out=growth)
            rhs -= np.exp(growth, out=growth)
        rhs *= dt
        rhs += w
        rhs[0] = left_bc_w(t + dt)
        rhs[-1] = 0.0
        w, rhs = solve(rhs, t + dt, k), w
        t += dt
        if k % check_every == 0 or k == total_steps - 1:
            tail = w[int(0.9 * n):]
            if np.any(~np.isfinite(w)) or (nonlin and np.any(tail > 1e-6)):
                raise NumericalFailureError(
                    f"instability at t={t:.4f} (step {k}): "
                    f"max w={np.nanmax(w):.3g}, dt={dt:.3g}, dx={dx}")
        store(n_u + k + 1, w)
    return KppField(x=x, times=stored_t, w=stored_w)


def front_tail(field: KppField, rho: float, t: float) -> float:
    """w at the probe point (sqrt(2) rho t, t) by local cubic interpolation."""
    if rho < 1.0:
        raise ValueError("rho must be >= 1")
    w = field.w_at(t)
    xp = SQRT2 * rho * t
    x = field.x
    i = int(np.searchsorted(x, xp))
    if i < 4 or i > x.size - 4:
        raise ValueError(f"probe x={xp:.3f} too close to the domain edge")
    idx = slice(i - 2, i + 2)
    coeffs = np.polyfit(x[idx] - xp, w[idx], 3)
    return float(coeffs[-1])


def prefactor_of_t(field: KppField, rho: float, t: float) -> float:
    """c(t) = rho sqrt(t) e^{(rho^2-1) t + w(sqrt(2) rho t, t)}."""
    return rho * math.sqrt(t) * math.exp((rho * rho - 1.0) * t + front_tail(field, rho, t))


def estimate_C_pde(field: KppField, rho: float):
    """Extrapolated prefactor with a Richardson-spread uncertainty.

    Fits c(t) = C + a/t on the last three checkpoints; the uncertainty is
    the spread between the two most recent pairwise 1/t extrapolations.
    """
    if rho <= 1.0:
        raise ValueError("rho must be > 1")
    ts = list(field.times)
    if len(ts) < 2:
        raise ValueError("need at least two checkpoints")
    cs = np.array([prefactor_of_t(field, rho, t) for t in ts])
    diffs = np.abs(np.diff(cs))
    if diffs.size >= 3 and np.all(np.diff(diffs[-3:]) > 0):
        raise NumericalFailureError(
            f"prefactor sequence diverging at rho={rho}: c(t)={cs.tolist()}")

    def richardson(i, j):
        return cs[j] + (cs[j] - cs[i]) * (1.0 / ts[j]) / (1.0 / ts[i] - 1.0 / ts[j])

    if len(ts) >= 3:
        tt = np.array(ts[-3:], dtype=float)
        design = np.vstack([np.ones(3), 1.0 / tt]).T
        coef, *_ = np.linalg.lstsq(design, cs[-3:], rcond=None)
        estimate = float(coef[0])
        spread = abs(richardson(-2, -1) - richardson(-3, -2))
    else:
        estimate = float(richardson(-2, -1))
        spread = float(diffs[-1])
    return EstimatorResult(estimate=estimate, stderr=spread, n_samples=len(ts))


def dump_checkpoints(field: KppField, path: str):
    """CSV with columns t, x, w for every stored checkpoint."""
    with open(path, "w") as fh:
        fh.write("t,x,w\n")
        for tk, wk in zip(field.times, field.w):
            for xi, wi in zip(field.x, wk):
                fh.write(f"{float(tk)!r},{float(xi)!r},{float(wi)!r}\n")
