"""Front-equation solver: closed-form reductions, invariants, extraction."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from scipy.linalg import solve_banded

from bouex.errors import NumericalFailureError
from bouex.kpp import (KppParams, _implicit_solver, dump_checkpoints, estimate_C_pde,
                       front_tail, prefactor_of_t, solve_kpp)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def coarse_field():
    params = KppParams(dx=0.1, t_max=6.0, rho_max=2.0, checkpoints=(3.0, 4.0, 5.0, 6.0))
    return solve_kpp(params)


@pytest.fixture(scope="module")
def default_field():
    # the `kpp` CLI default and the benchmark grid: dx=0.05, t_max=10, rho_max=2
    return solve_kpp(KppParams())


class TestSolver:
    def test_uniform_ic_follows_logistic(self):
        u0 = 0.3
        params = KppParams(dx=0.1, dt=2e-4, t_max=2.0, rho_max=1.0,
                           ic_mode="uniform", ic_value=u0, checkpoints=(2.0,))
        field = solve_kpp(params)
        w = field.w_at(2.0)
        exact = math.log(u0) + 2.0 - math.log1p(u0 * math.expm1(2.0))
        assert abs(w[len(w) // 2] - exact) < 1e-4

    def test_saturated_state_is_fixed(self):
        params = KppParams(dx=0.1, t_max=5.0, rho_max=1.0, ic_mode="uniform",
                           ic_value=1.0 - 1e-15, checkpoints=(5.0,))
        field = solve_kpp(params)
        assert np.abs(field.w_at(5.0)).max() < 1e-10

    def test_linear_mode_matches_heat_kernel(self):
        # with the nonlinearity off, the exact solution is e^t P(N(0,t) > x)
        params = KppParams(dx=0.02, dt=5e-5, t_max=2.0, rho_max=4.0,
                           nonlinear=False, checkpoints=(2.0,))
        field = solve_kpp(params)
        i = int(np.searchsorted(field.x, 10.0))
        x_probe = field.x[i]
        exact = 2.0 + norm.logsf(x_probe / math.sqrt(2.0))
        assert abs(field.w_at(2.0)[i] - exact) < 0.01  # 1% in u

    def test_comparison_principle(self):
        # pointwise-ordered initial conditions stay ordered; ramp slopes must
        # be grid-resolved (slope * dx well below 1) or the kink layer leaks
        common = dict(dx=0.05, dt=2e-4, t_max=3.0, rho_max=1.5,
                      checkpoints=(1.0, 2.0, 3.0), ic_mode="ramp")
        steep = solve_kpp(KppParams(ic_slope=20.0, **common))
        shallow = solve_kpp(KppParams(ic_slope=10.0, **common))
        for t in (1.0, 2.0, 3.0):
            ws, wh = steep.w_at(t), shallow.w_at(t)
            # the far-right boundary closure is artificial; compare where the
            # field is meaningful
            sel = (ws >= -60.0) & (wh >= -60.0)
            assert np.all(wh[sel] >= ws[sel] - 1e-6)

    def test_step_below_ramp(self):
        common = dict(dx=0.1, dt=2e-4, t_max=3.0, rho_max=1.5, checkpoints=(3.0,))
        step = solve_kpp(KppParams(ic_mode="step", **common))
        ramp = solve_kpp(KppParams(ic_mode="ramp", ic_slope=25.0, **common))
        # the step IC is dominated by the ramp IC, so the solution stays below
        assert np.all(step.w_at(3.0) <= ramp.w_at(3.0) + 1e-6)

    def test_field_invariants(self, coarse_field):
        for t in coarse_field.times:
            w = coarse_field.w_at(t)
            assert np.all(w <= 1e-10)
            assert np.all(np.diff(w) <= 1e-8)

    def test_instability_detection(self):
        params = KppParams(dx=0.1, t_max=4.0, rho_max=1.5)
        object.__setattr__(params, "dt", 0.04)  # force a CFL violation
        with pytest.raises(NumericalFailureError):
            solve_kpp(params)

    @pytest.mark.parametrize("field", ["dx", "t_max", "rho_max"])
    def test_rejects_infinite_extent(self, field):
        with pytest.raises(ValueError):
            KppParams(**{field: math.inf})

    def test_rejects_grid_without_interior(self):
        # dx=8 on [-8, 14.4] gives 4 points: the w phase would have one
        # interior point between its Dirichlet rows; 5 points are the least
        assert KppParams(rho_max=1.5, t_max=3.0, dx=5.6).n_points == 5
        with pytest.raises(ValueError, match="4 points"):
            KppParams(rho_max=1.5, t_max=3.0, dx=8.0)

    def test_dt_validation(self):
        for dt in (0.1, 0.0, -0.01):
            with pytest.raises(ValueError):
                KppParams(dx=0.05, dt=dt, t_max=4.0, rho_max=2.0)

    @pytest.mark.parametrize("ic_mode", ["step", "ramp", "uniform"])
    def test_rejects_ic_slope_not_finite_and_positive(self, ic_mode):
        for slope in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="ic_slope"):
                KppParams(ic_mode=ic_mode, ic_slope=slope)

    def test_default_run_stores_every_checkpoint(self, default_field):
        # the default dt divides t_switch, so t_max = 10 is a grid time and is stored
        params = KppParams()
        assert params.t_switch / params.dt_value == round(params.t_switch / params.dt_value)
        assert default_field.times == [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]

    @pytest.mark.parametrize("ic_mode, checkpoints", [
        ("step", (0.25, 1.0, 2.0)), ("step", (11.0,)), ("step", (-1.0,)), ("step", (1.0001,)),
        ("ramp", (0.0, 5.0)), ("ramp", (0.0, 4.0, 5.0)), ("uniform", (0.0, 5.0)),
        ("ramp", (3.0, 3.0)), ("uniform", (3.0, 3.0))], ids=[f"checkpoints{i}" for i in range(9)])
    def test_rejects_checkpoint_off_the_grid(self, ic_mode, checkpoints):
        # before the step IC's u phase, beyond t_max, not a whole number of
        # steps, at t = 0 (no 1/t to extrapolate in), or twice on one step
        with pytest.raises(ValueError, match="checkpoint"):
            KppParams(ic_mode=ic_mode, checkpoints=checkpoints)

    @pytest.mark.parametrize("ic_mode, t_max", [("step", 1.5), ("step", 0.25), ("ramp", 1.0)])
    def test_rejects_t_max_with_no_checkpoint(self, ic_mode, t_max):
        # the default checkpoints are whole times from 2 on, so below 2 none
        # is stored unless some are given (in step mode, from t_switch on)
        with pytest.raises(ValueError, match="--checkpoints"):
            KppParams(ic_mode=ic_mode, t_max=t_max)
        if t_max >= KppParams.t_switch or ic_mode != "step":
            assert KppParams(ic_mode=ic_mode, t_max=t_max,
                             checkpoints=(t_max,)).checkpoint_times == (t_max,)

    @pytest.mark.parametrize("dx, t_max", [(0.1, 6.0), (0.05, 10.0)])
    def test_step_mode_dt_ignores_ic_slope(self, dx, t_max):
        dts = {KppParams(dx=dx, t_max=t_max, ic_slope=b).dt_value for b in (1.0, 50.0, 500.0)}
        assert len(dts) == 1

    def test_front_speed_with_log_correction(self):
        # the half-level set follows sqrt2 t - (3/(2 sqrt2)) log t + O(1);
        # with the known log term removed, the speed must be sqrt2 within 2%
        params = KppParams(dx=0.05, t_max=16.0, rho_max=1.2,
                           checkpoints=tuple(np.arange(8.0, 16.01, 1.0)))
        field = solve_kpp(params)
        level = math.log(0.5)
        xs = []
        for t in field.times:
            w = field.w_at(t)
            i = int(np.searchsorted(-w, -level))  # w decreasing
            # linear interpolation of the crossing
            x0, x1 = field.x[i - 1], field.x[i]
            w0, w1 = w[i - 1], w[i]
            xs.append(x0 + (level - w0) * (x1 - x0) / (w1 - w0))
        ts = np.array(field.times)
        corrected = np.array(xs) + 3.0 / (2.0 * SQRT2) * np.log(ts)
        design = np.vstack([ts, np.ones_like(ts)]).T
        coef, *_ = np.linalg.lstsq(design, corrected, rcond=None)
        assert coef[0] == pytest.approx(SQRT2, rel=0.02)


def _banded_matrix(n: int, r: float) -> np.ndarray:
    """The full (2, 1)-banded implicit matrix, in solve_banded layout."""
    ab = np.zeros((4, n))
    ab[0, 2:] = -r
    ab[1, 1:-1] = 1.0 + 2.0 * r
    ab[2, :-2] = -r
    ab[1, 0] = ab[1, n - 1] = 1.0
    ab[2, n - 2] = -2.0          # x[n-1] - 2 x[n-2] + x[n-3] = b[n-1]
    ab[3, n - 3] = 1.0
    return ab


class TestBandedSolver:
    # the benchmark grid: dx=0.05, t_max=10, rho_max=2 gives 887 points
    N = 887
    R = 0.5 * KppParams(dx=0.05, t_max=10.0, rho_max=2.0).dt_value / 0.05**2

    def test_matches_solve_banded(self):
        ab = _banded_matrix(self.N, self.R)
        solve = _implicit_solver(self.N, self.R)
        rng = np.random.default_rng(11)
        for k in range(4):
            rhs = rng.normal(scale=10.0 ** k, size=self.N)
            expected = solve_banded((2, 1), ab, rhs)
            got = solve(rhs.copy(), 0.0, k)
            assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_non_finite_rhs_is_a_numerical_failure(self):
        solve = _implicit_solver(self.N, self.R)
        rhs = np.zeros(self.N)
        rhs[100] = np.nan
        with pytest.raises(NumericalFailureError, match=r"t=1\.2500 \(step 7\)"):
            solve(rhs, 1.25, 7)


class TestFrontTail:
    def test_bulk_saturation(self, coarse_field):
        # probing deep in the bulk returns w ~ 0 (u ~ 1): use a tiny rho*t
        w = coarse_field.w_at(3.0)
        assert w[8] == pytest.approx(0.0, abs=2e-5)

    def test_monotone_in_rho(self, coarse_field):
        vals = [front_tail(coarse_field, rho, 6.0) for rho in (1.0, 1.3, 1.7, 2.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_probe_outside_domain(self, coarse_field):
        with pytest.raises(ValueError):
            front_tail(coarse_field, 2.0, 12.0)
        with pytest.raises(ValueError):
            front_tail(coarse_field, 0.5, 3.0)


class TestEstimate:
    def test_refinement_within_uncertainty(self):
        base = solve_kpp(KppParams(dx=0.05, t_max=6.0, rho_max=1.5,
                                   checkpoints=(3.0, 4.0, 5.0, 6.0)))
        fine = solve_kpp(KppParams(dx=0.025, t_max=6.0, rho_max=1.5,
                                   checkpoints=(3.0, 4.0, 5.0, 6.0)))
        r_base = estimate_C_pde(base, 1.5)
        r_fine = estimate_C_pde(fine, 1.5)
        assert abs(r_base.estimate - r_fine.estimate) <= \
            r_base.stderr + r_fine.stderr

    def test_small_rho_ordering(self):
        field = solve_kpp(KppParams(dx=0.05, t_max=10.0, rho_max=1.5))
        lo = estimate_C_pde(field, 1.05)
        mid = estimate_C_pde(field, 1.5)
        assert 0.0 < lo.estimate < mid.estimate

    def test_requires_two_checkpoints(self):
        field = solve_kpp(KppParams(dx=0.1, t_max=6.0, rho_max=2.0, checkpoints=(6.0,)))
        with pytest.raises(ValueError, match="two checkpoints"):
            estimate_C_pde(field, 1.5)

    def test_prefactor_of_t_positive(self, coarse_field):
        assert prefactor_of_t(coarse_field, 1.5, 6.0) > 0.0


# c(t) at every checkpoint, then the extrapolated c and its Richardson spread,
# from the tridiagonal LDL^T solve of every implicit step (LAPACK dpttrf once,
# dpttrs per step).  A change of the linear solver may move them at rounding
# level only.
_PINNED_PREFACTORS = {
    "coarse_field": {  # the smoke grid: kpp --t-max 6 --dx 0.1
        1.5: ((0.18375150331147871, 0.1816801710743324, 0.18012517724956406,
               0.17892537520926813),
              0.1734801806464227, 0.0009788369427022325),
        2.0: ((0.22402465854529532, 0.22429792524603975, 0.22442821554275458,
               0.22450642354124728),
              0.22492683547349815, 5.1913195903086073e-05),
    },
    "default_field": {  # the benchmark grid
        1.5: ((0.17786562180926552, 0.1765976529169456, 0.1755929413699925,
               0.17477837289772977, 0.17410524735990604, 0.17354001454384252),
              0.16859644143453295, 0.0002673238580453985),
        2.0: ((0.21870134603729566, 0.21862092139098385, 0.2185492239801515,
               0.21848812930501496, 0.21843678931936195, 0.21839376795886342),
              0.21801704160490415, 1.949371976112113e-05),
    },
}


@pytest.mark.parametrize("grid", list(_PINNED_PREFACTORS))
@pytest.mark.parametrize("rho", [1.5, 2.0])
def test_prefactors_are_pinned(grid, rho, request):
    field = request.getfixturevalue(grid)
    c_of_t, c, spread = _PINNED_PREFACTORS[grid][rho]
    res = estimate_C_pde(field, rho)
    assert [prefactor_of_t(field, rho, t) for t in field.times] == \
        pytest.approx(c_of_t, rel=1e-10, abs=0)
    assert res.estimate == pytest.approx(c, rel=1e-10, abs=0)
    assert res.stderr == pytest.approx(spread, rel=0, abs=1e-10)


def test_dump_checkpoints_roundtrip(tmp_path, coarse_field):
    path = tmp_path / "field.csv"
    dump_checkpoints(coarse_field, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x,w"
    assert len(lines) == 1 + len(coarse_field.times) * coarse_field.x.size
    t, x, w = lines[1].split(",")
    assert float(t) == coarse_field.times[0]
    assert float(x) == coarse_field.x[0]
    assert float(w) == coarse_field.w[0][0]
