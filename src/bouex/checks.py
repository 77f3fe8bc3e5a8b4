"""Statistical acceptance harness: limit laws and exact identities as
pass/fail checks with explicit error budgets.

Every check is deterministic given (seed, config), draws each replica
chunk from its own stream (`rng.chunks`), and returns a machine-readable
CheckReport.
Replicas are reduced one way: a Monte Carlo check builds an array with one
row per replica (`_replica_values`), the one chunk loop of the checks, and
every replica mean it reports comes with the Bessel-corrected standard error
of `_mean_se`.  The chunks run at once on the wave core's threads
(`cloud._run`, on `cloud._ordered`, the one runner of chunks, a wave's
row-wise decisions and its blocks); each draws only from its own stream and
the rows are stacked in chunk order, so no output bit depends on the number
of cores.
The void-law check of the limit process is the one exception to `_mean_se`:
its z-scores use the binomial standard error, floored so that a frequency of
0 or 1 stays finite.
Each check writes its fixed threshold as a literal and names its report
after itself; the suite (`suite.run_suite`) renames each report after its
registry key and passes only the thresholds that change with the tier
(`max_limit_law`'s KS level and `iid_limit`'s tolerance).
Finite-horizon allowances (0.2 first-moment band, 0.05 KS and Laplace
levels, the +-0.5 slope window) are calibrations of this artifact, not
limit-theorem constants; the reports carry the trend data that justifies
them.

Import rule: at module level this file uses only `scipy.special`, which
`window` loads anyway; `scipy.stats` is not used, and `scipy.integrate` is
imported by `_quad` on the first quadrature, so a process that runs none
(`kpp`, `simulate`, the prefactor benchmark) never pays for loading it.
`scipy.linalg` is likewise loaded only by the first KPP solve
(`kpp._implicit_solver`), which `dual_prefactor` reaches through
`estimate_C_pde`.
The Gaussian oracles are closed forms instead: the N(0, sd^2) density in
scipy.stats.norm.pdf's own arithmetic (`_norm_pdf`), the tail as
ndtr(-b/sd), the equal-threshold bivariate tail through Owen's T function
(`_bvn_upper`), the two-sided KS distance on the sorted sample
(`_ks_statistic`) and Pearson's chi-square with its chdtrc p-value
(`_chisquare`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from functools import partial
from typing import Callable

import numpy as np
from scipy.special import chdtrc, expit, ndtr, ndtri, owens_t

from .cloud import _run, leaf_blocks, leaves, simulate_forest
from .gaussian import SQRT2, normalization_factor, ou_variance
from .measure import Centering, group_max
from .rng import chunks, substream
from .spine import _spine_atoms, sample_limit_process
from .window import windowed_extremal_atoms

CHUNK = 2048
_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """Non-negative test function with support bounded from the left.

    kinds: smooth_step(y, eps, height) rises C1-smoothly from 0 at y to a
    plateau at y+eps; exponential_window(beta, a) is e^{beta (x-a)} on
    [a, inf); indicator(a) is 1 on [a, inf) (a = -inf gives the constant 1).
    """

    kind: str
    y: float = 0.0
    eps: float = 1.0
    height: float = 1.0
    beta: float = 1.0
    a: float = 0.0

    def __post_init__(self):
        if self.kind not in ("smooth_step", "exponential_window", "indicator"):
            raise ValueError(f"unknown test-function kind {self.kind!r}")
        if self.kind == "smooth_step" and not (self.eps > 0 and self.height > 0):
            raise ValueError("smooth_step needs eps > 0, height > 0")

    @property
    def support_left(self) -> float:
        return self.y if self.kind == "smooth_step" else self.a

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "smooth_step":
            u = np.clip((x - self.y) / self.eps, 0.0, 1.0)
            out = self.height * u * u * (3.0 - 2.0 * u)
        elif self.kind == "exponential_window":
            # exponent clip keeps quadrature finite far in the tail
            out = np.where(x >= self.a,
                           np.exp(np.minimum(self.beta * (x - self.a), 700.0)), 0.0)
        else:
            out = (x >= self.a).astype(float)
        return out

    def label(self) -> str:
        if self.kind == "smooth_step":
            return f"smooth_step({self.y},{self.eps},h={self.height})"
        if self.kind == "exponential_window":
            return f"exp_window(b={self.beta},a={self.a})"
        return f"indicator({self.a})"


def smooth_step(y, eps, height=1.0):
    return TestFunction(kind="smooth_step", y=y, eps=eps, height=height)


def exponential_window(beta, a):
    return TestFunction(kind="exponential_window", beta=beta, a=a)


def indicator(a):
    return TestFunction(kind="indicator", a=a)


# ---------------------------------------------------------------------------
# reports


@dataclass
class CheckReport:
    name: str
    statistic: float
    threshold: float
    n: int
    passed: bool
    inconclusive: bool = False
    details: dict = field(default_factory=dict)

    @classmethod
    def make(cls, name, statistic, threshold, n, inconclusive=False, **details):
        return cls(name=name, statistic=float(statistic), threshold=float(threshold),
                   n=int(n), passed=bool(statistic <= threshold),
                   inconclusive=inconclusive, details=details)

    @property
    def failed(self) -> bool:
        return not self.passed and not self.inconclusive


def reports_to_json(reports) -> str:
    return json.dumps([asdict(r) for r in reports], indent=2, default=float)


# ---------------------------------------------------------------------------
# oracle-side expectations


def _quad(func, a, b, **kwargs):
    """`scipy.integrate.quad`, imported on the first call (loading it takes ~0.3 s)."""
    from scipy.integrate import quad
    return quad(func, a, b, **kwargs)


def _norm_pdf(x, sd):
    """N(0, sd^2) density, in the arithmetic of scipy.stats.norm.pdf(x, scale=sd).

    z * z is what numpy's array z**2 computes; a numpy scalar's z**2 calls pow
    and can differ in the last bit.
    """
    z = np.asarray(x, dtype=float) / sd
    return np.exp(-(z * z) / 2.0) / _SQRT_2PI / sd


def gaussian_expectation(f: Callable, var: float, lo: float) -> float:
    """E[f(X)] for X ~ N(0, var), by adaptive quadrature; f vanishes below `lo`."""
    sd = math.sqrt(var)
    val, _ = _quad(lambda x: f(x) * _norm_pdf(x, sd), lo, np.inf, limit=200)
    return val


def _bvn_upper(b: float, v: float, c: float) -> float:
    """P(X1 >= b, X2 >= b) for a centred bivariate normal, variance v, covariance c.

    Owen's (1956) equal-threshold form: with h = b/sqrt(v) and rho = c/v it
    is Phibar(h) - 2 T(h, sqrt((1-rho)/(1+rho))), T being Owen's T function;
    rho = 1 gives Phibar(h), and rho = -1 (a = inf) gives max(0, Phibar(h) - Phi(h)).
    """
    if b == -math.inf:
        return 1.0
    h = b / math.sqrt(v)
    rho = min(max(c / v, -1.0), 1.0)
    a = math.sqrt((1.0 - rho) / (1.0 + rho)) if rho > -1.0 else math.inf
    return max(0.0, float(ndtr(-h) - 2.0 * owens_t(h, a)))


def pair_expectation(f: TestFunction, v: float, c: float) -> float:
    """E[f(X1) f(X2)] for a centred bivariate normal with variance v, covariance c."""
    if f.kind == "indicator":
        return _bvn_upper(f.a, v, c)
    if f.kind == "exponential_window":
        b, a = f.beta, f.a
        # exponential tilting: E[e^{b(X1+X2)} 1{X1>=a, X2>=a}]
        shift = b * (v + c)
        log_pref = b * b * (v + c) - 2.0 * b * a
        return math.exp(log_pref) * _bvn_upper(a - shift, v, c)
    # smooth_step: X2 | X1 = x is N(rho x, v - c rho); one quadrature over x
    rho = min(max(c / v, -1.0), 1.0)
    s = math.sqrt(max(v - c * rho, 0.0))
    scale = 1.0 / math.sqrt(2.0 * math.pi * v)

    def outer(x):
        return float(f(x)) * scale * math.exp(-0.5 * x * x / v) \
            * _smooth_step_mean(f, rho * x, s)

    ramp_end = f.y + f.eps
    return _quad(outer, f.y, ramp_end, limit=100)[0] \
        + _quad(outer, ramp_end, np.inf, limit=100)[0]


def _smooth_step_mean(f: TestFunction, m: float, s: float) -> float:
    """E[f(m + s Z)], Z standard normal, for a smooth step f, in closed form.

    On the ramp, Z in [a, b], f = height (3u^2 - 2u^3) with u = alpha + beta Z;
    its mean comes from the normal's partial moments m_k = int_a^b z^k phi(z) dz.
    The plateau, Z > b, adds height P(Z > b).
    """
    if s <= 0.0:
        return float(f(m))
    a, b = (f.y - m) / s, (f.y + f.eps - m) / s
    alpha, beta = (m - f.y) / f.eps, s / f.eps
    pa, pb = (math.exp(-0.5 * z * z) / _SQRT_2PI for z in (a, b))
    m0 = float(ndtr(b) - ndtr(a))
    m1 = pa - pb
    m2 = m0 + a * pa - b * pb
    m3 = 2.0 * m1 + a * a * pa - b * b * pb
    u2 = alpha * alpha * m0 + 2.0 * alpha * beta * m1 + beta * beta * m2
    u3 = alpha ** 3 * m0 + 3.0 * alpha * alpha * beta * m1 \
        + 3.0 * alpha * beta * beta * m2 + beta ** 3 * m3
    return f.height * (3.0 * u2 - 2.0 * u3 + float(ndtr(-b)))


def iid_limit_functional(phi: TestFunction) -> float:
    """Closed-form limiting Laplace functional of the uncorrelated case."""
    y0 = phi.support_left
    val, _ = _quad(
        lambda y: (1.0 - math.exp(-float(phi(y)))) * math.exp(-SQRT2 * y),
        y0, np.inf, limit=200)
    return 1.0 / (1.0 + val / _SQRT_2PI)


def iid_finite_t_functional(phi: TestFunction, t: float) -> float:
    """Exact finite-horizon Laplace functional of the uncorrelated case."""
    m_t = Centering("bou_onehalf", t).value
    sd = math.sqrt(t)
    q, _ = _quad(
        lambda x: (1.0 - math.exp(-float(phi(x - m_t)))) * _norm_pdf(x, sd),
        m_t + phi.support_left, np.inf, limit=200)
    return (1.0 - q) / (math.exp(t) * q + 1.0 - q)


# ---------------------------------------------------------------------------
# checks


def _ks_statistic(sample, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance max(D+, D-) of `sample` from `cdf`.

    Same arithmetic as scipy.stats.kstest(sample, cdf).statistic.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    cdfvals = cdf(x)
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    return float(d_plus if d_plus > d_minus else d_minus)


def _chisquare(obs, expected):
    """Pearson's chi-square of counts `obs` against `expected`, and its p-value.

    Same arithmetic as scipy.stats.chisquare(obs, f_exp=expected), including
    its ValueError when the two totals differ by more than sqrt(eps) relative;
    the p-value is the chi-square upper tail on len(obs) - 1 degrees of freedom.
    """
    obs = np.asarray(obs, dtype=float)
    expected = np.asarray(expected, dtype=float)
    total_obs, total_exp = obs.sum(), expected.sum()
    rtol = np.finfo(float).eps ** 0.5
    rel = abs(total_obs - total_exp) / min(total_obs, total_exp)
    if rel > rtol:
        raise ValueError(f"the sum of the observed frequencies must agree with the sum "
                         f"of the expected frequencies to a relative tolerance of "
                         f"{rtol}, but they differ by {rel}")
    chi2 = ((obs - expected) ** 2 / expected).sum()
    return float(chi2), float(chdtrc(obs.size - 1, chi2))


def _replica_values(n: int, size: int, draw) -> np.ndarray:
    """Per-replica values: `draw(j, m)` for each unit of `chunks(n, size)`,
    stacked in unit order; the units run at once (`cloud._run`, on the one
    runner `cloud._ordered`), so `draw` must read no state that another unit
    writes."""
    return np.concatenate(_run([partial(draw, j, m) for j, _, m in chunks(n, size)]))


def _mean_se(values):
    """Column-wise replica mean and its Bessel-corrected standard error (+1e-15)."""
    n = len(values)
    mean = values.mean(axis=0)
    var = ((values - mean) ** 2).sum(axis=0) / max(n - 1, 1)
    return mean, np.sqrt(var / n) + 1e-15


def check_max_limit_law(mu: float, t: float, n: int, seed: int,
                        threshold: float = 0.05) -> CheckReport:
    """KS distance of the centred maximum against (1 + e^{-sqrt2 z})^{-1}.

    Atoms are collected at or above -8; a replica with none counts as -inf.
    """
    centering = Centering("bou_tilde", t)
    maxima = _replica_values(n, CHUNK, lambda j, m: windowed_extremal_atoms(
        mu, t, centering, -8.0, m, substream(seed, j), prune_tol=1e-9).max_per_group())
    missing = int(np.count_nonzero(~np.isfinite(maxima)))

    def cdf(z):
        return expit(SQRT2 * np.asarray(z, dtype=float))

    ks = _ks_statistic(maxima, cdf)
    return CheckReport.make("max_limit_law", ks, threshold, n,
                            median=float(np.median(maxima)),
                            below_window=missing, t=t, mu=mu)


def check_slepian_monotonicity(mu_list, phi: TestFunction, t: float, n: int,
                               seed: int) -> CheckReport:
    """Laplace functionals must not increase with the spring constant.

    Common Yule trees (and shared edge innovations) couple the spring
    constants; passes when no adjacent pair increases by more than 3 paired
    standard errors.
    """
    mus = list(mu_list)
    if sorted(mus) != mus:
        raise ValueError("mu_list must be ascending")
    if len(mus) < 2:
        return CheckReport.make("slepian_monotonicity", 0.0, 3.0, n, note="single point")
    m_t = Centering("bou_onehalf", t).value
    lams = [1.0 if math.isinf(mu) else normalization_factor(mu, t) for mu in mus]
    base_mu = next((mu for mu in mus if not math.isinf(mu)), 0.0)

    def draw(j, m):
        forest = simulate_forest(base_mu, t, m, substream(seed, j))
        rep = forest.rep[forest.leaf_index]
        vals = np.empty((m, len(mus)))
        for i, mu in enumerate(mus):
            x = forest.leaf_positions if mu == base_mu else forest.positions_for(mu)
            atoms = lams[i] * x - m_t
            vals[:, i] = np.exp(-np.bincount(rep, weights=phi(atoms), minlength=m))
        return vals

    vals = _replica_values(n, 256, draw)
    md, se = _mean_se(np.diff(vals, axis=1))
    zs = md / se
    return CheckReport.make("slepian_monotonicity", zs.max(), 3.0, n,
                            mus=[float(mu) for mu in mus],
                            laplace=[float(v) for v in vals.mean(axis=0)],
                            pair_z=[float(z) for z in zs], phi=phi.label(), t=t)


def _leaf_sums(mu: float, t: float, f, n: int, seed: int) -> np.ndarray:
    """sum_u f(X_t(u)) per replica, in chunks of 512 replicas; each chunk adds
    the terms of each block of `cloud.leaf_blocks` into its sums in turn."""
    def draw(j, m):
        sums = np.zeros(m)
        for rep, x in leaf_blocks(mu, t, m, substream(seed, j)):
            np.add.at(sums, rep, f(x))
        return sums

    return _replica_values(n, 512, draw)


def check_many_to_one(mu: float, t: float, f: TestFunction, n: int,
                      seed: int) -> CheckReport:
    """Replica mean of sum_u f(X_t(u)) against e^t E[f(X_t)] by quadrature."""
    v = ou_variance(mu, t)
    target = math.exp(t) * gaussian_expectation(f, v, f.support_left)
    mean, se = _mean_se(_leaf_sums(mu, t, f, n, seed))
    stat = abs(mean - target) / se
    return CheckReport.make("many_to_one", stat, 4.0, n, mean=mean, target=target,
                            stderr=se, mu=mu, t=t, f=f.label())


def check_many_to_two(mu: float, t: float, f: TestFunction, n: int,
                      seed: int) -> CheckReport:
    """Replica mean of (sum_u f)^2 against the two-diffusion moment formula."""
    v = ou_variance(mu, t)

    def integrand(s):
        c = math.exp(-2.0 * mu * (t - s)) * ou_variance(mu, s)
        return math.exp(2.0 * t - s) * pair_expectation(f, v, c)

    pair_term, _ = _quad(integrand, 0.0, t, limit=100)
    # square the test function analytically where naive squaring overflows
    f_sq = exponential_window(2.0 * f.beta, f.a) if f.kind == "exponential_window" \
        else (lambda x: f(x) ** 2)
    target = math.exp(t) * gaussian_expectation(f_sq, v, f.support_left) \
        + 2.0 * pair_term
    mean, se = _mean_se(_leaf_sums(mu, t, f, n, seed) ** 2)
    stat = abs(mean - target) / se
    return CheckReport.make("many_to_two", stat, 4.0, n, mean=mean, target=target,
                            stderr=se, mu=mu, t=t, f=f.label())


_SPINE_WINDOW = -2.0


def _spine_functionals(group, atoms, n: int) -> np.ndarray:
    """Per-replica values of the four spine-identity functionals F.

    Columns: the constant 1, the void indicator of (-1, 0), and the Laplace
    functionals of smooth_step(-0.5, 0.5) and exp_window(1, -1.5), from flat
    (group, atom) arrays.
    """
    inside = (atoms > -1.0) & (atoms < 0.0)
    laplace = [np.exp(-np.bincount(group, weights=phi(atoms), minlength=n))
               for phi in (smooth_step(-0.5, 0.5), exponential_window(1.0, -1.5))]
    return np.column_stack([np.ones(n), np.bincount(group[inside], minlength=n) == 0]
                           + laplace)


def spine_identity_sides(rho: float, t: float, n: int, seed: int,
                         drift_sign: float = -1.0):
    """Monte Carlo estimates of both sides of the tip-decomposition identity.

    Left: direct clouds, E[F(atoms - max) 1{max >= sqrt2 rho t}].  Right:
    importance-weighted spine, e^{(1-rho^2) t} E[e^{sqrt2 rho B_t} 1{B_t<=0}
    F(truncated spine measure) 1{no positive atom}].  `drift_sign` flips the
    spine drift for mutation testing; -1 is the real construction.  Returns
    (left mean, right mean, left stderr, right stderr) for each F of
    `_spine_functionals`.
    """
    thresh = SQRT2 * rho * t

    def draw(j, m):
        rep, x = leaves(0.0, t, m, substream(seed, 2 * j))
        mx = group_max(rep, x, m)
        centred = x - mx[rep]
        keep = centred >= _SPINE_WINDOW
        left = _spine_functionals(rep[keep], centred[keep], m)
        left *= (mx >= thresh)[:, None]

        res, b_T = _spine_atoms(m, t, -drift_sign * SQRT2 * rho, _SPINE_WINDOW,
                                substream(seed, 2 * j + 1), 1e-10)
        void = np.bincount(res.group[res.atoms > 0.0], minlength=m) == 0
        weight = np.where(b_T <= 0.0, np.exp(SQRT2 * rho * b_T), 0.0)
        right = _spine_functionals(res.group, res.atoms, m)
        right *= (weight * void * math.exp((1.0 - rho * rho) * t))[:, None]
        return np.hstack((left, right))

    mean, se = _mean_se(_replica_values(n, 4096, draw))
    k = mean.size // 2
    return list(zip(mean[:k], mean[k:], se[:k], se[k:]))


def check_spine_identity(rho: float, t: float, n: int, seed: int,
                         drift_sign: float = -1.0) -> CheckReport:
    """Both sides of the tip-decomposition identity agree within 4 sigma per F."""
    sides = spine_identity_sides(rho, t, n, seed, drift_sign=drift_sign)
    stat = -np.inf
    rows = []
    for lm, rm, ls, rs in sides:
        z = abs(lm - rm) / math.sqrt(ls * ls + rs * rs + 1e-300)
        rows.append({"left": lm, "right": rm, "se_left": ls, "se_right": rs, "z": z})
        stat = max(stat, z)
    return CheckReport.make("spine_identity", stat, 4.0, n, rho=rho, t=t, rows=rows)


def _counts_above(mu, t, z_grid, n, seed):
    """Per-replica counts of tilde-centred atoms at each grid level."""
    z_grid = np.asarray(z_grid, dtype=float)
    window = float(z_grid.min())
    centering = Centering("bou_tilde", t)

    def draw(j, m):
        res = windowed_extremal_atoms(mu, t, centering, window, m, substream(seed, j),
                                      prune_tol=1e-7)
        return np.column_stack([np.bincount(res.group[res.atoms >= z], minlength=m)
                                for z in z_grid])

    return _replica_values(n, CHUNK, draw)


def check_first_moment(mu: float, t: float, z_grid, n: int, seed: int) -> CheckReport:
    """max_z |e^{sqrt2 z} mean count(z) - 1| <= 0.2, MC error folded in."""
    z_grid = np.asarray(z_grid, dtype=float)
    if np.any(np.abs(z_grid) > t ** 0.49):
        raise ValueError("levels must satisfy |z| <= t^0.49")
    mean, se = _mean_se(_counts_above(mu, t, z_grid, n, seed))
    scale = np.exp(SQRT2 * z_grid)
    dev = np.maximum(np.abs(scale * mean - 1.0) - 3.0 * scale * se, 0.0)
    stat = float(dev.max())
    return CheckReport.make("first_moment", stat, 0.2, n, z=z_grid.tolist(),
                            normalized_mean=(scale * mean).tolist(),
                            stderr=(scale * se).tolist(), mu=mu, t=t)


def check_second_moment_gap(mu: float, t: float, z_grid, n: int,
                            seed: int) -> CheckReport:
    """log E[Z(Z-1)] must fall with slope -2 sqrt2 (+- 0.5) in z."""
    z_grid = np.asarray(z_grid, dtype=float)
    counts = _counts_above(mu, t, z_grid, n, seed)
    gaps = (counts * (counts - 1)).mean(axis=0)
    positive = gaps > 0
    if np.count_nonzero(positive) < 3:
        return CheckReport.make("second_moment_gap", math.inf, 0.5, n, inconclusive=True,
                                gaps=gaps.tolist(), z=z_grid.tolist(),
                                note="too few positive gap estimates")
    zs = z_grid[positive]
    slope, intercept = np.polyfit(zs, np.log(gaps[positive]), 1)
    stat = abs(slope + 2.0 * SQRT2)
    return CheckReport.make("second_moment_gap", stat, 0.5, n, slope=float(slope),
                            gaps=gaps.tolist(), z=z_grid.tolist(), mu=mu, t=t)


def simulate_iid_laplace(phi: TestFunction, t: float, n: int, seed: int):
    """Mean/se of the uncorrelated-case Laplace functional at horizon t.

    Exact law: geometric leaf count, binomial thinning to the region where
    phi is positive, inverse-CDF Gaussian tail positions.
    """
    m_t = Centering("bou_onehalf", t).value
    sd = math.sqrt(t)
    cut = m_t + phi.support_left
    p_tail = float(ndtr(-(cut / sd)))
    p_leaf = math.exp(-t)

    def draw(j, m):
        rng = substream(seed, j)
        counts = rng.geometric(p_leaf, size=m)
        k = rng.binomial(counts, p_tail)
        vals = np.ones(m)
        idx = np.flatnonzero(k)
        if idx.size:
            tot_atoms = int(k[idx].sum())
            u = rng.uniform(size=tot_atoms)
            x = -sd * ndtri(np.maximum(u * p_tail, 1e-320))
            grp = np.repeat(np.arange(idx.size), k[idx])
            s = np.bincount(grp, weights=phi(x - m_t), minlength=idx.size)
            vals[idx] = np.exp(-s)
        return vals

    return _mean_se(_replica_values(n, 65536, draw))


def check_iid_limit(t: float, n: int, seed: int, tol: float = 0.05) -> CheckReport:
    """Uncorrelated-case Laplace functionals against the closed-form limit."""
    rows = []
    stat = -np.inf
    for i, phi in enumerate((smooth_step(0.0, 1.0, height=20.0), smooth_step(0.0, 1.0),
                             exponential_window(1.0, 0.0), indicator(0.5))):
        mean, se = simulate_iid_laplace(phi, t, n, seed + 131 * i)
        limit = iid_limit_functional(phi)
        exact_t = iid_finite_t_functional(phi, t)
        diff = abs(mean - limit)
        rows.append({"phi": phi.label(), "simulated": mean, "stderr": se,
                     "limit": limit, "exact_finite_t": exact_t,
                     "z_vs_exact": abs(mean - exact_t) / se})
        stat = max(stat, diff)
    return CheckReport.make("iid_limit", stat, tol, n, t=t, rows=rows)


def check_yule_counts(t: float, n: int, seed: int) -> CheckReport:
    """Chi-square fit of leaf counts to the geometric law; fails at p < 0.01.

    Inconclusive, with no tree drawn, when n e^{-t} < 5: the one bin left
    gives the chi-square no degree of freedom.
    """
    p = math.exp(-t)
    # geometric bins with expected count >= 5, tail merged
    kmax = 1
    while n * p * (1 - p) ** (kmax - 1) >= 5 and kmax < 10_000_000:
        kmax += 1
    if kmax < 2:
        return CheckReport.make("yule_geometric_counts", math.inf, 2.0, n, inconclusive=True,
                                t=t, bins=1, note="one bin: n e^{-t} < 5")

    def count(j, m):
        counts = np.zeros(m, dtype=np.intp)
        for rep, _ in leaf_blocks(0.0, t, m, substream(seed, j)):
            np.add.at(counts, rep, 1)
        return counts

    counts = _replica_values(n, 512, count)
    edges = np.arange(1, kmax + 1)
    probs = p * (1 - p) ** (edges - 1)
    obs = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)[1:]
    obs[-1] = np.count_nonzero(counts >= kmax)
    probs = np.append(probs[:-1], (1 - p) ** (kmax - 1))
    chi2, pvalue = _chisquare(obs, n * probs)
    stat = -math.log10(max(pvalue, 1e-300))  # against -log10(0.01) = 2
    return CheckReport.make("yule_geometric_counts", stat, 2.0, n,
                            chi2=float(chi2), pvalue=float(pvalue), t=t,
                            bins=int(kmax))


def check_limit_process_law(n: int, seed: int) -> CheckReport:
    """gamma = inf limit process: P(no atom >= z) vs the exponential-mixed form.

    Levels z = -1, 0, 1; passes when every binomial z-score is at most 3.
    """
    z_grid = np.array([-1.0, 0.0, 1.0])

    def draw(j, m):
        rng = substream(seed, j)
        top = np.array([sample_limit_process(math.inf, -1.0, rng).max(initial=-np.inf)
                        for _ in range(m)])
        return top[:, None] < z_grid

    emp = _replica_values(n, 8192, draw).mean(axis=0)
    target = 1.0 / (1.0 + np.exp(-SQRT2 * z_grid) / math.sqrt(4.0 * math.pi))
    se = np.sqrt(np.maximum(emp * (1 - emp), 1e-12) / n)
    zscores = np.abs(emp - target) / se
    return CheckReport.make("limit_process_void_law", float(zscores.max()), 3.0, n,
                            z=z_grid.tolist(), empirical=emp.tolist(),
                            target=target.tolist())
