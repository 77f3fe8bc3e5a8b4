"""Spine point process, large-deviation constant estimation, and the
limiting decorated Poisson point processes.

The spine realization is a standard Brownian motion B observed at the atoms
sigma_k of a rate-2 Poisson process on [0, T]; branch k carries an
independent Brownian cloud of age sigma_k, each of whose leaves X places an
atom at B_{sigma_k} - sqrt(2) rho sigma_k + X, on top of the fixed atom at 0.
`_spine_atoms` collects the atoms of m realizations, each one's atom at 0
included when the window reaches it, so its consumers (`sample_decoration`,
one realization at a time, and the spine-identity check) take them as they
are.

The fraction of realizations with no strictly positive atom, divided by
sqrt(4 pi), estimates the large-deviation prefactor c(rho) of the maximal
displacement; conditioning on that void event samples the decoration law.
c(rho) has one estimator, the coupled curve `estimate_C_curve`; `estimate_C`
is that curve at a single point.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .cloud import additive_martingale_per_rep, leaf_blocks
from .errors import RejectionBudgetError, ResourceLimitError
from .gaussian import SQRT2, INV_SQRT_4PI, gamma_constants
from .results import EstimatorResult
from .rng import chunks, substream, spawn_seed
from .window import _NODE_CAP, collect_atoms_above

CHUNK = 4096
# the largest mean numpy's Generator.poisson accepts
_POISSON_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def _split_fraction(rho: float) -> float:
    # equalizes the decay rates of the Brownian and cloud-max bound terms
    return (-1.0 + math.sqrt(1.0 + 2.0 * (rho - 1.0))) / (rho - 1.0)


def _window_exp(x: float, window_a: float) -> float:
    """e^x, x growing as window_a falls; a non-finite window_a or e^x is a ValueError."""
    if not abs(window_a) < math.inf:
        raise ValueError(f"window_a must be finite, got {window_a}")
    try:
        if x < math.inf:
            return math.exp(x)
    except OverflowError:
        pass
    raise ValueError(f"window_a={window_a} is too negative: e^{x:.6g} overflows")


def truncation_miss_bound(rho: float, window_a: float, T: float) -> float:
    """Certified bound on P(any branch after T contributes an atom >= window_a).

    Splits the slack a + sqrt(2)(rho-1)s between the spine (Gaussian
    Chernoff bound) and the cloud maximum (first-moment envelope
    e^{-sqrt(2) y - y^2/2s} / (2 sqrt(pi))), integrated in closed form.
    """
    if not rho > 1.0:
        raise ValueError(f"no finite horizon certificate exists for rho <= 1, got {rho}")
    beta = _split_fraction(rho)
    d = rho - 1.0
    r_m = 2.0 * (1.0 - beta) * d
    a_m = _window_exp(-SQRT2 * (1.0 - beta) * window_a, window_a) / (math.sqrt(math.pi) * r_m)
    r_b = beta * beta * d * d
    a_b = 2.0 * _window_exp(-SQRT2 * window_a * beta * beta * d, window_a) / r_b
    if window_a + SQRT2 * d * T <= 0:
        return 1.0
    return a_m * math.exp(-r_m * T) + a_b * math.exp(-r_b * T)


def truncation_horizon(rho: float, window_a: float, eps: float) -> float:
    """Smallest certified horizon with truncation miss probability <= eps.

    ResourceLimitError when even a horizon of 1e7 misses more (rho near 1).
    """
    if not rho > 1.0:
        raise ValueError(f"no finite horizon certificate exists for rho <= 1, got {rho}")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    lo = max(0.0, -window_a / (SQRT2 * (rho - 1.0))) + 1e-9
    hi = max(lo + 1.0, 1.0)
    while truncation_miss_bound(rho, window_a, hi) > eps:
        hi *= 2.0
        if hi > 1e7:  # rho so near 1 that the bound decays too slowly
            raise ResourceLimitError(
                f"rho={rho}, window_a={window_a}: no horizon up to 1e7 brings the "
                f"truncation miss bound to eps={eps}; a larger rho, window_a or eps needs less")
    if truncation_miss_bound(rho, window_a, lo) <= eps:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if truncation_miss_bound(rho, window_a, mid) <= eps:
            hi = mid
        else:
            lo = mid
    return hi


def _sort_blocks(counts, values):
    """`values`, consecutive blocks of counts[r] finite values each, with
    every block sorted: the values that np.lexsort((values, block)) orders.

    Block r is row r of a grid padded with +inf after its values, which the
    row sort leaves in place.
    """
    filled = np.arange(counts.max(initial=0)) < counts[:, None]
    grid = np.full(filled.shape, np.inf)
    grid[filled] = values
    grid.sort(axis=1)
    return grid[filled]


def _draw_branches(n_reps: int, horizon_T: float, rng):
    """Branch times and spine values for a chunk of realizations.

    Returns flat arrays (rep, sigma, b) sorted by (rep, sigma), plus the
    spine value at the horizon for each realization.
    """
    if not 0.0 <= horizon_T < math.inf:
        raise ValueError(f"horizon_T must be finite and >= 0, got {horizon_T}")
    counts = rng.poisson(2.0 * horizon_T, size=n_reps)
    rep = np.repeat(np.arange(n_reps, dtype=np.int64), counts)
    sigma = _sort_blocks(counts, rng.uniform(0.0, horizon_T, size=rep.size))
    # replica r holds branches first[r]:end[r]; its spine starts at 0, so its
    # first increment spans [0, sigma], and the Brownian increments are
    # cumulated once, the running sum before each block subtracted
    end = np.cumsum(counts)
    first = end - counts
    starts = first[counts > 0]
    dt = np.diff(sigma, prepend=0.0)
    dt[starts] = sigma[starts]
    cs = np.concatenate(([0.0], np.cumsum(rng.standard_normal(rep.size) * np.sqrt(dt))))
    b = cs[1:] - cs[first][rep]
    # spine value at the horizon: one more independent increment per replica
    last_sigma = np.where(counts > 0, np.concatenate(([0.0], sigma))[end], 0.0)
    b_T = (cs[end] - cs[first]) + rng.standard_normal(n_reps) * np.sqrt(horizon_T - last_sigma)
    return rep, sigma, b, b_T


def _spine_atoms(m: int, horizon_T: float, speed: float, window_a: float, rng,
                 prune_tol: float, stop_level=None):
    """Atoms >= window_a of m spine realizations drifting at -speed.

    Branch k's leaves X land at B_k - speed sigma_k + X.  When window_a <= 0
    the spine's own atom at 0 follows the branch atoms, one per realization.
    Returns the collected atoms (grouped by realization) and the spine value
    at the horizon of each realization.
    """
    rep, sigma, b, b_T = _draw_branches(m, horizon_T, rng)
    drift = speed * sigma
    res = collect_atoms_above(
        mu=0.0, horizons=sigma, x0=0.0, levels=window_a + drift - b, scales=1.0,
        offsets=b - drift, groups=rep, n_groups=m, rng=rng,
        prune_tol=prune_tol, stop_level=stop_level)
    if window_a <= 0.0:
        res.group = np.concatenate((res.group, np.arange(m, dtype=np.int64)))
        res.atoms = np.concatenate((res.atoms, np.zeros(m)))
    return res, b_T


def estimate_C(rho: float, horizon_T: float, n: int, seed: int) -> EstimatorResult:
    """Monte Carlo estimate of c(rho): the coupled curve at the one point rho."""
    return estimate_C_curve([rho], horizon_T, n, seed)[0]


def estimate_C_curve(rho_grid, horizon_T: float, n: int, seed: int):
    """Coupled estimates over an ascending rho grid (common random numbers).

    Each realization is summarized by its critical speed
    rho* = max_k (B_k + M_k) / (sqrt(2) sigma_k); the void indicator at rho
    is exactly {rho >= rho*}, so the coupled curve is monotone by
    construction.  A realization is abandoned as soon as it emits an atom
    above the top of the grid, since it is then non-void at every grid point.
    Returns one EstimatorResult per grid point.
    """
    grid = np.asarray(rho_grid, dtype=float)
    if grid.size == 0 or np.any(np.diff(grid) < 0):
        raise ValueError("rho_grid must be ascending and non-empty")
    if not np.all(grid >= 1.0):
        raise ValueError(f"rho must be >= 1, got {grid.tolist()}")
    if n < 1:
        raise ValueError("need n >= 1")
    rho_min = float(grid[0])
    void_counts = np.zeros(grid.size, dtype=np.int64)
    pruned_total = 0.0
    for j, _, m in chunks(n, CHUNK):
        rng = substream(seed, j)
        rep, sigma, b, _ = _draw_branches(m, horizon_T, rng)
        sig = np.maximum(sigma, 1e-300)
        res = collect_atoms_above(
            mu=0.0, horizons=sigma, x0=0.0, levels=SQRT2 * rho_min * sig - b,
            scales=1.0 / (SQRT2 * sig), offsets=b / (SQRT2 * sig),
            groups=rep, n_groups=m, rng=rng, prune_tol=1e-8,
            stop_level=float(grid[-1]))
        rho_star = res.max_per_group()
        void_counts += (grid[None, :] >= rho_star[:, None]).sum(axis=0)
        pruned_total += float(res.pruned_mass.sum())
    results = []
    for i, rho in enumerate(grid):
        p = int(void_counts[i]) / n
        se = math.sqrt(max(p * (1.0 - p), 1e-300) / n)
        warning = "rho_at_one" if rho <= 1.0 + 1e-12 else None
        results.append(EstimatorResult(
            estimate=p * INV_SQRT_4PI, stderr=se * INV_SQRT_4PI, n_samples=n,
            n_accepted=int(void_counts[i]), warning=warning,
            pruned_mass=pruned_total / n))
    return results


def sample_decoration(rho: float, horizon_T: float, window_a: float,
                      max_attempts: int, rng) -> np.ndarray:
    """Rejection sample of the decoration law: spine conditioned on voidness.

    Returns the ascending atoms in [window_a, 0], the atom at 0 included;
    raises after max_attempts rejections, reporting the acceptance estimate.
    """
    if not rho > 1.0:
        raise ValueError(f"the decoration sampler needs rho > 1, got {rho}")
    if not window_a <= 0.0:
        raise ValueError(f"window_a must be <= 0 (decorations live on (-inf, 0]), got {window_a}")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    for _ in range(max_attempts):
        res, _ = _spine_atoms(1, horizon_T, SQRT2 * rho, window_a, rng, 1e-9,
                              stop_level=0.0)
        # a realization abandoned at stop_level has emitted the atom that ended it
        if not np.any(res.atoms > 0.0):
            return np.sort(res.atoms)
    raise RejectionBudgetError(
        f"no void realization in {max_attempts} attempts at rho={rho} "
        f"(acceptance estimate < {1.0 / max_attempts:.2e})")


def limit_intensity(gamma: float, rng) -> float:
    """Spine estimate (2000 realizations) of the intensity constant c(d_gamma)
    at a finite gamma; estimate it once per run of `sample_limit_process`."""
    d_gamma = gamma_constants(gamma).d_gamma
    if math.isinf(d_gamma):
        raise ValueError("gamma = inf needs no estimate: c is 1/sqrt(4 pi)")
    return estimate_C(d_gamma, truncation_horizon(d_gamma, 0.0, 1e-2), 2000,
                      spawn_seed(rng)).estimate


def sample_limit_process(gamma: float, window_a: float, rng,
                         c_value: Optional[float] = None,
                         proxy_horizon: float = 12.0,
                         max_attempts: int = 10_000,
                         decoration_horizon: Optional[float] = None) -> np.ndarray:
    """Draw the limiting decorated Poisson point process above window_a.

    Returns the ascending atoms.  gamma = inf is exact: the mixing weight is
    a unit exponential, the intensity constant is 1/sqrt(4 pi), and
    decorations are single atoms.  Finite gamma uses the additive martingale
    at `proxy_horizon` as the mixing-weight proxy (documented bias source)
    and dilated decoration draws; the window restriction is exact because
    decorations only move atoms down.  Finite gamma needs c_value, e.g. from
    `limit_intensity`; gamma = inf rejects one, since its constant is fixed.
    A Poisson mean above window._NODE_CAP atoms raises ResourceLimitError
    before the count is drawn.
    """
    density = _window_exp(-SQRT2 * window_a, window_a)
    gc = gamma_constants(gamma)
    d_gamma = gc.d_gamma
    if math.isinf(gamma):
        if c_value is not None:
            raise ValueError("gamma = inf fixes c = 1/sqrt(4 pi); c_value applies "
                             "to finite gamma only")
        w = float(rng.exponential())
        c = INV_SQRT_4PI
    else:
        if c_value is None:
            raise ValueError("finite gamma needs c_value (see limit_intensity)")
        if not 0.0 < c_value < math.inf:
            raise ValueError(f"c_value must be finite and positive, got {c_value}")
        w = np.zeros(1)
        for rep, x in leaf_blocks(0.0, proxy_horizon, 1, rng):
            additive_martingale_per_rep(rep, x, proxy_horizon, 1, SQRT2 * gc.c_gamma, out=w)
        w = float(w[0])
        c = float(c_value)
    mean = c * w * density
    if not mean <= _POISSON_MAX:
        raise ValueError(f"window_a={window_a} is too negative: the Poisson mean "
                         f"{mean:.6g} exceeds numpy's limit {_POISSON_MAX:.6g}")
    if mean > _NODE_CAP:
        raise ResourceLimitError(f"window_a={window_a}: the Poisson mean {mean:.6g} exceeds "
                                 f"the atom cap {_NODE_CAP}; a higher window draws fewer atoms")
    count = int(rng.poisson(mean))
    atoms = window_a + rng.exponential(size=count) / SQRT2
    if not math.isinf(gamma):
        pieces = []
        for xi in atoms:
            dec_window = min(0.0, (window_a - xi) / d_gamma)
            t_dec = decoration_horizon if decoration_horizon is not None \
                else truncation_horizon(d_gamma, dec_window, 1e-2)
            shifted = xi + d_gamma * sample_decoration(d_gamma, t_dec, dec_window,
                                                       max_attempts, rng)
            pieces.append(shifted[shifted >= window_a])
        atoms = np.concatenate(pieces) if pieces else np.zeros(0)
    return np.sort(atoms)
