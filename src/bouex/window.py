"""Windowed leaf collection with certified subtree pruning.

Collects every leaf atom of a batch of branching-diffusion (sub)trees whose
output value lands at or above a per-root window level, without expanding
subtrees that cannot plausibly reach it.  A subtree rooted at remaining time
tau and position x is dropped only when its expected number of qualifying
leaves,

    e^tau * P(N(x e^{-mu tau}, var_mu(tau)) >= level),

an exact Markov bound on the exceedance probability, is at most prune_tol.
Every dropped bound is added to the root group's `pruned_mass`, so the
one-sided miss probability of each group is reported exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .errors import ResourceLimitError
from .gaussian import normalization_factor, ou_variance

_DEFAULT_NODE_CAP = 200_000_000


@dataclass
class CollectedAtoms:
    """Atoms (output coordinates) with their group labels, plus diagnostics."""

    group: np.ndarray        # group id per atom
    atoms: np.ndarray        # scale * leaf_position + offset per atom
    pruned_mass: np.ndarray  # per-group sum of dropped exceedance bounds
    stopped: np.ndarray      # per-group flag: early stop triggered
    n_nodes: int             # processed segment count

    def atoms_of(self, g: int) -> np.ndarray:
        return self.atoms[self.group == g]

    def max_per_group(self) -> np.ndarray:
        """Largest atom of each group, -inf for a group with none."""
        mx = np.full(self.pruned_mass.size, -np.inf)
        np.maximum.at(mx, self.group, self.atoms)
        return mx


def _exceedance_log_bound(mu, tau, x, level):
    """log of e^tau * P(transition >= level), clipped at 0."""
    var = ou_variance(np.full_like(tau, mu), tau)
    sd = np.sqrt(np.maximum(var, 1e-300))
    z = (level - x * np.exp(-mu * tau)) / sd
    return np.minimum(tau + log_ndtr(-z), 0.0)


def subtree_exceedance_bound(mu: float, tau: float, x: float, level: float) -> float:
    """Certified upper bound on P(some leaf >= level) for one subtree."""
    if tau <= 0:
        return 1.0 if x >= level else 0.0
    return float(np.exp(_exceedance_log_bound(
        mu, np.asarray([tau], float), np.asarray([x], float), np.asarray([level], float))[0]))


def collect_atoms_above(mu, horizons, x0, levels, scales, offsets, groups, n_groups,
                        rng, prune_tol=1e-9, stop_level=None,
                        node_cap=_DEFAULT_NODE_CAP) -> CollectedAtoms:
    """Run the batched pruned traversal.

    Parameters are per-root arrays: remaining time, start position, raw
    collection level, and the affine output map atom = scale * leaf + offset.
    When stop_level is given, a group is abandoned as soon as it emits an
    atom strictly above it (used by void-probability estimators).
    """
    tau = np.asarray(horizons, dtype=float).copy()
    x = np.asarray(x0, dtype=float).copy()
    lvl = np.asarray(levels, dtype=float).copy()
    scl = np.asarray(scales, dtype=float).copy()
    off = np.asarray(offsets, dtype=float).copy()
    grp = np.asarray(groups, dtype=np.int64).copy()

    pruned = np.zeros(n_groups)
    stopped = np.zeros(n_groups, dtype=bool)
    out_groups, out_atoms = [], []
    n_nodes = 0

    # roots with tau == 0 are immediate leaves
    if tau.size:
        done = tau <= 0.0
        if np.any(done):
            hit = done & (x >= lvl)
            if np.any(hit):
                out_groups.append(grp[hit])
                out_atoms.append(scl[hit] * x[hit] + off[hit])
                if stop_level is not None:
                    emitted = scl[hit] * x[hit] + off[hit]
                    over = emitted > stop_level
                    if np.any(over):
                        np.logical_or.at(stopped, grp[hit][over], True)
            keep = ~done
            tau, x, lvl, scl, off, grp = (a[keep] for a in (tau, x, lvl, scl, off, grp))

    while tau.size:
        if stop_level is not None and stopped.any():
            keep = ~stopped[grp]
            if not keep.all():
                tau, x, lvl, scl, off, grp = (a[keep] for a in (tau, x, lvl, scl, off, grp))
                if not tau.size:
                    break

        log_bound = _exceedance_log_bound(mu, tau, x, lvl)
        drop = log_bound <= math.log(prune_tol) if prune_tol > 0 else np.zeros(tau.size, bool)
        if np.any(drop):
            np.add.at(pruned, grp[drop], np.exp(log_bound[drop]))
            keep = ~drop
            tau, x, lvl, scl, off, grp = (a[keep] for a in (tau, x, lvl, scl, off, grp))
            if not tau.size:
                break

        m = tau.size
        n_nodes += m
        if n_nodes > node_cap:
            raise ResourceLimitError(
                f"windowed traversal exceeded node cap {node_cap}; "
                "raise prune_tol or the window level")
        life = rng.exponential(size=m)
        xi = rng.standard_normal(m)
        leaf = life >= tau
        dur = np.where(leaf, tau, life)
        sd = np.sqrt(ou_variance(np.full(m, mu), dur))
        x_new = x * np.exp(-mu * dur) + sd * xi

        hit = leaf & (x_new >= lvl)
        if np.any(hit):
            emitted = scl[hit] * x_new[hit] + off[hit]
            out_groups.append(grp[hit])
            out_atoms.append(emitted)
            if stop_level is not None:
                over = emitted > stop_level
                if np.any(over):
                    np.logical_or.at(stopped, grp[hit][over], True)

        split = ~leaf
        tau = np.repeat(tau[split] - life[split], 2)
        x = np.repeat(x_new[split], 2)
        lvl = np.repeat(lvl[split], 2)
        scl = np.repeat(scl[split], 2)
        off = np.repeat(off[split], 2)
        grp = np.repeat(grp[split], 2)

    if out_groups:
        g = np.concatenate(out_groups)
        a = np.concatenate(out_atoms)
    else:
        g = np.zeros(0, dtype=np.int64)
        a = np.zeros(0)
    return CollectedAtoms(group=g, atoms=a, pruned_mass=pruned,
                          stopped=stopped, n_nodes=n_nodes)


def windowed_extremal_atoms(mu: float, t: float, centering, window: float,
                            n_reps: int, rng, prune_tol: float = 1e-9,
                            node_cap: int = _DEFAULT_NODE_CAP) -> CollectedAtoms:
    """All extremal atoms >= window for n_reps clouds, certified-pruned.

    Output coordinates are lambda_{mu t} X - centering.value; the raw
    collection level is the window mapped back through that affine map.
    """
    lam = normalization_factor(mu, t)
    level_raw = (window + centering.value) / lam
    ids = np.arange(n_reps)
    return collect_atoms_above(
        mu,
        horizons=np.full(n_reps, float(t)),
        x0=np.zeros(n_reps),
        levels=np.full(n_reps, level_raw),
        scales=np.full(n_reps, lam),
        offsets=np.full(n_reps, -centering.value),
        groups=ids, n_groups=n_reps, rng=rng,
        prune_tol=prune_tol, node_cap=node_cap)
