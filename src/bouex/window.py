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

The trees are drawn by `cloud._waves`, the one wave core that also builds
`simulate_forest`'s trees, on the same remaining-time clock tau; this module
only decides which nodes to expand and which leaves to emit.  With an open
window and no pruning it emits every leaf: `leaves` is that case, the one
leaf path for Monte Carlo that needs no genealogy, bit for bit the leaves of
`simulate_forest` on the same stream but with no node stored.

Two shortcuts make the decision cheaper without changing an output bit.
The two children of a split share (tau, x, root), so the decision is taken
once per sibling pair and its dropped bound is added once per child, in
node order.  And a cheap lower bound on log Phi(-z) screens out subtrees
that are kept for certain; only the rest get the exact log_ndtr bound.

The wave core may cut a large wave into slices that threads work on at
once, so the collector hands it row-wise work only.  `decide` is a pure
function of a slice of rows: it reads the early-stop flags, which change
only between waves, and returns the kept rows with the bounds it dropped.
`settle` then adds the dropped bounds of all slices to `pruned_mass` on the
calling thread, in node order, and the atoms each slice's leaves emit are
taken slice by slice, so every output has the bits of the uncut wave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .cloud import _NODE_CAP, _check_full_tree, _decayed, _waves
from .gaussian import normalization_factor, ou_variance
from .measure import group_max

_DEFAULT_NODE_CAP = 200_000_000


@dataclass
class CollectedAtoms:
    """Atoms (output coordinates) with their group labels, plus diagnostics."""

    group: np.ndarray        # group id per atom
    atoms: np.ndarray        # scale * leaf_position + offset per atom
    pruned_mass: np.ndarray  # per-group sum of dropped exceedance bounds
    stopped: np.ndarray      # per-group flag: early stop triggered
    n_nodes: int             # processed segment count

    def max_per_group(self) -> np.ndarray:
        """Largest atom of each group, -inf for a group with none."""
        return group_max(self.group, self.atoms, self.pruned_mass.size)


def _standard_score(mu, tau, x, level):
    """z = (level - x e^{-mu tau}) / sd of the transition over tau."""
    sd = ou_variance(mu, tau)
    np.maximum(sd, 1e-300, out=sd)
    np.sqrt(sd, out=sd)
    z = level - _decayed(mu, tau, x)
    z /= sd
    return z


def _exceedance_log_bound(tau, z):
    """log of e^tau * P(transition >= level), clipped at 0; z is the level's
    `_standard_score`."""
    return np.minimum(tau + log_ndtr(-z), 0.0)


def _log_tail_floor(z):
    """A cheap lower bound on log Phi(-z), with at least 0.22 to spare.

    For z >= 0, Phi(-z) >= phi(z)/(1 + z) >= phi(z) e^{-z}, so log Phi(-z)
    >= -z^2/2 - z - log sqrt(2 pi); for z <= 0, log Phi(-z) >= log 1/2.  With
    0.92 > log sqrt(2 pi) the spare is smallest, 0.22, at z = 0.
    """
    zp = np.maximum(z, 0.0)
    return -zp * (0.5 * zp + 1.0) - 0.92


def _prunable(mu, tau, x, level, log_tol):
    """Indices of the subtrees whose bound is at most e^log_tol, and their log bounds.

    A subtree whose cheap bound tau + _log_tail_floor(z) exceeds log_tol + 1
    is kept for certain; only the others get the exact log_ndtr bound, so
    the selection and the dropped bounds are those of the exact test on
    every subtree.  With log_tol >= 0 the clipped bound drops every subtree,
    so nothing is screened.
    """
    z = _standard_score(mu, tau, x, level)
    cut = log_tol + 1.0 if log_tol < 0.0 else np.inf
    near = np.flatnonzero(tau + _log_tail_floor(z) <= cut)
    log_bound = _exceedance_log_bound(tau[near], z[near])
    drop = log_bound <= log_tol
    return near[drop], log_bound[drop]


def collect_atoms_above(mu, horizons, x0, levels, scales, offsets, groups, n_groups,
                        rng, prune_tol=1e-9, stop_level=None,
                        node_cap=_DEFAULT_NODE_CAP) -> CollectedAtoms:
    """Run the batched pruned traversal.

    Parameters are per root: remaining time, start position, raw collection
    level, the affine output map atom = scale * leaf + offset, and the group.
    `horizons` and `groups` are per-root arrays; `x0`, `levels`, `scales` and
    `offsets` may be scalars shared by every root, or anything else that
    broadcasts to the shape of `horizons`.  When stop_level is given, a group
    is abandoned as soon as it emits an atom strictly above it (used by
    void-probability estimators).
    """
    tau = np.asarray(horizons, dtype=float)
    x, lvl, scl, off = (np.broadcast_to(np.asarray(a, dtype=float), tau.shape)
                        for a in (x0, levels, scales, offsets))
    grp = np.asarray(groups, dtype=np.int64)

    pruned = np.zeros(n_groups)
    stopped = np.zeros(n_groups, dtype=bool)
    out_groups, out_atoms = [], []
    n_nodes = 0
    log_tol = math.log(prune_tol) if prune_tol > 0 else None

    def emit(x_leaf, root):
        # the atoms of the leaves that reach their level, with their groups
        hit = np.flatnonzero(x_leaf >= lvl[root])
        root = root[hit]
        return grp[root], scl[root] * x_leaf[hit] + off[root]

    def at_leaves(root, x_new, leaf):
        leaf = np.flatnonzero(leaf)
        return emit(x_new[leaf], root[leaf])

    def record(g, emitted):
        out_groups.append(g)
        out_atoms.append(emitted)
        if stop_level is not None:
            stopped[g[emitted > stop_level]] = True

    def decide(tau, x, root):
        # rows of unstopped groups whose bound is above prune_tol are kept;
        # `stopped` changes only between waves, so every row reads one state
        keep = ~stopped[grp[root]] if stop_level is not None else np.ones(tau.size, bool)
        if log_tol is None:
            return np.flatnonzero(keep), None
        drop, log_bound = _prunable(mu, tau, x, lvl[root], log_tol)
        if stop_level is not None:
            unstopped = keep[drop]
            drop, log_bound = drop[unstopped], log_bound[unstopped]
        keep[drop] = False
        return np.flatnonzero(keep), (grp[root[drop]], np.exp(log_bound))

    def settle(dropped, pair):
        # each row stands for `pair` nodes; its dropped bound is added once per
        # node, in node order, so pruned_mass has the bits of a per-node tally
        if log_tol is None:
            return
        g, bound = dropped[0] if len(dropped) == 1 else map(np.concatenate, zip(*dropped))
        if g.size:
            np.add.at(pruned, np.repeat(g, pair), np.repeat(bound, pair))

    # a root with tau <= 0 is a leaf already; the wave core expands the rest,
    # whose root ids index the per-root arrays restricted to the live roots
    done = np.flatnonzero(tau <= 0.0)
    record(*emit(x[done], done))
    live = np.flatnonzero(tau > 0.0)
    lvl, scl, off, grp = (a[live] for a in (lvl, scl, off, grp))
    pruning = stop_level is not None or log_tol is not None
    for wave in _waves(mu, tau[live], x[live], rng, node_cap,
                       decide if pruning else None, settle, at_leaves):
        n_nodes += wave.tau.size
        for g, emitted in wave.found:
            record(g, emitted)

    return CollectedAtoms(group=np.concatenate(out_groups), atoms=np.concatenate(out_atoms),
                          pruned_mass=pruned, stopped=stopped, n_nodes=n_nodes)


def windowed_extremal_atoms(mu: float, t: float, centering, window: float,
                            n_reps: int, rng, prune_tol: float = 1e-9) -> CollectedAtoms:
    """All extremal atoms >= window for n_reps clouds, certified-pruned.

    Output coordinates are lambda_{mu t} X - centering.value; the raw
    collection level is the window mapped back through that affine map.
    """
    if math.isnan(window):  # a window of -inf or +inf is valid
        raise ValueError("window must not be NaN")
    lam = normalization_factor(mu, t)
    level_raw = (window + centering.value) / lam
    return collect_atoms_above(
        mu, horizons=np.full(n_reps, float(t)), x0=0.0, levels=level_raw, scales=lam,
        offsets=-centering.value, groups=np.arange(n_reps), n_groups=n_reps, rng=rng,
        prune_tol=prune_tol)


def leaves(mu: float, t: float, n_reps: int, rng):
    """(replica, position) of every leaf of n_reps full clouds run to time t.

    The leaves of `simulate_forest(mu, t, n_reps, rng)`, bit for bit and in
    its order, under its guards and node cap, without storing the tree.
    """
    _check_full_tree(mu, t)
    res = collect_atoms_above(
        mu, horizons=np.full(n_reps, float(t)), x0=0.0, levels=-np.inf, scales=1.0,
        offsets=0.0, groups=np.arange(n_reps), n_groups=n_reps, rng=rng,
        prune_tol=0.0, node_cap=_NODE_CAP)
    return res.group, res.atoms
