"""Exact simulation of branching Brownian / branching OU clouds.

Genealogy is a rate-1 binary Yule tree; motion between branch events is one
exact OU transition, so there is no time discretization anywhere.

`_waves` is the one wave core that samples this law, for `simulate_forest`
and for the windowed collector in `window.py` alike.  Its clock is each
node's remaining time tau: a node is a leaf when its exponential lifetime is
at least tau, and its children start with tau minus that lifetime.  The OU
step over a segment is `_ou_step`, shared by the wave core and by
`Forest.positions_for`, which replays a tree under another spring constant.

A Forest stores the whole tree as flat node arrays in wave (generation)
order, for the readers of the genealogy: a single cloud, which is the
one-replica Forest that `simulate_cloud` returns (`mrca_time`,
`variable_speed_view`), and the coupling of spring constants through
`Forest.positions_for`.  Monte Carlo that reads only the leaves takes them
from `window.leaves`, which stores no node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ResourceLimitError
from .gaussian import SQRT2, SpringParams, gamma_constants, normalization_factor, \
    ou_variance, sample_ou_bridge
from .measure import Centering, PointMeasure

HORIZON_CAP = 16.0
_NODE_CAP = 80_000_000


@dataclass
class Forest:
    """n_reps independent clouds in flat node arrays (wave order).

    Node i is the particle segment from its birth to its branch time (or the
    horizon).  `xi` holds the segment's standard-normal innovation so that
    positions can be re-derived for any spring constant on the same tree.
    Leaves are read through `leaf_index`, in storage order.
    """

    mu: float
    horizon_t: float
    n_reps: int
    rep: np.ndarray        # replica index per node
    parent: np.ndarray     # node index, -1 for roots
    t_end: np.ndarray      # branch time, or horizon for leaves
    duration: np.ndarray   # segment duration
    xi: np.ndarray         # innovation of the segment's OU step
    x_end: np.ndarray      # position at t_end under spring constant mu
    is_leaf: np.ndarray
    wave_edges: list = field(default_factory=list)  # [start, end) node ranges per wave

    @property
    def n_nodes(self) -> int:
        return int(self.rep.size)

    @cached_property
    def leaf_index(self) -> np.ndarray:
        # index gathers: a boolean mask as random as `is_leaf` gathers far slower
        return np.flatnonzero(self.is_leaf)

    @property
    def leaf_count(self) -> int:
        return int(self.leaf_index.size)

    @property
    def leaf_positions(self) -> np.ndarray:
        return self.x_end[self.leaf_index]

    @property
    def t_birth(self) -> np.ndarray:
        return self._at_parent(self.t_end)

    def _at_parent(self, values, nodes=slice(None)) -> np.ndarray:
        """`values` at the parent of each of `nodes`; 0 (birth time and place) at a root."""
        par = self.parent[nodes]
        return np.where(par >= 0, values[np.maximum(par, 0)], 0.0)

    def mrca_time(self, u: int, v: int) -> float:
        """Branch time of the most recent common ancestor of leaves u, v.

        Leaves are indexed in storage order; the MRCA of a leaf with itself
        is the leaf, which ends at the horizon.
        """
        ancestors = set()
        node = int(self.leaf_index[u])
        while node >= 0:
            ancestors.add(node)
            node = int(self.parent[node])
        node = int(self.leaf_index[v])
        while node not in ancestors:
            node = int(self.parent[node])
            if node < 0:
                raise ValueError(f"leaves {u} and {v} lie in different replicas")
        return float(self.t_end[node])

    def positions_for(self, mu) -> np.ndarray:
        """Leaf positions on the same tree under another spring constant.

        Re-uses each segment's innovation, so positions for different mu are
        coupled through shared randomness; mu = inf gives the i.i.d.
        N(0, horizon_t) leaves that the tree supports in that limit.
        """
        if math.isinf(mu):
            return math.sqrt(self.horizon_t) * self.xi[self.leaf_index]
        x = np.empty(self.n_nodes)
        for start, end in self.wave_edges:
            sl = slice(start, end)
            x[sl] = _ou_step(mu, self.duration[sl], self._at_parent(x, sl), self.xi[sl])
        return x[self.leaf_index]


def _decayed(mu, dur, x):
    """The OU mean x e^{-mu dur}, computed in place; x itself at mu = 0."""
    if not mu:
        return x
    out = np.multiply(dur, -mu)
    np.exp(out, out=out)
    out *= x
    return out


def _ou_step(mu, dur, x, xi):
    """The exact OU step x e^{-mu dur} + sqrt(var_mu(dur)) xi, in a new array.

    The one place a position is moved over a segment: the wave core draws
    with it, and `Forest.positions_for` replays it for another mu.
    """
    out = ou_variance(mu, dur)
    np.sqrt(out, out=out)
    out *= xi
    out += _decayed(mu, dur, x)
    return out


def _waves(mu, tau, x, rng, node_cap, expand=None):
    """Expand a batch of subtrees generation by generation.

    Root i starts at position x[i] with remaining time tau[i] > 0.  Yields
    one wave at a time: (root, tau, life, xi, leaf, dur, x_new).  The
    children of a wave's splits, in order, make up the next wave.

    Between waves a row of (tau, x, root) stands for `pair` nodes: one for a
    root, two for the children of a split, which share all three.  Before a
    wave is drawn, `expand(tau, x, root, pair)` may return a mask of the rows
    to keep, so a prune decision is taken once per sibling pair; the kept
    rows are then repeated into nodes, exactly the nodes a per-node decision
    would keep, so no output bit depends on it.
    """
    root = np.arange(tau.size, dtype=np.int64)
    pair = 1
    n = 0
    while tau.size:
        keep = np.ones(tau.size, bool) if expand is None else expand(tau, x, root, pair)
        nodes = np.repeat(np.flatnonzero(keep), pair)
        tau, x, root = tau[nodes], x[nodes], root[nodes]
        m = tau.size
        if not m:
            return
        if n + m > node_cap:
            raise ResourceLimitError(
                f"tree traversal exceeds node cap {node_cap}; a shorter horizon, "
                "a higher window or a larger prune_tol expands fewer nodes")
        life = rng.exponential(size=m)
        xi = rng.standard_normal(m)
        leaf = life >= tau
        dur = np.minimum(life, tau)  # tau on the leaves
        x_new = _ou_step(mu, dur, x, xi)
        yield root, tau, life, xi, leaf, dur, x_new
        # index gathers: a boolean mask as random as `leaf` gathers far slower
        split = np.flatnonzero(~leaf)
        n += m
        tau, x, root, pair = tau[split], x_new[split], root[split], 2
        tau -= life[split]


def _check_full_tree(mu: float, horizon_t: float) -> None:
    """The guards of a full, unpruned tree, taken before any draw.

    Raises ValueError for a bad mu or horizon_t and ResourceLimitError for a
    horizon above HORIZON_CAP; the traversal itself stops at _NODE_CAP nodes.
    """
    SpringParams(mu, horizon_t)
    if horizon_t > HORIZON_CAP:
        raise ResourceLimitError(
            f"horizon {horizon_t} exceeds cap {HORIZON_CAP}: expected leaf count "
            f"is e^t = {math.exp(horizon_t):.3g} per replica")


def simulate_forest(mu: float, horizon_t: float, n_reps: int, rng) -> Forest:
    """Draw n_reps independent clouds with one exact-law batched traversal."""
    _check_full_tree(mu, horizon_t)
    waves = []  # the seven node columns of each wave
    parent = np.full(n_reps, -1, dtype=np.int64)
    n = 0  # nodes before this wave
    for rep, tau, life, xi, leaf, dur, x_new in _waves(
            mu, np.full(n_reps, float(horizon_t)), np.zeros(n_reps), rng, _NODE_CAP):
        t_end = np.where(leaf, horizon_t, horizon_t - tau + life)
        waves.append((rep, parent, t_end, dur, xi, x_new, leaf))
        # the next wave is the two children of each split, in order
        parent = np.repeat(np.flatnonzero(~leaf) + n, 2)
        n += rep.size
    ends = np.cumsum([w[0].size for w in waves]).tolist()
    return Forest(mu, horizon_t, n_reps, *(np.concatenate(col) for col in zip(*waves)),
                  wave_edges=list(zip([0] + ends[:-1], ends)))


def simulate_cloud(spring: SpringParams, rng) -> Forest:
    """Exact-law sample of one cloud run to spring.horizon_t: a one-replica Forest."""
    return simulate_forest(spring.mu, spring.horizon_t, 1, rng)


def extremal_measure(cloud: Forest, centering: Centering) -> PointMeasure:
    """Centred, variance-normalized leaf positions as a point measure."""
    if not math.isclose(centering.t, cloud.horizon_t, rel_tol=1e-12):
        raise ValueError("centering horizon must match the cloud horizon")
    lam = normalization_factor(cloud.mu, cloud.horizon_t)
    return PointMeasure(lam * cloud.leaf_positions - centering.value)


def _brownian_leaves(cloud: Forest):
    """(replica, position) of a Brownian cloud's leaves; the martingales need mu = 0."""
    if cloud.mu != 0.0:
        raise ValueError("the additive and derivative martingales are defined for mu = 0")
    x = cloud.leaf_positions
    return np.zeros(x.size, dtype=np.int64), x


def additive_martingale(cloud: Forest, beta: float) -> float:
    """Sum of exp(beta X - (beta^2/2 + 1) t) over leaves (Brownian clouds only)."""
    return float(additive_martingale_per_rep(
        *_brownian_leaves(cloud), cloud.horizon_t, 1, beta)[0])


def derivative_martingale(cloud: Forest) -> float:
    """Sum of (sqrt(2) t - X) exp(sqrt(2) X - 2t) over leaves (mu = 0 only)."""
    return float(derivative_martingale_per_rep(
        *_brownian_leaves(cloud), cloud.horizon_t, 1)[0])


def additive_martingale_per_rep(rep, x, t: float, n_reps: int, beta: float) -> np.ndarray:
    """Per-replica additive martingale of Brownian leaves (rep, x) at time t."""
    w = np.exp(beta * x - (0.5 * beta * beta + 1.0) * t)
    return np.bincount(rep, weights=w, minlength=n_reps)


def derivative_martingale_per_rep(rep, x, t: float, n_reps: int) -> np.ndarray:
    """Per-replica derivative martingale of Brownian leaves (rep, x) at time t."""
    w = (SQRT2 * t - x) * np.exp(SQRT2 * x - 2.0 * t)
    return np.bincount(rep, weights=w, minlength=n_reps)


def variable_speed_view(cloud: Forest, gamma: float, s: float, rng) -> np.ndarray:
    """Time-changed positions Y_s of all lineages alive at time s.

    Requires the cloud to have been run with mu = gamma / t; interior times
    are filled in by exact OU bridges between stored segment endpoints, so
    Var(Y_s) = t (e^{2 gamma s/t} - 1)/(e^{2 gamma} - 1).
    """
    t = cloud.horizon_t
    if not math.isclose(cloud.mu * t, gamma, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError("cloud must satisfy mu * horizon_t = gamma")
    if not 0.0 <= s <= t:
        raise ValueError("s must lie in [0, horizon_t]")
    scale = gamma_constants(gamma).c_gamma * math.exp(gamma * s / t)
    if s == 0.0:
        return np.zeros(1)
    birth = cloud.t_birth
    idx = cloud.leaf_index if s == t else np.flatnonzero((birth < s) & (s <= cloud.t_end))
    x_birth = cloud._at_parent(cloud.x_end, idx)
    at_end = np.isclose(cloud.t_end[idx], s)
    pos = np.empty(idx.size)
    pos[at_end] = cloud.x_end[idx[at_end]]
    mid = ~at_end
    if np.any(mid):
        i = idx[mid]
        pos[mid] = sample_ou_bridge(
            x_birth[mid], cloud.x_end[i], cloud.mu,
            s - birth[i], cloud.t_end[i] - s, rng)
    return scale * pos
