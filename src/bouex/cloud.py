"""Exact simulation of branching Brownian / branching OU clouds.

Genealogy is a rate-1 binary Yule tree; motion between branch events is one
exact OU transition, so there is no time discretization anywhere.

`_waves` is the one wave core that samples this law, for `simulate_forest`,
`leaves` and the windowed collector in `window.py` alike; each reads the
waves it yields.  Its clock is each node's remaining time tau: a node is a
leaf when its exponential lifetime is at least tau, and its children start
with tau minus that lifetime.  The OU step over a segment is `_ou_step`,
the scale `_ou_scale` times the innovation plus the mean `_decayed`;
`Forest.positions_for` replays it under another spring constant, and the
wave core takes the same terms, the scale and the mean before the
innovation is drawn.

A wave of at least _SPLIT_ROWS rows is cut into one contiguous slice of rows
per usable core.  `_run` runs a wave's slices, or the replica chunks of a
Monte Carlo job (`checks`), at once on the calling thread and a thread pool
made on first use.  No output bit depends on the cut or on how many tasks
run at once.  The calling thread makes every random draw of a wave, of
the same sizes in the same order; every step is row-wise; the collector
adds its dropped bounds in node order and takes its atoms from each whole
wave, and its early stops take effect between waves.  Chunk j draws only
from its own stream, and the results are kept in chunk order.  A smaller
wave, every wave with one usable core and every wave of a chunk that runs
beside others (which keep every core busy already) runs on the calling
thread alone; a job of one chunk runs on the calling thread, whose large
waves are cut.

A Forest stores the whole tree as flat node arrays in wave (generation)
order, so that `Forest.positions_for` can couple spring constants on one
tree (the Slepian check); a single cloud is the one-replica Forest
`simulate_forest(mu, t, 1, rng)`.  Monte Carlo that reads only the leaves
takes them from `leaves`, which stores no node.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import accumulate

import numpy as np

from .errors import ResourceLimitError
from .gaussian import SQRT2, _check_spring, ou_variance

HORIZON_CAP = 16.0
_NODE_CAP = 80_000_000
_SPLIT_ROWS = 1 << 16  # a wave of fewer rows runs whole on the calling thread
# the usable cores: the threads that share a larger wave or a chunk job
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else \
    os.cpu_count() or 1
_CHUNK_CPU_SHARE = 0.8  # a pool thread that ran for less of its task's time takes no more


@dataclass
class Forest:
    """n_reps independent clouds in flat node arrays (wave order).

    Node i is the particle segment from its birth to its branch time (or the
    horizon).  `xi` holds the segment's standard-normal innovation so that
    positions can be re-derived for any spring constant on the same tree.
    Leaves are read through `leaf_index`, in storage order.
    """

    horizon_t: float
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
    def leaf_positions(self) -> np.ndarray:
        return self.x_end[self.leaf_index]

    def _at_parent(self, values, nodes=slice(None)) -> np.ndarray:
        """`values` at the parent of each of `nodes`; 0 (birth time and place) at a root."""
        par = self.parent[nodes]
        return np.where(par >= 0, values[np.maximum(par, 0)], 0.0)

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


def _decayed(mu, dur, x, out=None):
    """The OU mean x e^{-mu dur}, into `out` (which may be x) or a new array;
    x itself at mu = 0."""
    if not mu:
        return x
    decay = np.multiply(dur, -mu)
    np.exp(decay, out=decay)
    return np.multiply(decay, x, out=decay if out is None else out)


def _ou_scale(mu, dur, out=None):
    """The OU step's standard deviation sqrt(var_mu(dur)), into `out` or a new array."""
    var = ou_variance(mu, dur)
    return np.sqrt(var, out=var if out is None else out)


def _ou_step(mu, dur, x, xi):
    """The exact OU step x e^{-mu dur} + sqrt(var_mu(dur)) xi, in a new array."""
    out = _ou_scale(mu, dur)
    out *= xi
    out += _decayed(mu, dur, x)
    return out


@cache
def _pool(threads, pid):
    """The threads that share large waves and replica chunks with the calling
    thread, made on first use in each process: a forked child has none of
    its parent's threads."""
    return ThreadPoolExecutor(threads, thread_name_prefix="bouex-wave")


_local = threading.local()  # `chunk` is true on a thread while it runs a task of `_run`


def _in_chunk():
    """Whether the calling thread runs a task of a concurrent `_run`."""
    return getattr(_local, "chunk", False)


def _run(tasks, draw=None):
    """The results of the tasks, in order, run at once on the pool and the
    calling thread, and what `draw` returned.

    The tasks are a large wave's slices or a Monte Carlo job's replica
    chunks; each must read no state that another task writes.  The pool
    starts the tasks while the calling thread makes `draw()`, a wave's random
    draw, which releases the interpreter lock; then the calling thread joins
    them.  The tasks are handed out in order, one at a time, to at most
    _WORKERS threads.  If one raises, no further task is handed out; the
    running ones finish, and the exception of the lowest failing task is
    raised, as a loop over the tasks would raise it.  With one task or one
    usable core, or inside a task of another `_run`, the draw and then the
    tasks run in a loop on the calling thread.

    A pool thread that ran for less than _CHUNK_CPU_SHARE of the time its
    task took was mostly waiting for the interpreter lock: such tasks are
    mostly interpreter work (small arrays, a Python loop), which threads only
    slow down as they hand the lock back and forth.  It takes no more tasks,
    and the calling thread runs the rest.
    """
    workers = min(_WORKERS, len(tasks))
    if workers < 2 or _in_chunk():
        drawn = draw() if draw else None
        return [task() for task in tasks], drawn
    results = [None] * len(tasks)
    errors = {}
    lock = threading.Lock()
    handed = iter(range(len(tasks)))

    def work(pooled=True):
        _local.chunk = True
        try:
            while True:
                with lock:
                    i = None if errors else next(handed, None)
                if i is None:
                    return
                start, cpu = time.perf_counter(), time.thread_time()
                try:
                    results[i] = tasks[i]()
                except BaseException as exc:  # raised on the calling thread below
                    with lock:
                        errors[i] = exc
                if pooled and time.thread_time() - cpu < \
                        _CHUNK_CPU_SHARE * (time.perf_counter() - start):
                    return
        finally:
            _local.chunk = False

    pool = _pool(_WORKERS - 1, os.getpid())
    futures = [pool.submit(work) for _ in range(workers - 1)]
    try:
        drawn = draw() if draw else None
        work(pooled=False)
    finally:
        for f in futures:
            f.cancel()  # a worker not yet started would find no task left
        wait(futures)
    if errors:
        raise errors[min(errors)]
    return results, drawn


def _take(columns, idx, out=None):
    """Each of `columns` at idx, into the arrays `out` if given.  Mode "clip"
    leaves an index in range as it is and fills `out` in place, where the
    default mode would fill a copy of it."""
    if out is None:
        return [col[idx] for col in columns]
    return [np.take(col, idx, out=o, mode="clip") for col, o in zip(columns, out)]


def _gather(rows, kept, pair, out=None):
    """The (tau, x, root) of the nodes of the kept rows, into `out` if given:
    each row stands for `pair` nodes."""
    return _take(rows, np.repeat(kept, pair), out)


def _grow(mu, life, tau, x, out=(None, None, None)):
    """All of a node's step that its innovation does not enter.

    Returns leaf, duration and the OU step's scale, into `out` if given,
    the step's mean, computed into x, and the splitting nodes.
    """
    leaf = np.greater_equal(life, tau, out=out[0])
    dur = np.minimum(life, tau, out=out[1])  # tau on the leaves
    scale = _ou_scale(mu, dur, out=out[2])
    mean = _decayed(mu, dur, x, out=x)
    # index gathers: a boolean mask as random as `leaf` gathers far slower
    return leaf, dur, scale, mean, np.flatnonzero(~leaf)


def _move(scale, xi, mean, tau, root, life, split, out=None):
    """The OU step x_new = scale * xi + mean, computed into scale, and the
    children's (tau, x, root) rows, into `out` if given."""
    scale *= xi
    scale += mean
    children = _take((tau, scale, root), split, out)
    children[0] -= life[split]
    return children


def _empty(m, *kinds):
    """Uninitialized arrays of m items, one of each dtype in kinds."""
    return tuple(np.empty(m, kind) for kind in kinds)


_ROWS = (float, float, np.int64)  # the dtypes of tau, x and root


class _Wave:
    """One drawn wave: its node columns root, tau, life, xi, leaf, dur and
    x_new, and `children`, the (tau, x, root) rows of the next wave."""

    def __init__(self, root, tau, life, xi, leaf, dur, x_new, children):
        self.root, self.tau, self.life, self.xi = root, tau, life, xi
        self.leaf, self.dur, self.x_new = leaf, dur, x_new
        self.children = children


def _whole_wave(mu, rows, pair, rng, decide, settle, n, node_cap):
    """A wave on the calling thread alone, or None when every row is
    dropped; see `_waves`.  Empties the list `rows` once its nodes are
    gathered, so the rows die before the wave's draws are made."""
    if decide is None:
        kept = np.arange(rows[0].size)
    else:
        kept, tally = decide(*rows)
        settle([tally], pair)
    m = pair * kept.size
    if not m:
        return None
    _check_cap(n, m, node_cap)
    tau, x, root = _gather(rows, kept, pair)
    rows.clear()
    life = rng.exponential(size=m)
    leaf, dur, x_new, mean, split = _grow(mu, life, tau, x)
    xi = rng.standard_normal(m)
    children = _move(x_new, xi, mean, tau, root, life, split)
    return _Wave(root, tau, life, xi, leaf, dur, x_new, children)


def _split_wave(mu, rows, pair, rng, decide, settle, n, node_cap):
    """A wave cut into _WORKERS contiguous slices of rows, or None when
    every row is dropped; see `_waves`.

    Each step of `_whole_wave` runs on all slices at once (`_run`): the pool
    starts them while the calling thread draws.  It allocates every
    column the slices fill, so what a pool thread allocates dies within
    its step, and it empties `rows` as `_whole_wave` does.
    """
    size = rows[0].size
    cuts = [size * i // _WORKERS for i in range(_WORKERS + 1)]
    parts = [tuple(col[a:b] for col in rows) for a, b in zip(cuts, cuts[1:])]
    if decide is None:
        kept = [np.arange(part[0].size) for part in parts]
    else:
        kept, tallies = zip(*_run([partial(decide, *part) for part in parts])[0])
        settle(tallies, pair)
    ends = list(accumulate((pair * k.size for k in kept), initial=0))
    m = ends[-1]
    if not m:
        return None
    _check_cap(n, m, node_cap)
    nodes = [slice(a, b) for a, b in zip(ends, ends[1:])]
    tau, x, root, leaf, dur, x_new = _empty(m, *_ROWS, bool, float, float)
    _, life = _run([partial(_gather, part, k, pair, (tau[s], x[s], root[s]))
                    for part, k, s in zip(parts, kept, nodes)],
                   lambda: rng.exponential(size=m))
    del parts, kept
    rows.clear()
    grown, xi = _run([partial(_grow, mu, life[s], tau[s], x[s], (leaf[s], dur[s], x_new[s]))
                      for s in nodes], lambda: rng.standard_normal(m))
    splits = [g[4] for g in grown]
    del grown
    ends = list(accumulate((split.size for split in splits), initial=0))
    children = _empty(ends[-1], *_ROWS)
    _run([partial(_move, x_new[s], xi[s], x[s], tau[s], root[s], life[s], split,
                  tuple(col[a:b] for col in children))
          for s, split, a, b in zip(nodes, splits, ends, ends[1:])])
    return _Wave(root, tau, life, xi, leaf, dur, x_new, children)


def _check_cap(n, m, node_cap):
    """Raise before drawing m more nodes past n when they pass node_cap."""
    if n + m > node_cap:
        raise ResourceLimitError(
            f"tree traversal exceeds node cap {node_cap}; a shorter horizon, "
            "a higher window or a larger prune_tol expands fewer nodes")


def _waves(mu, tau, x, rng, node_cap, decide=None, settle=None):
    """Expand a batch of subtrees generation by generation.

    Root i starts at position x[i] with remaining time tau[i] > 0.  Yields
    one `_Wave` at a time, which holds its columns until the next wave is
    asked for.  The children of a wave's splits, in order, make up the next
    wave.

    Between waves a row of (tau, x, root) stands for `pair` nodes: one for a
    root, two for the children of a split, which share all three.  Before a
    wave is drawn, `decide(tau, x, root)` on a slice of rows may return the
    indices of the rows to expand and a tally of the others, and
    `settle(tallies, pair)` takes the tallies of all slices, in order.  So a
    prune decision is taken once per sibling pair, and the kept rows are
    repeated into nodes, exactly the nodes a per-node decision would keep.

    A wave of fewer than _SPLIT_ROWS rows, any wave with one usable core and
    every wave of a chunk worker (whose job already keeps every core busy)
    is one slice on the calling thread (`_whole_wave`); a larger one is cut
    into _WORKERS slices (`_split_wave`).  Every step is row-wise and the
    calling thread makes every draw, of the same sizes in the same order, so
    no output bit depends on the cut.
    """
    rows = [tau, x, np.arange(tau.size, dtype=np.int64)]
    del tau, x  # `rows` alone holds them, so a wave can let them go once gathered
    pair = 1
    n = 0
    gate = _SPLIT_ROWS if _WORKERS > 1 and not _in_chunk() else math.inf
    while rows[0].size:
        step = _split_wave if rows[0].size >= gate else _whole_wave
        wave = step(mu, rows, pair, rng, decide, settle, n, node_cap)
        if wave is None:
            return
        yield wave
        rows = list(wave.children)
        n += wave.tau.size
        wave.__dict__.clear()  # what the consumer did not keep dies here
        pair = 2


def _full_waves(mu: float, horizon_t: float, n_reps: int, rng):
    """The waves of n_reps full, unpruned clouds, their roots at 0 with
    remaining time horizon_t.

    The guards are taken before any draw: ValueError for a bad mu or
    horizon_t, and ResourceLimitError for a horizon above HORIZON_CAP; the
    traversal itself stops at _NODE_CAP nodes.
    """
    _check_spring(mu, horizon_t)
    if horizon_t > HORIZON_CAP:
        raise ResourceLimitError(
            f"horizon {horizon_t} exceeds cap {HORIZON_CAP}: expected leaf count "
            f"is e^t = {math.exp(horizon_t):.3g} per replica")
    return _waves(mu, np.full(n_reps, float(horizon_t)), np.zeros(n_reps), rng, _NODE_CAP)


def simulate_forest(mu: float, horizon_t: float, n_reps: int, rng) -> Forest:
    """Draw n_reps independent clouds with one exact-law batched traversal."""
    waves = []  # the seven node columns of each wave
    parent = np.full(n_reps, -1, dtype=np.int64)
    n = 0  # nodes before this wave
    for w in _full_waves(mu, horizon_t, n_reps, rng):
        t_end = np.where(w.leaf, horizon_t, horizon_t - w.tau + w.life)
        waves.append((w.root, parent, t_end, w.dur, w.xi, w.x_new, w.leaf))
        # the next wave is the two children of each split, in order
        parent = np.repeat(np.flatnonzero(~w.leaf) + n, 2)
        n += w.root.size
    ends = np.cumsum([w[0].size for w in waves]).tolist()
    columns = list(zip(*waves))
    del waves  # a column's pieces die once it is merged, so the tree is held once
    merged = [np.concatenate(columns.pop(0)) for _ in range(len(columns))]
    return Forest(horizon_t, *merged, wave_edges=list(zip([0] + ends[:-1], ends)))


def leaves(mu: float, t: float, n_reps: int, rng):
    """(replica, position) of every leaf of n_reps full clouds run to time t.

    The leaves of `simulate_forest(mu, t, n_reps, rng)`, bit for bit and in
    its order, under its guards and node cap, without storing the tree.
    """
    reps, xs = [], []
    for w in _full_waves(mu, t, n_reps, rng):
        leaf = np.flatnonzero(w.leaf)
        reps.append(w.root[leaf])
        xs.append(w.x_new[leaf])
    return np.concatenate(reps), np.concatenate(xs)


def additive_martingale_per_rep(rep, x, t: float, n_reps: int, beta: float) -> np.ndarray:
    """Per-replica additive martingale of Brownian leaves (rep, x) at time t."""
    w = np.exp(beta * x - (0.5 * beta * beta + 1.0) * t)
    return np.bincount(rep, weights=w, minlength=n_reps)


def derivative_martingale_per_rep(rep, x, t: float, n_reps: int) -> np.ndarray:
    """Per-replica derivative martingale of Brownian leaves (rep, x) at time t."""
    w = (SQRT2 * t - x) * np.exp(SQRT2 * x - 2.0 * t)
    return np.bincount(rep, weights=w, minlength=n_reps)
