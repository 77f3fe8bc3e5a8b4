"""Exact simulation of branching Brownian / branching OU clouds.

Genealogy is a rate-1 binary Yule tree; motion between branch events is one
exact OU transition, so there is no time discretization anywhere.

`_waves` is the one wave core that samples this law, for `simulate_forest`,
`leaf_blocks` and the windowed collector in `window.py` alike; each reads the
waves it yields.  Its clock is each node's remaining time tau: a node is a
leaf when its exponential lifetime is at least tau, and its children start
with tau minus that lifetime.  The OU step over a segment is `_ou_step`,
the scale `_ou_scale` times the innovation plus the mean `_decayed`; the
wave core's block task `_step` moves every node with it, and
`Forest.positions_for` replays it under another spring constant.

A wave's kept rows are cut into blocks of _BLOCK_ROWS rows (the last one
shorter), and one block task (`_step`) gathers and moves a block's nodes
in one pass, so no column of a whole wave is held but the lifetimes.  The
calling thread makes every random draw of a wave: its lifetimes in one
`exponential(m)` call for its m nodes, then its innovations as
consecutive `standard_normal` pieces, one per block, which are the bits
of one draw of m (tests/test_rng.py).  The reader takes one block at a
time, in node order, and may keep any of its columns; what it lets go
dies with the block, and `life` is a view of the wave's lifetimes.
Before each wave, once the reader has taken the last block of the one
before, the collector decides which rows to expand, so its early stops
take effect between waves.  No output bit depends on the block size
or on the thread count: every step is row-wise, the draws have the same
sizes in the same order, and the collector adds its dropped bounds in node
order and reads its atoms off each block in turn.

`_ordered` is the one runner of tasks on the pool and the calling thread:
a wave's block tasks, a Monte Carlo job's replica chunks (`checks`) and a
wave's row-wise decisions.  It takes the tasks on the calling thread, so
each block's draw is made there and in order, hands the pool at most
`ahead` tasks past the one the reader needs, and yields the results in
task order; a task no pool thread has started when it is needed runs on
the calling thread.  A wave of more than one block stays at most
2 * _WORKERS blocks ahead of the reader; `_run` hands out a job's tasks
all at once.  Chunk j draws only from its own stream.  Every wave of a
chunk that runs beside others (which keep every core busy already) is
stepped on the thread that runs the chunk; a job of one chunk runs on the
calling thread, which hands its waves' blocks to the pool.

A Forest stores the whole tree as flat node arrays in wave (generation)
order, so that `Forest.positions_for` can couple spring constants on one
tree (the Slepian check); a single cloud is the one-replica Forest
`simulate_forest(mu, t, 1, rng)`.  Monte Carlo that reads only the leaves
takes them block by block from `leaf_blocks`, which stores no node.  A
per-replica sum over them (a martingale, a leaf count, sum_u f(X_t(u)))
adds each block into an n_reps accumulator with np.add.at, in the order
that one np.bincount over all the leaves adds them, so it has that
bincount's bits and holds no leaf array of a whole cloud.  `leaves` joins
the blocks for the readers that need every leaf at once.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import closing
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from types import SimpleNamespace

import numpy as np

from .errors import ResourceLimitError
from .gaussian import SQRT2, _check_spring, ou_variance

HORIZON_CAP = 16.0
_NODE_CAP = 80_000_000
_BLOCK_ROWS = 1 << 15  # kept rows per block; see `_waves`
# the usable cores: the threads that share a wave's blocks or a chunk job
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

    def _at_parent(self, values, nodes) -> np.ndarray:
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


def _decayed(mu, dur, x):
    """The OU mean x e^{-mu dur} in a new array; x itself at mu = 0."""
    if not mu:
        return x
    decay = np.multiply(dur, -mu)
    np.exp(decay, out=decay)
    return np.multiply(decay, x, out=decay)


def _ou_scale(mu, dur):
    """The OU step's standard deviation sqrt(var_mu(dur)) in a new array;
    sqrt(dur) at mu = 0, where the variance is dur itself."""
    if not mu:
        return np.sqrt(dur)
    var = ou_variance(mu, dur)
    return np.sqrt(var, out=var)


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


_local = threading.local()  # `chunk` is true on a thread while it runs a job's task


def _in_chunk():
    """Whether the calling thread runs a task of a job that `_ordered` runs
    beside others (a replica chunk or a wave's row-wise decision)."""
    return getattr(_local, "chunk", False)


def _ordered(tasks, ahead, job=False):
    """The results of the tasks, in task order, run on the pool and the
    calling thread.

    The tasks are taken from the iterable on the calling thread, so a draw
    that makes one stays there and in order; each task must read no state
    that another task writes.  At most `ahead` tasks past the one the
    reader waits for are handed to the pool.  The calling thread runs the
    task it needs when no pool thread has started it, and while a pool
    thread runs it, runs the next tasks that no pool thread has started.
    So the tasks start in order.  Once a task raises, no further task
    starts; the running ones finish, and the lowest failing task's
    exception is raised, as a loop over the tasks would raise it.  A reader
    that stops early (closing the generator) cancels the queued tasks and
    waits for the running ones.  With `ahead` below 1, one usable core, or
    inside a task of a job, the tasks run in a loop on the calling thread.

    A job (`job=True`: a Monte Carlo job's replica chunks, or a wave's
    row-wise decisions) runs each task with the thread's chunk flag set
    (`_in_chunk`).  A pool thread that ran a job's task for less than
    _CHUNK_CPU_SHARE of the time it took was mostly waiting for the
    interpreter lock: such tasks are mostly interpreter work (small arrays,
    a Python loop), which threads only slow down as they hand the lock back
    and forth.  Then no pool thread starts another task of the job, and the
    calling thread runs the rest.
    """
    if ahead < 1 or _WORKERS < 2 or _in_chunk():
        for task in tasks:
            yield task()
        return
    pool = _pool(_WORKERS - 1, os.getpid())
    stops = []  # no pool thread starts a task past one of these indices
    queued = deque()  # (index, future, task) of each task handed out and not yet read

    def run(i, task, pooled=True):
        if pooled and i > min(stops, default=i):
            return task  # not started: the reader runs it
        _local.chunk = job
        start, cpu = time.perf_counter(), time.thread_time()
        try:
            return task()
        except BaseException:
            stops.append(i)
            raise
        finally:
            _local.chunk = False
            if pooled and job and time.thread_time() - cpu < \
                    _CHUNK_CPU_SHARE * (time.perf_counter() - start):
                stops.append(-1)

    def claim():
        i, future, task = queued.popleft()
        if future.cancel():
            return run(i, task, pooled=False)
        for k, (j, later, stolen) in enumerate(queued):  # steal while the pool runs task i
            if future.done() or j > min(stops, default=j):
                break
            if later.cancel():
                done = Future()
                try:
                    done.set_result(run(j, stolen, pooled=False))
                except BaseException as exc:  # raised when the reader reaches it
                    done.set_exception(exc)
                queued[k] = (j, done, stolen)
        out = future.result()
        return run(i, task, pooled=False) if out is task else out

    try:
        for i, task in enumerate(tasks):
            queued.append((i, pool.submit(run, i, task), task))
            del task  # the queue alone holds it
            while len(queued) > ahead:
                yield claim()
        while queued:
            yield claim()
    finally:  # the reader stopped early, or a task raised
        futures = [future for _, future, _ in queued]
        for future in futures:
            future.cancel()
        wait(futures)


def _run(tasks):
    """The results of a job's tasks, in order, all handed out at once (`_ordered`)."""
    return list(_ordered(tasks, len(tasks) - 1, job=True))


def _step(mu, pair, segments, life, xi, start):
    """The block task: gather the block's nodes and move each on its
    lifetime and innovation with the one OU step, `_ou_step`.

    Each segment is a piece of (tau, x, root) rows and the kept rows of it,
    in row order; each row stands for `pair` nodes.  Returns the block, a
    namespace of its node columns root, tau, life, xi, leaf, dur and x_new
    and `start`, the offset of its first node in the wave, and the (tau, x,
    root) rows of its children.
    """
    idx = [np.repeat(kept, pair) for _, kept in segments]  # once per segment, not per column
    taken = [[col[i] for col in rows] for (rows, _), i in zip(segments, idx)]
    tau, x, root = taken[0] if len(taken) == 1 else map(np.concatenate, zip(*taken))
    leaf = np.greater_equal(life, tau)
    dur = np.minimum(life, tau)  # tau on the leaves
    x_new = _ou_step(mu, dur, x, xi)
    # index gathers: a boolean mask as random as `leaf` gathers far slower;
    # nonzero()[0] spares np.flatnonzero's wrappers, about 1 us a wave
    split = (~leaf).nonzero()[0]
    children = [tau[split], x_new[split], root[split]]
    children[0] -= life[split]
    return SimpleNamespace(root=root, tau=tau, life=life, xi=xi, leaf=leaf, dur=dur,
                           x_new=x_new, start=start), children


def _cut(pieces, kept):
    """The kept rows cut into blocks of _BLOCK_ROWS rows, the last one
    shorter: each block a list of (piece, kept rows of it) segments."""
    blocks, segments, room = [], [], _BLOCK_ROWS
    for piece, rows in zip(pieces, kept):
        while rows.size:
            segments.append((piece, rows[:room]))
            room -= segments[-1][1].size
            rows = rows[segments[-1][1].size:]
            if not room:
                blocks.append(segments)
                segments, room = [], _BLOCK_ROWS
    if segments:
        blocks.append(segments)
    return blocks


def _waves(mu, tau, x, rng, node_cap, decide=None, settle=None):
    """Expand a batch of subtrees generation by generation, one block at a
    time.

    Root i starts at position x[i] with remaining time tau[i] > 0.  Yields
    the blocks of each wave (`_step`) in node order; the children of a
    wave's splits, in order, make up the next wave.  A block is cleared when
    the next one is asked for, so the columns the reader did not keep die
    then.

    Between waves a row of (tau, x, root) stands for `pair` nodes: one for a
    root, two for the children of a split, which share all three.  At the
    start of a wave, once the reader has taken the last block of the one
    before, `decide(tau, x, root)` on each piece of rows may return the
    indices of the rows to expand and a tally of the others, and
    `settle(tallies, pair)` takes the tallies of all pieces, in order.  So a
    prune decision is taken once per sibling pair, and the kept rows are
    repeated into nodes, exactly the nodes a per-node decision would keep.
    The pieces are the roots cut into _BLOCK_ROWS rows, then the children
    of each block.

    The kept rows are cut into blocks of _BLOCK_ROWS rows (`_cut`), so every
    block but the last has pair * _BLOCK_ROWS nodes.  The calling thread
    draws the wave's lifetimes, then one piece of innovations per block as
    `_ordered` takes the block's task (`_step`).  A wave of more than one
    block stays at most 2 * _WORKERS blocks ahead of the reader, and
    `_ordered` runs it on the pool unless one core is usable or a chunk
    runs the wave; every other wave is stepped on the calling thread as it
    is read.  A reader that stops early closes the runner, which cancels the
    queued blocks and waits for the running ones; a block that raises does
    the same, and the lowest failing block's error is raised.  Every step
    is row-wise and the calling thread makes every draw, in the same order,
    so no output bit depends on the block size or the thread count.
    """
    rows = (tau, x, np.arange(tau.size, dtype=np.int64))
    del tau, x  # the pieces alone hold them, so they die once gathered
    pieces = [tuple(col[a:a + _BLOCK_ROWS] for col in rows)
              for a in range(0, rows[0].size, _BLOCK_ROWS)]
    del rows
    pair = 1
    n = 0
    while pieces:
        if decide is None:
            kept = [np.arange(piece[0].size) for piece in pieces]
        else:
            kept, tallies = zip(*_run([partial(decide, *piece) for piece in pieces]))
            settle(tallies, pair)
            del tallies
        m = pair * sum(map(len, kept))
        if not m:
            return
        if n + m > node_cap:  # raised before the wave's draws
            raise ResourceLimitError(
                f"tree traversal exceeds node cap {node_cap}; a shorter horizon, "
                "a higher window or a larger prune_tol expands fewer nodes")
        blocks = deque(_cut(pieces, kept))  # each task takes its block's rows off it
        pieces = []  # the blocks alone hold the rows, so a piece dies once gathered
        del kept
        ahead = 2 * _WORKERS if len(blocks) > 1 else 0
        size = pair * _BLOCK_ROWS
        life = rng.exponential(size=m)
        tasks = (partial(_step, mu, pair, blocks.popleft(), life[a:a + size],
                         rng.standard_normal(min(size, m - a)), a) for a in range(0, m, size))
        with closing(_ordered(tasks, ahead)) as stepped:
            for block, rows in stepped:
                if rows[0].size:
                    pieces.append(rows)
                yield block
                block.__dict__.clear()  # what the reader did not keep dies here
        n += m
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
    # the pieces of the seven node columns, one per block; the parents of a
    # block's children are its splits, which the next wave holds in order
    columns = ([], [np.full(n_reps, -1, dtype=np.int64)], [], [], [], [], [])
    starts = []  # the first node of each wave
    n = 0  # nodes before this block
    for b in _full_waves(mu, horizon_t, n_reps, rng):
        if not b.start:
            starts.append(n)
        t_end = np.where(b.leaf, horizon_t, horizon_t - b.tau + b.life)
        split = np.repeat(np.flatnonzero(~b.leaf) + n, 2)
        for col, piece in zip(columns, (b.root, split, t_end, b.dur, b.xi, b.x_new, b.leaf)):
            col.append(piece)
        n += b.root.size
    columns = list(columns)  # a column's pieces die once it is merged, so the tree is held once
    merged = [np.concatenate(columns.pop(0)) for _ in range(len(columns))]
    return Forest(horizon_t, *merged, wave_edges=list(zip(starts, starts[1:] + [n])))


def leaf_blocks(mu: float, t: float, n_reps: int, rng):
    """(replica, position) of the leaves of n_reps full clouds run to time t,
    one pair of arrays per block of the wave core, in node order.

    Their concatenation is `leaves`.  The guards of `simulate_forest` are
    taken on the call, before any draw.  A per-replica sum over the leaves
    adds each block into an n_reps accumulator with np.add.at, which adds
    in index order as np.bincount does, so it has the bits of one bincount
    over all the leaves while it holds no more than a block of them.
    """
    return map(_block_leaves, _full_waves(mu, t, n_reps, rng))


def _block_leaves(b):
    """(replica, position) of the leaves of one block of `_waves`."""
    leaf = np.flatnonzero(b.leaf)
    return b.root[leaf], b.x_new[leaf]


def leaves(mu: float, t: float, n_reps: int, rng):
    """(replica, position) of every leaf of n_reps full clouds run to time t.

    The leaves of `simulate_forest(mu, t, n_reps, rng)`, bit for bit and in
    its order, under its guards and node cap, without storing the tree: the
    blocks of `leaf_blocks`, joined.  A per-replica sum reads the blocks
    instead, and holds no leaf array of a whole cloud.
    """
    reps, xs = zip(*leaf_blocks(mu, t, n_reps, rng))
    return np.concatenate(reps), np.concatenate(xs)


def _add_per_rep(out, rep, weights, n_reps):
    """`out`, fresh zeros of n_reps when None, plus the weights summed per
    replica, in index order (`leaf_blocks`)."""
    if out is None:
        out = np.zeros(n_reps)
    np.add.at(out, rep, weights)
    return out


def additive_martingale_per_rep(rep, x, t: float, n_reps: int, beta: float,
                                out=None) -> np.ndarray:
    """Per-replica additive martingale of Brownian leaves (rep, x) at time t.

    The leaves' terms are added into `out` (fresh zeros by default), which
    is returned, so the sum may be taken one block of `leaf_blocks` at a time.
    """
    w = np.exp(beta * x - (0.5 * beta * beta + 1.0) * t)
    return _add_per_rep(out, rep, w, n_reps)


def derivative_martingale_per_rep(rep, x, t: float, n_reps: int, out=None) -> np.ndarray:
    """Per-replica derivative martingale of Brownian leaves (rep, x) at time t,
    added into `out` as `additive_martingale_per_rep` adds."""
    w = (SQRT2 * t - x) * np.exp(SQRT2 * x - 2.0 * t)
    return _add_per_rep(out, rep, w, n_reps)
