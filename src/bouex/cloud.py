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

A wave's kept rows are cut into blocks of _BLOCK_ROWS rows (the last one
shorter), and one block task (`_step`) gathers, grows and moves a block's
nodes in one pass, so no column of a whole wave is held but the
lifetimes.  The calling thread makes every random draw of a wave: its
lifetimes in one `exponential(m)` call for its m nodes, then its
innovations as consecutive `standard_normal` pieces, one per block, which
are the bits of one draw of m (tests/test_rng.py).  `_waves` queues each
block's task once its piece is drawn.  A wave of more than one block,
outside a chunk worker and with more than one usable core, hands the
queued tasks to the pool made on first use and stays at most 2 * _WORKERS
blocks ahead of the reader; the calling thread steps any block no pool
thread has started when it is needed.  Every other wave queues none ahead,
so each block is stepped on the calling thread as it is read.  The reader
takes one block at a time, in node order, and may keep any of its
columns; what it lets go dies with the block, and `life` is a view of the
wave's lifetimes.  Before each wave, once the reader has taken the last
block of the one before, the collector decides which rows to expand, so
its early stops take effect between waves.  No output bit depends on the
block size or on the thread count: every step is row-wise, the draws have
the same sizes in the same order, and the collector adds its dropped
bounds in node order and reads its atoms off each block in turn.

`_run` runs a Monte Carlo job's replica chunks (`checks`), or a wave's
row-wise decisions, at once on the calling thread and the pool.  Chunk j
draws only from its own stream, and the results are kept in chunk order.
Every wave of a chunk that runs beside others (which keep every core busy
already) is stepped on the thread that runs the chunk; a job of one chunk
runs on the calling thread, which hands its waves' blocks to the pool.

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
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cache, cached_property, partial

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


_local = threading.local()  # `chunk` is true on a thread while it runs a task of `_run`


def _in_chunk():
    """Whether the calling thread runs a task of a concurrent `_run`."""
    return getattr(_local, "chunk", False)


def _run(tasks):
    """The results of the tasks, in order, run at once on the pool and the
    calling thread.

    The tasks are a Monte Carlo job's replica chunks, or a wave's row-wise
    decisions; each must read no state that another task writes.  They are
    handed out in order, one at a time, to at most _WORKERS threads.  If one
    raises, no further task is handed out; the running ones finish, and the
    exception of the lowest failing task is raised, as a loop over the tasks
    would raise it.  With one task or one usable core, or inside a task of
    another `_run`, the tasks run in a loop on the calling thread.

    A pool thread that ran for less than _CHUNK_CPU_SHARE of the time its
    task took was mostly waiting for the interpreter lock: such tasks are
    mostly interpreter work (small arrays, a Python loop), which threads only
    slow down as they hand the lock back and forth.  It takes no more tasks,
    and the calling thread runs the rest.
    """
    workers = min(_WORKERS, len(tasks))
    if workers < 2 or _in_chunk():
        return [task() for task in tasks]
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
        work(pooled=False)
    finally:
        for f in futures:
            f.cancel()  # a worker not yet started would find no task left
        wait(futures)
    if errors:
        raise errors[min(errors)]
    return results


def _take(columns, idx):
    """Each of `columns` at idx."""
    return [col[idx] for col in columns]


def _gather(segments, pair):
    """The (tau, x, root) of a block's nodes.  Each segment is a piece of
    rows and the kept rows of it, in row order; each row stands for `pair`
    nodes."""
    taken = [_take(rows, np.repeat(kept, pair)) for rows, kept in segments]
    return taken[0] if len(taken) == 1 else [np.concatenate(col) for col in zip(*taken)]


def _grow(mu, life, tau, x):
    """All of a node's step that its innovation does not enter.

    Returns leaf, duration and the OU step's scale, the step's mean,
    computed into x, and the splitting nodes.
    """
    leaf = np.greater_equal(life, tau)
    dur = np.minimum(life, tau)  # tau on the leaves
    scale = _ou_scale(mu, dur)
    mean = _decayed(mu, dur, x, out=x)
    # index gathers: a boolean mask as random as `leaf` gathers far slower;
    # nonzero()[0] spares np.flatnonzero's wrappers, about 1 us a wave
    return leaf, dur, scale, mean, (~leaf).nonzero()[0]


def _move(scale, xi, mean, tau, root, life, split):
    """The OU step x_new = scale * xi + mean, computed into scale, and the
    children's (tau, x, root) rows."""
    scale *= xi
    scale += mean
    children = _take((tau, scale, root), split)
    children[0] -= life[split]
    return children


class _Block:
    """One stepped block of a wave: its node columns root, tau, life, xi,
    leaf, dur and x_new, and `start`, the offset of its first node in the
    wave.  `_waves` clears it when the reader asks for the next block."""

    def __init__(self, root, tau, life, xi, leaf, dur, x_new, start):
        self.root, self.tau, self.life, self.xi = root, tau, life, xi
        self.leaf, self.dur, self.x_new = leaf, dur, x_new
        self.start = start


def _step(mu, pair, segments, life, xi, start):
    """The block task: gather the block's nodes, grow them on their
    lifetimes and move them on their innovations, in one pass.  Returns the
    `_Block` and the (tau, x, root) rows of its children."""
    tau, x, root = _gather(segments, pair)
    leaf, dur, x_new, mean, split = _grow(mu, life, tau, x)
    children = _move(x_new, xi, mean, tau, root, life, split)
    return _Block(root, tau, life, xi, leaf, dur, x_new, start), children


def _cut(pieces, kept):
    """The kept rows cut into blocks of _BLOCK_ROWS rows, the last one
    shorter: each block a list of (piece, kept rows of it) segments."""
    if len(kept) == 1 and kept[0].size <= _BLOCK_ROWS:
        return [[(pieces[0], kept[0])]]  # the usual small wave, spared the slicing
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


def _claim(queued):
    """The result of the first of the queued (future, task) pairs, which it
    removes: run on the calling thread when it has no future or no pool
    thread has started it.  While a pool thread runs it, the calling thread
    runs the next queued tasks that no pool thread has started, and keeps
    their results queued; if one of those raises, the exception is raised
    once the running task has returned."""
    future, task = queued.popleft()
    if future is None or future.cancel():
        return task()
    try:
        for i, (later, task) in enumerate(queued):
            if future.done():
                break
            if later.cancel():
                stolen = Future()
                stolen.set_result(task())
                queued[i] = (stolen, task)
    finally:
        wait([future])
    return future.result()


def _check_cap(n, m, node_cap):
    """Raise before drawing m more nodes past n when they pass node_cap."""
    if n + m > node_cap:
        raise ResourceLimitError(
            f"tree traversal exceeds node cap {node_cap}; a shorter horizon, "
            "a higher window or a larger prune_tol expands fewer nodes")


def _waves(mu, tau, x, rng, node_cap, decide=None, settle=None):
    """Expand a batch of subtrees generation by generation, one block at a
    time.

    Root i starts at position x[i] with remaining time tau[i] > 0.  Yields
    the `_Block`s of each wave in node order; the children of a wave's
    splits, in order, make up the next wave.  A block is cleared when the
    next one is asked for, so the columns the reader did not keep die then.

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
    draws the wave's lifetimes, then one piece of innovations per block,
    and queues the block's task (`_step`).  A wave of more than one block,
    outside a chunk worker and with more than one usable core, hands each
    queued task to the pool and stays at most 2 * _WORKERS blocks ahead of
    the reader; every other wave queues none ahead, and each block is
    stepped on the calling thread as it is read.  `_claim` takes the block
    the reader needs.  A reader that stops early, or a block that raises,
    cancels the queued blocks and waits for the running ones.  Every step is
    row-wise and the calling thread makes every draw, in the same order, so
    no output bit depends on the block size or the thread count.
    """
    rows = (tau, x, np.arange(tau.size, dtype=np.int64))
    del tau, x  # the pieces alone hold them, so they die once gathered
    pieces = [tuple(col[a:a + _BLOCK_ROWS] for col in rows)
              for a in range(0, rows[0].size, _BLOCK_ROWS)]
    del rows
    pair = 1
    n = 0
    pooled = _WORKERS > 1 and not _in_chunk()
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
        _check_cap(n, m, node_cap)
        blocks = _cut(pieces, kept)
        pieces = []  # the blocks alone hold the rows, so a piece dies once gathered
        del kept
        pool = _pool(_WORKERS - 1, os.getpid()) if pooled and len(blocks) > 1 else None
        ahead = 2 * _WORKERS if pool else 0
        size = pair * _BLOCK_ROWS
        life = rng.exponential(size=m)
        queued = deque()
        try:
            for k, a in enumerate(range(0, m, size)):
                b = min(a + size, m)
                task = partial(_step, mu, pair, blocks[k], life[a:b],
                               rng.standard_normal(b - a), a)
                blocks[k] = None  # the task alone holds them
                queued.append((pool.submit(task) if pool else None, task))
                del task
                while len(queued) > ahead or k == len(blocks) - 1 and queued:
                    block, rows = _claim(queued)
                    if rows[0].size:
                        pieces.append(rows)
                    yield block
                    block.__dict__.clear()  # what the reader did not keep dies here
        finally:  # the reader stopped early, or a block raised
            futures = [future for future, _ in queued if future]
            for future in futures:
                future.cancel()
            wait(futures)
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


def leaves(mu: float, t: float, n_reps: int, rng):
    """(replica, position) of every leaf of n_reps full clouds run to time t.

    The leaves of `simulate_forest(mu, t, n_reps, rng)`, bit for bit and in
    its order, under its guards and node cap, without storing the tree.
    """
    reps, xs = [], []
    for b in _full_waves(mu, t, n_reps, rng):
        leaf = np.flatnonzero(b.leaf)
        reps.append(b.root[leaf])
        xs.append(b.x_new[leaf])
    return np.concatenate(reps), np.concatenate(xs)


def additive_martingale_per_rep(rep, x, t: float, n_reps: int, beta: float) -> np.ndarray:
    """Per-replica additive martingale of Brownian leaves (rep, x) at time t."""
    w = np.exp(beta * x - (0.5 * beta * beta + 1.0) * t)
    return np.bincount(rep, weights=w, minlength=n_reps)


def derivative_martingale_per_rep(rep, x, t: float, n_reps: int) -> np.ndarray:
    """Per-replica derivative martingale of Brownian leaves (rep, x) at time t."""
    w = (SQRT2 * t - x) * np.exp(SQRT2 * x - 2.0 * t)
    return np.bincount(rep, weights=w, minlength=n_reps)
