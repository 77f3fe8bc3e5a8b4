"""Outside-in layer tracing for the bouex benchmark.

The tracer wraps public functions of each bouex layer and re-binds the
wrapper under every name in every ``bouex`` module that holds the original
function, so a call made through any import path is seen.  Each wrapped call
records a span (name, start, end, parent) and the work counts of its layer.
The Generator returned by ``rng.substream`` is wrapped in a proxy that times
every draw call and counts the variates it returns; it forwards each call
unchanged, so the draws and their order are those of an untraced run.

Nothing in the package is modified on disk; ``remove`` restores every
binding that ``install`` replaced.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter

import numpy as np

# functions wrapped as spans: (module, attribute path inside the module)
SPAN_TARGETS = [
    ("bouex.rng", "substream"),
    ("bouex.gaussian", "ou_variance"),
    ("bouex.cloud", "simulate_forest"),
    ("bouex.cloud", "Forest.positions_for"),
    # per-replica martingale sums: cloud work, not CLI formatting
    ("bouex.cloud", "additive_martingale_per_rep"),
    ("bouex.cloud", "derivative_martingale_per_rep"),
    ("bouex.window", "collect_atoms_above"),
    ("bouex.window", "windowed_extremal_atoms"),
    ("bouex.spine", "estimate_C"),
    ("bouex.spine", "estimate_C_curve"),
    ("bouex.spine", "sample_decoration"),
    ("bouex.kpp", "solve_kpp"),
    ("bouex.kpp", "estimate_C_pde"),
    ("bouex.checks", "check_first_moment"),
    ("bouex.checks", "check_many_to_one"),
    ("bouex.checks", "check_many_to_two"),
    ("bouex.checks", "check_slepian_monotonicity"),
    ("bouex.checks", "check_yule_counts"),
    ("bouex.suite", "check_dual_prefactor"),
    ("bouex.suite", "check_curve_monotone"),
    ("bouex.cli", "main"),
]

# layers whose self-time share is reported; "other" is bouex code outside
# every traced function (an op span's own time)
LAYERS = ("rng", "gaussian", "cloud", "window", "spine", "kpp", "checks", "suite",
          "cli", "other")

SMALL_CALL_ROOTS = 64

_FOREST_ARRAYS = ("rep", "parent", "t_end", "duration", "xi", "x_end", "is_leaf")


def _layer(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return head if head in LAYERS else "other"


class _TracedGenerator:
    """Forwards every Generator method, timing the call and counting draws."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        tracer = self._tracer

        def call(*args, **kwargs):
            with tracer.span("rng." + name):
                out = attr(*args, **kwargs)
            tracer.counts["rng.draws"] += int(np.size(out))
            return out

        return call


class Tracer:
    """Span and count recorder with install/remove of the layer wrappers."""

    def __init__(self):
        self._restore = []   # (owner, attribute, original)
        self.bindings = []   # "module.attribute" names that were re-bound
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self):
        self.names = []      # span name
        self.starts = []     # perf_counter at entry
        self.ends = []       # perf_counter at exit
        self.parents = []    # index of the enclosing span, -1 for a root
        self.extra = []      # per-span dict of call facts, or None
        self.counts = Counter()
        self._stack = []

    def span(self, name, extra=None):
        return _Span(self, name, extra)

    def _open(self, name, extra):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.extra.append(extra)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap every target and re-bind it in every bouex module holding it."""
        self.reset()
        for mod_name, path in SPAN_TARGETS:
            owner = sys.modules[mod_name]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            orig = getattr(owner, parts[-1])  # AttributeError if renamed
            wrapper = self._wrap(mod_name.split(".")[-1] + "." + path, orig)
            if len(parts) > 1:  # a method: re-bind on its class only
                self._rebind(owner, parts[-1], orig, wrapper, mod_name + "." + path)
                continue
            for mod in [m for n, m in sys.modules.items()
                        if n == "bouex" or n.startswith("bouex.")]:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._rebind(mod, attr, orig, wrapper, f"{mod.__name__}.{attr}")
        return self

    def _rebind(self, owner, attr, orig, wrapper, label):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))
        self.bindings.append(label)

    def remove(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []
        self.bindings = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, name, fn):
        tracer = self
        sig = inspect.signature(fn)
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = before(sig.bind(*args, **kwargs).arguments) if before else None
            with tracer.span(name, extra):
                out = fn(*args, **kwargs)
                if after:
                    after(tracer.counts, out)
            return _TracedGenerator(out, tracer) if name == "rng.substream" else out

        return wrapper

    def summary(self, observed: dict) -> dict:
        """Per-layer metrics of the spans and counts recorded since reset.

        `observed` holds counts the benchmark read from op outputs.
        """
        return _layer_metrics(self, observed)


class _Span:
    __slots__ = ("tracer", "name", "extra", "idx")

    def __init__(self, tracer, name, extra):
        self.tracer, self.name, self.extra = tracer, name, extra

    def __enter__(self):
        self.idx = self.tracer._open(self.name, self.extra)

    def __exit__(self, *exc):
        self.tracer._close(self.idx)


# -- per-call facts, taken from arguments before the call or results after ---


def _roots_before(args):
    return {"roots": int(np.size(args["horizons"]))}


def _window_after(c, res):
    c["window.nodes"] += int(res.n_nodes)
    c["window.atoms"] += int(res.atoms.size)
    c["window.pruned_mass"] += float(res.pruned_mass.sum())


def _forest_after(c, forest):
    c["cloud.nodes"] += forest.n_nodes
    c["cloud.bytes"] += sum(getattr(forest, a).nbytes for a in _FOREST_ARRAYS)


def _ou_variance_after(c, out):
    c["gaussian.elems"] += int(np.size(out))


def _estimate_C_before(args):
    return {"n": int(args["n"])}


def _decoration_after(c, out):
    c["spine.decorations"] += 1


def _kpp_before(args):
    p = args["params"]
    dt = p.dt_value
    n_u = int(round(p.t_switch / dt)) if p.ic_mode == "step" else 0
    steps = n_u + int(round((p.t_max - n_u * dt) / dt))
    grid = int(round((p.x_hi - p.x_lo) / p.dx)) + 1
    return {"steps": steps, "grid_points": grid}


_HOOKS = {
    "gaussian.ou_variance": (None, _ou_variance_after),
    "cloud.simulate_forest": (None, _forest_after),
    "window.collect_atoms_above": (_roots_before, _window_after),
    "spine.estimate_C": (_estimate_C_before, None),
    "spine.sample_decoration": (None, _decoration_after),
    "kpp.solve_kpp": (_kpp_before, None),
}


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def _layer_metrics(tr: Tracer, observed: dict) -> dict:
    """Self time per span name and layer, and the per-layer metrics.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the load is one thread.
    """
    n = len(tr.names)
    dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
    self_t = list(dur)
    for i in range(n):
        p = tr.parents[i]
        if p >= 0:
            self_t[p] -= dur[i]
    self_by, incl_by, calls_by = {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, name in enumerate(tr.names):
        self_by[name] = self_by.get(name, 0.0) + self_t[i]
        incl_by[name] = incl_by.get(name, 0.0) + dur[i]
        calls_by[name] = calls_by.get(name, 0) + 1
        layer_self[_layer(name)] += self_t[i]
    total = sum(layer_self.values())

    cnt = tr.counts
    small = [dur[i] for i in range(n) if tr.names[i] == "window.collect_atoms_above"
             and tr.extra[i]["roots"] <= SMALL_CALL_ROOTS]
    dec_attempts = sum(1 for i in range(n) if tr.names[i] == "window.collect_atoms_above"
                       and tr.parents[i] >= 0
                       and tr.names[tr.parents[i]] == "spine.sample_decoration")
    kpp = [tr.extra[i] for i in range(n) if tr.names[i] == "kpp.solve_kpp"]
    kpp_steps = sum(e["steps"] for e in kpp)
    kpp_grid = max((e["grid_points"] for e in kpp), default=0)
    rng_self = sum(v for k, v in self_by.items() if k.startswith("rng."))
    win_nodes = cnt["window.nodes"]
    cloud_nodes = cnt["cloud.nodes"]
    cli_bytes = observed.get("cli.bytes_written", 0)

    m = {
        "rng.draws": cnt["rng.draws"],
        "rng.self_s": rng_self,
        "rng.ns_per_draw": _ratio(rng_self, cnt["rng.draws"], 1e9),
        "gaussian.ou_variance.calls": calls_by.get("gaussian.ou_variance", 0),
        "gaussian.ou_variance.elems_per_node": _ratio(cnt["gaussian.elems"],
                                                      win_nodes + cloud_nodes),
        "gaussian.ou_variance.self_s": self_by.get("gaussian.ou_variance", 0.0),
        "cloud.simulate_forest.calls": calls_by.get("cloud.simulate_forest", 0),
        "cloud.simulate_forest.nodes": cloud_nodes,
        "cloud.simulate_forest.self_s": self_by.get("cloud.simulate_forest", 0.0),
        # inclusive time per node: the kernel's cost model unit
        "cloud.simulate_forest.ns_per_node": _ratio(
            incl_by.get("cloud.simulate_forest", 0.0), cloud_nodes, 1e9),
        "cloud.simulate_forest.bytes": cnt["cloud.bytes"],
        "cloud.Forest.positions_for.self_s": self_by.get("cloud.Forest.positions_for", 0.0),
        "window.collect_atoms_above.calls": calls_by.get("window.collect_atoms_above", 0),
        "window.collect_atoms_above.nodes": win_nodes,
        "window.collect_atoms_above.atoms": cnt["window.atoms"],
        "window.collect_atoms_above.atoms_per_node": _ratio(cnt["window.atoms"],
                                                            win_nodes),
        "window.collect_atoms_above.pruned_mass": cnt["window.pruned_mass"],
        "window.collect_atoms_above.self_s": self_by.get("window.collect_atoms_above", 0.0),
        "window.collect_atoms_above.ns_per_node": _ratio(
            incl_by.get("window.collect_atoms_above", 0.0), win_nodes, 1e9),
        "window.collect_atoms_above.small_call_us":
            statistics.median(small) * 1e6 if small else 0.0,
        "window.empty_max": observed.get("window.empty_max", 0),
        "spine.estimate_C.self_s": self_by.get("spine.estimate_C", 0.0),
        "spine.estimate_C.realizations": sum(
            tr.extra[i]["n"] for i in range(n) if tr.names[i] == "spine.estimate_C"),
        "spine.estimate_C_curve.self_s": self_by.get("spine.estimate_C_curve", 0.0),
        "spine.sample_decoration.attempts": dec_attempts,
        "spine.sample_decoration.accept_ratio": _ratio(cnt["spine.decorations"],
                                                       dec_attempts),
        "spine.sample_decoration.self_s": self_by.get("spine.sample_decoration", 0.0),
        "kpp.solve_kpp.self_s": self_by.get("kpp.solve_kpp", 0.0),
        "kpp.solve_kpp.steps": kpp_steps,
        "kpp.solve_kpp.grid_points": kpp_grid,
        "kpp.solve_kpp.us_per_step": _ratio(incl_by.get("kpp.solve_kpp", 0.0),
                                            kpp_steps, 1e6),
        # computed, not measured: the 4-row band matrix plus the right-hand
        # side and the solution vector, 8 bytes per grid point each
        "kpp.solve_kpp.bytes_per_step": 6 * 8 * kpp_grid,
        "kpp.estimate_C_pde.self_s": self_by.get("kpp.estimate_C_pde", 0.0),
        "checks.failed": observed.get("checks.failed", 0),
        "cli.main.self_s": self_by.get("cli.main", 0.0),
        "cli.bytes_written": cli_bytes,
        "cli.ns_per_byte": _ratio(self_by.get("cli.main", 0.0), cli_bytes, 1e9),
    }
    for name in CHECK_SPANS:
        m[name + ".self_s"] = self_by.get(name, 0.0)
    for layer in LAYERS:
        m[layer + ".self_share"] = _ratio(layer_self[layer], total)
    return m


CHECK_SPANS = [f"{mod.split('.')[-1]}.{path}" for mod, path in SPAN_TARGETS
               if mod in ("bouex.checks", "bouex.suite")]


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.startswith("ns_per"):
        return "ns"
    if last.startswith("us_per") or last.endswith("_us"):
        return "us"
    if "bytes" in last:
        return "bytes"
    if last in ("self_share", "overhead_frac", "cpu_util", "accept_ratio",
                "atoms_per_node", "elems_per_node"):
        return "ratio"
    return "count"
