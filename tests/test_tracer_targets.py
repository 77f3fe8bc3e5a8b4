"""The benchmark tracer's targets and the workloads' calls still resolve on bouex.

`perfbench/tracer.py` re-binds bouex functions by name, reads Forest arrays
by name and reads call arguments by name; a rename in bouex breaks
`perfbench/run.py --trace 1`.  `perfbench/workloads.py` calls bouex through
module attributes, so a signature change breaks the benchmark itself.  These
checks read the tracer's tables and the workloads' source without running
the benchmark.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import re

import numpy as np
import pytest

from bouex import spine, window
from bouex.cloud import simulate_forest
from bouex.gaussian import SQRT2
from bouex.measure import Centering
from bouex.rng import substream

_PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
_TRACER = _PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod_name, path):
    owner = importlib.import_module(mod_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_span_target_resolves(tracer):
    for mod_name, path in tracer.SPAN_TARGETS:
        assert callable(_resolve(mod_name, path)), f"{mod_name}.{path}"


def test_forest_has_every_traced_array(tracer):
    f = simulate_forest(1.0, 2.0, 4, substream(0, 0))
    for name in tracer._FOREST_ARRAYS:
        assert getattr(f, name).shape == (f.n_nodes,), name


def test_hook_arguments_are_in_the_signatures(tracer):
    targets = {mod.split(".")[-1] + "." + path: (mod, path)
               for mod, path in tracer.SPAN_TARGETS}
    read = 0
    for span, (before, _) in tracer._HOOKS.items():
        if before is None:
            continue
        params = inspect.signature(_resolve(*targets[span])).parameters
        for arg in re.findall(r'args\["(\w+)"\]', inspect.getsource(before)):
            assert arg in params, f"{span} has no argument {arg!r}"
            read += 1
    assert read >= 3  # horizons, n and params


def test_roots_are_counted_by_horizons(tracer, monkeypatch):
    # the tracer counts a collector call's roots by np.size(horizons); scalar
    # horizons would count one root per call and silently empty small_call_us
    collect = window.collect_atoms_above
    signature = inspect.signature(collect)
    seen = []

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        seen.append((tracer._roots_before(bound)["roots"], np.size(bound["groups"])))
        return collect(*args, **kwargs)

    monkeypatch.setattr(window, "collect_atoms_above", recording)
    monkeypatch.setattr(spine, "collect_atoms_above", recording)
    window.windowed_extremal_atoms(1.0, 2.0, Centering("bou_tilde", 2.0), 0.0, 5,
                                   substream(1, 0))
    spine._spine_atoms(1, 3.0, SQRT2 * 1.5, -2.0, substream(3, 0), 1e-9)
    branches = spine._draw_branches(1, 3.0, substream(3, 0))[0].size
    assert branches > 1
    assert seen == [(5, 5), (branches, branches)]


def test_workload_calls_bind_to_the_signatures():
    # every `checks.f(...)`, `suite.f(...)`, `spine.f(...)` and `window.f(...)`
    # call in the workloads must bind: same positional count, same keywords
    tree = ast.parse((_PERFBENCH / "workloads.py").read_text())
    bound = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("checks", "suite", "spine", "window")):
            continue
        call = f"{node.func.value.id}.{node.func.attr}"
        assert not any(isinstance(a, ast.Starred) for a in node.args), call
        assert all(k.arg is not None for k in node.keywords), call
        fn = _resolve("bouex." + node.func.value.id, node.func.attr)
        inspect.signature(fn).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        bound.add(call)
    assert {"checks.check_first_moment", "suite.check_dual_prefactor",
            "suite.check_curve_monotone", "spine.estimate_C",
            "window.windowed_extremal_atoms"} <= bound
