"""The benchmark tracer's targets still resolve on bouex.

`perfbench/tracer.py` re-binds bouex functions by name, reads Forest arrays
by name and reads call arguments by name; a rename in bouex breaks
`perfbench/run.py --trace 1`.  These checks read the tracer's tables without
running the benchmark.
"""

import importlib
import importlib.util
import inspect
import pathlib
import re

import numpy as np
import pytest

from bouex.cloud import simulate_forest
from bouex.rng import substream

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
