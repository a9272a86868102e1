"""Every function a per-layer benchmark metric names exists in the package.

Per-layer metrics in BENCHMARK.json are named `<layer>.<function>[.<role>].<field>`;
the benchmark traces `maxminsp.<layer>.<function>` and refuses to run when
the package lacks it.  This test reads the file without changing it.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _traced_names():
    spec = json.loads(BENCHMARK.read_text())
    names = set()
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) >= 3:  # trace_overhead_s names no function
            names.add((parts[0], parts[1]))
    return sorted(names)


def _resolves(layer: str, function: str) -> bool:
    module = importlib.import_module(f"maxminsp.{layer}")
    if callable(vars(module).get(function)):
        return True
    # a method, defined on a class of the layer's own module
    return any(
        isinstance(cls, type) and cls.__module__ == module.__name__
        and callable(vars(cls).get(function))
        for cls in vars(module).values()
    )


TRACED = _traced_names()


def test_benchmark_lists_traced_functions():
    assert TRACED, "BENCHMARK.json names no traced function"


@pytest.mark.parametrize("layer,function", TRACED, ids=[f"{l}.{f}" for l, f in TRACED])
def test_benchmarked_function_exists(layer, function):
    assert _resolves(layer, function), f"maxminsp.{layer} has no function {function}"
