"""The package API that the benchmark's workloads reach still resolves.

bench/workloads.py reaches the program through module attributes
(`trainer.TrainConfig(...)`, `cli.gbcfw_train`) and replaces some of them
by name (`patched(cli, "predict", ...)`).  This test reads that file
without changing it or importing it, collects each such access on the
`maxminsp` modules it imports, and checks that the attribute exists and
accepts the keyword arguments the workloads pass.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _accesses():
    tree = ast.parse(WORKLOADS.read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "maxminsp"
        for alias in node.names
    }
    found = {}  # (module, attribute) -> keyword names passed in calls
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.setdefault((node.value.id, node.attr), set())
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in modules):
            names = {kw.arg for kw in node.keywords if kw.arg is not None}
            found.setdefault((func.value.id, func.attr), set()).update(names)
        # patched(<module>, "<attribute>", replacement)
        if (isinstance(func, ast.Name) and func.id == "patched" and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name) and node.args[0].id in modules
                and isinstance(node.args[1], ast.Constant)):
            found.setdefault((node.args[0].id, node.args[1].value), set())
    return sorted((mod, attr, sorted(kws)) for (mod, attr), kws in found.items())


ACCESSES = _accesses()


def test_workloads_reach_the_package():
    reached = {(mod, attr) for mod, attr, _ in ACCESSES}
    assert ("trainer", "TrainConfig") in reached
    assert ("calibration", "spmp_solve_batch_simplex") in reached


@pytest.mark.parametrize("module,attr,keywords", ACCESSES,
                         ids=[f"{m}.{a}" for m, a, _ in ACCESSES])
def test_workload_access_resolves(module, attr, keywords):
    mod = importlib.import_module(f"maxminsp.{module}")
    assert hasattr(mod, attr), f"maxminsp.{module} has no attribute {attr}"
    if keywords:
        params = inspect.signature(getattr(mod, attr)).parameters
        if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
            missing = set(keywords) - set(params)
            assert not missing, f"maxminsp.{module}.{attr} takes no {sorted(missing)}"
