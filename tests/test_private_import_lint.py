"""Modules meet through their public names: no private imports across modules.

Parses every module of the package and fails on an import of an
underscore name from another package module, relative (`from .oracle
import _x`) or absolute (`from maxminsp.oracle import _x`).  Only `tasks`
may import the projection kernels: each task hands its polytope's kernel
to the engine through `project_stack`.  Dunder names such as
`__version__` are public and stay allowed.
"""

import ast
from pathlib import Path

import maxminsp

ALLOWED = {("tasks", "projections"): {"_softmax_stack", "_chain_stack", "_sinkhorn_stack"}}


def _source_module(node: ast.ImportFrom) -> str | None:
    """The package module an import reads from ("" for the package), or None."""
    if node.level:
        return node.module or ""
    if node.module and node.module.split(".")[0] == "maxminsp":
        return node.module.partition(".")[2]
    return None


def private_imports(source: str, module: str) -> list[str]:
    """`module:line name` of every private name imported from another package module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        source_module = _source_module(node)
        if source_module is None or source_module == module:
            continue
        allowed = ALLOWED.get((module, source_module), set())
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.startswith("__") and name not in allowed:
                found.append(f"{module}:{node.lineno} {name}")
    return found


def test_no_private_imports_between_package_modules():
    package = Path(maxminsp.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        found += private_imports(path.read_text(), path.stem)
    assert found == []


def test_lint_catches_private_imports():
    src = (
        "import numpy as np\n"
        "from numpy.linalg import _umath_linalg\n"
        "from .oracle import _mirror_prox, certified_gap\n"
        "from maxminsp.projections import _softmax_stack, __version__\n"
        "from .projections import _chain_stack\n"
        "def f():\n"
        "    from . import _private\n"
    )
    assert private_imports(src, "trainer") == [
        "trainer:3 _mirror_prox",
        "trainer:4 _softmax_stack",
        "trainer:5 _chain_stack",
        "trainer:7 _private",
    ]
    assert private_imports(src, "tasks") == ["tasks:3 _mirror_prox", "tasks:7 _private"]
    assert private_imports(src, "oracle") == [
        "oracle:4 _softmax_stack",
        "oracle:5 _chain_stack",
        "oracle:7 _private",
    ]
