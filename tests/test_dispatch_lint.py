"""Tasks own their behaviour: no module dispatches on the task class.

Parses every module of the package and fails on an `isinstance` call
whose class argument names a task class.  Only `calibration.constant_c`
may do so: its closed forms are facts of calibration theory about
particular losses, not polytope behaviour.  Label checks such as
`isinstance(y, (int, np.integer))` are not dispatch and stay allowed.
"""

import ast
from pathlib import Path

import maxminsp

TASK_CLASSES = {"Task", "SimplexTask", "MulticlassTask", "OrdinalTask", "ChainTask", "RankingTask"}
ALLOWED = {("calibration", "constant_c")}


def _class_names(node: ast.expr) -> set[str]:
    if isinstance(node, ast.Tuple):
        return set().union(*(_class_names(e) for e in node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def task_dispatches(source: str, module: str) -> list[str]:
    """`module.function:line` of every isinstance call on a task class."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name if function is None else function
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and _class_names(node.args[1]) & TASK_CLASSES
                and (module, function) not in ALLOWED):
            found.append(f"{module}.{function}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_no_task_class_dispatch_outside_constant_c():
    package = Path(maxminsp.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        found += task_dispatches(path.read_text(), path.stem)
    assert found == []


def test_lint_catches_dispatch():
    src = (
        "def f(task, y):\n"
        "    ok = isinstance(y, (int, np.integer))\n"
        "    return isinstance(task, (tasks.ChainTask, int))\n"
        "def constant_c(task):\n"
        "    return isinstance(task, MulticlassTask)\n"
    )
    assert task_dispatches(src, "oracle") == ["oracle.f:3", "oracle.constant_c:5"]
    assert task_dispatches(src, "calibration") == ["calibration.f:3"]
