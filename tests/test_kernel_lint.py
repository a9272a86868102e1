"""The projection kernels and the task stack methods reduce over leading axes only.

They work on (dim, B) column stacks, so a reduction over the last axis
would run over a short, strided row of each point: numpy then pays per row
what a whole-column operation pays once.  This lint parses `projections.py`
and `tasks.py` and fails on any reduction inside a linted function whose
axis is missing (all axes, the last included), negative, or not a literal.
A non-negative literal axis can still name the last axis; in a column stack
that axis holds the rows, so a reduction over it mixes rows, which the
stacked-against-per-row tests catch.  Methods are matched by their
class-qualified name, `Class.method`.
"""

import ast
from pathlib import Path

import maxminsp

KERNELS = {"_softmax_stack", "_chain_stack", "_sinkhorn_stack", "_logsumexp"}
TASK_METHODS = {"ChainTask._backward", "ChainTask._decode_stack", "ChainTask._max_stack",
                "ChainTask.check_state", "SimplexTask._max_stack"}
# arithmetic reductions only: any/all over per-column flags steer the
# Sinkhorn loop and reduce over the rows on purpose
REDUCTIONS = {"sum", "max", "min", "prod", "mean", "amax", "amin", "reduce"}


def _axis(call: ast.Call):
    """The axis expression of a reduction call; None when it reduces every axis."""
    for kw in call.keywords:
        if kw.arg == "axis":
            return kw.value
    func = call.func
    # np.sum(x, axis) and ufunc.reduce(x, axis) take the array first;
    # x.sum(axis) takes the axis first; ufunc.reduce defaults to axis 0
    takes_array = func.attr == "reduce" or (isinstance(func.value, ast.Name)
                                            and func.value.id in {"np", "numpy"})
    position = 1 if takes_array else 0
    if len(call.args) > position:
        return call.args[position]
    return ast.Constant(0) if func.attr == "reduce" else None


def _leading(axis) -> bool:
    if isinstance(axis, ast.Tuple):
        return all(_leading(e) for e in axis.elts)
    return (isinstance(axis, ast.Constant) and type(axis.value) is int and axis.value >= 0)


def _functions(tree: ast.Module):
    """(qualified name, node) of each module-level function and each method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{node.name}.{fn.name}", fn


def last_axis_reductions(source: str, linted: set[str]) -> tuple[list[str], set[str]]:
    """`name:line` of every reduction in a linted function not over a leading
    axis, and the linted functions found."""
    found, seen = [], set()
    for name, fn in _functions(ast.parse(source)):
        if name not in linted:
            continue
        seen.add(name)
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in REDUCTIONS and not _leading(_axis(node))):
                found.append(f"{name}:{node.lineno}")
    return found, seen


def _source(module: str) -> str:
    return (Path(maxminsp.__file__).parent / module).read_text()


def test_kernels_reduce_over_leading_axes():
    found, seen = last_axis_reductions(_source("projections.py"), KERNELS)
    assert seen == KERNELS
    assert found == []


def test_chain_stack_methods_reduce_over_leading_axes():
    found, seen = last_axis_reductions(_source("tasks.py"), TASK_METHODS)
    assert seen == TASK_METHODS
    assert found == []


def test_lint_catches_last_axis_reductions():
    src = (
        "def _softmax_stack(P, G, eta):\n"
        "    Z = P.max(axis=-1, keepdims=True)\n"
        "    Q = np.exp(Z).sum(-1)\n"
        "    a = np.add.reduce(Q, axis=-1)\n"
        "    b = np.max(Q, -1)\n"
        "    c = Q.sum()\n"
        "    d = Q.sum(axis=(0, -1))\n"
        "    e = Q.max(axis=axis)\n"
        "    if (Q > 0).any():\n"
        "        return Q.max(axis=0) + Q.sum(axis=(0, 1)) + np.add.reduce(Q) + np.sum(Q, 0)\n"
        "def helper(Q):\n"
        "    return Q.sum(axis=-1)\n"
    )
    found, seen = last_axis_reductions(src, KERNELS)
    assert seen == {"_softmax_stack"}
    assert found == [f"_softmax_stack:{line}" for line in range(2, 9)]


def test_lint_catches_last_axis_reductions_in_methods():
    # matched by class-qualified name: a same-named method of another class,
    # or a module-level function, is not linted
    src = (
        "class ChainTask(Task):\n"
        "    def _max_stack(self, S):\n"
        "        u, _, beta = self._backward(S)\n"
        "        return (u[:, 0] + beta[:, 0]).max(axis=-1)\n"
        "    def check_state(self, mu):\n"
        "        if np.any(np.abs(mu.sum(axis=1) - 1.0) > 1e-9):\n"
        "            raise LayoutError(mu.sum())\n"
        "    def labels(self):\n"
        "        return S.max()\n"
        "class RankingTask(Task):\n"
        "    def _max_stack(self, S):\n"
        "        return S.max(axis=-1)\n"
        "def _max_stack(S):\n"
        "    return S.max()\n"
    )
    found, seen = last_axis_reductions(src, TASK_METHODS)
    assert seen == {"ChainTask._max_stack", "ChainTask.check_state"}
    assert found == ["ChainTask._max_stack:4", "ChainTask.check_state:7"]
