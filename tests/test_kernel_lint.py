"""The projection kernels and the task stack methods reduce over leading axes only.

They work on (dim, B) column stacks, so a reduction over the last axis
would run over a short, strided row of each point: numpy then pays per row
what a whole-column operation pays once.  This lint parses `projections.py`
and `tasks.py` and fails on any reduction (argmax and argmin included)
inside a linted function whose axis is missing (all axes, the last
included), negative, or not a literal.  A non-negative literal axis can
still name the last axis; in a column stack that axis holds the rows, so a
reduction over it mixes rows, which the column-against-per-column tests in
test_tasks.py catch, together with the rejection of (B, dim) row stacks.
Functions are matched by name: in `tasks.py`, the stack methods of every
task class, `loss_stack` (the engine's unchecked apply-A) among them.
Reductions are matched as attribute calls (`x.sum(axis=0)`,
`np.add.reduce(x, axis=0)`), so a kernel calls them that way, never
through a module-level alias such as `_SUM = np.add.reduce`, which the
lint would not see.
"""

import ast
from pathlib import Path

import maxminsp

KERNELS = {"_softmax_stack", "_chain_stack", "_sinkhorn_stack", "_logsumexp"}
TASK_METHODS = {"_backward", "_decode_stack", "_max_stack", "check_state", "apply_loss_matrix",
                "loss_stack"}
# arithmetic reductions and their argument forms only: any/all over
# per-column flags steer the Sinkhorn loop and reduce over the rows on purpose
REDUCTIONS = {"sum", "max", "min", "prod", "mean", "amax", "amin", "reduce", "argmax", "argmin"}


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
    axis, and the qualified names of the linted functions found; a method
    is linted when its own name is, in whichever class."""
    found, seen = [], set()
    for name, fn in _functions(ast.parse(source)):
        if fn.name not in linted:
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


def test_task_stack_methods_reduce_over_leading_axes():
    found, seen = last_axis_reductions(_source("tasks.py"), TASK_METHODS)
    assert {name.split(".")[1] for name in seen} == TASK_METHODS
    assert {name.split(".")[0] for name in seen} >= {
        "SimplexTask", "MulticlassTask", "ChainTask", "RankingTask"}
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
        "    return np.add.reduce(Q, axis=1) + np.maximum.reduce(Q, 1)\n"
        "def helper(Q):\n"
        "    return Q.sum(axis=-1)\n"
    )
    found, seen = last_axis_reductions(src, KERNELS)
    assert seen == {"_softmax_stack"}
    assert found == [f"_softmax_stack:{line}" for line in range(2, 9)]


def test_lint_catches_last_axis_reductions_in_methods():
    # matched by method name, in every class: another method of a task class
    # is not linted
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
    )
    found, seen = last_axis_reductions(src, TASK_METHODS)
    assert seen == {"ChainTask._max_stack", "ChainTask.check_state"}
    assert found == ["ChainTask._max_stack:4", "ChainTask.check_state:7"]


def test_lint_covers_every_task_class():
    # the stack methods of any class are linted, apply_loss_matrix and
    # loss_stack among them
    src = (
        "class RankingTask(Task):\n"
        "    def _max_stack(self, S):\n"
        "        return S.max(axis=-1)\n"
        "    def _assignment_value(self, V):\n"
        "        return V.sum()\n"
        "class SimplexTask(Task):\n"
        "    def apply_loss_matrix(self, mu):\n"
        "        return mu.sum(axis=-1)\n"
        "class MulticlassTask(SimplexTask):\n"
        "    def loss_stack(self, X):\n"
        "        return np.add.reduce(X, axis=-1)\n"
    )
    found, seen = last_axis_reductions(src, TASK_METHODS)
    assert seen == {"RankingTask._max_stack", "SimplexTask.apply_loss_matrix",
                    "MulticlassTask.loss_stack"}
    assert found == ["RankingTask._max_stack:3", "SimplexTask.apply_loss_matrix:8",
                     "MulticlassTask.loss_stack:11"]


def test_lint_counts_argmax_and_argmin():
    # a leading literal axis passes, a negative or missing one does not
    src = (
        "class SimplexTask(Task):\n"
        "    def _decode_stack(self, S):\n"
        "        a = np.argmax(S, axis=1)\n"
        "        b = S.argmin(-1)\n"
        "        c = np.argmax(S)\n"
        "        return np.argmax(S, axis=0) + S.argmin(0)\n"
    )
    found, seen = last_axis_reductions(src, TASK_METHODS)
    assert found == ["SimplexTask._decode_stack:4", "SimplexTask._decode_stack:5"]
