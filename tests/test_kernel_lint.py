"""The projection kernels reduce over leading axes only.

The kernels work on (dim, B) column stacks, so a reduction over the last
axis would run over a short, strided row of each point: numpy then pays
per row what a whole-column operation pays once.  This lint parses
`projections.py` and fails on any reduction inside a kernel whose axis is
missing (all axes, the last included), negative, or not a literal.  A
non-negative literal axis can still name the last axis; in a column stack
that axis holds the rows, so a reduction over it mixes rows, which the
stacked-against-per-row tests catch.
"""

import ast
from pathlib import Path

import maxminsp

KERNELS = {"_softmax_stack", "_chain_stack", "_sinkhorn_stack", "_logsumexp"}
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


def last_axis_reductions(source: str) -> tuple[list[str], set[str]]:
    """`function:line` of every reduction in a kernel not over a leading axis,
    and the kernels found."""
    found, seen = [], set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef) or fn.name not in KERNELS:
            continue
        seen.add(fn.name)
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in REDUCTIONS and not _leading(_axis(node))):
                found.append(f"{fn.name}:{node.lineno}")
    return found, seen


def test_kernels_reduce_over_leading_axes():
    source = (Path(maxminsp.__file__).parent / "projections.py").read_text()
    found, seen = last_axis_reductions(source)
    assert seen == KERNELS
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
    found, seen = last_axis_reductions(src)
    assert seen == {"_softmax_stack"}
    assert found == [f"_softmax_stack:{line}" for line in range(2, 9)]
