"""Saddle-point mirror prox for the max-min oracle.

Solves  max_{mu in M} min_{nu in M}  nu^T A mu + v^T mu  by extra-gradient
mirror steps and certifies the duality gap exactly with two calls to the
task's max oracle (`certified_gap`, over one vector or a stack).  One engine, `_mirror_prox`, serves
every task and batch size: it solves a (B, dim) stack of score vectors at
once, and since both players live on the same polytope it keeps them as
one (2B, dim) stack, so each half-step is one apply-A and one projection
call.  The polytope enters only through the task: its `project_stack`,
`apply_loss_matrix`, `l_spmp` and `r2`.  `spmp_solve` is a one-vector call
into the engine, `trainer.dual_gap` certifies all examples with one call,
and `spmp_solve_batch_simplex` solves a stack on any polytope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projections import PROB_FLOOR, SinkhornConvergenceError
from .tasks import LayoutError, Task

__all__ = [
    "OracleResult",
    "spmp_solve",
    "spmp_solve_batch_simplex",
    "certified_gap",
]


@dataclass(frozen=True)
class OracleResult:
    """Averaged saddle-point iterates with a certified duality gap."""

    mu_bar: np.ndarray
    nu_bar: np.ndarray
    gap: float
    saddle_value: float
    mu_last: np.ndarray | None = None
    nu_last: np.ndarray | None = None


def certified_gap(mu: np.ndarray, nu: np.ndarray, v: np.ndarray, task: Task) -> np.ndarray:
    """Exact gaps  max_y F(nu, phi(y)) - min_y F(phi(y), mu), one per row.

    F(nu, mu) = nu^T A mu + v^T mu; each side is one max-oracle call, at
    A nu + v and at -A mu.  Loss offsets cancel.  mu, nu and v are one
    vector each or (B, k) stacks; returns B gaps.
    """
    mu, nu, v = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (mu, nu, v))
    for x in (*mu, *nu):
        task.check_state(x)
    upper = task.max_oracle(task.apply_loss_matrix(nu) + v)
    lower = np.einsum("ij,ij->i", v, mu) - task.max_oracle(-task.apply_loss_matrix(mu))
    return upper - lower


def _mirror_prox(
    V: np.ndarray,
    task: Task,
    K: int,
    eta: float | None = None,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Extra-gradient rounds on a (B, dim) stack of score vectors.

    The iterate is one (2B, dim) stack X: rows :B are the max players mu,
    rows B: the min players nu.  A round takes a half-step from X with
    the gradient at X and a full step from X with the gradient at the
    half-step point; the half-step points are averaged.  The default eta
    is 1/(2 L) for the task's smoothness constant; the projection rate is
    scaled by the entropy range so the step matches a mirror map
    normalized to strong convexity 1.  init is a (mu, nu) pair, one vector
    or B rows each, already inside the polytope.  Returns (X_bar, X_last).
    """
    if K < 1:
        raise ValueError("iteration budget must be >= 1")
    V = np.atleast_2d(np.asarray(V, dtype=float))
    # finite scores and iterates inside the polytope keep every gradient finite
    if not np.all(np.isfinite(V)):
        raise LayoutError("non-finite scores")
    B = V.shape[0]
    rate = (1.0 / (2.0 * task.l_spmp) if eta is None else eta) * task.r2
    apply_a = task.apply_loss_matrix
    proj = task.project_stack
    if init is None:
        X = np.tile(task.uniform_state(), (2 * B, 1))
    else:
        X = np.concatenate([np.broadcast_to(np.maximum(x, PROB_FLOOR), V.shape) for x in init])

    def grad(X):
        AX = apply_a(X)
        return np.concatenate([AX[B:] + V, -AX[:B]])

    X_sum = np.zeros_like(X)
    for it in range(K):
        try:
            X_half = proj(X, grad(X), rate)
            X = proj(X, grad(X_half), rate)
        except SinkhornConvergenceError as exc:
            player = "max" if exc.row < B else "min"
            raise RuntimeError(
                f"projection failed at iteration {it} ({player} player): {exc}"
            ) from exc
        X_sum += X_half
    return X_sum / K, X


def spmp_solve_batch_simplex(
    V: np.ndarray,
    task: Task,
    K: int,
    eta: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run K mirror-prox rounds on a stack of score vectors at once.

    Returns (mu_bar, nu_bar, mu_last, nu_last): the averaged half-step
    iterates followed by the final full-step iterates, each shaped like V.
    Serves every polytope; the name predates that and stays because the
    benchmark traces and patches this function.
    """
    X_bar, X = _mirror_prox(V, task, K, eta)
    B = len(X) // 2
    return X_bar[:B], X_bar[B:], X[:B], X[B:]


def spmp_solve(
    v: np.ndarray,
    task: Task,
    init: tuple[np.ndarray, np.ndarray] | None = None,
    K: int = 100,
    eta: float | None = None,
) -> OracleResult:
    """Extra-gradient saddle solver for one score vector.

    See `_mirror_prox` for the rounds and the default eta.  A warm-start
    init is floored and checked against the polytope.
    """
    v = np.asarray(v, dtype=float)
    if init is not None:
        init = tuple(np.maximum(np.asarray(x, dtype=float), PROB_FLOOR) for x in init)
        task.check_state(init[0])
        task.check_state(init[1])
    (mu_bar, nu_bar), (mu, nu) = _mirror_prox(v, task, K, eta, init)
    gap = float(certified_gap(mu_bar, nu_bar, v, task)[0])
    saddle = float(nu_bar @ task.apply_loss_matrix(mu_bar)) + float(v @ mu_bar) + task.offset
    return OracleResult(
        mu_bar=mu_bar,
        nu_bar=nu_bar,
        gap=gap,
        saddle_value=saddle,
        mu_last=mu,
        nu_last=nu,
    )

