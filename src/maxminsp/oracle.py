"""Saddle-point mirror prox for the max-min oracle.

Solves  max_{mu in M} min_{nu in M}  nu^T A mu + v^T mu  by extra-gradient
mirror steps and certifies the duality gap exactly with one call each to
the task's max oracle and Bayes term (`certified_gap`, over one vector or
a stack).  One engine, `spmp_solve_batch_simplex`, serves every task and
batch size, and every caller enters through it: it solves a (B, dim) stack
of score vectors at once, and since both players live on the same polytope it keeps
them as one C-contiguous (dim, 2B) column stack, so each half-step is one
apply-A and one projection call, and the projection kernels reduce over
leading axes.  The projections pass log-iterates on, so the engine takes
one log per call.  It transposes the scores once on entry and splits its
results, in probabilities, into (B, dim) player stacks on return, so the
column stack never leaves it.  The polytope enters only through the task: its
`project_stack`, `apply_loss_matrix`, `check_state`, `l_spmp` and `r2`.
`spmp_solve` is one engine call on one vector plus its certificate.  The
trainer calls the engine itself, once per block update, and certifies a
whole training afterwards: `trainer.dual_gap` makes one engine call over
every example of every pass, and `certified_gap` is called once on all
block updates' iterates.
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
    mu_last: np.ndarray
    nu_last: np.ndarray


def certified_gap(mu: np.ndarray, nu: np.ndarray, v: np.ndarray, task: Task) -> np.ndarray:
    """Exact gaps  max_y F(nu, phi(y)) - min_y F(phi(y), mu), one per row.

    F(nu, mu) = nu^T A mu + v^T mu; the upper side is one max-oracle call
    at A nu + v, the lower side v^T mu plus the task's centred Bayes term
    `bayes_risk(mu)`.  Loss offsets cancel.  mu, nu and v are one vector
    each or (B, k) stacks, mu and nu checked against the polytope; returns
    B gaps.
    """
    mu, nu, v = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (mu, nu, v))
    task.check_state(nu)
    upper = task.max_oracle(task.apply_loss_matrix(nu) + v)
    lower = np.einsum("ij,ij->i", v, mu) + task.bayes_risk(mu)
    return upper - lower


def spmp_solve_batch_simplex(
    V: np.ndarray,
    task: Task,
    K: int,
    eta: float | None = None,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extra-gradient rounds on a (B, dim) stack of score vectors.

    The iterate is one C-contiguous (dim, 2B) column stack X: columns :B
    are the max players mu, columns B: the min players nu.  Each projection
    steps from the log-iterate L and returns the next L with X.  A is applied
    through the task's row API on the transposed view X.T.  A round takes
    a half-step from X with the gradient at X and a full step from X with
    the gradient at the half-step point; the half-step points are averaged.  The default eta
    is 1/(2 l_spmp) for the task's smoothness constant; the projection rate is
    scaled by the entropy range so the step matches a mirror map
    normalized to strong convexity 1.  init is a (mu, nu) pair, one vector
    or B rows each; it is floored and checked against the polytope.
    Returns (mu_bar, nu_bar, mu_last, nu_last), the averaged half-step
    iterates and the final full-step iterates, as C-contiguous (B, dim)
    stacks.  Serves every polytope; the name predates that and stays
    because the benchmark traces and patches this function.
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
    VT = np.ascontiguousarray(V.T)
    if init is None:
        X = np.tile(task.uniform_state()[:, None], (1, 2 * B))
    else:
        try:
            X = np.concatenate([np.broadcast_to(np.maximum(x, PROB_FLOOR), V.shape) for x in init])
        except ValueError:
            raise LayoutError(f"warm start does not fit the score stack {V.shape}") from None
        task.check_state(X)
        X = X.T.copy()
    L = np.log(X)

    # one gradient buffer: each projection reads it before the next grad call
    G = np.empty_like(X)
    G_max, G_min = G[:, :B], G[:, B:]

    def grad(X):
        AX = apply_a(X.T).T
        np.add(AX[:, B:], VT, G_max)
        np.negative(AX[:, :B], G_min)
        return G

    X_sum = np.zeros_like(X)
    for it in range(K):
        try:
            L_half, X_half = proj(L, grad(X), rate)
            L, X = proj(L, grad(X_half), rate)
        except SinkhornConvergenceError as exc:
            player = "max" if exc.row < B else "min"
            raise RuntimeError(
                f"projection failed at iteration {it} ({player} player): {exc}"
            ) from exc
        X_sum += X_half
    X_sum /= K
    X_bar, X = X_sum.T.copy(), X.T.copy()
    return X_bar[:B], X_bar[B:], X[:B], X[B:]


def spmp_solve(
    v: np.ndarray,
    task: Task,
    init: tuple[np.ndarray, np.ndarray] | None = None,
    K: int = 100,
    eta: float | None = None,
) -> OracleResult:
    """Extra-gradient saddle solver for one score vector.

    One engine call (see `spmp_solve_batch_simplex` for the rounds, the
    default eta and the warm start), then its certificate and saddle value.
    """
    v = np.asarray(v, dtype=float)
    mu_bar, nu_bar, mu, nu = (x[0] for x in spmp_solve_batch_simplex(v, task, K, eta, init))
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
