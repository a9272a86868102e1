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
`project_stack`, `apply_loss_matrix`, `check_state`, `l_spmp` and `r2`,
and for adaptive steps its `bregman` and `adaptive_start`.

Rounds run at a fixed step, except in dual-gap certification, which asks
for adaptive steps; the certificate is exact at any iterate, so steps move
how tight a bound is, never whether it holds.  `spmp_solve` is one
fixed-step engine call on one vector plus its certificate.  The trainer
calls the engine itself, once per block update, and certifies a whole
training afterwards: `trainer.dual_gap` makes one adaptive engine call
over every example of every pass, and `certified_gap` is called once on
all block updates' iterates.
"""

from __future__ import annotations

import math
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
    adaptive: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extra-gradient rounds on a (B, dim) stack of score vectors.

    The iterate is one C-contiguous (dim, 2B) column stack X: columns :B
    are the max players mu, columns B: the min players nu.  Each projection
    steps from the log-iterate L and returns the next L with X.  A is applied
    through the task's row API on the transposed view X.T.  A round takes
    a half-step Y from X with the gradient at X and a full step X+ from X
    with the gradient at Y; the half-step points are averaged.  The default eta
    is 1/(2 l_spmp) for the task's smoothness constant; the projection rate is
    scaled by the entropy range so the step matches a mirror map
    normalized to strong convexity 1.  init is a (mu, nu) pair, one vector
    or B rows each; it is floored and checked against the polytope.

    adaptive gives each row its own step, starting at the task's
    `adaptive_start` times eta (2**10; rankings keep eta).  A round
    is redone with the step halved for every row that fails Nemirovski's
    local criterion  rate <G(X) - G(Y), Y - X+> <= D(X+, Y) + D(Y, X)
    (G the ascent direction, D the task's `bregman`, both players summed);
    eta itself is always accepted, so steps never fall below it and never
    grow.  The half-step points are averaged as at a fixed step.  The
    criterion reuses the projections' log-iterates and makes no projection
    of its own; a row's steps depend on that row alone.

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

    def gradient(G):
        """The gradient map at a column stack, written into the buffer G."""
        G_max, G_min = G[:, :B], G[:, B:]

        def grad(X):
            AX = apply_a(X.T).T
            np.add(AX[:, B:], VT, G_max)
            np.negative(AX[:, :B], G_min)
            return G

        return grad

    # one gradient buffer: each projection reads it before the next grad call
    grad = gradient(np.empty_like(X))
    # a task that starts at the worst-case step keeps it, with no checks
    adaptive = adaptive and task.adaptive_start > 1
    if adaptive:
        # one rate per column, a row's two players sharing its step
        step = np.full(2 * B, rate * task.adaptive_start)
        # the gradient at X is kept while the round is redone
        grad_half = gradient(np.empty_like(X))

        def adaptive_round(L, X):
            G_x = grad(X)
            while True:
                L_half, X_half = proj(L, G_x, step)
                G_y = grad_half(X_half)
                L_new, X_new = proj(L, G_y, step)
                redo = _rejected(task, step, rate, G_x, G_y, (L, X), (L_half, X_half), (L_new, X_new))
                if not redo.any():
                    return L_half, X_half, L_new, X_new
                step[np.concatenate([redo, redo])] *= 0.5

    X_sum = np.zeros_like(X)
    for it in range(K):
        try:
            if adaptive:
                L_half, X_half, L, X = adaptive_round(L, X)
            else:
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


# error of one divergence entry: the floor moves a probability by up to
# PROB_FLOOR, at a log-ratio of up to |log PROB_FLOOR|
_FLOOR_SLACK = PROB_FLOOR * -math.log(PROB_FLOOR)


def _rejected(task: Task, rates, floor: float, G_x, G_y, X, Y, X_new) -> np.ndarray:
    """Rows whose round fails the local criterion at a step above floor.

    rates holds each column's step; X, Y and X_new are (L, P) pairs of the
    round's start, half-step and full-step column stacks.
    """
    B = len(rates) // 2
    # G_y is recomputed before its next use
    dG = np.subtract(G_x, G_y, out=G_y)
    dG *= Y[1] - X_new[1]
    slack = task.bregman(*X_new, *Y) + task.bregman(*Y, *X) - rates * dG.sum(axis=0)
    # four divergences of dim entries per row: the floor's error is no failure
    return (slack[:B] + slack[B:] < -4 * task.embed_dim * _FLOOR_SLACK) & (rates[:B] > floor)


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
