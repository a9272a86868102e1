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
`project_stack`, `apply_loss_matrix`, `check_state`, `score_stack`, `l_spmp`
and `r2`, and for adaptive steps its `bregman` and `adaptive_start`.

Every call runs one round loop, at a fixed step except in dual-gap
certification, which asks for adaptive steps: while some row's step is
above the worst-case one, each round is checked against the local
criterion, at one Bregman divergence per column, and redone at half the
step for the rows that fail it.  The certificate is exact at any iterate,
so steps move how tight a bound is, never whether it holds.  `spmp_solve` is one
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
    each or (B, k) stacks, mu and nu checked against the polytope and v
    by `score_stack`; returns B gaps.
    """
    mu, nu = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (mu, nu))
    v = task.score_stack(v)
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
    `adaptive_start` times eta (2**10; rankings keep eta).  Every call runs
    the same rounds; while some row's step is above eta, a round is redone
    with the step halved for every row that fails Nemirovski's local
    criterion (see `_rejected`), and once every row is at eta the call
    checks no more.  eta itself is always accepted, so steps never fall
    below it and never grow; fixed-step calls never check.  The check
    reuses the projections' log-iterates and makes no projection of its
    own; a row's steps depend on that row alone.

    Returns (mu_bar, nu_bar, mu_last, nu_last), the averaged half-step
    iterates and the final full-step iterates, as C-contiguous (B, dim)
    stacks.  Serves every polytope; the name predates that and stays
    because the benchmark traces and patches this function.
    """
    if K < 1:
        raise ValueError("iteration budget must be >= 1")
    # finite scores and iterates inside the polytope keep every gradient finite
    V = task.score_stack(V)
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

    # the gradient at X is kept while a round is redone
    grad_x, grad_y = gradient(np.empty_like(X)), gradient(np.empty_like(X))
    # one step per column while checking, a row's two players sharing it
    step = np.full(2 * B, rate * task.adaptive_start) if adaptive else rate
    check = adaptive
    X_sum = np.zeros_like(X)
    try:
        for it in range(K):
            G_x = grad_x(X)
            while True:
                if check and not (step > rate).any():
                    check, step = False, rate
                L_half, X_half = proj(L, G_x, step)
                G_y = grad_y(X_half)
                L_new, X_new = proj(L, G_y, step)
                if not check:
                    break
                redo = _rejected(task, step, rate, G_y, (L, X), X_half, (L_new, X_new))
                if not redo.any():
                    break
                step[np.concatenate([redo, redo])] *= 0.5
            L, X = L_new, X_new
            X_sum += X_half
    except SinkhornConvergenceError as exc:
        player = "max" if exc.row < B else "min"
        raise RuntimeError(f"projection failed at iteration {it} ({player} player): {exc}") from exc
    X_sum /= K
    X_bar, X = X_sum.T.copy(), X.T.copy()
    return X_bar[:B], X_bar[B:], X[:B], X[B:]


# error of one divergence entry: the floor moves a probability by up to
# PROB_FLOOR, at a log-ratio of up to |log PROB_FLOOR|
_FLOOR_SLACK = PROB_FLOOR * -math.log(PROB_FLOOR)


def _rejected(task: Task, rates, floor: float, G_y, X, Y, X_new) -> np.ndarray:
    """Rows whose round fails the local criterion at a step above floor.

    Nemirovski's criterion  rate <G(X) - G(Y), Y - X+> <= D(X+, Y) + D(Y, X)
    (G the ascent direction, D the task's `bregman`, both players summed)
    is taken in its three-point form: the slack  D(X+, X) - rate <G(Y),
    X+ - Y>  equals  D(X+, Y) + D(Y, X) - rate <G(X) - G(Y), Y - X+>
    wherever the projection is exact, at one divergence per column.
    rates holds each column's step; X and X_new are (L, P) pairs of the
    round's start and full-step column stacks, Y the half-step points and
    G_y the gradient there, which is overwritten.
    """
    B = len(rates) // 2
    G_y *= X_new[1] - Y
    slack = task.bregman(*X_new, *X) - rates * G_y.sum(axis=0)
    # the two-divergence slack it equals allows the floor's error in four
    # divergences of dim entries per row: that is no failure
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
