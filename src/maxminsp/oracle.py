"""Saddle-point mirror prox for the max-min oracle.

Solves  max_{mu in M} min_{nu in M}  nu^T A mu + v^T mu  by extra-gradient
mirror steps and certifies the duality gap exactly with one call each to
the task's max oracle and Bayes term (`certified_gap`, over one vector or
a stack).  One engine, `spmp_solve_batch_simplex`, serves every task and
batch size, and every caller enters through it: it solves a (B, dim) stack
of score vectors at once, keeping both players, which share the polytope,
as one C-contiguous (dim, 2B) column stack, so each half-step is one
apply-A and one projection call on it.  The projections pass log-iterates
on, so the engine takes one log per call.  One layout rule (see `tasks`):
Task methods take column stacks, and this module's functions keep (B, dim)
rows, each transposing once inside, so the column stack never leaves the
engine.  The polytope enters only through the task: `project_stack` and
`loss_stack` (unchecked: the engine checks its stack once), `check_state`,
`score_stack`, `l_spmp`, `r2` and, for adaptive steps, `bregman`.

Every call runs one round loop, and callers name its step in worst-case
steps 1/(2 l_spmp), the engine alone turning that into a rate.  Block
updates, the one fixed-step caller, pass step=FIXED_STEP on every
polytope; dual-gap certification and the calibration search pass
step=None and adapt: while some row's step is above the worst-case one,
each round is checked against the local criterion, at one Bregman
divergence per column, and redone at half the step for the rows that
fail it.  Adaptive calls also
restart their average: a uniform average of K rounds converges like 1/K,
and restarting from the average converges linearly on sharp bilinear
problems over polytopes (Gilpin, Peña & Sandholm 2012; Applegate,
Hinder, Lu & Lubin 2023).  The certificate is exact at any iterate, so
steps and restarts move how tight a bound is, never whether it holds.
A round that is not checked is a pure function of the iterate, the scores
and the step, so once one returns its own start bit for bit, every round
up to the next restart, or to the call's end, would repeat it: the engine
stops projecting and adds that round's half-step point to its average
once per round left, by the same addition, so every output keeps its
bits.  Such points are rows pinned at a vertex, both players' other
labels at PROB_FLOOR.
`spmp_solve` is one engine call on one vector, at the worst-case step by
default, plus its certificate.
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

ADAPTIVE_START = 2.0 ** 10  # the first adaptive step, in worst-case steps
RESTARTS = 4  # an adaptive call's equal segments, each restarted from the last one's average
FIXED_STEP = 8.0  # the block updates' step, in worst-case steps


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
    each or (B, k) row stacks, mu and nu checked against the polytope and v
    by `score_stack`; returns B gaps.
    """
    mu, nu, v = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (mu, nu, v))
    muT, nuT, vT = (np.ascontiguousarray(x.T) for x in (mu, nu, v))
    task.check_state(nuT)
    upper = task.max_oracle(task.apply_loss_matrix(nuT) + task.score_stack(vT))
    lower = np.einsum("ij,ij->i", v, mu) + task.bayes_risk(muT)
    return upper - lower


def spmp_solve_batch_simplex(
    V: np.ndarray,
    task: Task,
    K: int,
    *,
    step: float | None = 1.0,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extra-gradient rounds on a (B, dim) stack of score vectors.

    The iterate is one C-contiguous (dim, 2B) column stack X: columns :B
    are the max players mu, columns B: the min players nu.  Each projection
    steps from the log-iterate L and returns the next L with X, and A is
    applied to X itself.  A round takes a half-step Y from X with the
    gradient at X and a full step X+ from X with the gradient at Y; the
    half-step points are averaged.  init is a (mu, nu) pair, one vector or
    B rows each, the uniform point by default; it is floored and checked
    against the polytope.

    step is in worst-case steps 1/(2 l_spmp), l_spmp the task's smoothness
    constant; the projection rate is the step times the entropy range, to
    match a mirror map normalized to strong convexity 1.  A float fixes
    every row's step for the call, and such calls never check.  None
    adapts: each row starts at ADAPTIVE_START worst-case steps and, while
    some row is above the worst-case step, a round is redone with the step
    halved for every row that fails Nemirovski's local criterion (see
    `_rejected`).  The worst-case step is always accepted, so steps never
    fall below it and never grow, and once every row is there the call
    checks no more.  The check reuses the projections' log-iterates and
    makes no projection of its own.

    Adaptive calls alone restart.  Their K rounds fall into RESTARTS equal
    segments, ending at rounds K*j // RESTARTS for j = 1 .. RESTARTS-1,
    empty ones dropped (K=1 makes no restart, K=2 one, K=3 two).  At a
    segment's end every row's iterate is set to the segment's average,
    floored and logged as init is, the average starts anew and the steps
    go back to ADAPTIVE_START, so a restarted call equals, bit for bit,
    a chain of unrestarted calls over its segments, each started from the
    previous one's averages.  A row's steps and restarts depend on that
    row alone.

    Fixed points end a segment's work early.  A round that is not checked
    (every fixed-step round, and an adaptive call's once every row is at
    the worst-case step) reads only L, X, the scores and the step.  When
    one returns (L, X) itself, `(L_new == L).all() and (X_new == X).all()`
    over the whole stack, each later round of the segment would compute
    the same half-step point and return (L, X) again, so the engine makes
    no more projections: it adds that half-step point to the running sum
    once per round left, the same `X_sum += X_half` as before, and the
    average keeps its bits.  A restart clears the state.  (== equates 0.0
    and -0.0, which a log-iterate carries only into sums and exp, where
    they act alike; probabilities are at least PROB_FLOOR.)

    Returns (mu_bar, nu_bar, mu_last, nu_last), the averaged half-step
    iterates (of the last segment, for adaptive calls) and the final
    full-step iterates, as C-contiguous (B, dim) stacks.  Serves every
    polytope; the name predates that and stays because the benchmark
    traces and patches this function.
    """
    if K < 1:
        raise ValueError("iteration budget must be >= 1")
    # finite scores and iterates inside the polytope keep every gradient finite
    V = np.atleast_2d(np.asarray(V, dtype=float))
    VT = task.score_stack(np.ascontiguousarray(V.T))
    B = len(V)
    rate = ((1.0 if step is None else step) / (2.0 * task.l_spmp)) * task.r2
    apply_a = task.loss_stack
    proj = task.project_stack
    if init is None:
        init = (task.uniform_state(),) * 2
    # the floored warm start, written row by row: mu into rows :B, nu into rows B:
    X = np.empty((2 * B, V.shape[1]))
    try:
        mu0, nu0 = init
        np.maximum(mu0, PROB_FLOOR, out=X[:B])
        np.maximum(nu0, PROB_FLOOR, out=X[B:])
    except ValueError:
        raise LayoutError(f"warm start does not fit the score stack {V.shape}") from None
    X = X.T.copy()
    task.check_state(X)
    L = np.log(X)

    # gradient buffers and their players' views: G_x at X, kept while a round
    # is redone, and G_y at the half-step points
    G_x, G_y = np.empty_like(X), np.empty_like(X)
    Gx_max, Gx_min, Gy_max, Gy_min = G_x[:, :B], G_x[:, B:], G_y[:, :B], G_y[:, B:]
    # one rate per column while checking, a row's two players sharing it
    check = step is None
    rates = np.full(2 * B, rate * ADAPTIVE_START) if check else rate
    # adaptive calls restart at the end of each nonempty segment but the last
    ends = {K * j // RESTARTS for j in range(1, RESTARTS)} - {0} if check else set()
    start = 0
    # set once an unchecked round returns its own start: the rounds left in
    # the segment would repeat it, so they only add its half-step point
    fixed = False
    X_sum = np.zeros_like(X)
    try:
        for it in range(K):
            if not fixed:
                AX = apply_a(X)
                np.add(AX[:, B:], VT, Gx_max)
                np.negative(AX[:, :B], Gx_min)
                while True:
                    if check and not (rates > rate).any():
                        check, rates = False, rate
                    L_half, X_half = proj(L, G_x, rates)
                    AX = apply_a(X_half)
                    np.add(AX[:, B:], VT, Gy_max)
                    np.negative(AX[:, :B], Gy_min)
                    L_new, X_new = proj(L, G_y, rates)
                    if not check:
                        break
                    redo = _rejected(task, rates, rate, G_y, (L, X), X_half, (L_new, X_new))
                    if not redo.any():
                        break
                    rates[np.concatenate([redo, redo])] *= 0.5
                fixed = not check and (L_new == L).all() and (X_new == X).all()
                L, X = L_new, X_new
            X_sum += X_half
            if it + 1 in ends:
                # restart from the segment's average, floored as init is, at fresh steps
                X_sum /= it + 1 - start
                X = np.maximum(X_sum, PROB_FLOOR)
                L = np.log(X)
                X_sum, start = np.zeros_like(X), it + 1
                check, rates, fixed = True, np.full(2 * B, rate * ADAPTIVE_START), False
    except SinkhornConvergenceError as exc:
        player = "max" if exc.row < B else "min"
        raise RuntimeError(f"projection failed at iteration {it} ({player} player): {exc}") from exc
    X_sum /= K - start
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
    K: int = 100,
    *,
    step: float | None = 1.0,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> OracleResult:
    """Extra-gradient saddle solver for one score vector.

    One engine call (see `spmp_solve_batch_simplex` for the rounds, the
    step and the warm start), then its certificate and saddle value.
    """
    v = np.asarray(v, dtype=float)
    mu_bar, nu_bar, mu, nu = (x[0] for x in spmp_solve_batch_simplex(v, task, K, step=step, init=init))
    gap = float(certified_gap(mu_bar, nu_bar, v, task)[0])
    saddle = float(nu_bar @ task.apply_loss_matrix(mu_bar)) + float(v @ mu_bar) + task.offset
    return OracleResult(mu_bar, nu_bar, gap, saddle, mu_last=mu, nu_last=nu)
