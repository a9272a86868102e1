"""Saddle-point mirror prox for the max-min oracle.

Solves  max_{mu in M} min_{nu in M}  nu^T A mu + v^T mu  by extra-gradient
mirror steps and certifies the duality gap exactly with one call each to
the task's max oracle and Bayes term (`certified_gap`, over one vector or
a stack).  One engine, `spmp_solve_batch_simplex`, serves every task and
batch size, and every caller enters through it: it solves a (B, dim) stack
of score vectors at once, keeping both players of its active rows, which
share the polytope, in one C-contiguous column stack, so each half-step is
one apply-A and one projection call on it.  The projections pass log-iterates
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
step=None and adapt: while some active row's step is above the worst-case
one, each round is checked against the local criterion, at one Bregman
divergence per column, and redone at half the step for the rows that
fail it, projecting those rows alone.  Adaptive calls also
restart their average: a uniform average of K rounds converges like 1/K,
and restarting from the average converges linearly on sharp bilinear
problems over polytopes (Gilpin, Peña & Sandholm 2012; Applegate,
Hinder, Lu & Lubin 2023).  The certificate is exact at any iterate, so
steps and restarts move how tight a bound is, never whether it holds.
Rows are independent, and a row's round is a pure function of its
iterate, its scores and its step, which changes only when the row fails
the criterion.  So once an accepted round, checked or not, returns a
row's own start bit for bit, every round of that row up to the next
restart, or to the call's end, would repeat it: the row leaves the stack
and its half-step point is added to its average once per round left, by
the same addition, so every output keeps its bits.  Such points are rows
pinned at a vertex, both players' other labels at PROB_FLOOR.
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
    some active row is above the worst-case step, a round is checked
    against Nemirovski's local criterion (see `_rejected`) and redone with
    the step halved for the rows that fail it, projecting those rows alone
    and reusing their gradient at X.  The worst-case step is always
    accepted, so steps never fall below it and never grow.  The check
    reuses the projections' log-iterates and makes no projection of its
    own.

    Adaptive calls alone restart.  Their K rounds fall into RESTARTS equal
    segments, ending at rounds K*j // RESTARTS for j = 1 .. RESTARTS-1,
    empty ones dropped (K=1 makes no restart, K=2 one, K=3 two).  At a
    segment's end every row's iterate is set to the segment's average,
    floored and logged as init is, the average starts anew and the steps
    go back to ADAPTIVE_START, so a restarted call equals, bit for bit,
    a chain of unrestarted calls over its segments, each started from the
    previous one's averages.  A row's steps and restarts depend on that
    row alone.

    Fixed points end a row's work early.  A row's round reads only that
    row's L, X, scores and step, and its step changes only when the row
    fails the criterion.  So once an accepted round, checked or not,
    returns the row's own (L, X) bit for bit, each later round of the
    segment would compute the same half-step point and return (L, X)
    again: the row leaves the active stack, which is gathered into a
    smaller C-contiguous stack, and its half-step point is added to its
    running sum once per round left, the same `+=` as before, so the
    average keeps its bits.  When every active row repeats at once (on one
    row, the stack is tested whole), the stack stays as it is and is only
    summed.  A restart brings every row back.  Projections and A act on
    each column alone, bit for bit on any column subset, so which rows
    share a stack moves no bits.
    (== equates 0.0 and -0.0, which a log-iterate carries only into sums
    and exp, where they act alike; probabilities are at least PROB_FLOOR.)

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

    # the active stack of b rows: its columns' places in the full stack
    # (None while it is the full stack), scores, and gradient buffers with
    # their players' views, G_x at X, kept while rows are redone, and G_y at
    # the half-step points
    b, cols, VT_all = B, None, VT
    full = G_x, G_y, Gx_max, Gx_min, Gy_max, Gy_min = _gradient_buffers(X)
    # one rate per column while checking, a row's two players sharing it
    check = step is None
    rates = np.full(2 * B, rate * ADAPTIVE_START) if check else rate
    # adaptive calls restart at the end of each nonempty segment but the last
    ends = {K * j // RESTARTS for j in range(1, RESTARTS)} - {0} if check else set()
    start = 0
    # set once every active row sits at its own fixed point: the rounds left
    # in the segment only add the half-step points
    frozen = False
    # rows that left the stack: their columns' places, half-step points,
    # running sums and last iterates
    out = None
    X_sum = np.zeros_like(X)
    sub = None  # the columns of the active stack a redo projects
    try:
        for it in range(K):
            left = None
            if not frozen:
                AX = apply_a(X)
                np.add(AX[:, b:], VT, Gx_max)
                np.negative(AX[:, :b], Gx_min)
                if check and rates.max() <= rate:
                    check, rates = False, rate
                X_half = proj(L, G_x, rates)[1]
                AX = apply_a(X_half)
                np.add(AX[:, b:], VT, Gy_max)
                np.negative(AX[:, :b], Gy_min)
                L_new, X_new = proj(L, G_y, rates)
                if check:
                    redo = _rejected(task, rates, rate, G_y, (L, X), X_half, (L_new, X_new)).nonzero()[0]
                    while redo.size:
                        # the failing rows alone, at half their step, from their gradient at X
                        sub = np.concatenate([redo, redo + b])
                        rates[sub] = r = rates[sub] * 0.5
                        L_s, X_s = L.take(sub, axis=1), X.take(sub, axis=1)
                        Y = proj(L_s, G_x.take(sub, axis=1), r)[1]
                        AY = apply_a(Y)
                        G_s = np.concatenate([AY[:, redo.size:] + VT.take(redo, axis=1), -AY[:, :redo.size]], axis=1)
                        new_s = proj(L_s, G_s, r)
                        X_half[:, sub], L_new[:, sub], X_new[:, sub] = Y, *new_s
                        redo = redo[_rejected(task, r, rate, G_s, (L_s, X_s), Y, new_s)] if r.max() > rate else redo[:0]
                    sub = None
                if b == 1:
                    frozen = (L_new == L).all() and (X_new == X).all()
                else:
                    same = (X_new == X).all(axis=0)
                    if same.any():
                        same &= (L_new == L).all(axis=0)
                        same = same[:b] & same[b:]
                        frozen = same.all()
                        if not frozen and same.any():
                            left = same
                L, X = L_new, X_new
            X_sum += X_half
            if out is not None:
                out[2] += out[1]
            if left is not None:
                # the rows at their fixed points leave; the rest are gathered
                keep, gone = np.flatnonzero(~left), np.flatnonzero(left)
                keep, gone = np.concatenate([keep, keep + b]), np.concatenate([gone, gone + b])
                places = np.arange(2 * B) if cols is None else cols
                leaving = [places[gone], *(A.take(gone, axis=1) for A in (X_half, X_sum, X))]
                out = leaving if out is None else [np.concatenate(pair, axis=-1) for pair in zip(out, leaving)]
                cols, b = places[keep], len(keep) // 2
                L, X, X_sum = (A.take(keep, axis=1) for A in (L, X, X_sum))
                VT = VT_all.take(cols[:b], axis=1)
                if check:
                    rates = rates[keep]
                G_x, G_y, Gx_max, Gx_min, Gy_max, Gy_min = _gradient_buffers(X)
            if it + 1 in ends:
                # restart every row from the segment's average, floored as init is, at fresh steps
                if cols is not None:
                    X_sum = _scatter(X_sum, cols, out[0], out[2])
                    b, cols, VT, out = B, None, VT_all, None
                    G_x, G_y, Gx_max, Gx_min, Gy_max, Gy_min = full
                X_sum /= it + 1 - start
                X = np.maximum(X_sum, PROB_FLOOR)
                L = np.log(X)
                X_sum, start = np.zeros_like(X), it + 1
                check, rates, frozen = True, np.full(2 * B, rate * ADAPTIVE_START), False
    except SinkhornConvergenceError as exc:
        col = exc.row if sub is None else sub[exc.row]
        col = col if cols is None else cols[col]
        player, row = ("max", col) if col < B else ("min", col - B)
        raise RuntimeError(f"projection failed at iteration {it} ({player} player, row {row}): {exc}") from exc
    if cols is not None:
        X_sum, X = _scatter(X_sum, cols, out[0], out[2]), _scatter(X, cols, out[0], out[3])
    X_sum /= K - start
    X_bar, X = X_sum.T.copy(), X.T.copy()
    return X_bar[:B], X_bar[B:], X[:B], X[B:]


def _gradient_buffers(X: np.ndarray) -> tuple:
    """Gradient buffers shaped as the (dim, 2b) stack X, and their players' views."""
    G_x, G_y = np.empty_like(X), np.empty_like(X)
    b = X.shape[1] // 2
    return G_x, G_y, G_x[:, :b], G_x[:, b:], G_y[:, :b], G_y[:, b:]


def _scatter(active: np.ndarray, cols: np.ndarray, out_cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The full column stack from the active stack's columns and those of the rows that left."""
    stack = np.empty((len(active), len(cols) + len(out_cols)))
    stack[:, cols] = active
    stack[:, out_cols] = out
    return stack


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
