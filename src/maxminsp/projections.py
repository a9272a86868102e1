"""Bregman projections onto marginal polytopes: the stack kernels.

Each projection solves  argmin_{mu in M}  -eta * mu^T grad + D_{-H}(mu, mu_prev)
for the polytope's entropy H:  softmax on the simplex, log-domain
sum-product on chain marginals, Sinkhorn-Newton row and column scaling
on the doubly stochastic matrices.  `grad` is always an ascent direction
for the caller's objective.

Every projection works on a stack.  The kernels take column stacks: a
C-contiguous (dim, B) array whose column b is projected with column b of
the gradient stack, independently of the other columns.  Every reduction
then runs over a leading axis and every log and exp over a contiguous
array.  The kernels take arrays and shape integers only; each task's
`project_stack` picks its kernel, unchecked, for the solver engine, which
keeps its iterates inside the polytope as column stacks.  The kernels
work in the log domain: each takes the log-iterate L, up to a constant per
column (per block on chains) that cancels, and returns the next L with
its normalized probabilities, so no kernel takes the log of the iterate
it is handed.  PROB_FLOOR is a floor on the log, L >= log(PROB_FLOOR),
which keeps exp off its subnormal range.  `project` is the one checked
entry for every task, in probabilities: it takes one vector or a (B, dim)
row stack; `project_birkhoff_sinkhorn` also takes the Birkhoff kernel's
tol and Newton step cap, whose defaults the engine uses.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .tasks import Task

__all__ = [
    "LayoutError",
    "SinkhornConvergenceError",
    "project",
    "project_birkhoff_sinkhorn",
    "PROB_FLOOR",
]

# floor on every log-iterate, L >= log(PROB_FLOOR): keeps exp off its slow
# subnormal path while perturbing results far below test tolerances
PROB_FLOOR = 1e-12
_LOG_FLOOR = math.log(PROB_FLOOR)

SINKHORN_TOL = 1e-9
SINKHORN_MAX_ITER = 300  # Newton steps; at most 94 measured (M <= 8, log-entries up to 1e7)
# a Newton step keeps log P at or below _MAX_LOG, where exp is finite, and is
# halved at most _MAX_HALVINGS times for Armijo's rule; the ridge, relative to
# the diagonal, keeps the Hessian invertible
_MAX_LOG, _MAX_HALVINGS, _ARMIJO, _RIDGE = 700.0, 60, 1e-4, 1e-12


class LayoutError(ValueError):
    """Raised when a vector does not match the task's polytope layout."""


class SinkhornConvergenceError(RuntimeError):
    def __init__(self, residual: float, max_iter: int, row: int = 0):
        super().__init__(
            f"Sinkhorn did not converge after {max_iter} Newton steps (residual {residual:.3e})"
        )
        self.residual = residual
        self.row = row  # stack column (one point) with the largest residual


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) over the leading axis, shifted by the maximum; x is finite."""
    top = np.maximum.reduce(x, axis=0)
    s = np.add.reduce(np.exp(x - top), axis=0)
    return np.add(np.log(s, out=s), top, out=s)


# ---------------------------------------------------------------------------
# stack kernels: L >= log(PROB_FLOOR) and G finite are the caller's to ensure


def _softmax_stack(L: np.ndarray, G: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Exponentiated-gradient step per column: proportional to exp(L + eta*G)."""
    Z = eta * G
    Z += L  # in place: one temporary fewer than L + eta * G
    Z -= np.maximum.reduce(Z, axis=0)
    np.maximum(Z, _LOG_FLOOR, out=Z)
    P = np.exp(Z)
    P /= np.add.reduce(P, axis=0)
    return Z, P


def _chain_stack(L: np.ndarray, G: np.ndarray, eta: float, M: int, R: int) -> tuple:
    """Exact Bregman projection under the junction-tree chain entropy, per column.

    H(mu) = sum_m H_S(mu_{m,m+1}) - sum_{interior m} H_S(mu_m); the
    projection equals marginal inference on a chain with log-potentials
    assembled from L and eta*G, computed by sum-product in the log domain
    for all columns at once; the next L holds the log-marginals.  A column
    holds M unary blocks of R followed by M-1 pairwise blocks of R*R,
    viewed here as (M, R, B) and (M-1, R, R, B) arrays.
    """
    U = M * R
    B = L.shape[1]
    if M == 1:
        return _softmax_stack(L, G, eta)

    # theta follows from the gradient of the junction-tree entropy at the
    # iterate: pairwise blocks carry +log, interior unaries carry -log
    theta = eta * G
    theta_u, theta_p = theta[:U].reshape(M, R, B), theta[U:].reshape(M - 1, R, R, B)
    theta_u[1:-1] -= L[:U].reshape(M, R, B)[1:-1]
    theta_p += L[U:].reshape(M - 1, R, R, B)

    # forward and backward messages (log domain), one step of each per
    # log-sum-exp: step s sums the forward input over y_s and the backward
    # input at k = M-2-s over y_{k+1}, the transposed pairwise view's leading axis
    alpha, beta = np.empty((M, R, B)), np.zeros((M, R, B))
    alpha[0] = theta_u[0]
    theta_pt = theta_p.transpose(0, 2, 1, 3)
    both = np.empty((R, 2, R, B))
    for s, k in zip(range(M - 1), range(M - 2, -1, -1)):
        np.add(alpha[s, :, None], theta_p[s], out=both[:, 0])
        np.add(theta_pt[k], (theta_u[k + 1] + beta[k + 1])[:, None], out=both[:, 1])
        forward, beta[k] = _logsumexp(both)
        np.add(theta_u[s + 1], forward, out=alpha[s + 1])
    log_z = _logsumexp(alpha[-1])

    # the log-marginals, written straight into L_new's unary and pairwise blocks
    L_new = np.empty((L.shape[0], B))
    log_u, log_p = L_new[:U].reshape(M, R, B), L_new[U:].reshape(M - 1, R, R, B)
    np.add(alpha, beta, out=log_u)
    log_u -= log_z
    np.add(alpha[:-1, :, None], theta_p, out=log_p)
    log_p += (theta_u[1:] + beta[1:])[:, None]
    log_p -= log_z
    np.maximum(L_new, _LOG_FLOOR, out=L_new)
    P = np.exp(L_new)
    for block in (P[:U].reshape(M, R, B), P[U:].reshape(M - 1, R * R, B)):
        block /= np.add.reduce(block, axis=1)[:, None]
    return L_new, P


def _sinkhorn_stack(
    L: np.ndarray,
    G: np.ndarray,
    eta: float,
    tol: float = SINKHORN_TOL,
    max_iter: int = SINKHORN_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray]:
    """Sinkhorn-Newton projection under the entry-wise entropy, per column.

    A column is an M x M matrix, row-major, viewed here as an (M, M, B)
    array.  The projection is P = exp(L + eta*G + a_i + b_j) for the
    potentials (a, b) minimizing the dual  sum P - sum a - sum b, whose
    gradient is the row and column sums less 1.  One log-domain sweep
    starts them; damped Newton steps (Brauer, Clason, Lorenz & Wirth 2017)
    follow, each with its gauge direction (+c, -c), which leaves P as it
    is, projected out.  A column stops once its own residual reaches tol,
    so its result does not depend on the rest of the stack.  Columns still
    above 10*tol after max_iter steps raise SinkhornConvergenceError, which
    names the worst column as its `row`.
    """
    B = L.shape[1]
    M = math.isqrt(L.shape[0])
    logP = (L + eta * G).reshape(M, M, B)
    logP -= _logsumexp(logP.transpose(1, 0, 2))[:, None]
    logP -= _logsumexp(logP)
    H = np.zeros((B, 2 * M, 2 * M))
    for it in range(max_iter + 1):
        P = np.exp(logP)
        sums = np.concatenate([P.sum(axis=1), P.sum(axis=0)])  # rows, then columns
        g = sums - 1.0
        residual = np.abs(g).max(axis=0)
        active = residual > tol
        if it == max_iter or not active.any():
            break
        H[:, range(2 * M), range(2 * M)] = (sums * (1.0 + _RIDGE)).T
        H[:, :M, M:] = P.transpose(2, 0, 1)
        H[:, M:, :M] = P.transpose(2, 1, 0)
        a, b = np.split(np.linalg.solve(H, -g.T[:, :, None])[:, :, 0].T, 2)
        c = (a.sum(axis=0) - b.sum(axis=0)) / (2 * M)
        a, b = a - c, b + c
        S = a[:, None] + b
        slope = (g[:M] * a).sum(axis=0) + (g[M:] * b).sum(axis=0)
        total = a.sum(axis=0) + b.sum(axis=0)
        t = np.where(active, 1.0 / np.maximum(1.0, (S / (_MAX_LOG - logP)).max(axis=0).max(axis=0)), 0.0)
        for _ in range(_MAX_HALVINGS):
            # the dual's change sum(exp(log P + t*S) - P) - t*sum(a + b), exact and finite
            move = t * S
            change = np.where(move > 0, -np.exp(logP + move), P) * np.expm1(-np.abs(move))
            short = change.sum(axis=0).sum(axis=0) - t * total > _ARMIJO * t * slope
            if not short.any():
                break
            t[short] *= 0.5
        else:
            t[short] = 0.0  # no decrease left to find: the column stalls
        logP += t * S
    if not np.all(residual <= 10 * tol):  # also a nan residual
        worst = int(np.argmax(residual, axis=0))
        raise SinkhornConvergenceError(float(residual[worst]), max_iter, worst)
    return np.maximum(logP, _LOG_FLOOR).reshape(M * M, B), np.maximum(P, PROB_FLOOR).reshape(M * M, B)


def _columns(P: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column stacks of a point's log and a gradient given as one vector or rows.

    P is floored before its log; G is rejected unless finite.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    if not np.all(np.isfinite(G)):
        raise LayoutError("non-finite gradient")
    P = np.maximum(np.atleast_2d(np.asarray(P, dtype=float)), PROB_FLOOR)
    return np.log(np.ascontiguousarray(P.T)), np.ascontiguousarray(G.T)


def project(task: Task, mu_prev: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    """Bregman projection of one point, or of each row of a stack, onto the task's polytope."""
    out = task.project_stack(*_columns(mu_prev, grad), eta)[1].T
    return out if np.ndim(mu_prev) > 1 else out[0]


def project_birkhoff_sinkhorn(
    mu_prev: np.ndarray,
    grad: np.ndarray,
    eta: float,
    tol: float = SINKHORN_TOL,
    max_iter: int = SINKHORN_MAX_ITER,
) -> np.ndarray:
    """Sinkhorn-Newton projection of one point under the entry-wise entropy."""
    return _sinkhorn_stack(*_columns(mu_prev, grad), eta, tol, max_iter)[1][:, 0]
