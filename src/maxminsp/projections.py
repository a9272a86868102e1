"""Bregman projections onto marginal polytopes: the stack kernels.

Each projection solves  argmin_{mu in M}  -eta * mu^T grad + D_{-H}(mu, mu_prev)
for the polytope's entropy H:  softmax on the simplex, log-domain
sum-product on chain marginals, Sinkhorn row/column scaling on the
doubly stochastic matrices.  `grad` is always an ascent direction for the
caller's objective.

Every projection works on a stack: row b of a (B, dim) array is projected
with row b of the gradient stack, independently of the other rows.  The
kernels take arrays and shape integers only; each task's `project_stack`
picks its kernel, unchecked, for solvers that keep their iterates inside
the polytope.  `project_stack` here checks its inputs first, and the
one-vector functions wrap it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .tasks import ChainTask, Task

__all__ = [
    "LayoutError",
    "SinkhornConvergenceError",
    "project",
    "project_stack",
    "project_simplex_entropic",
    "project_chain_entropic",
    "project_birkhoff_sinkhorn",
    "PROB_FLOOR",
]

# interior floor applied after every projection; keeps logs finite while
# perturbing results far below test tolerances
PROB_FLOOR = 1e-12

SINKHORN_TOL = 1e-9
SINKHORN_MAX_ITER = 10_000


class LayoutError(ValueError):
    """Raised when a vector does not match the task's polytope layout."""


class SinkhornConvergenceError(RuntimeError):
    def __init__(self, residual: float, max_iter: int, row: int = 0):
        super().__init__(
            f"Sinkhorn did not converge after {max_iter} iterations (residual {residual:.3e})"
        )
        self.residual = residual
        self.row = row  # stack row with the largest residual


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along axis, shifted by the maximum; x is finite."""
    top = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - top).sum(axis=axis)) + np.squeeze(top, axis)


# ---------------------------------------------------------------------------
# stack kernels: P >= PROB_FLOOR and G finite are the caller's to ensure


def _softmax_stack(P: np.ndarray, G: np.ndarray, eta: float) -> np.ndarray:
    """Exponentiated-gradient step per row: proportional to P * exp(eta*G)."""
    Z = np.log(P) + eta * G
    Z -= Z.max(axis=-1, keepdims=True)
    Q = np.exp(Z)
    Q /= Q.sum(axis=-1, keepdims=True)
    return np.maximum(Q, PROB_FLOOR, out=Q)


def _chain_stack(P: np.ndarray, G: np.ndarray, eta: float, M: int, R: int) -> np.ndarray:
    """Exact Bregman projection under the junction-tree chain entropy, per row.

    H(mu) = sum_m H_S(mu_{m,m+1}) - sum_{interior m} H_S(mu_m); the
    projection equals marginal inference on a chain with log-potentials
    assembled from log(P) and eta*G, computed by sum-product in the log
    domain for all rows at once.  Rows are laid out as M unary blocks of R
    followed by M-1 pairwise blocks of R*R.
    """
    U = M * R
    B = P.shape[0]
    if M == 1:
        return _softmax_stack(P, G, eta)
    pu = P[:, :U].reshape(B, M, R)
    pp = P[:, U:].reshape(B, M - 1, R, R)

    # theta follows from the gradient of the junction-tree entropy at P:
    # pairwise blocks carry +log, interior unaries carry -log
    theta_u = eta * G[:, :U].reshape(B, M, R)
    theta_u[:, 1:-1] -= np.log(pu[:, 1:-1])
    theta_p = eta * G[:, U:].reshape(B, M - 1, R, R) + np.log(pp)

    # forward/backward messages (log domain)
    alpha = np.empty((B, M, R))
    alpha[:, 0] = theta_u[:, 0]
    for m in range(M - 1):
        alpha[:, m + 1] = theta_u[:, m + 1] + _logsumexp(alpha[:, m, :, None] + theta_p[:, m], 1)
    beta = np.zeros((B, M, R))
    for m in range(M - 2, -1, -1):
        beta[:, m] = _logsumexp(theta_p[:, m] + (theta_u[:, m + 1] + beta[:, m + 1])[:, None, :], 2)
    log_z = _logsumexp(alpha[:, -1], 1)[:, None, None]

    out_u = np.exp(alpha + beta - log_z)
    out_u /= out_u.sum(axis=2, keepdims=True)
    after = theta_u[:, 1:] + beta[:, 1:]
    out_p = np.exp(alpha[:, :-1, :, None] + theta_p + after[:, :, None, :] - log_z[..., None])
    out_p /= out_p.sum(axis=(2, 3), keepdims=True)
    out = np.concatenate([out_u.reshape(B, U), out_p.reshape(B, -1)], axis=1)
    return np.maximum(out, PROB_FLOOR, out=out)


def _sinkhorn_stack(
    P: np.ndarray,
    G: np.ndarray,
    eta: float,
    tol: float = SINKHORN_TOL,
    max_iter: int = SINKHORN_MAX_ITER,
) -> np.ndarray:
    """Sinkhorn-Knopp projection under the entry-wise entropy, per row.

    Each row stops scaling once its own residual reaches tol, so a row's
    result does not depend on the rest of the stack.  Rows still above
    10*tol after max_iter sweeps raise SinkhornConvergenceError.
    """
    B = P.shape[0]
    M = math.isqrt(P.shape[1])
    logK = (np.log(P) + eta * G).reshape(B, M, M)
    logK -= logK.max(axis=(1, 2), keepdims=True)
    K = np.exp(logK)

    residual = np.full(B, np.inf)
    active = np.arange(B)
    Ka = K  # the rows still scaling; a copy once some rows have stopped
    for _ in range(max_iter):
        Ka /= Ka.sum(axis=2, keepdims=True)
        Ka /= Ka.sum(axis=1, keepdims=True)
        res = np.maximum(
            np.abs(Ka.sum(axis=2) - 1.0).max(axis=1),
            np.abs(Ka.sum(axis=1) - 1.0).max(axis=1),
        )
        residual[active] = res
        done = res <= tol
        if done.any():
            K[active] = Ka
            active = active[~done]
            if not active.size:
                break
            Ka = K[active]
    else:
        K[active] = Ka
        worst = int(np.argmax(residual))
        if residual[worst] > 10 * tol:
            raise SinkhornConvergenceError(float(residual[worst]), max_iter, worst)
    out = K.reshape(B, M * M)
    return np.maximum(out, PROB_FLOOR, out=out)


def _checked(P: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float point and gradient stacks: P floored, G rejected unless finite."""
    G = np.atleast_2d(np.asarray(G, dtype=float))
    if not np.all(np.isfinite(G)):
        raise LayoutError("non-finite gradient")
    P = np.maximum(np.atleast_2d(np.asarray(P, dtype=float)), PROB_FLOOR)
    return P, G


def project_stack(task: Task, P: np.ndarray, G: np.ndarray, eta: float) -> np.ndarray:
    """Bregman projection of each row of P along the matching row of G."""
    P, G = _checked(P, G)
    return task.project_stack(P, G, eta)


def project(task: Task, mu_prev: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    """Bregman projection of one point onto the task's polytope."""
    return project_stack(task, mu_prev, grad, eta)[0]


def project_simplex_entropic(mu_prev: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    """Exponentiated-gradient step: proportional to mu_prev * exp(eta*grad)."""
    return _softmax_stack(*_checked(mu_prev, grad), eta)[0]


def project_chain_entropic(
    mu_prev: np.ndarray, grad: np.ndarray, eta: float, task: ChainTask
) -> np.ndarray:
    """Exact Bregman projection of one point under the chain entropy."""
    return _chain_stack(*_checked(mu_prev, grad), eta, task.M, task.R)[0]


def project_birkhoff_sinkhorn(
    mu_prev: np.ndarray,
    grad: np.ndarray,
    eta: float,
    tol: float = SINKHORN_TOL,
    max_iter: int = SINKHORN_MAX_ITER,
) -> np.ndarray:
    """Sinkhorn-Knopp projection of one point under the entry-wise entropy."""
    return _sinkhorn_stack(*_checked(mu_prev, grad), eta, tol, max_iter)[0]
