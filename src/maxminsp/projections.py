"""Bregman projections onto marginal polytopes and mirror-map constants.

Each projection solves  argmin_{mu in M}  -eta * mu^T grad + D_{-H}(mu, mu_prev)
for the polytope's entropy H:  softmax on the simplex, log-domain
sum-product on chain marginals, Sinkhorn row/column scaling on the
doubly stochastic matrices.  `grad` is always an ascent direction for the
caller's objective.

Every projection works on a stack: row b of a (B, dim) array is projected
with row b of the gradient stack, independently of the other rows.
`stack_projector` picks a task's unchecked stack kernel once, for solvers
that keep their iterates inside the polytope; `project_stack` checks its
inputs first, and the one-vector functions wrap it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tasks import ChainTask, LayoutError, MulticlassTask, OrdinalTask, RankingTask, Task

__all__ = [
    "MirrorMap",
    "SinkhornConvergenceError",
    "project",
    "project_stack",
    "stack_projector",
    "project_simplex_entropic",
    "project_chain_entropic",
    "project_birkhoff_sinkhorn",
    "spmp_constants",
    "PROB_FLOOR",
]

# interior floor applied after every projection; keeps logs finite while
# perturbing results far below test tolerances
PROB_FLOOR = 1e-12

SINKHORN_TOL = 1e-9
SINKHORN_MAX_ITER = 10_000


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


def _chain_stack(P: np.ndarray, G: np.ndarray, eta: float, task: ChainTask) -> np.ndarray:
    """Exact Bregman projection under the junction-tree chain entropy, per row.

    H(mu) = sum_m H_S(mu_{m,m+1}) - sum_{interior m} H_S(mu_m); the
    projection equals marginal inference on a chain with log-potentials
    assembled from log(P) and eta*G, computed by sum-product in the log
    domain for all rows at once.
    """
    M, R, U = task.M, task.R, task.unary_dim
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


def stack_projector(task: Task) -> Callable[[np.ndarray, np.ndarray, float], np.ndarray]:
    """The task's stack projection (P, G, eta) -> Q, unchecked.

    Rows of P must be at or above PROB_FLOOR and G must be finite.
    """
    if isinstance(task, (MulticlassTask, OrdinalTask)):
        return _softmax_stack
    if isinstance(task, ChainTask):
        return lambda P, G, eta: _chain_stack(P, G, eta, task)
    if isinstance(task, RankingTask):
        # near-vertex iterates slow Sinkhorn's linear rate; give the inner
        # loop room beyond the stand-alone default
        return lambda P, G, eta: _sinkhorn_stack(P, G, eta, max_iter=10 * SINKHORN_MAX_ITER)
    raise ValueError(f"unknown task {task!r}")


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
    return stack_projector(task)(P, G, eta)


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
    return _chain_stack(*_checked(mu_prev, grad), eta, task)[0]


def project_birkhoff_sinkhorn(
    mu_prev: np.ndarray,
    grad: np.ndarray,
    eta: float,
    tol: float = SINKHORN_TOL,
    max_iter: int = SINKHORN_MAX_ITER,
) -> np.ndarray:
    """Sinkhorn-Knopp projection of one point under the entry-wise entropy."""
    return _sinkhorn_stack(*_checked(mu_prev, grad), eta, tol, max_iter)[0]


# ---------------------------------------------------------------------------
# entropies and smoothness constants


def _shannon(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def simplex_entropy(mu: np.ndarray) -> float:
    return _shannon(mu)


def chain_entropy(mu: np.ndarray, task: ChainTask) -> float:
    """Junction-tree entropy: pairwise entropies minus interior unaries."""
    u, p = task.split(mu)
    if task.M == 1:
        return _shannon(u[0])
    h = sum(_shannon(p[m]) for m in range(task.M - 1))
    h -= sum(_shannon(u[m]) for m in range(1, task.M - 1))
    return h


def birkhoff_entropy(mu: np.ndarray) -> float:
    return _shannon(mu)


@dataclass(frozen=True)
class MirrorMap:
    """Entropy and smoothness data driving the saddle-point solver."""

    kind: str
    entropy: Callable[[np.ndarray], float]
    sigma: float
    r2: float  # entropy range (max H - min H), shared by both players
    betas: tuple[float, float, float, float]
    l_spmp: float

    def __post_init__(self):
        b11, b12, b21, b22 = self.betas
        expected = max(b11 * self.r2, b22 * self.r2, b12 * self.r2, b21 * self.r2)
        if not math.isclose(self.l_spmp, expected, rel_tol=1e-9):
            raise ValueError("inconsistent smoothness bundle")


def polytope_diameter_sq(task: Task) -> float:
    """max ||phi(y) - phi(y')||_2^2 over the output space."""
    if isinstance(task, (MulticlassTask, OrdinalTask)):
        return 2.0
    if isinstance(task, ChainTask):
        return 4.0 * task.M - 2.0
    if isinstance(task, RankingTask):
        return 2.0 * task.M
    raise ValueError(f"unknown task {task!r}")


def spmp_constants(task: Task) -> MirrorMap:
    """Per-task mirror map with the theory step-size constant.

    Chains (and simplex tasks as length-1 chains) use
    max_m ||L_m||_2 * diam(M)^2 * M log R; rankings use M.
    """
    diam2 = polytope_diameter_sq(task)
    if isinstance(task, (MulticlassTask, OrdinalTask)):
        if isinstance(task, OrdinalTask):
            a_norm = float(np.linalg.norm(task.loss_matrix(), 2))
        else:
            a_norm = 1.0
        r2 = math.log(task.k)
        b = a_norm * diam2
        return MirrorMap(
            kind=task.kind,
            entropy=simplex_entropy,
            sigma=1.0,
            r2=r2,
            betas=(0.0, b, b, b),
            l_spmp=b * r2,
        )
    if isinstance(task, ChainTask):
        lm_norm = float(np.linalg.norm(task.part_loss_matrix(), 2))
        r2 = task.M * math.log(task.R)
        b = lm_norm * diam2
        return MirrorMap(
            kind=task.kind,
            entropy=lambda mu, _t=task: chain_entropy(mu, _t),
            sigma=1.0,
            r2=r2,
            betas=(0.0, b, b, b),
            l_spmp=b * r2,
        )
    if isinstance(task, RankingTask):
        return MirrorMap(
            kind=task.kind,
            entropy=birkhoff_entropy,
            sigma=1.0,
            r2=float(task.M),
            betas=(0.0, 1.0, 1.0, 1.0),
            l_spmp=float(task.M),
        )
    raise ValueError(f"unknown task {task!r}")
