"""Brute-force estimation of calibration quantities on tiny tasks.

Relates the excess surrogate risk delta_s(v, mu) of a score vector v at a
conditional moment mu to the excess task risk delta_l of its decoded label.
The calibration curve zeta(eps) = inf { delta_s : delta_l >= eps } is
estimated by randomized search over score vectors and label mixtures, with
one path for every task of at most six labels; the linear constant C
(optimal labels carry probability at least 1/C) is computed analytically
where possible and by randomized search otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .oracle import spmp_solve_batch_simplex
from .tasks import ChainTask, MulticlassTask, RankingTask, Task

__all__ = [
    "CalibrationEstimate",
    "zeta_bruteforce",
    "constant_c",
    "ranking_d_bound",
]

# standard deviation of the search scores; refinement rows use a quarter
_SCALE = 2.0


@dataclass
class CalibrationEstimate:
    task: Task
    epsilons: list[float]
    zeta_lower: dict[float, float]
    witnesses: dict[float, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def _excess_task_risk(task: Task, scores: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """delta_l = risk of the decoded label under mu minus the Bayes risk.

    scores and mu are one vector each or (B, k) stacks; returns B values.
    """
    S, Mu = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (scores, mu))
    a_mu = task.apply_loss_matrix(Mu)
    decoded = np.stack([task.embed(y) for y in task.decode(S)])
    return np.einsum("ij,ij->i", decoded, a_mu) + task.max_oracle(-a_mu)


def zeta_bruteforce(
    task: Task,
    eps_grid: list[float],
    search_budget: int = 20000,
    seed: int = 0,
    spmp_iters: int = 3000,
) -> CalibrationEstimate:
    """Randomized upper estimate of zeta(eps) with honest surrogate values.

    Samples score vectors v and moments mu, keeps the pairs whose decoded
    excess task risk reaches eps, and minimizes the (lower-bounded) excess
    surrogate risk over them.  The reported value can only overestimate the
    true infimum through limited search; the surrogate side itself is a
    certified lower bound, so reported zeta values never exceed the truth
    because of oracle error.

    Moments are Dirichlet mixtures of the task's embedded labels, so every
    task takes the same path; tasks with more than six labels are rejected.
    delta_s = Omega*(v) - v.mu - bayes(mu); Omega*(v) is bounded from below
    by the inner minimum at the oracle's averaged max player.  One batched
    oracle solve, with the task's certification step when it has one, then
    one max-oracle call per inner minimum covers every search row.
    """
    if task.n_labels() > 6:
        raise ValueError("output space too large for brute-force calibration")
    eps_grid = sorted(float(e) for e in eps_grid)
    rng = np.random.default_rng(seed)
    E = np.stack([task.embed(y) for y in task.labels()])
    n, k = E.shape
    B = search_budget
    V, Mus = rng.normal(size=(B, k)) * _SCALE, rng.dirichlet(np.ones(n), size=B) @ E
    # local refinement: resample near the polytope's vertices, where the
    # decoded label flips, the regime that pins the infimum
    V = np.vstack([V, rng.normal(size=(B // 2, k)) * (_SCALE / 4)])
    Mus = np.vstack([Mus, rng.dirichlet(0.5 * np.ones(n), size=B // 2) @ E])
    mu_bars = spmp_solve_batch_simplex(V, task, K=spmp_iters, eta=task.certify_eta)[0]

    def inner_min(Mu):
        # min_y F(phi(y), mu) = v.mu + min_y phi(y)^T A mu, row by row
        return np.einsum("ij,ij->i", V, Mu) - task.max_oracle(-task.apply_loss_matrix(Mu))

    ds = inner_min(mu_bars) - inner_min(Mus)
    dl = _excess_task_risk(task, V, Mus)

    estimate = CalibrationEstimate(task=task, epsilons=eps_grid, zeta_lower={})
    for eps in eps_grid:
        feasible = dl >= eps
        if not feasible.any():
            estimate.zeta_lower[eps] = math.inf
            continue
        idx = int(np.flatnonzero(feasible)[np.argmin(ds[feasible])])
        estimate.zeta_lower[eps] = max(float(ds[idx]), 0.0)
        estimate.witnesses[eps] = (V[idx].copy(), Mus[idx].copy())
    return estimate


def constant_c(task: Task, samples: int = 50000, seed: int = 0) -> float:
    """Smallest C such that some loss-minimizing label has probability 1/C.

    Multiclass 0-1 loss attains the bound at the uniform distribution
    (C = k); decomposable chain losses take the per-part value R.  Other
    losses are estimated by randomized search over label distributions.
    """
    if isinstance(task, MulticlassTask):
        return float(task.k)
    if isinstance(task, ChainTask):
        return float(task.R)
    if isinstance(task, RankingTask):
        return float(math.factorial(task.M))
    E = np.stack([task.embed(y) for y in task.labels()])
    n = len(E)
    loss = E @ task.apply_loss_matrix(E).T + task.offset
    rng = np.random.default_rng(seed)
    worst = 1.0
    for alpha_conc in (1.0, 0.3, 3.0):
        alphas = rng.dirichlet(alpha_conc * np.ones(n), size=samples)
        risks = alphas @ loss.T
        mins = risks.min(axis=1, keepdims=True)
        opt = risks <= mins + 1e-12
        best_mass = np.where(opt, alphas, -np.inf).max(axis=1)
        worst = min(worst, float(best_mass.min()))
    if worst <= 0:
        raise ValueError("degenerate loss: an optimal label can carry zero mass")
    return 1.0 / worst


def ranking_d_bound(M: int) -> float:
    """Certify the M-permutation decomposition of uniform ranking marginals.

    The cyclic shifts sigma_j(i) = ((i + j - 1) mod M) + 1 with weight 1/M
    average to the uniform doubly stochastic matrix, witnessing that the
    uniform point needs only M vertices rather than M factorial.
    """
    if not 1 <= M <= 5:
        raise ValueError("M must be in 1..5")
    task = RankingTask(M)
    mean = np.zeros(task.embed_dim)
    for j in range(M):
        sigma = tuple(((i + j) % M) + 1 for i in range(M))
        mean += task.embed(sigma) / M
    target = np.full(task.embed_dim, 1.0 / M)
    if np.max(np.abs(mean - target)) > 1e-12:
        raise AssertionError("cyclic decomposition failed to reproduce uniform marginals")
    return float(M)
