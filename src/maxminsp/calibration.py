"""Brute-force estimation of calibration quantities on tiny tasks.

Relates the excess surrogate risk delta_s(v, mu) of a score vector v at a
conditional moment mu to the excess task risk delta_l of its decoded label.
The calibration curve zeta(eps) = inf { delta_s : delta_l >= eps } is
estimated by randomized search over score vectors and label mixtures, one
path for every task of at most six labels, solved by the oracle's engine
with adaptive steps and restarted averaging, as dual-gap certification
is; the linear constant C (optimal labels carry probability at least 1/C)
is each task's `constant_c`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .oracle import certified_gap, spmp_solve_batch_simplex
from .tasks import RankingTask, Task

__all__ = [
    "CalibrationEstimate",
    "zeta_bruteforce",
    "ranking_d_bound",
]

# standard deviation of the search scores; refinement rows use a quarter
_SCALE = 2.0


@dataclass
class CalibrationEstimate:
    zeta_lower: dict[float, float]
    # certified saddle gaps of the search rows at the engine's averaged pair
    search_gap_mean: float
    search_gap_max: float
    witnesses: dict[float, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def _excess_task_risk(task: Task, S: np.ndarray, Mu: np.ndarray, bayes=None) -> np.ndarray:
    """delta_l = risk of the decoded label under mu minus the Bayes risk.

    S and Mu are one vector each or (k, B) column stacks of scores and
    moments; bayes, when the caller has it, is `task.bayes_risk(Mu)`.
    Returns B values.
    """
    S, Mu = (np.asarray(x, dtype=float).reshape(len(x), -1) for x in (S, Mu))
    decoded = np.stack([task.embed(y) for y in task.decode(S)], axis=1)
    bayes = task.bayes_risk(Mu) if bayes is None else bayes
    return np.einsum("ij,ij->j", decoded, task.apply_loss_matrix(Mu)) - bayes


def zeta_bruteforce(
    task: Task,
    eps_grid: list[float],
    search_budget: int = 20000,
    seed: int = 0,
    spmp_iters: int = 1000,
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
    oracle solve at step=None (adaptive steps, restarted averaging), then
    one `bayes_risk` call on the averaged players and one on the moments,
    shared by delta_s and delta_l, cover every search row.  One
    `certified_gap` call on the averaged pairs gives the search rows' mean
    and largest saddle gap: a loose row can only lower an estimate.
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
    mu_bars, nu_bars = spmp_solve_batch_simplex(V, task, spmp_iters, step=None)[:2]
    gaps = certified_gap(mu_bars, nu_bars, V, task)

    def inner_min(Mu, bayes):
        # min_y F(phi(y), mu) = v.mu + min_y phi(y)^T A mu, row by row
        return np.einsum("ij,ij->i", V, Mu) + bayes

    MusT = np.ascontiguousarray(Mus.T)
    bayes = task.bayes_risk(MusT)
    ds = inner_min(mu_bars, task.bayes_risk(np.ascontiguousarray(mu_bars.T))) - inner_min(Mus, bayes)
    dl = _excess_task_risk(task, np.ascontiguousarray(V.T), MusT, bayes)

    estimate = CalibrationEstimate(zeta_lower={}, search_gap_mean=float(gaps.mean()),
                                   search_gap_max=float(gaps.max()))
    for eps in eps_grid:
        feasible = dl >= eps
        if not feasible.any():
            estimate.zeta_lower[eps] = math.inf
            continue
        idx = int(np.flatnonzero(feasible)[np.argmin(ds[feasible])])
        estimate.zeta_lower[eps] = max(float(ds[idx]), 0.0)
        estimate.witnesses[eps] = (V[idx].copy(), Mus[idx].copy())
    return estimate


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
