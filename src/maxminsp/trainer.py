"""Block-coordinate Frank-Wolfe training on the kernelized dual.

The regularized empirical risk minimizer is computed entirely in the dual:
each training example i carries a polytope point mu_i, the primal score map
is represented through kernel coefficients C_i = (mu_i - phi(y_i)) / (lambda
n), and the score at x is g(x) = -sum_j k(x, x_j) C_j.  Per iteration one
block is re-solved: through the saddle-point oracle for the max-min method
("m4n"), or through loss-augmented decoding for the margin baseline ("m3n").
Convex combination steps use gamma_t = 2n / (t + 2n).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelSpec, cross_gram, gram
from .oracle import _mirror_prox, certified_gap, spmp_solve
from .tasks import Task

__all__ = [
    "TrainConfig",
    "DualModel",
    "TrainReport",
    "gbcfw_train",
    "m3n_train",
    "dual_gap",
    "predict",
]


@dataclass(frozen=True)
class TrainConfig:
    passes: int = 5
    lam: float = 0.1
    spmp_iters: int = 20
    warm_start: bool = True
    seed: int = 0
    kernel: KernelSpec | None = None
    gap_oracle_iters: int = 500

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.spmp_iters < 1:
            raise ValueError("oracle budget must be >= 1")


@dataclass
class DualModel:
    """Kernelized dual state: per-example polytope points and coefficients."""

    task: Task
    kernel: KernelSpec
    xs: np.ndarray
    ys: list
    lam: float
    dual_mu: np.ndarray  # (n, k)
    kernel_coeffs: np.ndarray  # (n, k), row i = (mu_i - phi(y_i)) / (lam n)

    @property
    def n(self) -> int:
        return len(self.ys)

    def embedded_labels(self) -> np.ndarray:
        return np.stack([self.task.embed(y) for y in self.ys])

    def coeffs_from_scratch(self) -> np.ndarray:
        return (self.dual_mu - self.embedded_labels()) / (self.lam * self.n)


@dataclass
class TrainReport:
    records: list[dict] = field(default_factory=list)


def _scores_from_gram(K_rows: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Score vectors g(x) for rows of a kernel matrix against the sample."""
    return -(K_rows @ coeffs)


def predict(model: DualModel, xs: np.ndarray) -> list:
    """Decode the score map at each input row."""
    G = cross_gram(np.atleast_2d(np.asarray(xs, dtype=float)), model.xs, model.kernel)
    return model.task.decode(_scores_from_gram(G, model.kernel_coeffs))


def dual_gap(
    model: DualModel,
    K_gram: np.ndarray | None = None,
    oracle_iters: int = 500,
) -> float:
    """Upper bound on the dual suboptimality, averaged over examples.

    Per example:  max_mu' H_i(mu', w) - H_i(mu_i, w)  with
    H_i(mu, w) = bayes(mu) + g(x_i)^T (mu - phi(y_i)); the inner max is
    bounded from above through the oracle's min player nu_i.  The phi(y_i)
    terms cancel, so the bound is the certified saddle gap of the scores
    g(x_i) at (mu_i, nu_i).  One oracle solve covers all examples, with the
    task's certification step.
    """
    task = model.task
    if K_gram is None:
        K_gram = gram(model.xs, model.kernel)
    V = _scores_from_gram(K_gram, model.kernel_coeffs)
    X_bar, _ = _mirror_prox(V, task, oracle_iters, task.certify_eta)
    return float(np.mean(certified_gap(model.dual_mu, X_bar[model.n:], V, task)))


def _train(data, task: Task, cfg: TrainConfig, method: str) -> tuple[DualModel, TrainReport]:
    xs, ys = data
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = list(ys)
    n = len(ys)
    if n == 0:
        raise ValueError("empty training set")
    for y in ys:
        task.check_label(y)
    kernel = cfg.kernel or KernelSpec("gaussian", 1.0)
    K_gram = gram(xs, kernel)
    if not np.all(np.isfinite(K_gram)):
        raise ValueError("non-finite kernel values")

    Phi = np.stack([task.embed(y) for y in ys])
    mu = Phi.copy()
    coeffs = np.zeros_like(Phi)
    model = DualModel(
        task=task, kernel=kernel, xs=xs, ys=ys, lam=cfg.lam,
        dual_mu=mu, kernel_coeffs=coeffs,
    )
    report = TrainReport()

    rng = np.random.default_rng(cfg.seed)
    # last saddle iterates (mu, nu) of each example, uniform until visited
    warm = np.tile(task.uniform_state(), (n, 2, 1)) if cfg.warm_start else None

    t = 0
    t0 = time.perf_counter()
    for p in range(cfg.passes):
        pass_gaps = []
        for _ in range(n):
            i = int(rng.integers(n))
            v_i = _scores_from_gram(K_gram[i], coeffs)
            if method == "m4n":
                init = warm[i] if warm is not None else None
                res = spmp_solve(v_i, task, init=init, K=cfg.spmp_iters)
                direction = res.mu_bar
                pass_gaps.append(res.gap)
                if warm is not None:
                    warm[i] = res.mu_last, res.nu_last
            else:
                y_aug = task.decode(task.apply_loss_matrix(Phi[i]) + v_i)
                direction = task.embed(y_aug)
            gamma = 2.0 * n / (t + 2.0 * n)
            mu[i] = (1.0 - gamma) * mu[i] + gamma * direction
            coeffs[i] = (mu[i] - Phi[i]) / (cfg.lam * n)
            t += 1
        w_sq = float(np.einsum("ij,ij->", K_gram @ coeffs, coeffs))
        bayes = -task.max_oracle(-task.apply_loss_matrix(mu))
        dual_obj = float(np.mean(bayes)) - 0.5 * cfg.lam * w_sq
        gap = dual_gap(model, K_gram=K_gram, oracle_iters=cfg.gap_oracle_iters)
        report.records.append(
            {
                "pass": p + 1,
                "dual_objective": dual_obj,
                "primal_upper": dual_obj + gap,
                "dual_gap": gap,
                "mean_oracle_gap": float(np.mean(pass_gaps)) if pass_gaps else 0.0,
                "wall_s": time.perf_counter() - t0,
            }
        )
        if gap < -1e-6:
            raise RuntimeError(f"negative dual gap {gap} at pass {p + 1}")
    return model, report


def gbcfw_train(data, task: Task, cfg: TrainConfig) -> tuple[DualModel, TrainReport]:
    """Train the max-min method: block updates through the saddle oracle."""
    return _train(data, task, cfg, "m4n")


def m3n_train(data, task: Task, cfg: TrainConfig) -> tuple[DualModel, TrainReport]:
    """Margin baseline: block updates through loss-augmented decoding."""
    return _train(data, task, cfg, "m3n")
