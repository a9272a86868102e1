"""Block-coordinate Frank-Wolfe training on the kernelized dual.

The regularized empirical risk minimizer is computed entirely in the dual:
each training example i carries a polytope point mu_i, the primal score map
is represented through kernel coefficients C_i = (mu_i - phi(y_i)) / (lambda
n), and the score at x is g(x) = -sum_j k(x, x_j) C_j.  Per iteration one
block is re-solved: through the saddle-point oracle for the max-min method
("m4n"), or through loss-augmented decoding for the margin baseline ("m3n").
Each m4n block update is one row of a call of the oracle's engine,
`spmp_solve_batch_simplex`, at step=`oracle.FIXED_STEP`, its one
fixed-step caller, from the block's last saddle iterates with warm
starts, else uniform.  The block then moves to (1 - gamma) mu_i + gamma d,
d the direction.  m3n takes the paper's gamma_t = 2n / (t + 2n).  m4n
takes the best of `LINE_SEARCH` and gamma_t for the dual objective along
that segment (`_line_search`): 0 is a candidate, so the dual objective
never falls.  The search is m4n's alone, because the objective it
maximizes is m4n's dual; the margin baseline's dual has a linear loss term
in place of the Bayes term.  Each pass's record gives the mean step taken
and the number of steps at 0.

A pass draws its n blocks up front and walks them in windows.  A window
starts at the next uncommitted block and runs on while the example of its
last block took a step of exactly 0 at its last update, up to the pass's
end and stopping short of an example already in the window.  The window's
scores, each one block's one-row product, go to one engine call, and its
rows' line searches to one `bayes_risk` call, row r at
gamma_t = 2n / (t + r + 2n).  Its rows are then committed in order through the first that
moves, and the rest are dropped, warm starts untouched; the next window
starts at the first dropped row.  A zero step leaves mu_i, its
coefficients and so every later block's scores bit for bit as they were,
and the engine's rows and `bayes_risk`'s columns are independent bit for
bit, so every committed row equals the one-block-per-call loop's: the
prediction that an example stays only decides how much work is
speculative.  m3n's gamma_t is never 0, so its windows are single blocks
and its loss-augmented scores keep their one-row product.  Each pass's
record counts its engine calls (`block_calls`) and its dropped rows
(`discarded_rows`).

Certificates never feed back into training, so they are all taken after
the last pass: each pass's dual state and each block update's scores and
averaged iterates are kept in (passes, n, dim) arrays, then one
`dual_gap` call (one engine call over every pass's examples, adaptive at
step=None, with restarted averaging) gives each pass's dual gap and its
lower bound, and one `certified_gap` call gives each pass's mean block
oracle gap.  The engine is row-independent, its adaptive steps and
restarts included, so each pass's dual gap equals that of certifying the
pass alone; certification memory is O(passes n dim).
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelSpec, cross_gram, gram
from .oracle import FIXED_STEP, certified_gap, spmp_solve_batch_simplex
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

# the m4n block step's candidates beside 2n / (t + 2n), chosen by
# measurement (README): 0 first, so the dual objective never falls
LINE_SEARCH = np.linspace(0.0, 1.0, 65)


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
        if not 0 < self.lam < math.inf:  # also rejects nan
            raise ValueError("lambda must be positive and finite")
        if self.passes < 1:
            raise ValueError("passes must be >= 1")
        if self.spmp_iters < 1 or self.gap_oracle_iters < 1:
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


@dataclass
class TrainReport:
    """One record per pass.  `wall_s` runs through the pass's block updates
    and dual objective; `certify_s`, the same on every record, is the
    training's certification."""

    records: list[dict] = field(default_factory=list)


def _scores_from_gram(K_rows: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Score vectors g(x) for rows of a kernel matrix against the sample."""
    return -(K_rows @ coeffs)


def _features(xs) -> np.ndarray:
    """Inputs as an (n, d) matrix; a 1-D array is n inputs of one feature, as in `kernels`."""
    xs = np.asarray(xs, dtype=float)
    return xs[:, None] if xs.ndim == 1 else np.atleast_2d(xs)


def predict(model: DualModel, xs: np.ndarray) -> list:
    """Decode the score map at each input row."""
    G = cross_gram(_features(xs), model.xs, model.kernel)
    # the (dim, B) column stack decode takes, in one gemm: negating the small operand is exact
    return model.task.decode((-model.kernel_coeffs.T) @ G.T)


def dual_gap(
    model: DualModel,
    K_gram: np.ndarray | None = None,
    *,
    oracle_iters: int,
    mu: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (upper, lower) on the dual suboptimality, averaged over examples.

    Per example:  max_mu' H_i(mu', w) - H_i(mu_i, w)  with
    H_i(mu, w) = bayes(mu) + g(x_i)^T (mu - phi(y_i)); the inner max is
    bounded from above through the oracle's min player nu_i.  The phi(y_i)
    terms cancel, so the bound is the certified saddle gap of the scores
    g(x_i) at (mu_i, nu_i), the scores taken from the coefficients
    (mu - phi(y)) / (lambda n) of the state.

    The lower bound is H_i(mu_bar_i) - H_i(mu_i), from the same call's
    averaged max player mu_bar_i: the upper bound less the gap the oracle's
    own pair (mu_bar_i, nu_bar_i) certifies.  Both sides come from one
    `certified_gap` call.

    mu is the dual state, model.dual_mu by default.  Both bounds are means
    per state, shaped mu.shape[:-2]: 0-d for one (n, dim) state, P for a
    (P, n, dim) stack.  One engine call covers every example of every
    state, adaptive at step=None, for oracle_iters rounds (the training's
    `gap_oracle_iters`) in `oracle.RESTARTS` segments, each restarted from
    the last one's average; (mu_bar_i, nu_bar_i) is the last segment's
    average.  Each row's steps, restarts and iterates depend on that row
    alone, so a state's bounds do not depend on what it is stacked with.
    """
    task = model.task
    if K_gram is None:
        K_gram = gram(model.xs, model.kernel)
    mu = model.dual_mu if mu is None else np.asarray(mu, dtype=float)
    states = mu.reshape(-1, model.n, task.embed_dim)
    coeffs = (states - model.embedded_labels()) / (model.lam * model.n)
    V = _scores_from_gram(K_gram, coeffs).reshape(-1, task.embed_dim)
    mu_bar, nu_bar = spmp_solve_batch_simplex(V, task, oracle_iters, step=None)[:2]
    # gaps at (mu_i, nu_bar_i), then at (mu_bar_i, nu_bar_i)
    both = certified_gap(np.concatenate([states.reshape(V.shape), mu_bar]),
                         np.concatenate([nu_bar, nu_bar]), np.concatenate([V, V]), task)
    gaps = both[:len(V)].reshape(states.shape[:2])
    lower = gaps - both[len(V):].reshape(gaps.shape)
    return gaps.mean(axis=1).reshape(mu.shape[:-2]), lower.mean(axis=1).reshape(mu.shape[:-2])


def _line_search(task: Task, mu: np.ndarray, D: np.ndarray, V: np.ndarray,
                 curvature: list[float], gamma_t: list[float]) -> list[tuple[float, float]]:
    """The m4n block steps of a window's rows: (gamma, n times the dual objective's gain) each.

    Moving block i from mu_i toward d by gamma changes the dual objective by
    1/n times  bayes((1-gamma) mu_i + gamma d) - bayes(mu_i) + gamma v_i.delta
    - gamma^2 curvature |delta|^2 / 2,  with delta = d - mu_i, v_i the block's
    scores and curvature K_ii / (lambda n).  Row r's candidates are
    LINE_SEARCH, whose first entry is 0, and its gamma_t.  Every row's points
    go to `bayes_risk` as one column stack, each column the point the step
    itself computes, and each row's dot products are taken on its own
    vectors: `bayes_risk` works per column, so a row's step does not depend
    on the rows searched beside it.
    """
    gammas = np.empty((len(mu), len(LINE_SEARCH) + 1))
    gammas[:, :-1] = LINE_SEARCH
    gammas[:, -1] = gamma_t
    # (dim, rows, candidates): row r's points are columns of one C-contiguous stack
    points = mu.T[:, :, None] * (1.0 - gammas)
    points += D.T[:, :, None] * gammas
    bayes = task.bayes_risk(points.reshape(len(points), -1)).reshape(gammas.shape)
    delta = D - mu
    slope, square = np.array([(float(v_i @ d_i), float(d_i @ d_i)) for v_i, d_i in zip(V, delta)]).T
    bend = 0.5 * np.asarray(curvature) * square
    gains = bayes - bayes[:, :1] + gammas * slope[:, None] - gammas ** 2 * bend[:, None]
    best = gains.argmax(axis=1)  # the first best: gamma = 0 unless a step gains
    return [(float(g[j]), float(gain[j])) for g, gain, j in zip(gammas, gains, best)]


# the engine's error names a row of its stack, here a window row
_ENGINE_ROW = re.compile(r"row (\d+)\)")


def _train(data, task: Task, cfg: TrainConfig, method: str) -> tuple[DualModel, TrainReport]:
    xs, ys = data
    xs = _features(xs)
    ys = list(ys)
    n = len(ys)
    if n == 0:
        raise ValueError("empty training set")
    if len(xs) != n:
        raise ValueError(f"{len(xs)} feature rows for {n} labels")
    Phi = np.stack([task.embed(y) for y in ys])  # embed checks each label
    kernel = cfg.kernel or KernelSpec("gaussian", 1.0)
    K_gram = gram(xs, kernel)
    if not np.all(np.isfinite(K_gram)):
        raise ValueError("non-finite kernel values")

    mu = Phi.copy()
    coeffs = np.zeros_like(Phi)
    model = DualModel(
        task=task, kernel=kernel, xs=xs, ys=ys, lam=cfg.lam,
        dual_mu=mu, kernel_coeffs=coeffs,
    )

    rng = np.random.default_rng(cfg.seed)
    # each example's start (mu, nu): uniform, or with warm starts its last saddle iterates
    start = np.tile(task.uniform_state(), (n, 2, 1))
    # whether each example's last step was exactly 0: a window runs on past such an example
    stays = [False] * n
    # certified after training: each pass's dual state, and each block
    # update's scores and averaged saddle iterates (m4n only)
    shape = (cfg.passes, n, task.embed_dim)
    mu_passes = np.empty(shape)
    if method == "m4n":
        block_v, block_mu, block_nu = np.empty(shape), np.empty(shape), np.empty(shape)
    dual_objs, walls, steps = [], [], np.empty((cfg.passes, n))
    block_calls, discarded = [0] * cfg.passes, [0] * cfg.passes

    t = 0
    t0 = time.perf_counter()
    for p in range(cfg.passes):
        order = [int(rng.integers(n)) for _ in range(n)]
        b = 0
        while b < n:
            # the window: blocks b, b+1, ... while the last one's example is
            # predicted to stay, up to the pass's end or a repeated example
            win = [order[b]]
            while stays[win[-1]] and b + len(win) < n and order[b + len(win)] not in win:
                win.append(order[b + len(win)])
            V = np.stack([_scores_from_gram(K_gram[i], coeffs) for i in win])
            gammas = [2.0 * n / (t + r + 2.0 * n) for r in range(len(win))]  # each row's gamma_t
            if method == "m4n":
                init = start[win]
                try:
                    mu_bar, nu_bar, mu_last, nu_last = spmp_solve_batch_simplex(
                        V, task, cfg.spmp_iters, step=FIXED_STEP, init=(init[:, 0], init[:, 1])
                    )
                except RuntimeError as exc:
                    named = _ENGINE_ROW.sub(lambda m: f"example {win[int(m[1])]}, pass {p + 1})", str(exc), count=1)
                    raise RuntimeError(named) from exc
                block_calls[p] += 1
                directions = mu_bar
                curvature = [K_gram[i, i] / (cfg.lam * n) for i in win]
                gammas = [g for g, _ in _line_search(task, mu[win], mu_bar, V, curvature, gammas)]
            else:
                directions = [task.embed(task.decode(task.apply_loss_matrix(Phi[i]) + v_i)) for i, v_i in zip(win, V)]
            # commit in order through the first row that moves: the rows after it read a stale state
            for r, (i, gamma) in enumerate(zip(win, gammas)):
                if method == "m4n":
                    block_v[p, b + r], block_mu[p, b + r], block_nu[p, b + r] = V[r], mu_bar[r], nu_bar[r]
                    if cfg.warm_start:
                        start[i] = mu_last[r], nu_last[r]
                steps[p, b + r] = gamma
                mu[i] = (1.0 - gamma) * mu[i] + gamma * directions[r]
                coeffs[i] = (mu[i] - Phi[i]) / (cfg.lam * n)
                stays[i] = gamma == 0.0
                if gamma != 0.0:
                    break
            discarded[p] += len(win) - (r + 1)
            b += r + 1
            t += r + 1
        mu_passes[p] = mu
        w_sq = float(np.einsum("ij,ij->", K_gram @ coeffs, coeffs))
        dual_objs.append(float(np.mean(task.bayes_risk(mu.T))) - 0.5 * cfg.lam * w_sq)
        walls.append(time.perf_counter() - t0)

    t_cert = time.perf_counter()
    gaps, lowers = dual_gap(model, K_gram=K_gram, oracle_iters=cfg.gap_oracle_iters, mu=mu_passes)
    negative = np.flatnonzero(gaps < -1e-6)
    if negative.size:
        raise RuntimeError(f"negative dual gap {float(gaps[negative[0]])} at pass {negative[0] + 1}")
    if method == "m4n":
        rows = (a.reshape(-1, task.embed_dim) for a in (block_mu, block_nu, block_v))
        oracle_gaps = certified_gap(*rows, task).reshape(cfg.passes, n).mean(axis=1)
    else:
        oracle_gaps = np.zeros(cfg.passes)
    certify_s = time.perf_counter() - t_cert
    return model, TrainReport([
        {"pass": p + 1, "dual_objective": dual_objs[p], "primal_upper": dual_objs[p] + float(gaps[p]),
         "dual_gap": float(gaps[p]), "dual_gap_lower": float(lowers[p]),
         "mean_oracle_gap": float(oracle_gaps[p]), "mean_step": float(steps[p].mean()),
         "zero_steps": int(np.count_nonzero(steps[p] == 0.0)), "block_calls": block_calls[p],
         "discarded_rows": discarded[p], "wall_s": walls[p], "certify_s": certify_s}
        for p in range(cfg.passes)
    ])


def gbcfw_train(data, task: Task, cfg: TrainConfig) -> tuple[DualModel, TrainReport]:
    """Train the max-min method: block updates through the saddle oracle."""
    return _train(data, task, cfg, "m4n")


def m3n_train(data, task: Task, cfg: TrainConfig) -> tuple[DualModel, TrainReport]:
    """Margin baseline: block updates through loss-augmented decoding."""
    return _train(data, task, cfg, "m3n")
