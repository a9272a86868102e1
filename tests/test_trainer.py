import itertools

import numpy as np
import pytest

from maxminsp.datasets import synth_blobs, synth_hmm
from maxminsp.kernels import KernelSpec, gram, median_heuristic
from maxminsp.oracle import spmp_solve
from maxminsp.tasks import ChainTask, MulticlassTask
from maxminsp.trainer import (
    DualModel,
    TrainConfig,
    _scores_from_gram,
    dual_gap,
    gbcfw_train,
    m3n_train,
    predict,
)


def fresh_model(task, kernel, xs, ys, lam):
    """Untrained model: every dual point sits at its observed label."""
    phi = np.stack([task.embed(y) for y in ys])
    return DualModel(
        task=task, kernel=kernel, xs=np.asarray(xs, dtype=float), ys=list(ys),
        lam=lam, dual_mu=phi.copy(), kernel_coeffs=np.zeros_like(phi),
    )


def hmm_chain_setup(n=10, seed=1):
    """A small seeded HMM training set with its chain task and kernel."""
    ds, _, _ = synth_hmm(n=n, M=3, R=2, seed=seed)
    kernel = KernelSpec("gaussian", median_heuristic(ds.xs))
    return (ds.xs, ds.ys), ChainTask(M=3, R=2), kernel


def _dual_objective_grid(task, lam, k_self):
    """Dense grid search over the one-example binary dual."""
    best = -np.inf
    arg = None
    phi1 = task.embed(1)
    for p in np.linspace(0.0, 1.0, 100001):
        mu = np.array([p, 1.0 - p])
        val = min(float(task.embed(y) @ task.apply_loss_matrix(mu)) for y in task.labels())
        c = (mu - phi1) / lam
        val -= 0.5 * lam * k_self * float(c @ c)
        if val > best:
            best, arg = val, mu
    return best + task.offset, arg


def test_step_size_schedule():
    # gamma_t = 2n/(t+2n): first step is a full step, then decreasing
    for n in (1, 10):
        gammas = [2 * n / (t + 2 * n) for t in range(3)]
        assert gammas[0] == 1.0 and gammas[0] > gammas[1] > gammas[2]


def test_one_example_binary_reaches_dual_optimum():
    xs = np.zeros((1, 1))
    ys = [1]
    task = MulticlassTask(k=2)
    kern = KernelSpec("gaussian", gamma=1.0)
    lam = 1.0
    best, mu_star = _dual_objective_grid(task, lam, k_self=1.0)
    assert np.max(np.abs(mu_star - 0.5)) < 1e-4
    cfg = TrainConfig(passes=400, lam=lam, spmp_iters=200, kernel=kern, seed=0)
    model, report = gbcfw_train((xs, ys), task, cfg)
    assert abs(best - (-0.75 + task.offset)) < 1e-8
    # the trainer reports the objective without the loss offset
    assert abs(report.records[-1]["dual_objective"] - (best - task.offset)) < 1e-4
    gap = dual_gap(model, K_gram=gram(xs, kern), oracle_iters=4000)
    assert gap <= 1e-4


def test_fresh_model_dual_gap_two_thirds():
    xs = np.zeros((4, 2))
    xs[:, 0] = np.arange(4)
    ys = [1, 2, 3, 1]
    task = MulticlassTask(k=3)
    model = fresh_model(task, KernelSpec("gaussian", gamma=0.5), xs, ys, lam=0.1)
    gap = dual_gap(model, oracle_iters=3000)
    assert abs(gap - 2.0 / 3.0) < 1e-3


def test_kernel_coeffs_invariant_holds_after_training():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(30, 2))
    ys = [int(rng.integers(1, 4)) for _ in range(30)]
    task = MulticlassTask(k=3)
    cfg = TrainConfig(passes=3, lam=0.2, spmp_iters=10, seed=1,
                      kernel=KernelSpec("gaussian", gamma=1.0))
    model, _ = gbcfw_train((xs, ys), task, cfg)
    assert np.max(np.abs(model.kernel_coeffs - model.coeffs_from_scratch())) < 1e-10


def test_m3n_direction_is_loss_augmented_vertex():
    task = ChainTask(M=3, R=2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.normal(size=task.embed_dim)
        y_obs = tuple(int(rng.integers(1, 3)) for _ in range(3))
        scores = task.apply_loss_matrix(task.embed(y_obs)) + v
        y_hat = task.decode(scores)
        best = max(
            float(task.embed(y) @ scores)
            for y in itertools.product((1, 2), repeat=3)
        )
        assert float(task.embed(y_hat) @ scores) >= best - 1e-12


def test_predict_with_zero_coefficients_is_first_label():
    xs = np.zeros((2, 1))
    task = MulticlassTask(k=3)
    model = fresh_model(task, KernelSpec("linear"), xs, [2, 3], lam=0.1)
    preds = predict(model, np.array([[0.5], [-9.0]]))
    assert preds == [1, 1]


def test_blob_test_error_near_bayes():
    ds, _, bayes_risk = synth_blobs(n=400, k=3, d=2, separation=3.0, seed=0)
    task = MulticlassTask(k=3)
    cfg = TrainConfig(passes=8, lam=0.05, spmp_iters=20, seed=0,
                      kernel=KernelSpec("gaussian", gamma=1.0))
    model, _ = gbcfw_train((ds.xs[:300], ds.ys[:300]), task, cfg)
    preds = predict(model, ds.xs[300:])
    err = float(np.mean([p != y for p, y in zip(preds, ds.ys[300:])]))
    assert err <= bayes_risk + 0.03


def test_training_is_seed_deterministic():
    rng = np.random.default_rng(2)
    xs = rng.normal(size=(40, 2))
    ys = [int(rng.integers(1, 4)) for _ in range(40)]
    task = MulticlassTask(k=3)
    cfg = TrainConfig(passes=2, lam=0.1, spmp_iters=10, seed=7,
                      kernel=KernelSpec("gaussian", gamma=0.5))
    m1, r1 = gbcfw_train((xs, ys), task, cfg)
    m2, r2 = gbcfw_train((xs, ys), task, cfg)
    assert (m1.dual_mu == m2.dual_mu).all()
    assert r1.records[-1]["dual_objective"] == r2.records[-1]["dual_objective"]


def test_dual_objective_improves_over_passes():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(60, 2))
    ys = [1 + int(x[0] > 0) for x in xs]
    task = MulticlassTask(k=2)
    cfg = TrainConfig(passes=6, lam=0.1, spmp_iters=20, seed=0,
                      kernel=KernelSpec("gaussian", gamma=1.0))
    _, report = gbcfw_train((xs, ys), task, cfg)
    objs = [r["dual_objective"] for r in report.records]
    gaps = [r["dual_gap"] for r in report.records]
    # stochastic ascent: overall improvement, near-monotone path, shrinking gap
    assert objs[-1] > objs[0]
    assert all(b >= a - 1e-3 for a, b in zip(objs, objs[1:]))
    assert gaps[-1] < gaps[0]


def test_m3n_trains_and_predicts():
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(60, 2))
    ys = [1 + int(x[0] > 0) for x in xs]
    task = MulticlassTask(k=2)
    cfg = TrainConfig(passes=6, lam=0.1, seed=0,
                      kernel=KernelSpec("gaussian", gamma=1.0))
    model, _ = m3n_train((xs, ys), task, cfg)
    preds = predict(model, xs)
    assert np.mean([p == y for p, y in zip(preds, ys)]) > 0.9


def test_invalid_config_rejected():
    for lam in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            TrainConfig(lam=lam)
    with pytest.raises(ValueError):
        TrainConfig(spmp_iters=0)


def test_empty_training_set_rejected():
    with pytest.raises(ValueError):
        gbcfw_train((np.zeros((0, 2)), []), MulticlassTask(k=2), TrainConfig())


def test_chain_training_end_to_end():
    data, task, kernel = hmm_chain_setup()
    cfg = TrainConfig(passes=3, lam=0.1, spmp_iters=20, gap_oracle_iters=100,
                      seed=0, kernel=kernel)
    model, report = gbcfw_train(data, task, cfg)
    assert np.max(np.abs(model.kernel_coeffs - model.coeffs_from_scratch())) < 1e-12
    for mu in model.dual_mu:
        task.check_state(mu)
    objs = [r["dual_objective"] for r in report.records]
    assert len(objs) == 3 and objs[-1] > objs[0]
    assert all(r["dual_gap"] >= 0 for r in report.records)
    for y in predict(model, data[0]):
        task.check_label(y)


def test_chain_dual_gap_matches_per_example_solves():
    # the certified bound must not move when the per-example oracle solves
    # are replaced by one solve over all examples
    data, task, kernel = hmm_chain_setup()
    cfg = TrainConfig(passes=1, lam=0.1, spmp_iters=20, gap_oracle_iters=20,
                      seed=0, kernel=kernel)
    model, _ = gbcfw_train(data, task, cfg)
    K_gram = gram(model.xs, kernel)
    V = _scores_from_gram(K_gram, model.kernel_coeffs)
    Phi = model.embedded_labels()
    E = np.stack([task.embed(y) for y in task.labels()])
    per_example = []
    for i in range(model.n):
        res = spmp_solve(V[i], task, K=60)
        upper = np.max(E @ (task.apply_loss_matrix(res.nu_bar) + V[i])) - V[i] @ Phi[i]
        bayes = np.min(E @ task.apply_loss_matrix(model.dual_mu[i]))
        held = V[i] @ (model.dual_mu[i] - Phi[i]) + bayes
        per_example.append(upper - held)
    gap = dual_gap(model, K_gram=K_gram, oracle_iters=60)
    assert abs(gap - float(np.mean(per_example))) < 1e-12
