import dataclasses
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from maxminsp import calibration, oracle, trainer
from maxminsp.datasets import synth_blobs, synth_hmm, synth_ranking
from maxminsp.kernels import KernelSpec, gram, median_heuristic
from maxminsp.oracle import certified_gap, spmp_solve_batch_simplex
from maxminsp.projections import SinkhornConvergenceError
from maxminsp.tasks import ChainTask, MulticlassTask, OrdinalTask, RankingTask
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


def coeffs_from_scratch(model):
    """The kernel coefficients (mu_i - phi(y_i)) / (lambda n) of the model's dual state."""
    return (model.dual_mu - model.embedded_labels()) / (model.lam * model.n)


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




@pytest.fixture(scope="module")
def binary_training():
    """One example of two classes at lambda 1, trained for 400 passes."""
    cfg = TrainConfig(passes=400, lam=1.0, spmp_iters=200, kernel=KernelSpec("gaussian", gamma=1.0), seed=0)
    return gbcfw_train((np.zeros((1, 1)), [1]), MulticlassTask(k=2), cfg)


def test_one_example_binary_reaches_dual_optimum(binary_training):
    xs = np.zeros((1, 1))
    task = MulticlassTask(k=2)
    kern = KernelSpec("gaussian", gamma=1.0)
    best, mu_star = _dual_objective_grid(task, 1.0, k_self=1.0)
    assert np.max(np.abs(mu_star - 0.5)) < 1e-4
    model, report = binary_training
    assert abs(best - (-0.75 + task.offset)) < 1e-8
    # the trainer reports the objective without the loss offset
    assert abs(report.records[-1]["dual_objective"] - (best - task.offset)) < 1e-4
    gap, _ = dual_gap(model, K_gram=gram(xs, kern), oracle_iters=4000)
    assert gap <= 1e-4


def test_restarted_certificate_reaches_the_exact_gap(binary_training):
    # the trained state's exact gap is about 1e-8; at the default 500
    # rounds one uniform average certifies 1e-3, and restarts without the
    # step reset 7e-5
    model, _ = binary_training
    gap, _ = dual_gap(model, oracle_iters=500)
    assert gap <= 1e-6


def test_fresh_model_dual_gap_two_thirds():
    xs = np.zeros((4, 2))
    xs[:, 0] = np.arange(4)
    ys = [1, 2, 3, 1]
    task = MulticlassTask(k=3)
    model = fresh_model(task, KernelSpec("gaussian", gamma=0.5), xs, ys, lam=0.1)
    gap, _ = dual_gap(model, oracle_iters=3000)
    assert abs(gap - 2.0 / 3.0) < 1e-3


def test_kernel_coeffs_invariant_holds_after_training():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(30, 2))
    ys = [int(rng.integers(1, 4)) for _ in range(30)]
    task = MulticlassTask(k=3)
    cfg = TrainConfig(passes=3, lam=0.2, spmp_iters=10, seed=1,
                      kernel=KernelSpec("gaussian", gamma=1.0))
    model, _ = gbcfw_train((xs, ys), task, cfg)
    assert np.max(np.abs(model.kernel_coeffs - coeffs_from_scratch(model))) < 1e-10


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
    # budgets are rejected at construction, before any training: no pass
    # would leave an empty report, and a zero certification budget would
    # fail only after every pass had trained
    for bad in ({"spmp_iters": 0}, {"passes": 0}, {"passes": -1},
                {"gap_oracle_iters": 0}, {"gap_oracle_iters": -1}):
        with pytest.raises(ValueError, match="must be >= 1"):
            TrainConfig(**bad)


def test_empty_training_set_rejected():
    with pytest.raises(ValueError):
        gbcfw_train((np.zeros((0, 2)), []), MulticlassTask(k=2), TrainConfig())


def test_one_dimensional_features_are_one_feature_per_example():
    # a 1-D feature array trains and predicts as the same (n, 1) matrix
    xs = np.linspace(-1, 1, 6)
    ys = [1, 1, 1, 2, 2, 2]
    cfg = TrainConfig(passes=2, lam=0.1, spmp_iters=10, gap_oracle_iters=20)
    flat, flat_report = gbcfw_train((xs, ys), MulticlassTask(2), cfg)
    col, col_report = gbcfw_train((xs[:, None], ys), MulticlassTask(2), cfg)
    assert np.array_equal(flat.dual_mu, col.dual_mu)
    assert [r["dual_gap"] for r in flat_report.records] == [r["dual_gap"] for r in col_report.records]
    assert predict(flat, xs) == predict(col, xs[:, None]) == predict(col, xs)


def test_feature_label_length_mismatch_rejected():
    for xs in (np.zeros((5, 2)), np.zeros(7)):
        with pytest.raises(ValueError, match=f"{len(xs)} feature rows for 6 labels"):
            gbcfw_train((xs, [1] * 6), MulticlassTask(k=2), TrainConfig())


def test_chain_training_end_to_end():
    data, task, kernel = hmm_chain_setup()
    cfg = TrainConfig(passes=3, lam=0.1, spmp_iters=20, gap_oracle_iters=100,
                      seed=0, kernel=kernel)
    model, report = gbcfw_train(data, task, cfg)
    assert np.max(np.abs(model.kernel_coeffs - coeffs_from_scratch(model))) < 1e-12
    for mu in model.dual_mu:
        task.check_state(mu)
    objs = [r["dual_objective"] for r in report.records]
    assert len(objs) == 3 and objs[-1] > objs[0]
    assert all(r["dual_gap"] >= 0 for r in report.records)
    for y in predict(model, data[0]):
        task.check_label(y)


def test_chain_dual_gap_matches_per_example_solves():
    # the certified bound must not move when the per-example oracle solves
    # are replaced by one solve over all examples: each row keeps its own
    # adaptive steps
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
        nu_bar = spmp_solve_batch_simplex(V[i], task, 60, step=None)[1][0]
        upper = np.max(E @ (task.apply_loss_matrix(nu_bar) + V[i])) - V[i] @ Phi[i]
        bayes = np.min(E @ task.apply_loss_matrix(model.dual_mu[i]))
        held = V[i] @ (model.dual_mu[i] - Phi[i]) + bayes
        per_example.append(upper - held)
    gap, _ = dual_gap(model, K_gram=K_gram, oracle_iters=60)
    assert abs(gap - float(np.mean(per_example))) < 1e-12


def exact_dual_gaps(model, mu=None):
    """Per-example gaps max_mu' H_i(mu') - H_i(mu_i), by a linprog LP over label mixtures.

    H_i(mu) = bayes(mu) + v_i . mu with the full loss; the max over the
    polytope runs over mixtures q of the labels, mu' = E^T q:
    max_q  min_y (L q)_y + (E v_i) . q.
    """
    task = model.task
    mu = model.dual_mu if mu is None else mu
    labels = list(task.labels())
    E = np.stack([task.embed(y) for y in labels])
    L = np.array([[task.loss(y, z) for z in labels] for y in labels])
    N = len(labels)
    coeffs = (mu - model.embedded_labels()) / (model.lam * model.n)
    V = _scores_from_gram(gram(model.xs, model.kernel), coeffs)
    gaps = []
    for v, m in zip(V, mu):
        # variables (q_1..q_N, t): maximize t + (E v) . q  s.t.  t <= (L q)_y, sum q = 1
        res = linprog(-np.r_[E @ v, 1.0], A_ub=np.hstack([-L, np.ones((N, 1))]), b_ub=np.zeros(N),
                      A_eq=np.r_[np.ones(N), 0.0][None, :], b_eq=[1.0],
                      bounds=[(0, None)] * N + [(None, None)], method="highs")
        assert res.status == 0, res.message
        # the Bayes risk of a point of the polytope, with the loss offset
        bayes = float(np.min(E @ task.apply_loss_matrix(m))) + task.offset
        gaps.append(-res.fun - bayes - float(v @ m))
    return np.array(gaps)


def _interval_setup(kind, size, M, R, n, scale, seed):
    """An untrained model on seeded random inputs, with a random state of the polytope."""
    task = {"multiclass": lambda: MulticlassTask(k=size), "ordinal": lambda: OrdinalTask(k=size),
            "chain": lambda: ChainTask(M=M, R=R), "ranking": lambda: RankingTask(M=M)}[kind]()
    rng = np.random.default_rng(seed)
    labels = list(task.labels())
    ys = [labels[j] for j in rng.integers(len(labels), size=n)]
    xs = rng.normal(size=(n, 2))
    model = fresh_model(task, KernelSpec("gaussian", gamma=0.5), xs, ys, lam=1.0 / scale)
    E = np.stack([task.embed(y) for y in labels])
    # a state between the observed labels and Dirichlet mixtures of all labels
    mix = rng.dirichlet(np.full(len(labels), 0.5), size=n) @ E
    w = rng.uniform(size=(n, 1))
    return model, w * model.dual_mu + (1 - w) * mix


@settings(derandomize=True, deadline=None, max_examples=25)
@given(kind=st.sampled_from(["multiclass", "ordinal", "chain", "ranking"]), size=st.integers(2, 5),
       M=st.integers(1, 3), R=st.integers(2, 3), n=st.integers(1, 5),
       scale=st.sampled_from([0.3, 3.0, 30.0]), K=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_gap_interval_brackets_the_exact_gap(kind, size, M, R, n, scale, K, seed):
    model, mu = _interval_setup(kind, size, M, R, n, scale, seed)
    upper, lower = dual_gap(model, oracle_iters=K, mu=mu)
    assert upper.shape == lower.shape == ()
    exact = float(np.mean(exact_dual_gaps(model, mu)))
    tol = 1e-7 * (1.0 + abs(exact))
    assert lower <= exact + tol
    assert exact <= upper + tol
    # the lower end is H_i(mu_bar_i) - H_i(mu_i), with H_i by label enumeration
    task = model.task
    V = _scores_from_gram(gram(model.xs, model.kernel), (mu - model.embedded_labels()) / (model.lam * n))
    mu_bar = spmp_solve_batch_simplex(V, task, K, step=None)[0]
    E = np.stack([task.embed(y) for y in task.labels()])

    def H(m):
        return np.min(m @ task.apply_loss_matrix(E.T), axis=1) + np.einsum("ij,ij->i", V, m)

    assert float(lower) == pytest.approx(float(np.mean(H(mu_bar) - H(mu))), rel=1e-9, abs=1e-12)


def test_hmm_chain_certified_gap_within_one_percent():
    # the benchmark's hmm-chain training: the certified gap at gap K=100
    # lies within 1% of the exact LP gap (6% at the worst-case step)
    ds, _, _ = synth_hmm(n=3, M=4, R=3, seed=0)
    task = ChainTask(M=4, R=3)
    cfg = TrainConfig(passes=2, lam=0.1, spmp_iters=20, gap_oracle_iters=100,
                      kernel=KernelSpec("gaussian", median_heuristic(ds.xs)))
    model, report = gbcfw_train((ds.xs, ds.ys), task, cfg)
    exact = float(np.mean(exact_dual_gaps(model)))
    final = report.records[-1]
    assert final["dual_gap_lower"] <= exact <= final["dual_gap"] <= 1.01 * exact


def dual_objective(model, K_gram, mu):
    """mean_i bayes(mu_i) - (lambda/2) |w|^2 of a dual state, from scratch, without the loss offset."""
    coeffs = (mu - model.embedded_labels()) / (model.lam * model.n)
    return float(np.mean(model.task.bayes_risk(mu.T))) - 0.5 * model.lam * float(np.sum(coeffs * (K_gram @ coeffs)))


def _traced_steps(train, data, task, cfg):
    """Train, recording every committed block step; returns (model, report, steps).

    A step's record holds its block i, drawn as the trainer draws it, the
    dual state before it (mu), its scores (v) and, for m4n, its row in its
    window's engine call, the oracle's averaged points (d, nu) and the line
    search's gamma_t argument, gamma and gain.  A block's record starts
    when the trainer takes its scores; an m4n window's engine call and line
    search fill in its rows, and the rows after the first that moves, which
    the trainer drops, are dropped here too.  A row after zero steps keeps
    the window's state as its mu.
    """
    models, steps = [], []
    model_cls, scores, engine, search = (trainer.DualModel, trainer._scores_from_gram,
                                         trainer.spmp_solve_batch_simplex, trainer._line_search)

    def scores_recording(K_rows, coeffs):
        v = scores(K_rows, coeffs)
        if K_rows.ndim == 1:  # a block's; dual_gap passes the whole Gram matrix
            steps.append({"mu": models[0].dual_mu.copy(), "v": v})
        return v

    def engine_recording(V, task, K, *, step=1.0, init=None):
        out = engine(V, task, K, step=step, init=init)
        if step is not None:  # a window's block updates, not certification
            window = steps[-len(V):]
            assert np.array_equal(V, np.stack([s["v"] for s in window]))
            for r, (s, d, nu) in enumerate(zip(window, out[0], out[1])):
                s.update(row=r, d=d, nu=nu)
        return out

    def search_recording(task, mu, D, V, curvature, gamma_t):
        found = search(task, mu, D, V, curvature, gamma_t)
        window = steps[-len(mu):]
        for s, g_t, (gamma, gain) in zip(window, gamma_t, found):
            s.update(gamma_t=g_t, gamma=gamma, gain=gain)
        moved = [r for r, (gamma, _) in enumerate(found) if gamma != 0.0]
        if moved:
            del steps[len(steps) - len(window) + moved[0] + 1:]
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "DualModel", lambda **kw: models.append(model_cls(**kw)) or models[-1])
        mp.setattr(trainer, "_scores_from_gram", scores_recording)
        mp.setattr(trainer, "spmp_solve_batch_simplex", engine_recording)
        mp.setattr(trainer, "_line_search", search_recording)
        model, report = train(data, task, cfg)
    rng = np.random.default_rng(cfg.seed)
    for s in steps:
        s["i"] = int(rng.integers(model.n))
    return model, report, steps


def _tiny_setup(kind, warm_start=True, n=6, passes=4, seed=0):
    """(data, task, config) of a seeded training on n random examples of a small task."""
    task = {"multiclass": MulticlassTask(3), "ordinal": OrdinalTask(4),
            "chain": ChainTask(M=3, R=2), "ranking": RankingTask(3)}[kind]
    rng = np.random.default_rng(seed)
    labels = list(task.labels())
    ys = [labels[j] for j in rng.integers(len(labels), size=n)]
    cfg = TrainConfig(passes=passes, lam=0.1, spmp_iters=10, gap_oracle_iters=20, warm_start=warm_start,
                      seed=seed, kernel=KernelSpec("gaussian", 0.5))
    return (rng.normal(size=(n, 2)), ys), task, cfg


def test_step_size_schedule():
    for train in (gbcfw_train, m3n_train):
        _check_block_steps(train)


def _check_block_steps(train):
    """Every committed block step of a seeded chain training moves its own
    block alone, to (1 - gamma) mu_i + gamma d: m3n at exactly gamma_t =
    2n / (t + 2n) toward its loss-augmented vertex, m4n at the line search's
    gamma in [0, 1] toward the oracle's point, with gamma_t among the
    candidates."""
    data, task, cfg = _certified_setups()[1]
    # 8 passes, so that some window commits a row after a zero step
    model, report, steps = _traced_steps(train, data, task, dataclasses.replace(cfg, passes=8))
    n, Phi = model.n, model.embedded_labels()
    assert len(steps) == 8 * n
    for t, (s, new) in enumerate(zip(steps, [s["mu"] for s in steps[1:]] + [model.dual_mu])):
        i, old = s["i"], s["mu"]
        gamma_t = 2.0 * n / (t + 2.0 * n)
        if train is m3n_train:
            assert "gamma" not in s
            gamma, d = gamma_t, task.embed(task.decode(task.apply_loss_matrix(Phi[i]) + s["v"]))
        else:
            assert s["gamma_t"] == gamma_t and 0.0 <= s["gamma"] <= 1.0
            gamma, d = s["gamma"], s["d"]
        assert np.array_equal(new[i], (1.0 - gamma) * old[i] + gamma * d)
        assert np.array_equal(np.delete(new, i, axis=0), np.delete(old, i, axis=0))
    # each pass's record reports its steps
    taken = [2.0 * n / (t + 2.0 * n) for t in range(len(steps))] if train is m3n_train else [s["gamma"] for s in steps]
    for p, rec in enumerate(report.records):
        assert rec["mean_step"] == pytest.approx(np.mean(taken[p * n:(p + 1) * n]), rel=1e-12)
        assert rec["zero_steps"] == taken[p * n:(p + 1) * n].count(0.0)
    if train is gbcfw_train:  # the search does move off the schedule
        assert any(s["gamma"] != s["gamma_t"] for s in steps)
        # and rows after zero steps in a window are committed at their own gamma_t
        assert any(s["row"] > 0 for s in steps)


@pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("kind", ["multiclass", "ordinal", "chain", "ranking"])
def test_m4n_dual_objective_never_falls_per_pass(kind, warm_start):
    data, task, cfg = _tiny_setup(kind, warm_start, passes=8)
    model, report = gbcfw_train(data, task, cfg)
    # the untrained state sits at the observed labels, where w = 0
    objs = [float(np.mean(task.bayes_risk(model.embedded_labels().T)))]
    objs += [r["dual_objective"] for r in report.records]
    assert all(b >= a - 1e-12 * (1.0 + abs(a)) for a, b in zip(objs, objs[1:])), objs
    assert objs[-1] > objs[0]


def test_m4n_dual_objective_never_falls_per_block_step():
    data, task, cfg = _tiny_setup("chain", warm_start=False, passes=6)
    model, _, steps = _traced_steps(gbcfw_train, data, task, cfg)
    K_gram = gram(model.xs, model.kernel)
    objs = [dual_objective(model, K_gram, s["mu"]) for s in steps] + [dual_objective(model, K_gram, model.dual_mu)]
    assert all(b >= a - 1e-12 * (1.0 + abs(a)) for a, b in zip(objs, objs[1:]))
    assert objs[-1] > objs[0]


@pytest.mark.parametrize("kind", ["multiclass", "ordinal", "chain", "ranking"])
def test_line_search_gain_is_the_dual_objective_change(kind):
    # the search's n * Delta D at the gamma it picks equals n times the change
    # of the dual objective recomputed from scratch: a wrong 1/(lambda n) or
    # K_ii in its quadratic term moves every step with gamma > 0
    data, task, cfg = _tiny_setup(kind)
    model, _, steps = _traced_steps(gbcfw_train, data, task, cfg)
    K_gram = gram(model.xs, model.kernel)
    after = [s["mu"] for s in steps[1:]] + [model.dual_mu]
    for s, new in zip(steps, after):
        change = model.n * (dual_objective(model, K_gram, new) - dual_objective(model, K_gram, s["mu"]))
        assert s["gain"] >= 0.0 and abs(s["gain"] - change) <= 1e-10
    assert sum(s["gamma"] > 0.0 for s in steps) >= len(steps) // 2


def _recorded_steps(monkeypatch, module):
    """Engine calls made through module are recorded: the step of each."""
    steps = []
    engine = module.spmp_solve_batch_simplex

    def recording(V, task, K, *, step=1.0, init=None):
        steps.append(step)
        return engine(V, task, K, step=step, init=init)

    monkeypatch.setattr(module, "spmp_solve_batch_simplex", recording)
    return steps


@pytest.mark.parametrize("task", [MulticlassTask(3), OrdinalTask(4), ChainTask(2, 2), RankingTask(3)],
                         ids=lambda t: t.kind)
def test_block_updates_alone_take_the_fixed_step(monkeypatch, task):
    # block updates pass one step on every polytope, stacked windows
    # included; dual-gap certification and the calibration search adapt,
    # from ADAPTIVE_START worst-case steps
    if task.kind in ("multiclass", "ordinal"):
        # the simplices' earlier calibration step, bit for bit
        assert oracle.FIXED_STEP / (2 * task.l_spmp) == 4.0 / task.l_spmp
    labels = list(task.labels())
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(6, 2))
    ys = [labels[j] for j in rng.integers(len(labels), size=6)]
    block = _recorded_steps(monkeypatch, trainer)
    cfg = TrainConfig(passes=4, lam=0.1, spmp_iters=5, gap_oracle_iters=5, seed=0,
                      kernel=KernelSpec("gaussian", 1.0))
    _, report = gbcfw_train((xs, ys), task, cfg)
    calls = sum(r["block_calls"] for r in report.records)
    assert block == [oracle.FIXED_STEP] * calls + [None]
    assert calls < cfg.passes * 6  # so some window stacked several rows
    if task.kind != "ranking":  # the Birkhoff search is too slow for tier-1
        search = _recorded_steps(monkeypatch, calibration)
        calibration.zeta_bruteforce(task, [0.1], search_budget=8, spmp_iters=5)
        assert search == [None]


def test_fixed_block_step_beats_the_worst_case_step(monkeypatch):
    # the same seeded chain training certifies a smaller final gap than with
    # every block update forced to the worst-case step
    ds, _, _ = synth_hmm(n=40, M=3, R=2, seed=0)
    task = ChainTask(M=3, R=2)
    cfg = TrainConfig(passes=3, lam=0.1, seed=0, kernel=KernelSpec("gaussian", median_heuristic(ds.xs)))
    fixed = gbcfw_train((ds.xs, ds.ys), task, cfg)[1].records[-1]["dual_gap"]
    engine = trainer.spmp_solve_batch_simplex

    def worst_case(V, task, K, *, step=1.0, init=None):
        # block updates at the worst-case step; certification still adapts
        return engine(V, task, K, step=None if step is None else 1.0, init=init)

    monkeypatch.setattr(trainer, "spmp_solve_batch_simplex", worst_case)
    worst = gbcfw_train((ds.xs, ds.ys), task, cfg)[1].records[-1]["dual_gap"]
    assert fixed < worst


def test_ranking_training_end_to_end():
    ds, _, _ = synth_ranking(n=12, M=3, seed=0)
    task = RankingTask(M=3)
    cfg = TrainConfig(passes=3, lam=0.1, spmp_iters=20, gap_oracle_iters=100, seed=0,
                      kernel=KernelSpec("gaussian", median_heuristic(ds.xs)))
    model, report = gbcfw_train((ds.xs, ds.ys), task, cfg)
    assert np.max(np.abs(model.kernel_coeffs - coeffs_from_scratch(model))) < 1e-12
    for y in predict(model, ds.xs):
        task.check_label(y)
    exact = float(np.mean(exact_dual_gaps(model)))
    final = report.records[-1]
    assert final["dual_gap_lower"] <= exact + 1e-9 and exact <= final["dual_gap"] + 1e-9
    assert final["dual_gap"] < report.records[0]["dual_gap"]


def _certified_setups():
    """(data, task, config) of a seeded simplex and chain training, 3 passes each."""
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(12, 2))
    ys = [int(rng.integers(1, 4)) for _ in range(12)]
    simplex = ((xs, ys), MulticlassTask(k=3),
               TrainConfig(passes=3, lam=0.1, spmp_iters=10, gap_oracle_iters=50, seed=2,
                           kernel=KernelSpec("gaussian", gamma=0.5)))
    data, task, kernel = hmm_chain_setup(n=6)
    chain = (data, task, TrainConfig(passes=3, lam=0.1, spmp_iters=10, gap_oracle_iters=50,
                                     seed=0, kernel=kernel))
    return [simplex, chain]


def _without_times(records):
    return [{k: v for k, v in r.items() if k not in ("wall_s", "certify_s")} for r in records]


@pytest.mark.parametrize("train", [gbcfw_train, m3n_train])
@pytest.mark.parametrize("setup", [0, 1], ids=["simplex", "chain"])
def test_records_of_fewer_passes_are_a_prefix(train, setup):
    # certifying all passes after training must give each pass the record it
    # would get as the last pass of a shorter training
    data, task, cfg = _certified_setups()[setup]
    _, full = train(data, task, cfg)
    for p in range(1, cfg.passes):
        _, short = train(data, task, dataclasses.replace(cfg, passes=p))
        assert _without_times(short.records) == _without_times(full.records[:p])


@pytest.mark.parametrize("setup", [0, 1], ids=["simplex", "chain"])
def test_stacked_dual_gap_equals_one_state_calls(setup):
    data, task, cfg = _certified_setups()[setup]
    models = [gbcfw_train(data, task, dataclasses.replace(cfg, passes=p))[0] for p in (1, 2, 3)]
    model = models[-1]
    K_gram = gram(model.xs, model.kernel)
    states = np.stack([m.dual_mu for m in models])
    stacked = np.stack(dual_gap(model, K_gram=K_gram, oracle_iters=50, mu=states))
    one_by_one = [np.stack(dual_gap(model, K_gram=K_gram, oracle_iters=50, mu=s)) for s in states]
    assert stacked.shape == (2, 3) and np.array_equal(stacked, np.stack(one_by_one, axis=1))
    # a state's interval is that of the model holding it, the default state
    held = [np.stack(dual_gap(m, K_gram=K_gram, oracle_iters=50)) for m in models]
    assert np.array_equal(np.stack(held), np.stack(one_by_one))
    assert len({float(u) for u, _ in one_by_one}) == 3


@pytest.mark.parametrize("setup", [0, 1], ids=["simplex", "chain"])
def test_mean_oracle_gap_averages_block_certificates(setup):
    # each pass's mean_oracle_gap is the mean certified gap of its committed
    # block updates' averaged iterates, each certified on its own
    data, task, cfg = _certified_setups()[setup]
    model, report, steps = _traced_steps(gbcfw_train, data, task, cfg)
    n = model.n
    block = [float(certified_gap(s["d"], s["nu"], s["v"], task)[0]) for s in steps]
    assert len(block) == cfg.passes * n
    for p, rec in enumerate(report.records):
        assert rec["mean_oracle_gap"] == pytest.approx(np.mean(block[p * n:(p + 1) * n]), rel=1e-12)


@pytest.mark.parametrize("train, block_calls, gap_calls", [
    (gbcfw_train, lambda passes, n: passes * n, 2),
    (m3n_train, lambda passes, n: 0, 1),
])
def test_training_certifies_once(monkeypatch, train, block_calls, gap_calls):
    # one dual_gap call, one engine call for every pass's dual gap beside
    # the block updates' calls, at most one per block, and one certified_gap
    # call for the dual gaps and one for the block gaps
    calls = {"engine": 0, "dual_gap": 0, "gap": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name, attr in [("engine", "spmp_solve_batch_simplex"), ("dual_gap", "dual_gap"), ("gap", "certified_gap")]:
        monkeypatch.setattr(trainer, attr, counting(name, getattr(trainer, attr)))
    data, task, cfg = _certified_setups()[0]
    _, report = train(data, task, cfg)
    block = sum(r["block_calls"] for r in report.records)
    assert calls == {"engine": block + 1, "dual_gap": 1, "gap": gap_calls}
    assert block <= block_calls(cfg.passes, len(data[1]))


def test_certify_time_covers_the_dual_gap_call(monkeypatch):
    # certify_s is the training's time in its dual_gap and block
    # certified_gap calls, the same on every pass's record
    engine = trainer.dual_gap

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return engine(*args, **kwargs)

    monkeypatch.setattr(trainer, "dual_gap", slow)
    data, task, cfg = _certified_setups()[0]
    _, report = gbcfw_train(data, task, cfg)
    certify = {r["certify_s"] for r in report.records}
    assert len(certify) == 1 and certify.pop() >= 0.2


def test_negative_dual_gap_names_first_pass(monkeypatch):
    monkeypatch.setattr(trainer, "dual_gap", lambda *a, **k: (np.array([0.5, -1.0, -2.0]), np.zeros(3)))
    data, task, cfg = _certified_setups()[0]
    with pytest.raises(RuntimeError, match="negative dual gap -1.0 at pass 2"):
        gbcfw_train(data, task, cfg)


def _one_line_search(task, mu_i, d, v_i, curvature, gamma_t):
    """One block's m4n step on its own: the best of LINE_SEARCH and gamma_t, its points in one `bayes_risk` call."""
    gammas = np.append(trainer.LINE_SEARCH, gamma_t)
    delta = d - mu_i
    points = np.multiply.outer(mu_i, 1.0 - gammas)
    points += np.multiply.outer(d, gammas)
    bayes = task.bayes_risk(points)
    gains = bayes - bayes[0] + gammas * float(v_i @ delta) - gammas ** 2 * (0.5 * curvature * float(delta @ delta))
    j = int(np.argmax(gains))
    return float(gammas[j]), float(gains[j])


def _sequential_train(data, task, cfg, method):
    """The one-block-per-call loop: each block drawn, solved and searched alone, in draw order.

    Returns the dual state, the kernel coefficients and each pass's record
    without its timings and window counts, certified as the trainer does.
    """
    xs, ys = np.asarray(data[0], dtype=float), list(data[1])
    n = len(ys)
    Phi = np.stack([task.embed(y) for y in ys])
    K_gram = gram(xs, cfg.kernel)
    mu, coeffs = Phi.copy(), np.zeros_like(Phi)
    rng = np.random.default_rng(cfg.seed)
    start = np.tile(task.uniform_state(), (n, 2, 1))
    shape = (cfg.passes, n, task.embed_dim)
    mu_passes, block_v, block_mu, block_nu = (np.empty(shape) for _ in range(4))
    dual_objs, steps = [], np.empty((cfg.passes, n))
    t = 0
    for p in range(cfg.passes):
        for b in range(n):
            i = int(rng.integers(n))
            v_i = _scores_from_gram(K_gram[i], coeffs)
            gamma = 2.0 * n / (t + 2.0 * n)
            if method == "m4n":
                mu_bar, nu_bar, mu_last, nu_last = spmp_solve_batch_simplex(
                    v_i, task, cfg.spmp_iters, step=oracle.FIXED_STEP, init=start[i])
                block_v[p, b], block_mu[p, b], block_nu[p, b] = v_i, mu_bar[0], nu_bar[0]
                direction = mu_bar[0]
                if cfg.warm_start:
                    start[i] = mu_last[0], nu_last[0]
                gamma = _one_line_search(task, mu[i], direction, v_i, K_gram[i, i] / (cfg.lam * n), gamma)[0]
            else:
                direction = task.embed(task.decode(task.apply_loss_matrix(Phi[i]) + v_i))
            steps[p, b] = gamma
            mu[i] = (1.0 - gamma) * mu[i] + gamma * direction
            coeffs[i] = (mu[i] - Phi[i]) / (cfg.lam * n)
            t += 1
        mu_passes[p] = mu
        w_sq = float(np.einsum("ij,ij->", K_gram @ coeffs, coeffs))
        dual_objs.append(float(np.mean(task.bayes_risk(mu.T))) - 0.5 * cfg.lam * w_sq)
    model = DualModel(task=task, kernel=cfg.kernel, xs=xs, ys=ys, lam=cfg.lam, dual_mu=mu, kernel_coeffs=coeffs)
    gaps, lowers = dual_gap(model, K_gram=K_gram, oracle_iters=cfg.gap_oracle_iters, mu=mu_passes)
    if method == "m4n":
        rows = (a.reshape(-1, task.embed_dim) for a in (block_mu, block_nu, block_v))
        oracle_gaps = certified_gap(*rows, task).reshape(cfg.passes, n).mean(axis=1)
    else:
        oracle_gaps = np.zeros(cfg.passes)
    return mu, coeffs, [
        {"pass": p + 1, "dual_objective": dual_objs[p], "primal_upper": dual_objs[p] + float(gaps[p]),
         "dual_gap": float(gaps[p]), "dual_gap_lower": float(lowers[p]),
         "mean_oracle_gap": float(oracle_gaps[p]), "mean_step": float(steps[p].mean()),
         "zero_steps": int(np.count_nonzero(steps[p] == 0.0))}
        for p in range(cfg.passes)
    ]


def _block_rows(monkeypatch):
    """Block engine calls made through the trainer are recorded: the rows of each."""
    rows = []
    engine = trainer.spmp_solve_batch_simplex

    def recording(V, task, K, *, step=1.0, init=None):
        if step is not None:
            rows.append(len(V))
        return engine(V, task, K, step=step, init=init)

    monkeypatch.setattr(trainer, "spmp_solve_batch_simplex", recording)
    return rows


@pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("train", [gbcfw_train, m3n_train], ids=["m4n", "m3n"])
@pytest.mark.parametrize("task", [MulticlassTask(3), OrdinalTask(5), ChainTask(M=3, R=2), RankingTask(3)],
                         ids=lambda t: t.kind)
def test_block_windows_equal_the_sequential_loop_bit_for_bit(monkeypatch, task, train, warm_start):
    # windows share one engine call and one line search among blocks after
    # zero steps, and drop the rows after the first that moves: the model
    # and the records equal those of one engine call per block
    rng = np.random.default_rng(11)
    labels = list(task.labels())
    n = 10
    data = (rng.normal(size=(n, 2)), [labels[j] for j in rng.integers(len(labels), size=n)])
    cfg = TrainConfig(passes=6, lam=0.05, spmp_iters=10, gap_oracle_iters=20, warm_start=warm_start,
                      seed=3, kernel=KernelSpec("gaussian", 0.5))
    mu, coeffs, records = _sequential_train(data, task, cfg, "m4n" if train is gbcfw_train else "m3n")
    rows = _block_rows(monkeypatch)
    model, report = train(data, task, cfg)
    assert np.array_equal(model.dual_mu, mu) and np.array_equal(model.kernel_coeffs, coeffs)
    counts = ("wall_s", "certify_s", "block_calls", "discarded_rows")
    assert [{k: v for k, v in r.items() if k not in counts} for r in report.records] == records
    if train is gbcfw_train:  # not a silent fall back to one block per call
        assert max(rows) > 1
    else:
        assert rows == []


@pytest.mark.parametrize("k", [5, 6])
def test_stacked_line_searches_equal_one_search_calls(k):
    # an ordinal Bayes term is a gemm, here of 66 columns per row: m rows'
    # searches in one call give each row's steps and gains, and each column's
    # Bayes term, bit for bit as a call of its own
    task = OrdinalTask(k)
    rng = np.random.default_rng(k)
    for m in (2, 3, 5, 8, 17):
        mu, D = rng.dirichlet(np.full(k, 0.5), size=m), rng.dirichlet(np.full(k, 0.5), size=m)
        V, curvature, gamma_t = rng.normal(size=(m, k)), rng.uniform(0.1, 10.0, size=m), rng.uniform(size=m)
        points = [np.multiply.outer(a, 1.0 - g) + np.multiply.outer(d, g)
                  for a, d, g in zip(mu, D, (np.append(trainer.LINE_SEARCH, g) for g in gamma_t))]
        stacked = task.bayes_risk(np.concatenate(points, axis=1))
        assert np.array_equal(stacked, np.concatenate([task.bayes_risk(P) for P in points]))
        alone = [_one_line_search(task, *row) for row in zip(mu, D, V, curvature.tolist(), gamma_t.tolist())]
        assert trainer._line_search(task, mu, D, V, curvature.tolist(), gamma_t.tolist()) == alone


@pytest.mark.parametrize("kind", ["multiclass", "chain"])
def test_block_counts_match_the_engine_calls(monkeypatch, kind):
    # each pass counts its block engine calls and the speculative rows it
    # dropped: the committed rows are one per block, and a rerun counts the same
    data, task, cfg = _tiny_setup(kind, n=10, passes=6)
    rows = _block_rows(monkeypatch)
    for passes in range(1, cfg.passes + 1):
        rows.clear()
        _, report = gbcfw_train(data, task, dataclasses.replace(cfg, passes=passes))
        counts = [(r["block_calls"], r["discarded_rows"]) for r in report.records]
        assert sum(c for c, _ in counts) == len(rows)
        assert passes * 10 + sum(d for _, d in counts) == sum(rows)
    assert all(isinstance(c, int) and isinstance(d, int) for c, d in counts)
    assert max(rows) > 1 and sum(d for _, d in counts) > 0
    _, again = gbcfw_train(data, task, cfg)
    assert [(r["block_calls"], r["discarded_rows"]) for r in again.records] == counts
    rows.clear()
    _, m3n = m3n_train(data, task, cfg)
    assert rows == [] and all(r["block_calls"] == r["discarded_rows"] == 0 for r in m3n.records)


def test_block_projection_failure_names_the_example(monkeypatch):
    # a ranking projection forced to fail on a column of a window's second
    # row: the error names that row's example, by its index in the training
    # set, and the pass, not the row of the window's stack
    data, task, cfg = _tiny_setup("ranking", n=10, passes=6)
    n = len(data[1])
    windows = []  # each block engine call's rows and committed rows
    engine, search = trainer.spmp_solve_batch_simplex, trainer._line_search

    def searching(*args):
        found = search(*args)
        moved = [r for r, (gamma, _) in enumerate(found) if gamma != 0.0]
        windows.append((len(found), moved[0] + 1 if moved else len(found)))
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "_line_search", searching)
        gbcfw_train(data, task, cfg)
    w = next(w for w, (size, _) in enumerate(windows) if size > 1)
    first = sum(c for _, c in windows[:w])  # the window's first block, counted over passes
    rng = np.random.default_rng(cfg.seed)
    draws = [int(rng.integers(n)) for _ in range(first + 2)]  # the trainer's scalar draws
    example, p = draws[first + 1], first // n + 1
    assert (first + 1) // n + 1 == p  # a window never crosses a pass
    project_stack = type(task).project_stack
    for col, player in [(1, "max"), (windows[w][0] + 1, "min")]:
        calls = {"block": 0, "armed": False}

        def counting(V, task, K, *, step=1.0, init=None):
            calls["block"] += step is not None
            calls["armed"] = step is not None and calls["block"] == w + 1
            return engine(V, task, K, step=step, init=init)

        def failing(self, L, G, eta):
            if calls["armed"]:
                raise SinkhornConvergenceError(1.0, 0, col)
            return project_stack(self, L, G, eta)

        monkeypatch.setattr(trainer, "spmp_solve_batch_simplex", counting)
        monkeypatch.setattr(type(task), "project_stack", failing)
        with pytest.raises(RuntimeError) as exc:
            gbcfw_train(data, task, cfg)
        assert f"iteration 0 ({player} player, example {example}, pass {p})" in str(exc.value)
        assert "row" not in str(exc.value)
