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


def test_step_size_schedule():
    # gamma_t = 2n/(t+2n): first step is a full step, then decreasing
    for n in (1, 10):
        gammas = [2 * n / (t + 2 * n) for t in range(3)]
        assert gammas[0] == 1.0 and gammas[0] > gammas[1] > gammas[2]


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
def test_fixed_step_callers_share_one_step(monkeypatch, task):
    # block updates and the calibration search pass one step on every
    # polytope; dual-gap certification alone adapts, from the worst-case step
    if task.kind in ("multiclass", "ordinal"):
        # the simplices' earlier calibration step, bit for bit
        assert oracle.FIXED_STEP / (2 * task.l_spmp) == 4.0 / task.l_spmp
    labels = list(task.labels())
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(6, 2))
    ys = [labels[j] for j in rng.integers(len(labels), size=6)]
    block = _recorded_steps(monkeypatch, trainer)
    cfg = TrainConfig(passes=1, lam=0.1, spmp_iters=5, gap_oracle_iters=5, seed=0,
                      kernel=KernelSpec("gaussian", 1.0))
    gbcfw_train((xs, ys), task, cfg)
    assert block == [oracle.FIXED_STEP] * 6 + [None]
    if task.kind != "ranking":  # the Birkhoff search is too slow for tier-1
        search = _recorded_steps(monkeypatch, calibration)
        calibration.zeta_bruteforce(task, [0.1], search_budget=8, spmp_iters=5)
        assert search == [oracle.FIXED_STEP]


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
def test_mean_oracle_gap_averages_block_certificates(monkeypatch, setup):
    # each pass's mean_oracle_gap is the mean certified gap of its block
    # updates' averaged iterates, each certified on its own
    data, task, cfg = _certified_setups()[setup]
    solves = []
    engine = trainer.spmp_solve_batch_simplex

    def recording(V, *args, **kwargs):
        out = engine(V, *args, **kwargs)
        solves.append((V, out))
        return out

    monkeypatch.setattr(trainer, "spmp_solve_batch_simplex", recording)
    _, report = gbcfw_train(data, task, cfg)
    n = len(data[1])
    block = [float(certified_gap(mu_bar, nu_bar, V, task)[0]) for V, (mu_bar, nu_bar, _, _) in solves[:-1]]
    assert len(block) == cfg.passes * n
    for p, rec in enumerate(report.records):
        assert rec["mean_oracle_gap"] == pytest.approx(np.mean(block[p * n:(p + 1) * n]), rel=1e-12)


@pytest.mark.parametrize("train, engine_calls, gap_calls", [
    (gbcfw_train, lambda passes, n: passes * n + 1, 2),
    (m3n_train, lambda passes, n: 1, 1),
])
def test_training_certifies_once(monkeypatch, train, engine_calls, gap_calls):
    # one engine call per block update plus one for every pass's dual gap;
    # one certified_gap call for the dual gaps and one for the block gaps
    calls = {"engine": 0, "gap": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(trainer, "spmp_solve_batch_simplex",
                        counting("engine", trainer.spmp_solve_batch_simplex))
    monkeypatch.setattr(trainer, "certified_gap", counting("gap", trainer.certified_gap))
    data, task, cfg = _certified_setups()[0]
    train(data, task, cfg)
    assert calls == {"engine": engine_calls(cfg.passes, len(data[1])), "gap": gap_calls}


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
