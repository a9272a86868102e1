"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS line with
the measured quantity, so a full run reads as a checklist.  Budgets are
per-criterion wall-clock limits asserted alongside the statistical checks.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from maxminsp.calibration import (
    _excess_task_risk,
    ranking_d_bound,
    zeta_bruteforce,
)
from maxminsp.cli import main as cli_main
from maxminsp.datasets import synth_blobs, synth_flatnoise, synth_ordinal
from maxminsp.kernels import KernelSpec, gram, median_heuristic
from maxminsp.oracle import spmp_solve, spmp_solve_batch_simplex
from maxminsp.projections import project, project_birkhoff_sinkhorn
from maxminsp.tasks import ChainTask, MulticlassTask, OrdinalTask
from maxminsp.trainer import TrainConfig, dual_gap, gbcfw_train, m3n_train, predict


def _report(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _binary_closed_form(v):
    return (v[0] + v[1]) / 2.0 + max(abs(v[0] - v[1]) / 2.0, 0.5)


def _ordinal_closed_form(v):
    k = len(v)
    return max(0.5 * (v[i] + v[j] + (j - i)) for i in range(k) for j in range(i, k))


def test_criterion_1_closed_form_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    n_checked = 0
    for task, form in [
        (MulticlassTask(k=2), _binary_closed_form),
        (OrdinalTask(k=3), _ordinal_closed_form),
        (OrdinalTask(k=4), _ordinal_closed_form),
    ]:
        k = task.embed_dim
        n_each = 200 // 3 + 1
        V = rng.normal(size=(n_each, k)) * 1.5
        mu_bars, nu_bars, _, _ = spmp_solve_batch_simplex(V, task, K=2000, step=16.0)
        for i in range(n_each):
            value = (
                float(nu_bars[i] @ task.apply_loss_matrix(mu_bars[i]))
                + float(V[i] @ mu_bars[i])
                + task.offset
            )
            worst = max(worst, abs(value - form(V[i])))
            n_checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 2e-3 and elapsed < 30
    _report(
        "criterion 1 closed-form oracle agreement",
        ok,
        f"worst |error| {worst:.2e} over {n_checked} solves (tol 2e-3), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_oracle_rate_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_ratio = 0.0
    for k in (3, 5):
        task = MulticlassTask(k=k)
        L = task.l_spmp
        V = rng.normal(size=(50, k)) * 2
        for K in (10, 40, 160):
            bound = 4.0 * L / K + 1e-6
            for i in range(50):
                res = spmp_solve(V[i], task, K=K)
                worst_ratio = max(worst_ratio, res.gap / bound)
                assert res.gap <= bound
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 1.0 and elapsed < 60
    _report(
        "criterion 2 oracle rate bound",
        ok,
        f"worst gap/bound ratio {worst_ratio:.3f} over 100 instances x K in (10,40,160), "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_projection_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)

    # chain projection vs exhaustive Gibbs enumeration
    worst_chain = 0.0
    n_chain = 0
    for _ in range(500):
        M = int(rng.integers(1, 4))
        R = int(rng.integers(2, 4))
        task = ChainTask(M=M, R=R)
        w = rng.dirichlet(np.ones(R**M))
        mu_prev = np.sum(
            [wi * task.embed(y) for wi, y in zip(w, task.labels())], axis=0
        )
        grad = rng.normal(size=task.embed_dim)
        eta = float(rng.uniform(0.2, 2.0))
        out = project(task, mu_prev, grad, eta)
        # exact Gibbs answer by enumerating all sequences
        probs = _gibbs_distribution(task, mu_prev, grad, eta)
        expect = np.sum(
            [p * task.embed(y) for p, y in zip(probs, task.labels())], axis=0
        )
        worst_chain = max(worst_chain, float(np.max(np.abs(out - expect))))
        n_chain += 1

    # Sinkhorn outputs are doubly stochastic
    worst_ds = 0.0
    for _ in range(200):
        M = int(rng.integers(2, 5))
        mu_prev = np.full(M * M, 1.0 / M)
        grad = rng.normal(size=M * M)
        out = project_birkhoff_sinkhorn(
            mu_prev, grad, float(rng.uniform(0.2, 1.5)), tol=1e-11
        )
        mat = out.reshape(M, M)
        worst_ds = max(
            worst_ds,
            float(np.max(np.abs(mat.sum(0) - 1))),
            float(np.max(np.abs(mat.sum(1) - 1))),
        )

    # simplex projection vs numeric Bregman minimization
    worst_simplex = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 6))
        mu_prev = rng.dirichlet(np.ones(k))
        grad = rng.normal(size=k)
        eta = float(rng.uniform(0.2, 2.0))
        out = project(MulticlassTask(k), mu_prev, grad, eta)
        ref = _numeric_simplex_bregman(mu_prev, grad, eta)
        worst_simplex = max(worst_simplex, float(np.max(np.abs(out - ref))))

    elapsed = time.perf_counter() - t0
    ok = worst_chain < 1e-9 and worst_ds < 1e-9 and worst_simplex < 1e-6 and elapsed < 120
    _report(
        "criterion 3 projection oracles",
        ok,
        f"chain vs Gibbs {worst_chain:.1e} (< 1e-9, {n_chain} inst), "
        f"Sinkhorn row/col {worst_ds:.1e} (< 1e-9), "
        f"simplex vs numeric {worst_simplex:.1e} (< 1e-6), {elapsed:.1f}s (< 120s)",
    )


def _gibbs_distribution(task, mu_prev, grad, eta):
    """Exact Gibbs reweighting over all sequences for tiny chains."""
    unaries_prev, pairs_prev = task.split(mu_prev)
    logp = []
    for y in task.labels():
        u, p = task.split(task.embed(y))
        s = eta * float(task.embed(y) @ grad)
        s += float(np.sum(p * np.log(np.maximum(pairs_prev, 1e-300))))
        if task.M >= 2:
            interior = u[1:-1] if task.M > 2 else u[0:0]
            s -= float(np.sum(interior * np.log(np.maximum(unaries_prev[1:-1], 1e-300))))
        if task.M == 1:
            s += float(np.sum(u * np.log(np.maximum(unaries_prev, 1e-300))))
        logp.append(s)
    logp = np.array(logp)
    logp -= logp.max()
    w = np.exp(logp)
    return w / w.sum()


def _numeric_simplex_bregman(mu_prev, grad, eta, iters=6000):
    """Exponentiated-gradient reference minimizer of the projection objective."""
    x = np.full_like(mu_prev, 1.0 / len(mu_prev))
    for it in range(iters):
        g = -eta * grad + np.log(np.maximum(x, 1e-300)) - np.log(np.maximum(mu_prev, 1e-300)) + 1
        step = 0.5
        x = x * np.exp(-step * g)
        x = np.maximum(x, 1e-300)
        x /= x.sum()
    return x


def test_criterion_4_training_gap_trend():
    t0 = time.perf_counter()
    task = MulticlassTask(k=3)
    ds, _, _ = synth_blobs(n=120, k=3, separation=3.0, seed=0)
    gamma = median_heuristic(ds.xs)
    pass_marks = (5, 10, 20, 40)
    gaps_by_mark = {p: [] for p in pass_marks}
    for seed in range(5):
        cfg = TrainConfig(
            passes=40, lam=0.1, spmp_iters=30, seed=seed, gap_oracle_iters=600,
            kernel=KernelSpec("gaussian", gamma=gamma),
        )
        _, report = gbcfw_train((ds.xs, ds.ys), task, cfg)
        for p in pass_marks:
            gaps_by_mark[p].append(report.records[p - 1]["dual_gap"])
    medians = [float(np.median(gaps_by_mark[p])) for p in pass_marks]
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    slope = float(
        np.polyfit(np.log(np.array(pass_marks, float)), np.log(medians), 1)[0]
    )
    elapsed = time.perf_counter() - t0
    ok = decreasing and slope <= -0.8 and elapsed < 180
    _report(
        "criterion 4 training gap trend",
        ok,
        f"median gaps {['%.4f' % m for m in medians]} strictly decreasing={decreasing}, "
        f"log-log slope {slope:.2f} (<= -0.8), {elapsed:.1f}s (< 180s)",
    )


def _bayes_agreement(method_train, ds, bayes, gamma, lam, seed):
    task = MulticlassTask(k=3)
    n_train = 1200
    xs_tr, ys_tr = ds.xs[:n_train], ds.ys[:n_train]
    xs_te, bayes_te = ds.xs[n_train:1600], bayes[n_train:1600]
    mean, std = xs_tr.mean(0), xs_tr.std(0)
    xs_tr = (xs_tr - mean) / std
    xs_te = (xs_te - mean) / std
    cfg = TrainConfig(
        passes=10, lam=lam, spmp_iters=20, seed=seed, gap_oracle_iters=100,
        kernel=KernelSpec("gaussian", gamma=gamma),
    )
    model, _ = method_train((xs_tr, ys_tr), task, cfg)
    preds = predict(model, xs_te)
    return float(np.mean([p == b for p, b in zip(preds, bayes_te)]))


def test_criterion_5_consistency_contrast():
    t0 = time.perf_counter()
    agree_m4n, agree_m3n = [], []
    for seed in range(5):
        ds, bayes, _ = synth_flatnoise(n=2000, probs=(0.4, 0.35, 0.25), seed=seed)
        gamma = 0.3 * median_heuristic(
            (ds.xs[:1200] - ds.xs[:1200].mean(0)) / ds.xs[:1200].std(0)
        )
        agree_m4n.append(_bayes_agreement(gbcfw_train, ds, bayes, gamma, 0.5, seed))
        agree_m3n.append(_bayes_agreement(m3n_train, ds, bayes, gamma, 0.5, seed))
    flat_ok = all(a >= 0.95 for a in agree_m4n) and all(a < 0.95 for a in agree_m3n)

    # near-deterministic regime: both methods land together
    ds, bayes, _ = synth_flatnoise(n=2000, probs=(0.98, 0.01, 0.01), seed=0)
    gamma = 0.3 * median_heuristic(
        (ds.xs[:1200] - ds.xs[:1200].mean(0)) / ds.xs[:1200].std(0)
    )
    a4 = _bayes_agreement(gbcfw_train, ds, bayes, gamma, 0.5, 0)
    a3 = _bayes_agreement(m3n_train, ds, bayes, gamma, 0.5, 0)
    det_ok = abs(a4 - a3) <= 0.01
    elapsed = time.perf_counter() - t0
    ok = flat_ok and det_ok and elapsed < 300
    _report(
        "criterion 5 consistency contrast",
        ok,
        f"flat-noise agreement max-min {['%.3f' % a for a in agree_m4n]} (all >= 0.95), "
        f"margin baseline {['%.3f' % a for a in agree_m3n]} (all < 0.95); "
        f"near-deterministic |diff| {abs(a4 - a3):.3f} (<= 0.01), {elapsed:.1f}s (< 300s)",
    )


def test_criterion_6_warm_start_effect():
    t0 = time.perf_counter()
    ds, _, _ = synth_ordinal(n=300, k=5, seed=0)
    task = OrdinalTask(k=5)
    gamma = median_heuristic(ds.xs)
    results = {}
    for K in (10, 50):
        for warm in (True, False):
            cfg = TrainConfig(
                passes=2, lam=0.1, spmp_iters=K, warm_start=warm, seed=0,
                gap_oracle_iters=100, kernel=KernelSpec("gaussian", gamma=gamma),
            )
            _, report = gbcfw_train((ds.xs, ds.ys), task, cfg)
            results[(K, warm)] = report.records[-1]["mean_oracle_gap"]
    ok_order = all(results[(K, True)] < results[(K, False)] for K in (10, 50))
    elapsed = time.perf_counter() - t0
    ok = ok_order and elapsed < 300
    _report(
        "criterion 6 warm-start effect",
        ok,
        f"final-epoch mean oracle gap warm/cold K=10: {results[(10, True)]:.3f}/"
        f"{results[(10, False)]:.3f}, K=50: {results[(50, True)]:.3f}/"
        f"{results[(50, False)]:.3f} (warm strictly lower), {elapsed:.1f}s (< 300s)",
    )


def test_criterion_7_calibration_constants():
    t0 = time.perf_counter()
    task = MulticlassTask(k=3)
    eps_grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    est = zeta_bruteforce(task, eps_grid, search_budget=20000, seed=0, spmp_iters=3000)
    worst_margin = min(
        est.zeta_lower[e] - (e / 3.0 - 0.02 * e) for e in eps_grid
    )
    zeta_ok = worst_margin >= 0.0
    # every stored witness satisfies the same inequality by construction;
    # re-verify the binding one end to end
    for e in eps_grid:
        if e in est.witnesses:
            v, mu = est.witnesses[e]
            assert _excess_task_risk(task, v, mu) >= e

    d_ok = all(ranking_d_bound(M) == float(M) for M in (1, 2, 3, 4, 5))
    elapsed = time.perf_counter() - t0
    ok = zeta_ok and d_ok and elapsed < 300
    _report(
        "criterion 7 calibration constants",
        ok,
        f"min margin zeta - (eps/3 - 0.02 eps) = {worst_margin:.4f} (>= 0), "
        f"uniform-marginal decomposition certified for M=1..5, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_8_iris_error_band(tmp_path):
    t0 = time.perf_counter()
    runner = CliRunner()
    out = tmp_path / "iris_bench"
    res = runner.invoke(
        cli_main,
        [
            "bench", "--data", "data/iris.csv", "--task", "multiclass",
            "--lambda-grid", "0.125,0.03125,0.0078125,0.001953125",
            "--passes", "30", "--spmp-iters", "20", "--splits", "14",
            "--out", str(out),
        ],
        catch_exceptions=False,
    )
    assert res.exit_code == 0, res.output
    recs = [json.loads(ln) for ln in (out / "results.jsonl").read_text().splitlines()]
    mean_err = float(np.mean([r["test_loss"] for r in recs]))
    elapsed = time.perf_counter() - t0
    ok = 0.01 <= mean_err <= 0.08 and elapsed < 600
    _report(
        "criterion 8 bundled-data error band",
        ok,
        f"mean test error over 14 splits {100 * mean_err:.2f}% (band [1%, 8%]), "
        f"{elapsed:.1f}s (< 600s)",
    )


def test_criterion_9_cli_determinism(tmp_path):
    runner = CliRunner()
    data = tmp_path / "blobs.csv"
    res = runner.invoke(
        cli_main,
        ["synth", "--kind", "blobs", "--n", "80", "--seed", "3", "--out", str(data)],
        catch_exceptions=False,
    )
    assert res.exit_code == 0, res.output
    payloads = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        res = runner.invoke(
            cli_main,
            [
                "train", "--data", str(data), "--task", "multiclass",
                "--lambda", "0.1", "--passes", "3", "--spmp-iters", "10",
                "--seed", "7", "--out", str(out),
            ],
            catch_exceptions=False,
        )
        assert res.exit_code == 0, res.output
        payloads.append((out / "results.jsonl").read_bytes())
    ok = payloads[0] == payloads[1]
    _report(
        "criterion 9 deterministic output",
        ok,
        f"repeat run results.jsonl byte-identical={ok} ({len(payloads[0])} bytes)",
    )
