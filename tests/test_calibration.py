import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxminsp import calibration
from maxminsp.calibration import (
    _excess_task_risk,
    constant_c,
    ranking_d_bound,
    zeta_bruteforce,
)
from maxminsp.oracle import spmp_solve
from maxminsp.tasks import ChainTask, MulticlassTask, OrdinalTask, RankingTask


def test_constant_c_multiclass_is_k():
    assert constant_c(MulticlassTask(k=3)) == 3.0
    assert constant_c(MulticlassTask(k=7)) == 7.0


def test_constant_c_chain_is_per_part_alphabet():
    assert constant_c(ChainTask(M=3, R=2)) == 2.0
    assert constant_c(ChainTask(M=2, R=4)) == 4.0


def test_constant_c_ranking_is_factorial():
    assert constant_c(RankingTask(M=3)) == 6.0
    assert constant_c(RankingTask(M=4)) == 24.0


def test_constant_c_randomized_ordinal_exceeds_k():
    # the absolute-difference loss concentrates optimal mass far below 1/k,
    # so the searched constant must land well above the 0-1 value
    c = constant_c(OrdinalTask(k=3), samples=20000, seed=0)
    assert c > 3.0


def test_ranking_d_bound_small_m():
    for M in (1, 2, 3, 4, 5):
        assert ranking_d_bound(M) == float(M)
    with pytest.raises(ValueError):
        ranking_d_bound(6)


def test_zeta_binary_linear_comparison():
    task = MulticlassTask(k=2)
    eps = [0.2, 0.4, 0.6]
    est = zeta_bruteforce(task, eps, search_budget=4000, seed=0, spmp_iters=1500)
    for e in eps:
        # comparison inequality: excess surrogate >= excess risk / k
        assert est.zeta_lower[e] >= e / 2.0 - 0.02 * e


def test_zeta_three_class_comparison():
    task = MulticlassTask(k=3)
    eps = [0.3, 0.6]
    est = zeta_bruteforce(task, eps, search_budget=4000, seed=0, spmp_iters=1500)
    for e in eps:
        assert est.zeta_lower[e] >= e / 3.0 - 0.02 * e


def test_zeta_monotone_in_eps():
    task = MulticlassTask(k=3)
    eps = [0.1, 0.2, 0.3, 0.4, 0.5]
    est = zeta_bruteforce(task, eps, search_budget=3000, seed=1, spmp_iters=800)
    vals = [est.zeta_lower[e] for e in eps]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_zeta_infeasible_eps_is_infinite():
    # the 0-1 excess risk never exceeds 1, so eps = 2 has no witnesses
    task = MulticlassTask(k=2)
    est = zeta_bruteforce(task, [2.0], search_budget=500, seed=0, spmp_iters=200)
    assert est.zeta_lower[2.0] == math.inf
    assert 2.0 not in est.witnesses


def test_zeta_witnesses_reverify():
    task = MulticlassTask(k=3)
    eps = [0.3]
    est = zeta_bruteforce(task, eps, search_budget=2000, seed=2, spmp_iters=800)
    v, mu = est.witnesses[0.3]
    assert _excess_task_risk(task, v, mu) >= 0.3
    assert mu.min() >= 0 and abs(mu.sum() - 1.0) < 1e-9


def test_zeta_rejects_huge_output_spaces():
    with pytest.raises(ValueError):
        zeta_bruteforce(RankingTask(M=5), [0.1], search_budget=10)
    with pytest.raises(ValueError):
        zeta_bruteforce(MulticlassTask(k=9), [0.1], search_budget=10)
    with pytest.raises(ValueError):
        zeta_bruteforce(ChainTask(M=2, R=3), [0.1], search_budget=10)


def test_excess_task_risk_zero_at_optimal_decode():
    task = MulticlassTask(k=3)
    mu = np.array([0.7, 0.2, 0.1])
    # scores pointing at the majority label decode optimally
    v = np.array([1.0, 0.0, 0.0])
    assert _excess_task_risk(task, v, mu) == 0.0
    # scores pointing elsewhere pay the probability difference
    v_bad = np.array([0.0, 1.0, 0.0])
    assert abs(_excess_task_risk(task, v_bad, mu) - 0.5) < 1e-12


@pytest.mark.parametrize(
    "task", [MulticlassTask(3), OrdinalTask(4), ChainTask(2, 2), RankingTask(3)],
    ids=lambda t: t.kind,
)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), conc=st.sampled_from([0.2, 1.0, 5.0]))
def test_excess_task_risk_matches_label_enumeration(task, rows, seed, conc):
    # stacked excess risk against the risk of every label in the table;
    # continuous draws keep the decoded label free of near-ties
    rng = np.random.default_rng(seed)
    E = np.stack([task.embed(y) for y in task.labels()])
    V = rng.normal(size=(rows, task.embed_dim)) * 2.0
    Mu = rng.dirichlet(conc * np.ones(len(E)), size=rows) @ E
    risks = task.apply_loss_matrix(Mu) @ E.T + task.offset
    decoded = np.argmax(V @ E.T, axis=1)
    want = risks[np.arange(rows), decoded] - risks.min(axis=1)
    got = _excess_task_risk(task, V, Mu)
    assert got.shape == (rows,)
    assert np.all(np.abs(got - want) <= 1e-12)


@pytest.mark.parametrize("task, budget", [(ChainTask(M=1, R=3), 60), (ChainTask(M=2, R=2), 20)],
                         ids=["M1R3", "M2R2"])
def test_zeta_batched_solve_matches_per_row_solves(monkeypatch, task, budget):
    # zeta_bruteforce solves all chain search rows in one engine call; the
    # estimate must equal the one built from one spmp_solve per row
    eps = [0.1, 0.3, 0.5]
    kwargs = dict(search_budget=budget, seed=4, spmp_iters=300)
    batched = zeta_bruteforce(task, eps, **kwargs)

    def per_row(V, task, K, eta):
        rows = [spmp_solve(v, task, K=K, eta=eta) for v in V]
        return tuple(np.stack([getattr(r, name) for r in rows])
                     for name in ("mu_bar", "nu_bar", "mu_last", "nu_last"))

    monkeypatch.setattr(calibration, "spmp_solve_batch_simplex", per_row)
    looped = zeta_bruteforce(task, eps, **kwargs)
    assert batched.zeta_lower == looped.zeta_lower
    assert batched.witnesses.keys() == looped.witnesses.keys()
    for e, (v, mu) in batched.witnesses.items():
        assert (v == looped.witnesses[e][0]).all() and (mu == looped.witnesses[e][1]).all()
