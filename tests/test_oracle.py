import numpy as np
import pytest

from maxminsp.oracle import (
    certified_gap,
    spmp_solve,
    spmp_solve_batch_simplex,
)
from maxminsp.projections import project
from maxminsp.tasks import (
    ChainTask,
    LayoutError,
    MulticlassTask,
    OrdinalTask,
    RankingTask,
    make_task,
)


def binary_partition_closed_form(v):
    """max over the simplex of centered Bayes risk plus v.mu, plus offset."""
    t = v[0] - v[1]
    return (v[0] + v[1]) / 2.0 + max(abs(t / 2.0), 0.5)


def ordinal_partition_closed_form(v):
    k = len(v)
    return max(
        0.5 * (v[i] + v[j] + (j - i)) for i in range(k) for j in range(i, k)
    )


def multiclass_partition_closed_form(v):
    # sort descending; best mixture puts equal mass on a top slice
    s = np.sort(v)[::-1]
    return 1.0 + max((s[: j + 1].sum() - 1.0) / (j + 1) for j in range(len(v)))


def test_binary_zero_scores_value_half():
    t = MulticlassTask(k=2)
    res = spmp_solve(np.zeros(2), t, K=500)
    assert abs(res.saddle_value - 0.5) < 1e-3


def test_multiclass_zero_scores_uniform_saddle():
    t = MulticlassTask(k=3)
    res = spmp_solve(np.zeros(3), t, K=500)
    assert abs(res.saddle_value - 2.0 / 3.0) < 1e-3
    assert np.max(np.abs(res.mu_bar - 1.0 / 3.0)) < 1e-3


def test_binary_closed_form_random_scores():
    t = MulticlassTask(k=2)
    L = t.l_spmp
    rng = np.random.default_rng(0)
    for _ in range(30):
        v = rng.normal(size=2)
        res = spmp_solve(v, t, K=2000, eta=8.0 / L)
        assert abs(res.saddle_value - binary_partition_closed_form(v)) < 2e-3


def test_ordinal_closed_form_random_scores():
    t = OrdinalTask(k=3)
    L = t.l_spmp
    rng = np.random.default_rng(1)
    for _ in range(30):
        v = rng.normal(size=3)
        res = spmp_solve(v, t, K=2000, eta=8.0 / L)
        assert abs(res.saddle_value - ordinal_partition_closed_form(v)) < 2e-3


def test_multiclass_closed_form_random_scores():
    t = MulticlassTask(k=4)
    L = t.l_spmp
    rng = np.random.default_rng(2)
    for _ in range(30):
        v = rng.normal(size=4)
        res = spmp_solve(v, t, K=2000, eta=8.0 / L)
        assert abs(res.saddle_value - multiclass_partition_closed_form(v)) < 2e-3


def test_gap_rate_bound_and_decay():
    rng = np.random.default_rng(3)
    for k in (3, 5):
        t = MulticlassTask(k=k)
        L = t.l_spmp
        for _ in range(20):
            v = rng.normal(size=k) * 2
            gaps = []
            for K in (10, 40, 160):
                res = spmp_solve(v, t, K=K)
                assert res.gap <= 4.0 * L / K + 1e-6
                gaps.append(res.gap)
            assert gaps[0] >= gaps[1] >= gaps[2]


def test_certified_gap_zero_at_binary_saddle():
    t = MulticlassTask(k=2)
    u = t.uniform_state()
    assert abs(certified_gap(u, u, np.zeros(2), t)) < 1e-10


@pytest.mark.parametrize(
    "t", [MulticlassTask(4), OrdinalTask(4), ChainTask(3, 2), RankingTask(3)],
    ids=lambda t: t.kind,
)
def test_certified_gap_matches_vertex_enumeration(t):
    # (B, k) stacks of label mixtures; the reference enumerates the vertices
    rng = np.random.default_rng(4)
    E = np.stack([t.embed(y) for y in t.labels()])
    B = 100
    mu, nu = (rng.dirichlet(np.ones(len(E)), size=B) @ E for _ in range(2))
    V = rng.normal(size=(B, t.embed_dim))
    upper = ((t.apply_loss_matrix(nu) + V) @ E.T).max(axis=1)
    lower = (t.apply_loss_matrix(mu) @ E.T).min(axis=1) + np.einsum("ij,ij->i", V, mu)
    gaps = certified_gap(mu, nu, V, t)
    assert gaps.shape == (B,)
    assert np.max(np.abs(gaps - (upper - lower))) < 1e-10
    # one vector in, one gap out
    assert certified_gap(mu[0], nu[0], V[0], t) == pytest.approx(gaps[0], abs=1e-15)


def test_certified_gap_checks_every_row():
    t = MulticlassTask(k=3)
    mu = np.tile(t.uniform_state(), (3, 1))
    nu = mu.copy()
    nu[2] = [0.5, 0.5, 0.5]
    with pytest.raises(LayoutError):
        certified_gap(mu, nu, np.zeros((3, 3)), t)


def test_saddle_value_sandwich():
    rng = np.random.default_rng(5)
    t = OrdinalTask(k=4)
    for _ in range(50):
        v = rng.normal(size=4)
        res = spmp_solve(v, t, K=50)
        upper = max(
            float(t.embed(y) @ (t.apply_loss_matrix(res.nu_bar) + v)) for y in t.labels()
        )
        lower = min(float(t.embed(y) @ t.apply_loss_matrix(res.mu_bar)) for y in t.labels())
        lower += float(v @ res.mu_bar)
        centered = res.saddle_value - t.offset
        assert lower - 1e-9 <= centered <= upper + 1e-9


def test_solver_deterministic():
    t = OrdinalTask(k=5)
    v = np.array([0.3, -1.0, 0.5, 0.1, -0.2])
    a = spmp_solve(v, t, K=77)
    b = spmp_solve(v, t, K=77)
    assert (a.mu_bar == b.mu_bar).all() and (a.nu_bar == b.nu_bar).all()
    assert a.gap == b.gap and a.saddle_value == b.saddle_value


def test_chain_solver_valid_states_and_gap():
    t = ChainTask(M=3, R=2)
    rng = np.random.default_rng(6)
    v = rng.normal(size=t.embed_dim)
    res = spmp_solve(v, t, K=300)
    t.check_state(res.mu_bar)
    t.check_state(res.nu_bar)
    L = t.l_spmp
    assert -1e-9 <= res.gap <= 4.0 * L / 300 + 1e-6


def test_ranking_solver_valid_states():
    t = RankingTask(M=3)
    rng = np.random.default_rng(7)
    v = rng.normal(size=9)
    res = spmp_solve(v, t, K=30)
    t.check_state(res.mu_bar)
    t.check_state(res.nu_bar)
    assert res.gap >= -1e-9


def _hand_rolled_solve(t, v, K, mu, nu):
    """The solver loop written out with one-vector projections."""
    rate = (1.0 / (2.0 * t.l_spmp)) * t.r2
    mu_sum = np.zeros_like(mu)
    nu_sum = np.zeros_like(nu)
    for _ in range(K):
        mu_h = project(t, mu, t.apply_loss_matrix(nu) + v, rate)
        nu_h = project(t, nu, -t.apply_loss_matrix(mu), rate)
        mu, nu = (
            project(t, mu, t.apply_loss_matrix(nu_h) + v, rate),
            project(t, nu, -t.apply_loss_matrix(mu_h), rate),
        )
        mu_sum += mu_h
        nu_sum += nu_h
    return mu_sum / K, nu_sum / K, mu, nu


def test_averaging_is_half_step_mean():
    t = MulticlassTask(k=3)
    v = np.array([0.5, -0.3, 0.1])
    K = 25
    mu_bar, nu_bar, _, _ = _hand_rolled_solve(t, v, K, t.uniform_state(), t.uniform_state())
    res = spmp_solve(v, t, K=K)
    assert np.max(np.abs(res.mu_bar - mu_bar)) < 1e-12
    assert np.max(np.abs(res.nu_bar - nu_bar)) < 1e-12


@pytest.mark.parametrize("t", [ChainTask(M=3, R=2), RankingTask(M=3)], ids=["chain", "ranking"])
def test_structured_averaging_is_half_step_mean(t):
    rng = np.random.default_rng(12)
    v = rng.normal(size=t.embed_dim)
    K = 15
    cold = _hand_rolled_solve(t, v, K, t.uniform_state(), t.uniform_state())
    res = spmp_solve(v, t, K=K)
    got = (res.mu_bar, res.nu_bar, res.mu_last, res.nu_last)
    for a, b in zip(got, cold):
        assert np.max(np.abs(a - b)) < 1e-12
    # warm start from the cold solve's last iterates
    warm = _hand_rolled_solve(t, v, K, cold[2], cold[3])
    res = spmp_solve(v, t, init=(cold[2], cold[3]), K=K)
    got = (res.mu_bar, res.nu_bar, res.mu_last, res.nu_last)
    for a, b in zip(got, warm):
        assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("t", [ChainTask(M=3, R=2), RankingTask(M=3)], ids=["chain", "ranking"])
def test_invalid_warm_start_rejected(t):
    bad = t.uniform_state() * 2.0
    with pytest.raises(LayoutError):
        spmp_solve(np.zeros(t.embed_dim), t, init=(bad, t.uniform_state()), K=5)


def test_batch_matches_single_solves():
    t = OrdinalTask(k=4)
    rng = np.random.default_rng(8)
    V = rng.normal(size=(10, 4))
    mu_bars, nu_bars, _, _ = spmp_solve_batch_simplex(V, t, K=60)
    for i in range(10):
        res = spmp_solve(V[i], t, K=60)
        assert np.max(np.abs(res.mu_bar - mu_bars[i])) < 1e-12
        assert np.max(np.abs(res.nu_bar - nu_bars[i])) < 1e-12


def test_rejects_zero_budget():
    with pytest.raises(ValueError):
        spmp_solve(np.zeros(2), MulticlassTask(k=2), K=0)


def test_warm_start_speeds_repeat_solves():
    # solving the same instance twice with a carried-over cache must beat
    # a cold start at the same small budget
    t = OrdinalTask(k=5)
    rng = np.random.default_rng(9)
    v = rng.normal(size=5)
    cold = spmp_solve(v, t, K=10)
    warm = spmp_solve(v, t, init=(cold.mu_last, cold.nu_last), K=10)
    assert warm.gap < cold.gap
