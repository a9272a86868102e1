import numpy as np
import pytest

from maxminsp.projections import SinkhornConvergenceError, project, project_birkhoff_sinkhorn
from maxminsp.tasks import ChainTask, LayoutError, MulticlassTask, OrdinalTask, RankingTask


def shannon_entropy(p):
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def bregman_objective(mu, mu_prev, grad, eta):
    """-eta mu.grad + D(mu, mu_prev) for the Shannon entropy."""
    mu = np.asarray(mu)
    d = -shannon_entropy(mu) + shannon_entropy(mu_prev)
    # gradient of -H for Shannon entropy is log(mu) + 1
    d -= float((np.log(mu_prev) + 1.0) @ (mu - mu_prev))
    return -eta * float(mu @ grad) + d


def gibbs_chain_projection(task, mu_prev, grad, eta):
    """Brute-force projection: Gibbs weights over all sequences.

    The minimizer of -eta mu.u + D(mu, mu_prev) under the chain entropy is
    the marginal vector of the distribution with log-weights
    theta(y) = eta u.phi(y) + grad of H at mu_prev dotted with phi(y).
    """
    pu, pp = task.split(mu_prev)
    logw = []
    labels = list(task.labels())
    for y in labels:
        lw = eta * float(task.embed(y) @ grad)
        for m in range(task.M - 1):
            lw += np.log(pp[m, y[m] - 1, y[m + 1] - 1])
        for m in range(1, task.M - 1):
            lw -= np.log(pu[m, y[m] - 1])
        if task.M == 1:  # the chain entropy of one position is its own
            lw += np.log(pu[0, y[0] - 1])
        logw.append(lw)
    logw = np.array(logw)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    return np.sum([wi * task.embed(y) for wi, y in zip(w, labels)], axis=0)


def random_chain_state(task, rng):
    labels = list(task.labels())
    w = rng.dirichlet(np.ones(len(labels)))
    mu = np.sum([wi * task.embed(y) for wi, y in zip(w, labels)], axis=0)
    return np.maximum(mu, 1e-9)


# ---------------------------------------------------------------------------
# simplex


def test_simplex_zero_gradient_is_fixed_point():
    mu = np.full(3, 1.0 / 3.0)
    out = project(MulticlassTask(3), mu, np.zeros(3), 1.0)
    assert np.allclose(out, mu, atol=1e-12)


def test_simplex_closed_form_update():
    out = project(MulticlassTask(2), np.full(2, 0.5), np.array([np.log(3.0), 0.0]), 1.0)
    assert np.allclose(out, [0.75, 0.25], atol=1e-12)


def test_simplex_matches_numeric_bregman_minimizer():
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(500):
        k = int(rng.integers(2, 6))
        mu_prev = rng.dirichlet(np.ones(k))
        mu_prev = np.maximum(mu_prev, 1e-6)
        mu_prev /= mu_prev.sum()
        grad = rng.normal(size=k)
        eta = float(rng.uniform(0.1, 2.0))
        cases.append((k, mu_prev, grad, eta))
    for k in sorted({c[0] for c in cases}):
        group = [c[1:] for c in cases if c[0] == k]
        mu_prev, grad, eta = (np.array(a) for a in zip(*group))
        # projected gradient descent on the same objective, all cases of one k at once
        x = np.full(mu_prev.shape, 1.0 / k)
        for _ in range(4000):
            g = eta[:, None] * grad - (np.log(x) - np.log(mu_prev))
            x = x * np.exp(0.2 * g)
            x /= x.sum(axis=1, keepdims=True)
        for row, (m, gr, e) in enumerate(group):
            out = project(MulticlassTask(k), m, gr, e)
            f_ref = bregman_objective(x[row], m, gr, e)
            assert bregman_objective(out, m, gr, e) <= f_ref + 1e-6


def test_simplex_rejects_nonfinite_gradient():
    with pytest.raises(LayoutError):
        project(MulticlassTask(2), np.full(2, 0.5), np.array([np.inf, 0.0]), 1.0)


def test_simplex_monotone_in_eta():
    rng = np.random.default_rng(1)
    for _ in range(50):
        mu_prev = rng.dirichlet(np.ones(4))
        grad = rng.normal(size=4)
        vals = [
            float(project(MulticlassTask(4), mu_prev, grad, eta) @ grad)
            for eta in (0.1, 1.0, 10.0)
        ]
        assert vals[0] <= vals[1] + 1e-12 and vals[1] <= vals[2] + 1e-12


# ---------------------------------------------------------------------------
# chain


def test_chain_zero_gradient_is_fixed_point():
    task = ChainTask(M=2, R=2)
    rng = np.random.default_rng(2)
    mu = random_chain_state(task, rng)
    out = project(task, mu, np.zeros(task.embed_dim), 1.0)
    assert np.max(np.abs(out - mu)) < 1e-10


def test_chain_matches_gibbs_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(500):
        M = int(rng.integers(2, 4))
        R = int(rng.integers(2, 4))
        task = ChainTask(M=M, R=R)
        mu_prev = random_chain_state(task, rng)
        grad = rng.normal(size=task.embed_dim)
        eta = float(rng.uniform(0.2, 2.0))
        out = project(task, mu_prev, grad, eta)
        ref = gibbs_chain_projection(task, mu_prev, grad, eta)
        assert np.max(np.abs(out - ref)) < 1e-9


def test_chain_output_locally_consistent():
    rng = np.random.default_rng(4)
    task = ChainTask(M=3, R=3)
    for _ in range(100):
        mu_prev = random_chain_state(task, rng)
        grad = rng.normal(size=task.embed_dim) * 3
        out = project(task, mu_prev, grad, 1.0)
        task.check_state(out)  # includes 1e-8 marginalization checks


def test_chain_length_one_reduces_to_simplex():
    task = ChainTask(M=1, R=4)
    rng = np.random.default_rng(5)
    mu_prev = np.maximum(rng.dirichlet(np.ones(4)), 1e-9)
    grad = rng.normal(size=4)
    out = project(task, mu_prev, grad, 0.7)
    ref = project(MulticlassTask(4), mu_prev, grad, 0.7)
    assert np.allclose(out, ref, atol=1e-12)


def near_vertex_chain_state(task, rng, eps=1e-6):
    """A chain state within eps of a random vertex, inside the polytope."""
    labels = list(task.labels())
    y = labels[rng.integers(len(labels))]
    return (1.0 - eps) * task.embed(y) + eps * random_chain_state(task, rng)


def softmax_projection(task, mu_prev, grad, eta):
    """Closed form on the simplex: proportional to mu_prev * exp(eta*grad)."""
    w = mu_prev * np.exp(eta * grad - np.max(eta * grad))
    return w / w.sum()


def birkhoff_projection(task, mu_prev, grad, eta):
    """Log-domain Sinkhorn run to a fixed point, far past the package's tolerance.

    The projection is the doubly stochastic matrix diag(e^u) K diag(e^v)
    with K = mu_prev * exp(eta*grad); u and v come from alternating exact
    row and column fits in the log domain.
    """
    M = task.M
    log_k = (np.log(mu_prev) + eta * grad).reshape(M, M)
    u, v = np.zeros(M), np.zeros(M)
    for _ in range(100_000):
        u_next = -np.logaddexp.reduce(log_k + v, axis=1)
        v_next = -np.logaddexp.reduce(log_k + u_next[:, None], axis=0)
        if np.array_equal(u_next, u) and np.array_equal(v_next, v):
            break
        u, v = u_next, v_next
    return np.exp(log_k + u[:, None] + v).ravel()


# chain and simplex rows include near-vertex points and steep gradients;
# ranking rows stay inside, where the Sinkhorn reference converges (it
# stalls near a vertex: test_sinkhorn_converges_near_a_vertex)
STACK_CASES = [
    pytest.param(ChainTask(M=1, R=2), gibbs_chain_projection, 12, True, id="1-2"),
    pytest.param(ChainTask(M=2, R=2), gibbs_chain_projection, 22, True, id="2-2"),
    pytest.param(ChainTask(M=3, R=2), gibbs_chain_projection, 32, True, id="3-2"),
    pytest.param(ChainTask(M=4, R=3), gibbs_chain_projection, 43, True, id="4-3"),
    pytest.param(MulticlassTask(k=4), softmax_projection, 41, True, id="simplex"),
    pytest.param(RankingTask(M=3), birkhoff_projection, 53, False, id="ranking"),
]


@pytest.mark.parametrize("task,reference,seed,near_vertex", STACK_CASES)
def test_chain_stack_matches_rows_and_gibbs(task, reference, seed, near_vertex):
    """A row stack through `project` equals its rows one by one and the exact projection."""
    rng = np.random.default_rng(seed)
    rows = 12
    P = np.stack([
        near_vertex_chain_state(task, rng) if near_vertex and b % 3 == 0
        else random_chain_state(task, rng)
        for b in range(rows)
    ])
    G = rng.normal(size=(rows, task.embed_dim))
    if near_vertex:
        G[1::4] *= 30.0  # steep rows drive the output towards a vertex
    eta = 0.8
    out = project(task, P, G, eta)
    assert out.shape == P.shape
    for b in range(rows):
        single = project(task, P[b], G[b], eta)
        assert single.shape == P[b].shape
        assert np.max(np.abs(out[b] - single)) < 1e-12
        ref = reference(task, P[b], G[b], eta)
        assert np.max(np.abs(out[b] - ref)) < 1e-9


def test_birkhoff_wrapper_equals_project():
    task = RankingTask(M=4)
    rng = np.random.default_rng(12)
    for _ in range(20):
        mu = random_chain_state(task, rng)
        grad = rng.normal(size=task.embed_dim) * 3
        eta = float(rng.uniform(0.2, 1.5))
        assert np.array_equal(
            project_birkhoff_sinkhorn(mu, grad, eta), project(task, mu, grad, eta)
        )


def test_chain_stack_rejects_one_nonfinite_row():
    task = ChainTask(M=3, R=2)
    rng = np.random.default_rng(11)
    P = np.stack([random_chain_state(task, rng) for _ in range(4)])
    G = rng.normal(size=P.shape)
    G[2, 5] = np.nan
    with pytest.raises(LayoutError):
        project(task, P, G, 1.0)


# ---------------------------------------------------------------------------
# Birkhoff / Sinkhorn


def test_sinkhorn_uniform_fixed_point():
    M = 4
    mu = np.full(M * M, 1.0 / M)
    out = project_birkhoff_sinkhorn(mu, np.zeros(M * M), 1.0)
    assert np.allclose(out, mu, atol=1e-9)


def test_sinkhorn_large_diagonal_approaches_identity():
    M = 3
    mu = np.full(M * M, 1.0 / M)
    grad = 10.0 * np.eye(M).ravel()
    out = project_birkhoff_sinkhorn(mu, grad, 1.0).reshape(M, M)
    off_mass = out.sum() - np.trace(out)
    assert off_mass / M < 0.05


def test_sinkhorn_outputs_doubly_stochastic():
    rng = np.random.default_rng(6)
    for _ in range(200):
        M = 4
        mu = rng.dirichlet(np.ones(M), size=M).ravel()
        mu = np.maximum(mu, 1e-6)
        grad = rng.normal(size=M * M)
        out = project_birkhoff_sinkhorn(mu, grad, 1.0).reshape(M, M)
        assert np.max(np.abs(out.sum(axis=0) - 1.0)) <= 1e-9 + 1e-12
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-9 + 1e-12


def test_sinkhorn_residual_nonincreasing():
    rng = np.random.default_rng(7)
    M = 5
    K = np.exp(rng.normal(size=(M, M)))
    residuals = []
    for it in range(200):
        K /= K.sum(axis=1, keepdims=True)
        K /= K.sum(axis=0, keepdims=True)
        if (it + 1) % 10 == 0:
            r = max(
                np.abs(K.sum(axis=1) - 1.0).max(), np.abs(K.sum(axis=0) - 1.0).max()
            )
            residuals.append(r)
    for a, b in zip(residuals, residuals[1:]):
        assert b <= a + 1e-15


def test_sinkhorn_converges_near_a_vertex():
    # Sinkhorn's sweeps stall here at their linear rate; Newton steps converge
    task = RankingTask(M=3)
    rng = np.random.default_rng(53)
    mu = near_vertex_chain_state(task, rng)
    out = project(task, mu, rng.normal(size=task.embed_dim), 0.8)
    task.check_state(out)
    mat = out.reshape(3, 3)
    assert np.abs(mat.sum(axis=0) - 1.0).max() <= 1e-9
    assert np.abs(mat.sum(axis=1) - 1.0).max() <= 1e-9


def test_sinkhorn_finishes_where_sweeps_fail_from_the_uniform_point():
    # one M=4 projection at rate 5 whose Sinkhorn residual fell like
    # 1/sweeps, to 3.9e-6 after 100 000 of them
    rng = np.random.default_rng(1)
    rng.normal(size=(9, 64))
    g = rng.normal(size=(16, 64))[:, 28]
    out = project_birkhoff_sinkhorn(np.full(16, 0.25), g, 5.0).reshape(4, 4)
    assert np.abs(out.sum(axis=0) - 1.0).max() <= 1e-9
    assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-9


def test_sinkhorn_convergence_failure_carries_residual():
    rng = np.random.default_rng(9)
    M = 4
    mu = np.maximum(rng.dirichlet(np.ones(M), size=M).ravel(), 1e-6)
    grad = rng.normal(size=M * M) * 3
    with pytest.raises(SinkhornConvergenceError) as exc:
        project_birkhoff_sinkhorn(mu, grad, 1.0, tol=1e-15, max_iter=2)
    assert exc.value.residual > 0


def test_sinkhorn_scales_a_row_exp_flushes_to_zero():
    # exp(-1000) flushes a whole row of the kernel to zero, but in the log
    # domain the row scales like any other: a constant per row cancels
    M = 3
    mu = np.full(M * M, 1.0 / M)
    grad = np.zeros(M * M)
    grad[M:2 * M] = -1.0  # row 2, 1000 nats below the rest at eta 1000
    # logs near -1000 carry rounding of about 1e-13
    assert np.abs(project_birkhoff_sinkhorn(mu, grad, 1000.0) - mu).max() <= 1e-12


# ---------------------------------------------------------------------------
# constants


def test_ranking_constant_is_m():
    assert RankingTask(M=5).l_spmp == 5.0


def test_chain_m1_r2_constant():
    assert abs(ChainTask(M=1, R=2).l_spmp - 2.0 * np.log(2.0)) < 1e-12


def test_multiclass_constant_positive_finite():
    task = MulticlassTask(k=3)
    assert 0 < task.l_spmp < np.inf
    assert abs(task.l_spmp - 2.0 * np.log(3.0)) < 1e-12


def test_ordinal_constant_uses_spectral_norm():
    task = OrdinalTask(k=4)
    a_norm = np.linalg.norm(task.loss_matrix, 2)
    assert abs(task.l_spmp - a_norm * 2.0 * np.log(4.0)) < 1e-12


def test_diameters():
    assert MulticlassTask(k=7).diameter_sq == 2.0
    assert ChainTask(M=3, R=2).diameter_sq == 10.0
    assert RankingTask(M=4).diameter_sq == 8.0


def test_project_dispatch_outputs_valid_states():
    rng = np.random.default_rng(8)
    for task in (MulticlassTask(k=3), ChainTask(M=3, R=2), RankingTask(M=3)):
        mu = task.uniform_state()
        grad = rng.normal(size=task.embed_dim)
        out = project(task, mu, grad, 0.5)
        task.check_state(out)
