"""The column-stack kernels against the row-layout kernels they replaced,
the chain task's stack methods against their row-layout versions, and the
log-domain engine against the probability-domain engine it replaced.

The projection kernels and the mirror-prox engine work on C-contiguous
(dim, B) column stacks of log-iterates.  The row-layout kernels below are
references on the same log contract: on a (B, dim) stack they reduce over
the last axis.  A column kernel must match its reference bit for bit
wherever the reference summed fewer than 8 terms, since numpy sums fewer
than 8 contiguous terms in order, as a column kernel does; from 8 terms on,
numpy sums a contiguous row pairwise, so the two may differ in the last
bits and must agree to 1e-12 relative.  The Birkhoff kernel's reference
runs the same Newton steps, summing M terms at a time; Sinkhorn's sweeps,
which that kernel replaced, are kept as a reference within tolerance.

The chain task's Viterbi decoder, max oracle and polytope check once
reduced over the last axes of (B, M, R) and (B, M-1, R, R) row views; they
are kept below as references.  Max and argmax are exact and the decoder's
additions keep their order, so decoded labels and max-oracle values must
match bit for bit, and `check_state` must pass or fail with the same
message.  Its sums of 8 or more terms (a pairwise block from R = 3 on) may
differ from the reference's in the last bits, which could only matter for
a point within a few ulps of a tolerance; the tests draw none.

The chain kernel once ran its forward and backward messages in two
passes, one log-sum-exp per message step, and concatenated the
log-marginals it returned.  That column kernel is kept below as the
reference for the one-sweep kernel, which computes every entry with the
same operations in the same order and must match it bit for bit.

The engine once carried probabilities: each kernel took the log of the
iterate it was handed and floored the probabilities it returned.  That
loop and its kernels are kept below as the reference for the log-domain
engine, which must agree with it to ENGINE_ATOL on every output.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxminsp.oracle import ADAPTIVE_START, certified_gap, spmp_solve_batch_simplex
from maxminsp.projections import (
    _ARMIJO,
    _LOG_FLOOR,
    _MAX_HALVINGS,
    _MAX_LOG,
    _RIDGE,
    PROB_FLOOR,
    SINKHORN_MAX_ITER,
    SINKHORN_TOL,
    SinkhornConvergenceError,
    _chain_stack,
    _logsumexp,
    _sinkhorn_stack,
    _softmax_stack,
    project,
)
from maxminsp.tasks import ChainTask, LayoutError, MulticlassTask, OrdinalTask, RankingTask

# the log-domain engine against the probability-domain reference, on every
# output entry, at the default step for up to 80 rounds; measured drift was
# at most 3e-12 (K up to 200, scores up to 30 standard normals).  The
# softmax floor now holds a probability at PROB_FLOOR times its column's
# largest one, not at PROB_FLOOR, so over thousands of rounds at a larger
# step a coordinate resting on the floor can leave it some rounds apart
# and move its row by far more than this
ENGINE_ATOL = 1e-10

# ---------------------------------------------------------------------------
# row-layout references: row b of a (B, dim) stack is one point


def row_logsumexp(x, axis):
    top = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - top).sum(axis=axis)) + np.squeeze(top, axis)


def row_softmax(L, G, eta):
    Z = L + eta * G
    Z -= Z.max(axis=-1, keepdims=True)
    np.maximum(Z, _LOG_FLOOR, out=Z)
    P = np.exp(Z)
    P /= P.sum(axis=-1, keepdims=True)
    return Z, P


def row_chain_log_marginals(theta_u, theta_p):
    """Sum-product on (B, M, R) unary and (B, M-1, R, R) pairwise log-potentials."""
    B, M, R = theta_u.shape
    alpha = np.empty((B, M, R))
    alpha[:, 0] = theta_u[:, 0]
    for m in range(M - 1):
        alpha[:, m + 1] = theta_u[:, m + 1] + row_logsumexp(
            alpha[:, m, :, None] + theta_p[:, m], 1)
    beta = np.zeros((B, M, R))
    for m in range(M - 2, -1, -1):
        beta[:, m] = row_logsumexp(
            theta_p[:, m] + (theta_u[:, m + 1] + beta[:, m + 1])[:, None, :], 2)
    log_z = row_logsumexp(alpha[:, -1], 1)[:, None, None]
    after = theta_u[:, 1:] + beta[:, 1:]
    log_u = alpha + beta - log_z
    log_p = alpha[:, :-1, :, None] + theta_p + after[:, :, None, :] - log_z[..., None]
    return log_u, log_p


def row_chain_normalize(log_u, log_p):
    """Unary and pairwise blocks of exp(log-marginals), each normalized to sum 1."""
    B, M, R = log_u.shape
    out_u = np.exp(log_u)
    out_u /= out_u.sum(axis=2, keepdims=True)
    out_p = np.exp(log_p)
    out_p /= out_p.sum(axis=(2, 3), keepdims=True)
    return np.concatenate([out_u.reshape(B, M * R), out_p.reshape(B, -1)], axis=1)


def row_chain(L, G, eta, M, R):
    U = M * R
    B = L.shape[0]
    if M == 1:
        return row_softmax(L, G, eta)
    theta_u = eta * G[:, :U].reshape(B, M, R)
    theta_u[:, 1:-1] -= L[:, :U].reshape(B, M, R)[:, 1:-1]
    theta_p = eta * G[:, U:].reshape(B, M - 1, R, R) + L[:, U:].reshape(B, M - 1, R, R)
    log_u, log_p = (np.maximum(x, _LOG_FLOOR) for x in row_chain_log_marginals(theta_u, theta_p))
    L_new = np.concatenate([log_u.reshape(B, U), log_p.reshape(B, -1)], axis=1)
    return L_new, row_chain_normalize(log_u, log_p)


def row_sinkhorn_newton(L, G, eta, tol=SINKHORN_TOL, max_iter=SINKHORN_MAX_ITER):
    """Sinkhorn-Newton on a (B, M*M) row stack, the kernel's steps with the
    rows of each matrix on axis 1 and its columns on axis 2."""
    B = L.shape[0]
    M = math.isqrt(L.shape[1])
    logP = (L + eta * G).reshape(B, M, M)
    logP -= row_logsumexp(logP, 2)[:, :, None]
    logP -= row_logsumexp(logP, 1)[:, None, :]
    H = np.zeros((B, 2 * M, 2 * M))
    diag = np.arange(2 * M)
    for it in range(max_iter + 1):
        P = np.exp(logP)
        sums = np.concatenate([P.sum(axis=2), P.sum(axis=1)], axis=1)
        g = sums - 1.0
        residual = np.abs(g).max(axis=1)
        active = residual > tol
        if it == max_iter or not active.any():
            break
        H[:, diag, diag] = sums * (1.0 + _RIDGE)
        H[:, :M, M:] = P
        H[:, M:, :M] = P.transpose(0, 2, 1)
        a, b = np.split(np.linalg.solve(H, -g[:, :, None])[:, :, 0], 2, axis=1)
        c = (a.sum(axis=1) - b.sum(axis=1)) / (2 * M)
        a, b = a - c[:, None], b + c[:, None]
        S = a[:, :, None] + b[:, None, :]
        slope = (g[:, :M] * a).sum(axis=1) + (g[:, M:] * b).sum(axis=1)
        total = a.sum(axis=1) + b.sum(axis=1)
        t = np.where(active, 1.0 / np.maximum(1.0, (S / (_MAX_LOG - logP)).max(axis=(1, 2))), 0.0)
        for _ in range(_MAX_HALVINGS):
            move = t[:, None, None] * S
            change = np.where(move > 0, -np.exp(logP + move), P) * np.expm1(-np.abs(move))
            # summed over the matrix rows first, as the kernel sums
            short = change.sum(axis=1).sum(axis=1) - t * total > _ARMIJO * t * slope
            if not short.any():
                break
            t[short] *= 0.5
        else:
            t[short] = 0.0
        logP += t[:, None, None] * S
    if not np.all(residual <= 10 * tol):
        worst = int(np.argmax(residual))
        raise SinkhornConvergenceError(float(residual[worst]), max_iter, worst)
    return np.maximum(logP, _LOG_FLOOR).reshape(B, -1), np.maximum(P, PROB_FLOOR).reshape(B, -1)


# Sinkhorn's sweeps, which the Newton kernel replaced, are a reference
# within tolerance where their linear rate converges, under their own cap
SWEEPS, SWEEPS_ATOL = 10_000, 1e-8


def row_sinkhorn_scale(logK, tol=SINKHORN_TOL, max_iter=SWEEPS):
    """Sinkhorn scaling of exp(logK) for a (B, M, M) stack, one stop per matrix."""
    logK = logK - logK.max(axis=(1, 2), keepdims=True)
    K = np.exp(logK)
    B = len(K)
    residual = np.full(B, np.inf)
    active = np.arange(B)
    Ka = K
    for _ in range(max_iter):
        Ka /= Ka.sum(axis=2, keepdims=True)
        Ka /= Ka.sum(axis=1, keepdims=True)
        res = np.maximum(
            np.abs(Ka.sum(axis=2) - 1.0).max(axis=1),
            np.abs(Ka.sum(axis=1) - 1.0).max(axis=1),
        )
        residual[active] = res
        done = res <= tol
        if done.any():
            K[active] = Ka
            active = active[~done]
            if not active.size:
                break
            Ka = K[active]
    else:
        K[active] = Ka
        worst = int(np.argmax(residual))
        if residual[worst] > 10 * tol:
            raise SinkhornConvergenceError(float(residual[worst]), max_iter, worst)
    return K.reshape(B, -1)


def row_chain_views(task, S):
    """(B, M, R) unary and (B, M-1, R, R) pairwise views of a (B, dim) row stack."""
    B, U = len(S), task.unary_dim
    return (S[:, :U].reshape(B, task.M, task.R),
            S[:, U:].reshape(B, task.M - 1, task.R, task.R))


def row_chain_backward(task, S):
    u, p = row_chain_views(task, S)
    beta = np.zeros(u.shape)
    for m in range(task.M - 2, -1, -1):
        cont = p[:, m] + u[:, m + 1, None, :] + beta[:, m + 1, None, :]
        beta[:, m] = cont.max(axis=2)
    return u, p, beta


def row_chain_decode(task, S):
    u, p, beta = row_chain_backward(task, S)
    rows = np.arange(len(S))
    Y = np.empty((len(S), task.M), dtype=int)
    Y[:, 0] = np.argmax(u[:, 0] + beta[:, 0], axis=1)
    for m in range(task.M - 1):
        cont = p[rows, m, Y[:, m]] + u[:, m + 1] + beta[:, m + 1]
        Y[:, m + 1] = np.argmax(cont, axis=1)
    return [tuple(y) for y in (Y + 1).tolist()]


def row_chain_max(task, S):
    u, _, beta = row_chain_backward(task, S)
    return (u[:, 0] + beta[:, 0]).max(axis=1)


def row_chain_check_state(task, mu):
    mu = np.asarray(mu, dtype=float).reshape(-1, task.embed_dim)
    u, p = row_chain_views(task, mu)
    if np.any(mu < -1e-12):
        raise LayoutError("negative marginals")
    if np.any(np.abs(u.sum(axis=2) - 1.0) > 1e-9):
        raise LayoutError("unary block does not sum to 1")
    for m in range(task.M - 1):
        if np.any(np.abs(p[:, m].sum(axis=(1, 2)) - 1.0) > 1e-9):
            raise LayoutError(f"pairwise block {m} does not sum to 1")
        if np.any(np.abs(p[:, m].sum(axis=2) - u[:, m]) > 1e-8):
            raise LayoutError(f"pairwise block {m} inconsistent with unary {m}")
        if np.any(np.abs(p[:, m].sum(axis=1) - u[:, m + 1]) > 1e-8):
            raise LayoutError(f"pairwise block {m} inconsistent with unary {m + 1}")


# ---------------------------------------------------------------------------
# the two-pass column chain kernel the one-sweep kernel replaced


def two_pass_chain(L, G, eta, M, R):
    U = M * R
    B = L.shape[1]
    if M == 1:
        return _softmax_stack(L, G, eta)
    theta_u = eta * G[:U].reshape(M, R, B)
    theta_u[1:-1] -= L[:U].reshape(M, R, B)[1:-1]
    theta_p = eta * G[U:].reshape(M - 1, R, R, B) + L[U:].reshape(M - 1, R, R, B)
    alpha = np.empty((M, R, B))
    alpha[0] = theta_u[0]
    for m in range(M - 1):
        alpha[m + 1] = theta_u[m + 1] + _logsumexp(alpha[m, :, None] + theta_p[m])
    theta_pt = theta_p.transpose(0, 2, 1, 3)
    beta = np.zeros((M, R, B))
    for m in range(M - 2, -1, -1):
        beta[m] = _logsumexp(theta_pt[m] + (theta_u[m + 1] + beta[m + 1])[:, None])
    log_z = _logsumexp(alpha[-1])
    after = theta_u[1:] + beta[1:]
    log_p = alpha[:-1, :, None] + theta_p + after[:, None] - log_z
    L_new = np.concatenate([(alpha + beta - log_z).reshape(U, B), log_p.reshape(-1, B)])
    np.maximum(L_new, _LOG_FLOOR, out=L_new)
    P = np.exp(L_new)
    out_u = P[:U].reshape(M, R, B)
    out_u /= out_u.sum(axis=1)[:, None]
    out_p = P[U:].reshape(M - 1, R * R, B)
    out_p /= out_p.sum(axis=1)[:, None]
    return L_new, P


# ---------------------------------------------------------------------------
# the probability-domain engine the log-domain engine replaced: each kernel
# takes the log of its iterate and floors the probabilities it returns


def prob_softmax(P, G, eta):
    Z = np.log(P) + eta * G
    Z -= Z.max(axis=-1, keepdims=True)
    Q = np.exp(Z)
    Q /= Q.sum(axis=-1, keepdims=True)
    return np.maximum(Q, PROB_FLOOR)


def prob_chain(P, G, eta, M, R):
    U = M * R
    B = P.shape[0]
    if M == 1:
        return prob_softmax(P, G, eta)
    theta_u = eta * G[:, :U].reshape(B, M, R)
    theta_u[:, 1:-1] -= np.log(P[:, :U].reshape(B, M, R)[:, 1:-1])
    theta_p = eta * G[:, U:].reshape(B, M - 1, R, R) + np.log(P[:, U:].reshape(B, M - 1, R, R))
    return np.maximum(row_chain_normalize(*row_chain_log_marginals(theta_u, theta_p)), PROB_FLOOR)


def prob_sinkhorn(P, G, eta):
    return row_sinkhorn_newton(np.log(P), G, eta)[1]


def prob_project(task, P, G, eta):
    if task.kind == "chain":
        return prob_chain(P, G, eta, task.M, task.R)
    if task.kind == "ranking":
        return prob_sinkhorn(P, G, eta)
    return prob_softmax(P, G, eta)


def prob_engine(V, task, K, init=None):
    """The probability-domain mirror-prox loop on one (2B, dim) row stack."""
    B = len(V)
    rate = (1.0 / (2.0 * task.l_spmp)) * task.r2
    if init is None:
        X = np.tile(task.uniform_state(), (2 * B, 1))
    else:
        X = np.concatenate([np.broadcast_to(np.maximum(x, PROB_FLOOR), V.shape) for x in init])

    def grad(X):
        AX = task.apply_loss_matrix(X.T).T
        return np.concatenate([AX[B:] + V, -AX[:B]])

    X_sum = np.zeros_like(X)
    for _ in range(K):
        X_half = prob_project(task, X, grad(X), rate)
        X = prob_project(task, X, grad(X_half), rate)
        X_sum += X_half
    X_bar = X_sum / K
    return X_bar[:B], X_bar[B:], X[:B], X[B:]


# ---------------------------------------------------------------------------
# helpers


def columns(X):
    return np.ascontiguousarray(X.T)


def assert_matches(got, ref, exact):
    """got equals ref bit for bit, or to 1e-12 relative where not exact."""
    if exact:
        assert np.array_equal(got, ref)
    else:
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def interior_points(task, rng, rows):
    """Rows strictly inside the polytope: Dirichlet mixtures of all labels."""
    E = np.stack([task.embed(y) for y in task.labels()])
    return np.maximum(rng.dirichlet(np.full(len(E), 0.7), size=rows) @ E, PROB_FLOOR)


draws = settings(derandomize=True, deadline=None, max_examples=40)
seeds = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------------------
# kernels against their references


@draws
@given(terms=st.integers(1, 12), rows=st.integers(1, 9), seed=seeds)
def test_logsumexp_matches_row_reference(terms, rows, seed):
    x = np.random.default_rng(seed).normal(size=(rows, 3, terms)) * 20
    got = _logsumexp(np.ascontiguousarray(x.transpose(2, 1, 0)))
    assert_matches(got, row_logsumexp(x, 2).T, terms < 8)


@draws
@given(k=st.integers(2, 11), rows=st.integers(1, 9), scale=st.sampled_from([0.1, 3.0, 40.0]),
       seed=seeds)
def test_softmax_matches_row_reference(k, rows, scale, seed):
    rng = np.random.default_rng(seed)
    L = np.log(interior_points(MulticlassTask(k), rng, rows))
    G = rng.normal(size=L.shape) * scale
    got_l, got_p = _softmax_stack(columns(L), columns(G), 0.7)
    ref_l, ref_p = row_softmax(L, G, 0.7)
    assert_matches(got_l, ref_l.T, True)
    assert_matches(got_p, ref_p.T, k < 8)


@draws
@given(M=st.integers(1, 4), R=st.integers(2, 3), rows=st.integers(1, 6),
       scale=st.sampled_from([0.1, 3.0, 30.0]), seed=seeds)
def test_chain_matches_row_reference(M, R, rows, scale, seed):
    task = ChainTask(M, R)
    rng = np.random.default_rng(seed)
    L = np.log(interior_points(task, rng, rows))
    G = rng.normal(size=L.shape) * scale
    got_l, got_p = (x.T for x in _chain_stack(columns(L), columns(G), 0.8, M, R))
    ref_l, ref_p = row_chain(L, G, 0.8, M, R)
    U = task.unary_dim
    # the log-marginals sum R < 8 terms; a pairwise block sums R*R of them
    assert_matches(got_l, ref_l, True)
    assert_matches(got_p[:, :U], ref_p[:, :U], True)
    assert_matches(got_p[:, U:], ref_p[:, U:], M == 1 or R * R < 8)


def chain_log_iterates(task, rng, rows, scale, eta):
    """(dim, rows) log-iterates one projection away from the uniform point,
    without enumerating labels: at large scales they sit near vertices."""
    L = np.tile(np.log(task.uniform_state())[:, None], (1, rows))
    return two_pass_chain(L, rng.normal(size=L.shape) * scale, eta, task.M, task.R)[0]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(M=st.integers(1, 8), R=st.integers(2, 6), rows=st.integers(1, 64),
       scale=st.sampled_from([1e-3, 1.0, 30.0, 1e4]),
       doublings=st.integers(0, round(math.log2(ADAPTIVE_START))), seed=seeds)
def test_one_sweep_chain_matches_two_pass_kernel(M, R, rows, scale, doublings, seed):
    # steps from the worst-case one up to ADAPTIVE_START times it, the
    # engine's whole range
    task = ChainTask(M, R)
    eta = task.r2 / (2.0 * task.l_spmp) * 2.0 ** doublings
    rng = np.random.default_rng(seed)
    L = chain_log_iterates(task, rng, rows, scale, eta)
    G = rng.normal(size=L.shape) * scale
    got, want = _chain_stack(L, G, eta, M, R), two_pass_chain(L, G, eta, M, R)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.flags.c_contiguous
        assert np.array_equal(g, w)


def test_one_sweep_chain_through_project_on_strided_rows():
    # `project` hands the kernel contiguous columns of any row stack it is given
    task = ChainTask(4, 3)
    rng = np.random.default_rng(12)
    P = np.exp(chain_log_iterates(task, rng, 14, 3.0, 0.5)).T[::2]  # strided (7, dim) rows
    G = np.asfortranarray(rng.normal(size=(7, task.embed_dim)) * 3.0)
    assert not (P.flags.c_contiguous or G.flags.c_contiguous)
    L = np.log(np.maximum(P, PROB_FLOOR))
    want = two_pass_chain(L.T.copy(), G.T.copy(), 0.5, 4, 3)[1].T
    assert np.array_equal(project(task, P, G, 0.5), want)
    # one column alone: numpy may sum its 9-entry pairwise blocks pairwise,
    # so it is compared with the reference on that column alone
    one = two_pass_chain(L[3][:, None], G[3][:, None].copy(), 0.5, 4, 3)[1][:, 0]
    assert np.array_equal(project(task, P[3], G[3], 0.5), one)


def birkhoff_points(M, rng, rows):
    """Interior rows of the Birkhoff polytope; from M = 5 on, Dirichlet rows."""
    if M <= 4:
        return interior_points(RankingTask(M), rng, rows)
    return np.maximum(rng.dirichlet(np.ones(M), size=(rows, M)).reshape(rows, M * M), 1e-6)


@draws
@given(M=st.integers(2, 7), rows=st.integers(1, 6), scale=st.sampled_from([0.1, 3.0, 30.0]),
       seed=seeds)
def test_sinkhorn_matches_row_reference(M, rows, scale, seed):
    # every sum in the kernel runs over M < 8 terms
    rng = np.random.default_rng(seed)
    L = np.log(birkhoff_points(M, rng, rows))
    G = rng.normal(size=L.shape) * scale
    got = _sinkhorn_stack(columns(L), columns(G), 1.0)
    for g, r in zip(got, row_sinkhorn_newton(L, G, 1.0)):
        assert_matches(g, r.T, True)


@draws
@given(M=st.integers(2, 5), rows=st.integers(1, 6), rate=st.sampled_from([0.1, 1.0, 5.0]),
       seed=seeds)
def test_sinkhorn_is_doubly_stochastic_and_matches_sweeps(M, rows, rate, seed):
    # the projection Sinkhorn's sweeps compute, wherever they converge
    rng = np.random.default_rng(seed)
    L = np.log(birkhoff_points(M, rng, rows))
    G = rng.normal(size=L.shape)
    P = _sinkhorn_stack(columns(L), columns(G), rate)[1].T
    Q = P.reshape(rows, M, M)
    assert np.abs(Q.sum(axis=2) - 1.0).max() <= SINKHORN_TOL + M * PROB_FLOOR
    assert np.abs(Q.sum(axis=1) - 1.0).max() <= SINKHORN_TOL + M * PROB_FLOOR
    for b in range(rows):
        try:
            ref = row_sinkhorn_scale((L[b] + rate * G[b]).reshape(1, M, M))
        except SinkhornConvergenceError:
            continue
        assert np.abs(P[b] - np.maximum(ref[0], PROB_FLOOR)).max() <= SWEEPS_ATOL


def _blocks(task):
    """Slices of a column that may each carry their own constant in the log-iterate."""
    if task.kind != "chain" or task.M == 1:
        return [slice(None)]
    U = task.unary_dim
    return [slice(m * task.R, (m + 1) * task.R) for m in range(task.M)] + [
        slice(U + m * task.R ** 2, U + (m + 1) * task.R ** 2) for m in range(task.M - 1)]


@pytest.mark.parametrize(
    "task", [MulticlassTask(4), OrdinalTask(3), ChainTask(1, 3), ChainTask(3, 2), ChainTask(4, 3),
             RankingTask(3)],
    ids=lambda t: f"{t.kind}{t.embed_dim}",
)
def test_shift_of_the_log_iterate_cancels(task):
    rng = np.random.default_rng(9)
    L = columns(np.log(interior_points(task, rng, 6)))
    G = columns(rng.normal(size=(6, task.embed_dim)) * 3)
    shifted = L.copy()
    for block in _blocks(task):
        shifted[block] += rng.uniform(-5.0, 5.0, size=6)
    P = task.project_stack(L, G, 0.6)[1]
    assert np.all(np.abs(task.project_stack(shifted, G, 0.6)[1] - P) <= 1e-12 * P)


# ---------------------------------------------------------------------------
# the engine: one stacked call equals one call per row, and the log-domain
# engine agrees with the probability-domain one


ENGINE_TASKS = [MulticlassTask(3), OrdinalTask(5), ChainTask(3, 2), RankingTask(3)]


@pytest.mark.parametrize("task", ENGINE_TASKS, ids=lambda t: t.kind)
def test_mirror_prox_stack_equals_row_calls(task):
    rng = np.random.default_rng(31)
    rows = 5
    V = rng.normal(size=(rows, task.embed_dim)) * 3.0
    mu = interior_points(task, rng, rows)
    nu = interior_points(task, rng, rows)
    for init in (None, (mu, nu)):
        stacks = spmp_solve_batch_simplex(V, task, 30, init=init)
        for s in stacks:
            assert s.shape == (rows, task.embed_dim) and s.flags.c_contiguous
        for b in range(rows):
            one = None if init is None else (mu[b], nu[b])
            for got, row in zip(stacks, spmp_solve_batch_simplex(V[b], task, 30, init=one)):
                assert np.array_equal(got[b], row[0])


@pytest.mark.parametrize("task", ENGINE_TASKS, ids=lambda t: t.kind)
def test_adaptive_stack_equals_row_calls(task):
    # each row keeps its own steps and restarts at the same rounds, so
    # stacking rows changes no bit, at the restart schedule's edges too
    rng = np.random.default_rng(32)
    rows = 6
    V = rng.normal(size=(rows, task.embed_dim)) * 3.0
    V[0] *= 10.0  # rows whose steps settle apart
    for K in (1, 2, 3, 30):
        stacks = spmp_solve_batch_simplex(V, task, K, step=None)
        for b in range(rows):
            for got, row in zip(stacks, spmp_solve_batch_simplex(V[b], task, K, step=None)):
                assert np.array_equal(got[b], row[0])


@pytest.mark.parametrize(
    "task", [MulticlassTask(3), OrdinalTask(3), OrdinalTask(5), ChainTask(4, 3), RankingTask(3),
             RankingTask(4)],
    ids=lambda t: f"{t.kind}{t.embed_dim}",
)
def test_column_subsets_keep_their_bits(task):
    # the engine gathers the rows it still projects into a smaller stack
    # with take, so A and the projection on any column subset must equal
    # the full stack's columns bit for bit: ordinal's A is a gemm, whose
    # blocking could depend on the stack's width.  Points inside the
    # polytope and at its floored vertices, at a per-column rate and one rate
    rng = np.random.default_rng(33)
    n = 40
    vertices = np.stack([task.embed(y) for y in task.labels()])[rng.integers(task.n_labels(), size=n // 4)]
    X = columns(np.maximum(np.vstack([interior_points(task, rng, n - n // 4), vertices]), PROB_FLOOR))
    L = np.log(X)
    G = columns(rng.normal(size=(n, task.embed_dim)) * rng.choice([0.3, 3.0, 30.0], size=(n, 1)))
    rates = 0.5 ** rng.integers(0, 11, size=n)
    full_a = task.loss_stack(X)
    full_p = [task.project_stack(L, G, eta) for eta in (rates, 0.25)]
    for size in [2, 3, 5, 8, 13, 21, 34, n - 1, n]:
        for _ in range(3):
            idx = np.sort(rng.choice(n, size=size, replace=False))
            assert np.array_equal(task.loss_stack(X.take(idx, axis=1)), full_a[:, idx])
            for eta, full in zip((rates[idx], 0.25), full_p):
                sub = task.project_stack(L.take(idx, axis=1), G.take(idx, axis=1), eta)
                for got, want in zip(sub, full):
                    assert np.array_equal(got, want[:, idx])


@settings(derandomize=True, deadline=None, max_examples=30)
@given(task=st.sampled_from(ENGINE_TASKS), rows=st.integers(1, 4), K=st.integers(1, 80),
       scale=st.sampled_from([0.3, 3.0, 30.0]), warm=st.booleans(), seed=seeds)
def test_engine_matches_probability_domain_reference(task, rows, K, scale, warm, seed):
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(rows, task.embed_dim)) * scale
    init = (interior_points(task, rng, rows), interior_points(task, rng, rows)) if warm else None
    got = spmp_solve_batch_simplex(V, task, K, init=init)
    for g, r in zip(got, prob_engine(V, task, K, init)):
        assert np.max(np.abs(g - r)) <= ENGINE_ATOL


@pytest.mark.parametrize(
    "task, scale",
    [(MulticlassTask(3), 30.0), (OrdinalTask(4), 30.0), (ChainTask(3, 2), 30.0),
     (RankingTask(3), 30.0)],
    ids=lambda x: getattr(x, "kind", str(x)),
)
def test_engine_outputs_stay_off_the_subnormal_range(task, scale):
    V = np.random.default_rng(17).normal(size=(6, task.embed_dim)) * scale
    for out in spmp_solve_batch_simplex(V, task, 2000):
        assert out.min() >= PROB_FLOOR / task.embed_dim


# ---------------------------------------------------------------------------
# chain stack methods against their row-layout references


CHAIN_TASKS = [ChainTask(1, 3), ChainTask(3, 2), ChainTask(4, 3)]


def chain_scores(task, rng, rows, tied):
    """A (rows, dim) score stack: wide normals, or small integers that tie."""
    if tied:
        return rng.integers(-2, 3, size=(rows, task.embed_dim)).astype(float)
    return rng.normal(size=(rows, task.embed_dim)) * 10


def assert_scores_match_row_reference(task, S):
    """The column stack of the (B, dim) rows S, C-contiguous and as the
    F-ordered view S.T, against the row reference on S."""
    want_labels, want_max = row_chain_decode(task, S), row_chain_max(task, S)
    for cols in (columns(S), S.T):
        labels = task.decode(cols)
        assert labels == want_labels
        assert all(type(c) is int for y in labels for c in y)
        got = task.max_oracle(cols)
        assert got.shape == (len(S),)
        assert np.array_equal(got, want_max)


def layout_error(check, mu):
    """The message check(mu) raises, or None when mu passes."""
    try:
        check(mu)
    except LayoutError as e:
        return str(e)
    return None


def perturbed_points(task, rng, rows, moves, scale):
    """Interior points with `moves` random moves of about `scale` each: mass
    added to one entry of a row and, half the time, taken from another entry
    of the same block, which keeps every block sum but not the marginals."""
    mu = interior_points(task, rng, rows)
    blocks = _blocks(task)
    for _ in range(moves):
        block = blocks[rng.integers(len(blocks))]
        b, (i, j) = rng.integers(rows), rng.choice(np.arange(task.embed_dim)[block], size=2)
        d = scale * rng.normal()
        mu[b, i] += d
        if rng.random() < 0.5:
            mu[b, j] -= d
    return mu


def assert_check_matches_row_reference(task, mu):
    want = layout_error(lambda x: row_chain_check_state(task, x), mu)
    assert layout_error(task.check_state, columns(mu)) == want
    return want


@settings(derandomize=True, deadline=None, max_examples=40)
@given(task=st.sampled_from(CHAIN_TASKS), rows=st.integers(1, 5000), tied=st.booleans(),
       seed=seeds)
def test_chain_scores_match_row_reference(task, rows, tied, seed):
    assert_scores_match_row_reference(task, chain_scores(task, np.random.default_rng(seed), rows, tied))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(task=st.sampled_from(CHAIN_TASKS), rows=st.integers(1, 5000), moves=st.integers(0, 4),
       scale=st.sampled_from([1e-10, 3e-9, 3e-8, 0.05]), seed=seeds)
def test_chain_check_state_matches_row_reference(task, rows, moves, scale, seed):
    mu = perturbed_points(task, np.random.default_rng(seed), rows, moves, scale)
    assert_check_matches_row_reference(task, mu)
    assert_check_matches_row_reference(task, mu[-1])


@pytest.mark.parametrize("task", CHAIN_TASKS, ids=lambda t: f"M{t.M}R{t.R}")
def test_chain_stack_methods_fixed_cases(task):
    rng = np.random.default_rng(41)
    for rows in (1, 2, 5000):
        for tied in (False, True):
            S = chain_scores(task, rng, rows, tied)
            assert_scores_match_row_reference(task, S)
            assert task.decode(S[0]) == row_chain_decode(task, S[:1])[0]
    empty = np.zeros((0, task.embed_dim))
    assert_scores_match_row_reference(task, empty)
    task.check_state(columns(empty))
    # rows failing each check, alone and at the end of a stack of good rows:
    # one entry moved, or mass moved between two entries of one block
    messages = set()
    good = interior_points(task, rng, 50)
    for block in _blocks(task):
        for i in np.arange(task.embed_dim)[block]:
            for j in (i, *np.arange(task.embed_dim)[block][:2]):
                for step in (-1.0, 0.05, 3e-9):
                    bad = good[0].copy()
                    bad[i] += step
                    if j != i:
                        bad[j] -= step
                    messages.add(assert_check_matches_row_reference(task, bad))
                    assert assert_check_matches_row_reference(task, np.vstack([good, bad])) == \
                        layout_error(task.check_state, bad)
    want = {"negative marginals", "unary block does not sum to 1"}
    for m in range(task.M - 1):
        want |= {f"pairwise block {m} does not sum to 1",
                 f"pairwise block {m} inconsistent with unary {m}",
                 f"pairwise block {m} inconsistent with unary {m + 1}"}
    assert want <= messages


# ---------------------------------------------------------------------------
# layouts and error rows


@pytest.mark.parametrize(
    "task", [MulticlassTask(3), OrdinalTask(4), ChainTask(1, 2), ChainTask(3, 2), RankingTask(3)],
    ids=lambda t: f"{t.kind}{t.embed_dim}",
)
def test_project_stack_returns_column_stack(task):
    rng = np.random.default_rng(4)
    L = columns(np.log(interior_points(task, rng, 5)))
    G = columns(rng.normal(size=(5, task.embed_dim)))
    for out in task.project_stack(L, G, 0.5):
        assert out.shape == (task.embed_dim, 5)
        assert out.flags.c_contiguous
    L_new, P_new = task.project_stack(L, G, 0.5)
    assert L_new.min() >= _LOG_FLOOR
    task.check_state(P_new)


def test_sinkhorn_error_names_the_failing_column():
    rng = np.random.default_rng(5)
    M = 4
    P = np.stack([
        np.full(M * M, 1.0 / M),  # doubly stochastic already: converged before any step
        np.maximum(rng.dirichlet(np.ones(M), size=M).ravel(), 1e-6),
    ])
    G = np.stack([np.zeros(M * M), rng.normal(size=M * M) * 3])
    with pytest.raises(SinkhornConvergenceError) as exc:
        _sinkhorn_stack(columns(np.log(P)), columns(G), 1.0, max_iter=1)
    assert exc.value.row == 1


# ---------------------------------------------------------------------------
# stacked polytope checks


def bad_rows(task):
    """(name, vector) pairs that break one polytope invariant each."""
    u = task.uniform_state()
    out = [("scaled", 2.0 * u), ("negative", u - 2.0 * u.max() * (np.arange(len(u)) == 0))]
    if task.kind == "chain":
        shifted = u.copy()
        U = task.unary_dim
        shifted[U:U + task.R] += 0.05  # pairwise block 0: first row up
        shifted[U + task.R:U + 2 * task.R] -= 0.05  # second row down, sum kept
        out.append(("inconsistent", shifted))
        unary = u.copy()
        unary[0] += 0.05  # unary block 0 no longer sums to 1
        out.append(("unary sum", unary))
        right = u.copy()
        last = U + (task.M - 2) * task.R ** 2
        right[last] += 0.05  # last pairwise block: first row's first entry up,
        right[last + 1] -= 0.05  # its second down, so only the column sums move
        out.append(("inconsistent on the right", right))
    return out


@pytest.mark.parametrize(
    "task", [MulticlassTask(3), OrdinalTask(4), ChainTask(3, 2), RankingTask(3)],
    ids=lambda t: t.kind,
)
def test_one_bad_row_in_a_stack_raises(task):
    rng = np.random.default_rng(6)
    good = interior_points(task, rng, 6)
    task.check_state(columns(good))
    for name, bad in bad_rows(task):
        with pytest.raises(LayoutError) as single:
            task.check_state(bad)
        stack = good.copy()
        stack[4] = bad
        with pytest.raises(LayoutError) as stacked:
            task.check_state(columns(stack))
        assert str(stacked.value) == str(single.value), name
        with pytest.raises(LayoutError):
            certified_gap(good, stack, np.zeros_like(good), task)
        # a bad warm-start row, on either player or broadcast from one vector
        for init in ((stack, good), (good, stack), (bad, good[0])):
            with pytest.raises(LayoutError):
                spmp_solve_batch_simplex(good, task, 3, init=init)
    with pytest.raises(LayoutError):
        task.check_state(np.zeros((task.embed_dim + 1, 2)))
    for init in ((good[:, 1:], good), (good, good[:2])):  # wrong width, wrong row count
        with pytest.raises(LayoutError):
            spmp_solve_batch_simplex(good, task, 3, init=init)
