"""The column-stack kernels against the row-layout kernels they replaced.

The projection kernels and the mirror-prox engine work on C-contiguous
(dim, B) column stacks.  The row-layout kernels below are the earlier
implementations, kept as references: on a (B, dim) stack they reduce over
the last axis.  A column kernel must match its reference bit for bit
wherever the reference summed fewer than 8 terms, since numpy sums fewer
than 8 contiguous terms in order, as a column kernel does; from 8 terms on,
numpy sums a contiguous row pairwise, so the two may differ in the last
bits and must agree to 1e-12 relative.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxminsp.oracle import certified_gap, spmp_solve_batch_simplex
from maxminsp.projections import (
    PROB_FLOOR,
    SINKHORN_MAX_ITER,
    SINKHORN_TOL,
    SinkhornConvergenceError,
    _chain_stack,
    _logsumexp,
    _sinkhorn_stack,
    _softmax_stack,
)
from maxminsp.tasks import ChainTask, LayoutError, MulticlassTask, OrdinalTask, RankingTask

# ---------------------------------------------------------------------------
# row-layout references: row b of a (B, dim) stack is one point


def row_logsumexp(x, axis):
    top = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - top).sum(axis=axis)) + np.squeeze(top, axis)


def row_softmax(P, G, eta):
    Z = np.log(P) + eta * G
    Z -= Z.max(axis=-1, keepdims=True)
    Q = np.exp(Z)
    Q /= Q.sum(axis=-1, keepdims=True)
    return np.maximum(Q, PROB_FLOOR, out=Q)


def row_chain(P, G, eta, M, R):
    U = M * R
    B = P.shape[0]
    if M == 1:
        return row_softmax(P, G, eta)
    pu = P[:, :U].reshape(B, M, R)
    pp = P[:, U:].reshape(B, M - 1, R, R)
    theta_u = eta * G[:, :U].reshape(B, M, R)
    theta_u[:, 1:-1] -= np.log(pu[:, 1:-1])
    theta_p = eta * G[:, U:].reshape(B, M - 1, R, R) + np.log(pp)
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
    out_u = np.exp(alpha + beta - log_z)
    out_u /= out_u.sum(axis=2, keepdims=True)
    after = theta_u[:, 1:] + beta[:, 1:]
    out_p = np.exp(alpha[:, :-1, :, None] + theta_p + after[:, :, None, :] - log_z[..., None])
    out_p /= out_p.sum(axis=(2, 3), keepdims=True)
    out = np.concatenate([out_u.reshape(B, U), out_p.reshape(B, -1)], axis=1)
    return np.maximum(out, PROB_FLOOR, out=out)


def row_sinkhorn(P, G, eta, tol=SINKHORN_TOL, max_iter=SINKHORN_MAX_ITER):
    B = P.shape[0]
    M = math.isqrt(P.shape[1])
    logK = (np.log(P) + eta * G).reshape(B, M, M)
    logK -= logK.max(axis=(1, 2), keepdims=True)
    K = np.exp(logK)
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
    out = K.reshape(B, M * M)
    return np.maximum(out, PROB_FLOOR, out=out)


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
    P = interior_points(MulticlassTask(k), rng, rows)
    G = rng.normal(size=P.shape) * scale
    got = _softmax_stack(columns(P), columns(G), 0.7)
    assert_matches(got, row_softmax(P, G, 0.7).T, k < 8)


@draws
@given(M=st.integers(1, 4), R=st.integers(2, 3), rows=st.integers(1, 6),
       scale=st.sampled_from([0.1, 3.0, 30.0]), seed=seeds)
def test_chain_matches_row_reference(M, R, rows, scale, seed):
    task = ChainTask(M, R)
    rng = np.random.default_rng(seed)
    P = interior_points(task, rng, rows)
    G = rng.normal(size=P.shape) * scale
    got = _chain_stack(columns(P), columns(G), 0.8, M, R).T
    ref = row_chain(P, G, 0.8, M, R)
    U = task.unary_dim
    # unary sums have R < 8 terms; a pairwise block sums R*R of them
    assert_matches(got[:, :U], ref[:, :U], True)
    assert_matches(got[:, U:], ref[:, U:], M == 1 or R * R < 8)


@draws
@given(M=st.integers(2, 6), rows=st.integers(1, 6), scale=st.sampled_from([0.1, 1.0, 3.0]),
       seed=seeds)
def test_sinkhorn_matches_row_reference(M, rows, scale, seed):
    rng = np.random.default_rng(seed)
    P = interior_points(RankingTask(M), rng, rows) if M <= 4 else np.maximum(
        rng.dirichlet(np.ones(M), size=(rows, M)).reshape(rows, M * M), 1e-6)
    G = rng.normal(size=P.shape) * scale
    got = _sinkhorn_stack(columns(P), columns(G), 1.0)
    assert_matches(got, row_sinkhorn(P, G, 1.0).T, True)


# ---------------------------------------------------------------------------
# the engine: one stacked call equals one call per row


ENGINE_TASKS = [MulticlassTask(3), OrdinalTask(5), ChainTask(3, 2), RankingTask(3)]


@pytest.mark.parametrize("task", ENGINE_TASKS, ids=lambda t: t.kind)
def test_mirror_prox_stack_equals_row_calls(task):
    rng = np.random.default_rng(31)
    rows = 5
    # ranking scores stay small: steep ones stall Sinkhorn
    V = rng.normal(size=(rows, task.embed_dim)) * (0.5 if task.kind == "ranking" else 3.0)
    mu = interior_points(task, rng, rows)
    nu = interior_points(task, rng, rows)
    for init in (None, (mu, nu)):
        stacks = spmp_solve_batch_simplex(V, task, 30, None, init)
        for s in stacks:
            assert s.shape == (rows, task.embed_dim) and s.flags.c_contiguous
        for b in range(rows):
            one = None if init is None else (mu[b], nu[b])
            for got, row in zip(stacks, spmp_solve_batch_simplex(V[b], task, 30, None, one)):
                assert np.array_equal(got[b], row[0])


# ---------------------------------------------------------------------------
# layouts and error rows


@pytest.mark.parametrize(
    "task", [MulticlassTask(3), OrdinalTask(4), ChainTask(1, 2), ChainTask(3, 2), RankingTask(3)],
    ids=lambda t: f"{t.kind}{t.embed_dim}",
)
def test_project_stack_returns_column_stack(task):
    rng = np.random.default_rng(4)
    P = columns(interior_points(task, rng, 5))
    G = columns(rng.normal(size=(5, task.embed_dim)))
    out = task.project_stack(P, G, 0.5)
    assert out.shape == (task.embed_dim, 5)
    assert out.flags.c_contiguous
    task.check_state(out.T)


def test_sinkhorn_error_names_the_failing_column():
    rng = np.random.default_rng(5)
    M = 4
    P = np.stack([
        np.full(M * M, 1.0 / M),  # doubly stochastic already: converged after one sweep
        np.maximum(rng.dirichlet(np.ones(M), size=M).ravel(), 1e-6),
    ])
    G = np.stack([np.zeros(M * M), rng.normal(size=M * M) * 3])
    with pytest.raises(SinkhornConvergenceError) as exc:
        _sinkhorn_stack(columns(P), columns(G), 1.0, max_iter=1)
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
    return out


@pytest.mark.parametrize(
    "task", [MulticlassTask(3), OrdinalTask(4), ChainTask(3, 2), RankingTask(3)],
    ids=lambda t: t.kind,
)
def test_one_bad_row_in_a_stack_raises(task):
    rng = np.random.default_rng(6)
    good = interior_points(task, rng, 6)
    task.check_state(good)
    for name, bad in bad_rows(task):
        with pytest.raises(LayoutError) as single:
            task.check_state(bad)
        stack = good.copy()
        stack[4] = bad
        with pytest.raises(LayoutError) as stacked:
            task.check_state(stack)
        assert str(stacked.value) == str(single.value), name
        with pytest.raises(LayoutError):
            certified_gap(good, stack, np.zeros_like(good), task)
        # a bad warm-start row, on either player or broadcast from one vector
        for init in ((stack, good), (good, stack), (bad, good[0])):
            with pytest.raises(LayoutError):
                spmp_solve_batch_simplex(good, task, 3, None, init)
    with pytest.raises(LayoutError):
        task.check_state(np.zeros((2, task.embed_dim + 1)))
    for init in ((good[:, 1:], good), (good, good[:2])):  # wrong width, wrong row count
        with pytest.raises(LayoutError):
            spmp_solve_batch_simplex(good, task, 3, None, init)
