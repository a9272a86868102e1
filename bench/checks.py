"""Checks of the program's outputs that do not call the program.

Everything here is computed from the label set of a small task: each label's
vertex embedding, the loss between every two labels, and the expected loss
of each label at a point of the marginal polytope.  The exact dual gap is an
LP over mixtures of labels (scipy.optimize.linprog); the program certifies
its gaps with its own saddle-point oracle instead, so the two agree only if
the program is right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import linprog


class CheckError(AssertionError):
    """A checker found an output, or a checker self-test, to be wrong."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass(frozen=True)
class LabelTable:
    """Every label of a small task, its vertex embedding and its losses."""

    labels: list
    E: np.ndarray  # (N, d): row y is the embedding phi(y)
    L: np.ndarray  # (N, N): L[y, z] is the loss of predicting y when z is true
    expected_loss: Callable[[np.ndarray], np.ndarray]  # (n, d) -> (n, N)


def simplex_table(k: int, loss: str) -> LabelTable:
    """Labels 1..k embedded as one-hot vectors, with 0-1 or |y - z| loss."""
    idx = np.arange(1, k + 1)
    if loss == "zero_one":
        L = 1.0 - np.eye(k)
    elif loss == "absolute":
        L = np.abs(idx[:, None] - idx[None, :]).astype(float)
    else:
        raise ValueError(f"unknown loss {loss!r}")
    return LabelTable(list(range(1, k + 1)), np.eye(k), L, lambda mu: np.atleast_2d(mu) @ L.T)


def chain_table(M: int, R: int) -> LabelTable:
    """Sequences over 1..R with normalized Hamming loss.

    Layout of an embedding: M one-hot unary blocks of R entries, then M-1
    one-hot pairwise blocks of R*R entries, row-major in (y_m, y_{m+1}).
    """
    labels = list(itertools.product(range(1, R + 1), repeat=M))
    Y = np.array(labels) - 1
    N, d_u = len(labels), M * R
    E = np.zeros((N, d_u + (M - 1) * R * R))
    rows = np.arange(N)
    for m in range(M):
        E[rows, m * R + Y[:, m]] = 1.0
    for m in range(M - 1):
        E[rows, d_u + m * R * R + Y[:, m] * R + Y[:, m + 1]] = 1.0
    L = (Y[:, None, :] != Y[None, :, :]).mean(axis=2)
    U = E[:, :d_u]

    def expected_loss(mu):
        # Hamming loss is a mean of per-position losses, so it depends on
        # the unary marginals only
        return 1.0 - (np.atleast_2d(mu)[:, :d_u] @ U.T) / M

    return LabelTable(labels, E, L, expected_loss)


def gaussian_kernel(X: np.ndarray, Z: np.ndarray, gamma: float) -> np.ndarray:
    d2 = ((X[:, None, :] - Z[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-gamma * d2)


def lp_conjugate(c: np.ndarray, L: np.ndarray) -> float:
    """max over label mixtures q of  min_y (L q)_y + c . q,  by linprog."""
    N = len(c)
    # variables (q_1..q_N, t): maximize t + c.q  s.t.  t <= (L q)_y, sum q = 1
    res = linprog(
        -np.r_[c, 1.0],
        A_ub=np.hstack([-L, np.ones((N, 1))]),
        b_ub=np.zeros(N),
        A_eq=np.r_[np.ones(N), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0, None)] * N + [(None, None)],
        method="highs",
    )
    require(res.status == 0, f"exact-gap LP failed: {res.message}")
    return float(-res.fun)


def lp_vertices(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (q, t) of the feasible set of the LP in `lp_conjugate`.

    The LP's optimum lies at one of them whatever c is, so the LP value of
    many rows is a max over this fixed set.  Each vertex makes N of the 2N
    inequalities q_j >= 0, t <= (L q)_y tight; enumerating the choices is
    cheap for a handful of labels.
    """
    N = len(L)
    require(N <= 6, "vertex enumeration is meant for a handful of labels")
    rows = [np.r_[np.eye(N)[j], 0.0] for j in range(N)]  # q_j = 0
    rows += [np.r_[-L[y], 1.0] for y in range(N)]  # t = (L q)_y
    qs, ts = [], []
    for active in itertools.combinations(range(2 * N), N):
        A = np.vstack([rows[a] for a in active] + [np.r_[np.ones(N), 0.0]])
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, np.r_[np.zeros(N), 1.0])
        q, t = x[:N], x[N]
        if q.min() >= -1e-12 and t <= (L @ q).min() + 1e-12:
            qs.append(q)
            ts.append(t)
    return np.array(qs), np.array(ts)


def conjugate(C: np.ndarray, table: LabelTable) -> np.ndarray:
    """Row-wise LP value of `lp_conjugate` for label-score rows C."""
    C = np.atleast_2d(C)
    if len(table.labels) <= 6:
        Q, t = lp_vertices(table.L)
        return (C @ Q.T + t).max(axis=1)
    return np.array([lp_conjugate(c, table.L) for c in C])


def multiclass_closed_form(c: np.ndarray) -> float:
    """Best uniform mixture over the s top-scoring labels, over all s."""
    top = np.sort(c)[::-1]
    s = np.arange(1, len(c) + 1)
    return float(np.max(1.0 - 1.0 / s + np.cumsum(top) / s))


def exact_dual_gaps(V: np.ndarray, dual_mu: np.ndarray, table: LabelTable) -> np.ndarray:
    """Per-example gap  max_mu' H_i(mu') - H_i(mu_i)  of the dual blocks.

    H_i(mu) = bayes(mu) + v_i . (mu - phi(y_i)); the phi(y_i) terms cancel.
    The max runs over mixtures of labels, mu' = E^T q, so it is the LP value
    of the label scores E v_i.
    """
    best = conjugate(V @ table.E.T, table)
    bayes = table.expected_loss(dual_mu).min(axis=1)
    return best - bayes - np.einsum("ij,ij->i", V, dual_mu)


def saddle_gaps(V, mu_bar, nu_bar, table: LabelTable) -> tuple[np.ndarray, np.ndarray]:
    """Certified and exact gaps of saddle-oracle iterates, per row.

    For  max_mu min_nu  sum_yz nu_y L[y,z] mu_z + v . mu  on a simplex:
    certified = max_y (L nu_bar + v)_y - value(mu_bar), the gap the two
    averaged players certify;  exact = LP optimum - value(mu_bar), what the
    max player really misses.
    """
    value_mu = table.expected_loss(mu_bar).min(axis=1) + np.einsum("ij,ij->i", V, mu_bar)
    upper = (table.expected_loss(nu_bar) + V @ table.E.T).max(axis=1)
    return upper - value_mu, conjugate(V @ table.E.T, table) - value_mu


def brute_force_argmax(S: np.ndarray, table: LabelTable) -> tuple[np.ndarray, np.ndarray]:
    """First best label index of each score row, with all label scores."""
    scores = np.atleast_2d(S) @ table.E.T
    return scores.argmax(axis=1), scores


def chain_polytope_violation(mu: np.ndarray, M: int, R: int) -> float:
    """Largest breach of the chain marginal polytope's constraints.

    On a chain the local constraints (nonnegative, normalized, pairwise
    blocks marginalizing to their unaries) describe the polytope exactly.
    """
    mu = np.atleast_2d(mu)
    d_u = M * R
    u = mu[:, :d_u].reshape(-1, M, R)
    p = mu[:, d_u:].reshape(-1, M - 1, R, R)
    return float(max(
        -min(mu.min(), 0.0),
        np.abs(u.sum(axis=2) - 1.0).max(),
        np.abs(p.sum(axis=3) - u[:, :-1]).max(),
        np.abs(p.sum(axis=2) - u[:, 1:]).max(),
    ))
