"""Structured output tasks: embeddings, affine loss decompositions, decoding.

Each task represents outputs as vectors phi(y) in R^k so that the loss has
the affine form  L(y, y') = phi(y)^T A phi(y') + a  with a structured matrix
A (dense for multiclass/ordinal, block-diagonal unary blocks for chains,
-I/M for rankings).  Optimization always runs on the centered bilinear part;
the offset `a` is re-added whenever a human-readable loss or risk is
reported.

Each task also owns its marginal polytope: the stack projection under the
polytope's entropy and the constants that set the saddle solver's step; and
its max oracle max_y phi(y)^T s over a stack of scores, from which every
certified gap and bound is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np
from scipy.optimize import linear_sum_assignment

from .projections import (
    SINKHORN_MAX_ITER,
    LayoutError,
    _chain_stack,
    _sinkhorn_stack,
    _softmax_stack,
)

__all__ = [
    "Task",
    "SimplexTask",
    "MulticlassTask",
    "OrdinalTask",
    "ChainTask",
    "RankingTask",
    "make_task",
    "InvalidLabelError",
    "LayoutError",
]

# absolute tie tolerance for decoding (scaled by the score magnitude)
_TIE_TOL = 1e-9


class InvalidLabelError(ValueError):
    """Raised when a label is not a member of the task's output space."""


def _check_finite(v: np.ndarray, what: str = "scores") -> None:
    if not np.all(np.isfinite(v)):
        raise LayoutError(f"non-finite {what}")


class Task:
    """Base class; concrete tasks fill in the embedding, decoders and polytope.

    Polytope constants: `r2` is the entropy range (max H - min H), shared
    by both saddle players; `diameter_sq` is max ||phi(y) - phi(y')||_2^2;
    `l_spmp` is the theory smoothness constant of the saddle problem.
    `certify_eta`, when set, is the step used when the solver only
    certifies a bound.
    """

    kind: str
    embed_dim: int
    offset: float
    r2: float
    diameter_sq: float
    l_spmp: float
    certify_eta: float | None = None

    # -- labels ----------------------------------------------------------
    def check_label(self, y) -> None:
        raise NotImplementedError

    def labels(self) -> Iterator:
        """Enumerate the output space (guarded for small tasks only)."""
        raise NotImplementedError

    def n_labels(self) -> int:
        raise NotImplementedError

    def random_label(self, rng: np.random.Generator):
        raise NotImplementedError

    # -- embedding -------------------------------------------------------
    def embed(self, y) -> np.ndarray:
        """Vertex phi(y) of the marginal polytope."""
        raise NotImplementedError

    def decode_embedding(self, e: np.ndarray):
        """Inverse of embed on vertices."""
        raise NotImplementedError

    # -- loss ------------------------------------------------------------
    def apply_loss_matrix(self, mu: np.ndarray) -> np.ndarray:
        """A @ mu for the centered loss matrix (A is symmetric here).

        A (B, k) stack of points maps row by row to a (B, k) stack.
        """
        raise NotImplementedError

    def loss(self, y, y2) -> float:
        """L(y, y') = phi(y)^T A phi(y') + a."""
        self.check_label(y)
        self.check_label(y2)
        val = float(self.embed(y) @ self.apply_loss_matrix(self.embed(y2)))
        return val + self.offset

    # -- decoding --------------------------------------------------------
    def decode(self, v: np.ndarray):
        """argmax_y phi(y)^T v, ties broken by lowest lexicographic label."""
        raise NotImplementedError

    def max_oracle(self, S: np.ndarray) -> np.ndarray:
        """max_y phi(y)^T s for each row s of a (B, k) score stack."""
        return np.array([self.embed(self.decode(s)) @ s for s in np.atleast_2d(S)])

    def bayes_risk(self, mu: np.ndarray) -> tuple[float, object]:
        """min_y phi(y)^T A mu (plus offset) and a lowest-label minimizer."""
        self.check_state(mu)
        scores = self.apply_loss_matrix(np.asarray(mu, dtype=float))
        y = self.decode(-scores)
        value = float(self.embed(y) @ scores) + self.offset
        return value, y

    # -- polytope --------------------------------------------------------
    def uniform_state(self) -> np.ndarray:
        """The entropy maximizer of the marginal polytope."""
        raise NotImplementedError

    def check_state(self, mu: np.ndarray) -> None:
        """Validate the polytope layout invariants of mu."""
        raise NotImplementedError

    def project_stack(self, P: np.ndarray, G: np.ndarray, eta: float) -> np.ndarray:
        """Bregman projection of each row of P along the row of G, unchecked.

        Rows of P must be at or above PROB_FLOOR and G must be finite.
        """
        raise NotImplementedError


def _first_argmax(scores: np.ndarray) -> int:
    # exact comparison: np.argmax returns the first maximizer
    return int(np.argmax(scores))


@dataclass(frozen=True)
class SimplexTask(Task):
    """k labels 1..k as simplex vertices phi(y) = e_y.

    Subclasses supply `kind`, `offset` and the dense `loss_matrix()`.  The
    smoothness constant is ||A||_2 * diameter_sq * log k, the chain formula
    for a single position.
    """

    k: int
    diameter_sq = 2.0

    def __post_init__(self):
        if self.k < 2:  # one label leaves no entropy range to step in
            raise ValueError(f"a simplex task needs at least 2 labels, got k={self.k}")

    @property
    def embed_dim(self) -> int:
        return self.k

    def loss_matrix(self) -> np.ndarray:
        """The centered loss matrix A."""
        raise NotImplementedError

    @cached_property
    def loss_norm(self) -> float:
        """Spectral norm of A."""
        return float(np.linalg.norm(self.loss_matrix(), 2))

    @cached_property
    def r2(self) -> float:
        return math.log(self.k)

    @cached_property
    def l_spmp(self) -> float:
        return self.loss_norm * self.diameter_sq * self.r2

    @cached_property
    def certify_eta(self) -> float:
        # certification only: a step well above the worst-case-safe
        # default tightens the bound at equal budget
        return 4.0 / self.l_spmp

    def check_label(self, y) -> None:
        if not isinstance(y, (int, np.integer)) or not 1 <= y <= self.k:
            raise InvalidLabelError(f"label {y!r} not in 1..{self.k}")

    def labels(self):
        return iter(range(1, self.k + 1))

    def n_labels(self) -> int:
        return self.k

    def random_label(self, rng):
        return int(rng.integers(1, self.k + 1))

    def embed(self, y):
        self.check_label(y)
        e = np.zeros(self.k)
        e[y - 1] = 1.0
        return e

    def decode_embedding(self, e):
        idx = np.flatnonzero(np.asarray(e) > 0.5)
        if idx.size != 1:
            raise InvalidLabelError("not a one-hot embedding")
        return int(idx[0]) + 1

    def apply_loss_matrix(self, mu):
        return np.asarray(mu, dtype=float) @ self.loss_matrix()  # A symmetric

    def decode(self, v):
        v = np.asarray(v, dtype=float)
        _check_finite(v)
        if v.shape != (self.k,):
            raise LayoutError(f"expected shape ({self.k},), got {v.shape}")
        return _first_argmax(v) + 1

    def max_oracle(self, S):
        S = np.atleast_2d(np.asarray(S, dtype=float))
        _check_finite(S)
        if S.shape[1:] != (self.k,):
            raise LayoutError(f"expected rows of dim {self.k}, got {S.shape}")
        return S.max(axis=1)

    def uniform_state(self):
        return np.full(self.k, 1.0 / self.k)

    def check_state(self, mu):
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (self.k,):
            raise LayoutError(f"simplex point of dim {self.k} expected")
        if np.any(mu < -1e-12) or abs(mu.sum() - 1.0) > 1e-9:
            raise LayoutError("not a probability vector")

    def project_stack(self, P, G, eta):
        return _softmax_stack(P, G, eta)


@dataclass(frozen=True)
class MulticlassTask(SimplexTask):
    """k classes, 0-1 loss.  phi(y) = e_y, A = -I, a = 1."""

    kind: str = "multiclass"
    offset = 1.0
    loss_norm = 1.0

    def loss_matrix(self):
        return -np.eye(self.k)

    def apply_loss_matrix(self, mu):
        return -np.asarray(mu, dtype=float)


@dataclass(frozen=True)
class OrdinalTask(SimplexTask):
    """k ordered classes with absolute-difference loss |y - y'|.

    phi(y) = e_y and A_ij = |i - j|, a = 0.
    """

    kind: str = "ordinal"
    offset = 0.0

    def loss_matrix(self):
        idx = np.arange(1, self.k + 1)
        return np.abs(idx[:, None] - idx[None, :]).astype(float)


@dataclass(frozen=True)
class ChainTask(Task):
    """Sequences of length M over an alphabet of size R with Hamming loss.

    Embedding: M one-hot unary blocks (R each) followed by M-1 pairwise
    blocks (R*R each, row-major in (y_m, y_{m+1})).  The loss touches only
    the unary blocks: A is block-diagonal with (J - I)/M per position.
    """

    M: int
    R: int
    kind: str = "chain"

    def __post_init__(self):
        if self.R < 2:
            raise ValueError(f"chain task needs an alphabet of at least 2, got R={self.R}")

    @property
    def embed_dim(self) -> int:
        return self.M * self.R + (self.M - 1) * self.R * self.R

    @property
    def offset(self) -> float:
        return 0.0

    @property
    def unary_dim(self) -> int:
        return self.M * self.R

    def part_loss_matrix(self) -> np.ndarray:
        """Per-position 0-1 loss matrix (unnormalized)."""
        return 1.0 - np.eye(self.R)

    @property
    def diameter_sq(self) -> float:
        return 4.0 * self.M - 2.0

    @cached_property
    def r2(self) -> float:
        return self.M * math.log(self.R)

    @cached_property
    def l_spmp(self) -> float:
        """max_m ||L_m||_2 * diameter_sq * M log R."""
        lm_norm = float(np.linalg.norm(self.part_loss_matrix(), 2))
        return lm_norm * self.diameter_sq * self.r2

    def split(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(M, R) unary view and (M-1, R, R) pairwise view of a layout vector."""
        vec = np.asarray(vec, dtype=float)
        u = vec[: self.unary_dim].reshape(self.M, self.R)
        p = vec[self.unary_dim:].reshape(max(self.M - 1, 0), self.R, self.R)
        return u, p

    def join(self, u: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.concatenate([np.ravel(u), np.ravel(p)])

    def check_label(self, y) -> None:
        if len(y) != self.M or any(
            not isinstance(c, (int, np.integer)) or not 1 <= c <= self.R for c in y
        ):
            raise InvalidLabelError(f"{y!r} is not a length-{self.M} sequence over 1..{self.R}")

    def labels(self):
        if self.R ** self.M > 200_000:
            raise ValueError("output space too large to enumerate")
        return itertools.product(range(1, self.R + 1), repeat=self.M)

    def n_labels(self) -> int:
        return self.R ** self.M

    def random_label(self, rng):
        return tuple(int(c) for c in rng.integers(1, self.R + 1, size=self.M))

    def embed(self, y):
        self.check_label(y)
        u = np.zeros((self.M, self.R))
        p = np.zeros((max(self.M - 1, 0), self.R, self.R))
        for m, c in enumerate(y):
            u[m, c - 1] = 1.0
        for m in range(self.M - 1):
            p[m, y[m] - 1, y[m + 1] - 1] = 1.0
        return self.join(u, p)

    def decode_embedding(self, e):
        u, _ = self.split(e)
        y = []
        for m in range(self.M):
            idx = np.flatnonzero(u[m] > 0.5)
            if idx.size != 1:
                raise InvalidLabelError("not a vertex embedding")
            y.append(int(idx[0]) + 1)
        return tuple(y)

    def apply_loss_matrix(self, mu):
        mu = np.asarray(mu, dtype=float)
        rows = mu.shape[:-1]
        L = self.part_loss_matrix() / self.M
        out = np.zeros_like(mu)
        # L symmetric; per-position matvec on the unary blocks
        u = mu[..., : self.unary_dim].reshape(*rows, self.M, self.R)
        out[..., : self.unary_dim] = (u @ L).reshape(*rows, self.unary_dim)
        return out

    def decode(self, v):
        """Viterbi with exact lexicographic tie-breaking.

        Suffix-value DP followed by a greedy forward pass that picks the
        smallest symbol attaining the optimum at each position.
        """
        v = np.asarray(v, dtype=float)
        _check_finite(v)
        if v.shape != (self.embed_dim,):
            raise LayoutError(f"expected dim {self.embed_dim}, got {v.shape}")
        u, p = self.split(v)
        M, R = self.M, self.R
        # beta[m, r]: best score of the suffix after position m given y_m = r+1
        beta = np.zeros((M, R))
        for m in range(M - 2, -1, -1):
            cont = p[m] + u[m + 1][None, :] + beta[m + 1][None, :]
            beta[m] = cont.max(axis=1)
        y = []
        r = _first_argmax(u[0] + beta[0])
        y.append(r + 1)
        for m in range(M - 1):
            cont = p[m, r] + u[m + 1] + beta[m + 1]
            r = _first_argmax(cont)
            y.append(r + 1)
        return tuple(y)

    def uniform_state(self):
        u = np.full((self.M, self.R), 1.0 / self.R)
        p = np.full((max(self.M - 1, 0), self.R, self.R), 1.0 / self.R ** 2)
        return self.join(u, p)

    def check_state(self, mu):
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (self.embed_dim,):
            raise LayoutError(f"expected dim {self.embed_dim}, got {mu.shape}")
        u, p = self.split(mu)
        if np.any(u < -1e-12) or np.any(p < -1e-12):
            raise LayoutError("negative marginals")
        if np.any(np.abs(u.sum(axis=1) - 1.0) > 1e-9):
            raise LayoutError("unary block does not sum to 1")
        for m in range(self.M - 1):
            if abs(p[m].sum() - 1.0) > 1e-9:
                raise LayoutError(f"pairwise block {m} does not sum to 1")
            if np.max(np.abs(p[m].sum(axis=1) - u[m])) > 1e-8:
                raise LayoutError(f"pairwise block {m} inconsistent with unary {m}")
            if np.max(np.abs(p[m].sum(axis=0) - u[m + 1])) > 1e-8:
                raise LayoutError(f"pairwise block {m} inconsistent with unary {m + 1}")

    def project_stack(self, P, G, eta):
        return _chain_stack(P, G, eta, self.M, self.R)


@dataclass(frozen=True)
class RankingTask(Task):
    """Permutations of M items with normalized Hamming loss.

    phi(sigma) is the permutation matrix flattened row-major, so
    L(s, s') = 1 - <P, P'>/M, i.e. A = -I/M and a = 1.  The marginal
    polytope is the doubly stochastic matrices.
    """

    M: int
    kind: str = "ranking"

    @property
    def embed_dim(self) -> int:
        return self.M * self.M

    @property
    def offset(self) -> float:
        return 1.0

    @property
    def diameter_sq(self) -> float:
        return 2.0 * self.M

    @property
    def r2(self) -> float:
        return float(self.M)

    @property
    def l_spmp(self) -> float:
        return float(self.M)

    def check_label(self, y) -> None:
        if len(y) != self.M or sorted(y) != list(range(1, self.M + 1)):
            raise InvalidLabelError(f"{y!r} is not a permutation of 1..{self.M}")

    def labels(self):
        if math.factorial(self.M) > 200_000:
            raise ValueError("output space too large to enumerate")
        return itertools.permutations(range(1, self.M + 1))

    def n_labels(self) -> int:
        return math.factorial(self.M)

    def random_label(self, rng):
        return tuple(int(c) + 1 for c in rng.permutation(self.M))

    def embed(self, y):
        self.check_label(y)
        P = np.zeros((self.M, self.M))
        for i, j in enumerate(y):
            P[i, j - 1] = 1.0
        return P.ravel()

    def decode_embedding(self, e):
        P = np.asarray(e, dtype=float).reshape(self.M, self.M)
        y = []
        for i in range(self.M):
            idx = np.flatnonzero(P[i] > 0.5)
            if idx.size != 1:
                raise InvalidLabelError("not a permutation matrix")
            y.append(int(idx[0]) + 1)
        perm = tuple(y)
        self.check_label(perm)
        return perm

    def apply_loss_matrix(self, mu):
        return -np.asarray(mu, dtype=float) / self.M

    def _assignment_value(self, V: np.ndarray) -> float:
        rows, cols = linear_sum_assignment(-V)
        return float(V[rows, cols].sum())

    def decode(self, v):
        """Max-weight assignment, lexicographically smallest among optima."""
        v = np.asarray(v, dtype=float)
        _check_finite(v)
        if v.shape != (self.embed_dim,):
            raise LayoutError(f"expected dim {self.embed_dim}, got {v.shape}")
        V = v.reshape(self.M, self.M)
        best = self._assignment_value(V)
        tol = _TIE_TOL * (1.0 + abs(best))
        # fix positions greedily: smallest item that still attains the optimum
        avail = list(range(self.M))
        perm = []
        fixed = 0.0
        for i in range(self.M):
            for j in avail:
                rest = [c for c in avail if c != j]
                rows = list(range(i + 1, self.M))
                if rows:
                    sub = self._assignment_value(V[np.ix_(rows, rest)])
                else:
                    sub = 0.0
                if fixed + V[i, j] + sub >= best - tol:
                    perm.append(j + 1)
                    fixed += V[i, j]
                    avail.remove(j)
                    break
        return tuple(perm)

    def uniform_state(self):
        return np.full(self.M * self.M, 1.0 / self.M)

    def check_state(self, mu):
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (self.embed_dim,):
            raise LayoutError(f"expected dim {self.embed_dim}, got {mu.shape}")
        Q = mu.reshape(self.M, self.M)
        if np.any(Q < -1e-12) or np.any(Q > 1.0 + 1e-6):
            raise LayoutError("entries outside [0, 1]")
        if np.max(np.abs(Q.sum(axis=1) - 1.0)) > 1e-6:
            raise LayoutError("row sums deviate from 1")
        if np.max(np.abs(Q.sum(axis=0) - 1.0)) > 1e-6:
            raise LayoutError("column sums deviate from 1")

    def project_stack(self, P, G, eta):
        # near-vertex iterates slow Sinkhorn's linear rate; give the inner
        # loop room beyond the stand-alone default
        return _sinkhorn_stack(P, G, eta, max_iter=10 * SINKHORN_MAX_ITER)


def make_task(kind: str, **params) -> Task:
    """Factory keyed by the CLI task names."""
    if kind == "multiclass":
        return MulticlassTask(k=params["k"])
    if kind == "ordinal":
        return OrdinalTask(k=params["k"])
    if kind == "chain":
        return ChainTask(M=params["M"], R=params["R"])
    if kind == "ranking":
        return RankingTask(M=params["M"])
    raise ValueError(f"unknown task kind {kind!r}")
