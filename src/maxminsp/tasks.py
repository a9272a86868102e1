"""Structured output tasks: embeddings, affine loss decompositions, decoding.

Each task represents outputs as vectors phi(y) in R^k so that the loss has
the affine form  L(y, y') = phi(y)^T A phi(y') + a  with a structured matrix
A (dense for multiclass/ordinal, block-diagonal unary blocks for chains,
-I/M for rankings).  Optimization always runs on the centered bilinear part;
the offset `a` is re-added whenever a human-readable loss or risk is
reported.

Each task also owns its marginal polytope: the stack projection under the
polytope's entropy, that entropy's Bregman divergence (`bregman`, which
the solver's adaptive steps check against) and the constants that set
the saddle solver's step.
`project_stack` serves the solver engine and takes and returns (dim, B)
column stacks of log-iterates, floored at log(PROB_FLOOR); the other methods
on points and scores take one vector or a (B, dim) stack of rows, in
probabilities, and `check_state` checks a whole stack at once.

Decoding and the max oracle run on stacks of scores.  `decode` takes one
score vector and returns one label, or a (B, k) stack and returns a list of
B labels, the lowest label winning ties.  `max_oracle` returns
max_y phi(y)^T s for each row of a stack, computed by each task without
decoding; every certified gap and bound is built on it.  Both check the
stack once and then call the task's unchecked kernels.  On chains the
kernels, and `check_state`, work on one C-contiguous transposed copy of the
(B, dim) stack, viewed by `ChainTask.split` as (M, R, B) unary and
(M-1, R, R, B) pairwise blocks, so every max, argmax and sum runs over a
leading axis, as in the projection kernels.  `bayes_risk` is
the stacked, centred Bayes term min_y phi(y)^T A mu, one value per row of
a checked stack of points (add `offset` for the risk itself); every dual
objective, certified gap and calibration estimate uses it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np
from scipy.optimize import linear_sum_assignment

from .projections import LayoutError, _chain_stack, _sinkhorn_stack, _softmax_stack

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


def _check_sizes(**sizes) -> None:
    """Reject task sizes that are not integers; numpy integers count, bools do not."""
    for name, value in sizes.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"task size {name} must be an integer, got {value!r}")


def _kl_stack(L, P, L_ref, P_ref) -> np.ndarray:
    """KL(P || P_ref) per column of two softmax iterates.

    L is log P up to a constant per column, which any entry fixes: the
    first one is read, log P = L - (L[0] - log P[0]).
    """
    D = L - L_ref
    D *= P
    return D.sum(axis=0) - (L[0] - L_ref[0]) + np.log(P[0] / P_ref[0])


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only: a cached array is shared by every caller."""
    a.flags.writeable = False
    return a


class Task:
    """Base class; concrete tasks fill in the embedding, decoders and polytope.

    Polytope constants: `r2` is the entropy range (max H - min H), shared
    by both saddle players; `diameter_sq` is max ||phi(y) - phi(y')||_2^2;
    `l_spmp` is the theory smoothness constant of the saddle problem.
    `certify_eta`, when set, is the fixed step of calibration's batched
    solve; dual-gap certification picks its steps adaptively instead,
    starting at `adaptive_start` times the worst-case step.
    """

    kind: str
    embed_dim: int
    offset: float
    r2: float
    diameter_sq: float
    l_spmp: float
    certify_eta: float | None = None
    adaptive_start: float = 2.0 ** 10

    # -- labels ----------------------------------------------------------
    def check_label(self, y) -> None:
        raise NotImplementedError

    def labels(self) -> Iterator:
        """Enumerate the output space (guarded for small tasks only)."""
        raise NotImplementedError

    def n_labels(self) -> int:
        raise NotImplementedError

    # -- embedding -------------------------------------------------------
    def embed(self, y) -> np.ndarray:
        """Vertex phi(y) of the marginal polytope."""
        raise NotImplementedError

    # -- loss ------------------------------------------------------------
    def apply_loss_matrix(self, mu: np.ndarray) -> np.ndarray:
        """A @ mu for the centered loss matrix (A is symmetric here).

        A (B, k) stack of points maps row by row to a (B, k) stack, in any
        memory order: the solver engine passes the transposed view of a
        column stack.
        """
        raise NotImplementedError

    def loss(self, y, y2) -> float:
        """L(y, y') = phi(y)^T A phi(y') + a."""
        self.check_label(y)
        self.check_label(y2)
        val = float(self.embed(y) @ self.apply_loss_matrix(self.embed(y2)))
        return val + self.offset

    # -- decoding --------------------------------------------------------
    def score_stack(self, S) -> np.ndarray:
        """S as a (B, embed_dim) stack of finite scores, else LayoutError."""
        S = np.atleast_2d(np.asarray(S, dtype=float))
        if S.ndim != 2 or S.shape[1] != self.embed_dim:
            raise LayoutError(f"expected score rows of dim {self.embed_dim}, got shape {S.shape}")
        if not np.all(np.isfinite(S)):
            raise LayoutError("non-finite scores")
        return S

    def decode(self, v: np.ndarray):
        """argmax_y phi(y)^T v, ties broken by lowest lexicographic label.

        One vector gives one label; a (B, k) stack gives a list of B labels.
        """
        labels = self._decode_stack(self.score_stack(v))
        return labels if np.ndim(v) == 2 else labels[0]

    def max_oracle(self, S: np.ndarray) -> np.ndarray:
        """max_y phi(y)^T s for each row s of a (B, k) score stack."""
        return self._max_stack(self.score_stack(S))

    def _decode_stack(self, S: np.ndarray) -> list:
        """Labels of the rows of a checked score stack."""
        raise NotImplementedError

    def _max_stack(self, S: np.ndarray) -> np.ndarray:
        """Max-oracle values of the rows of a checked score stack."""
        raise NotImplementedError

    def bayes_risk(self, mu: np.ndarray) -> np.ndarray:
        """min_y phi(y)^T A mu, without the offset, for each row of a checked point or stack."""
        self.check_state(mu)
        return -self.max_oracle(-self.apply_loss_matrix(mu))

    # -- polytope --------------------------------------------------------
    def uniform_state(self) -> np.ndarray:
        """The entropy maximizer of the marginal polytope."""
        raise NotImplementedError

    def check_state(self, mu: np.ndarray) -> None:
        """Validate the polytope layout invariants of mu.

        mu is one vector or a (B, dim) stack, checked in one pass; any bad
        row raises LayoutError.
        """
        raise NotImplementedError

    def _state_stack(self, mu: np.ndarray) -> np.ndarray:
        """mu as a (B, embed_dim) stack, else LayoutError."""
        mu = np.asarray(mu, dtype=float)
        if mu.ndim not in (1, 2) or mu.shape[-1] != self.embed_dim:
            raise LayoutError(f"expected dim {self.embed_dim}, got {mu.shape}")
        return mu.reshape(-1, self.embed_dim)

    def project_stack(self, L: np.ndarray, G: np.ndarray, eta: float) -> tuple:
        """Bregman projection of each column of log-iterates L along G, unchecked.

        L and G are C-contiguous (embed_dim, B) column stacks; L must be at or
        above log(PROB_FLOOR), up to a constant per column (per block on
        chains) that cancels, and G finite.  Returns (L_new, P_new): the next
        L, floored the same way, and its normalized probabilities.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class SimplexTask(Task):
    """k labels 1..k as simplex vertices phi(y) = e_y.

    Subclasses supply `kind`, `offset` and the dense `loss_matrix`.  The
    smoothness constant is ||A||_2 * diameter_sq * log k, the chain formula
    for a single position.
    """

    k: int
    diameter_sq = 2.0

    def __post_init__(self):
        _check_sizes(k=self.k)
        if self.k < 2:  # one label leaves no entropy range to step in
            raise ValueError(f"a simplex task needs at least 2 labels, got k={self.k}")

    @property
    def embed_dim(self) -> int:
        return self.k

    @cached_property
    def loss_matrix(self) -> np.ndarray:
        """The centered loss matrix A, built once per task and read-only."""
        raise NotImplementedError

    @cached_property
    def loss_norm(self) -> float:
        """Spectral norm of A."""
        return float(np.linalg.norm(self.loss_matrix, 2))

    @cached_property
    def r2(self) -> float:
        return math.log(self.k)

    @cached_property
    def l_spmp(self) -> float:
        return self.loss_norm * self.diameter_sq * self.r2

    @cached_property
    def certify_eta(self) -> float:
        # the calibration search's fixed step: well above the worst-case
        # default, it tightens the certified bound at equal budget
        return 4.0 / self.l_spmp

    def check_label(self, y) -> None:
        if not isinstance(y, (int, np.integer)) or not 1 <= y <= self.k:
            raise InvalidLabelError(f"label {y!r} not in 1..{self.k}")

    def labels(self):
        return iter(range(1, self.k + 1))

    def n_labels(self) -> int:
        return self.k

    def embed(self, y):
        self.check_label(y)
        e = np.zeros(self.k)
        e[y - 1] = 1.0
        return e

    def apply_loss_matrix(self, mu):
        return np.asarray(mu, dtype=float) @ self.loss_matrix  # A symmetric

    def _decode_stack(self, S):
        # exact comparison: np.argmax returns the first maximizer
        return (np.argmax(S, axis=1) + 1).tolist()

    def _max_stack(self, S):
        # over the leading axis of the column stack: a max over each short
        # row costs numpy far more per row
        return np.ascontiguousarray(S.T).max(axis=0)

    def uniform_state(self):
        return np.full(self.k, 1.0 / self.k)

    def check_state(self, mu):
        mu = self._state_stack(mu)
        if (mu < -1e-12).any() or (abs(mu.sum(axis=1) - 1.0) > 1e-9).any():
            raise LayoutError("not a probability vector")

    def project_stack(self, L, G, eta):
        return _softmax_stack(L, G, eta)

    def bregman(self, L, P, L_ref, P_ref):
        return _kl_stack(L, P, L_ref, P_ref)


@dataclass(frozen=True)
class MulticlassTask(SimplexTask):
    """k classes, 0-1 loss.  phi(y) = e_y, A = -I, a = 1."""

    kind = "multiclass"
    offset = 1.0
    loss_norm = 1.0

    @cached_property
    def loss_matrix(self):
        return _read_only(-np.eye(self.k))

    def apply_loss_matrix(self, mu):
        return -np.asarray(mu, dtype=float)


@dataclass(frozen=True)
class OrdinalTask(SimplexTask):
    """k ordered classes with absolute-difference loss |y - y'|.

    phi(y) = e_y and A_ij = |i - j|, a = 0.
    """

    kind = "ordinal"
    offset = 0.0

    @cached_property
    def loss_matrix(self):
        idx = np.arange(1, self.k + 1)
        return _read_only(np.abs(idx[:, None] - idx[None, :]).astype(float))


@dataclass(frozen=True)
class ChainTask(Task):
    """Sequences of length M over an alphabet of size R with Hamming loss.

    Embedding: M one-hot unary blocks (R each) followed by M-1 pairwise
    blocks (R*R each, row-major in (y_m, y_{m+1})).  The loss touches only
    the unary blocks: A is block-diagonal with (J - I)/M per position.
    """

    M: int
    R: int
    kind = "chain"

    def __post_init__(self):
        _check_sizes(M=self.M, R=self.R)
        if self.M < 1:
            raise ValueError(f"chain task needs at least one position, got M={self.M}")
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

    @cached_property
    def loss_block(self) -> np.ndarray:
        """The per-position block (J - I)/M of A, built once per task and read-only."""
        return _read_only(self.part_loss_matrix() / self.M)

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

    def split(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(M, R, ...) unary and (M-1, R, R, ...) pairwise views of a layout
        vector or a (dim, B) column stack."""
        X = np.asarray(X, dtype=float)
        rest = X.shape[1:]
        u = X[: self.unary_dim].reshape(self.M, self.R, *rest)
        p = X[self.unary_dim:].reshape(self.M - 1, self.R, self.R, *rest)
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

    def embed(self, y):
        self.check_label(y)
        u = np.zeros((self.M, self.R))
        p = np.zeros((self.M - 1, self.R, self.R))
        for m, c in enumerate(y):
            u[m, c - 1] = 1.0
        for m in range(self.M - 1):
            p[m, y[m] - 1, y[m + 1] - 1] = 1.0
        return self.join(u, p)

    def apply_loss_matrix(self, mu):
        mu = np.asarray(mu, dtype=float)
        L = self.loss_block
        out = np.zeros_like(mu)
        # L symmetric; per-position product on the unary blocks, taken on
        # the transposed view, where a column stack's blocks are contiguous
        u = mu.T[: self.unary_dim]
        out.T[: self.unary_dim] = (L @ u.reshape(self.M, self.R, -1)).reshape(u.shape)
        return out

    def _backward(self, S):
        """Column views of a score stack, with its suffix values.

        Works on one C-contiguous transposed copy of the (B, dim) stack S.
        Returns u (M, R, B), p (M-1, R, R, B) and beta (M, R, B), where
        beta[m, r, b] is the best score of row b's suffix after position m
        given y_m = r+1.
        """
        u, p = self.split(np.ascontiguousarray(S.T))
        beta = np.zeros(u.shape)
        for m in range(self.M - 2, -1, -1):
            # p[m] is indexed (y_m, y_{m+1}, row): the best y_{m+1} is a max over axis 1
            cont = p[m] + u[m + 1]
            cont += beta[m + 1]
            cont.max(axis=1, out=beta[m])
        return u, p, beta

    def _decode_stack(self, S):
        """Viterbi over the stack with exact lexicographic tie-breaking.

        The suffix-value DP is followed by a greedy forward pass that picks
        the smallest symbol attaining the optimum at each position
        (np.argmax returns the first maximizer).
        """
        u, p, beta = self._backward(S)
        B, R = len(S), self.R
        Y = np.empty((self.M, B), dtype=np.intp)
        Y[0] = np.argmax(u[0] + beta[0], axis=0)
        # row Y[m, b] of pairwise block m in column b, gathered as an (R, B) array
        p = p.reshape(self.M - 1, R * R * B)
        offsets = np.arange(R)[:, None] * B + np.arange(B)
        for m in range(self.M - 1):
            cont = p[m].take(Y[m] * (R * B) + offsets) + u[m + 1]
            cont += beta[m + 1]
            Y[m + 1] = np.argmax(cont, axis=0)
        return list(zip(*(Y + 1).tolist()))

    def _max_stack(self, S):
        u, _, beta = self._backward(S)
        return (u[0] + beta[0]).max(axis=0)

    def uniform_state(self):
        u = np.full((self.M, self.R), 1.0 / self.R)
        p = np.full((self.M - 1, self.R, self.R), 1.0 / self.R ** 2)
        return self.join(u, p)

    def check_state(self, mu):
        mu = self._state_stack(mu)
        if np.any(mu < -1e-12):
            raise LayoutError("negative marginals")
        u, p = self.split(np.ascontiguousarray(mu.T))
        if np.any(np.abs(u.sum(axis=1) - 1.0) > 1e-9):
            raise LayoutError("unary block does not sum to 1")
        # the three invariants of every pairwise block, one row of flags per
        # block; the first failing block is named, its first failing check first
        bad = np.stack([
            np.any(np.abs(p.sum(axis=(1, 2)) - 1.0) > 1e-9, axis=1),
            np.any(np.abs(p.sum(axis=2) - u[:-1]) > 1e-8, axis=(1, 2)),
            np.any(np.abs(p.sum(axis=1) - u[1:]) > 1e-8, axis=(1, 2)),
        ], axis=1)
        if bad.any():
            m, check = np.argwhere(bad)[0]
            raise LayoutError((f"pairwise block {m} does not sum to 1",
                               f"pairwise block {m} inconsistent with unary {m}",
                               f"pairwise block {m} inconsistent with unary {m + 1}")[check])

    def project_stack(self, L, G, eta):
        return _chain_stack(L, G, eta, self.M, self.R)

    @cached_property
    def _entropy_signs(self) -> np.ndarray:
        """(embed_dim, 1) signs of the junction-tree entropy: +1 on pairwise
        blocks, -1 on interior unaries, 0 on the two end unaries."""
        u = np.zeros((self.M, self.R))
        u[1:-1] = -1.0
        return _read_only(np.concatenate([u.ravel(), np.ones(self.embed_dim - self.unary_dim)])[:, None])

    def bregman(self, L, P, L_ref, P_ref):
        if self.M == 1:  # one unary block: the simplex, as in the kernel
            return _kl_stack(L, P, L_ref, P_ref)
        # signed block KLs; the kernel's log-marginals are normalized
        D = L - L_ref
        D *= P
        D *= self._entropy_signs
        return D.sum(axis=0)


@dataclass(frozen=True)
class RankingTask(Task):
    """Permutations of M items with normalized Hamming loss.

    phi(sigma) is the permutation matrix flattened row-major, so
    L(s, s') = 1 - <P, P'>/M, i.e. A = -I/M and a = 1.  The marginal
    polytope is the doubly stochastic matrices.
    """

    M: int
    kind = "ranking"
    # Sinkhorn stalls on the near-vertex iterates of larger steps, so
    # certification keeps the worst-case step
    adaptive_start = 1.0

    def __post_init__(self):
        _check_sizes(M=self.M)
        if self.M < 1:
            raise ValueError(f"ranking task needs at least one item, got M={self.M}")

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

    def embed(self, y):
        self.check_label(y)
        P = np.zeros((self.M, self.M))
        for i, j in enumerate(y):
            P[i, j - 1] = 1.0
        return P.ravel()

    def apply_loss_matrix(self, mu):
        return -np.asarray(mu, dtype=float) / self.M

    def _assignment_value(self, V: np.ndarray) -> float:
        rows, cols = linear_sum_assignment(-V)
        return float(V[rows, cols].sum())

    def _max_stack(self, S):
        return np.array([self._assignment_value(V) for V in S.reshape(-1, self.M, self.M)])

    def _decode_stack(self, S):
        return [self._decode_one(V) for V in S.reshape(-1, self.M, self.M)]

    def _decode_one(self, V: np.ndarray) -> tuple:
        """Max-weight assignment, lexicographically smallest among optima."""
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
        Q = self._state_stack(mu).reshape(-1, self.M, self.M)
        if np.any(Q < -1e-12) or np.any(Q > 1.0 + 1e-6):
            raise LayoutError("entries outside [0, 1]")
        if np.any(np.abs(Q.sum(axis=2) - 1.0) > 1e-6):
            raise LayoutError("row sums deviate from 1")
        if np.any(np.abs(Q.sum(axis=1) - 1.0) > 1e-6):
            raise LayoutError("column sums deviate from 1")

    def project_stack(self, L, G, eta):
        return _sinkhorn_stack(L, G, eta)

    def bregman(self, L, P, L_ref, P_ref):
        # entry-wise KL of the unnormalized entropy; L is log P
        D = L - L_ref
        D *= P
        D -= P
        D += P_ref
        return D.sum(axis=0)


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
