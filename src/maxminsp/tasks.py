"""Structured output tasks: embeddings, affine loss decompositions, decoding.

Each task represents outputs as vectors phi(y) in R^k so that the loss has
the affine form  L(y, y') = phi(y)^T A phi(y') + a  with a structured matrix
A (dense for multiclass/ordinal, block-diagonal unary blocks for chains,
-I/M for rankings).  Optimization always runs on the centered bilinear part;
the offset `a` is re-added whenever a human-readable loss or risk is
reported.  Each task owns its marginal polytope (the stack projection under
its entropy, the constants `l_spmp` and `r2` from which the saddle solver
derives every step, and the signs that the base class's one `bregman`
reads) and its loss's `constant_c`; no task carries a step of its own.

One layout rule: Task methods take columns, module-level functions keep
rows.  Every stack method takes one vector or a (dim, B) column stack,
column b one point, and returns columns; C-contiguous stacks are the fast
ones.  A stack whose leading axis is not dim raises LayoutError, so a (B,
dim) row stack fails unless B = dim.  Every max, argmax and sum then runs
over a leading axis, as in the projection kernels; `ChainTask.split` views
a chain stack as (M, R, B) unary and (M-1, R, R, B) pairwise blocks.
`project_stack` steps from log-iterates floored at log(PROB_FLOOR); the
other methods take probabilities.  `decode` returns one label per column,
the lowest label winning ties; `max_oracle` returns max_y phi(y)^T s per
column without decoding, and every certified gap and bound is built on it.
Both check the stack once (`score_stack`) and then call the task's
unchecked kernels, as `apply_loss_matrix` does `loss_stack`; the engine
calls that directly.  `bayes_risk` is the centred Bayes term min_y phi(y)^T
A mu of a checked stack of points (add `offset` for the risk itself).
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


def _first_argmax(C: np.ndarray) -> np.ndarray:
    """Index of the first maximum down each column of C, by a running comparison."""
    best, idx = C[0].copy(), np.zeros(C.shape[1:], dtype=np.intp)
    for r in range(1, len(C)):
        np.putmask(idx, C[r] > best, r)
        np.maximum(best, C[r], out=best)
    return idx


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only: a cached array is shared by every caller."""
    a.flags.writeable = False
    return a


class Task:
    """Base class; concrete tasks fill in the embedding, decoders and polytope.

    Polytope constants: `r2` is the entropy range (max H - min H), shared
    by both saddle players; `diameter_sq` is max ||phi(y) - phi(y')||_2^2;
    `l_spmp` is the theory smoothness constant of the saddle problem; every
    step of the oracle is a multiple of the worst-case step 1/(2 l_spmp).
    `_entropy_signs` holds the sign of each term of the polytope's entropy.
    `constant_c` is the smallest C such that, under every label
    distribution, some loss-minimizing label has probability at least 1/C
    (`math.inf` when no C exists).
    """

    kind: str
    embed_dim: int
    offset: float
    r2: float
    diameter_sq: float
    l_spmp: float
    constant_c: float
    _entropy_signs = 1.0

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
        """A @ mu for the centered loss matrix, for one point or each column of a stack."""
        return self.loss_stack(self._columns(mu))

    def loss_stack(self, X: np.ndarray) -> np.ndarray:
        """`apply_loss_matrix` of a float vector or (embed_dim, B) stack, unchecked, for the engine."""
        raise NotImplementedError

    def loss(self, y, y2) -> float:
        """L(y, y') = phi(y)^T A phi(y') + a; `embed` checks both labels."""
        return float(self.embed(y) @ self.apply_loss_matrix(self.embed(y2))) + self.offset

    # -- decoding --------------------------------------------------------
    def _columns(self, X) -> np.ndarray:
        """X as an array, one vector or a (embed_dim, B) column stack, else LayoutError."""
        X = np.asarray(X, dtype=float)
        if X.ndim not in (1, 2) or len(X) != self.embed_dim:
            raise LayoutError(f"expected columns of dim {self.embed_dim}, got shape {X.shape}")
        return X

    def score_stack(self, S) -> np.ndarray:
        """S as a (embed_dim, B) column stack of finite scores, else LayoutError."""
        S = self._columns(S).reshape(self.embed_dim, -1)
        if not np.all(np.isfinite(S)):
            raise LayoutError("non-finite scores")
        return S

    def decode(self, v: np.ndarray):
        """argmax_y phi(y)^T v, ties broken by lowest lexicographic label.

        One vector gives one label; a (k, B) stack gives a list of B labels.
        """
        labels = self._decode_stack(self.score_stack(v))
        return labels if np.ndim(v) == 2 else labels[0]

    def max_oracle(self, S: np.ndarray) -> np.ndarray:
        """max_y phi(y)^T s for each column s of a (k, B) score stack."""
        return self._max_stack(self.score_stack(S))

    def _decode_stack(self, S: np.ndarray) -> list:
        """Labels of the columns of a checked score stack."""
        raise NotImplementedError

    def _max_stack(self, S: np.ndarray) -> np.ndarray:
        """Max-oracle values of the columns of a checked score stack."""
        raise NotImplementedError

    def bayes_risk(self, mu: np.ndarray) -> np.ndarray:
        """min_y phi(y)^T A mu, without the offset, for each column of a checked point or stack."""
        self.check_state(mu)
        return -self.max_oracle(-self.apply_loss_matrix(mu))

    # -- polytope --------------------------------------------------------
    def uniform_state(self) -> np.ndarray:
        """The entropy maximizer of the marginal polytope."""
        raise NotImplementedError

    def check_state(self, mu: np.ndarray) -> None:
        """Check the polytope invariants of one point or a stack in one pass:
        any bad column raises LayoutError."""
        raise NotImplementedError

    def project_stack(self, L: np.ndarray, G: np.ndarray, eta: float) -> tuple:
        """Bregman projection of each column of log-iterates L along G, unchecked.

        L and G are C-contiguous (embed_dim, B) column stacks; L must be at or
        above log(PROB_FLOOR), up to a constant per column (per block on
        chains) that cancels, and G finite.  Returns (L_new, P_new): the next
        L, floored the same way, and its normalized probabilities.
        """
        raise NotImplementedError

    def bregman(self, L, P, L_ref, P_ref) -> np.ndarray:
        """D(P, P_ref) per column for the entropy sum_i s_i (P_i log P_i - P_i).

        L and L_ref are the log-iterates `project_stack` returns with P and
        P_ref, log P up to a constant per column, which the first entry's
        term takes out once: exact where the signed mass sum_i s_i P_i is 1
        (simplices, chains); rankings, of mass M, need L = log P.
        """
        D = L - L_ref
        D *= P
        D += P_ref
        D -= P
        D *= self._entropy_signs
        return D.sum(axis=0) - (L[0] - L_ref[0]) + np.log(P[0] / P_ref[0])


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

    @cached_property
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

    def loss_stack(self, X):
        return self.loss_matrix @ X

    def _decode_stack(self, S):
        # exact comparison: np.argmax returns the first maximizer
        return (np.argmax(S, axis=0) + 1).tolist()

    def _max_stack(self, S):
        return S.max(axis=0)

    def uniform_state(self):
        return np.full(self.k, 1.0 / self.k)

    def check_state(self, mu):
        mu = self._columns(mu)
        if (mu < -1e-12).any() or (abs(mu.sum(axis=0) - 1.0) > 1e-9).any():
            raise LayoutError("not a probability vector")

    def project_stack(self, L, G, eta):
        return _softmax_stack(L, G, eta)


@dataclass(frozen=True)
class MulticlassTask(SimplexTask):
    """k classes, 0-1 loss.  phi(y) = e_y, A = -I, a = 1."""

    kind = "multiclass"
    offset = 1.0
    loss_norm = 1.0

    @property
    def constant_c(self) -> float:
        return float(self.k)  # attained at the uniform distribution

    @cached_property
    def loss_matrix(self):
        return _read_only(-np.eye(self.k))

    def loss_stack(self, X):
        return -X


@dataclass(frozen=True)
class OrdinalTask(SimplexTask):
    """k ordered classes with absolute-difference loss |y - y'|.

    phi(y) = e_y and A_ij = |i - j|, a = 0.
    """

    kind = "ordinal"
    offset = 0.0

    @property
    def constant_c(self) -> float:
        # two labels carry the 0-1 loss; from three on, (1/2 - e/2, e, 1/2 - e/2)
        # on labels 1 to 3 has the middle one as its one minimizer, at mass e
        return 2.0 if self.k == 2 else math.inf

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
    offset = 0.0

    def __post_init__(self):
        _check_sizes(M=self.M, R=self.R)
        if self.M < 1:
            raise ValueError(f"chain task needs at least one position, got M={self.M}")
        if self.R < 2:
            raise ValueError(f"chain task needs an alphabet of at least 2, got R={self.R}")

    @cached_property
    def embed_dim(self) -> int:
        return self.M * self.R + (self.M - 1) * self.R * self.R

    @property
    def unary_dim(self) -> int:
        return self.M * self.R

    @property
    def constant_c(self) -> float:
        return float(self.R)  # the per-part value of the decomposable Hamming loss

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

    def loss_stack(self, X):
        out = np.zeros_like(X)
        # per-position product on the unary blocks (L symmetric)
        u = X[: self.unary_dim]
        out[: self.unary_dim] = (self.loss_block @ u.reshape(self.M, self.R, -1)).reshape(u.shape)
        return out

    def _backward(self, S):
        """Block views of a (dim, B) score stack, with its suffix values.

        Returns u (M, R, B), p (M-1, R, R, B) and beta (M, R, B), where
        beta[m, r, b] is the best score of column b's suffix after position
        m given y_m = r+1.
        """
        u, p = self.split(S)
        beta = np.zeros(u.shape)
        for m in range(self.M - 2, -1, -1):
            # p[m] is indexed (y_m, y_{m+1}, column): the best y_{m+1} is a max over axis 1
            cont = p[m] + u[m + 1]
            cont += beta[m + 1]
            cont.max(axis=1, out=beta[m])
        return u, p, beta

    def _decode_stack(self, S):
        """Viterbi over the stack with exact lexicographic tie-breaking.

        The suffix-value DP is followed by a greedy forward pass that picks
        the smallest symbol attaining the optimum at each position.
        """
        u, p, beta = self._backward(S)
        R, B = self.R, S.shape[1]
        Y = np.empty((self.M, B), dtype=np.intp)
        Y[0] = _first_argmax(u[0] + beta[0])
        # row Y[m, b] of pairwise block m in column b, gathered as an (R, B) array
        p = p.reshape(self.M - 1, R * R * B)
        offsets = np.arange(R)[:, None] * B + np.arange(B)
        for m in range(self.M - 1):
            cont = p[m].take(Y[m] * (R * B) + offsets) + u[m + 1]
            cont += beta[m + 1]
            Y[m + 1] = _first_argmax(cont)
        return list(zip(*(Y + 1).tolist()))

    def _max_stack(self, S):
        u, _, beta = self._backward(S)
        return (u[0] + beta[0]).max(axis=0)

    def uniform_state(self):
        u = np.full((self.M, self.R), 1.0 / self.R)
        p = np.full((self.M - 1, self.R, self.R), 1.0 / self.R ** 2)
        return self.join(u, p)

    def check_state(self, mu):
        mu = self._columns(mu).reshape(self.embed_dim, -1)
        if np.any(mu < -1e-12):
            raise LayoutError("negative marginals")
        u, p = self.split(mu)
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
        blocks, and on each unary 1 minus its number of neighbours: -1
        inside, 0 at the two ends, +1 for a single position."""
        u = np.full((self.M, self.R), float(self.M == 1))
        u[1:-1] = -1.0
        return _read_only(np.concatenate([u.ravel(), np.ones(self.embed_dim - self.unary_dim)])[:, None])


@dataclass(frozen=True)
class RankingTask(Task):
    """Permutations of M items with normalized Hamming loss.

    phi(sigma) is the permutation matrix flattened row-major, so
    L(s, s') = 1 - <P, P'>/M, i.e. A = -I/M and a = 1.  The marginal
    polytope is the doubly stochastic matrices.
    """

    M: int
    kind = "ranking"
    offset = 1.0

    def __post_init__(self):
        _check_sizes(M=self.M)
        if self.M < 1:
            raise ValueError(f"ranking task needs at least one item, got M={self.M}")

    @cached_property
    def embed_dim(self) -> int:
        return self.M * self.M

    @property
    def diameter_sq(self) -> float:
        return 2.0 * self.M

    @property
    def r2(self) -> float:
        return float(self.M)

    @property
    def l_spmp(self) -> float:
        return float(self.M)

    @property
    def constant_c(self) -> float:
        return float(math.factorial(self.M))

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

    def loss_stack(self, X):
        return -X / self.M

    def _assignment_value(self, V: np.ndarray) -> float:
        rows, cols = linear_sum_assignment(-V)
        return float(V[rows, cols].sum())

    def _max_stack(self, S):
        return np.array([self._assignment_value(V) for V in S.T.reshape(-1, self.M, self.M)])

    def _decode_stack(self, S):
        return [self._decode_one(V) for V in S.T.reshape(-1, self.M, self.M)]

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
        Q = self._columns(mu).reshape(self.M, self.M, -1)
        if np.any(Q < -1e-12) or np.any(Q > 1.0 + 1e-6):
            raise LayoutError("entries outside [0, 1]")
        if np.any(np.abs(Q.sum(axis=1) - 1.0) > 1e-6):
            raise LayoutError("row sums deviate from 1")
        if np.any(np.abs(Q.sum(axis=0) - 1.0) > 1e-6):
            raise LayoutError("column sums deviate from 1")

    def project_stack(self, L, G, eta):
        return _sinkhorn_stack(L, G, eta)


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
