"""Scalar kernels on feature vectors; vector-valued outputs share the kernel.

Gaussian kernel k(x, x') = exp(-gamma ||x - x'||^2) with a median-heuristic
bandwidth, plus a linear kernel for debugging.  Vector-valued score maps are
realized as the scalar kernel times the identity on output coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

__all__ = ["KernelSpec", "gram", "cross_gram", "median_heuristic"]

# the median heuristic looks at a subsample of this many points, drawn with this seed
_MEDIAN_MAX_POINTS = 1000
_MEDIAN_SEED = 0


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "gaussian"
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "linear"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian" and not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")


def _as_matrix(xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    if not np.all(np.isfinite(xs)):
        raise ValueError("non-finite feature values")
    return xs


def cross_gram(xs: np.ndarray, zs: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Kernel matrix K[i, j] = k(xs[i], zs[j])."""
    xs, zs = _as_matrix(xs), _as_matrix(zs)
    if xs.shape[1] != zs.shape[1]:
        raise ValueError(f"feature dimension mismatch: {xs.shape[1]} vs {zs.shape[1]}")
    if spec.kind == "linear":
        return xs @ zs.T
    d2 = cdist(xs, zs, "sqeuclidean")
    return np.exp(-spec.gamma * d2)


def gram(xs: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Symmetric kernel matrix of a sample (unit diagonal for Gaussian)."""
    K = cross_gram(xs, xs, spec)
    K = 0.5 * (K + K.T)
    if spec.kind == "gaussian":
        np.fill_diagonal(K, 1.0)
    return K


def median_heuristic(xs: np.ndarray) -> float:
    """gamma = 1 / median(pairwise squared distances) on a seeded subsample."""
    xs = _as_matrix(xs)
    if len(xs) < 2:
        raise ValueError("need at least 2 points for the median heuristic")
    if len(xs) > _MEDIAN_MAX_POINTS:
        rng = np.random.default_rng(_MEDIAN_SEED)
        xs = xs[rng.choice(len(xs), size=_MEDIAN_MAX_POINTS, replace=False)]
    d2 = cdist(xs, xs, "sqeuclidean")
    vals = d2[np.triu_indices_from(d2, k=1)]
    med = float(np.median(vals))
    if med <= 0:
        raise ValueError(
            "median pairwise distance is zero (all points identical); "
            "pass an explicit gamma instead"
        )
    return 1.0 / med
