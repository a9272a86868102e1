import numpy as np
import pytest

from maxminsp.kernels import KernelSpec, cross_gram, gram, median_heuristic


def test_single_point_gram_is_one():
    k = KernelSpec("gaussian", gamma=0.7)
    assert gram(np.array([[1.0]]), k).shape == (1, 1)
    assert gram(np.array([[1.0]]), k)[0, 0] == 1.0


def test_identical_points_all_ones():
    k = KernelSpec("gaussian", gamma=2.0)
    X = np.ones((5, 3))
    assert np.max(np.abs(gram(X, k) - 1.0)) == 0.0


def test_gaussian_pair_value():
    k = KernelSpec("gaussian", gamma=0.5)
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    G = gram(X, k)
    assert abs(G[0, 1] - np.exp(-0.5 * 25.0)) < 1e-15
    assert G[0, 0] == 1.0 and G[1, 1] == 1.0


def test_linear_kernel_is_inner_product():
    k = KernelSpec("linear")
    X = np.random.default_rng(0).normal(size=(6, 4))
    assert np.max(np.abs(gram(X, k) - X @ X.T)) < 1e-12


def test_gram_symmetric_and_psd():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 20))
    G = gram(X, KernelSpec("gaussian", gamma=0.1))
    assert (G == G.T).all()
    assert np.linalg.eigvalsh(G).min() >= -1e-8


def test_cross_gram_matches_gram_blocks():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(8, 3))
    Z = rng.normal(size=(5, 3))
    k = KernelSpec("gaussian", gamma=0.3)
    C = cross_gram(X, Z, k)
    assert C.shape == (8, 5)
    full = gram(np.vstack([X, Z]), k)
    assert np.max(np.abs(C - full[:8, 8:])) < 1e-12


def test_median_heuristic_two_points():
    X = np.array([[0.0], [2.0]])
    assert abs(median_heuristic(X) - 0.25) < 1e-12


def test_median_heuristic_positive_on_grid():
    X = np.arange(30, dtype=float).reshape(-1, 1)
    assert median_heuristic(X) > 0.0


def test_median_heuristic_subsample_stable():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(3000, 5))
    g_sub = median_heuristic(X)
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
    g_full = 1.0 / np.median(d2[np.triu_indices(3000, k=1)])
    assert g_full / 2 < g_sub < g_full * 2


def test_median_heuristic_rejects_identical_points():
    with pytest.raises(ValueError):
        median_heuristic(np.ones((10, 2)))


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("cubic")
    for gamma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", gamma=gamma)
