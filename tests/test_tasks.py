import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maxminsp.tasks import (
    ChainTask,
    InvalidLabelError,
    LayoutError,
    MulticlassTask,
    OrdinalTask,
    RankingTask,
    make_task,
)


def brute_force_decode(task, v):
    """Reference decoder: enumerate labels, first (lexicographic) maximizer."""
    best_y, best_val = None, -np.inf
    for y in task.labels():
        val = float(task.embed(y) @ v)
        if val > best_val + 1e-12:
            best_y, best_val = y, val
    return best_y, best_val


# ---------------------------------------------------------------------------
# multiclass


def test_multiclass_loss_values():
    t = MulticlassTask(k=4)
    assert t.loss(2, 2) == 0.0
    assert t.loss(2, 3) == 1.0
    assert t.loss(1, 4) == 1.0


def test_multiclass_shortcuts_match_loss_matrix():
    # -mu and ||A||_2 = 1 stand in for the dense A = -I
    t = MulticlassTask(k=4)
    mu = np.array([0.1, 0.2, 0.3, 0.4])
    assert (t.apply_loss_matrix(mu) == mu @ t.loss_matrix).all()
    assert abs(t.loss_norm - np.linalg.norm(t.loss_matrix, 2)) < 1e-12


def test_multiclass_embed_roundtrip():
    # decoding a vertex's own embedding returns its label, on every task
    for t in (MulticlassTask(k=5), OrdinalTask(k=4), ChainTask(M=3, R=2), RankingTask(M=4)):
        for y in t.labels():
            assert t.decode(t.embed(y)) == y


def test_multiclass_decode_ties_prefer_low_label():
    t = MulticlassTask(k=3)
    assert t.decode(np.zeros(3)) == 1
    assert t.decode(np.array([0.0, 1.0, 1.0])) == 2


def test_multiclass_bayes_risk_uniform():
    t = MulticlassTask(k=3)
    value, y = t.bayes_risk(t.uniform_state())
    assert abs(value - 2.0 / 3.0) < 1e-12
    assert y == 1


def test_multiclass_invalid_labels():
    t = MulticlassTask(k=3)
    for y in (0, 4, "a", 1.5):
        with pytest.raises(InvalidLabelError):
            t.check_label(y)


def test_multiclass_state_validation():
    t = MulticlassTask(k=3)
    with pytest.raises(LayoutError):
        t.check_state(np.array([0.5, 0.6, 0.1]))
    with pytest.raises(LayoutError):
        t.check_state(np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# ordinal


def test_ordinal_loss_is_absolute_difference():
    t = OrdinalTask(k=5)
    for y in t.labels():
        for z in t.labels():
            assert t.loss(y, z) == abs(y - z)


def test_ordinal_bayes_risk_is_weighted_median():
    t = OrdinalTask(k=5)
    rng = np.random.default_rng(0)
    for _ in range(200):
        mu = rng.dirichlet(np.ones(5))
        value, y = t.bayes_risk(mu)
        risks = [sum(mu[z - 1] * abs(c - z) for z in t.labels()) for c in t.labels()]
        assert abs(value - min(risks)) < 1e-12
        assert abs(risks[y - 1] - min(risks)) < 1e-12


# ---------------------------------------------------------------------------
# chain


def test_chain_embedding_layout():
    t = ChainTask(M=3, R=2)
    e = t.embed((1, 2, 1))
    u, p = t.split(e)
    assert u.shape == (3, 2) and p.shape == (2, 2, 2)
    assert u[0, 0] == 1 and u[1, 1] == 1 and u[2, 0] == 1
    assert p[0, 0, 1] == 1 and p[1, 1, 0] == 1
    assert e.sum() == 3 + 2


def test_chain_loss_is_normalized_hamming():
    t = ChainTask(M=4, R=3)
    rng = np.random.default_rng(1)
    for _ in range(100):
        y = t.random_label(rng)
        z = t.random_label(rng)
        expected = sum(a != b for a, b in zip(y, z)) / 4
        assert abs(t.loss(y, z) - expected) < 1e-12


def test_chain_decode_matches_enumeration():
    rng = np.random.default_rng(2)
    t = ChainTask(M=4, R=3)
    for _ in range(300):
        v = rng.normal(size=t.embed_dim)
        y = t.decode(v)
        y_ref, val_ref = brute_force_decode(t, v)
        assert abs(float(t.embed(y) @ v) - val_ref) < 1e-9
        assert y == y_ref


def test_chain_decode_tie_break_lexicographic():
    t = ChainTask(M=3, R=2)
    assert t.decode(np.zeros(t.embed_dim)) == (1, 1, 1)


def test_chain_state_consistency_check():
    t = ChainTask(M=2, R=2)
    mu = t.uniform_state()
    t.check_state(mu)
    u, p = t.split(mu)
    p[0, 0, 0] += 0.2
    p[0, 1, 1] -= 0.2
    with pytest.raises(LayoutError):
        t.check_state(t.join(u, p))


def test_chain_bayes_risk_against_enumeration():
    t = ChainTask(M=2, R=3)
    rng = np.random.default_rng(3)
    labels = list(t.labels())
    for _ in range(100):
        w = rng.dirichlet(np.ones(len(labels)))
        mu = np.sum([wi * t.embed(y) for wi, y in zip(w, labels)], axis=0)
        value, y = t.bayes_risk(mu)
        ref = min(
            sum(wi * t.loss(c, z) for wi, z in zip(w, labels)) for c in labels
        )
        assert abs(value - ref) < 1e-9


# ---------------------------------------------------------------------------
# ranking


def test_ranking_embed_is_permutation_matrix():
    t = RankingTask(M=4)
    y = (2, 4, 1, 3)
    P = t.embed(y).reshape(4, 4)
    assert (P.sum(axis=0) == 1).all() and (P.sum(axis=1) == 1).all()
    assert t.decode(t.embed(y)) == y


def test_ranking_loss_is_normalized_hamming():
    t = RankingTask(M=4)
    rng = np.random.default_rng(4)
    for _ in range(100):
        y = t.random_label(rng)
        z = t.random_label(rng)
        expected = sum(a != b for a, b in zip(y, z)) / 4
        assert abs(t.loss(y, z) - expected) < 1e-12


def test_ranking_decode_matches_enumeration():
    t = RankingTask(M=4)
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.normal(size=16)
        y = t.decode(v)
        y_ref, val_ref = brute_force_decode(t, v)
        assert abs(float(t.embed(y) @ v) - val_ref) < 1e-9
        assert y == y_ref


def test_ranking_decode_tie_break_lexicographic():
    t = RankingTask(M=3)
    assert t.decode(np.zeros(9)) == (1, 2, 3)


def test_ranking_invalid_permutation():
    t = RankingTask(M=3)
    with pytest.raises(InvalidLabelError):
        t.check_label((1, 1, 2))


# ---------------------------------------------------------------------------
# factory and shared behavior


def test_make_task_dispatch():
    assert isinstance(make_task("multiclass", k=3), MulticlassTask)
    assert isinstance(make_task("ordinal", k=3), OrdinalTask)
    assert isinstance(make_task("chain", M=2, R=2), ChainTask)
    assert isinstance(make_task("ranking", M=3), RankingTask)
    with pytest.raises(ValueError):
        make_task("nope")


@pytest.mark.parametrize("cls, args, kind", [
    (MulticlassTask, (3,), "multiclass"), (OrdinalTask, (3,), "ordinal"),
    (ChainTask, (2, 2), "chain"), (RankingTask, (3,), "ranking"),
])
def test_kind_is_not_settable(cls, args, kind):
    # kind names the loss, so a 0-1 task must not be able to call itself ordinal
    assert cls(*args).kind == kind
    with pytest.raises(TypeError):
        cls(*args, "ordinal")
    with pytest.raises(TypeError):
        cls(*args, kind="ordinal")


def test_uniform_states_are_valid():
    for t in (
        MulticlassTask(k=4),
        OrdinalTask(k=3),
        ChainTask(M=3, R=2),
        RankingTask(M=4),
    ):
        t.check_state(t.uniform_state())


def test_loss_decomposition_matches_direct_loss():
    # loss(y, z) must equal phi(y)^T A phi(z) + offset for every task
    rng = np.random.default_rng(6)
    for t in (
        MulticlassTask(k=4),
        OrdinalTask(k=4),
        ChainTask(M=3, R=2),
        RankingTask(M=3),
    ):
        for _ in range(50):
            y, z = t.random_label(rng), t.random_label(rng)
            direct = float(t.embed(y) @ t.apply_loss_matrix(t.embed(z))) + t.offset
            assert abs(t.loss(y, z) - direct) < 1e-12


# ---------------------------------------------------------------------------
# max oracle (property test: fixed cases, derandomized, no deadline)


@pytest.mark.parametrize(
    "t", [MulticlassTask(4), OrdinalTask(4), ChainTask(3, 2), RankingTask(3)],
    ids=lambda t: t.kind,
)
@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_max_oracle_matches_enumeration(t, data):
    rows = data.draw(st.integers(1, 5))
    S = data.draw(arrays(np.float64, (rows, t.embed_dim),
                         elements=st.floats(-100, 100, allow_subnormal=False)))
    # small integers make exact ties, which decode must break like labels()
    S_int = data.draw(arrays(np.int64, (rows, t.embed_dim),
                             elements=st.integers(-2, 2))).astype(float)
    labels = list(t.labels())
    E = np.stack([t.embed(y) for y in labels])
    for X in (S, S_int):
        best = (X @ E.T).max(axis=1)
        got = t.max_oracle(X)
        assert got.shape == (rows,)
        assert np.all(np.abs(got - best) <= 1e-12 * (1.0 + np.abs(best)))
        decoded = t.decode(X)
        assert len(decoded) == rows
        assert all(decoded[b] == t.decode(X[b]) for b in range(rows))
    assert t.decode(S_int) == [labels[i] for i in np.argmax(S_int @ E.T, axis=1)]


def test_simplex_max_oracle_rejects_bad_stacks():
    # every task checks its score stacks the same way, for both entry points
    for t in (MulticlassTask(4), OrdinalTask(3), ChainTask(3, 2), RankingTask(3)):
        nan_row = np.zeros((2, t.embed_dim))
        nan_row[1, 0] = np.nan
        for bad in (nan_row, nan_row[1], np.zeros((2, t.embed_dim + 1)), np.zeros(t.embed_dim - 1)):
            with pytest.raises(LayoutError):
                t.max_oracle(bad)
            with pytest.raises(LayoutError):
                t.decode(bad)
