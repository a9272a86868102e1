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


def random_label(task, rng):
    """A label drawn uniformly from a small task's output space."""
    labels = list(task.labels())
    return labels[rng.integers(len(labels))]


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


def test_chain_loss_block_is_cached_and_read_only():
    # every apply_loss_matrix call shares one block, equal to the one it once rebuilt
    t = ChainTask(M=4, R=3)
    assert t.loss_block is t.loss_block
    assert not t.loss_block.flags.writeable
    assert np.array_equal(t.loss_block, t.part_loss_matrix() / t.M)


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
    # centred: the offset brings it to the Bayes risk 2/3; points are checked
    t = MulticlassTask(k=3)
    assert abs(t.bayes_risk(t.uniform_state())[0] + t.offset - 2.0 / 3.0) < 1e-12
    with pytest.raises(LayoutError):
        t.bayes_risk(np.array([0.5, 0.6, 0.1]))


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
        y = random_label(t, rng)
        z = random_label(t, rng)
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
        y = random_label(t, rng)
        z = random_label(t, rng)
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


def test_task_sizes_must_be_integers():
    for make in (lambda x: MulticlassTask(x), lambda x: OrdinalTask(x), lambda x: ChainTask(x, 2),
                 lambda x: ChainTask(2, x), lambda x: RankingTask(x)):
        for bad in (2.5, 3.0, "3", True):
            with pytest.raises(ValueError, match="must be an integer"):
                make(bad)
        # numpy integers are sizes too
        assert make(np.int64(3)).embed_dim == make(3).embed_dim


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
            y, z = random_label(t, rng), random_label(t, rng)
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
    cols = data.draw(st.integers(1, 5))
    S = data.draw(arrays(np.float64, (t.embed_dim, cols),
                         elements=st.floats(-100, 100, allow_subnormal=False)))
    # small integers make exact ties, which decode must break like labels()
    S_int = data.draw(arrays(np.int64, (t.embed_dim, cols),
                             elements=st.integers(-2, 2))).astype(float)
    labels = list(t.labels())
    E = np.stack([t.embed(y) for y in labels])
    for X in (S, S_int):
        best = (E @ X).max(axis=0)
        got = t.max_oracle(X)
        assert got.shape == (cols,)
        assert np.all(np.abs(got - best) <= 1e-12 * (1.0 + np.abs(best)))
        decoded = t.decode(X)
        assert len(decoded) == cols
        assert all(decoded[b] == t.decode(X[:, b]) for b in range(cols))
    assert t.decode(S_int) == [labels[i] for i in np.argmax(E @ S_int, axis=0)]


def test_simplex_max_oracle_rejects_bad_stacks():
    # every task checks its score stacks the same way, for both entry points
    for t in (MulticlassTask(4), OrdinalTask(3), ChainTask(3, 2), RankingTask(3)):
        nan_col = np.zeros((t.embed_dim, 2))
        nan_col[0, 1] = np.nan
        for bad in (nan_col, nan_col[:, 1], np.zeros((t.embed_dim + 1, 2)), np.zeros(t.embed_dim - 1)):
            with pytest.raises(LayoutError):
                t.max_oracle(bad)
            with pytest.raises(LayoutError):
                t.decode(bad)


@pytest.mark.parametrize(
    "t", [MulticlassTask(4), OrdinalTask(5), ChainTask(2, 3), RankingTask(3)],
    ids=lambda t: t.kind,
)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), conc=st.sampled_from([0.2, 1.0, 5.0]))
def test_bayes_risk_matches_enumeration(t, rows, seed, conc):
    # the stacked, centred Bayes term of label mixtures w against
    # min_c sum_z w_z L(c, z) over the label table, minus the offset
    rng = np.random.default_rng(seed)
    labels = list(t.labels())
    E = np.stack([t.embed(y) for y in labels])
    losses = np.array([[t.loss(c, z) for z in labels] for c in labels])
    W = rng.dirichlet(conc * np.ones(len(labels)), size=rows)
    want = (W @ losses.T).min(axis=1) - t.offset
    got = t.bayes_risk(E.T @ W.T)
    assert got.shape == (rows,)
    assert np.all(np.abs(got - want) <= 1e-12)


# ---------------------------------------------------------------------------
# the column layout: a (dim, B) stack gives what its columns give one by one


LAYOUT_TASKS = [MulticlassTask(4), OrdinalTask(5), ChainTask(3, 2), RankingTask(3)]


@pytest.mark.parametrize("t", LAYOUT_TASKS, ids=lambda t: t.kind)
@pytest.mark.parametrize("size", ["1", "2", "dim", "dim+1"])
@settings(derandomize=True, deadline=None, max_examples=10)
@given(tied=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_column_stacks_equal_per_column_calls(t, size, tied, seed):
    B = {"1": 1, "2": 2, "dim": t.embed_dim, "dim+1": t.embed_dim + 1}[size]
    rng = np.random.default_rng(seed)
    S = rng.integers(-2, 3, size=(t.embed_dim, B)).astype(float) if tied else rng.normal(
        size=(t.embed_dim, B)) * 10
    E = np.stack([t.embed(y) for y in t.labels()])
    mu = E.T @ rng.dirichlet(np.ones(len(E)), size=B).T
    assert t.decode(S) == [t.decode(S[:, b]) for b in range(B)]
    assert np.array_equal(t.max_oracle(S), [t.max_oracle(S[:, b])[0] for b in range(B)])
    # a one-vector product may round apart from the stacked one (gemv and gemm)
    for got, want in ((t.apply_loss_matrix(mu), [t.apply_loss_matrix(mu[:, b]) for b in range(B)]),
                      (t.bayes_risk(mu), [t.bayes_risk(mu[:, b])[0] for b in range(B)])):
        want = np.array(want).T
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
    t.check_state(mu)
    bad = mu.copy()
    bad[:, B - 1] *= 1.5  # the last column leaves the polytope
    with pytest.raises(LayoutError):
        t.check_state(bad[:, B - 1])
    with pytest.raises(LayoutError):
        t.check_state(bad)
    if B != t.embed_dim:
        # a caller left on (B, dim) rows fails loudly; a square stack only
        # differs in its values, which the checks above compare
        for method, rows in ((t.decode, S.T), (t.max_oracle, S.T), (t.apply_loss_matrix, mu.T),
                             (t.bayes_risk, mu.T), (t.check_state, mu.T)):
            with pytest.raises(LayoutError):
                method(rows)


@pytest.mark.parametrize("t", [MulticlassTask(3), OrdinalTask(5), ChainTask(4, 3), RankingTask(3)],
                         ids=lambda t: t.kind)
@pytest.mark.parametrize("B", [1, 2, 7])
def test_loss_stack_is_apply_loss_matrix_unchecked(t, B):
    # the engine's unchecked apply-A equals the checked method bit for bit on
    # column stacks, and the checked method still rejects a (B, dim) row stack
    rng = np.random.default_rng(B)
    E = np.stack([t.embed(y) for y in t.labels()])
    mu = np.ascontiguousarray(E.T @ rng.dirichlet(np.ones(len(E)), size=B).T)
    assert np.array_equal(t.loss_stack(mu), t.apply_loss_matrix(mu))
    assert np.array_equal(t.loss_stack(mu[:, 0].copy()), t.apply_loss_matrix(mu[:, 0]))
    with pytest.raises(LayoutError):
        t.apply_loss_matrix(mu.T.copy())
