import numpy as np
import pytest

from maxminsp import oracle
from maxminsp.oracle import (
    certified_gap,
    spmp_solve,
    spmp_solve_batch_simplex,
)
from maxminsp.projections import PROB_FLOOR, project
from maxminsp.tasks import (
    ChainTask,
    LayoutError,
    MulticlassTask,
    OrdinalTask,
    RankingTask,
    make_task,
)


def binary_partition_closed_form(v):
    """max over the simplex of centered Bayes risk plus v.mu, plus offset."""
    t = v[0] - v[1]
    return (v[0] + v[1]) / 2.0 + max(abs(t / 2.0), 0.5)


def ordinal_partition_closed_form(v):
    k = len(v)
    return max(
        0.5 * (v[i] + v[j] + (j - i)) for i in range(k) for j in range(i, k)
    )


def multiclass_partition_closed_form(v):
    # sort descending; best mixture puts equal mass on a top slice
    s = np.sort(v)[::-1]
    return 1.0 + max((s[: j + 1].sum() - 1.0) / (j + 1) for j in range(len(v)))


def test_binary_zero_scores_value_half():
    t = MulticlassTask(k=2)
    res = spmp_solve(np.zeros(2), t, K=500)
    assert abs(res.saddle_value - 0.5) < 1e-3


def test_multiclass_zero_scores_uniform_saddle():
    t = MulticlassTask(k=3)
    res = spmp_solve(np.zeros(3), t, K=500)
    assert abs(res.saddle_value - 2.0 / 3.0) < 1e-3
    assert np.max(np.abs(res.mu_bar - 1.0 / 3.0)) < 1e-3


def test_binary_closed_form_random_scores():
    t = MulticlassTask(k=2)
    rng = np.random.default_rng(0)
    for _ in range(30):
        v = rng.normal(size=2)
        res = spmp_solve(v, t, K=2000, step=16.0)
        assert abs(res.saddle_value - binary_partition_closed_form(v)) < 2e-3


def test_ordinal_closed_form_random_scores():
    t = OrdinalTask(k=3)
    rng = np.random.default_rng(1)
    for _ in range(30):
        v = rng.normal(size=3)
        res = spmp_solve(v, t, K=2000, step=16.0)
        assert abs(res.saddle_value - ordinal_partition_closed_form(v)) < 2e-3


def test_multiclass_closed_form_random_scores():
    t = MulticlassTask(k=4)
    rng = np.random.default_rng(2)
    for _ in range(30):
        v = rng.normal(size=4)
        res = spmp_solve(v, t, K=2000, step=16.0)
        assert abs(res.saddle_value - multiclass_partition_closed_form(v)) < 2e-3


def test_gap_rate_bound_and_decay():
    rng = np.random.default_rng(3)
    for k in (3, 5):
        t = MulticlassTask(k=k)
        L = t.l_spmp
        for _ in range(20):
            v = rng.normal(size=k) * 2
            gaps = []
            for K in (10, 40, 160):
                res = spmp_solve(v, t, K=K)
                assert res.gap <= 4.0 * L / K + 1e-6
                gaps.append(res.gap)
            assert gaps[0] >= gaps[1] >= gaps[2]


def test_certified_gap_zero_at_binary_saddle():
    t = MulticlassTask(k=2)
    u = t.uniform_state()
    assert abs(certified_gap(u, u, np.zeros(2), t)) < 1e-10


@pytest.mark.parametrize(
    "t", [MulticlassTask(4), OrdinalTask(4), ChainTask(3, 2), RankingTask(3)],
    ids=lambda t: t.kind,
)
def test_certified_gap_matches_vertex_enumeration(t):
    # (B, k) stacks of label mixtures; the reference enumerates the vertices
    rng = np.random.default_rng(4)
    E = np.stack([t.embed(y) for y in t.labels()])
    B = 100
    mu, nu = (rng.dirichlet(np.ones(len(E)), size=B) @ E for _ in range(2))
    V = rng.normal(size=(B, t.embed_dim))
    upper = ((t.apply_loss_matrix(nu.T).T + V) @ E.T).max(axis=1)
    lower = (t.apply_loss_matrix(mu.T).T @ E.T).min(axis=1) + np.einsum("ij,ij->i", V, mu)
    gaps = certified_gap(mu, nu, V, t)
    assert gaps.shape == (B,)
    assert np.max(np.abs(gaps - (upper - lower))) < 1e-10
    # one vector in, one gap out
    assert certified_gap(mu[0], nu[0], V[0], t) == pytest.approx(gaps[0], abs=1e-15)


def test_certified_gap_checks_every_row():
    t = MulticlassTask(k=3)
    mu = np.tile(t.uniform_state(), (3, 1))
    nu = mu.copy()
    nu[2] = [0.5, 0.5, 0.5]
    with pytest.raises(LayoutError):
        certified_gap(mu, nu, np.zeros((3, 3)), t)
    with pytest.raises(LayoutError):
        certified_gap(nu, mu, np.zeros((3, 3)), t)


def test_saddle_value_sandwich():
    rng = np.random.default_rng(5)
    t = OrdinalTask(k=4)
    for _ in range(50):
        v = rng.normal(size=4)
        res = spmp_solve(v, t, K=50)
        upper = max(
            float(t.embed(y) @ (t.apply_loss_matrix(res.nu_bar) + v)) for y in t.labels()
        )
        lower = min(float(t.embed(y) @ t.apply_loss_matrix(res.mu_bar)) for y in t.labels())
        lower += float(v @ res.mu_bar)
        centered = res.saddle_value - t.offset
        assert lower - 1e-9 <= centered <= upper + 1e-9


def test_solver_deterministic():
    t = OrdinalTask(k=5)
    v = np.array([0.3, -1.0, 0.5, 0.1, -0.2])
    a = spmp_solve(v, t, K=77)
    b = spmp_solve(v, t, K=77)
    assert (a.mu_bar == b.mu_bar).all() and (a.nu_bar == b.nu_bar).all()
    assert a.gap == b.gap and a.saddle_value == b.saddle_value


def test_chain_solver_valid_states_and_gap():
    t = ChainTask(M=3, R=2)
    rng = np.random.default_rng(6)
    v = rng.normal(size=t.embed_dim)
    res = spmp_solve(v, t, K=300)
    t.check_state(res.mu_bar)
    t.check_state(res.nu_bar)
    L = t.l_spmp
    assert -1e-9 <= res.gap <= 4.0 * L / 300 + 1e-6


def test_ranking_solver_valid_states():
    t = RankingTask(M=3)
    rng = np.random.default_rng(7)
    v = rng.normal(size=9)
    res = spmp_solve(v, t, K=30)
    t.check_state(res.mu_bar)
    t.check_state(res.nu_bar)
    assert res.gap >= -1e-9


def test_ranking_solver_finishes_on_steep_scores():
    # near-vertex iterates on which Sinkhorn's sweeps stalled at a residual
    # of 2e-8 and raised after 100 000 of them
    t = RankingTask(M=4)
    res = spmp_solve(30 * np.random.default_rng(0).normal(size=16), t, K=50)
    for x in (res.mu_bar, res.nu_bar, res.mu_last, res.nu_last):
        t.check_state(x)
    assert 0.0 <= res.gap < 1.0


def _hand_rolled_solve(t, v, K, mu, nu):
    """The solver loop written out with one-vector projections."""
    rate = (1.0 / (2.0 * t.l_spmp)) * t.r2
    mu_sum = np.zeros_like(mu)
    nu_sum = np.zeros_like(nu)
    for _ in range(K):
        mu_h = project(t, mu, t.apply_loss_matrix(nu) + v, rate)
        nu_h = project(t, nu, -t.apply_loss_matrix(mu), rate)
        mu, nu = (
            project(t, mu, t.apply_loss_matrix(nu_h) + v, rate),
            project(t, nu, -t.apply_loss_matrix(mu_h), rate),
        )
        mu_sum += mu_h
        nu_sum += nu_h
    return mu_sum / K, nu_sum / K, mu, nu


def test_averaging_is_half_step_mean():
    t = MulticlassTask(k=3)
    v = np.array([0.5, -0.3, 0.1])
    K = 25
    mu_bar, nu_bar, _, _ = _hand_rolled_solve(t, v, K, t.uniform_state(), t.uniform_state())
    res = spmp_solve(v, t, K=K)
    assert np.max(np.abs(res.mu_bar - mu_bar)) < 1e-12
    assert np.max(np.abs(res.nu_bar - nu_bar)) < 1e-12


@pytest.mark.parametrize("t", [ChainTask(M=3, R=2), RankingTask(M=3)], ids=["chain", "ranking"])
def test_structured_averaging_is_half_step_mean(t):
    rng = np.random.default_rng(12)
    v = rng.normal(size=t.embed_dim)
    K = 15
    cold = _hand_rolled_solve(t, v, K, t.uniform_state(), t.uniform_state())
    res = spmp_solve(v, t, K=K)
    got = (res.mu_bar, res.nu_bar, res.mu_last, res.nu_last)
    for a, b in zip(got, cold):
        assert np.max(np.abs(a - b)) < 1e-12
    # warm start from the cold solve's last iterates
    warm = _hand_rolled_solve(t, v, K, cold[2], cold[3])
    res = spmp_solve(v, t, init=(cold[2], cold[3]), K=K)
    got = (res.mu_bar, res.nu_bar, res.mu_last, res.nu_last)
    for a, b in zip(got, warm):
        assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("t", [ChainTask(M=3, R=2), RankingTask(M=3)], ids=["chain", "ranking"])
def test_invalid_warm_start_rejected(t):
    bad = t.uniform_state() * 2.0
    with pytest.raises(LayoutError):
        spmp_solve(np.zeros(t.embed_dim), t, init=(bad, t.uniform_state()), K=5)


@pytest.mark.parametrize("t", [MulticlassTask(3), ChainTask(3, 2), RankingTask(3)], ids=lambda t: t.kind)
def test_bad_score_stacks_rejected(t):
    # a wrong width, a 3-D stack and a NaN score, at both entries
    mu = np.tile(t.uniform_state(), (2, 1))
    nan = np.zeros((2, t.embed_dim))
    nan[1, 0] = np.nan
    for V in (np.zeros((2, t.embed_dim + 1)), np.zeros((2, 2, t.embed_dim)), nan):
        with pytest.raises(LayoutError):
            spmp_solve_batch_simplex(V, t, 3)
        with pytest.raises(LayoutError):
            certified_gap(mu, mu, V, t)


def test_batch_matches_single_solves():
    t = OrdinalTask(k=4)
    rng = np.random.default_rng(8)
    V = rng.normal(size=(10, 4))
    mu_bars, nu_bars, _, _ = spmp_solve_batch_simplex(V, t, K=60)
    for i in range(10):
        res = spmp_solve(V[i], t, K=60)
        assert np.max(np.abs(res.mu_bar - mu_bars[i])) < 1e-12
        assert np.max(np.abs(res.nu_bar - nu_bars[i])) < 1e-12


def test_rejects_zero_budget():
    with pytest.raises(ValueError):
        spmp_solve(np.zeros(2), MulticlassTask(k=2), K=0)


def test_warm_start_speeds_repeat_solves():
    # solving the same instance twice with a carried-over cache must beat
    # a cold start at the same small budget
    t = OrdinalTask(k=5)
    rng = np.random.default_rng(9)
    v = rng.normal(size=5)
    cold = spmp_solve(v, t, K=10)
    warm = spmp_solve(v, t, init=(cold.mu_last, cold.nu_last), K=10)
    assert warm.gap < cold.gap


# ---------------------------------------------------------------------------
# adaptive steps (certification and the calibration search)


def _points(t, rng, rows):
    """Rows strictly inside the polytope: Dirichlet mixtures of all labels."""
    E = np.stack([t.embed(y) for y in t.labels()])
    return rng.dirichlet(np.full(len(E), 0.7), size=rows) @ E


def _chain_joint(t, mu):
    """The Markov chain distribution over all labels with marginals mu."""
    u, p = t.split(mu)
    probs = []
    for y in t.labels():
        s = [c - 1 for c in y]
        val = u[0, s[0]] if t.M == 1 else np.prod([p[m, s[m], s[m + 1]] for m in range(t.M - 1)])
        val /= np.prod([u[m, s[m]] for m in range(1, t.M - 1)])
        probs.append(val)
    return np.array(probs)


@pytest.mark.parametrize("t", [MulticlassTask(4), OrdinalTask(3), ChainTask(1, 3), ChainTask(3, 2),
                               ChainTask(4, 3), RankingTask(3)], ids=lambda t: f"{t.kind}{t.embed_dim}")
def test_bregman_matches_direct_divergence(t):
    rng = np.random.default_rng(21)
    P, Q = (_points(t, rng, 5) for _ in range(2))
    cols = [np.ascontiguousarray(X.T) for X in (P, Q)]
    # log-iterates shifted by a constant per column, as the softmax kernel
    # returns them, cancel on simplices and chains; rankings need exact logs
    L_P, L_Q = np.log(cols[0]), np.log(cols[1])
    if t.kind != "ranking":
        L_P += rng.uniform(-5, 5, size=5)
        L_Q += rng.uniform(-5, 5, size=5)
    got = t.bregman(L_P, cols[0], L_Q, cols[1])
    for b in range(5):
        if t.kind == "chain":
            # the signed block KLs are the KL of the chain distributions
            p, q = _chain_joint(t, P[b]), _chain_joint(t, Q[b])
        else:
            p, q = P[b], Q[b]
        want = float(np.sum(p * np.log(p / q)))
        assert got[b] == pytest.approx(want, rel=1e-9, abs=1e-12)
    # D(P, P) = 0
    assert np.all(np.abs(t.bregman(L_P, cols[0], L_P, cols[0])) < 1e-12)


def _recorded_events(monkeypatch, t):
    """Calls of the task's project_stack and loss_stack are recorded in order:
    each projection's eta per column, and None for each apply of A."""
    events = []
    project_stack, loss_stack = type(t).project_stack, type(t).loss_stack

    def projecting(self, L, G, eta):
        events.append(np.broadcast_to(eta, L.shape[1:]).copy())
        return project_stack(self, L, G, eta)

    def applying(self, X):
        events.append(None)
        return loss_stack(self, X)

    monkeypatch.setattr(type(t), "project_stack", projecting)
    monkeypatch.setattr(type(t), "loss_stack", applying)
    return events


def _rounds(events):
    """The engine's rounds in recorded events, each an array of its tries' etas.

    A round applies A at its start X, then makes one try of three calls
    (project, apply A, project at the same eta) and one more per redo.
    """
    rounds, i = [], 0
    while i < len(events):
        assert events[i] is None
        i, tries = i + 1, []
        while i < len(events) and events[i] is not None:
            half, apply, full = events[i:i + 3]
            assert apply is None and np.array_equal(half, full)
            tries.append(half)
            i += 3
        rounds.append(np.array(tries))
    return rounds


@pytest.mark.parametrize("t, scale", [
    *((t, s) for t in (MulticlassTask(3), OrdinalTask(5), ChainTask(4, 3)) for s in (0.3, 3.0, 30.0)),
    *((RankingTask(3), s) for s in (0.03, 0.3, 3.0, 30.0)),
], ids=lambda x: getattr(x, "kind", str(x)))
def test_adaptive_steps_never_fall_below_the_worst_case_step(monkeypatch, t, scale):
    # 64 random rows; on chains some fail the criterion even at the
    # worst-case step, which is accepted, so every round ends
    V = np.random.default_rng(3).normal(size=(64, t.embed_dim)) * scale
    events = _recorded_events(monkeypatch, t)
    K = 40
    out = spmp_solve_batch_simplex(V, t, K, step=None)
    rounds = _rounds(events)
    # projection rates are steps times the entropy range
    worst = (1.0 / (2.0 * t.l_spmp)) * t.r2
    assert len(rounds) == K
    steps = np.concatenate(rounds) / worst
    assert steps.shape[1] == 128
    # each column's step is a power of two from 2**10 down to 1, shared by
    # the row's two players; within a segment it never grows, and each of
    # the four segments of 10 rounds starts at ADAPTIVE_START
    assert np.all(steps >= 1.0) and np.all(steps <= 2.0 ** 10)
    assert np.array_equal(np.exp2(np.round(np.log2(steps))), steps)
    assert np.array_equal(steps[:, :64], steps[:, 64:])
    for seg in range(4):
        seg_steps = np.concatenate(rounds[10 * seg:10 * seg + 10]) / worst
        assert np.all(np.diff(seg_steps, axis=0) <= 0)
        assert np.all(seg_steps[0] == oracle.ADAPTIVE_START)
    for x in out:
        t.check_state(x.T)


def test_adaptive_steps_stop_at_the_worst_case_step(monkeypatch):
    # with the criterion failing everywhere, each round is redone until
    # every row is at the worst-case step, then accepted: at K=2, in each
    # of two one-round segments
    t = ChainTask(3, 2)
    monkeypatch.setattr(oracle, "_FLOOR_SLACK", -np.inf)
    events = _recorded_events(monkeypatch, t)
    spmp_solve_batch_simplex(np.zeros((3, t.embed_dim)), t, 2, step=None)
    steps = [list(r[:, 0] / ((1.0 / (2.0 * t.l_spmp)) * t.r2)) for r in _rounds(events)]
    assert steps == 2 * [[2.0 ** (10 - j) for j in range(11)]]


def _counted_bregman(monkeypatch, t):
    """Calls of the task's bregman are counted, one entry each."""
    calls = []
    bregman = type(t).bregman

    def counting(self, *args):
        calls.append(1)
        return bregman(self, *args)

    monkeypatch.setattr(type(t), "bregman", counting)
    return calls


@pytest.mark.parametrize("t", [MulticlassTask(3), OrdinalTask(5), ChainTask(1, 3), ChainTask(4, 3),
                               RankingTask(3)], ids=lambda t: f"{t.kind}{t.embed_dim}")
def test_fixed_steps_never_check_the_criterion(monkeypatch, t):
    # the worst-case step, the block updates' and calibration's fixed step
    # (warm started) and spmp_solve; an adaptive call, on every task, checks
    # from its first round on
    calls = _counted_bregman(monkeypatch, t)
    V = np.random.default_rng(5).normal(size=(7, t.embed_dim)) * 2.0
    out = spmp_solve_batch_simplex(V, t, 20)
    spmp_solve_batch_simplex(V, t, 20, step=oracle.FIXED_STEP, init=(out[2], out[3]))
    spmp_solve(V[0], t, K=20)
    assert calls == []
    spmp_solve_batch_simplex(V, t, 1, step=None)
    assert calls


def test_criterion_runs_only_above_the_worst_case_step(monkeypatch):
    # with the criterion failing everywhere, the first round of each of the
    # four segments is checked once at each step from 2**10 down to 2, one
    # divergence per check; no round at the worst-case step is checked
    t = ChainTask(3, 2)
    monkeypatch.setattr(oracle, "_FLOOR_SLACK", -np.inf)
    calls = _counted_bregman(monkeypatch, t)
    spmp_solve_batch_simplex(np.zeros((3, t.embed_dim)), t, 40, step=None)
    assert len(calls) == 4 * 10


def _segments(K):
    """The adaptive schedule's segment lengths (oracle.RESTARTS = 4): ends at K*j // 4, empty ones dropped."""
    ends = sorted({K * j // 4 for j in range(1, 4)} - {0}) + [K]
    return list(np.diff([0] + ends))


def _hand_rolled_adaptive(t, v, K):
    """The adaptive rounds for one vector, with one-vector projections and exact logs.

    Each segment is one unrestarted run from the previous segment's
    floored averages, its step starting again at 2**10 worst-case steps.
    """
    worst = (1.0 / (2.0 * t.l_spmp)) * t.r2
    tol = 4 * t.embed_dim * oracle._FLOOR_SLACK

    def D(p, q):
        col = [np.log(p)[:, None], p[:, None], np.log(q)[:, None], q[:, None]]
        return float(t.bregman(*col)[0])

    x = (t.uniform_state(), t.uniform_state())
    for n in _segments(K):
        rate = 2.0 ** 10 * worst
        sums = [np.zeros(t.embed_dim), np.zeros(t.embed_dim)]
        for _ in range(n):
            gx = (t.apply_loss_matrix(x[1]) + v, -t.apply_loss_matrix(x[0]))
            while True:
                y = tuple(project(t, x[j], gx[j], rate) for j in (0, 1))
                gy = (t.apply_loss_matrix(y[1]) + v, -t.apply_loss_matrix(y[0]))
                x_new = tuple(project(t, x[j], gy[j], rate) for j in (0, 1))
                slack = sum(D(x_new[j], y[j]) + D(y[j], x[j]) - rate * (gx[j] - gy[j]) @ (y[j] - x_new[j])
                            for j in (0, 1))
                if slack >= -tol or rate <= worst:
                    break
                rate /= 2
            for j in (0, 1):
                sums[j] += y[j]
            x = x_new
        bars = sums[0] / n, sums[1] / n
        x_last, x = x, tuple(np.maximum(b, PROB_FLOOR) for b in bars)
    return bars[0], bars[1], x_last[0], x_last[1]


def _hand_rolled_cases():
    """Seven tasks at score scales 0.3, 2 and 30; the first three at scale 2 are named by kind."""
    first = (MulticlassTask(3), OrdinalTask(4), ChainTask(3, 2))
    cases = [pytest.param(t, 2.0, id=t.kind) for t in first]
    for t in first + (OrdinalTask(6), ChainTask(1, 3), ChainTask(4, 3), RankingTask(3)):
        cases += [pytest.param(t, s, id=f"{t.kind}{t.embed_dim}-{s}")
                  for s in (0.3, 2.0, 30.0) if t not in first or s != 2.0]
    return cases


@pytest.mark.parametrize("t, scale", _hand_rolled_cases())
def test_adaptive_engine_matches_hand_rolled_rounds(t, scale):
    # the reference checks the criterion in its two-divergence form
    rng = np.random.default_rng(14)
    for _ in range(3):
        v = rng.normal(size=t.embed_dim) * scale
        got = spmp_solve_batch_simplex(v, t, 30, step=None)
        for a, b in zip(got, _hand_rolled_adaptive(t, v, 30)):
            assert np.max(np.abs(a[0] - b)) < 1e-9


@pytest.mark.parametrize("t", [MulticlassTask(3), OrdinalTask(5), ChainTask(3, 2), RankingTask(3)],
                         ids=lambda t: t.kind)
def test_short_adaptive_calls_equal_chained_one_round_calls(t):
    # K <= 4 makes one-round segments: a call equals, bit for bit, K calls
    # of one round, each started from the previous call's averages
    V = np.random.default_rng(15).normal(size=(5, t.embed_dim)) * 2.0
    for K in (2, 3, 4):
        init = None
        for _ in range(K):
            chained = spmp_solve_batch_simplex(V, t, 1, step=None, init=init)
            init = chained[:2]
        for a, b in zip(spmp_solve_batch_simplex(V, t, K, step=None), chained):
            assert np.array_equal(a, b)


def test_adaptive_certificate_beats_the_worst_case_step():
    # at equal budget, the adaptive steps certify a smaller gap on average
    t = ChainTask(3, 3)
    V = np.random.default_rng(4).normal(size=(20, t.embed_dim)) * 3.0
    mu = np.tile(t.uniform_state(), (20, 1))
    fixed = certified_gap(mu, spmp_solve_batch_simplex(V, t, 50)[1], V, t)
    adaptive = certified_gap(mu, spmp_solve_batch_simplex(V, t, 50, step=None)[1], V, t)
    assert adaptive.mean() < fixed.mean()


def test_adaptive_ranking_certificate_beats_the_worst_case_step():
    # rankings step adaptively too: a tenth of the worst-case step's gap
    t = RankingTask(3)
    V = np.random.default_rng(4).normal(size=(20, t.embed_dim)) * 3.0
    fixed = certified_gap(*spmp_solve_batch_simplex(V, t, 50)[:2], V, t)
    adaptive = certified_gap(*spmp_solve_batch_simplex(V, t, 50, step=None)[:2], V, t)
    assert adaptive.mean() < 0.1 * fixed.mean()


# ---------------------------------------------------------------------------
# fixed points: unchecked rounds that return their own start are not repeated


def _every_round(t, V, K, step, init=None, restarts=False):
    """The engine's unchecked rounds on the (dim, 2B) column stack, none skipped.

    Each round goes through the task's own loss_stack and project_stack at
    the call's one rate.  With restarts, the rounds fall into the adaptive
    schedule's segments (`_segments`), each started from the last one's
    floored average.  Returns the engine's four outputs and, per round,
    whether its full step returned its start bit for bit.
    """
    V = np.atleast_2d(V)
    B, VT = len(V), np.ascontiguousarray(V.T)
    rate = (step / (2.0 * t.l_spmp)) * t.r2
    if init is None:
        init = (t.uniform_state(),) * 2
    X = np.concatenate([np.broadcast_to(np.maximum(x, PROB_FLOOR), V.shape) for x in init]).T.copy()
    L = np.log(X)

    def gradient(P):
        AP = t.loss_stack(P)
        return np.ascontiguousarray(np.concatenate([AP[:, B:] + VT, -AP[:, :B]], axis=1))

    repeats = []
    for n in _segments(K) if restarts else [K]:
        X_sum = np.zeros_like(X)
        for _ in range(n):
            L_half, X_half = t.project_stack(L, gradient(X), rate)
            L_new, X_new = t.project_stack(L, gradient(X_half), rate)
            repeats.append(np.array_equal(L_new, L) and np.array_equal(X_new, X))
            L, X = L_new, X_new
            X_sum += X_half
        X_sum /= n
        X_last, X = X, np.maximum(X_sum, PROB_FLOOR)
        L = np.log(X)
    return (X_sum.T[:B], X_sum.T[B:], X_last.T[:B], X_last.T[B:]), repeats


def _counted_projections(monkeypatch, t):
    """Calls of the task's project_stack are counted, one entry each."""
    calls = []
    project_stack = type(t).project_stack

    def counting(self, *args):
        calls.append(1)
        return project_stack(self, *args)

    monkeypatch.setattr(type(t), "project_stack", counting)
    return calls


def _projections_until_repeat(repeats):
    """Projections of unchecked rounds that stop at the first one returning its start."""
    return 2 * (repeats.index(True) + 1 if True in repeats else len(repeats))


@pytest.mark.parametrize("t, scale", [(MulticlassTask(3), 30.0), (OrdinalTask(5), 30.0),
                                      (ChainTask(4, 3), 3.0), (RankingTask(3), 3.0)],
                         ids=lambda x: getattr(x, "kind", str(x)))
def test_fixed_step_rounds_equal_every_round_bit_for_bit(monkeypatch, t, scale):
    # block updates' shape: one row, K=20, a cold call then five warm ones,
    # each from the last call's final iterates, and the whole stack cold;
    # multiclass and ordinal rows at scale 30 pin at a vertex, where a call
    # stops projecting at its first repeated round
    V = np.random.default_rng(16).normal(size=(4, t.embed_dim)) * scale
    K, step = 20, oracle.FIXED_STEP
    calls = _counted_projections(monkeypatch, t)
    pinned = []  # per call sequence: whether some call repeated a round
    for rows in [*V[:, None], V]:
        init, repeated = None, False
        for _ in range(6 if len(rows) == 1 else 1):
            want, repeats = _every_round(t, rows, K, step, init)
            del calls[:]
            got = spmp_solve_batch_simplex(rows, t, K, step=step, init=init)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            assert len(calls) == _projections_until_repeat(repeats)
            repeated |= True in repeats
            init = got[2], got[3]
        pinned.append(repeated)
    # every row pins at scale 30; chain rows never repeat, so project 2K times a call
    if scale == 30.0:
        assert all(pinned[:-1])
    if t.kind == "chain":
        assert not any(pinned)


def test_fixed_point_ends_at_a_restart(monkeypatch):
    # an adaptive call forced to the worst-case step, on rows warm started
    # at a vertex: each segment's first round is redone down to that step,
    # its next one repeats, and the skip ends with the segment; K=40
    t = MulticlassTask(3)
    monkeypatch.setattr(oracle, "_FLOOR_SLACK", -np.inf)
    V = np.random.default_rng(17).normal(size=(4, 3)) * 30.0
    pinned = spmp_solve_batch_simplex(V, t, 20, step=oracle.FIXED_STEP)
    init = pinned[2], pinned[3]
    want, repeats = _every_round(t, V, 40, 1.0, init, restarts=True)
    calls = _counted_projections(monkeypatch, t)
    got = spmp_solve_batch_simplex(V, t, 40, step=None, init=init)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    # per segment of 10 rounds: 11 tries of the first round, then rounds up to its first repeat
    segments = [repeats[10 * s:10 * s + 10] for s in range(4)]
    assert all(True in seg[:-1] for seg in segments)
    assert len(calls) == sum(2 * 10 + _projections_until_repeat(seg) for seg in segments)
