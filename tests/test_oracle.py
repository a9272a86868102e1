import numpy as np
import pytest

from maxminsp import oracle
from maxminsp.oracle import (
    certified_gap,
    spmp_solve,
    spmp_solve_batch_simplex,
)
from maxminsp.projections import PROB_FLOOR, SinkhornConvergenceError, project
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
    ("project", G, eta per column) for each projection and ("apply", A X)
    for each apply of A."""
    events = []
    project_stack, loss_stack = type(t).project_stack, type(t).loss_stack

    def projecting(self, L, G, eta):
        events.append(("project", G.copy(), np.broadcast_to(eta, L.shape[1:]).copy()))
        return project_stack(self, L, G, eta)

    def applying(self, X):
        AX = loss_stack(self, X)
        events.append(("apply", AX.copy()))
        return AX

    monkeypatch.setattr(type(t), "project_stack", projecting)
    monkeypatch.setattr(type(t), "loss_stack", applying)
    return events


def _rounds(events, V):
    """The engine's rounds in recorded events, each a list of its tries as
    (rows of V, eta per column) pairs.

    A round applies A at its active stack's start X, then makes one try of
    three calls (project, apply A, project at the same eta) on the whole
    active stack and one more per redo, on the rows that failed.  A first
    try's max-player gradient is A nu + v, so its rows are the rows of V
    nearest to it less A nu; a redo gathers its gradient columns from the
    first try's, so its rows are found by equality.  A round in which
    every active row sits at its fixed point makes no call and is missed.
    """
    rounds, i = [], 0
    while i < len(events):
        assert events[i][0] == "apply"
        AX, i, tries = events[i][1], i + 1, []
        while i < len(events) and events[i][0] == "project":
            (_, G, eta), (apply, _), (project, _, eta_full) = events[i:i + 3]
            assert apply == "apply" and project == "project" and np.array_equal(eta, eta_full)
            b = G.shape[1] // 2
            if not tries:
                v = G[:, :b] - AX[:, b:]
                rows = np.argmin(np.abs(v.T[:, None] - V[None]).max(axis=2), axis=1)
                assert np.allclose(V[rows].T, v, rtol=1e-12, atol=1e-12)
                first, first_rows = G, rows
            else:
                b0 = len(first_rows)
                pos = np.array([np.flatnonzero((first[:, :b0] == G[:, [j]]).all(axis=0))[0] for j in range(b)])
                assert np.array_equal(G[:, b:], first[:, b0 + pos])
                rows = first_rows[pos]
            tries.append((rows, eta))
            i += 3
        rounds.append(tries)
    return rounds


@pytest.mark.parametrize("t, scale", [
    *((t, s) for t in (MulticlassTask(3), OrdinalTask(5), ChainTask(4, 3)) for s in (0.3, 3.0, 30.0)),
    *((RankingTask(3), s) for s in (0.03, 0.3, 3.0, 30.0)),
], ids=lambda x: getattr(x, "kind", str(x)))
def test_adaptive_steps_never_fall_below_the_worst_case_step(monkeypatch, t, scale):
    # 64 random rows; on chains some fail the criterion even at the
    # worst-case step, which is accepted, so every round ends.  Rows leave
    # the stack at their fixed points and redos project the failing rows
    # alone, so each try's steps are read per row
    V = np.random.default_rng(3).normal(size=(64, t.embed_dim)) * scale
    events = _recorded_events(monkeypatch, t)
    K = 40
    out = spmp_solve_batch_simplex(V, t, K, step=None)
    rounds = _rounds(events, V)
    # projection rates are steps times the entropy range
    worst = (1.0 / (2.0 * t.l_spmp)) * t.r2
    assert len(rounds) == K
    # each row's step is a power of two from 2**10 down to 1, shared by its
    # two players; within a segment it never grows, and each of the four
    # segments of 10 rounds starts every row at ADAPTIVE_START
    for seg in range(4):
        last = np.full(64, np.inf)
        for n, tries in enumerate(rounds[10 * seg:10 * seg + 10]):
            for j, (rows, eta) in enumerate(tries):
                steps = eta / worst
                assert np.all(steps >= 1.0) and np.all(steps <= 2.0 ** 10)
                assert np.array_equal(np.exp2(np.round(np.log2(steps))), steps)
                assert np.array_equal(steps[:len(rows)], steps[len(rows):])
                assert np.all(steps[:len(rows)] <= last[rows])
                last[rows] = steps[:len(rows)]
                if n == j == 0:
                    assert np.array_equal(rows, np.arange(64)) and np.all(steps == oracle.ADAPTIVE_START)
    for x in out:
        t.check_state(x.T)


def test_adaptive_steps_stop_at_the_worst_case_step(monkeypatch):
    # with the criterion failing everywhere, each round is redone until
    # every row is at the worst-case step, then accepted: at K=2, in each
    # of two one-round segments
    t = ChainTask(3, 2)
    monkeypatch.setattr(oracle, "_FLOOR_SLACK", -np.inf)
    events = _recorded_events(monkeypatch, t)
    V = np.random.default_rng(2).normal(size=(3, t.embed_dim))
    spmp_solve_batch_simplex(V, t, 2, step=None)
    worst = (1.0 / (2.0 * t.l_spmp)) * t.r2
    rounds = _rounds(events, V)
    assert len(rounds) == 2
    for tries in rounds:
        assert [list(rows) for rows, _ in tries] == 11 * [[0, 1, 2]]
        assert [list(eta / worst) for _, eta in tries] == [6 * [2.0 ** (10 - j)] for j in range(11)]


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
# fixed points and redos, row by row: a row that returns its own start
# leaves the stack, and a redo projects the rows that failed


def _every_round(t, V, K, step, init=None):
    """The engine's rounds on the full (dim, 2B) column stack: no round
    skipped and every try on every column.

    Each try goes through the task's own loss_stack and project_stack.  A
    float step fixes one rate for all K rounds.  step=None adapts: each
    row starts at ADAPTIVE_START worst-case steps, a try is checked by
    `oracle._rejected` while some row is above the worst-case step, and
    the whole stack is tried again with the failing rows' steps halved; the
    rounds fall into the restart schedule's segments (`_segments`), each
    started from the last one's floored average at fresh steps.  Returns
    the engine's four outputs and its segments, each a list of rounds:
    the round's start L, which rows returned their start, and the tries a
    row-local engine makes, as (rows, eta per column) pairs.  Those project
    the rows that have not yet repeated in the segment, then, in each
    redo, the rows that failed the try before.
    """
    V = np.atleast_2d(V)
    B, VT = len(V), np.ascontiguousarray(V.T)
    worst = (1.0 / (2.0 * t.l_spmp)) * t.r2
    if init is None:
        init = (t.uniform_state(),) * 2
    X = np.concatenate([np.broadcast_to(np.maximum(x, PROB_FLOOR), V.shape) for x in init]).T.copy()
    L = np.log(X)

    def gradient(P):
        AP = t.loss_stack(P)
        return np.ascontiguousarray(np.concatenate([AP[:, B:] + VT, -AP[:, :B]], axis=1))

    segments = []
    for n in [K] if step else _segments(K):
        X_sum = np.zeros_like(X)
        rates = np.full(2 * B, worst * (step or oracle.ADAPTIVE_START))
        pinned, rounds = np.zeros(B, dtype=bool), []
        for _ in range(n):
            G_x, rows, tries = gradient(X), np.flatnonzero(~pinned), []
            while True:
                if rows.size:
                    tries.append((rows, rates[np.concatenate([rows, rows + B])]))
                X_half = t.project_stack(L, G_x, rates)[1]
                G_y = gradient(X_half)
                L_new, X_new = t.project_stack(L, G_y, rates)
                if step or not (rates > worst).any():
                    break
                failed = oracle._rejected(t, rates, worst, G_y, (L, X), X_half, (L_new, X_new))
                if not failed.any():
                    break
                rates[np.concatenate([failed, failed])] *= 0.5
                rows = np.flatnonzero(failed)
            same = (L_new == L).all(axis=0) & (X_new == X).all(axis=0)
            rounds.append((L, same[:B] & same[B:], tries))
            pinned |= same[:B] & same[B:]
            L, X = L_new, X_new
            X_sum += X_half
        segments.append(rounds)
        X_sum /= n
        X_last, X = X, np.maximum(X_sum, PROB_FLOOR)
        L = np.log(X)
    return (X_sum.T[:B], X_sum.T[B:], X_last.T[:B], X_last.T[B:]), segments


def _recorded_projections(monkeypatch, t):
    """Calls of the task's project_stack are recorded in order, as (L, eta per column)."""
    calls = []
    project_stack = type(t).project_stack

    def recording(self, L, G, eta):
        calls.append((L.copy(), np.broadcast_to(eta, L.shape[1:]).copy()))
        return project_stack(self, L, G, eta)

    monkeypatch.setattr(type(t), "project_stack", recording)
    return calls


def _assert_row_local(calls, segments, B):
    """The engine made two projections per try of the reference, each of
    the try's rows alone, from the round's start at the try's rates.

    Returns each row's projected columns, checked against its own count:
    per segment, two per round up to its first repeat and two per redo
    try.  A round in which every row has repeated projects nothing.
    """
    tries = [(L, rows, eta) for rounds in segments for L, _, round_tries in rounds for rows, eta in round_tries]
    assert len(calls) == 2 * len(tries)
    per_row = np.zeros(B, dtype=int)
    for (L, eta), (L_start, rows, eta_want) in zip(calls, [x for x in tries for _ in (0, 1)]):
        assert np.array_equal(L, L_start[:, np.concatenate([rows, rows + B])])
        assert np.array_equal(eta, eta_want)
        per_row[rows] += 1
    own = np.zeros(B, dtype=int)
    for rounds in segments:
        repeats = np.array([r for _, r, _ in rounds])
        first = np.where(repeats.any(axis=0), repeats.argmax(axis=0), len(rounds) - 1)
        own += 2 * (first + 1)
        for _, _, round_tries in rounds:
            for rows, _ in round_tries[1:]:
                own[rows] += 2
    assert np.array_equal(per_row, own)
    return per_row


@pytest.mark.parametrize("t, scale", [(MulticlassTask(3), 30.0), (OrdinalTask(5), 30.0),
                                      (ChainTask(4, 3), 3.0), (RankingTask(3), 3.0)],
                         ids=lambda x: getattr(x, "kind", str(x)))
def test_fixed_step_rounds_equal_every_round_bit_for_bit(monkeypatch, t, scale):
    # block updates' shape: one row, K=20, a cold call then five warm ones,
    # each from the last call's final iterates, and the whole stack cold;
    # multiclass and ordinal rows at scale 30 pin at a vertex, where a row
    # stops projecting at its first repeated round
    V = np.random.default_rng(16).normal(size=(4, t.embed_dim)) * scale
    K, step = 20, oracle.FIXED_STEP
    calls = _recorded_projections(monkeypatch, t)
    pinned = []  # per call sequence: whether some call repeated a round
    for rows in [*V[:, None], V]:
        init, repeated = None, False
        for _ in range(6 if len(rows) == 1 else 1):
            want, segments = _every_round(t, rows, K, step, init)
            del calls[:]
            got = spmp_solve_batch_simplex(rows, t, K, step=step, init=init)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            _assert_row_local(calls, segments, len(rows))
            repeated |= any(r.any() for _, r, _ in segments[0])
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
    want, segments = _every_round(t, V, 40, None, init)
    calls = _recorded_projections(monkeypatch, t)
    got = spmp_solve_batch_simplex(V, t, 40, step=None, init=init)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    # per segment of 10 rounds: 11 tries of the first round, then rounds up
    # to each row's first repeat
    assert len(segments) == 4 and all(len(rounds) == 10 for rounds in segments)
    assert all(r.all() for rounds in segments for _, r, _ in rounds[1:-1])
    per_row = _assert_row_local(calls, segments, 4)
    assert np.all(per_row == 4 * 2 * (11 + 1))


@pytest.mark.parametrize("t", [MulticlassTask(3), OrdinalTask(4), ChainTask(3, 2), RankingTask(3)],
                         ids=lambda t: t.kind)
def test_row_local_rounds_equal_every_round_bit_for_bit(monkeypatch, t):
    # rows at three score scales, interleaved: at 30 a row pins at a vertex,
    # at 0.3 it never does and is redone in most rounds; adaptive calls cold
    # and warm started, where rows pin, redo and run free in one stack, and
    # fixed-step calls, where multiclass and ranking rows pin; all of K=40
    V = np.random.default_rng(18).normal(size=(6, t.embed_dim)) * np.array([[30.0], [0.3], [3.0]] * 2)
    warm = spmp_solve_batch_simplex(V, t, 20, step=oracle.FIXED_STEP)[2:]
    calls = _recorded_projections(monkeypatch, t)
    for step, init in [(None, None), (None, warm), (oracle.FIXED_STEP, None), (1.0, warm)]:
        want, segments = _every_round(t, V, 40, step, init)
        del calls[:]
        got = spmp_solve_batch_simplex(V, t, 40, step=step, init=init)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        per_row = _assert_row_local(calls, segments, 6)
        pinned = np.any([r for rounds in segments for _, r, _ in rounds], axis=0)
        assert not pinned.all()
        if step is None or t.kind in ("multiclass", "ranking"):
            # some rows leave the stack early, and project less than those that never do
            assert pinned.any() and per_row[pinned].max() < per_row[~pinned].min()
        if step is None:
            # some redo projects some of a round's active rows, not all
            assert any(len(tries[j][0]) < len(tries[0][0])
                       for rounds in segments for _, _, tries in rounds for j in range(1, len(tries)))


def test_projection_failure_names_its_row_after_rows_leave(monkeypatch):
    # a ranking projection forced to fail on a stack from which rows have
    # left, in a round's first try and in a redo of some of its rows: the
    # error names the player and row of the full stack
    t = RankingTask(3)
    V = np.random.default_rng(18).normal(size=(6, t.embed_dim)) * np.array([[30.0], [0.3], [3.0]] * 2)
    rounds = [r for rounds in _every_round(t, V, 40, None)[1] for r in rounds]
    first = next(n for n, (_, _, tries) in enumerate(rounds) if len(tries[0][0]) < 6)
    redo = next(n for n, (_, _, tries) in enumerate(rounds) if len(tries[0][0]) < 6 and len(tries) > 1)
    project_stack = type(t).project_stack
    for n, j in [(first, 0), (redo, 1)]:
        rows = rounds[n][2][j][0]
        before = 2 * (sum(len(tries) for _, _, tries in rounds[:n]) + j)
        for col in (len(rows) - 1, 2 * len(rows) - 1):
            calls = []

            def failing(self, L, G, eta):
                calls.append(1)
                if len(calls) > before:
                    raise SinkhornConvergenceError(1.0, 0, col)
                return project_stack(self, L, G, eta)

            monkeypatch.setattr(type(t), "project_stack", failing)
            with pytest.raises(RuntimeError) as exc:
                spmp_solve_batch_simplex(V, t, 40, step=None)
            player = "max" if col < len(rows) else "min"
            assert f"iteration {n} ({player} player, row {rows[col % len(rows)]})" in str(exc.value)
    assert 0 < first <= redo
