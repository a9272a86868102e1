"""Self-tests of the checkers in checks.py, on cases with known answers.

run.py calls `run_selftests` before every run, so a broken checker stops the
benchmark instead of passing wrong outputs.  Run alone:

    python3 bench/selftest.py
"""

from __future__ import annotations

import numpy as np

import checks
from checks import require


def run_selftests() -> int:
    """Run every self-test; returns how many ran, raises CheckError on failure."""
    tests = [
        _lp_matches_multiclass_closed_form,
        _vertex_enumeration_matches_lp,
        _fresh_model_gap_is_one_minus_one_over_k,
        _fresh_chain_gap_is_one_minus_one_over_r,
        _brute_force_finds_planted_chain_labels,
        _polytope_check_rejects_inconsistent_marginals,
    ]
    for test in tests:
        test()
    return len(tests)


def _lp_matches_multiclass_closed_form():
    rng = np.random.default_rng(1)
    for k in (3, 5):
        L = checks.simplex_table(k, "zero_one").L
        for c in rng.normal(size=(10, k)) * 2.0:
            lp, closed = checks.lp_conjugate(c, L), checks.multiclass_closed_form(c)
            require(abs(lp - closed) <= 1e-9, f"LP {lp} != closed form {closed} (k={k})")


def _vertex_enumeration_matches_lp():
    rng = np.random.default_rng(2)
    for loss in ("zero_one", "absolute"):
        table = checks.simplex_table(3, loss)
        C = rng.normal(size=(20, 3)) * 2.0
        fast = checks.conjugate(C, table)
        slow = np.array([checks.lp_conjugate(c, table.L) for c in C])
        require(np.abs(fast - slow).max() <= 1e-9, f"vertex values differ from the LP ({loss})")


def _fresh_model_gap_is_one_minus_one_over_k():
    # dual_mu = Phi and zero coefficients: scores vanish, each block's gap
    # is the largest Bayes risk, reached by the uniform mixture
    table = checks.simplex_table(3, "zero_one")
    Phi = table.E[[0, 2, 1, 1, 0]]
    gaps = checks.exact_dual_gaps(np.zeros_like(Phi), Phi, table)
    require(np.abs(gaps - (1 - 1 / 3)).max() <= 1e-9, f"fresh multiclass gaps {gaps}")


def _fresh_chain_gap_is_one_minus_one_over_r():
    M, R = 4, 3
    table = checks.chain_table(M, R)
    Phi = table.E[[0, 40, 80]]
    gaps = checks.exact_dual_gaps(np.zeros_like(Phi), Phi, table)
    require(np.abs(gaps - (1 - 1 / R)).max() <= 1e-9, f"fresh chain gaps {gaps}")


def _brute_force_finds_planted_chain_labels():
    table = checks.chain_table(4, 3)
    rng = np.random.default_rng(3)
    planted = rng.choice(len(table.labels), size=20, replace=False)
    S = 1.0 * table.E[planted] + 0.05 * rng.normal(size=(20, table.E.shape[1]))
    found, _ = checks.brute_force_argmax(S, table)
    require(np.array_equal(found, planted), "brute-force argmax missed a planted label")


def _polytope_check_rejects_inconsistent_marginals():
    M, R = 4, 3
    table = checks.chain_table(M, R)
    q = np.random.default_rng(4).dirichlet(np.ones(len(table.labels)))
    mu = q @ table.E
    require(checks.chain_polytope_violation(mu, M, R) <= 1e-12, "a label mixture was rejected")
    bad = mu.copy()
    off = M * R  # move mass inside the first pairwise block only
    bad[off], bad[off + 1] = bad[off] + 0.01, bad[off + 1] - 0.01
    require(checks.chain_polytope_violation(bad, M, R) >= 0.009, "a broken pairwise block passed")


if __name__ == "__main__":
    print(f"{run_selftests()} checker self-tests passed")
