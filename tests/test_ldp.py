"""Linearly solvable MDPs: reduction, desirability, KL costs, policies."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conebellman import (
    CertificationError,
    ConeTag,
    GoalNotAbsorbing,
    GoalUnreachable,
    InvalidProblem,
    LdpProblem,
    NoGoal,
    ReducedLdp,
    SingularSystem,
    SolveConfig,
    SupportViolation,
    ValueObject,
    fixed_point_solve,
    kl_stage_cost,
    optimal_policy,
    reduce,
    solve_desirability,
    solve_ldp,
    verify_bellman,
)
from conebellman import engine, ldp
from conebellman.generators import random_ldp
from conebellman.oracles import ldp_logsumexp_vi

# hand-derived single-state fixed point: z = 0.5 e^{-1} / (1 - 0.5 e^{-1})
SINGLE_Z = 0.2253996735605641
SINGLE_LAM = 1.48988012564475
SINGLE_PSTAR = 0.18393972058572117


def single_state_problem():
    return LdpProblem(Pbar=[[0.5, 0.0], [0.5, 1.0]], s=[1.0, 0.0], goals=(1,))


# ---------------------------------------------------------------------------
# validation and reduction


def test_problem_validation():
    with pytest.raises(InvalidProblem):
        LdpProblem(Pbar=[[0.5, 0.0], [0.4, 1.0]], s=[1.0, 0.0], goals=(1,))
    with pytest.raises(InvalidProblem):
        LdpProblem(Pbar=[[1.1, 0.0], [-0.1, 1.0]], s=[1.0, 0.0], goals=(1,))
    with pytest.raises(InvalidProblem):
        LdpProblem(Pbar=[[0.5, 0.0], [0.5, 1.0]], s=[1.0, 0.0], goals=(7,))


def test_reduce_single_state():
    r = reduce(single_state_problem())
    assert np.array_equal(r.Pbar_r, [[0.5]])
    assert np.array_equal(r.pbar_g, [0.5])
    assert np.array_equal(r.s_r, [1.0])


def test_reduce_requires_a_goal():
    with pytest.raises(NoGoal):
        reduce(LdpProblem(Pbar=[[1.0]], s=[1.0], goals=()))


def test_reduce_rejects_leaky_or_costly_goal():
    with pytest.raises(GoalNotAbsorbing):
        reduce(LdpProblem(Pbar=[[0.5, 0.5], [0.5, 0.5]], s=[1.0, 0.0], goals=(1,)))
    with pytest.raises(GoalNotAbsorbing):
        reduce(LdpProblem(Pbar=[[0.5, 0.0], [0.5, 1.0]], s=[1.0, 0.3], goals=(1,)))


def test_reduce_rejects_free_non_goal_state():
    with pytest.raises(InvalidProblem):
        reduce(LdpProblem(Pbar=[[0.5, 0.0], [0.5, 1.0]], s=[0.0, 0.0], goals=(1,)))


def test_reduce_detects_stranded_states():
    # state 0 loops onto itself forever
    p = LdpProblem(
        Pbar=[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
        s=[1.0, 1.0, 0.0],
        goals=(2,),
    )
    with pytest.raises(GoalUnreachable):
        reduce(p)


def test_reduce_names_the_first_leaky_goal():
    # goal 1 is absorbing, goal 2 leaks 1e-11 back to state 0
    leaky = [[0.0, 0.0, 1e-11], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0 - 1e-11]]
    with pytest.raises(GoalNotAbsorbing, match="goal state 2 leaks"):
        reduce(LdpProblem(Pbar=leaky, s=[1.0, 0.0, 0.0], goals=(1, 2)))
    # a costly goal 1 is the first offender, ahead of the leak at goal 2
    with pytest.raises(GoalNotAbsorbing, match="goal state 1 has nonzero cost"):
        reduce(LdpProblem(Pbar=leaky, s=[1.0, 0.5, 0.0], goals=(1, 2)))


def test_reduce_lists_stranded_states_in_ascending_order():
    # 0 loops on itself, 3 and 1 swap forever, 2 steps into the goal 4
    P = np.zeros((5, 5))
    P[0, 0] = P[1, 3] = P[3, 1] = P[4, 2] = P[4, 4] = 1.0
    p = LdpProblem(Pbar=P, s=[1.0, 1.0, 1.0, 1.0, 0.0], goals=(4,))
    with pytest.raises(GoalUnreachable, match=re.escape("states [0, 1, 3] cannot")):
        reduce(p)


def test_reduce_long_chain():
    # i -> i - 1 down to the goal 0: reachability is 2000 levels deep
    n = 2000
    P = np.zeros((n, n))
    P[0, 0] = 1.0
    P[np.arange(n - 1), np.arange(1, n)] = 1.0
    r = reduce(LdpProblem(Pbar=P, s=np.r_[0.0, np.ones(n - 1)], goals=(0,)))
    assert r.n_r == n - 1
    assert np.array_equal(r.pbar_g, np.r_[1.0, np.zeros(n - 2)])
    assert np.array_equal(r.Pbar_r, P[1:, 1:])


def _bfs_stuck(support, goals):
    """Non-goal states with no support path (i -> j iff support[j, i]) to a goal."""
    n = support.shape[0]
    reached = set(goals)
    queue = list(goals)
    while queue:
        j = queue.pop(0)
        for i in range(n):
            if i not in reached and support[j, i]:
                reached.add(i)
                queue.append(i)
    return [i for i in range(n) if i not in reached]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_reduce_reachability_matches_bfs(n, seed):
    rng = np.random.default_rng(seed)
    goals = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
    W = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < 0.2)
    W[:, W.sum(axis=0) == 0.0] += np.eye(n)[:, W.sum(axis=0) == 0.0]
    W[:, goals] = np.eye(n)[:, goals]
    s = np.where(np.isin(np.arange(n), goals), 0.0, 1.0)
    p = LdpProblem(Pbar=W / W.sum(axis=0), s=s, goals=tuple(goals))
    stuck = _bfs_stuck(p.Pbar > 0.0, goals)
    if stuck:
        with pytest.raises(GoalUnreachable, match=re.escape(f"states {stuck} cannot")):
            reduce(p)
    else:
        assert reduce(p).n_r == n - len(goals)


def test_reduced_type_accepts_zero_cost():
    # the reduced form itself tolerates s = 0 (desirability 1, value 0)
    r = ReducedLdp(Pbar_r=[[0.0]], pbar_g=[1.0], s_r=[0.0])
    z, lam, _ = solve_desirability(r)
    assert np.array_equal(z, [1.0])
    assert np.array_equal(lam, [0.0])


# ---------------------------------------------------------------------------
# desirability solve


def test_single_state_closed_form():
    sol = solve_ldp(single_state_problem())
    assert sol.z[0] == pytest.approx(SINGLE_Z, abs=1e-15)
    assert sol.lam[0] == pytest.approx(SINGLE_LAM, abs=1e-13)
    assert sol.Pstar[0, 0] == pytest.approx(SINGLE_PSTAR, abs=1e-15)
    assert sol.bellman_residual < 1e-12


def test_all_mass_to_goal_gives_stage_cost():
    p = LdpProblem(Pbar=[[0.0, 0.0], [1.0, 1.0]], s=[0.7, 0.0], goals=(1,))
    sol = solve_ldp(p)
    assert sol.z[0] == pytest.approx(np.exp(-0.7), abs=1e-15)
    assert sol.lam[0] == pytest.approx(0.7, abs=1e-13)


def test_desirability_lies_in_unit_interval():
    for seed in range(6):
        p = random_ldp(12, seed=seed)
        sol = solve_ldp(p)
        assert np.all(sol.z > 0.0)
        assert np.all(sol.z <= 1.0)


def test_closed_subchain_has_no_solution():
    r = ReducedLdp(
        Pbar_r=[[0.0, 1.0], [1.0, 0.0]], pbar_g=[0.0, 0.0], s_r=[0.0, 0.0]
    )
    with pytest.raises(SingularSystem):
        solve_desirability(r)


def test_zero_cost_state_that_reaches_goal_mass_solves():
    # states 0 and 2 are free and have no goal edge; 2 -> 0 -> 1, and state 1
    # has positive cost and goal mass, so rho(G Pbar_r^T) < 1
    r = ReducedLdp(
        Pbar_r=[[0.0, 0.0, 1.0], [1.0, 0.2, 0.0], [0.0, 0.5, 0.0]],
        pbar_g=[0.0, 0.3, 0.0],
        s_r=[0.0, 0.5, 0.0],
    )
    _, lam, _ = solve_desirability(r)
    vi = ldp_logsumexp_vi(r, iters=200_000, tol=1e-13)
    np.testing.assert_allclose(lam, vi, atol=1e-8)


def test_zero_cost_closed_class_fed_from_outside_is_singular():
    # 0 <-> 1 cost nothing and never leave; state 2 feeds them and the goal
    r = ReducedLdp(
        Pbar_r=[[0.0, 1.0, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        pbar_g=[0.0, 0.0, 0.5],
        s_r=[0.0, 0.0, 1.0],
    )
    with pytest.raises(SingularSystem, match=re.escape("states [0, 1] never")):
        solve_desirability(r)


def test_costly_closed_class_without_goal_mass_is_not_certified():
    # rho < 1 here, but z = 0 solves the system: the value is infinite
    r = ReducedLdp(
        Pbar_r=[[0.0, 1.0], [1.0, 0.0]], pbar_g=[0.0, 0.0], s_r=[1.0, 1.0]
    )
    with pytest.raises(CertificationError):
        solve_desirability(r)


def test_ldp_never_estimates_a_spectral_radius(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("spectral_radius called")

    monkeypatch.setattr(engine, "spectral_radius", boom)
    monkeypatch.setattr(ldp, "spectral_radius", boom, raising=False)
    sol = solve_ldp(random_ldp(40, seed=5))
    assert sol.bellman_residual < 1e-12


def test_block_iteration_agrees_with_direct_solve():
    # the affine map iterated from zero is the fallback route; it must land
    # on the same desirability vector as the linear solve
    from conebellman.ldp import _desirability_step

    p = random_ldp(9, seed=31)
    r = reduce(p)
    z_direct, _, _ = solve_desirability(r)
    res = fixed_point_solve(
        _desirability_step(r),
        ValueObject.zeros(ConeTag.orthant(r.n_r)),
        SolveConfig(tol=1e-14),
    )
    np.testing.assert_allclose(res.value.data, z_direct, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_direct_solve_matches_logsumexp_iteration(seed):
    p = random_ldp(10 + seed, seed=700 + seed)
    r = reduce(p)
    sol = solve_ldp(p)
    vi = ldp_logsumexp_vi(r, iters=200_000, tol=1e-13)
    np.testing.assert_allclose(sol.lam, vi, atol=1e-8)


# ---------------------------------------------------------------------------
# policies


def test_zero_value_leaves_passive_dynamics_unchanged():
    r = reduce(single_state_problem())
    P = optimal_policy(r, np.zeros(1))
    np.testing.assert_array_equal(P, r.Pbar_r)


def test_policy_preserves_sparsity_pattern():
    for seed in range(6):
        p = random_ldp(14, seed=60 + seed)
        r = reduce(p)
        sol = solve_ldp(p)
        assert np.array_equal(sol.Pstar > 0.0, r.Pbar_r > 0.0)


def test_policy_columns_are_substochastic():
    p = random_ldp(10, seed=3)
    r = reduce(p)
    sol = solve_ldp(p)
    col = sol.Pstar.sum(axis=0)
    assert np.all(col <= 1.0 + 1e-12)
    # the missing mass is exactly the goal transition probability
    goal_mass = 1.0 - col
    assert np.all(goal_mass >= -1e-12)


def test_policy_rejects_non_finite_values():
    r = reduce(single_state_problem())
    with pytest.raises(InvalidProblem):
        optimal_policy(r, np.array([np.inf]))


# ---------------------------------------------------------------------------
# KL stage cost


def test_passive_policy_costs_s():
    # KL term vanishes at P = Pbar up to the float noise of re-deriving the
    # goal mass as one minus the column sums
    p = random_ldp(8, seed=17)
    r = reduce(p)
    np.testing.assert_allclose(kl_stage_cost(r, r.Pbar_r), r.s_r, atol=1e-14)


def test_stage_cost_rejects_new_support():
    r = reduce(single_state_problem())
    bad = np.array([[0.9]])  # fine: within support
    kl_stage_cost(r, bad)
    r2 = ReducedLdp(Pbar_r=[[0.0]], pbar_g=[1.0], s_r=[1.0])
    with pytest.raises(SupportViolation):
        kl_stage_cost(r2, np.array([[0.1]]))


def test_stage_cost_rejects_goal_mass_without_goal_edge():
    r = ReducedLdp(
        Pbar_r=[[0.0, 1.0], [1.0, 0.0]], pbar_g=[0.0, 0.0], s_r=[1.0, 1.0]
    )
    # column sums below one imply goal mass, but pbar_g is zero
    with pytest.raises(SupportViolation):
        kl_stage_cost(r, np.array([[0.0, 0.9], [0.9, 0.0]]))


def test_stage_cost_handles_dropped_transitions():
    # P may zero out an allowed transition; 0 log 0 counts as 0
    r = ReducedLdp(
        Pbar_r=[[0.3, 0.2], [0.3, 0.2]], pbar_g=[0.4, 0.6], s_r=[1.0, 1.0]
    )
    P = np.array([[0.0, 0.2], [0.6, 0.2]])
    h = kl_stage_cost(r, P)
    assert np.all(np.isfinite(h))
    assert np.all(h >= r.s_r - 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_stage_cost_dominates_s(seed):
    # KL divergence is nonnegative, so h >= s for every feasible policy
    rng = np.random.default_rng(seed)
    p = random_ldp(6, seed=seed % 50)
    r = reduce(p)
    W = np.where(r.Pbar_r > 0.0, rng.uniform(0.05, 1.0, r.Pbar_r.shape), 0.0)
    gw = np.where(r.pbar_g > 0.0, rng.uniform(0.05, 1.0, r.n_r), 0.0)
    P = W / (W.sum(axis=0) + gw)
    h = kl_stage_cost(r, P)
    assert np.all(h >= r.s_r - 1e-12)


def test_stage_cost_equals_dense_reference_bit_for_bit():
    # the dense all-pairs form, summing zeros off the support; the support-only
    # sum adds the same terms in the same order, so the results are identical
    r = reduce(random_ldp(40, seed=8))
    sol = solve_ldp(random_ldp(40, seed=8))
    for P in (r.Pbar_r, sol.Pstar, np.where(sol.Pstar > 0.05, sol.Pstar, 0.0)):
        ratio = np.where(P > 0.0, P / np.where(r.Pbar_r > 0.0, r.Pbar_r, 1.0), 1.0)
        kl = np.where(P > 0.0, P * np.log(ratio), 0.0).sum(axis=0)
        gm = np.maximum(1.0 - P.sum(axis=0), 0.0)
        safe_goal = np.where(r.pbar_g > 0.0, r.pbar_g, 1.0)
        pi = np.where(gm > 0.0, gm * np.log(np.where(gm > 0.0, gm, 1.0) / safe_goal), 0.0)
        assert np.array_equal(kl_stage_cost(r, P), r.s_r + kl + pi)


def test_no_feasible_policy_beats_the_bellman_minimum():
    p = random_ldp(8, seed=41)
    r = reduce(p)
    sol = solve_ldp(p)
    rng = np.random.default_rng(9)
    for _ in range(100):
        W = np.where(r.Pbar_r > 0.0, rng.uniform(0.05, 1.0, r.Pbar_r.shape), 0.0)
        gw = np.where(r.pbar_g > 0.0, rng.uniform(0.05, 1.0, r.n_r), 0.0)
        P = W / (W.sum(axis=0) + gw)
        h = kl_stage_cost(r, P)
        assert np.all(h + P.T @ sol.lam >= sol.lam - 1e-10)


# ---------------------------------------------------------------------------
# Bellman verification


def test_bellman_residual_small_at_solution():
    r = reduce(single_state_problem())
    sol = solve_ldp(single_state_problem())
    assert verify_bellman(r, sol.lam, sol.Pstar) < 1e-12


def test_bellman_residual_large_off_solution():
    r = reduce(single_state_problem())
    sol = solve_ldp(single_state_problem())
    residual = verify_bellman(r, sol.lam + 0.1, sol.Pstar)
    # shifting the value by 0.1 leaves a defect of 0.1 * goal mass
    assert residual == pytest.approx(0.08160602794142813, abs=1e-13)
    assert residual >= 0.05
