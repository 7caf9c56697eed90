"""Linearly solvable MDPs: reduction, desirability, KL costs, policies."""

import ast
import json
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conebellman import (
    CertificationError,
    InputError,
    LdpProblem,
    MaxIterExceeded,
    ReducedLdp,
    SolveConfig,
    SolveFailure,
    TraceRecord,
    fixed_point_solve,
    kl_stage_cost,
    optimal_policy,
    reduce,
    solve_desirability,
    solve_ldp,
    verify_bellman,
)
from conebellman import cli, engine, ldp
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
    with pytest.raises(InputError, match="column 0 of Pbar sums to 0.9, not 1"):
        LdpProblem(Pbar=[[0.5, 0.0], [0.4, 1.0]], s=[1.0, 0.0], goals=(1,))
    with pytest.raises(InputError, match="Pbar entries must be nonnegative"):
        LdpProblem(Pbar=[[1.1, 0.0], [-0.1, 1.0]], s=[1.0, 0.0], goals=(1,))
    with pytest.raises(InputError, match=re.escape("goal ids must lie in [0, 2), got (7,)")):
        LdpProblem(Pbar=[[0.5, 0.0], [0.5, 1.0]], s=[1.0, 0.0], goals=(7,))


def test_reduce_single_state():
    r = reduce(single_state_problem())
    assert np.array_equal(r.Pbar_r, [[0.5]])
    assert np.array_equal(r.pbar_g, [0.5])
    assert np.array_equal(r.s_r, [1.0])


def test_reduce_requires_a_goal():
    with pytest.raises(InputError, match="the goal set is empty"):
        reduce(LdpProblem(Pbar=[[1.0]], s=[1.0], goals=()))


def test_reduce_rejects_leaky_or_costly_goal():
    with pytest.raises(InputError, match="goal state 1 leaks probability 0.5 to other states"):
        reduce(LdpProblem(Pbar=[[0.5, 0.5], [0.5, 0.5]], s=[1.0, 0.0], goals=(1,)))
    with pytest.raises(InputError, match="goal state 1 has nonzero cost 0.3"):
        reduce(LdpProblem(Pbar=[[0.5, 0.0], [0.5, 1.0]], s=[1.0, 0.3], goals=(1,)))


def test_reduce_rejects_free_non_goal_state():
    with pytest.raises(InputError, match="non-goal state 0 must have strictly positive cost"):
        reduce(LdpProblem(Pbar=[[0.5, 0.0], [0.5, 1.0]], s=[0.0, 0.0], goals=(1,)))


def test_reduce_detects_stranded_states():
    # state 0 loops onto itself forever
    p = LdpProblem(
        Pbar=[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
        s=[1.0, 1.0, 0.0],
        goals=(2,),
    )
    with pytest.raises(InputError, match=re.escape("states [0] cannot reach any goal")):
        reduce(p)


def test_reduce_names_the_first_leaky_goal():
    # goal 1 is absorbing, goal 2 leaks 1e-11 back to state 0
    leaky = [[0.0, 0.0, 1e-11], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0 - 1e-11]]
    with pytest.raises(InputError, match="goal state 2 leaks"):
        reduce(LdpProblem(Pbar=leaky, s=[1.0, 0.0, 0.0], goals=(1, 2)))
    # a costly goal 1 is the first offender, ahead of the leak at goal 2
    with pytest.raises(InputError, match="goal state 1 has nonzero cost"):
        reduce(LdpProblem(Pbar=leaky, s=[1.0, 0.5, 0.0], goals=(1, 2)))


def test_reduce_lists_stranded_states_in_ascending_order():
    # 0 loops on itself, 3 and 1 swap forever, 2 steps into the goal 4
    P = np.zeros((5, 5))
    P[0, 0] = P[1, 3] = P[3, 1] = P[4, 2] = P[4, 4] = 1.0
    p = LdpProblem(Pbar=P, s=[1.0, 1.0, 1.0, 1.0, 0.0], goals=(4,))
    with pytest.raises(InputError, match=re.escape("states [0, 1, 3] cannot")):
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
        with pytest.raises(InputError, match=re.escape(f"states {stuck} cannot")):
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
    with pytest.raises(SolveFailure, match=re.escape("rho(G Pbar_r^T) = 1: states [0, 1] never")):
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
    with pytest.raises(SolveFailure, match=re.escape("rho(G Pbar_r^T) = 1: states [0, 1] never")):
        solve_desirability(r)


def test_costly_closed_class_without_goal_mass_is_not_certified():
    # rho < 1 here, but z = 0 solves the system: the value is infinite
    r = ReducedLdp(
        Pbar_r=[[0.0, 1.0], [1.0, 0.0]], pbar_g=[0.0, 0.0], s_r=[1.0, 1.0]
    )
    message = "states [0, 1] never reach goal mass: their value is infinite"
    with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
        solve_desirability(r)
    # state 2 has goal mass and feeds the class; only the class is named
    r = ReducedLdp(
        Pbar_r=[[0.0, 1.0, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        pbar_g=[0.0, 0.0, 0.5],
        s_r=[1.0, 1.0, 1.0],
    )
    with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
        solve_desirability(r)


def test_ldp_never_estimates_a_spectral_radius(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("spectral_radius called")

    monkeypatch.setattr(engine, "spectral_radius", boom)
    monkeypatch.setattr(ldp, "spectral_radius", boom, raising=False)
    sol = solve_ldp(random_ldp(40, seed=5))
    assert sol.bellman_residual < 1e-12


def test_block_iteration_agrees_with_direct_solve():
    # the affine desirability map z -> G(P̄_r^T z + p̄_g), iterated from zero
    # by the engine, lands on the z that Newton's method returns
    p = random_ldp(9, seed=31)
    r = reduce(p)
    z_newton, _, _ = solve_desirability(r)
    g = np.exp(-r.s_r)

    def step(z):
        return g * (r.Pbar_r.T @ z + r.pbar_g), None

    res = fixed_point_solve(step, np.zeros(r.n_r), SolveConfig(tol=1e-14))
    np.testing.assert_allclose(res.value, z_newton, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_direct_solve_matches_logsumexp_iteration(seed):
    p = random_ldp(10 + seed, seed=700 + seed)
    r = reduce(p)
    sol = solve_ldp(p)
    vi = ldp_logsumexp_vi(r, iters=200_000, tol=1e-13)
    np.testing.assert_allclose(sol.lam, vi, atol=1e-8)


def costly_ldp(scale):
    p = random_ldp(30, seed=1)
    return LdpProblem(Pbar=p.Pbar, s=p.s * scale, goals=p.goals)


@pytest.mark.parametrize("scale", [1e3, 1e5])
def test_costly_instance_matches_the_oracle(scale):
    # e^{-lam} underflows here (max lam 2308 at x1000), which once ended in
    # "desirability has non-positive entries"; P* then had NaN columns
    p = costly_ldp(scale)
    r = reduce(p)
    sol = solve_ldp(p)
    vi = ldp_logsumexp_vi(r, iters=200_000, tol=1e-12)
    assert float(vi.max()) > 745.0  # exp(-745) is 5e-324: z underflows
    np.testing.assert_allclose(sol.lam, vi, rtol=1e-8, atol=0.0)
    assert sol.bellman_residual < 1e-9
    assert np.all(np.isfinite(sol.Pstar))
    assert np.array_equal(sol.Pstar > 0.0, optimal_policy(r, vi) > 0.0)


def test_long_deterministic_chain_solves():
    # i -> i + 1 up to the goal n, so lam_i = s (n - i).  On a chain no
    # polynomial in P*^T of degree below n solves the Newton system, so one
    # GMRES cycle falls far short and the solve rests on restarts that
    # keep cutting the residual, however slowly
    n, s = 2000, 0.01
    P = np.zeros((n + 1, n + 1))
    P[np.arange(1, n + 1), np.arange(n)] = 1.0
    P[n, n] = 1.0
    sol = solve_ldp(LdpProblem(Pbar=P, s=np.r_[np.full(n, s), 0.0], goals=(n,)))
    np.testing.assert_allclose(sol.lam, s * np.arange(n, 0, -1), rtol=1e-12, atol=0.0)
    assert sol.bellman_residual < 1e-9


@pytest.mark.parametrize("scale", [1e3, 1e5])
def test_costly_instance_solves_and_verifies_from_the_cli(tmp_path, capsys, scale):
    p = costly_ldp(scale)
    path = tmp_path / "costly.json"
    problem = {"type": "ldp", "Pbar": p.Pbar.tolist(), "s": p.s.tolist(), "goals": list(p.goals)}
    path.write_text(json.dumps(problem))
    assert cli.main(["solve", str(path), "--out", str(tmp_path / "out")]) == 0
    assert cli.main(["verify", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_krylov_failure_raises_max_iter_exceeded(tmp_path):
    # finite costs near the float maximum: the Krylov residual norm
    # overflows, so no restart cycle can cut it, and the solve says so
    # instead of returning a value
    p = LdpProblem(Pbar=[[0.5, 0.0], [0.5, 1.0]], s=[1e308, 0.0], goals=(1,))
    message = "Krylov solve stalled at residual inf (target 1.000e-01) after 0 steps"
    with np.errstate(over="ignore"):
        with pytest.raises(MaxIterExceeded, match=f"^{re.escape(message)}$"):
            solve_ldp(p)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"type": "ldp", "Pbar": p.Pbar.tolist(), "s": [1e308, 0.0], "goals": [1]}))
        assert cli.main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out" / "solution.json").exists()


def test_ldp_module_makes_no_blas_call():
    # OpenBLAS splits products and factorizations by thread count, so one
    # such call makes solution bytes depend on it
    tree = ast.parse(Path(ldp.__file__).read_text())
    matmuls = [n for n in ast.walk(tree) if isinstance(n, (ast.BinOp, ast.AugAssign))
               and isinstance(n.op, ast.MatMult)]
    names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not matmuls
    assert not names & {"linalg", "dot", "vdot", "inner", "matmul", "einsum", "tensordot"}


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
    with pytest.raises(InputError, match="lam must be finite"):
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
    with pytest.raises(InputError, match="P places mass where Pbar_r has none"):
        kl_stage_cost(r2, np.array([[0.1]]))


def test_stage_cost_rejects_goal_mass_without_goal_edge():
    r = ReducedLdp(
        Pbar_r=[[0.0, 1.0], [1.0, 0.0]], pbar_g=[0.0, 0.0], s_r=[1.0, 1.0]
    )
    # column sums below one imply goal mass, but pbar_g is zero; the mass
    # prints as a plain float, not as a numpy scalar repr
    message = (
        "column 0 sends mass 0.09999999999999998 to the goal but "
        "Pbar_r gives that state no goal transition"
    )
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_stage_cost_rejects_non_finite_policy_entries(bad):
    # one non-finite entry of P* made the Bellman defect NaN
    r = reduce(random_ldp(10, seed=3))
    P = optimal_policy(r, solve_ldp(random_ldp(10, seed=3)).lam)
    P[tuple(np.argwhere(P > 0.0)[0])] = bad
    with pytest.raises(InputError, match="P entries must be finite"):
        kl_stage_cost(r, P)
    with pytest.raises(InputError, match="P entries must be finite"):
        verify_bellman(r, np.zeros(r.n_r), P)


def test_nan_bellman_residual_fails_certification(monkeypatch):
    monkeypatch.setattr(ldp, "verify_bellman", lambda r, lam, Pstar: float("nan"))
    with pytest.raises(CertificationError, match="Bellman residual nan"):
        solve_ldp(single_state_problem())


def test_bellman_residual_large_off_solution():
    r = reduce(single_state_problem())
    sol = solve_ldp(single_state_problem())
    residual = verify_bellman(r, sol.lam + 0.1, sol.Pstar)
    # shifting the value by 0.1 leaves a defect of 0.1 * goal mass
    assert residual == pytest.approx(0.08160602794142813, abs=1e-13)
    assert residual >= 0.05


# ---------------------------------------------------------------------------
# input checks on non-finite data


@pytest.mark.parametrize(
    "Pbar, s, match",
    [
        ([[np.nan, 0.0], [1.0, 1.0]], [1.0, 0.0], "Pbar entries must be finite"),
        ([[np.inf, 0.0], [0.5, 1.0]], [1.0, 0.0], "Pbar entries must be finite"),
        ([[0.5, 0.0], [0.5, 1.0]], [np.nan, 0.0], "stage cost s must be finite"),
        ([[0.5, 0.0], [0.5, 1.0]], [np.inf, 0.0], "stage cost s must be finite"),
    ],
)
def test_problem_rejects_non_finite_data(Pbar, s, match):
    with pytest.raises(InputError, match=match):
        LdpProblem(Pbar=Pbar, s=s, goals=(1,))


@pytest.mark.parametrize(
    "Pbar_r, pbar_g, s_r, match",
    [
        ([[np.nan]], [0.5], [1.0], "reduced transitions must be finite"),
        ([[0.5]], [np.nan], [1.0], "reduced transitions must be finite"),
        ([[0.5]], [0.5], [np.nan], "reduced stage cost must be finite"),
        ([[0.5]], [0.5], [np.inf], "reduced stage cost must be finite"),
    ],
)
def test_reduced_type_rejects_non_finite_data(Pbar_r, pbar_g, s_r, match):
    with pytest.raises(InputError, match=match):
        ReducedLdp(Pbar_r=Pbar_r, pbar_g=pbar_g, s_r=s_r)


# ---------------------------------------------------------------------------
# the support-based stages against the dense code they replaced
#
# The _dense_* functions are the all-pairs implementation, kept verbatim as
# the reference.  Intake and reduction must match it bit for bit, and every
# rejection there must carry the same class and message.  The solve stages
# are compared at stated tolerances: the reference solves the desirability
# system with one dense LU, the package by Newton's method in lam.

_TOL = 1e-12


def _dense_problem(Pbar, s, goals):
    P = np.asarray(Pbar, dtype=float)
    s = np.asarray(s, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise InputError(f"Pbar must be square, got {P.shape}")
    n = P.shape[0]
    if s.shape != (n,):
        raise InputError(f"s must have length {n}, got {s.shape}")
    if P.size and float(P.min()) < -_TOL:
        raise InputError("Pbar entries must be nonnegative")
    P = np.maximum(P, 0.0)
    colsums = P.sum(axis=0)
    if np.any(np.abs(colsums - 1.0) > _TOL):
        worst = int(np.argmax(np.abs(colsums - 1.0)))
        raise InputError(
            f"column {worst} of Pbar sums to {float(colsums[worst])!r}, not 1"
        )
    if np.any(s < 0):
        raise InputError("stage cost s must be nonnegative")
    goals = tuple(sorted(set(int(g) for g in goals)))
    if goals and (goals[0] < 0 or goals[-1] >= n):
        raise InputError(f"goal ids must lie in [0, {n}), got {goals}")
    return np.array(P), np.array(s), goals


def _dense_reduced(Pbar_r, pbar_g, s_r):
    P = np.asarray(Pbar_r, dtype=float)
    g = np.asarray(pbar_g, dtype=float)
    s = np.asarray(s_r, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise InputError(f"Pbar_r must be square, got {P.shape}")
    n = P.shape[0]
    if g.shape != (n,) or s.shape != (n,):
        raise InputError(
            f"pbar_g and s_r must have length {n}, got {g.shape} and {s.shape}"
        )
    if (P.size and float(P.min()) < 0.0) or np.any(g < 0):
        raise InputError("reduced transitions must be nonnegative")
    if np.any(np.abs(P.sum(axis=0) + g - 1.0) > _TOL):
        raise InputError("each column of Pbar_r plus its goal mass must sum to 1")
    if np.any(s < 0):
        raise InputError("reduced stage cost must be nonnegative")
    return np.array(P), np.array(g), np.array(s)


def _dense_reaches(support, sources):
    reached = sources.copy()
    frontier = np.flatnonzero(reached)
    while frontier.size:
        hit = support[frontier].any(axis=0) & ~reached
        reached |= hit
        frontier = np.flatnonzero(hit)
    return reached


def _dense_reduce(P, s, goal_ids):
    if not goal_ids:
        raise InputError("the goal set is empty")
    n = P.shape[0]
    goals = np.array(goal_ids)
    cols = P[:, goals]
    cols[goals, np.arange(goals.size)] = 0.0
    leak = cols.sum(axis=0)
    costly = s[goals] != 0.0
    bad = np.flatnonzero(costly | (leak > _TOL))
    if bad.size:
        k, g = bad[0], goals[bad[0]]
        if costly[k]:
            raise InputError(f"goal state {g} has nonzero cost {float(s[g])!r}")
        raise InputError(
            f"goal state {g} leaks probability {float(leak[k])!r} to other states"
        )
    nongoal = ~np.isin(np.arange(n), goals)
    free = np.flatnonzero(nongoal & (s <= 0.0))
    if free.size:
        raise InputError(f"non-goal state {free[0]} must have strictly positive cost")
    stuck = np.flatnonzero(~_dense_reaches(P > 0.0, ~nongoal))
    if stuck.size:
        raise InputError(f"states {stuck.tolist()} cannot reach any goal under Pbar")
    idx = np.flatnonzero(nongoal)
    pbar_g = P[np.ix_(goals, idx)].sum(axis=0)
    return _dense_reduced(P[np.ix_(idx, idx)], pbar_g, s[idx])


def _dense_solve_desirability(Pr, pg, sr, cfg):
    t0 = time.perf_counter_ns()
    n = Pr.shape[0]
    deficient = (sr > 0.0) | (pg > 0.0)
    if not deficient.all():
        closed = np.flatnonzero(~_dense_reaches(Pr > 0.0, deficient))
        if closed.size:
            raise SolveFailure(
                f"rho(G Pbar_r^T) = 1: states {closed.tolist()} never reach the goal"
            )
    g = np.exp(-sr)
    GP = g[:, None] * Pr.T

    def affine_residual(z):
        return float(np.abs(z - (GP @ z + g * pg)).max(initial=0.0))

    z = None
    try:
        cand = np.linalg.solve(np.eye(n) - GP, g * pg)
        residual = affine_residual(cand)
        if residual < cfg.tol:
            z = cand
            trace = [TraceRecord(0, residual, time.perf_counter_ns() - t0)]
    except np.linalg.LinAlgError:
        z = None
    if z is None:
        Pt = Pr.T
        result = fixed_point_solve(
            lambda v: (g * (Pt @ v + pg), None), np.zeros(n), replace(cfg, tol=cfg.tol / 10.0)
        )
        z = result.value
        trace = result.trace
        residual = affine_residual(z)
    if residual >= cfg.tol:
        raise CertificationError(f"desirability residual {residual:.3e} >= tol {cfg.tol:.3e}")
    if z.size and float(z.min()) <= 0.0:
        raise CertificationError("desirability has non-positive entries")
    if z.size and float(z.max()) > 1.0 + 1e-12:
        raise CertificationError(
            f"desirability exceeds 1 (max {float(z.max())!r}); costs must be >= 0"
        )
    z = np.minimum(z, 1.0)
    return z, -np.log(z), trace


def _dense_optimal_policy(Pr, pg, lam):
    W = Pr * np.exp(-lam)[:, None]
    denom = W.sum(axis=0) + pg
    return W / denom[None, :] if Pr.shape[0] else W


def _dense_kl_stage_cost(Pr, pg, sr, P):
    P = np.asarray(P, dtype=float)
    n = Pr.shape[0]
    if P.shape != (n, n):
        raise InputError(f"P must be {n} x {n}, got {P.shape}")
    if P.size and float(P.min()) < -_TOL:
        raise InputError("P entries must be nonnegative")
    P = np.maximum(P, 0.0)
    rows, cols = np.nonzero(P)
    vals = P[rows, cols]
    pbar = Pr[rows, cols]
    if np.any(pbar == 0.0):
        raise InputError("P places mass where Pbar_r has none (infinite divergence)")
    goal_mass = 1.0 - P.sum(axis=0)
    if np.any(goal_mass < -_TOL):
        raise InputError("columns of P must be substochastic")
    off_support_goal = (pg == 0.0) & (np.abs(goal_mass) > _TOL)
    if np.any(off_support_goal):
        bad = int(np.argmax(off_support_goal))
        raise InputError(
            f"column {bad} sends mass {float(goal_mass[bad])!r} to the goal but "
            "Pbar_r gives that state no goal transition"
        )
    kl = np.bincount(cols, weights=vals * np.log(vals / pbar), minlength=n)
    gm = np.maximum(goal_mass, 0.0)
    safe_goal = np.where(pg > 0.0, pg, 1.0)
    pi = np.where(gm > 0.0, gm * np.log(np.where(gm > 0.0, gm, 1.0) / safe_goal), 0.0)
    return sr + kl + pi


def _dense_solve_reduced(Pr, pg, sr, cfg):
    z, lam, trace = _dense_solve_desirability(Pr, pg, sr, cfg)
    Pstar = _dense_optimal_policy(Pr, pg, lam)
    h = _dense_kl_stage_cost(Pr, pg, sr, Pstar)
    residual = float(np.abs(lam - (h + Pstar.T @ lam)).max(initial=0.0))
    if residual >= 10.0 * cfg.tol:
        raise CertificationError(f"Bellman residual {residual:.3e} >= {10.0 * cfg.tol:.3e}")
    return z, lam, Pstar, residual, len(trace)


def _solve_reduced(r, cfg):
    z, lam, trace = solve_desirability(r, cfg)
    Pstar = optimal_policy(r, lam)
    residual = verify_bellman(r, lam, Pstar)
    if residual >= 10.0 * cfg.tol:
        raise CertificationError(f"Bellman residual {residual:.3e} >= {10.0 * cfg.tol:.3e}")
    return z, lam, Pstar, residual, len(trace)


def _solution_tuple(p, cfg):
    sol = solve_ldp(p, cfg)
    return sol.z, sol.lam, sol.Pstar, sol.bellman_residual, len(sol.trace)


_LAM_RTOL = 1e-9  # |lam - lam_ref| <= 1e-9 max(1, |lam_ref|)
_ENTRY_ATOL = 1e-9  # z and P* entries lie in [0, 1]


def _assert_same_solve(got, want, Pr, pg, sr, cfg):
    """The solve stages agree with the dense LU reference at stated tolerances.

    The reference's rho(G Pbar_r^T) = 1 rejection is kept word for word.
    States that never reach goal mass have infinite value, which the solver
    certifies by name.  Where the reference fails otherwise (its z
    underflows), the solver must solve and match the log-space oracle.
    """
    if _is_error(want) and want[0] is SolveFailure:
        assert got == want
        return
    stuck = np.flatnonzero(~_dense_reaches(Pr > 0.0, pg > 0.0))
    if stuck.size:
        message = f"states {stuck.tolist()} never reach goal mass: their value is infinite"
        assert got == (CertificationError, message)
        return
    assert not _is_error(got), got
    z, lam, Pstar, residual, _ = got
    assert residual < 10.0 * cfg.tol
    if _is_error(want):
        vi = ldp_logsumexp_vi(ReducedLdp(Pr, pg, sr), iters=200_000, tol=1e-13)
        np.testing.assert_allclose(lam, vi, rtol=1e-8, atol=0.0)
        return
    wz, wlam, wPstar, wresidual, _ = want
    assert wresidual < 10.0 * cfg.tol
    assert np.all(np.abs(lam - wlam) <= _LAM_RTOL * np.maximum(1.0, np.abs(wlam)))
    np.testing.assert_allclose(z, wz, rtol=0.0, atol=_ENTRY_ATOL)
    np.testing.assert_allclose(Pstar, wPstar, rtol=0.0, atol=_ENTRY_ATOL)
    # zeros of Pbar_r stay exact zeros in both
    assert np.all(Pstar[Pr == 0.0] == 0.0) and np.all(wPstar[Pr == 0.0] == 0.0)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the class and message are what is compared
        return (type(exc), str(exc))


def _is_error(out):
    return isinstance(out, tuple) and len(out) == 2 and isinstance(out[0], type)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_outcome(got, want):
    """Same error, or the same bits."""
    if _is_error(want):
        assert got == want
        return
    assert not _is_error(got), got
    for g, w in zip(got, want):
        assert _same_bits(g, w)


_DEFECTS = [None] * 10 + [
    "leak", "leak_below_tol", "costly_goal", "free", "clamped", "negative_zero",
    "negative", "sum_off", "negative_cost", "goal_range", "no_goal", "underflow", "stranded",
]


@st.composite
def sparse_ldps(draw):
    """Sparse column-stochastic instances, each with at most one defect.

    Columns spread over up to three states in any direction (self-loops and
    backward edges included), so some draws leave states stranded.
    """
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    goals = sorted(rng.choice(n, size=draw(st.integers(1, min(3, n))), replace=False).tolist())
    nongoal = [i for i in range(n) if i not in goals]
    P = np.zeros((n, n))
    for i in range(n):
        if i in goals:
            P[i, i] = 1.0
            continue
        k = int(rng.integers(1, min(3, n) + 1))
        w = rng.uniform(0.05, 1.0, k)
        P[rng.choice(n, size=k, replace=False), i] = w / w.sum()
    s = np.where(np.isin(np.arange(n), goals), 0.0, rng.uniform(0.1, 2.0, n))
    defect = draw(st.sampled_from(_DEFECTS))
    i = nongoal[0] if nongoal else 0
    empty = np.flatnonzero(P[:, i] == 0.0)
    if defect in ("leak", "leak_below_tol") and goals and n > 1:
        g = goals[-1]
        eps = 1e-9 if defect == "leak" else 1e-13
        P[g, g] -= eps
        P[(g + 1) % n, g] += eps
    elif defect == "costly_goal" and goals:
        s[goals[0]] = 0.5
    elif defect == "free" and nongoal:
        s[nongoal[-1]] = 0.0
    elif defect in ("clamped", "negative_zero", "negative") and empty.size:
        P[empty[0], i] = {"clamped": -1e-13, "negative_zero": -0.0, "negative": -1e-3}[defect]
    elif defect == "sum_off":
        P[:, i] *= 1.0 + 1e-9
    elif defect == "negative_cost":
        s[0] = -0.1
    elif defect == "goal_range":
        goals = goals + [n]
    elif defect == "no_goal":
        goals = []
    elif defect == "underflow" and len(nongoal) > 1:
        # z at the costly state is about e^-650, so its 1e-100 share of
        # column i underflows to an exact zero in P*; column i's own goal
        # mass keeps the denominator positive
        j = nongoal[1]
        s[j] = 650.0
        P[:, i] = 0.0
        P[j, i] = 1e-100
        P[goals[0], i] = 1.0
    elif defect == "stranded" and nongoal:
        P[:, i] = 0.0
        P[i, i] = 1.0
    return P, s, goals


@settings(max_examples=300, deadline=None)
@given(sparse_ldps())
def test_support_stages_match_the_dense_reference(inst):
    P, s, goals = inst
    cfg = SolveConfig()
    want_problem = _outcome(_dense_problem, P, s, goals)
    got_problem = _outcome(LdpProblem, P, s, tuple(goals))
    if _is_error(want_problem):
        assert got_problem == want_problem
        return
    Pc, sc, goal_ids = want_problem
    assert _same_bits(got_problem.Pbar, Pc) and _same_bits(got_problem.s, sc)
    assert got_problem.goals == goal_ids

    want_reduced = _outcome(_dense_reduce, Pc, sc, goal_ids)
    got_reduced = _outcome(reduce, got_problem)
    if _is_error(want_reduced):
        assert got_reduced == want_reduced
        return
    fields = (got_reduced.Pbar_r, got_reduced.pbar_g, got_reduced.s_r)
    for g, w in zip(fields, want_reduced):
        assert _same_bits(g, w)

    want = _outcome(_dense_solve_reduced, *want_reduced, cfg)
    got = _outcome(_solve_reduced, got_reduced, cfg)
    _assert_same_solve(got, want, *want_reduced, cfg)
    _assert_same_outcome(_outcome(_solution_tuple, got_problem, cfg), got)
    # a ReducedLdp built directly from the same arrays takes the same path
    direct = ReducedLdp(*want_reduced)
    _assert_same_outcome(_outcome(_solve_reduced, direct, cfg), got)


@st.composite
def reduced_systems(draw):
    """Directly built reduced systems: -0.0 entries, zero costs, closed classes."""
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.uniform(0.05, 1.0, (n, n)) * (rng.random((n, n)) < 0.4)
    goal = np.where(rng.random(n) < 0.4, rng.uniform(0.05, 1.0, n), 0.0)
    scale = P.sum(axis=0) + goal
    scale[scale == 0.0] = 1.0
    P, goal = P / scale, goal / scale
    lonely = P.sum(axis=0) + goal == 0.0
    P[:, lonely] = np.eye(n)[:, lonely]
    s = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.1, 2.0, n))
    defect = draw(st.sampled_from([None] * 6 + ["negative_zero", "negative", "sum_off"]))
    if defect == "negative_zero":
        P[P == 0.0] = -0.0
    elif defect == "negative":
        P[0, 0] -= 1e-3
    elif defect == "sum_off":
        goal[0] += 1e-9
    return P, goal, s


@settings(max_examples=200, deadline=None)
@given(reduced_systems())
def test_directly_built_reduced_systems_match_the_dense_reference(inst):
    cfg = SolveConfig()
    want_reduced = _outcome(_dense_reduced, *inst)
    got_reduced = _outcome(ReducedLdp, *inst)
    if _is_error(want_reduced):
        assert got_reduced == want_reduced
        return
    for g, w in zip((got_reduced.Pbar_r, got_reduced.pbar_g, got_reduced.s_r), want_reduced):
        assert _same_bits(g, w)
    want = _outcome(_dense_solve_reduced, *want_reduced, cfg)
    _assert_same_solve(_outcome(_solve_reduced, got_reduced, cfg), want, *want_reduced, cfg)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([None, "clamped", "negative", "off_support",
                                                  "over_one", "goal_without_edge"]))
def test_stage_cost_matches_the_dense_reference_on_any_policy(seed, defect):
    rng = np.random.default_rng(seed)
    r = reduce(random_ldp(int(rng.integers(2, 12)), seed=int(rng.integers(1000))))
    n = r.n_r
    W = np.where(r.Pbar_r > 0.0, rng.uniform(0.0, 1.0, (n, n)), 0.0)
    W *= rng.random((n, n)) < 0.8  # some allowed transitions are dropped
    gw = np.where(r.pbar_g > 0.0, rng.uniform(0.05, 1.0, n), 0.0)
    scale = W.sum(axis=0) + gw
    scale[scale == 0.0] = 1.0
    P = W / scale
    off = np.argwhere(r.Pbar_r == 0.0)
    if defect == "clamped":
        P[P == 0.0] = -1e-13
    elif defect == "negative":
        P[0, 0] = -1e-3
    elif defect == "off_support" and off.size:
        P[tuple(off[0])] = 0.1
    elif defect == "over_one":
        P[:, 0] *= 2.0
    elif defect == "goal_without_edge":
        P *= 0.5
    want = _outcome(_dense_kl_stage_cost, r.Pbar_r, r.pbar_g, r.s_r, P)
    got = _outcome(kl_stage_cost, r, P)
    if _is_error(want):
        assert got == want
    else:
        assert _same_bits(got, want)


@pytest.mark.parametrize("n", [30, 300, 700])
@pytest.mark.parametrize("seed", [1, 7, 64, 128])
def test_generated_instances_match_the_dense_reference(n, seed):
    p = random_ldp(n, seed=seed)
    reduced = _dense_reduce(np.array(p.Pbar), np.array(p.s), p.goals)
    want = _dense_solve_reduced(*reduced, SolveConfig())
    _assert_same_solve(_solution_tuple(p, SolveConfig()), want, *reduced, SolveConfig())
