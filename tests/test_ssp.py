"""Stochastic shortest path: Bellman update, gain feasibility, graph frontend."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conebellman import (
    GraphEdge,
    GraphSsp,
    InvalidProblem,
    MaxIterExceeded,
    NegativeLambda,
    ShapeMismatch,
    SolveConfig,
    SspProblem,
    bellman_update,
    closed_loop_successors,
    compile_graph,
    solve_ssp,
    spectral_radius,
    validate_gain,
)
from conebellman.generators import random_chain_graph, random_ssp_graph
from conebellman.oracles import dijkstra, ssp_value_iteration


def single_state_problem():
    """One state, one input: the update has fixed point lam = 3."""
    return SspProblem(
        A=[[1.0]], B=[[-1.0]], s=[1.0], r=[2.0], block_sizes=(1,), E=[[1.0]]
    )


# ---------------------------------------------------------------------------
# problem validation


def test_problem_shape_and_sign_checks():
    with pytest.raises(ShapeMismatch):
        SspProblem(A=[[1.0, 0.0]], B=[[1.0]], s=[1.0], r=[1.0], block_sizes=(1,), E=[[1.0]])
    with pytest.raises(InvalidProblem):
        SspProblem(A=[[1.0]], B=[[1.0]], s=[0.0], r=[1.0], block_sizes=(1,), E=[[1.0]])
    with pytest.raises(InvalidProblem):
        SspProblem(A=[[-0.1]], B=[[1.0]], s=[1.0], r=[1.0], block_sizes=(1,), E=[[1.0]])
    with pytest.raises(InvalidProblem):
        SspProblem(A=[[1.0]], B=[[1.0]], s=[1.0], r=[-1.0], block_sizes=(1,), E=[[1.0]])
    with pytest.raises(InvalidProblem):
        SspProblem(A=[[1.0]], B=[[1.0]], s=[1.0], r=[1.0], block_sizes=(2,), E=[[1.0]])


# ---------------------------------------------------------------------------
# gain feasibility


def test_zero_gain_is_feasible():
    assert validate_gain(single_state_problem(), np.zeros((1, 1)))


def test_budget_boundary_and_violation():
    p = single_state_problem()
    assert validate_gain(p, np.array([[1.0]]))  # boundary of the budget
    assert not validate_gain(p, np.array([[2.0]]))  # budget exceeded
    assert not validate_gain(p, np.array([[-0.5]]))  # negative weight


def test_gain_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        validate_gain(single_state_problem(), np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# Bellman update


def test_update_at_fixed_point():
    lam, K = bellman_update(single_state_problem(), [3.0])
    assert np.array_equal(lam, [3.0])
    assert np.array_equal(K, [[1.0]])


def test_update_at_origin_leaves_gain_off():
    lam, K = bellman_update(single_state_problem(), [0.0])
    assert np.array_equal(lam, [1.0])
    assert np.array_equal(K, [[0.0]])


def test_update_without_control_authority():
    p = SspProblem(
        A=[[0.5]], B=[[0.0]], s=[1.0], r=[2.0], block_sizes=(1,), E=[[1.0]]
    )
    lam, K = bellman_update(p, [4.0])
    assert np.array_equal(lam, [3.0])  # s + A^T lam
    assert np.array_equal(K, [[0.0]])


def test_update_rejects_negative_lambda():
    with pytest.raises(NegativeLambda):
        bellman_update(single_state_problem(), [-1.0])


def test_update_lowest_index_tie_break():
    # two inputs in one block with identical reduced costs: weight goes to
    # the first one
    p = SspProblem(
        A=[[0.0]],
        B=[[-1.0, -1.0]],
        s=[1.0],
        r=[0.5, 0.5],
        block_sizes=(2,),
        E=[[1.0]],
    )
    _, K = bellman_update(p, [2.0])
    assert np.array_equal(K, [[1.0], [0.0]])


def ragged_blocks_problem():
    """Five states with empty blocks first, in the middle and last.

    Block 1 has three inputs (0 and 1 identical, so they tie) and a budget
    row spending half of state 2's mass as well (E is not diagonal); block 3
    has a single input.  Every B column has one nonzero entry, so reduced
    costs are exact and the tie holds bit for bit.  By hand: lam_4 = 2,
    lam_0 = 1 + lam_0/2 + lam_4/4 = 3; lam_3 = 2 + lam_3/2 + (1/2 - lam_3/4)
    = 10/3; lam_1 = 2 + lam_1/2 + (1/4 - lam_1/4) = 3, where input 0 costs
    -1/2 against input 2's -3/8; lam_2 = 1 + lam_1/4 + lam_2/2 - 1/4 = 3.
    """
    return SspProblem(
        A=[
            [0.5, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.25, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.5, 0.0],
            [0.25, 0.0, 0.0, 0.0, 0.5],
        ],
        B=[
            [0.0, 0.0, 0.0, 0.0],
            [-0.25, -0.25, -0.125, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -0.25],
            [0.0, 0.0, 0.0, 0.0],
        ],
        s=[1.0, 2.0, 1.0, 2.0, 1.0],
        r=[0.25, 0.25, 0.0, 0.5],
        block_sizes=(0, 3, 0, 1, 0),
        E=[
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0],
        ],
    )


def test_ragged_blocks_with_coupled_budget():
    p = ragged_blocks_problem()
    sol = solve_ssp(p, SolveConfig(tol=1e-13))
    np.testing.assert_allclose(sol.lam, [3.0, 3.0, 3.0, 10.0 / 3.0, 2.0], atol=1e-12)
    vi = ssp_value_iteration(p, iters=50_000, tol=1e-14)
    np.testing.assert_allclose(sol.lam, vi, atol=1e-12)
    expected_K = np.array(
        [
            [0.0, 1.0, 0.5, 0.0, 0.0],  # input 0: lowest index of the tie
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0],  # the size-1 block
        ]
    )
    assert np.array_equal(sol.K, expected_K)
    assert validate_gain(p, sol.K)
    # block 1 may split its budget row over its three inputs, but not exceed it
    split = np.zeros((4, 5))
    split[[0, 2], 1:3] = [0.5, 0.25]
    assert validate_gain(p, split)
    split[1, 1] = 0.25
    assert not validate_gain(p, split)


def test_bellman_update_is_the_solver_sweep():
    # at the returned value one bellman_update reproduces the certifying
    # sweep bit for bit: its step is the stationarity residual, its gain K
    graph = compile_graph(random_ssp_graph(12, seed=3, stochastic=True)).problem
    for p in (ragged_blocks_problem(), graph):
        sol = solve_ssp(p)
        lam_next, K = bellman_update(p, sol.lam)
        assert float(np.max(np.abs(lam_next - sol.lam))) == sol.stationarity
        assert np.array_equal(K, sol.K)


def test_certificate_closed_loop_skips_zero_gain_rows():
    # the certificate multiplies only the nonzero rows of K; that closed loop
    # must equal the dense A + BK bit for bit, and so must its radius
    graph = compile_graph(random_ssp_graph(40, seed=5, stochastic=True)).problem
    for p in (ragged_blocks_problem(), graph):
        sol = solve_ssp(p)
        rows = np.flatnonzero(sol.K.any(axis=1))
        assert 0 < len(rows) < p.m
        dense = p.A + p.B @ sol.K
        assert np.array_equal(p.A + p.B[:, rows] @ sol.K[rows], dense)
        assert sol.rho_closed_loop == spectral_radius(np.maximum(dense, 0.0))


def test_problem_without_inputs():
    p = SspProblem(A=[[0.5]], B=np.zeros((1, 0)), s=[1.0], r=[], block_sizes=(0,), E=[[1.0]])
    sol = solve_ssp(p)
    assert sol.lam[0] == pytest.approx(2.0, abs=1e-9)
    assert sol.K.shape == (0, 1)
    assert validate_gain(p, sol.K)


@pytest.mark.parametrize("seed", range(8))
def test_update_is_monotone(seed):
    rng = np.random.default_rng(seed)
    g = random_ssp_graph(8, seed=seed, stochastic=True)
    p = compile_graph(g).problem
    lo = rng.uniform(0.0, 2.0, p.n)
    hi = lo + rng.uniform(0.0, 1.0, p.n)
    up_lo, _ = bellman_update(p, lo)
    up_hi, _ = bellman_update(p, hi)
    assert np.all(up_lo <= up_hi + 1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_iterates_from_zero_are_nondecreasing_and_below_solution(seed):
    g = random_ssp_graph(10, seed=seed, stochastic=True)
    p = compile_graph(g).problem
    sol = solve_ssp(p)
    lam = np.zeros(p.n)
    for _ in range(300):
        nxt, _ = bellman_update(p, lam)
        assert np.all(nxt >= lam - 1e-14)
        assert np.all(nxt <= sol.lam + 1e-8)
        if np.array_equal(nxt, lam):
            break
        lam = nxt


# ---------------------------------------------------------------------------
# full solve


def test_single_state_solution_is_exact():
    sol = solve_ssp(single_state_problem())
    assert np.array_equal(sol.lam, [3.0])
    assert np.array_equal(sol.K, [[1.0]])
    assert sol.stationarity == 0.0
    assert sol.rho_closed_loop == 0.0  # closed loop is 1 - 1 = 0


def test_solution_passes_its_own_certificates():
    g = random_ssp_graph(12, seed=3, stochastic=True)
    p = compile_graph(g).problem
    sol = solve_ssp(p)
    assert validate_gain(p, sol.K)
    assert np.all(sol.lam > 0.0)
    assert sol.rho_closed_loop < 1.0
    assert sol.stationarity < 1e-9


def test_policy_beats_random_feasible_gains():
    # achieved cost of any stabilizing feasible gain is bounded below by the
    # optimal value, up to solver tolerance
    g = random_ssp_graph(7, seed=21, stochastic=True)
    comp = compile_graph(g)
    p = comp.problem
    sol = solve_ssp(p, SolveConfig(tol=1e-12))
    rng = np.random.default_rng(0)
    x0 = rng.uniform(0.0, 1.0, p.n)
    base = sol.lam @ x0
    checked = 0
    while checked < 100:
        K = np.zeros((p.m, p.n))
        for i in range(p.n):
            sl = p.block_slice(i)
            w = rng.uniform(0.0, 1.0, sl.stop - sl.start)
            total = w.sum()
            if total > 1.0:
                w /= total
            K[sl, i] = w
        closed = p.A + p.B @ K
        if spectral_radius(closed) >= 1.0 - 1e-9:
            continue
        lam_K = np.linalg.solve(np.eye(p.n) - closed.T, p.s + K.T @ p.r)
        assert lam_K @ x0 >= base - 1e-8
        checked += 1


# ---------------------------------------------------------------------------
# graph frontend


def chain_graph():
    # binary-exact costs so hand-computed distances compare bitwise
    return GraphSsp(
        n_nodes=3,
        goals=(2,),
        edges=(
            GraphEdge(source=0, targets=(1,), cost=1.0, probs=(1.0,)),
            GraphEdge(source=1, targets=(2,), cost=2.0, probs=(1.0,)),
        ),
        s=[0.25, 0.25, 0.0],
    )


def test_graph_validation():
    with pytest.raises(InvalidProblem):
        GraphSsp(n_nodes=2, goals=(), edges=(), s=[0.1, 0.1])
    with pytest.raises(InvalidProblem):
        GraphSsp(
            n_nodes=2,
            goals=(1,),
            edges=(GraphEdge(1, (0,), 1.0, (1.0,)),),  # goal with an edge
            s=[0.1, 0.0],
        )
    with pytest.raises(InvalidProblem):
        GraphSsp(
            n_nodes=2,
            goals=(1,),
            edges=(GraphEdge(0, (0, 1), 1.0, (0.4, 0.4)),),  # probs sum != 1
            s=[0.1, 0.0],
        )
    with pytest.raises(InvalidProblem):
        compile_graph(
            GraphSsp(
                n_nodes=2,
                goals=(1,),
                edges=(GraphEdge(0, (1,), 1.0, (1.0,)),),
                s=[0.0, 0.0],  # non-goal node cost must be positive
            )
        )


def test_chain_graph_matches_hand_distances():
    comp = compile_graph(chain_graph())
    sol = solve_ssp(comp.problem)
    assert comp.node_of_state == (0, 1)
    # cumulative costs including per-node charges, exactly
    assert np.array_equal(sol.lam, [3.5, 2.25])


def test_compiled_solution_matches_dijkstra():
    # shortcut edges mean the optimal route can differ from the per-node
    # cheapest edge, so summation order differs from dijkstra's by a few ulp
    g = random_chain_graph(20, seed=5)
    comp = compile_graph(g)
    sol = solve_ssp(comp.problem)
    d = dijkstra(g)
    np.testing.assert_allclose(sol.lam, d[list(comp.node_of_state)], atol=1e-12)


def test_extracted_policy_selects_shortest_path_edges():
    g = random_ssp_graph(16, seed=9)
    comp = compile_graph(g)
    sol = solve_ssp(comp.problem)
    d = dijkstra(g)
    chosen = closed_loop_successors(g, comp, sol.K)
    for node, edge_idx in chosen.items():
        e = g.edges[edge_idx]
        via = g.s[node] + e.cost + sum(
            pr * d[t] for pr, t in zip(e.probs, e.targets)
        )
        assert via == pytest.approx(d[node], abs=1e-12)


def test_stochastic_graph_matches_value_iteration():
    g = random_ssp_graph(14, seed=13, stochastic=True)
    p = compile_graph(g).problem
    sol = solve_ssp(p)
    vi = ssp_value_iteration(p, iters=50_000, tol=1e-14)
    np.testing.assert_allclose(sol.lam, vi, atol=1e-10)


def test_unreachable_goal_never_converges():
    # node 1 only loops back to node 0, so the goal is unreachable
    g = GraphSsp(
        n_nodes=3,
        goals=(2,),
        edges=(
            GraphEdge(0, (1,), 1.0, (1.0,)),
            GraphEdge(1, (0,), 1.0, (1.0,)),
        ),
        s=[0.5, 0.5, 0.0],
    )
    p = compile_graph(g).problem
    with pytest.raises(MaxIterExceeded):
        solve_ssp(p, SolveConfig(max_iter=2_000))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_random_deterministic_graphs_agree_with_dijkstra(seed):
    g = random_ssp_graph(4 + seed % 12, seed=seed)
    comp = compile_graph(g)
    sol = solve_ssp(comp.problem)
    d = dijkstra(g)
    np.testing.assert_allclose(sol.lam, d[list(comp.node_of_state)], atol=1e-12)
