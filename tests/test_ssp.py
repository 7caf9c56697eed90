"""Stochastic shortest path: Bellman update, gain feasibility, graph frontend."""

import collections
import functools
import json
import math
import operator
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conebellman import (
    CertificationError,
    GraphEdge,
    GraphSsp,
    InputError,
    SolveConfig,
    SolveFailure,
    SspProblem,
    bellman_update,
    closed_loop_successors,
    compile_graph,
    fixed_point_solve,
    solve_ssp,
    spectral_radius,
    validate_gain,
)
from conebellman import cli, engine, ssp
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
    with pytest.raises(InputError, match=re.escape("A must be square, got (1, 2)")):
        SspProblem(A=[[1.0, 0.0]], B=[[1.0]], s=[1.0], r=[1.0], block_sizes=(1,), E=[[1.0]])
    with pytest.raises(InputError, match="state cost s must be strictly positive"):
        SspProblem(A=[[1.0]], B=[[1.0]], s=[0.0], r=[1.0], block_sizes=(1,), E=[[1.0]])
    with pytest.raises(InputError, match="A must be elementwise nonnegative"):
        SspProblem(A=[[-0.1]], B=[[1.0]], s=[1.0], r=[1.0], block_sizes=(1,), E=[[1.0]])
    with pytest.raises(InputError, match="input cost r must be nonnegative"):
        SspProblem(A=[[1.0]], B=[[1.0]], s=[1.0], r=[-1.0], block_sizes=(1,), E=[[1.0]])
    with pytest.raises(InputError, match="block_sizes must be nonnegative and sum to m=1"):
        SspProblem(A=[[1.0]], B=[[1.0]], s=[1.0], r=[1.0], block_sizes=(2,), E=[[1.0]])
    with pytest.raises(InputError, match="A must have at least one state"):
        empty = np.zeros((0, 0))
        solve_ssp(SspProblem(A=empty, B=empty, s=[], r=[], block_sizes=(), E=empty))


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
    with pytest.raises(InputError, match=re.escape("gain must be 1 x 1, got (2, 1)")):
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
    with pytest.raises(InputError, match="^value iterate has negative entries$"):
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
    # must equal the dense A + BK bit for bit, and its bound must equal the
    # Collatz-Wielandt ratio of the dense |A + BK| (up to summation order)
    graph = compile_graph(random_ssp_graph(40, seed=5, stochastic=True)).problem
    for p in (ragged_blocks_problem(), graph):
        sol = solve_ssp(p)
        rows = np.flatnonzero(sol.K.any(axis=1))
        assert 0 < len(rows) < p.m
        dense = p.A + p.B @ sol.K
        assert np.array_equal(p.A + p.B[:, rows] @ sol.K[rows], dense)
        bound = float(np.max((np.abs(dense).T @ sol.lam) / sol.lam))
        assert sol.rho_closed_loop == pytest.approx(bound, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", range(6))
def test_certified_bound_dominates_the_spectral_radius(seed):
    problems = [ragged_blocks_problem()] if seed == 0 else []
    problems += [
        compile_graph(random_ssp_graph(12 + 7 * seed, seed=seed, stochastic=True)).problem,
        compile_graph(random_chain_graph(10 + 5 * seed, seed=seed)).problem,
    ]
    for p in problems:
        sol = solve_ssp(p)
        rho = float(np.max(np.abs(np.linalg.eigvals(p.A + p.B @ sol.K))))
        assert rho - 1e-12 <= sol.rho_closed_loop < 1.0
        # at the fixed point the bound is 1 - min_i w_i / lam_i, w = s + K^T r
        w = p.s + sol.K.T @ p.r
        assert sol.rho_closed_loop == pytest.approx(1.0 - np.min(w / sol.lam), abs=1e-9)


def test_near_unit_self_loop_certifies_its_radius():
    # one state that keeps 0.999 of its mass: lam = 1000 after ~23.7k sweeps
    p = SspProblem(
        A=[[0.999]], B=np.zeros((1, 0)), s=[1.0], r=[], block_sizes=(0,), E=[[1.0]]
    )
    sol = solve_ssp(p)
    assert sol.lam[0] == pytest.approx(1000.0, rel=1e-6)
    assert sol.rho_closed_loop == pytest.approx(0.999, abs=1e-12)
    assert len(sol.trace) > 20_000


def test_certificate_rejects_a_bound_of_one():
    # lam = 1 is no Lyapunov function for x(t+1) = x(t): the bound reads 1
    p = SspProblem(
        A=[[1.0]], B=np.zeros((1, 0)), s=[1.0], r=[], block_sizes=(0,), E=[[1.0]]
    )
    with pytest.raises(CertificationError, match="bound 1.000000 >= 1"):
        ssp._certify(p, np.array([1.0]), np.zeros(0, dtype=int), np.zeros(0, dtype=int))


def test_ssp_never_estimates_a_spectral_radius(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("spectral_radius called")

    monkeypatch.setattr(engine, "spectral_radius", boom)
    monkeypatch.setattr(ssp, "spectral_radius", boom, raising=False)
    g = random_ssp_graph(60, seed=2, stochastic=True)
    sol = solve_ssp(compile_graph(g).problem)
    assert 0.0 < sol.rho_closed_loop < 1.0


def orthant_leaving_problem():
    """Valid at intake, but E moves mass negatively: sweep 2 gives [1, -49]."""
    return SspProblem(
        A=np.zeros((2, 2)),
        B=[[-10.0], [0.0]],
        s=[1.0, 1.0],
        r=[0.0],
        block_sizes=(1, 0),
        E=[[0.0, 5.0], [0.0, 0.0]],
    )


def test_negative_iterate_inside_solve_is_a_certification_failure():
    p = orthant_leaving_problem()
    lam, _ = bellman_update(p, bellman_update(p, [0.0, 0.0])[0])
    assert np.array_equal(lam, [1.0, -49.0])
    # a caller's negative lam: input error
    with pytest.raises(InputError, match="^value iterate has negative entries$"):
        bellman_update(p, lam)
    with pytest.raises(CertificationError, match="does not preserve the orthant"):
        solve_ssp(p)


def test_cli_exits_2_when_an_iterate_leaves_the_orthant(tmp_path, capsys):
    p = orthant_leaving_problem()
    path = tmp_path / "leaves.json"
    path.write_text(
        json.dumps(
            {
                "type": "ssp",
                "A": p.A.tolist(),
                "B": p.B.tolist(),
                "s": p.s.tolist(),
                "r": p.r.tolist(),
                "blocks": list(p.block_sizes),
                "E": p.E.tolist(),
            }
        )
    )
    assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 2
    assert "does not preserve the orthant" in capsys.readouterr().err


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
    with pytest.raises(InputError, match="graph needs a non-empty goal set"):
        GraphSsp(n_nodes=2, goals=(), edges=(), s=[0.1, 0.1])
    with pytest.raises(InputError, match="goal node 1 must have no outgoing edges"):
        GraphSsp(
            n_nodes=2,
            goals=(1,),
            edges=(GraphEdge(1, (0,), 1.0, (1.0,)),),  # goal with an edge
            s=[0.1, 0.0],
        )
    with pytest.raises(InputError, match="edge probabilities must sum to 1, got 0.8"):
        GraphSsp(
            n_nodes=2,
            goals=(1,),
            edges=(GraphEdge(0, (0, 1), 1.0, (0.4, 0.4)),),  # probs sum != 1
            s=[0.1, 0.0],
        )
    with pytest.raises(InputError, match="node cost s must be > 0 on non-goal nodes"):
        compile_graph(
            GraphSsp(
                n_nodes=2,
                goals=(1,),
                edges=(GraphEdge(0, (1,), 1.0, (1.0,)),),
                s=[0.0, 0.0],  # non-goal node cost must be positive
            )
        )


@pytest.mark.parametrize(
    "edge, message",
    [
        (GraphEdge(0, (1,), float("nan"), (1.0,)), "edge cost must be finite, got nan"),
        (GraphEdge(0, (1,), float("inf"), (1.0,)), "edge cost must be finite, got inf"),
        (GraphEdge(0, (1,), -float("inf"), (1.0,)), "edge cost must be >= 0, got -inf"),
        (GraphEdge(0, (1,), 1.0, (float("nan"),)), "edge probabilities must be positive"),
        (GraphEdge(0, (0, 1), 1.0, (float("nan"), 1.0)), "edge probabilities must be positive"),
        (GraphEdge(0, (0, 1), 1.0, (float("inf"), 0.5)), "edge probabilities must sum to 1, got inf"),
    ],
)
def test_graph_intake_rejects_non_finite_edges(edge, message):
    # the second, valid edge makes the array masks and the re-check agree on
    # which edge is first
    good = GraphEdge(0, (1,), 1.0, (1.0,))
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        GraphSsp(n_nodes=2, goals=(1,), edges=(good, edge), s=[0.1, 0.0])


def test_graph_intake_message_uses_the_rule_s_own_sum(monkeypatch):
    # these probabilities add left to right to 1 + 1.00009e-12, which the
    # rule rejects; a compensated sum (Python's sum from 3.12) gives
    # 1 + 9.9987e-13, within tolerance, so a message that summed them again
    # found nothing wrong and intake raised InputError(None)
    probs = (0.10977239832091629, 0.5695241963841889, 0.3207034052958947)
    assert probs[0] + probs[1] + probs[2] - 1.0 > 1e-12 > math.fsum(probs) - 1.0
    # math.fsum stands in for the compensated sum on older interpreters
    monkeypatch.setattr(ssp, "sum", math.fsum, raising=False)
    edge = GraphEdge(0, (1, 2, 3), 1.0, probs)
    message = "edge probabilities must sum to 1, got 1.000000000001"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        GraphSsp(n_nodes=4, goals=(3,), edges=(edge,), s=[0.1, 0.1, 0.1, 0.0])


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


def _bfs_stranded(g):
    """Nodes with no path to a goal, by breadth-first search back from the goals."""
    into = {x: [] for x in range(g.n_nodes)}
    for e in g.edges:
        for t in e.targets:
            into[t].append(e.source)
    seen = set(g.goals)
    queue = collections.deque(g.goals)
    while queue:
        for x in into[queue.popleft()]:
            if x not in seen:
                seen.add(x)
                queue.append(x)
    return [x for x in range(g.n_nodes) if x not in seen]


def _stranded_graph(kind):
    edge = GraphEdge
    if kind == "no-edges":  # node 1 has no action
        return 3, (2,), (edge(0, (2,), 1.0, (1.0,)),)
    if kind == "two-cycle":  # criterion 7's graph: 0 and 1 only visit each other
        return 3, (2,), (edge(0, (1,), 1.0, (1.0,)), edge(1, (0,), 1.0, (1.0,)))
    if kind == "through-stranded":  # node 0's only path runs through node 1
        return 4, (3,), (edge(0, (1,), 1.0, (1.0,)), edge(2, (3,), 1.0, (1.0,)))
    # two goals: node 0 reaches goal 4 half the time, nodes 1 and 2 neither
    return 5, (3, 4), (
        edge(0, (1, 4), 1.0, (0.5, 0.5)),
        edge(1, (2,), 1.0, (1.0,)),
        edge(2, (1,), 0.5, (1.0,)),
        edge(2, (2, 1), 0.5, (0.5, 0.5)),
    )


@pytest.mark.parametrize("kind", ["no-edges", "two-cycle", "through-stranded", "two-goals"])
def test_stranded_nodes_fail_compile_by_proof(kind):
    n, goals, edges = _stranded_graph(kind)
    g = GraphSsp(
        n_nodes=n, goals=goals, edges=edges, s=[0.0 if x in goals else 0.5 for x in range(n)]
    )
    stranded = _bfs_stranded(g)
    assert stranded
    with pytest.raises(SolveFailure) as info:
        compile_graph(g)
    assert type(info.value) is SolveFailure
    assert str(info.value) == f"nodes {stranded} cannot reach any goal"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_random_deterministic_graphs_agree_with_dijkstra(seed):
    g = random_ssp_graph(4 + seed % 12, seed=seed)
    comp = compile_graph(g)
    sol = solve_ssp(comp.problem)
    d = dijkstra(g)
    np.testing.assert_allclose(sol.lam, d[list(comp.node_of_state)], atol=1e-12)


# ---------------------------------------------------------------------------
# array intake and compile against the edge-by-edge reference


def _reference_intake(n_nodes, goals, edges, s):
    """The edge-by-edge GraphSsp validator: normalized (goals, edges, s)."""
    if n_nodes < 1:
        raise InputError("graph needs at least one node")
    goals = tuple(sorted(set(int(g) for g in goals)))
    if not goals:
        raise InputError("graph needs a non-empty goal set")
    if goals[0] < 0 or goals[-1] >= n_nodes:
        raise InputError(f"goal ids must lie in [0, {n_nodes}), got {goals}")
    out = []
    for e in edges:
        tgts = tuple(int(t) for t in e.targets)
        probs = tuple(float(q) for q in e.probs)
        if not (0 <= e.source < n_nodes):
            raise InputError(f"edge source {e.source} out of range")
        if e.source in goals:
            raise InputError(f"goal node {e.source} must have no outgoing edges")
        if len(tgts) != len(probs) or not tgts:
            raise InputError("edge needs matching non-empty targets and probs")
        if any(t < 0 or t >= n_nodes for t in tgts):
            raise InputError(f"edge target out of range in {tgts}")
        if len(set(tgts)) != len(tgts):
            raise InputError(f"edge targets must be distinct, got {tgts}")
        if any(q <= 0 for q in probs):
            raise InputError("edge probabilities must be positive")
        total = functools.reduce(operator.add, probs, 0.0)  # left to right on every Python
        if abs(total - 1.0) > 1e-12:
            raise InputError(f"edge probabilities must sum to 1, got {total!r}")
        if e.cost < 0:
            raise InputError(f"edge cost must be >= 0, got {e.cost}")
        out.append(GraphEdge(int(e.source), tgts, float(e.cost), probs))
    s = np.asarray(s, dtype=float)
    if s.shape != (n_nodes,):
        raise InputError(f"s must have length {n_nodes}, got {s.shape}")
    if np.any(s < 0):
        raise InputError("node costs must be nonnegative")
    return goals, tuple(out), s


def _reference_compile(n_nodes, goals, edges, s_node):
    """The per-edge compiler with dense restricted columns, as plain arrays."""
    nongoal = [x for x in range(n_nodes) if x not in goals]
    if np.any(s_node[nongoal] <= 0):
        raise InputError("node cost s must be > 0 on non-goal nodes")
    state_of = {x: i for i, x in enumerate(nongoal)}
    n = len(nongoal)
    if n == 0:
        raise InputError("graph has no non-goal nodes; nothing to solve")

    edges_at = [[] for _ in range(n_nodes)]
    for idx, e in enumerate(edges):
        edges_at[e.source].append(idx)

    def restricted(edge):
        col = np.zeros(n)
        for t, q in zip(edge.targets, edge.probs):
            if t in state_of:
                col[state_of[t]] += q
        return col

    reached = set(goals)
    grew = True
    while grew:
        grew = False
        for e in edges:
            if e.source not in reached and any(t in reached for t in e.targets):
                reached.add(e.source)
                grew = True
    stranded = [x for x in range(n_nodes) if x not in reached]
    if stranded:
        raise SolveFailure(f"nodes {stranded} cannot reach any goal")

    A = np.zeros((n, n))
    s = np.zeros(n)
    blocks, b_cols, r, edge_of_row = [], [], [], []
    for i, x in enumerate(nongoal):
        own = edges_at[x]
        base_idx = min(own, key=lambda idx: (edges[idx].cost, idx))
        base = edges[base_idx]
        A[:, i] = restricted(base)
        s[i] = s_node[x] + base.cost
        blocks.append(len(own))
        base_col = A[:, i]
        for idx in own:
            e = edges[idx]
            b_cols.append(restricted(e) - base_col)
            r.append(e.cost - base.cost)
            edge_of_row.append(idx)
    B = np.stack(b_cols, axis=1) if b_cols else np.zeros((n, 0))
    return dict(
        A=A, B=B, s=s, r=np.array(r), E=np.eye(n), block_sizes=tuple(blocks),
        node_of_state=tuple(nongoal), edge_of_row=tuple(edge_of_row),
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the class and message are what is compared
        return (type(exc), str(exc))


def _assert_compiled_like_reference(comp, ref):
    """Every compiled field equals the reference bit for bit, sign bits included."""
    p = comp.problem
    for name in ("A", "B", "s", "r", "E"):
        got, want = getattr(p, name), ref[name]
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert p.block_sizes == ref["block_sizes"]
    assert comp.node_of_state == ref["node_of_state"]
    assert comp.edge_of_row == ref["edge_of_row"]


def _closing_simplex(weights):
    p = [w / sum(weights) for w in weights]
    p[-1] = 1.0 - sum(p[:-1])
    return tuple(p)


@st.composite
def raw_graphs(draw):
    """Mostly valid edge lists with one kind of defect mixed in at a time.

    Half the graphs draw no edge defects.  In nine graphs in ten, each
    non-goal node's first edge leads to a goal or to a node that already has
    one, so unless a defect is drawn the graph reaches the compiler; in the
    tenth, nodes can be stranded.
    """
    n = draw(st.integers(1, 7))
    goals = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=max(1, n // 3)))
    goals = draw(st.sampled_from([goals] * 30 + [[], [n], [-1]]))
    nongoal = [x for x in range(n) if x not in goals] or [0]
    defects = [None] if draw(st.booleans()) else [None] * 12 + [
        "source", "goal_source", "no_targets", "length", "target",
        "duplicate", "zero_prob", "negative_prob", "sum_off", "cost",
    ]

    def edge(source, bound=()):
        defect = draw(st.sampled_from(defects))
        if defect == "source":
            source = draw(st.sampled_from([-1, n, n + 3]))
        elif defect == "goal_source":
            source = draw(st.sampled_from(goals or [0]))
        k = draw(st.integers(1, min(3, n)))
        targets = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
        if bound:
            targets[0] = draw(st.sampled_from(bound))
            targets = list(dict.fromkeys(targets))
            k = len(targets)
        probs = _closing_simplex(draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)))
        cost = draw(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0, 1.5, 3.0]))
        if defect == "no_targets":
            targets, probs = [], ()
        elif defect == "length":
            probs = probs + (0.5,)
        elif defect == "target":
            targets[-1] = draw(st.sampled_from([-1, n, n + 2]))
        elif defect == "duplicate":
            targets.append(targets[0])
            probs = _closing_simplex([1] * len(targets))
        elif defect == "zero_prob":  # still sums to one when k > 1
            probs = (1.0,) + (0.0,) * (k - 1) if k > 1 else (0.0,)
        elif defect == "negative_prob":
            probs = (1.5, -0.5) + (0.0,) * (k - 2) if k > 1 else (-1.0,)
        elif defect == "sum_off":
            probs = probs[:-1] + (probs[-1] + draw(st.sampled_from([1e-11, -1e-11, 5e-13])),)
        elif defect == "cost":
            cost = draw(st.sampled_from([-1.0, -1e-300]))
        return GraphEdge(source, tuple(targets), cost, probs)

    edges = []
    bound = [g for g in goals if 0 <= g < n]
    if bound and draw(st.sampled_from([True] * 9 + [False])):
        for x in draw(st.permutations([x for x in range(n) if x not in goals])):
            edges.append(edge(x, bound))
            bound.append(x)
    for _ in range(draw(st.integers(0, 9))):
        edges.append(edge(draw(st.sampled_from(nongoal))))
    s = [0.0 if x in goals else draw(st.sampled_from([0.05, 0.1, 0.25])) for x in range(n)]
    s_defect = draw(st.sampled_from([None] * 12 + ["negative", "zero", "length"]))
    if s_defect == "negative":
        s[0] = -0.1
    elif s_defect == "zero":
        s[nongoal[0]] = 0.0
    elif s_defect == "length":
        s = s + [0.1]
    return n, goals, tuple(edges), s


def _one_edge(targets, probs, cost=1.0, source=0):
    """Three nodes, goal 2, one edge: a fixed example of a single defect."""
    return 3, [2], (GraphEdge(source, targets, cost, probs),), [0.1, 0.1, 0.0]


@settings(max_examples=400, deadline=None)
@given(raw_graphs())
@example(_one_edge((3,), (1.0,)))
@example(_one_edge((1, -1), (0.5, 0.5)))
@example(_one_edge((1, 1), (0.5, 0.5)))
@example(_one_edge((0, 1), (1.0, 0.0)))
@example(_one_edge((0, 1), (1.5, -0.5)))
@example(_one_edge((0, 1), (0.5, 0.5 + 1e-11)))
@example(_one_edge((0, 1), (0.5, 0.5 + 5e-13)))
@example(_one_edge((1,), (1.0,), cost=-1.0))
@example(_one_edge((1,), (1.0,), source=2))
@example(_one_edge((), ()))
def test_array_intake_and_compile_match_the_edge_by_edge_reference(raw):
    n, goals, edges, s = raw
    ref = _outcome(_reference_intake, n, goals, edges, s)
    got = _outcome(lambda: GraphSsp(n_nodes=n, goals=tuple(goals), edges=edges, s=s))
    if isinstance(ref, tuple) and isinstance(ref[0], type):
        assert got == ref  # same exception class and message
        return
    assert isinstance(got, GraphSsp)
    ref_goals, ref_edges, ref_s = ref
    assert got.goals == ref_goals and got.edges == ref_edges
    assert got.s.tobytes() == ref_s.tobytes()
    assert got.is_deterministic() == all(len(e.targets) == 1 for e in ref_edges)
    ref_comp = _outcome(_reference_compile, n, ref_goals, ref_edges, ref_s)
    comp = _outcome(compile_graph, got)
    if isinstance(ref_comp, tuple):
        assert comp == ref_comp
    else:
        _assert_compiled_like_reference(comp, ref_comp)


def _generated_graphs():
    for n in (8, 30, 300):
        for seed in range(6):
            for stochastic in (False, True):
                yield random_ssp_graph(n, seed=seed, stochastic=stochastic)
    for k in range(12):
        yield random_chain_graph(5 + 7 * k, seed=k)


def test_compile_matches_the_reference_on_generated_graphs():
    graphs = list(_generated_graphs())
    assert len(graphs) == 48
    for g in graphs:
        ref = _reference_compile(g.n_nodes, g.goals, g.edges, g.s)
        _assert_compiled_like_reference(compile_graph(g), ref)


def test_compiled_matrices_are_kept_without_a_copy():
    comp = compile_graph(random_ssp_graph(20, seed=4, stochastic=True))
    p = comp.problem
    rebuilt = SspProblem(A=p.A, B=p.B, s=p.s, r=p.r, block_sizes=p.block_sizes, E=p.E)
    assert rebuilt.B is p.B and not p.B.flags.writeable
    # a caller's writeable array is still copied and frozen
    A = np.array(p.A)
    assert SspProblem(A=A, B=p.B, s=p.s, r=p.r, block_sizes=p.block_sizes, E=p.E).A is not A


# ---------------------------------------------------------------------------
# support arrays against the dense solver and compiler they replaced


def _dense_problem(A, B, s, r, block_sizes, E):
    """Dense matrices and block segments, read without the problem's supports."""
    sizes = np.asarray(block_sizes, dtype=int)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    nonempty = np.flatnonzero(sizes > 0)
    A, B, E = (np.array(M, dtype=float) for M in (A, B, E))
    return SimpleNamespace(
        A=A, B=B, s=np.array(s, dtype=float), r=np.array(r, dtype=float), E=E,
        n=A.shape[0], m=B.shape[1],
        starts=offsets[nonempty], sizes=sizes[nonempty], nonempty=nonempty,
    )


def _dense_validate_gain(d, K):
    if np.any(K < 0):
        return False
    budget_use = K[d.starts]
    for k in range(1, int(d.sizes.max(initial=0))):
        longer = d.sizes > k
        budget_use[longer] += K[d.starts[longer] + k]
    return bool(np.all(d.E[d.nonempty] - budget_use >= 0))


def _dense_sweep(d, lam):
    if lam.size and float(lam.min()) < -1e-10:
        raise CertificationError(
            "value iterate has negative entries; "
            "the budget matrix E does not preserve the orthant"
        )
    # column sums in ascending row order, as the solver adds them: a BLAS
    # matvec can round a reduced cost that is 0 in exact arithmetic to
    # either side of 0, and so pick another (equally optimal) gain row
    c = d.r + (d.B * lam[:, None]).sum(axis=0)
    g = np.zeros(d.n)
    if c.size:
        g[d.nonempty] = np.minimum(np.minimum.reduceat(c, d.starts), 0.0)
    return d.s + (d.A * lam[:, None]).sum(axis=0) + (d.E * g[:, None]).sum(axis=0), c


def _dense_gain(d, c):
    K = np.zeros((d.m, d.n))
    if not c.size:
        return K
    cmin = np.minimum.reduceat(c, d.starts)
    attains = c == np.repeat(cmin, d.sizes)
    jmin = np.minimum.reduceat(np.where(attains, np.arange(d.m), d.m), d.starts)
    negative = cmin < 0.0
    K[jmin[negative]] = d.E[d.nonempty[negative]]
    return K


def _dense_certify(d, lam, K):
    if not _dense_validate_gain(d, K):
        raise CertificationError("returned gain violates the constraint polytope")
    if lam.size and float(lam.min()) <= 0.0:
        raise CertificationError("converged value vector is not strictly positive")
    rows = np.flatnonzero(K.any(axis=1))
    cols = np.flatnonzero(K[rows].any(axis=0))
    closed = d.A[:, cols] + d.B[:, rows] @ K[np.ix_(rows, cols)]
    if np.any(closed < -1e-10):
        raise CertificationError(
            "closed loop A + BK has negative entries at the optimum; "
            "the budget matrix E does not preserve the orthant"
        )
    weight = d.A.T @ lam
    weight[cols] = np.abs(closed).T @ lam
    rho = float((weight / lam).max(initial=0.0))
    if rho >= 1.0:
        raise CertificationError(f"closed-loop spectral radius bound {rho:.6f} >= 1")
    return rho


def _dense_solve(d, cfg):
    """(lam, K, sweeps, rho) of the dense solver."""
    result = fixed_point_solve(lambda lam: _dense_sweep(d, lam), np.zeros(d.n), cfg)
    lam = result.value
    K = _dense_gain(d, result.minimizer)
    return lam, K, len(result.trace), _dense_certify(d, lam, K)


def _dense_compile_graph(g):
    """The dense compiler: (A, B, s, r, block_sizes, E) scattered from the edge arrays."""
    nongoal_mask = np.ones(g.n_nodes, dtype=bool)
    nongoal_mask[list(g.goals)] = False
    nongoal = np.flatnonzero(nongoal_mask)
    if np.any(g.s[nongoal] <= 0):
        raise InputError("node cost s must be > 0 on non-goal nodes")
    n = nongoal.size
    if n == 0:
        raise InputError("graph has no non-goal nodes; nothing to solve")
    src, cost, tgt, prob = g._src, g._cost, g._tgt, g._prob
    k = src.size
    entry_edge = np.repeat(np.arange(k), np.diff(g._ptr))
    step = np.zeros((g.n_nodes, g.n_nodes), dtype=bool)
    step[src[entry_edge], tgt] = True  # step[x, y]: some edge of x lands on y
    reached = ~nongoal_mask
    while not np.array_equal(reached, more := reached | step[:, reached].any(axis=1)):
        reached = more
    if not reached.all():
        raise SolveFailure(f"nodes {np.flatnonzero(~reached).tolist()} cannot reach any goal")
    state = np.cumsum(nongoal_mask) - 1
    rows = np.argsort(src, kind="stable")
    row_of_edge = np.empty(k, dtype=np.int64)
    row_of_edge[rows] = np.arange(k)
    sizes = np.bincount(state[src], minlength=n)
    offsets = np.cumsum(sizes) - sizes
    has = np.flatnonzero(sizes)
    base = np.lexsort((cost, src))[offsets[has]]
    kept = nongoal_mask[tgt]
    is_base = np.zeros(k, dtype=bool)
    is_base[base] = True
    on_base = kept & is_base[entry_edge]
    base_row = state[tgt[on_base]]
    base_block = state[src[entry_edge[on_base]]]
    A = np.zeros((n, n))
    A[base_row, base_block] = prob[on_base]
    s = g.s[nongoal]
    s[has] += cost[base]
    B = np.zeros((n, k))
    B[state[tgt[kept]], row_of_edge[entry_edge[kept]]] = prob[kept]
    reps = sizes[base_block]
    first = np.repeat(offsets[base_block] - (np.cumsum(reps) - reps), reps)
    B[np.repeat(base_row, reps), first + np.arange(reps.sum())] -= np.repeat(
        prob[on_base], reps
    )
    r = cost[rows] - np.repeat(cost[base], sizes[has])
    return A, B, s, r, tuple(sizes.tolist()), np.eye(n)


def _is_error(outcome):
    return isinstance(outcome, tuple) and isinstance(outcome[0], type)


def _lowest_identical_rows(d, K):
    """K with each nonzero row moved to the lowest row of its block that has
    the same B column and input cost.

    Such rows tie exactly, but the dense matvec can round identical columns
    differently (its kernel treats columns by position), so the dense
    solver did not always pick the lowest of them.
    """
    K = K.copy()
    for j in np.flatnonzero(K.any(axis=1)):
        start = d.starts[np.searchsorted(d.starts, j, side="right") - 1]
        for j0 in range(start, j):
            if np.array_equal(d.B[:, j0], d.B[:, j]) and d.r[j0] == d.r[j]:
                K[j0], K[j] = K[j], 0.0
                break
    return K


def _assert_solves_like_the_dense_reference(p, d, cfg):
    want = _outcome(_dense_solve, d, cfg)
    got = _outcome(solve_ssp, p, cfg)
    if _is_error(want):
        assert got == want  # same exception class and message
        return
    lam, K, sweeps, rho = want
    assert isinstance(got, ssp.SspSolution), got
    assert np.array_equal(got.K, _lowest_identical_rows(d, K))
    assert len(got.trace) == sweeps
    np.testing.assert_allclose(got.lam, lam, rtol=1e-14, atol=0.0)
    assert abs(got.rho_closed_loop - rho) <= 1e-12


def _assert_sweeps_like_the_dense_reference(p, d, lam):
    want = _outcome(lambda: (lambda nxt, c: (nxt, _dense_gain(d, c)))(*_dense_sweep(d, lam)))
    got = _outcome(bellman_update, p, lam)
    if _is_error(want):
        assert got == want
        return
    scale = float(np.abs(want[0]).max(initial=0.0))
    np.testing.assert_allclose(got[0], want[0], rtol=1e-14, atol=1e-14 * scale)
    assert np.array_equal(got[1], _lowest_identical_rows(d, want[1]))


@st.composite
def raw_problems(draw):
    """Small SspProblems with empty blocks, ties, -0.0 entries and non-diagonal E.

    Block sizes are drawn per state, so empty first, middle and last blocks
    all occur.  A gain row of state i redirects at most the mass A puts in
    column i, so most closed loops stay nonnegative; a B column is one
    entry, a random column, or a copy of its predecessor with the same
    input cost, and copies tie exactly.
    """
    n = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    A = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, -0.0, 0.125, 0.25]),
                               min_size=n * n, max_size=n * n))).reshape(n, n)
    columns, r = [], []
    for i, size in enumerate(sizes):
        for _ in range(size):
            kind = draw(st.sampled_from(["one", "one", "column", "copy"]))
            if kind == "copy" and columns:
                columns.append(columns[-1])
                r.append(r[-1])
                continue
            col = np.zeros(n)
            if kind == "column":
                keep = draw(st.floats(0.0, 1.0))
                col = np.array(draw(st.lists(st.floats(0.0, 0.2), min_size=n, max_size=n)))
                col -= keep * A[:, i]
            else:
                k = draw(st.integers(0, n - 1))
                col[k] = draw(st.sampled_from([-1.0, -0.5, 0.5])) * A[k, i] or draw(
                    st.sampled_from([-0.0, 0.125])
                )
            columns.append(col)
            r.append(draw(st.sampled_from([0.0, -0.0, 0.125, 0.25])))
    B = np.stack(columns, axis=1) if columns else np.zeros((n, 0))
    E = np.eye(n)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        E[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([0.0, -0.0, 0.25, 0.5])
        )
    s = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n))
    return A, B, s, np.array(r), tuple(sizes), E


@st.composite
def solvable_graphs(draw):
    """Graphs whose non-goal nodes all have a forward edge, with cost ties.

    Backward edges make cycles; an edge repeated at another cost cancels
    against its node's baseline (q - q = 0); one graph in ten has a stranded
    node 0 with no edges, which compile_graph rejects before any sweep.
    """
    n = draw(st.integers(2, 8))
    goal = n - 1
    stuck = draw(st.sampled_from([None] * 9 + [0]))
    edges = []
    for x in range(goal):
        if x == stuck:
            continue
        for a in range(draw(st.integers(1, 3))):
            k = draw(st.integers(1, min(3, n - 1)))
            targets = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
            if a == 0 and max(targets) <= x:
                targets[0] = draw(st.integers(x + 1, goal))
                targets = list(dict.fromkeys(targets))
            probs = _closing_simplex(draw(st.lists(st.integers(1, 4), min_size=len(targets),
                                                   max_size=len(targets))))
            for cost in draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0]), min_size=1,
                                      max_size=2)):
                edges.append(GraphEdge(x, tuple(targets), cost, probs))
    edges = draw(st.permutations(edges))
    s = [draw(st.sampled_from([0.05, 0.1, 0.25])) for _ in range(goal)] + [0.0]
    return GraphSsp(n_nodes=n, goals=(goal,), edges=tuple(edges), s=s)


@settings(max_examples=300, deadline=None)
@given(raw_problems(), st.integers(0, 2**32 - 1))
@example(
    (ragged_blocks_problem().A, ragged_blocks_problem().B, ragged_blocks_problem().s,
     ragged_blocks_problem().r, (0, 3, 0, 1, 0), ragged_blocks_problem().E),
    0,
)
@example(
    (orthant_leaving_problem().A, orthant_leaving_problem().B, [1.0, 1.0], [0.0], (1, 0),
     orthant_leaving_problem().E),
    0,
)
def test_problems_solve_like_the_dense_reference(raw, seed):
    p = SspProblem(*raw)
    d = _dense_problem(*raw)
    for name in ("A", "B", "E"):
        assert getattr(p, name).tobytes() == getattr(d, name).tobytes()
    _assert_solves_like_the_dense_reference(p, d, SolveConfig(max_iter=2_000))
    rng = np.random.default_rng(seed)
    _assert_sweeps_like_the_dense_reference(p, d, rng.uniform(0.0, 4.0, p.n))
    K = np.where(rng.random((p.m, p.n)) < 0.3, rng.choice([-0.25, 0.25, 0.5, 1.0], (p.m, p.n)), 0.0)
    assert validate_gain(p, K) == _dense_validate_gain(d, K)
    K[K < 0] = 0.0
    assert validate_gain(p, K) == _dense_validate_gain(d, K)


def identical_actions_graph():
    """Node 1's last two edges are the same action, and both are its best."""
    third = 1.0 / 3.0
    return GraphSsp(
        n_nodes=3,
        goals=(2,),
        edges=(
            GraphEdge(0, (1,), 0.0, (1.0,)),
            GraphEdge(1, (2, 1), 0.0, (0.5, 0.5)),
            GraphEdge(1, (0,), 0.0, (1.0,)),
            GraphEdge(1, (0, 2), 0.0, (third, 1.0 - third)),
            GraphEdge(1, (0, 2), 0.0, (third, 1.0 - third)),
        ),
        s=[0.05, 0.05, 0.0],
    )


def test_identical_actions_tie_to_the_lowest_row():
    # the dense B^T lam rounded the two identical columns apart and chose
    # row 4; summing every column in row order keeps them equal
    sol = solve_ssp(compile_graph(identical_actions_graph()).problem)
    assert np.array_equal(np.flatnonzero(sol.K.any(axis=1)), [3])


def zero_reduced_cost_tie_graph():
    """Node 2's third edge has reduced cost 0.25 lam_1 - 0.4 lam_2, which is 0
    in exact arithmetic at the optimum; a BLAS matvec rounded it below 0."""
    edges = (
        GraphEdge(0, (1,), 0.0, (1.0,)),
        GraphEdge(1, (2,), 0.0, (1.0,)),
        GraphEdge(2, (2, 3), 0.0, (0.4, 0.6)),
        GraphEdge(2, (0,), 0.0, (1.0,)),
        GraphEdge(2, (1, 3), 0.0, (0.25, 0.75)),
    )
    return GraphSsp(n_nodes=4, goals=(3,), edges=edges, s=np.array([0.05, 0.05, 0.05, 0.0]))


@settings(max_examples=200, deadline=None)
@given(solvable_graphs())
@example(identical_actions_graph())
@example(zero_reduced_cost_tie_graph())
def test_graphs_compile_and_solve_like_the_dense_reference(g):
    want = _outcome(_dense_compile_graph, g)
    comp = _outcome(compile_graph, g)
    if _is_error(want):
        assert comp == want
        return
    p = comp.problem
    for name, M in zip(("A", "B", "s", "r", "block_sizes", "E"), want):
        got = getattr(p, name)
        if name == "block_sizes":
            assert got == M
        else:
            assert got.dtype == M.dtype and got.shape == M.shape and got.tobytes() == M.tobytes()
    # the supports compile_graph builds are those a scan of the dense matrices finds
    rescanned = SspProblem(*want)
    for name in ("_A", "_B", "_E"):
        for mine, theirs in zip(getattr(p, name), getattr(rescanned, name)):
            assert np.array_equal(mine, theirs)
    _assert_solves_like_the_dense_reference(p, _dense_problem(*want), SolveConfig(max_iter=500))


def test_generated_graphs_solve_like_the_dense_reference():
    for g in _generated_graphs():
        want = _dense_compile_graph(g)
        _assert_solves_like_the_dense_reference(
            compile_graph(g).problem, _dense_problem(*want), SolveConfig()
        )


def test_compile_graph_builds_no_dense_matrix():
    g = random_ssp_graph(3000, seed=0, stochastic=True)
    tracemalloc.start()
    try:
        p = compile_graph(g).problem
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5e6  # the dense A, B and E took 284 MB
    assert p.B.shape == (p.n, p.m) and p.B is p.B  # built on first access, then kept


def test_solve_allocates_no_dense_matrix_but_the_gain():
    p = compile_graph(random_ssp_graph(1000, seed=0, stochastic=True)).problem
    tracemalloc.start()
    try:
        sol = solve_ssp(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sol.K.nbytes + 2e6  # one more n x n matrix would be 8 MB


# ---------------------------------------------------------------------------
# non-finite data


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["A", "B", "s", "r", "E"])
def test_problem_rejects_non_finite_entries(field, bad):
    data = dict(A=[[0.5]], B=[[-1.0]], s=[1.0], r=[2.0], block_sizes=(1,), E=[[1.0]])
    data[field] = [[bad]] if field in "ABE" else [bad]
    with pytest.raises(InputError, match=f"^{field} must be finite$"):
        SspProblem(**data)


@pytest.mark.parametrize("s", [[float("nan"), 0.0], [0.1, float("nan")], [float("inf"), 0.0]])
def test_graph_rejects_non_finite_node_costs(s):
    # a NaN node cost used to pass intake and run every sweep of the budget
    with pytest.raises(InputError, match="node costs must be finite"):
        GraphSsp(n_nodes=2, goals=(1,), edges=(GraphEdge(0, (1,), 1.0, (1.0,)),), s=s)


def test_nan_certificate_fails_closed(monkeypatch):
    p = single_state_problem()
    rows, states = np.array([0]), np.array([0])
    with pytest.raises(CertificationError, match="not strictly positive"):
        ssp._certify(p, np.array([np.nan]), rows, states)
    monkeypatch.setattr(ssp, "tdot", lambda S, x: np.full(S.shape[1], np.nan))
    none = np.zeros(0, dtype=int)
    with pytest.raises(CertificationError, match="bound nan >= 1"):
        ssp._certify(p, np.array([3.0]), none, none)


def test_problem_is_immutable_and_edges_are_tuples():
    p = single_state_problem()
    with pytest.raises(AttributeError):
        p.s = np.array([2.0])
    with pytest.raises(ValueError):
        p.A[0, 0] = 2.0  # read-only
    e = GraphEdge(source=0, targets=(1,), cost=1.0, probs=(1.0,))
    assert e == (0, (1,), 1.0, (1.0,)) and GraphEdge(*e) == e
    with pytest.raises(AttributeError):
        e.cost = 2.0
