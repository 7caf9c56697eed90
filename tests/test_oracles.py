"""Independent brute-force oracles used to cross-check the solvers."""

import ast
import importlib
import inspect
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conebellman import (
    Diverged,
    GraphEdge,
    GraphSsp,
    InputError,
    LdpProblem,
    LqrProblem,
    MaxIterExceeded,
    ReducedLdp,
    SolveFailure,
    SspProblem,
    reduce,
    solve_ldp,
)
from conebellman import ldp, oracles, sparse
from conebellman.generators import random_ldp
from conebellman.oracles import (
    dijkstra,
    gauss_jordan_inverse,
    ldp_logsumexp_vi,
    ldp_rollout,
    naive_dare,
    ssp_value_iteration,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def chain_graph():
    # binary-exact costs so hand-computed distances compare bitwise
    return GraphSsp(
        n_nodes=3,
        goals=(2,),
        edges=(
            GraphEdge(0, (1,), 1.0, (1.0,)),
            GraphEdge(1, (2,), 2.0, (1.0,)),
        ),
        s=[0.25, 0.25, 0.0],
    )


# ---------------------------------------------------------------------------
# value iteration


def test_value_iteration_single_state():
    p = SspProblem(
        A=[[1.0]], B=[[-1.0]], s=[1.0], r=[2.0], block_sizes=(1,), E=[[1.0]]
    )
    lam = ssp_value_iteration(p, iters=10_000, tol=1e-14)
    assert lam[0] == pytest.approx(3.0, abs=1e-12)


def test_value_iteration_respects_iteration_budget():
    p = SspProblem(
        A=[[0.5]], B=[[0.0]], s=[1.0], r=[1.0], block_sizes=(1,), E=[[1.0]]
    )
    lam = ssp_value_iteration(p, iters=2)
    # two sweeps from zero: 1, then 1.5
    assert lam[0] == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# dijkstra


def test_dijkstra_chain_distances():
    np.testing.assert_array_equal(dijkstra(chain_graph()), [3.5, 2.25, 0.0])


def test_dijkstra_goal_distance_is_zero():
    d = dijkstra(chain_graph())
    assert d[2] == 0.0


def test_dijkstra_picks_cheaper_route():
    g = GraphSsp(
        n_nodes=3,
        goals=(2,),
        edges=(
            GraphEdge(0, (2,), 5.0, (1.0,)),
            GraphEdge(0, (1,), 1.0, (1.0,)),
            GraphEdge(1, (2,), 1.0, (1.0,)),
        ),
        s=[0.1, 0.1, 0.0],
    )
    d = dijkstra(g)
    # via node 1: 0.1 + 1 + (0.1 + 1) beats the direct 0.1 + 5
    assert d[0] == pytest.approx(2.2)


def test_dijkstra_unreachable_node():
    g = GraphSsp(
        n_nodes=3,
        goals=(2,),
        edges=(GraphEdge(0, (2,), 1.0, (1.0,)),),  # node 1 has no edges
        s=[0.1, 0.1, 0.0],
    )
    with pytest.raises(InputError, match=re.escape("no path to any goal from nodes [1]")):
        dijkstra(g)


def test_dijkstra_rejects_stochastic_edges():
    g = GraphSsp(
        n_nodes=3,
        goals=(2,),
        edges=(GraphEdge(0, (1, 2), 1.0, (0.5, 0.5)),
               GraphEdge(1, (2,), 1.0, (1.0,))),
        s=[0.1, 0.1, 0.0],
    )
    with pytest.raises(InputError, match="dijkstra requires single-successor edges"):
        dijkstra(g)


# ---------------------------------------------------------------------------
# dense inverse


def test_inverse_of_known_matrix():
    S = np.array([[4.0, 7.0], [2.0, 6.0]])
    np.testing.assert_allclose(
        gauss_jordan_inverse(S), [[0.6, -0.7], [-0.2, 0.4]], atol=1e-14
    )


@pytest.mark.parametrize("seed", range(8))
def test_inverse_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    S = rng.standard_normal((n, n)) + n * np.eye(n)
    np.testing.assert_allclose(
        gauss_jordan_inverse(S), np.linalg.inv(S), atol=1e-10
    )


def test_inverse_rejects_singular():
    # the pivot prints as a plain float, not as a numpy scalar repr
    with pytest.raises(SolveFailure, match=r"^pivot 0\.0 at column 1$"):
        gauss_jordan_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_inverse_rejects_non_square():
    with pytest.raises(InputError, match=re.escape("expected a square matrix, got (2, 3)")):
        gauss_jordan_inverse(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# plain Riccati iteration


def test_plain_dare_scalar_golden_ratio():
    p = LqrProblem(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])
    lam = naive_dare(p, tol=1e-14)
    assert lam[0, 0] == pytest.approx(GOLDEN, abs=1e-12)


def test_plain_dare_without_inputs_solves_lyapunov():
    p = LqrProblem(A=[[0.5]], B=[[0.0]], Q=[[1.0]], R=[[1.0]])
    lam = naive_dare(p, tol=1e-14)
    assert lam[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_plain_dare_detects_unstabilizable_system():
    p = LqrProblem(A=[[2.0]], B=[[0.0]], Q=[[1.0]], R=[[1.0]])
    with pytest.raises(Diverged):
        naive_dare(p)


def test_plain_dare_iteration_budget():
    p = LqrProblem(A=[[0.99]], B=[[0.0]], Q=[[1.0]], R=[[1.0]])
    with pytest.raises(MaxIterExceeded):
        naive_dare(p, tol=1e-14, max_iter=3)


# ---------------------------------------------------------------------------
# log-sum-exp value iteration


def test_logsumexp_vi_single_state():
    r = reduce(LdpProblem(Pbar=[[0.5, 0.0], [0.5, 1.0]], s=[1.0, 0.0], goals=(1,)))
    lam = ldp_logsumexp_vi(r, iters=100_000, tol=1e-14)
    assert lam[0] == pytest.approx(1.48988012564475, abs=1e-12)


def test_logsumexp_vi_immediate_absorption():
    r = ReducedLdp(Pbar_r=[[0.0]], pbar_g=[1.0], s_r=[0.7])
    lam = ldp_logsumexp_vi(r, iters=10, tol=0.0)
    assert lam[0] == pytest.approx(0.7, abs=1e-15)


def dense_logsumexp_vi(r, iters, tol=0.0):
    # the oracle as it was before it moved to column segments: the same
    # recursion over all n x n entries, masked to the support
    lam = np.zeros(r.n_r)
    if r.n_r == 0:
        return lam
    support = r.Pbar_r > 0.0
    has_goal = r.pbar_g > 0.0
    for _ in range(iters):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            arg = np.where(support, -lam[:, None], -np.inf)
            shift = np.maximum(
                arg.max(axis=0), np.where(has_goal, 0.0, -np.inf)
            )
            shifted = np.where(support, np.exp(arg - shift[None, :]), 0.0)
            total = (r.Pbar_r * shifted).sum(axis=0) + np.where(
                has_goal, r.pbar_g * np.exp(-shift), 0.0
            )
            nxt = r.s_r - (shift + np.log(total))
        if tol > 0.0:
            gap = float(np.max(np.abs(nxt - lam)))
            if math.isfinite(gap) and gap < tol:
                return nxt
        lam = nxt
    return lam


def costly_reduced(scale):
    p = random_ldp(30, seed=1)
    return reduce(LdpProblem(Pbar=p.Pbar, s=p.s * scale, goals=p.goals))


@pytest.mark.parametrize(
    "r",
    [reduce(random_ldp(n, seed=seed)) for n in (2, 3, 7, 20, 60) for seed in (1, 4, 9)]
    + [costly_reduced(1e3), costly_reduced(1e5)]
    + [
        # column 0 has no goal mass, column 2 sends all of its mass to the goal
        ReducedLdp(
            Pbar_r=[[0.0, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.25, 0.0]],
            pbar_g=[0.0, 0.25, 1.0],
            s_r=[1.0, 0.5, 2.0],
        ),
        ReducedLdp(Pbar_r=[[0.0]], pbar_g=[1.0], s_r=[0.7]),
    ],
    ids=[f"random{n}-seed{seed}" for n in (2, 3, 7, 20, 60) for seed in (1, 4, 9)]
    + ["costly-1e3", "costly-1e5", "goal-free-and-goal-only-columns", "immediate-absorption"],
)
def test_logsumexp_vi_matches_the_dense_reference(r):
    # the same number of sweeps, so only the order of each column's sum differs
    np.testing.assert_allclose(
        ldp_logsumexp_vi(r, iters=400), dense_logsumexp_vi(r, iters=400),
        rtol=1e-13, atol=0.0,
    )


def test_logsumexp_vi_memory_stays_below_one_dense_matrix():
    # the sweeps hold O(nnz) arrays, not n x n temporaries
    n = 2000
    r = reduce(random_ldp(n, seed=7))
    tracemalloc.start()
    try:
        ldp_logsumexp_vi(r, iters=100_000, tol=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n


# ---------------------------------------------------------------------------
# Monte Carlo rollout


def single_state_solution():
    p = LdpProblem(Pbar=[[0.5, 0.0], [0.5, 1.0]], s=[1.0, 0.0], goals=(1,))
    return reduce(p), solve_ldp(p)


def test_rollout_is_deterministic_in_the_seed():
    r, sol = single_state_solution()
    a = ldp_rollout(r, sol.Pstar, 0, horizon=1000, trials=500, seed=42)
    b = ldp_rollout(r, sol.Pstar, 0, horizon=1000, trials=500, seed=42)
    assert a == b
    # one generator seeded with seed draws every trial, so even the next
    # seed gives an independent batch
    c = ldp_rollout(r, sol.Pstar, 0, horizon=1000, trials=500, seed=43)
    assert c.mean_cost != a.mean_cost


def test_rollout_frozen_statistics():
    r, sol = single_state_solution()
    stats = ldp_rollout(r, sol.Pstar, 0, horizon=1000, trials=2000, seed=0)
    assert stats.trials == 2000
    assert stats.mean_cost == pytest.approx(1.5021604256556966, abs=1e-12)
    assert stats.std_error == pytest.approx(0.014670446227033366, abs=1e-12)
    assert stats.truncated_fraction == 0.0
    # the estimate brackets the analytic value at three standard errors
    assert abs(stats.mean_cost - sol.lam[0]) <= 3.0 * stats.std_error


def test_rollout_matches_a_per_trial_reference_loop():
    # the lockstep rollout against one searchsorted per live trial and step,
    # fed the same uniforms: the same trajectories at the same costs
    p = random_ldp(12, seed=3)
    r, sol = reduce(p), solve_ldp(p)
    trials, horizon = 300, 3
    stats = ldp_rollout(r, sol.Pstar, 2, horizon=horizon, trials=trials, seed=11)

    h = oracles._stage_costs(r, sol.Pstar)
    cumulative = np.cumsum(sol.Pstar, axis=0)
    rng = np.random.default_rng(11)
    costs = np.zeros(trials)
    states = {t: 2 for t in range(trials)}
    for _ in range(horizon):
        for t in states:
            costs[t] += h[states[t]]
        draws = rng.random(len(states))
        for t, u in zip(list(states), draws):
            j = int(np.searchsorted(cumulative[:, states[t]], u, side="right"))
            if j < r.n_r:
                states[t] = j
            else:
                del states[t]
        if not states:
            break
    assert stats.truncated_fraction == len(states) / trials > 0.0
    assert stats.mean_cost == float(costs.mean())
    assert stats.std_error == float(costs.std(ddof=1) / np.sqrt(trials))


def dense_stage_costs(r, P):
    # the stage costs as they were before they moved to column segments:
    # all-pairs arithmetic, each column summed in row order
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.where(P > 0.0, P * np.log(P / r.Pbar_r), 0.0).sum(axis=0)
        goal = np.where(r.pbar_g > 0.0, np.maximum(1.0 - P.sum(axis=0), 0.0), 0.0)
        kl_goal = np.where(goal > 0.0, goal * np.log(goal / r.pbar_g), 0.0)
    return r.s_r + kl + kl_goal


def dense_rollout(r, Pstar, start_state, horizon, trials, seed):
    # the rollout as it was before it moved to column segments: a binary
    # search over all n rows of np.cumsum(Pstar, axis=0)
    n = r.n_r
    h = dense_stage_costs(r, Pstar)
    cumulative = np.cumsum(Pstar, axis=0)
    rng = np.random.default_rng(seed)
    costs = np.zeros(trials)
    alive = np.arange(trials)
    states = np.full(trials, start_state)
    for _ in range(horizon):
        costs[alive] += h[states]
        u = rng.random(alive.size)
        nxt = np.zeros(alive.size, dtype=np.intp)
        for step in 1 << np.arange(n.bit_length() - 1, -1, -1):
            probe = nxt + step
            below = (probe <= n) & (cumulative[np.minimum(probe, n) - 1, states] <= u)
            nxt = np.where(below, probe, nxt)
        kept = nxt < n
        alive, states = alive[kept], nxt[kept]
        if not alive.size:
            break
    return oracles.RolloutStats(
        trials=trials,
        mean_cost=float(costs.mean()),
        std_error=float(costs.std(ddof=1) / np.sqrt(trials)),
        horizon=horizon,
        truncated_fraction=alive.size / trials,
    )


@pytest.mark.parametrize("fan_out", [3, 40])
def test_stage_costs_match_the_dense_reference_bit_for_bit(fan_out):
    for seed in range(4):
        p = random_ldp(60, seed=seed, fan_out=fan_out)
        r, sol = reduce(p), solve_ldp(p)
        assert np.array_equal(
            oracles._stage_costs(r, sol.Pstar), dense_stage_costs(r, sol.Pstar)
        )


@pytest.mark.parametrize("fan_out", [3, 40])
@pytest.mark.parametrize("horizon", [4, 1000])
def test_rollout_matches_the_dense_reference(horizon, fan_out):
    # the same stage costs and the same draws to the bit, with and without
    # trajectories cut at the horizon
    p = random_ldp(60, seed=2, fan_out=fan_out)
    r, sol = reduce(p), solve_ldp(p)
    args = (r, sol.Pstar, 5, horizon, 2000, 13)
    assert ldp_rollout(*args) == dense_rollout(*args)


def test_rollout_immediate_absorption_hits_stage_cost():
    r = ReducedLdp(Pbar_r=[[0.0]], pbar_g=[1.0], s_r=[0.7])
    stats = ldp_rollout(r, np.array([[0.0]]), 0, horizon=10, trials=50, seed=1)
    # every trial absorbs after one step, paying exactly one stage cost;
    # only the mean's accumulation order leaves any float noise
    assert stats.mean_cost == pytest.approx(0.7, abs=1e-14)
    assert stats.std_error < 1e-15
    assert stats.truncated_fraction == 0.0


def test_rollout_single_trial_has_no_spread():
    r, sol = single_state_solution()
    stats = ldp_rollout(r, sol.Pstar, 0, horizon=1000, trials=1, seed=3)
    assert stats.std_error == 0.0


def test_rollout_seed_validation():
    r, sol = single_state_solution()
    with pytest.raises(InputError, match="seed must be nonnegative, got -1"):
        ldp_rollout(r, sol.Pstar, 0, horizon=10, trials=1, seed=-1)
    with pytest.raises(InputError, match="seed must be an integer, got 1.5"):
        ldp_rollout(r, sol.Pstar, 0, horizon=10, trials=1, seed=1.5)


def test_rollout_argument_validation():
    r, sol = single_state_solution()
    with pytest.raises(InputError, match="trials must be >= 1, got 0"):
        ldp_rollout(r, sol.Pstar, 0, horizon=10, trials=0, seed=0)
    with pytest.raises(InputError, match="horizon must be >= 1, got 0"):
        ldp_rollout(r, sol.Pstar, 0, horizon=0, trials=1, seed=0)
    with pytest.raises(InputError, match=re.escape("start_state must lie in [0, 1), got 5")):
        ldp_rollout(r, sol.Pstar, 5, horizon=10, trials=1, seed=0)


def test_rollout_prices_its_steps_without_the_solver(monkeypatch):
    # with the solver's stage cost and every support function broken, in
    # every module that holds them, both LDP oracles still run: the rollout
    # draws the same trajectories at the same costs, and value iteration
    # returns the same array
    p = random_ldp(12, seed=3)
    r, sol = reduce(p), solve_ldp(p)
    expected = ldp_rollout(r, sol.Pstar, 0, horizon=1000, trials=200, seed=5)
    expected_vi = ldp_logsumexp_vi(r, iters=100_000, tol=1e-12)
    targets = [ldp.kl_stage_cost] + [
        f for f in vars(sparse).values()
        if inspect.isfunction(f) and f.__module__ == sparse.__name__
    ]

    def broken(*args, **kwargs):
        raise AssertionError("an LDP oracle ran solver code")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "conebellman":
            for attr, value in list(vars(module).items()):
                if any(value is f for f in targets):
                    monkeypatch.setattr(module, attr, broken)
    assert ldp_rollout(r, sol.Pstar, 0, horizon=1000, trials=200, seed=5) == expected
    assert np.array_equal(ldp_logsumexp_vi(r, iters=100_000, tol=1e-12), expected_vi)


@pytest.mark.parametrize(
    "Pstar, message",
    [
        (np.zeros((2, 2)), re.escape("Pstar must be 1 x 1, got (2, 2)")),
        (np.array([[np.nan]]), "Pstar entries must be finite"),
        (np.array([[-0.1]]), "Pstar entries must be nonnegative"),
        (np.array([[1.5]]), "columns of Pstar must be substochastic"),
    ],
)
def test_rollout_rejects_infeasible_policies(Pstar, message):
    r, _ = single_state_solution()
    with pytest.raises(InputError, match=message):
        ldp_rollout(r, Pstar, 0, horizon=10, trials=1, seed=0)


def test_rollout_rejects_mass_outside_the_passive_support():
    r = ReducedLdp(Pbar_r=[[0.0, 1.0], [1.0, 0.0]], pbar_g=[0.0, 0.0], s_r=[1.0, 1.0])
    with pytest.raises(InputError, match="Pstar places mass where Pbar_r has none"):
        ldp_rollout(r, np.array([[0.5, 1.0], [0.5, 0.0]]), 0, horizon=10, trials=1, seed=0)
    with pytest.raises(InputError, match="Pstar sends goal mass from a state Pbar_r"):
        ldp_rollout(r, np.array([[0.0, 1.0], [0.9, 0.0]]), 0, horizon=10, trials=1, seed=0)


def test_oracles_import_nothing_from_the_support_module():
    # the oracles cross-check the solvers, so they must not run the solvers'
    # sparse layer: no import of the module, and no name that comes from it
    path = Path(importlib.import_module("conebellman.oracles").__file__)
    modules, names = set(), []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), "conebellman"
            )
            modules.add(base)
            names += [(base, alias.name) for alias in node.names]
    for base, name in names:
        try:
            modules.add(importlib.import_module(f"{base}.{name}").__name__)
        except ImportError:
            modules.add(getattr(getattr(importlib.import_module(base), name), "__module__", base))
    assert modules and "conebellman.sparse" not in modules
