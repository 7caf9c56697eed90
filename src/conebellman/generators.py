"""Seeded random instance generators for benchmarks and property tests.

All generators are deterministic functions of their arguments (numpy's
default PCG64 generator seeded explicitly).  Graph and KL-control instances
are built layered-forward — every non-goal node keeps at least one edge
toward strictly higher-numbered nodes and the top nodes feed the goal — so
goal reachability holds by construction.  LQR instances place the open-loop
spectrum inside the unit disk by rescaling, which makes them stabilizable
outright.
"""

from __future__ import annotations

import numpy as np

from .ldp import LdpProblem
from .lqr import LqrProblem
from .ssp import GraphEdge, GraphSsp


def _positive_simplex(rng: np.random.Generator, k: int) -> np.ndarray:
    """k strictly positive weights summing to 1 exactly (last entry closes it)."""
    u = rng.uniform(0.2, 1.0, size=k)
    p = u / u.sum()
    p[-1] = 1.0 - p[:-1].sum()
    return p


def random_ssp_graph(
    n_nodes: int, seed: int, stochastic: bool = False, extra_edges: int = 2
) -> GraphSsp:
    """Random forward DAG with the last node as goal.

    Every non-goal node gets one guaranteed edge to a random higher node
    plus up to ``extra_edges`` more; with ``stochastic`` each edge spreads
    over up to three higher nodes.  Edge costs in [0.5, 2], node costs in
    [0.01, 0.1].
    """
    if n_nodes < 2:
        raise ValueError("need at least one non-goal node and one goal")
    rng = np.random.default_rng(seed)
    goal = n_nodes - 1
    edges = []
    for x in range(goal):
        n_later = n_nodes - x - 1  # targets are drawn from x + 1, ..., goal
        n_actions = 1 + int(rng.integers(0, extra_edges + 1))
        for _ in range(n_actions):
            if stochastic and n_later > 1:
                k = int(rng.integers(1, min(3, n_later) + 1))
                targets = tuple(
                    x + 1 + int(t) for t in rng.choice(n_later, size=k, replace=False)
                )
                probs = tuple(_positive_simplex(rng, k))
            else:
                targets = (x + 1 + int(rng.choice(n_later)),)
                probs = (1.0,)
            cost = float(rng.uniform(0.5, 2.0))
            edges.append(GraphEdge(x, targets, cost, probs))
    s = np.zeros(n_nodes)
    s[:goal] = rng.uniform(0.01, 0.1, size=goal)
    return GraphSsp(n_nodes=n_nodes, goals=(goal,), edges=tuple(edges), s=s)


def random_chain_graph(n_nodes: int, seed: int) -> GraphSsp:
    """Deterministic path 0 -> 1 -> ... -> goal with a few random shortcuts.

    Worst-case dependency depth (n_nodes - 1), useful for exercising long
    relaxation chains.
    """
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    rng = np.random.default_rng(seed)
    goal = n_nodes - 1
    edges = [
        GraphEdge(x, (x + 1,), float(rng.uniform(0.5, 2.0)), (1.0,))
        for x in range(goal)
    ]
    for _ in range(max(1, n_nodes // 4)):
        x = int(rng.integers(0, goal))
        t = int(rng.integers(x + 1, n_nodes))
        edges.append(GraphEdge(x, (t,), float(rng.uniform(1.0, 4.0)), (1.0,)))
    s = np.zeros(n_nodes)
    s[:goal] = rng.uniform(0.01, 0.1, size=goal)
    return GraphSsp(n_nodes=n_nodes, goals=(goal,), edges=tuple(edges), s=s)


def random_lqr(n: int, m: int, seed: int, rho: float = 0.9) -> LqrProblem:
    """Random system with open-loop spectral radius ``rho`` and PD weights."""
    if not (1 <= m):
        raise ValueError("need m >= 1")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    radius = float(np.max(np.abs(np.linalg.eigvals(A)))) if n else 0.0
    if radius > 0.0:
        A = A * (rho / radius)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((n, n))
    Q = C @ C.T + 0.1 * np.eye(n)
    D = rng.standard_normal((m, m))
    R = D @ D.T + 0.1 * np.eye(m)
    return LqrProblem(A=A, B=B, Q=Q, R=R)


def random_ldp(
    n_states: int, seed: int, n_goals: int = 1, fan_out: int = 3
) -> LdpProblem:
    """Sparse random KL-control instance with guaranteed goal reachability.

    The last ``n_goals`` states are absorbing goals.  Each non-goal column
    spreads over at most ``fan_out`` forward states (strictly higher index,
    so every chain terminates in a goal) plus occasionally one backward state
    to keep the support from being a pure DAG.
    """
    if n_states < n_goals + 1:
        raise ValueError("need at least one non-goal state")
    rng = np.random.default_rng(seed)
    goals = tuple(range(n_states - n_goals, n_states))
    P = np.zeros((n_states, n_states))
    for i in range(n_states - n_goals):
        n_later = n_states - i - 1  # forward states i + 1, ..., n_states - 1
        k = int(rng.integers(1, min(fan_out, n_later) + 1))
        support = [i + 1 + int(t) for t in rng.choice(n_later, size=k, replace=False)]
        if i > 0 and rng.random() < 0.3:
            back = int(rng.integers(0, i))
            if back not in support:
                support.append(back)
        probs = _positive_simplex(rng, len(support))
        for t, q in zip(support, probs):
            P[t, i] = q
    for g in goals:
        P[g, g] = 1.0
    s = np.zeros(n_states)
    s[: n_states - n_goals] = rng.uniform(0.1, 1.0, size=n_states - n_goals)
    return LdpProblem(Pbar=P, s=s, goals=goals)
