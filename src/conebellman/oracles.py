"""Brute-force reference implementations for cross-checking the solvers.

Every function here recomputes a quantity the solvers produce, using
deliberately different numerics and sharing no code path with the solver it
checks: dense synchronous value sweeps with explicit vertex enumeration
instead of the block engine, classical Dijkstra labels instead of the
compiled fixed point, Gauss-Jordan inversion instead of Cholesky solves,
log-sum-exp iteration instead of the Newton-Krylov Bellman solve, and Monte
Carlo rollouts instead of anything analytic.  None of this is built for
speed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import Diverged, InputError, MaxIterExceeded, SolveFailure
from .ldp import ReducedLdp
from .lqr import LqrProblem
from .ssp import GraphSsp, SspProblem


def ssp_value_iteration(p: SspProblem, iters: int, tol: float = 0.0) -> np.ndarray:
    """Plain synchronous Bellman sweeps from lam = 0, no block caching.

    Each block minimum is found by enumerating the vertex candidates per
    value component: zero and each reduced cost scaled by the budget row.
    Stops early once successive sweeps agree within ``tol`` (if positive).
    """
    lam = np.zeros(p.n)
    for _ in range(iters):
        nxt = p.s + p.A.T @ lam
        for i in range(p.n):
            sl = p.block_slice(i)
            if sl.stop == sl.start:
                continue
            c = p.r[sl] + p.B[:, sl].T @ lam
            candidates = np.vstack([np.zeros(p.n), c[:, None] * p.E[i][None, :]])
            nxt = nxt + candidates.min(axis=0)
        if tol > 0.0 and (not lam.size or float(np.max(np.abs(nxt - lam))) < tol):
            return nxt
        lam = nxt
    return lam


def dijkstra(g: GraphSsp) -> np.ndarray:
    """Classical shortest-path labels to the goal set on a deterministic graph.

    Node costs are charged on departure, so the label of node u is
    (s_u + edge cost) + label of the successor; goal labels are zero.
    """
    if not g.is_deterministic():
        raise InputError("dijkstra requires single-successor edges")
    reverse: list[list[tuple[int, float]]] = [[] for _ in range(g.n_nodes)]
    for e in g.edges:
        reverse[e.targets[0]].append((e.source, e.cost))
    dist = np.full(g.n_nodes, np.inf)
    heap: list[tuple[float, int]] = []
    for goal in g.goals:
        dist[goal] = 0.0
        heapq.heappush(heap, (0.0, goal))
    settled: set[int] = set()
    while heap:
        d, w = heapq.heappop(heap)
        if w in settled:
            continue
        settled.add(w)
        for u, cost in reverse[w]:
            if u in settled:
                continue
            candidate = (g.s[u] + cost) + d
            if candidate < dist[u]:
                dist[u] = candidate
                heapq.heappush(heap, (candidate, u))
    unreachable = [x for x in range(g.n_nodes) if x not in settled]
    if unreachable:
        raise InputError(f"no path to any goal from nodes {unreachable}")
    return dist


def gauss_jordan_inverse(S: np.ndarray) -> np.ndarray:
    """Explicit matrix inverse by Gauss-Jordan elimination with partial pivoting."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InputError(f"expected a square matrix, got {S.shape}")
    n = S.shape[0]
    aug = np.hstack([S.copy(), np.eye(n)])
    scale = max(float(np.max(np.abs(S))) if S.size else 0.0, 1.0)
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot_row, col]) <= 1e-13 * scale:
            raise SolveFailure(f"pivot {float(aug[pivot_row, col])!r} at column {col}")
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] = aug[row] - aug[row, col] * aug[col]
    return aug[:, n:]


def naive_dare(
    p: LqrProblem, tol: float = 1e-12, max_iter: int = 100_000
) -> np.ndarray:
    """Riccati iteration with an explicit inner inverse (no Cholesky anywhere).

    lam <- Q + A^T lam A - (B^T lam A)^T (R + B^T lam B)^{-1} (B^T lam A)
    from lam = Q, symmetrized each step, until successive iterates agree to
    ``tol`` in sup norm.
    """
    lam = np.array(p.Q)
    for _ in range(max_iter):
        inner = gauss_jordan_inverse(p.R + p.B.T @ lam @ p.B)
        G = p.B.T @ lam @ p.A
        nxt = p.Q + p.A.T @ lam @ p.A - G.T @ inner @ G
        nxt = 0.5 * (nxt + nxt.T)
        gap = float(np.max(np.abs(nxt - lam))) if lam.size else 0.0
        lam = nxt
        if lam.size and float(np.max(np.abs(lam))) > 1e12:
            raise Diverged("Riccati iterates exceeded 1e12; system not stabilizable")
        if gap < tol:
            return lam
    raise MaxIterExceeded(f"no convergence to {tol} within {max_iter} sweeps")


def ldp_logsumexp_vi(r: ReducedLdp, iters: int, tol: float = 0.0) -> np.ndarray:
    """Iterate lam <- s - log(Pbar_r^T exp(-lam) + pbar_g) from lam = 0.

    Evaluated in log space with a columnwise max shift, so large values never
    underflow to a hard zero.  Returns the iterate after convergence (when
    ``tol`` is positive) or after ``iters`` sweeps.
    """
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


_MASS_TOL = 1e-12  # rounding slack on a column's goal mass


def _stage_costs(r: ReducedLdp, P: np.ndarray) -> np.ndarray:
    """h_i = s_i + KL(column i of P, goal mass included || column i of P̄).

    Dense all-pairs arithmetic on P and Pbar_r.  P must be a feasible
    controlled transition matrix: finite, nonnegative, inside the support of
    Pbar_r and substochastic, with goal mass only where pbar_g > 0.
    """
    n = r.n_r
    if P.shape != (n, n):
        raise InputError(f"Pstar must be {n} x {n}, got {P.shape}")
    if not np.all(np.isfinite(P)):
        raise InputError("Pstar entries must be finite")
    if np.any(P < 0.0):
        raise InputError("Pstar entries must be nonnegative")
    if np.any((P > 0.0) & (r.Pbar_r == 0.0)):
        raise InputError("Pstar places mass where Pbar_r has none")
    goal = 1.0 - P.sum(axis=0)
    if np.any(goal < -_MASS_TOL):
        raise InputError("columns of Pstar must be substochastic")
    has_goal = r.pbar_g > 0.0
    if np.any(~has_goal & (goal > _MASS_TOL)):
        raise InputError("Pstar sends goal mass from a state Pbar_r gives no goal transition")
    goal = np.where(has_goal, np.maximum(goal, 0.0), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.where(P > 0.0, P * np.log(P / r.Pbar_r), 0.0).sum(axis=0)
        kl_goal = np.where(goal > 0.0, goal * np.log(goal / r.pbar_g), 0.0)
    return r.s_r + kl + kl_goal


@dataclass(frozen=True)
class RolloutStats:
    trials: int
    mean_cost: float
    std_error: float
    horizon: int
    truncated_fraction: float


def ldp_rollout(
    r: ReducedLdp,
    Pstar: np.ndarray,
    start_state: int,
    horizon: int,
    trials: int,
    seed: int,
) -> RolloutStats:
    """Monte Carlo estimate of the total cost under controlled transitions.

    Each visit to state i costs h_i (the same per-state cost the Bellman
    equation charges: s_i plus the KL divergence of the controlled column,
    goal mass included, from the passive one), computed here from the dense
    matrices with no call into the solver.
    Trajectories absorb into the goal with the column's missing mass; those
    still alive after ``horizon`` steps count toward truncated_fraction.
    All trials advance in lockstep from one numpy default PCG64 generator
    seeded with ``seed``: each step draws one uniform per live trial, in
    trial order, so results are reproducible and trials are independent.
    """
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise InputError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    if not (0 <= start_state < r.n_r):
        raise InputError(
            f"start_state must lie in [0, {r.n_r}), got {start_state}"
        )
    Pstar = np.asarray(Pstar, dtype=float)
    h = _stage_costs(r, Pstar)
    n = r.n_r
    cumulative = np.cumsum(Pstar, axis=0)

    rng = np.random.default_rng(seed)
    costs = np.zeros(trials)
    alive = np.arange(trials)
    states = np.full(trials, start_state)
    for _ in range(horizon):
        costs[alive] += h[states]
        u = rng.random(alive.size)
        # per trial, the number of entries of its state's cumulative column
        # at or below u (searchsorted side="right"), by a branchless binary
        # search over the rows: O(trials) work per probe, no trials x n array
        nxt = np.zeros(alive.size, dtype=np.intp)
        for step in 1 << np.arange(n.bit_length() - 1, -1, -1):
            probe = nxt + step
            below = (probe <= n) & (cumulative[np.minimum(probe, n) - 1, states] <= u)
            nxt = np.where(below, probe, nxt)
        kept = nxt < n  # the rest absorbed into the goal
        alive, states = alive[kept], nxt[kept]
        if not alive.size:
            break
    truncated = alive.size
    mean = float(costs.mean())
    if trials > 1:
        std_error = float(costs.std(ddof=1) / math.sqrt(trials))
    else:
        std_error = 0.0
    return RolloutStats(
        trials=trials,
        mean_cost=mean,
        std_error=std_error,
        horizon=horizon,
        truncated_fraction=truncated / trials,
    )
