"""Brute-force reference implementations for cross-checking the solvers.

Every function here recomputes a quantity the solvers produce, using
deliberately different numerics and sharing no code path with the solver it
checks: synchronous value sweeps with explicit vertex enumeration instead of
the block engine, classical Dijkstra labels instead of the compiled fixed
point, Gauss-Jordan inversion instead of Cholesky solves, log-sum-exp
iteration instead of the Newton-Krylov Bellman solve, and Monte Carlo
rollouts instead of anything analytic.  The LDP oracles read the nonzeros
of the dense matrices they are given into their own column arrays, so each
sweep and each rollout step costs O(nnz); the others stay dense and plain.
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


def _columns(M: np.ndarray):
    """The nonzeros of a dense matrix in column order, rows ascending in each.

    One scan of M in its row-major order, then a stable sort of the nonzeros
    by column.  Returns their rows, columns and values, and each column's
    start in those arrays and its count of nonzeros.
    """
    rows, cols = np.nonzero(M)
    order = np.argsort(cols, kind="stable")
    rows, cols = rows[order], cols[order]
    count = np.bincount(cols, minlength=M.shape[1])
    return rows, cols, M[rows, cols], np.cumsum(count) - count, count


def _running_sums(vals: np.ndarray, start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Running sum down each column segment, adding its entries in row order.

    So the sums keep the bits of np.cumsum(M, axis=0) at M's nonzeros.  Step
    k extends every column with more than k entries by one: O(nnz) work in
    max(count) vectorized steps.
    """
    heads = start[np.argsort(-count, kind="stable")]  # longest columns first
    longer = count.size - np.cumsum(np.bincount(count))  # columns with > k entries
    cum = vals.copy()
    for k in range(1, longer.size):
        at = heads[: longer[k]] + k
        cum[at] += cum[at - 1]
    return cum


def ldp_logsumexp_vi(r: ReducedLdp, iters: int, tol: float = 0.0) -> np.ndarray:
    """Iterate lam <- s - log(Pbar_r^T exp(-lam) + pbar_g) from lam = 0.

    Evaluated in log space with a columnwise max shift, so large values never
    underflow to a hard zero.  Each sweep works over the nonzeros of Pbar_r
    in column order, with one reduceat per column segment: O(nnz) time and
    memory.  Returns the iterate after convergence (when ``tol`` is
    positive) or after ``iters`` sweeps.
    """
    lam = np.zeros(r.n_r)
    if r.n_r == 0:
        return lam
    rows, cols, vals, start, count = _columns(r.Pbar_r)
    live = count > 0
    heads = start[live]
    has_goal = r.pbar_g > 0.0
    floor = np.where(has_goal, 0.0, -np.inf)
    live_floor = floor[live]
    for _ in range(iters):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            arg = -lam[rows]
            shift = floor.copy()
            shift[live] = np.maximum(np.maximum.reduceat(arg, heads), live_floor)
            total = np.where(has_goal, r.pbar_g * np.exp(-shift), 0.0)
            total[live] += np.add.reduceat(vals * np.exp(arg - shift[cols]), heads)
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

    Summed in row order over the nonzeros of each column of P.  P must be a
    feasible controlled transition matrix: finite, nonnegative, inside the
    support of Pbar_r and substochastic, with goal mass only where
    pbar_g > 0.
    """
    n = r.n_r
    if P.shape != (n, n):
        raise InputError(f"Pstar must be {n} x {n}, got {P.shape}")
    rows, cols, vals, start, count = _columns(P)
    if not np.all(np.isfinite(vals)):
        raise InputError("Pstar entries must be finite")
    if np.any(vals < 0.0):
        raise InputError("Pstar entries must be nonnegative")
    passive = r.Pbar_r[rows, cols]
    if np.any(passive == 0.0):
        raise InputError("Pstar places mass where Pbar_r has none")
    live = count > 0
    last = start[live] + count[live] - 1
    mass, kl = np.zeros(n), np.zeros(n)
    # running sums, not np.add.reduceat, whose order of addition differs
    # from P.sum(axis=0) and changes the bits of h
    mass[live] =_running_sums(vals, start, count)[last]
    kl[live] = _running_sums(vals * np.log(vals / passive), start, count)[last]
    goal = 1.0 - mass
    if np.any(goal < -_MASS_TOL):
        raise InputError("columns of Pstar must be substochastic")
    has_goal = r.pbar_g > 0.0
    if np.any(~has_goal & (goal > _MASS_TOL)):
        raise InputError("Pstar sends goal mass from a state Pbar_r gives no goal transition")
    goal = np.where(has_goal, np.maximum(goal, 0.0), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
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
    goal mass included, from the passive one), computed here with no call
    into the solver.  The search for each next state runs inside the
    cumulative segment of the current state's column, so a step costs
    O(trials · log w), w the most nonzeros in a column of Pstar, and memory
    beyond the inputs is O(trials + nnz).
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
    rows, _, vals, start, count = _columns(Pstar)
    cumulative = _running_sums(vals, start, count)
    width = int(count.max())

    rng = np.random.default_rng(seed)
    costs = np.zeros(trials)
    alive = np.arange(trials)
    states = np.full(trials, start_state)
    for _ in range(horizon):
        costs[alive] += h[states]
        u = rng.random(alive.size)
        # per trial, the number of entries of its state's cumulative segment
        # at or below u (searchsorted side="right"), by a branchless binary
        # search inside the segment: O(trials) work per probe.  A probe past
        # an empty segment reads a neighbour's entry, and is masked off.
        base, size = start[states], count[states]
        k = np.zeros(alive.size, dtype=np.intp)
        for step in 1 << np.arange(width.bit_length() - 1, -1, -1):
            probe = k + step
            below = (probe <= size) & (cumulative[base + np.minimum(probe, size) - 1] <= u)
            k = np.where(below, probe, k)
        kept = k < size  # the rest absorbed into the goal
        alive, states = alive[kept], rows[base[kept] + k[kept]]
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
