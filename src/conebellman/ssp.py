"""Stochastic shortest path as linear-cost control of a positive system.

The model is ``x(t+1) = A x(t) + B u(t)`` with stage cost ``s^T x + r^T u``,
inputs partitioned into per-state blocks, and block i constrained to the
scaled-simplex product ``{K_i : K_i >= 0, 1^T K_i <= E_i}``.  The Bellman
operator for the linear value ansatz ``J(x) = lam^T x`` is

    lam' = s + A^T lam + sum_i  min_{K_i}  K_i^T (r_i + B_i^T lam)

and each block minimum is attained at a vertex in closed form: column j of
the minimizing ``K_i`` puts the whole budget ``E_ij`` on the lowest-index
entry of the reduced cost achieving its minimum when that minimum is
negative, and is zero otherwise.  The blocks are independent, so one sweep
is a single segmented minimum over the stacked reduced costs,

    c = r + B^T lam,   g_i = min(0, min_{j in block i} c_j),   lam' = s + A^T lam + E^T g,

with no per-block Python call; the gain is built once, at the returned value.

A, B and E are kept as their supports (see `sparse`).  ``A^T lam``,
``B^T lam`` and ``E^T g`` are one column sum each, which adds every column
in ascending row order, so a sweep is O(nnz).  A dense matrix given to
SspProblem is scanned once for its support; the dense matrices stay
readable as attributes.

The value is its own stability certificate.  At the fixed point the closed
loop ``M = A + BK`` is nonnegative and ``lam = s + K^T r + M^T lam`` with
``lam > 0``, so lam is a linear Lyapunov function of the positive closed
loop and the Collatz-Wielandt bound ``max_i (M^T lam)_i / lam_i`` proves
``rho(M) < 1``; only the columns of M the gain touches are formed, from
the supports.

A graph shorthand for ordinary (stochastic) shortest-path instances compiles
into this matrix form with per-state unit budgets (``E = I``): every node's
cheapest action becomes the autonomous dynamics and the remaining actions
become redirections, so the assembled update reproduces classical value
iteration ``lam_i <- s_i + min_a (cost_a + p_a^T lam)`` exactly.  Intake
flattens the edges into arrays once; validation and compilation are array
code over them, and the compiled supports are built with no dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .engine import SolveConfig, TraceRecord, fixed_point_solve
from .errors import CertificationError, InputError, SolveFailure
from .sparse import Support, coalesced, colsums, dense, frozen, reaches, row_entries
from .sparse import row_pointer, scan, tdot

_LAMBDA_TOL = 1e-10  # slack when checking lam >= 0 (matches cone membership)


class SspProblem:
    """Matrices and costs of one shortest-path control instance.

    A is n x n nonnegative with n >= 1, B is n x m, s > 0 (length n),
    r >= 0 (length m), block_sizes partitions the m inputs by state
    (zero-size blocks allowed), and E is the n x n nonnegative budget
    matrix: actions of block i may spend at most E_ij of state j's mass.
    Every entry must be finite.

    A, B and E are kept as their supports, which is all the solver reads: a
    dense matrix given here is scanned once, and compile_graph passes
    supports.  The attributes A, B and E are read-only dense arrays with
    the same values, the ones given or, from a support, scattered on first
    access.  Instances are immutable.
    """

    def __init__(self, A, B, s, r, block_sizes, E):
        A, B, E = (M if isinstance(M, Support) else frozen(M) for M in (A, B, E))
        s, r = frozen(s), frozen(r)
        if len(A.shape) != 2 or A.shape[0] != A.shape[1]:
            raise InputError(f"A must be square, got {A.shape}")
        n = A.shape[0]
        if n < 1:
            raise InputError("A must have at least one state, got shape (0, 0)")
        if len(B.shape) != 2 or B.shape[0] != n:
            raise InputError(f"B must be n x m with n={n}, got {B.shape}")
        m = B.shape[1]
        if s.shape != (n,):
            raise InputError(f"s must have length {n}, got {s.shape}")
        if r.shape != (m,):
            raise InputError(f"r must have length {m}, got {r.shape}")
        if E.shape != (n, n):
            raise InputError(f"E must be {n} x {n}, got {E.shape}")
        blocks = tuple(map(int, block_sizes))
        if len(blocks) != n:
            raise InputError(
                f"block_sizes must have one entry per state ({n}), got {len(blocks)}"
            )
        if min(blocks, default=0) < 0 or sum(blocks) != m:
            raise InputError(
                f"block_sizes must be nonnegative and sum to m={m}, got {blocks}"
            )
        given = {k: M for k, M in zip("ABE", (A, B, E)) if not isinstance(M, Support)}
        A, B, E = (M if isinstance(M, Support) else scan(M) for M in (A, B, E))
        if (A.vals < 0).any():
            raise InputError("A must be elementwise nonnegative")
        if (s <= 0).any():
            raise InputError("state cost s must be strictly positive")
        if (r < 0).any():
            raise InputError("input cost r must be nonnegative")
        if (E.vals < 0).any():
            raise InputError("budget matrix E must be nonnegative")
        values = {"A": A.vals, "B": B.vals, "s": s, "r": r, "E": E.vals}
        if not np.isfinite(np.concatenate(tuple(values.values()))).all():
            name = next(k for k, v in values.items() if not np.isfinite(v).all())
            raise InputError(f"{name} must be finite")
        for a in (*A[1:], *B[1:], *E[1:]):
            a.setflags(write=False)
        sizes = np.asarray(blocks, dtype=int)
        offsets = np.zeros(n + 1, dtype=int)
        np.cumsum(sizes, out=offsets[1:])
        # gain rows as segments, one per non-empty block: its state, first
        # row and size.  Empty blocks are left out because their repeated
        # offsets would make np.minimum.reduceat return a neighbour's entry.
        nonempty = np.flatnonzero(sizes > 0)
        fields = {
            **given, "_A": A, "_B": B, "_E": E, "s": s, "r": r, "block_sizes": blocks,
            "_offsets": frozen(offsets, dtype=int),
            "_nonempty": frozen(nonempty, dtype=int),
            "_starts": frozen(offsets[nonempty], dtype=int),
            "_sizes": frozen(sizes[nonempty], dtype=int),
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"SspProblem is immutable; cannot set {name!r}")

    def __getattr__(self, name):
        # only reached for A, B or E not yet built: scatter it from its support
        if name not in ("A", "B", "E"):
            raise AttributeError(name)
        M = dense(self.__dict__["_" + name])
        M.setflags(write=False)
        object.__setattr__(self, name, M)
        return M

    @property
    def n(self) -> int:
        return self._A.shape[0]

    @property
    def m(self) -> int:
        return self._B.shape[1]

    def block_slice(self, i: int) -> slice:
        return slice(int(self._offsets[i]), int(self._offsets[i + 1]))


@dataclass
class SspSolution:
    lam: np.ndarray
    K: np.ndarray
    trace: list[TraceRecord]
    stationarity: float
    rho_closed_loop: float


def validate_gain(p: SspProblem, K: np.ndarray) -> bool:
    """True iff K >= 0 and E - CK >= 0 elementwise (the constraint polytope).

    Row i of CK is the budget block i spends: the sum of its gain rows.
    Empty blocks spend nothing and E >= 0 holds from intake.
    """
    K = np.asarray(K, dtype=float)
    if K.shape != (p.m, p.n):
        raise InputError(f"gain must be {p.m} x {p.n}, got {K.shape}")
    if np.any(K < 0):
        return False
    # segment sums: one vectorized step adds the k-th row of every block
    # that has one, so there are as many steps as the largest block has rows
    # and rows add in block order.  np.add.reduceat(K, starts, axis=0) gives
    # the same sums, but it runs its inner loop once per block and column and
    # measured about 3x slower on 300-state random graphs.
    budget_use = K[p._starts]
    for k in range(1, int(p._sizes.max(initial=0))):
        longer = p._sizes > k
        budget_use[longer] += K[p._starts[longer] + k]
    # E - CK on the non-empty blocks, adding E's budget rows onto -CK
    slack = -budget_use
    e, counts = row_entries(row_pointer(p._E), p._nonempty)
    slack[np.repeat(np.arange(p._nonempty.size), counts), p._E.cols[e]] += p._E.vals[e]
    return bool(np.all(slack >= 0))


def _sweep(p: SspProblem, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Bellman sweep: (s + A^T lam + E^T g, reduced costs c at lam)."""
    if lam.size and float(lam.min()) < -_LAMBDA_TOL:
        raise CertificationError(
            "value iterate has negative entries; "
            "the budget matrix E does not preserve the orthant"
        )
    c = p.r + tdot(p._B, lam)
    g = np.zeros(p.n)
    if c.size:
        g[p._nonempty] = np.minimum(np.minimum.reduceat(c, p._starts), 0.0)
    return p.s + tdot(p._A, lam) + tdot(p._E, g), c


def _policy(p: SspProblem, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vertex minimizers for the reduced costs c, as (rows, states).

    Block i's gain row at the lowest index attaining its minimum carries the
    budget row E_i when that minimum is negative; every other row is zero.
    Those rows and their blocks' states are returned, in block order.
    """
    if not c.size:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    cmin = np.minimum.reduceat(c, p._starts)
    attains = c == np.repeat(cmin, p._sizes)
    jmin = np.minimum.reduceat(np.where(attains, np.arange(p.m), p.m), p._starts)
    negative = cmin < 0.0
    return jmin[negative], p._nonempty[negative]


def _gain(p: SspProblem, rows: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The dense m x n gain whose row rows[b] is E's row states[b]."""
    K = np.zeros((p.m, p.n))
    e, counts = row_entries(row_pointer(p._E), states)
    K[np.repeat(rows, counts), p._E.cols[e]] = p._E.vals[e]
    return K


def bellman_update(p: SspProblem, lam) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous sweep of the decomposed Bellman operator.

    Returns (lam', K) where lam' = s + A^T lam + sum_i K_i^T c_i and K stacks
    the per-block vertex minimizers.  lam' is bitwise equal to the iterate
    solve_ssp computes from lam, because both run the same sweep, and at
    the value solve_ssp returns K equals its gain bit for bit.  A negative
    lam from the caller is an input error.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (p.n,):
        raise InputError(f"lam must have length {p.n}, got {lam.shape}")
    if lam.size and float(lam.min()) < -_LAMBDA_TOL:
        raise InputError("value iterate has negative entries")
    lam_next, c = _sweep(p, lam)
    return lam_next, _gain(p, *_policy(p, c))


def _certify(p: SspProblem, lam: np.ndarray, rows: np.ndarray, states: np.ndarray) -> float:
    """Prove rho(A + BK) < 1 with lam as a linear Lyapunov function.

    K is given as _policy returns it: row rows[b] is E's row states[b] and
    every other row is zero.  With each row inside its own state's block
    and one row per block, every block spends exactly its budget row or
    nothing, so K lies in the constraint polytope (E >= 0 from intake).

    For lam > 0, Collatz-Wielandt gives rho(M) <= rho(|M|) <= max_i
    (|M|^T lam)_i / lam_i, and that bound is returned.  Only the columns l
    with some E_il > 0 on a chosen row differ from A; their entries
    A_kl + B_kj E_il are coalesced from the supports, and the rest of the
    weights are A^T lam.  Entries at one (k, l) add in ascending j, which
    is ascending state i.  Every test fails closed on NaN.
    """
    in_block = (p._offsets[states] <= rows) & (rows < p._offsets[states + 1])
    if not (np.all(in_block) and np.all(np.diff(states) > 0)):
        raise CertificationError("returned gain violates the constraint polytope")
    if lam.size and not float(lam.min()) > 0.0:
        raise CertificationError("converged value vector is not strictly positive")
    A, B, E, n = p._A, p._B, p._E, p.n
    ptr = row_pointer(E)
    touched = np.zeros(n, dtype=bool)
    touched[E.cols[row_entries(ptr, states)[0]]] = True  # the columns K carries
    a = touched[A.cols].nonzero()[0]
    state_of_row = np.full(p.m, -1)
    state_of_row[rows] = states
    b = (state_of_row[B.cols] >= 0).nonzero()[0]  # entries of B in K's rows
    e, counts = row_entries(ptr, state_of_row[B.cols[b]])
    M = coalesced(  # the touched columns of A + BK
        (n, n),
        np.concatenate((A.rows[a], np.repeat(B.rows[b], counts))),
        np.concatenate((A.cols[a], E.cols[e])),
        np.concatenate((A.vals[a], np.repeat(B.vals[b], counts) * E.vals[e])),
    )
    if (M.vals < -_LAMBDA_TOL).any():
        raise CertificationError(
            "closed loop A + BK has negative entries at the optimum; "
            "the budget matrix E does not preserve the orthant"
        )
    weight = tdot(A, lam)
    weight[touched] = colsums(M.cols, np.abs(M.vals) * lam[M.rows], n)[touched]
    rho = float((weight / lam).max(initial=0.0))
    if not rho < 1.0:
        raise CertificationError(f"closed-loop spectral radius bound {rho:.6f} >= 1")
    return rho


def solve_ssp(p: SspProblem, cfg: SolveConfig | None = None) -> SspSolution:
    """Solve the shortest-path Bellman fixed point from lam0 = 0.

    Iterates the vectorized sweep in the generic fixed-point engine and
    certifies the result: the gain is feasible, the value vector is
    strictly positive, and the closed loop M = A + BK is nonnegative with
    ``rho(M) <= max_i (M^T lam)_i / lam_i < 1``.  That Collatz-Wielandt bound
    is a proof, not an estimate; it is ``rho_closed_loop``.  At the fixed
    point ``lam = s + K^T r + M^T lam`` with ``s > 0``, so up to the solve
    tolerance the bound is ``1 - min_i (s + K^T r)_i / lam_i``, below one.
    Iterates from zero are monotone nondecreasing for valid budget matrices
    (each candidate update map is affine with nonnegative coefficient
    matrix); an iterate that leaves the orthant raises CertificationError.
    """
    cfg = cfg or SolveConfig()
    result = fixed_point_solve(lambda lam: _sweep(p, lam), np.zeros(p.n), cfg)
    lam = result.value
    rows, states = _policy(p, result.minimizer)
    rho = _certify(p, lam, rows, states)
    return SspSolution(
        lam=lam,
        K=_gain(p, rows, states),
        trace=result.trace,
        stationarity=result.residual,
        rho_closed_loop=rho,
    )


# ---------------------------------------------------------------------------
# Graph shorthand
# ---------------------------------------------------------------------------

class GraphEdge(NamedTuple):
    """One action: from `source`, pay `cost`, land on `targets` with `probs`.

    A named tuple: it compares equal to a plain tuple of the same fields.
    """

    source: int
    targets: tuple[int, ...]
    cost: float
    probs: tuple[float, ...]


def _edge_error(
    e: GraphEdge, n_nodes: int, goals: tuple[int, ...], total: float
) -> str | None:
    """The message of the first intake check edge e fails, or None.

    total is the sum of e's probabilities as intake's rule computed it, so
    the message and the rule agree on it to the last bit.
    """
    tgts = tuple(int(t) for t in e.targets)
    probs = tuple(float(q) for q in e.probs)
    if not (0 <= e.source < n_nodes):
        return f"edge source {e.source} out of range"
    if e.source in goals:
        return f"goal node {e.source} must have no outgoing edges"
    if len(tgts) != len(probs) or not tgts:
        return "edge needs matching non-empty targets and probs"
    if any(t < 0 or t >= n_nodes for t in tgts):
        return f"edge target out of range in {tgts}"
    if len(set(tgts)) != len(tgts):
        return f"edge targets must be distinct, got {tgts}"
    if not all(q > 0 for q in probs):  # NaN is not positive
        return "edge probabilities must be positive"
    if abs(total - 1.0) > 1e-12:  # an infinite probability lands here
        return f"edge probabilities must sum to 1, got {total!r}"
    if e.cost < 0:
        return f"edge cost must be >= 0, got {e.cost}"
    if not math.isfinite(e.cost):
        return f"edge cost must be finite, got {e.cost}"
    return None


@dataclass(frozen=True)
class GraphSsp:
    """Shortest-path instance over an explicit node/edge graph.

    Node ids are 0..n_nodes-1.  Each edge is one action available at its
    source node; target probabilities must be positive and sum to one
    (targets may include goal nodes — that probability mass leaves the
    system).  `s` is the per-step cost of occupying each node; goal entries
    are ignored.

    Intake flattens the edges once into arrays (sources, costs, a target
    pointer, targets, probabilities) and runs every check as a mask over
    them; the first offending edge is re-checked alone, so the error names
    the same edge and check as an edge-by-edge pass would.  `edges` keeps
    the caller's GraphEdge objects; the arrays hold their values as ints
    and floats.
    """

    n_nodes: int
    goals: tuple[int, ...]
    edges: tuple[GraphEdge, ...]
    s: np.ndarray

    def __post_init__(self):
        n = self.n_nodes
        if n < 1:
            raise InputError("graph needs at least one node")
        goals = tuple(sorted(set(int(g) for g in self.goals)))
        if not goals:
            raise InputError("graph needs a non-empty goal set")
        if goals[0] < 0 or goals[-1] >= n:
            raise InputError(f"goal ids must lie in [0, {n}), got {goals}")
        edges = tuple(self.edges)
        k = len(edges)
        targets = tuple(map(attrgetter("targets"), edges))
        probs = tuple(map(attrgetter("probs"), edges))
        src = np.fromiter(map(attrgetter("source"), edges), dtype=np.int64, count=k)
        cost = np.fromiter(map(attrgetter("cost"), edges), dtype=float, count=k)
        n_tgt = np.fromiter(map(len, targets), dtype=np.int64, count=k)
        n_prob = np.fromiter(map(len, probs), dtype=np.int64, count=k)
        tgt = np.fromiter(chain.from_iterable(targets), dtype=np.int64, count=int(n_tgt.sum()))
        prob = np.fromiter(chain.from_iterable(probs), dtype=float, count=int(n_prob.sum()))

        bad = (src < 0) | (src >= n) | np.isin(src, goals)
        bad |= (n_tgt != n_prob) | (n_tgt == 0)
        tgt_edge = np.repeat(np.arange(k), n_tgt)
        bad[tgt_edge[(tgt < 0) | (tgt >= n)]] = True
        # (edge, target) keys; out-of-range targets clip onto shared keys,
        # but their edges are already marked
        key = np.sort(tgt_edge * (n + 2) + np.clip(tgt, -1, n) + 1)
        bad[key[1:][key[1:] == key[:-1]] // (n + 2)] = True
        bad[np.repeat(np.arange(k), n_prob)[~(np.isfinite(prob) & (prob > 0))]] = True
        # each edge's probabilities add left to right, as Python's sum did
        # before 3.12 (from 3.12 it compensates, so it may round otherwise)
        total = colsums(np.repeat(np.arange(k), n_prob), prob, k)
        bad |= np.abs(total - 1.0) > 1e-12
        bad |= ~np.isfinite(cost) | (cost < 0)
        if bad.any():
            first = int(bad.argmax())
            raise InputError(_edge_error(edges[first], n, goals, float(total[first])))

        s = np.asarray(self.s, dtype=float)
        if s.shape != (n,):
            raise InputError(f"s must have length {n}, got {s.shape}")
        if np.any(s < 0):
            raise InputError("node costs must be nonnegative")
        if not np.all(np.isfinite(s)):
            raise InputError("node costs must be finite")
        ptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(n_tgt, out=ptr[1:])
        object.__setattr__(self, "goals", goals)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "s", frozen(s))
        flat = {"_src": src, "_cost": cost, "_ptr": ptr, "_tgt": tgt, "_prob": prob}
        for name, a in flat.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def is_deterministic(self) -> bool:
        # every edge has at least one target, so one each means ptr[-1] == k
        return int(self._ptr[-1]) == len(self.edges)


@dataclass(frozen=True)
class CompiledGraph:
    """Graph instance compiled to matrix form, with the node/state mapping."""

    problem: SspProblem
    node_of_state: tuple[int, ...]
    # global edge index of each gain row, grouped by state in block order
    edge_of_row: tuple[int, ...]


def compile_graph(g: GraphSsp) -> CompiledGraph:
    """Compile the graph shorthand into matrix form with per-state unit budgets.

    Non-goal nodes become states (in ascending node order).  Each node's
    cheapest action (lowest index among ties) is folded into the autonomous
    dynamics A and the per-state cost, and every action — the cheapest one
    included — becomes a gain row redirecting mass from that baseline, with
    input cost equal to its cost premium over the baseline.  The compiled
    Bellman sweep therefore performs classical value iteration
    ``lam_i <- s_i + min_a (cost_a + p_a^T lam)``.  It has a solution iff
    every non-goal node has a path to a goal (Bertsekas & Tsitsiklis, Math.
    Oper. Res. 16, 1991), so a reverse search over the edges raises
    SolveFailure naming the nodes that have none, before any sweep.

    The supports are built from intake's flat edge arrays with no dense
    matrix: column j of B takes edge j's own probabilities to non-goal
    targets, then its baseline's subtracted, so each entry is ``q - p``,
    ``q``, ``-p`` or zero, with the bits of the dense difference of the two
    columns, and zeros left out.
    """
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
    entry_edge = np.repeat(np.arange(k), g._ptr[1:] - g._ptr[:-1])
    stranded = np.flatnonzero(~reaches(tgt, src[entry_edge], ~nongoal_mask))
    if stranded.size:
        raise SolveFailure(f"nodes {stranded.tolist()} cannot reach any goal")
    state = np.cumsum(nongoal_mask) - 1  # state of each non-goal node

    # gain rows: edges grouped by source state, in index order within a block
    rows = np.argsort(src, kind="stable")
    row_of_edge = np.empty(k, dtype=np.int64)
    row_of_edge[rows] = np.arange(k)
    sizes = np.bincount(state[src], minlength=n)
    offsets = np.cumsum(sizes) - sizes
    # lexsort is stable: within a node, the cheapest edge with the lowest index
    base = np.lexsort((cost, src))[offsets]

    kept = nongoal_mask[tgt]  # mass to a goal leaves the system
    is_base = np.zeros(k, dtype=bool)
    is_base[base] = True
    on_base = kept & is_base[entry_edge]
    base_row = state[tgt[on_base]]
    base_block = state[src[entry_edge[on_base]]]

    A = coalesced((n, n), base_row, base_block, prob[on_base])
    s = g.s[nongoal] + cost[base]

    # each baseline entry is subtracted from every row of its block
    reps = sizes[base_block]
    first = np.repeat(offsets[base_block] - (np.cumsum(reps) - reps), reps)
    B = coalesced(
        (n, k),
        np.concatenate((state[tgt[kept]], np.repeat(base_row, reps))),
        np.concatenate((row_of_edge[entry_edge[kept]], first + np.arange(reps.sum()))),
        np.concatenate((prob[kept], -np.repeat(prob[on_base], reps))),
    )
    r = cost[rows] - np.repeat(cost[base], sizes)
    diagonal = np.arange(n)
    E = Support((n, n), diagonal, diagonal, np.ones(n))
    problem = SspProblem(A=A, B=B, s=s, r=r, block_sizes=tuple(sizes.tolist()), E=E)
    return CompiledGraph(
        problem=problem,
        node_of_state=tuple(nongoal.tolist()),
        edge_of_row=tuple(rows.tolist()),
    )


def closed_loop_successors(g: GraphSsp, compiled: CompiledGraph, K: np.ndarray) -> dict:
    """Map each non-goal node to the edge its converged policy follows.

    A zero gain block means the baseline (cheapest) action; a gain row at the
    budget means that row's edge.
    """
    p = compiled.problem
    chosen = {}
    for i, x in enumerate(compiled.node_of_state):
        sl = p.block_slice(i)
        rows, own = K[sl, i], compiled.edge_of_row[sl]
        if rows.max() > 0:
            chosen[x] = own[int(np.argmax(rows))]
        else:  # baseline action: the cheapest edge at this node
            chosen[x] = min(own, key=lambda idx: (g.edges[idx].cost, idx))
    return chosen
