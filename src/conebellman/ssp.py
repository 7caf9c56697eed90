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

A graph shorthand for ordinary (stochastic) shortest-path instances compiles
into this matrix form with per-state unit budgets (``E = I``): every node's
cheapest action becomes the autonomous dynamics and the remaining actions
become redirections, so the assembled update reproduces classical value
iteration ``lam_i <- s_i + min_a (cost_a + p_a^T lam)`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import ConeTag, ValueObject
from .engine import (
    ConvergenceTrace,
    SolveConfig,
    fixed_point_solve,
    spectral_radius,
)
from .errors import (
    CertificationError,
    InvalidProblem,
    NegativeLambda,
    ShapeMismatch,
)

_LAMBDA_TOL = 1e-10  # slack when checking lam >= 0 (matches cone membership)


def _frozen(a, dtype=float) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SspProblem:
    """Matrices and costs of one shortest-path control instance.

    A is n x n nonnegative, B is n x m, s > 0 (length n), r >= 0 (length m),
    block_sizes partitions the m inputs by state (zero-size blocks allowed),
    and E is the n x n nonnegative budget matrix: actions of block i may
    spend at most E_ij of state j's mass.
    """

    A: np.ndarray
    B: np.ndarray
    s: np.ndarray
    r: np.ndarray
    block_sizes: tuple[int, ...]
    E: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        s = np.asarray(self.s, dtype=float)
        r = np.asarray(self.r, dtype=float)
        E = np.asarray(self.E, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ShapeMismatch(f"A must be square, got {A.shape}")
        n = A.shape[0]
        if B.ndim != 2 or B.shape[0] != n:
            raise ShapeMismatch(f"B must be n x m with n={n}, got {B.shape}")
        m = B.shape[1]
        if s.shape != (n,):
            raise ShapeMismatch(f"s must have length {n}, got {s.shape}")
        if r.shape != (m,):
            raise ShapeMismatch(f"r must have length {m}, got {r.shape}")
        if E.shape != (n, n):
            raise ShapeMismatch(f"E must be {n} x {n}, got {E.shape}")
        blocks = tuple(int(b) for b in self.block_sizes)
        if len(blocks) != n:
            raise ShapeMismatch(
                f"block_sizes must have one entry per state ({n}), got {len(blocks)}"
            )
        if any(b < 0 for b in blocks) or sum(blocks) != m:
            raise InvalidProblem(
                f"block_sizes must be nonnegative and sum to m={m}, got {blocks}"
            )
        if np.any(A < 0):
            raise InvalidProblem("A must be elementwise nonnegative")
        if np.any(s <= 0):
            raise InvalidProblem("state cost s must be strictly positive")
        if np.any(r < 0):
            raise InvalidProblem("input cost r must be nonnegative")
        if np.any(E < 0):
            raise InvalidProblem("budget matrix E must be nonnegative")
        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "B", _frozen(B))
        object.__setattr__(self, "s", _frozen(s))
        object.__setattr__(self, "r", _frozen(r))
        object.__setattr__(self, "E", _frozen(E))
        object.__setattr__(self, "block_sizes", blocks)
        offsets = np.zeros(n + 1, dtype=int)
        np.cumsum(blocks, out=offsets[1:])
        object.__setattr__(self, "_offsets", _frozen(offsets, dtype=int))
        # gain rows as segments, one per non-empty block: its state, first
        # row and size.  Empty blocks are left out because their repeated
        # offsets would make np.minimum.reduceat return a neighbour's entry.
        sizes = np.asarray(blocks, dtype=int)
        nonempty = np.flatnonzero(sizes > 0)
        object.__setattr__(self, "_nonempty", _frozen(nonempty, dtype=int))
        object.__setattr__(self, "_starts", _frozen(offsets[nonempty], dtype=int))
        object.__setattr__(self, "_sizes", _frozen(sizes[nonempty], dtype=int))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def block_slice(self, i: int) -> slice:
        return slice(int(self._offsets[i]), int(self._offsets[i + 1]))


@dataclass
class SspSolution:
    lam: np.ndarray
    K: np.ndarray
    trace: ConvergenceTrace
    stationarity: float
    rho_closed_loop: float


def validate_gain(p: SspProblem, K: np.ndarray) -> bool:
    """True iff K >= 0 and E - CK >= 0 elementwise (the constraint polytope).

    Row i of CK is the budget block i spends: the sum of its gain rows.
    Empty blocks spend nothing and E >= 0 holds from intake.
    """
    K = np.asarray(K, dtype=float)
    if K.shape != (p.m, p.n):
        raise ShapeMismatch(f"gain must be {p.m} x {p.n}, got {K.shape}")
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
    return bool(np.all(p.E[p._nonempty] - budget_use >= 0))


def _sweep(p: SspProblem, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Bellman sweep: (s + A^T lam + E^T g, reduced costs c at lam)."""
    if lam.size and float(lam.min()) < -_LAMBDA_TOL:
        raise NegativeLambda("value iterate has negative entries")
    c = p.r + p.B.T @ lam
    g = np.zeros(p.n)
    if c.size:
        g[p._nonempty] = np.minimum(np.minimum.reduceat(c, p._starts), 0.0)
    return p.s + p.A.T @ lam + p.E.T @ g, c


def _gain(p: SspProblem, c: np.ndarray) -> np.ndarray:
    """Stacked vertex minimizers for the reduced costs c.

    Block i's row at the lowest index attaining its minimum carries the
    budget row E_i when that minimum is negative; every other row is zero.
    """
    K = np.zeros((p.m, p.n))
    if not c.size:
        return K
    cmin = np.minimum.reduceat(c, p._starts)
    attains = c == np.repeat(cmin, p._sizes)
    jmin = np.minimum.reduceat(np.where(attains, np.arange(p.m), p.m), p._starts)
    negative = cmin < 0.0
    K[jmin[negative]] = p.E[p._nonempty[negative]]
    return K


def bellman_update(p: SspProblem, lam) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous sweep of the decomposed Bellman operator.

    Returns (lam', K) where lam' = s + A^T lam + sum_i K_i^T c_i and K stacks
    the per-block vertex minimizers.  lam' is bitwise equal to the iterate
    solve_ssp computes from lam, because both run the same sweep, and at
    the value solve_ssp returns K equals its gain bit for bit.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (p.n,):
        raise ShapeMismatch(f"lam must have length {p.n}, got {lam.shape}")
    lam_next, c = _sweep(p, lam)
    return lam_next, _gain(p, c)


def _certify(p: SspProblem, lam: np.ndarray, K: np.ndarray) -> float:
    if not validate_gain(p, K):
        raise CertificationError("returned gain violates the constraint polytope")
    if lam.size and float(lam.min()) <= 0.0:
        raise CertificationError("converged value vector is not strictly positive")
    # K has at most one nonzero row per block: skip the zero rows' products
    rows = np.flatnonzero(K.any(axis=1))
    closed = p.A + p.B[:, rows] @ K[rows]
    if np.any(closed < -_LAMBDA_TOL):
        raise CertificationError(
            "closed loop A + BK has negative entries at the optimum; "
            "the budget matrix E does not preserve the orthant"
        )
    rho = spectral_radius(np.maximum(closed, 0.0))
    if rho >= 1.0:
        raise CertificationError(f"closed-loop spectral radius {rho:.6f} >= 1")
    return rho


def solve_ssp(p: SspProblem, cfg: SolveConfig | None = None) -> SspSolution:
    """Solve the shortest-path Bellman fixed point from lam0 = 0.

    Iterates the vectorized sweep in the generic fixed-point engine and
    certifies the result: the gain is feasible, the value vector is
    strictly positive, and the closed loop A + BK is nonnegative with
    spectral radius below one.  Iterates from zero are monotone
    nondecreasing for valid budget matrices (each candidate update map is
    affine with nonnegative coefficient matrix).
    """
    cfg = cfg or SolveConfig()
    result = fixed_point_solve(
        lambda lam: _sweep(p, lam), ValueObject.zeros(ConeTag.orthant(p.n)), cfg
    )
    lam = np.array(result.value.data)
    K = _gain(p, result.minimizer)
    rho = _certify(p, lam, K)
    return SspSolution(
        lam=lam,
        K=K,
        trace=result.trace,
        stationarity=result.residual,
        rho_closed_loop=rho,
    )


# ---------------------------------------------------------------------------
# Graph shorthand
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphEdge:
    """One action: from `source`, pay `cost`, land on `targets` with `probs`."""

    source: int
    targets: tuple[int, ...]
    cost: float
    probs: tuple[float, ...]


@dataclass(frozen=True)
class GraphSsp:
    """Shortest-path instance over an explicit node/edge graph.

    Node ids are 0..n_nodes-1.  Each edge is one action available at its
    source node; target probabilities must be positive and sum to one
    (targets may include goal nodes — that probability mass leaves the
    system).  `s` is the per-step cost of occupying each node; goal entries
    are ignored.
    """

    n_nodes: int
    goals: tuple[int, ...]
    edges: tuple[GraphEdge, ...]
    s: np.ndarray

    def __post_init__(self):
        if self.n_nodes < 1:
            raise InvalidProblem("graph needs at least one node")
        goals = tuple(sorted(set(int(g) for g in self.goals)))
        if not goals:
            raise InvalidProblem("graph needs a non-empty goal set")
        if goals[0] < 0 or goals[-1] >= self.n_nodes:
            raise InvalidProblem(f"goal ids must lie in [0, {self.n_nodes}), got {goals}")
        edges = []
        for e in self.edges:
            tgts = tuple(int(t) for t in e.targets)
            probs = tuple(float(q) for q in e.probs)
            if not (0 <= e.source < self.n_nodes):
                raise InvalidProblem(f"edge source {e.source} out of range")
            if e.source in goals:
                raise InvalidProblem(f"goal node {e.source} must have no outgoing edges")
            if len(tgts) != len(probs) or not tgts:
                raise InvalidProblem("edge needs matching non-empty targets and probs")
            if any(t < 0 or t >= self.n_nodes for t in tgts):
                raise InvalidProblem(f"edge target out of range in {tgts}")
            if len(set(tgts)) != len(tgts):
                raise InvalidProblem(f"edge targets must be distinct, got {tgts}")
            if any(q <= 0 for q in probs):
                raise InvalidProblem("edge probabilities must be positive")
            if abs(sum(probs) - 1.0) > 1e-12:
                raise InvalidProblem(
                    f"edge probabilities must sum to 1, got {sum(probs)!r}"
                )
            if e.cost < 0:
                raise InvalidProblem(f"edge cost must be >= 0, got {e.cost}")
            edges.append(GraphEdge(int(e.source), tgts, float(e.cost), probs))
        s = np.asarray(self.s, dtype=float)
        if s.shape != (self.n_nodes,):
            raise ShapeMismatch(f"s must have length {self.n_nodes}, got {s.shape}")
        if np.any(s < 0):
            raise InvalidProblem("node costs must be nonnegative")
        object.__setattr__(self, "goals", goals)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "s", _frozen(s))

    def is_deterministic(self) -> bool:
        return all(len(e.targets) == 1 for e in self.edges)


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
    ``lam_i <- s_i + min_a (cost_a + p_a^T lam)``.  A node with no outgoing
    edges keeps its mass (self-loop baseline), so an instance whose goal is
    unreachable diverges at solve time instead of failing intake.
    """
    nongoal = [x for x in range(g.n_nodes) if x not in g.goals]
    if np.any(g.s[nongoal] <= 0):
        raise InvalidProblem("node cost s must be > 0 on non-goal nodes")
    state_of = {x: i for i, x in enumerate(nongoal)}
    n = len(nongoal)
    if n == 0:
        raise InvalidProblem("graph has no non-goal nodes; nothing to solve")

    edges_at: list[list[int]] = [[] for _ in range(g.n_nodes)]
    for idx, e in enumerate(g.edges):
        edges_at[e.source].append(idx)

    def restricted(edge: GraphEdge) -> np.ndarray:
        col = np.zeros(n)
        for t, q in zip(edge.targets, edge.probs):
            if t in state_of:
                col[state_of[t]] += q
        return col

    A = np.zeros((n, n))
    s = np.zeros(n)
    blocks = []
    b_cols: list[np.ndarray] = []
    r: list[float] = []
    edge_of_row: list[int] = []
    for i, x in enumerate(nongoal):
        own = edges_at[x]
        if not own:
            A[i, i] = 1.0  # stuck mass: divergence will report unreachability
            s[i] = g.s[x]
            blocks.append(0)
            continue
        base_idx = min(own, key=lambda idx: (g.edges[idx].cost, idx))
        base = g.edges[base_idx]
        A[:, i] = restricted(base)
        s[i] = g.s[x] + base.cost
        blocks.append(len(own))
        base_col = A[:, i]
        for idx in own:
            e = g.edges[idx]
            b_cols.append(restricted(e) - base_col)
            r.append(e.cost - base.cost)
            edge_of_row.append(idx)

    m = len(b_cols)
    B = np.stack(b_cols, axis=1) if m else np.zeros((n, 0))
    problem = SspProblem(
        A=A, B=B, s=s, r=np.array(r), block_sizes=tuple(blocks), E=np.eye(n)
    )
    return CompiledGraph(
        problem=problem,
        node_of_state=tuple(nongoal),
        edge_of_row=tuple(edge_of_row),
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
        rows = K[sl, i] if sl.stop > sl.start else np.zeros(0)
        own = [compiled.edge_of_row[j] for j in range(sl.start, sl.stop)]
        if rows.size and rows.max() > 0:
            chosen[x] = own[int(np.argmax(rows))]
        elif own:
            # baseline action: the cheapest edge at this node
            base = min(own, key=lambda idx: (g.edges[idx].cost, idx))
            chosen[x] = base
        else:
            chosen[x] = None
    return chosen
