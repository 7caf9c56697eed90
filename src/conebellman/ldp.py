"""KL-control (linearly solvable) Markov decision problems.

States evolve by a column-stochastic matrix P̄ (column i = distribution of
the next state given the current state i).  The controller may reshape each
column into any distribution absolutely continuous w.r.t. it, paying the
state cost s plus the KL divergence of the reshaped column from the
original.  Goal states are absorbing and free.

Removing the goal rows/columns leaves a substochastic reduced system where
the Bellman equation decomposes per column.  Under z = exp(-lam) the
minimized equation collapses to the affine system

    z = G (P̄_r^T z + p̄_g),        G = diag(exp(-s_r)),

solved by Gaussian elimination once its support graph certifies
rho(G P̄_r^T) < 1 (see `solve_desirability`).  The fallback iterates the same
map as one vectorized step of the fixed-point engine from z0 = 0 (monotone
increasing).  The optimal controlled transitions then have the closed form
p_i* = p̄_i ∘ z / (p̄_i^T z + (p̄_g)_i).

Every stage runs on the support.  Each dense matrix received (P̄, a directly
built P̄_r, the P given to `kl_stage_cost`) is scanned once for its row-major
nonzeros (rows, cols, vals); all other work is O(nnz) on those arrays, and
dense outputs are scattered from them.  Column sums are `np.bincount`, which
adds each column in ascending row order as ``P.sum(axis=0)`` does, so results
keep their bits.  Only the one dense LU of the direct solve is not O(nnz).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .engine import ConvergenceTrace, SolveConfig, fixed_point_solve
from .errors import (
    CertificationError,
    GoalNotAbsorbing,
    GoalUnreachable,
    InvalidProblem,
    NoGoal,
    ShapeMismatch,
    SingularSystem,
    SupportViolation,
)

_STOCHASTIC_TOL = 1e-12


def _support(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major (rows, cols, vals) of the nonzero entries of the square P."""
    flat = np.flatnonzero(P != 0.0)
    rows, cols = np.divmod(flat, P.shape[0])
    return rows, cols, P[rows, cols]


def _colsums(cols: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Per-column sums of support weights, each added in ascending row order.

    np.bincount returns int64 zeros for an empty support; the sums stay float.
    """
    return np.bincount(cols, weights=weights, minlength=n).astype(float, copy=False)


def _scatter(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    P = np.zeros((n, n))
    P[rows, cols] = vals
    return P


def _freeze(obj, **arrays) -> None:
    for name, a in arrays.items():
        a.setflags(write=False)
        object.__setattr__(obj, name, a)


@dataclass(frozen=True)
class LdpProblem:
    """Full-system model: column-stochastic P̄, stage cost s, goal set.

    Column i of Pbar is the transition distribution FROM state i.  Goal
    semantics (absorbing, zero cost, reachable) are checked by `reduce`,
    which is the only road to a solvable reduced system.  Entries down to
    -1e-12 are clamped to zero; `Pbar` is that clamped copy.
    """

    Pbar: np.ndarray
    s: np.ndarray
    goals: tuple[int, ...]

    def __post_init__(self):
        P = np.asarray(self.Pbar, dtype=float)
        s = np.array(self.s, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ShapeMismatch(f"Pbar must be square, got {P.shape}")
        n = P.shape[0]
        if s.shape != (n,):
            raise ShapeMismatch(f"s must have length {n}, got {s.shape}")
        clamped = np.maximum(P, 0.0)  # the one copy of the caller's matrix
        rows, cols, vals = _support(P)
        if not np.all(np.isfinite(vals)):
            raise InvalidProblem("Pbar entries must be finite")
        if vals.size and float(vals.min()) < -_STOCHASTIC_TOL:
            raise InvalidProblem("Pbar entries must be nonnegative")
        kept = vals > 0.0
        rows, cols, vals = rows[kept], cols[kept], vals[kept]
        colsums = _colsums(cols, vals, n)
        if np.any(np.abs(colsums - 1.0) > _STOCHASTIC_TOL):
            worst = int(np.argmax(np.abs(colsums - 1.0)))
            raise InvalidProblem(
                f"column {worst} of Pbar sums to {float(colsums[worst])!r}, not 1"
            )
        if not np.all(np.isfinite(s)):
            raise InvalidProblem("stage cost s must be finite")
        if np.any(s < 0):
            raise InvalidProblem("stage cost s must be nonnegative")
        goals = tuple(sorted(set(int(g) for g in self.goals)))
        if goals and (goals[0] < 0 or goals[-1] >= n):
            raise InvalidProblem(f"goal ids must lie in [0, {n}), got {goals}")
        _freeze(self, Pbar=clamped, s=s, _rows=rows, _cols=cols, _vals=vals)
        object.__setattr__(self, "goals", goals)

    @property
    def n(self) -> int:
        return self.Pbar.shape[0]


@dataclass(frozen=True)
class ReducedLdp:
    """Goal-free substochastic system: Pbar_r, goal-mass vector, positive cost.

    Column i of Pbar_r plus (pbar_g)_i must sum to one: the missing mass is
    exactly what flows into the (removed) goal states.
    """

    Pbar_r: np.ndarray
    pbar_g: np.ndarray
    s_r: np.ndarray

    def __post_init__(self):
        P = np.array(self.Pbar_r, dtype=float)
        g = np.array(self.pbar_g, dtype=float)
        s = np.array(self.s_r, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ShapeMismatch(f"Pbar_r must be square, got {P.shape}")
        n = P.shape[0]
        if g.shape != (n,) or s.shape != (n,):
            raise ShapeMismatch(
                f"pbar_g and s_r must have length {n}, got {g.shape} and {s.shape}"
            )
        _adopt(self, P, g, s, _support(P))

    @property
    def n_r(self) -> int:
        return self.Pbar_r.shape[0]


def _adopt(r: ReducedLdp, P, g, s, support) -> None:
    """Check a reduced system on its support and store it, read-only, in r."""
    rows, cols, vals = support
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(g))):
        raise InvalidProblem("reduced transitions must be finite")
    if (vals.size and float(vals.min()) < 0.0) or np.any(g < 0):
        raise InvalidProblem("reduced transitions must be nonnegative")
    if np.any(np.abs(_colsums(cols, vals, g.size) + g - 1.0) > _STOCHASTIC_TOL):
        raise InvalidProblem("each column of Pbar_r plus its goal mass must sum to 1")
    if not np.all(np.isfinite(s)):
        raise InvalidProblem("reduced stage cost must be finite")
    if np.any(s < 0):
        raise InvalidProblem("reduced stage cost must be nonnegative")
    _freeze(r, Pbar_r=P, pbar_g=g, s_r=s, _rows=rows, _cols=cols, _vals=vals)


@dataclass
class LdpSolution:
    z: np.ndarray
    lam: np.ndarray
    Pstar: np.ndarray
    trace: ConvergenceTrace
    bellman_residual: float


def _reaches(rows: np.ndarray, cols: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Mask of states with a support path into the mask ``sources``.

    (rows, cols) is a row-major support and i -> j iff (j, i) is in it, so
    row j lists the states that step into j.  Each level gathers the rows of
    the frontier through the row pointer: O(nnz) work in all.
    """
    ptr = np.searchsorted(rows, np.arange(sources.size + 1))
    reached = sources.copy()
    frontier = np.flatnonzero(reached)
    while frontier.size:
        start = ptr[frontier]
        count = ptr[frontier + 1] - start
        offset = np.repeat(start - (np.cumsum(count) - count), count)
        into = cols[offset + np.arange(offset.size)]
        frontier = np.unique(into[~reached[into]])
        reached[frontier] = True
    return reached


def reduce(p: LdpProblem) -> ReducedLdp:
    """Delete goal rows/columns, aggregating per-state goal-transition mass.

    Checks the goal semantics: the set is non-empty, every goal is absorbing
    with zero cost, non-goal costs are strictly positive, and every non-goal
    state can reach some goal through the support of P̄.
    """
    if not p.goals:
        raise NoGoal("the goal set is empty")
    goals = np.array(p.goals)
    rows, cols, vals = p._rows, p._cols, p._vals
    is_goal = np.zeros(p.n, dtype=bool)
    is_goal[goals] = True
    # a goal's own diagonal entry is left out so its 1.0 cannot cancel a leak
    out = is_goal[cols] & (rows != cols)
    leak = _colsums(cols[out], vals[out], p.n)[goals]
    costly = p.s[goals] != 0.0
    bad = np.flatnonzero(costly | (leak > _STOCHASTIC_TOL))
    if bad.size:
        k, g = bad[0], goals[bad[0]]
        if costly[k]:
            raise GoalNotAbsorbing(f"goal state {g} has nonzero cost {float(p.s[g])!r}")
        raise GoalNotAbsorbing(
            f"goal state {g} leaks probability {float(leak[k])!r} to other states"
        )
    nongoal = ~is_goal
    free = np.flatnonzero(nongoal & (p.s <= 0.0))
    if free.size:
        raise InvalidProblem(f"non-goal state {free[0]} must have strictly positive cost")

    stuck = np.flatnonzero(~_reaches(rows, cols, is_goal))
    if stuck.size:
        raise GoalUnreachable(f"states {stuck.tolist()} cannot reach any goal under Pbar")

    idx = np.flatnonzero(nongoal)
    to_goal = is_goal[rows]
    pbar_g = _colsums(cols[to_goal], vals[to_goal], p.n)[idx]
    inner = nongoal[rows] & nongoal[cols]
    pos = np.cumsum(nongoal) - 1  # reduced index of each non-goal state
    support = (pos[rows[inner]], pos[cols[inner]], vals[inner])
    r = object.__new__(ReducedLdp)  # the support is known: no copy, no rescan
    _adopt(r, _scatter(idx.size, *support), pbar_g, p.s[idx], support)
    return r


def _desirability_step(r: ReducedLdp):
    """The fallback map z -> G(P̄_r^T z + p̄_g) as one step; it has no minimizer.

    The map is affine and monotone, so iterates from z0 = 0 increase toward
    the solution.
    """
    g = np.exp(-r.s_r)
    rows, cols, vals = r._rows, r._cols, r._vals
    return lambda z: (g * (_colsums(cols, vals * z[rows], r.n_r) + r.pbar_g), None)


def solve_desirability(
    r: ReducedLdp, cfg: SolveConfig | None = None
) -> tuple[np.ndarray, np.ndarray, ConvergenceTrace]:
    """Solve z = G(P̄_r^T z + p̄_g); return (z, lam, trace) with lam = -log z.

    rho(G P̄_r^T) < 1 is certified exactly first: the rows of G P̄_r^T sum to
    exp(-s_i)(1 - (p̄_g)_i) <= 1, strictly less at a deficient state (s_i > 0
    or (p̄_g)_i > 0), and then rho < 1 iff every state has a support path to
    a deficient one (absorbing chains; Berman & Plemmons, Nonnegative Matrices
    in the Mathematical Sciences, ch. 6), else SingularSystem.  Then the direct
    solve of (I - G P̄_r^T) z = G p̄_g, or, if that fails or leaves a residual
    at or above tol, the affine map iterated from z0 = 0.  Certifies the final
    residual below tol and z in (0, 1].
    """
    cfg = cfg or SolveConfig()
    t0 = time.perf_counter_ns()
    rows, cols, vals = r._rows, r._cols, r._vals
    n = r.n_r
    deficient = (r.s_r > 0.0) | (r.pbar_g > 0.0)
    if not deficient.all():
        closed = np.flatnonzero(~_reaches(rows, cols, deficient))
        if closed.size:
            raise SingularSystem(
                f"rho(G Pbar_r^T) = 1: states {closed.tolist()} never reach the goal"
            )
    g = np.exp(-r.s_r)
    gp = g[cols] * vals  # entry (cols, rows) of G P̄_r^T
    rhs = g * r.pbar_g

    def affine_residual(z: np.ndarray) -> float:
        return float(np.abs(z - (_colsums(cols, gp * z[rows], n) + rhs)).max(initial=0.0))

    # I - G P̄_r^T rounded as np.eye(n) - G P̄_r^T rounds it: 0.0 - x off the
    # diagonal (+0.0 where x underflows) and 1.0 - x on it
    M = _scatter(n, cols, rows, 0.0 - gp)
    M.reshape(-1)[:: n + 1] += 1.0
    z = None
    try:
        cand = np.linalg.solve(M, rhs)
        residual = affine_residual(cand)
        if residual < cfg.tol:
            z = cand
            trace = ConvergenceTrace()
            trace.append(0, residual, time.perf_counter_ns() - t0)
    except np.linalg.LinAlgError:
        z = None
    if z is None:
        # iterate to stationarity below tol (the engine certifies 10x its tol)
        inner = replace(cfg, tol=cfg.tol / 10.0)
        result = fixed_point_solve(_desirability_step(r), np.zeros(n), inner)
        z = result.value
        trace = result.trace
        residual = affine_residual(z)

    if not residual < cfg.tol:  # a NaN residual fails too
        raise CertificationError(
            f"desirability residual {residual:.3e} >= tol {cfg.tol:.3e}"
        )
    if z.size and float(z.min()) <= 0.0:
        raise CertificationError("desirability has non-positive entries")
    if z.size and float(z.max()) > 1.0 + 1e-12:
        raise CertificationError(
            f"desirability exceeds 1 (max {float(z.max())!r}); costs must be >= 0"
        )
    z = np.minimum(z, 1.0)
    lam = -np.log(z)
    return z, lam, trace


def optimal_policy(r: ReducedLdp, lam: np.ndarray) -> np.ndarray:
    """Closed-form minimizing transitions: p_i* = p̄_i ∘ z / (p̄_i^T z + (p̄_g)_i).

    Zeros of p̄_i stay exactly zero, and each column's implied goal mass
    1 - 1^T p_i* is nonnegative because the goal term sits in the denominator.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (r.n_r,):
        raise ShapeMismatch(f"lam must have length {r.n_r}, got {lam.shape}")
    if lam.size and not np.all(np.isfinite(lam)):
        raise InvalidProblem("lam must be finite")
    rows, cols = r._rows, r._cols
    w = r._vals * np.exp(-lam)[rows]
    denom = _colsums(cols, w, r.n_r) + r.pbar_g
    return _scatter(r.n_r, rows, cols, w / denom[cols])


def kl_stage_cost(r: ReducedLdp, P: np.ndarray) -> np.ndarray:
    """Per-state cost of running controlled transitions P instead of P̄_r.

    h_i = s_i + sum_j P_ji log(P_ji / P̄_ji) + g_i log(g_i / (p̄_g)_i), where
    g_i = 1 - 1^T p_i is the controlled goal mass; 0 log 0 terms are zero.
    Columns must stay inside the support of P̄_r (anything else has infinite
    KL cost), and states with zero goal mass in P̄_r must keep zero goal mass.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (r.n_r, r.n_r):
        raise ShapeMismatch(f"P must be {r.n_r} x {r.n_r}, got {P.shape}")
    rows, cols, vals = _support(P)
    if vals.size and float(vals.min()) < -_STOCHASTIC_TOL:
        raise InvalidProblem("P entries must be nonnegative")
    if not np.all(np.isfinite(vals)):
        raise InvalidProblem("P entries must be finite")
    # entries clamped to zero leave the support
    kept = vals >= 0.0
    rows, cols, vals = rows[kept], cols[kept], vals[kept]
    pbar = r.Pbar_r[rows, cols]
    if np.any(pbar == 0.0):
        raise SupportViolation(
            "P places mass where Pbar_r has none (infinite divergence)"
        )
    goal_mass = 1.0 - _colsums(cols, vals, r.n_r)
    if np.any(goal_mass < -_STOCHASTIC_TOL):
        raise InvalidProblem("columns of P must be substochastic")
    off_support_goal = (r.pbar_g == 0.0) & (np.abs(goal_mass) > _STOCHASTIC_TOL)
    if np.any(off_support_goal):
        bad = int(np.argmax(off_support_goal))
        raise SupportViolation(
            f"column {bad} sends mass {goal_mass[bad]!r} to the goal but "
            "Pbar_r gives that state no goal transition"
        )

    kl = _colsums(cols, vals * np.log(vals / pbar), r.n_r)
    gm = np.maximum(goal_mass, 0.0)
    safe_goal = np.where(r.pbar_g > 0.0, r.pbar_g, 1.0)
    pi = np.where(gm > 0.0, gm * np.log(np.where(gm > 0.0, gm, 1.0) / safe_goal), 0.0)
    return r.s_r + kl + pi


def verify_bellman(r: ReducedLdp, lam: np.ndarray, Pstar: np.ndarray) -> float:
    """Sup-norm defect of (lam, Pstar) in lam = h(Pstar) + Pstar^T lam."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (r.n_r,):
        raise ShapeMismatch(f"lam must have length {r.n_r}, got {lam.shape}")
    h = kl_stage_cost(r, Pstar)
    return float(np.abs(lam - (h + np.asarray(Pstar).T @ lam)).max(initial=0.0))


def solve_ldp(p: LdpProblem, cfg: SolveConfig | None = None) -> LdpSolution:
    """Full pipeline: reduce, solve desirability, recover policy, certify.

    The returned lam/z/Pstar are indexed by non-goal states in ascending
    original order (the order `reduce` uses).
    """
    cfg = cfg or SolveConfig()
    r = reduce(p)
    z, lam, trace = solve_desirability(r, cfg)
    Pstar = optimal_policy(r, lam)
    residual = verify_bellman(r, lam, Pstar)
    if not residual < 10.0 * cfg.tol:  # a NaN residual fails too
        raise CertificationError(
            f"Bellman residual {residual:.3e} >= {10.0 * cfg.tol:.3e}"
        )
    return LdpSolution(z=z, lam=lam, Pstar=Pstar, trace=trace, bellman_residual=residual)
