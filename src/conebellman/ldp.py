"""KL-control (linearly solvable) Markov decision problems.

States evolve by a column-stochastic matrix P̄ (column i = distribution of
the next state given the current state i).  The controller may reshape each
column into any distribution absolutely continuous w.r.t. it, paying the
state cost s plus the KL divergence of the reshaped column from the
original.  Goal states are absorbing and free.

Removing the goal rows/columns leaves a substochastic reduced system where
the Bellman equation decomposes per column.  Minimized in closed form it is

    F(lam) = lam - s_r + log(P̄_r^T e^{-lam} + p̄_g) = 0,

the equation z = G (P̄_r^T z + p̄_g), G = diag(e^{-s_r}), of the
desirability z = e^{-lam} written in lam, where nothing underflows.
`solve_desirability` solves it by Newton's method, which is policy
iteration: each step evaluates the current greedy policy with one sparse
Krylov solve.  The optimal controlled transitions have the closed form
p_i* = p̄_i ∘ z / (p̄_i^T z + (p̄_g)_i), evaluated with each column shifted
by its least lam so that large values never turn it into 0/0.

Every stage runs on the support (see `sparse`).  Each dense matrix received
(P̄, a directly built P̄_r, the P given to `kl_stage_cost`) is scanned once
for its support; `reduce` hands the reduced support to ReducedLdp with no
rescan.  All other work runs on supports in O(nnz) passes (one per level
of the reachability search `sparse.reaches`, one per matrix-vector
product of a Krylov step), and dense outputs are scattered from them.
Column sums add each column in ascending row order as ``P.sum(axis=0)``
does, and inner products are numpy reductions rather than BLAS calls, so
results do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .engine import SolveConfig, TraceRecord
from .errors import CertificationError, InputError, MaxIterExceeded, SolveFailure
from .sparse import Support, colsums, dense, frozen, reaches, scan, tdot

_STOCHASTIC_TOL = 1e-12
_RESTART = 30  # Krylov basis size of one GMRES cycle
_DEGREE = 3  # terms of the Neumann polynomial of the first GMRES cycle
_NEWTON_STEPS = 50  # Newton still above tol after this many steps has stalled
_sum = np.add.reduce  # np.sum's reduction without its Python wrapper


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
        s = frozen(self.s)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise InputError(f"Pbar must be square, got {P.shape}")
        n = P.shape[0]
        if s.shape != (n,):
            raise InputError(f"s must have length {n}, got {s.shape}")
        clamped = np.maximum(P, 0.0)  # the one copy of the caller's matrix
        S = scan(P)
        if not np.all(np.isfinite(S.vals)):
            raise InputError("Pbar entries must be finite")
        if S.vals.size and float(S.vals.min()) < -_STOCHASTIC_TOL:
            raise InputError("Pbar entries must be nonnegative")
        kept = S.vals > 0.0
        S = Support(S.shape, S.rows[kept], S.cols[kept], S.vals[kept])
        sums = colsums(S.cols, S.vals, n)
        if np.any(np.abs(sums - 1.0) > _STOCHASTIC_TOL):
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise InputError(
                f"column {worst} of Pbar sums to {float(sums[worst])!r}, not 1"
            )
        if not np.all(np.isfinite(s)):
            raise InputError("stage cost s must be finite")
        if np.any(s < 0):
            raise InputError("stage cost s must be nonnegative")
        goals = tuple(sorted(set(int(g) for g in self.goals)))
        if goals and (goals[0] < 0 or goals[-1] >= n):
            raise InputError(f"goal ids must lie in [0, {n}), got {goals}")
        for a in (clamped, *S[1:]):
            a.setflags(write=False)
        object.__setattr__(self, "Pbar", clamped)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "goals", goals)
        object.__setattr__(self, "_Pbar", S)

    @property
    def n(self) -> int:
        return self.Pbar.shape[0]


@dataclass(frozen=True)
class ReducedLdp:
    """Goal-free substochastic system: Pbar_r, goal-mass vector, positive cost.

    Column i of Pbar_r plus (pbar_g)_i must sum to one: the missing mass is
    exactly what flows into the (removed) goal states.  Pbar_r is a dense
    matrix or its support (as `reduce` passes it); the attribute is the
    read-only dense matrix either way, and the solvers read the support.
    """

    Pbar_r: np.ndarray
    pbar_g: np.ndarray
    s_r: np.ndarray

    def __post_init__(self):
        S = self.Pbar_r if isinstance(self.Pbar_r, Support) else None
        P = frozen(self.Pbar_r) if S is None else dense(S)
        g = frozen(self.pbar_g)
        s = frozen(self.s_r)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise InputError(f"Pbar_r must be square, got {P.shape}")
        n = P.shape[0]
        if g.shape != (n,) or s.shape != (n,):
            raise InputError(
                f"pbar_g and s_r must have length {n}, got {g.shape} and {s.shape}"
            )
        S = scan(P) if S is None else S
        if not (np.all(np.isfinite(S.vals)) and np.all(np.isfinite(g))):
            raise InputError("reduced transitions must be finite")
        if (S.vals.size and float(S.vals.min()) < 0.0) or np.any(g < 0):
            raise InputError("reduced transitions must be nonnegative")
        if np.any(np.abs(colsums(S.cols, S.vals, n) + g - 1.0) > _STOCHASTIC_TOL):
            raise InputError("each column of Pbar_r plus its goal mass must sum to 1")
        if not np.all(np.isfinite(s)):
            raise InputError("reduced stage cost must be finite")
        if np.any(s < 0):
            raise InputError("reduced stage cost must be nonnegative")
        for a in (P, *S[1:]):
            a.setflags(write=False)
        object.__setattr__(self, "Pbar_r", P)
        object.__setattr__(self, "pbar_g", g)
        object.__setattr__(self, "s_r", s)
        object.__setattr__(self, "_Pbar_r", S)

    @property
    def n_r(self) -> int:
        return self.Pbar_r.shape[0]


@dataclass
class LdpSolution:
    z: np.ndarray
    lam: np.ndarray
    Pstar: np.ndarray
    trace: list[TraceRecord]
    bellman_residual: float


def reduce(p: LdpProblem) -> ReducedLdp:
    """Delete goal rows/columns, aggregating per-state goal-transition mass.

    Checks the goal semantics: the set is non-empty, every goal is absorbing
    with zero cost, non-goal costs are strictly positive, and every non-goal
    state can reach some goal through the support of P̄.
    """
    if not p.goals:
        raise InputError("the goal set is empty")
    goals = np.array(p.goals)
    _, rows, cols, vals = S = p._Pbar
    is_goal = np.zeros(p.n, dtype=bool)
    is_goal[goals] = True
    # a goal's own diagonal entry is left out so its 1.0 cannot cancel a leak
    out = is_goal[cols] & (rows != cols)
    leak = colsums(cols[out], vals[out], p.n)[goals]
    costly = p.s[goals] != 0.0
    bad = np.flatnonzero(costly | (leak > _STOCHASTIC_TOL))
    if bad.size:
        k, g = bad[0], goals[bad[0]]
        if costly[k]:
            raise InputError(f"goal state {g} has nonzero cost {float(p.s[g])!r}")
        raise InputError(
            f"goal state {g} leaks probability {float(leak[k])!r} to other states"
        )
    nongoal = ~is_goal
    free = np.flatnonzero(nongoal & (p.s <= 0.0))
    if free.size:
        raise InputError(f"non-goal state {free[0]} must have strictly positive cost")

    stuck = np.flatnonzero(~reaches(rows, cols, is_goal))
    if stuck.size:
        raise InputError(f"states {stuck.tolist()} cannot reach any goal under Pbar")

    idx = np.flatnonzero(nongoal)
    to_goal = is_goal[rows]
    pbar_g = colsums(cols[to_goal], vals[to_goal], p.n)[idx]
    inner = nongoal[rows] & nongoal[cols]
    pos = np.cumsum(nongoal) - 1  # reduced index of each non-goal state
    reduced = Support((idx.size, idx.size), pos[rows[inner]], pos[cols[inner]], vals[inner])
    return ReducedLdp(Pbar_r=reduced, pbar_g=pbar_g, s_r=p.s[idx])


def _shifted(S: Support, pbar_g: np.ndarray, lam: np.ndarray):
    """Column shift m, shifted weights w and column totals T at lam.

    m_i is the least lam_j over column i's support, together with 0 when
    (p̄_g)_i > 0, so w_ji = P̄_ji e^{m_i - lam_j} <= P̄_ji and the largest
    term of each T_i = sum_j w_ji + (p̄_g)_i e^{m_i} is not shifted at all:
    nothing underflows before the log, and
    log(P̄^T e^{-lam} + p̄_g)_i = log T_i - m_i.
    """
    m = np.where(pbar_g > 0.0, 0.0, np.inf)
    lam_rows = lam[S.rows]
    np.minimum.at(m, S.cols, lam_rows)
    w = S.vals * np.exp(m[S.cols] - lam_rows)
    # a column with no goal mass may have m > 0; its goal term is 0 either way
    T = colsums(S.cols, w, len(lam)) + pbar_g * np.exp(np.minimum(m, 0.0))
    return m, w, T


def _norm(x: np.ndarray) -> float:
    return math.sqrt(_sum(x * x))


def _gmres(P: Support, b: np.ndarray) -> np.ndarray:
    """x with |b - (I - P^T) x|_2 <= eta min(|b|_2, 1) by GMRES's residual norm.

    eta = min(0.1, max(|b|_2, 1e-4)).  Near the solution b = -F and
    eta = |F|_2, so Newton converges quadratically.  Far from it the error
    is capped in absolute terms: a looser step can land lam below the
    solution, where P* nearly closes a cycle with no goal mass and the next
    Jacobian is nearly singular.

    GMRES runs right-preconditioned by the Neumann polynomial
    M^-1 = I + P^T + ... + (P^T)^(d - 1), on the operator
    (I - P^T) M^-1 = I - (P^T)^d, whose eigenvalues cluster at 1
    (Saad, Iterative Methods for Sparse Linear Systems, 2nd ed., sec. 12.3);
    right preconditioning leaves the residual that of the original system.
    Arnoldi uses classical Gram-Schmidt, and Givens rotations reduce each
    Hessenberg column as it arrives, so the residual norm of every step is
    known without a least-squares solve (Saad & Schultz, SIAM J. Sci. Stat.
    Comput. 7, 1986).  The solve ends when that norm meets the target.
    After _RESTART steps short of it, the next cycle restarts from the true
    residual with d doubled (d = _DEGREE at first).  A cycle applies a
    polynomial of degree _RESTART d in P^T, and along a chain of states that
    is how far it carries the solution: on a deterministic chain of 2,000
    states the cycles with d = 3, 6, 12 and 24 leave 0.98, 0.93, 0.83 and
    0.57 of their residual, and the fifth meets the target.  Step j of
    Gram-Schmidt costs O(j n), so short cycles with a growing d cross long
    chains sooner than long ones: GMRES(100) took 1.7 to 2.6 times as long
    on chains and a ring of 1,500 to 2,600 states, and about as long on
    random systems of 300 and 700 states.  A cycle that leaves the true
    residual no lower (or NaN), or a restart past d = _DEGREE n, raises
    MaxIterExceeded: from d = n on, (P^T)^d is zero on every acyclic
    support, so the preconditioner alone is exact there.  A zero Hessenberg
    column, I - P^T singular in floating point, raises SolveFailure.  Every
    inner product is an np.add.reduce, never a BLAS call, so x does not
    depend on the BLAS thread count.
    """
    n = b.size
    x = np.zeros(n)
    residual = b
    beta = _norm(b)
    target = min(0.1, max(beta, 1e-4)) * min(beta, 1.0)
    V = np.empty((min(_RESTART, n) + 1, n))
    degree = _DEGREE
    steps = 0
    last = math.inf
    while not beta <= target:
        if not beta < last or degree > _DEGREE * n:
            raise MaxIterExceeded(
                f"Krylov solve stalled at residual {beta:.3e} (target {target:.3e}) "
                f"after {steps} steps"
            )
        last = beta
        np.divide(residual, beta, out=V[0])
        R: list[list[float]] = []  # columns of the rotated Hessenberg matrix
        cs: list[float] = []
        sn: list[float] = []
        g = [beta]  # the rotated right-hand side beta e_1
        for j in range(V.shape[0] - 1):
            v = u = V[j]
            for _ in range(degree):
                u = tdot(P, u)
            w = v - u  # (I - (P^T)^d) v
            basis = V[: j + 1]
            h = _sum(basis * w, axis=1)
            w -= _sum(h[:, None] * basis, axis=0)
            col = h.tolist()
            h_next = _norm(w)
            for i in range(j):
                a, c = col[i], col[i + 1]
                col[i] = cs[i] * a + sn[i] * c
                col[i + 1] = cs[i] * c - sn[i] * a
            d = math.hypot(col[j], h_next)
            if d == 0.0:
                raise SolveFailure("Krylov solve broke down: I - P*^T is singular")
            cs.append(col[j] / d)
            sn.append(h_next / d)
            col[j] = d
            g.append(-sn[j] * g[j])
            g[j] *= cs[j]
            R.append(col)
            if abs(g[j + 1]) <= target or h_next == 0.0:
                break
            np.divide(w, h_next, out=V[j + 1])
        k = len(R)
        steps += k
        y = [0.0] * k
        for i in range(k - 1, -1, -1):
            acc = g[i]
            for l in range(i + 1, k):
                acc -= R[l][i] * y[l]
            y[i] = acc / R[i][i]
        step = _sum(np.array(y)[:, None] * V[:k], axis=0)
        x = x + step
        for _ in range(degree - 1):  # x += M^-1 (V y), term by term
            step = tdot(P, step)
            x = x + step
        if abs(g[k]) <= target:
            return x
        residual = b - (x - tdot(P, x))
        beta = _norm(residual)
        degree *= 2
    return x


def solve_desirability(
    r: ReducedLdp, cfg: SolveConfig | None = None
) -> tuple[np.ndarray, np.ndarray, list[TraceRecord]]:
    """Solve the Bellman equation for lam by Newton's method; return (z, lam, trace).

    The equation is F(lam) = lam - s_r + log(P̄_r^T e^{-lam} + p̄_g) = 0,
    evaluated with the per-column shift of `_shifted`, and z = e^{-lam}
    (which may underflow to 0 where lam is large).  Its Jacobian is
    I - P*^T, with P* the policy `optimal_policy` returns at lam, so Newton
    is policy iteration for linearly solvable MDPs (Todorov, PNAS 106, 2009).

    Certified first, exactly, on the support: every state must reach goal
    mass ((p̄_g)_j > 0).  A state that cannot reach a state with positive
    cost or goal mass raises SolveFailure, as rho(G P̄_r^T) = 1 there
    (absorbing chains; Berman & Plemmons, Nonnegative Matrices in the
    Mathematical Sciences, ch. 6); one that reaches only costly states has
    infinite value and raises CertificationError.  Then I - P^T is a
    nonsingular M-matrix for every policy P on the support of P̄_r.

    Newton's first step is taken at lam = 0, where F = -s_r and P* = P̄_r,
    so it solves for the passive policy's cost, (I - P̄_r^T) lam = s_r.
    Each step solves (I - P*^T) delta = -F(lam) by restarted GMRES (see
    `_gmres`).  Once sup|F| < tol, which a NaN or infinite lam never meets,
    one more step is taken: there Newton converges quadratically, so it
    takes lam to rounding level, and of the two iterates the one with the
    smaller residual is returned.  The trace holds sup|F| at every iterate
    from the passive cost on.  A Krylov solve that stalls, or more than
    min(max_iter, 50) steps, raise MaxIterExceeded.
    """
    S = r._Pbar_r
    to_goal = r.pbar_g > 0.0
    reach = reaches(S.rows, S.cols, to_goal)
    if not reach.all():
        deficient = (r.s_r > 0.0) | to_goal
        closed = np.flatnonzero(~reaches(S.rows, S.cols, deficient))
        if closed.size:
            raise SolveFailure(
                f"rho(G Pbar_r^T) = 1: states {closed.tolist()} never reach the goal"
            )
        raise CertificationError(
            f"states {np.flatnonzero(~reach).tolist()} never reach goal mass: "
            "their value is infinite"
        )
    cfg = cfg or SolveConfig()
    t0 = time.perf_counter_ns()
    # at lam = 0, F = -s_r and P* = P̄_r: the first step is the passive cost
    lam = _gmres(S, r.s_r)
    trace: list[TraceRecord] = []
    met = None  # (residual, lam) at the first iterate below tol
    while True:
        m, w, T = _shifted(S, r.pbar_g, lam)
        F = lam - r.s_r + (np.log(T) - m)
        residual = float(np.abs(F).max(initial=0.0))
        trace.append(TraceRecord(len(trace), residual, time.perf_counter_ns() - t0))
        if met is not None:
            if not residual <= met[0]:
                lam = met[1]
            break
        if residual < cfg.tol:
            met = (residual, lam)
        elif len(trace) >= min(cfg.max_iter, _NEWTON_STEPS):
            raise MaxIterExceeded(
                f"Newton residual {residual:.3e} still above tol {cfg.tol:.1e} "
                f"after {len(trace)} steps"
            )
        lam = lam + _gmres(S._replace(vals=w / T[S.cols]), -F)
    return np.exp(-lam), lam, trace


def optimal_policy(r: ReducedLdp, lam: np.ndarray) -> np.ndarray:
    """Closed-form minimizing transitions: p_i* = p̄_i ∘ z / (p̄_i^T z + (p̄_g)_i).

    Evaluated with the per-column shift of `_shifted`, so large lam never
    turns a column into 0/0.  Zeros of p̄_i stay exactly zero, and each
    column's implied goal mass 1 - 1^T p_i* is nonnegative because the goal
    term sits in the denominator.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (r.n_r,):
        raise InputError(f"lam must have length {r.n_r}, got {lam.shape}")
    if lam.size and not np.all(np.isfinite(lam)):
        raise InputError("lam must be finite")
    S = r._Pbar_r
    _, w, T = _shifted(S, r.pbar_g, lam)
    return dense(S._replace(vals=w / T[S.cols]))


def _stage_cost(r: ReducedLdp, P: np.ndarray) -> tuple[np.ndarray, Support]:
    """`kl_stage_cost` of P, and the support of P it summed over."""
    P = np.asarray(P, dtype=float)
    if P.shape != (r.n_r, r.n_r):
        raise InputError(f"P must be {r.n_r} x {r.n_r}, got {P.shape}")
    _, rows, cols, vals = scan(P)
    if vals.size and float(vals.min()) < -_STOCHASTIC_TOL:
        raise InputError("P entries must be nonnegative")
    if not np.all(np.isfinite(vals)):
        raise InputError("P entries must be finite")
    # entries clamped to zero leave the support
    kept = vals >= 0.0
    rows, cols, vals = rows[kept], cols[kept], vals[kept]
    pbar = r.Pbar_r[rows, cols]
    if np.any(pbar == 0.0):
        raise InputError(
            "P places mass where Pbar_r has none (infinite divergence)"
        )
    goal_mass = 1.0 - colsums(cols, vals, r.n_r)
    if np.any(goal_mass < -_STOCHASTIC_TOL):
        raise InputError("columns of P must be substochastic")
    off_support_goal = (r.pbar_g == 0.0) & (np.abs(goal_mass) > _STOCHASTIC_TOL)
    if np.any(off_support_goal):
        bad = int(np.argmax(off_support_goal))
        raise InputError(
            f"column {bad} sends mass {float(goal_mass[bad])!r} to the goal but "
            "Pbar_r gives that state no goal transition"
        )

    kl = colsums(cols, vals * np.log(vals / pbar), r.n_r)
    gm = np.maximum(goal_mass, 0.0)
    safe_goal = np.where(r.pbar_g > 0.0, r.pbar_g, 1.0)
    pi = np.where(gm > 0.0, gm * np.log(np.where(gm > 0.0, gm, 1.0) / safe_goal), 0.0)
    return r.s_r + kl + pi, Support(P.shape, rows, cols, vals)


def kl_stage_cost(r: ReducedLdp, P: np.ndarray) -> np.ndarray:
    """Per-state cost of running controlled transitions P instead of P̄_r.

    h_i = s_i + sum_j P_ji log(P_ji / P̄_ji) + g_i log(g_i / (p̄_g)_i), where
    g_i = 1 - 1^T p_i is the controlled goal mass; 0 log 0 terms are zero.
    Columns must stay inside the support of P̄_r (anything else has infinite
    KL cost), and states with zero goal mass in P̄_r must keep zero goal mass.
    """
    return _stage_cost(r, P)[0]


def verify_bellman(r: ReducedLdp, lam: np.ndarray, Pstar: np.ndarray) -> float:
    """Sup-norm defect of (lam, Pstar) in lam = h(Pstar) + Pstar^T lam.

    Pstar^T lam is summed over the support `kl_stage_cost` scans, each
    column in ascending row order.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (r.n_r,):
        raise InputError(f"lam must have length {r.n_r}, got {lam.shape}")
    h, P = _stage_cost(r, Pstar)
    return float(np.abs(lam - (h + tdot(P, lam))).max(initial=0.0))


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
