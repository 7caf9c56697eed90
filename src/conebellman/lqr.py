"""Discrete-time LQR through the same block fixed-point lens.

For ``x(t+1) = A x(t) + B u(t)`` with cost ``x^T Q x + u^T R u``, the
quadratic value ansatz ``J(x) = x^T lam x`` turns the Bellman operator into
a Riccati map.  With ``S = R + B^T lam B`` and ``G = B^T lam A``, completing
the square gives

    lam' = Q + A^T lam A + G^T K,        K = -S^{-1} G.

Factoring ``S = L L^T`` splits the input minimization into m independent
rank-1 problems (``K = -L^{-T} M`` and ``G^T S^{-1} G = M^T M`` with
``M = L^{-1} G``); one LAPACK Cholesky per sweep checks that S is positive
definite and one LAPACK solve yields K.

Plain sweeps from Q converge only linearly, so the solve starts them from a
seed computed by the structure-preserving doubling algorithm (SDA; Chu, Fan,
Lin & Wang, Int. J. Control 2004).  Its k-th iterate is the (2**k - 1)-th
Riccati iterate from Q, so it converges quadratically to the same limit,
and the sweeps from the seed certify it exactly as they would certify the
limit reached from Q.  When doubling cannot run or does not settle, the
sweeps start from Q.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .engine import SolveConfig, TraceRecord, fixed_point_solve, spectral_radius
from .errors import CertificationError, InputError, MaxIterExceeded, SolveFailure
from .sparse import frozen

logger = logging.getLogger("conebellman.lqr")

#: relative tolerance for accepting a nearly-symmetric matrix before symmetrizing
SYMMETRY_TOL = 1e-12

# doubling steps before the seed falls back to Q: 40 steps stand for about
# 2**40 sweeps from Q, far past the engine's default budget of 100,000 sweeps
_SDA_MAX_STEPS = 40
# a doubling step that moves no entry by more than this fraction of the
# largest one has reached rounding: the next would move it by its square
_SDA_RTOL = 1e-14

_LYAPUNOV_TOL = 1e-12
# 2**64 Lyapunov sweeps: the doubling summands shrink like rho**(2**k), which
# underflows within this budget for every spectral radius a double below 1 holds
_LYAPUNOV_MAX_DOUBLINGS = 64


def _symmetrized(name: str, S: np.ndarray) -> np.ndarray:
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InputError(f"{name} must be square, got {S.shape}")
    scale = max(1.0, float(np.max(np.abs(S))) if S.size else 0.0)
    if S.size and float(np.max(np.abs(S - S.T))) > SYMMETRY_TOL * scale:
        raise InputError(f"{name} must be symmetric")
    return 0.5 * (S + S.T)


@dataclass(frozen=True)
class LqrProblem:
    """Dynamics (A, B) and symmetric weights (Q, R).

    Every entry must be finite.  Intake accepts either Q positive definite
    with R PSD, or Q PSD with R positive definite (the latter with a logged
    warning: positivity of the converged value matrix is then certified a
    posteriori rather than guaranteed up front).
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        A, B, Q, R = (np.asarray(M, dtype=float) for M in (self.A, self.B, self.Q, self.R))
        for name, M in zip("ABQR", (A, B, Q, R)):
            if not np.isfinite(M).all():
                raise InputError(f"{name} must be finite")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InputError(f"A must be square, got {A.shape}")
        n = A.shape[0]
        if n < 1:
            raise InputError("A must have at least one state, got shape (0, 0)")
        if B.ndim != 2 or B.shape[0] != n:
            raise InputError(f"B must be n x m with n={n}, got {B.shape}")
        m = B.shape[1]
        Q = _symmetrized("Q", Q)
        R = _symmetrized("R", R)
        if Q.shape != (n, n):
            raise InputError(f"Q must be {n} x {n}, got {Q.shape}")
        if R.shape != (m, m):
            raise InputError(f"R must be {m} x {m}, got {R.shape}")
        q_min = float(np.linalg.eigvalsh(Q)[0])
        r_min = float(np.linalg.eigvalsh(R)[0]) if m else 0.0
        # the iteration starts from Q, so Q must also lie in the PSD cone to
        # 1e-10 absolute
        q_slack = min(1e-12 * max(1.0, float(np.max(np.abs(Q)))), 1e-10)
        r_slack = 1e-12 * max(1.0, float(np.max(np.abs(R))) if R.size else 0.0)
        if q_min > 0.0 and r_min >= -r_slack:
            pass
        elif q_min >= -q_slack and r_min > 0.0:
            logger.warning(
                "Q is only positive semidefinite (min eigenvalue %.3e); "
                "positivity of the value matrix will be certified after the solve",
                q_min,
            )
        else:
            raise InputError(
                "need Q > 0 with R >= 0, or Q >= 0 with R > 0 "
                f"(min eigenvalues: Q {q_min:.3e}, R {r_min:.3e})"
            )
        for name, M in zip("ABQR", (A, B, Q, R)):
            object.__setattr__(self, name, frozen(M))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass
class LqrSolution:
    lam: np.ndarray
    K: np.ndarray
    trace: list[TraceRecord]
    dare_residual: float
    rho_closed_loop: float


def _riccati_core(p: LqrProblem, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """riccati_step without input validation (lam trusted symmetric)."""
    lam_B = lam @ p.B
    S = p.R + p.B.T @ lam_B
    G = lam_B.T @ p.A
    if S.size:
        try:
            diag = np.linalg.cholesky(S).diagonal()
        except np.linalg.LinAlgError:
            raise SolveFailure("R + B^T lam B is not positive definite") from None
        # LAPACK's pivots are the squared diagonal of L
        floor = 1e-14 * np.abs(S).max()
        if diag.min() ** 2 <= floor:
            j = int(diag.argmin())
            raise SolveFailure(
                f"pivot {diag[j] ** 2:.6e} at column {j} (threshold {floor:.6e})"
            )
    K = -np.linalg.solve(S, G)
    lam_next = p.Q + p.A.T @ (lam @ p.A) + G.T @ K
    return 0.5 * (lam_next + lam_next.T), K


def riccati_step(p: LqrProblem, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Riccati map evaluation: lam' = Q + A^T lam A + G^T K, K = -S^{-1} G.

    S = R + B^T lam B must be positive definite: SolveFailure is
    raised when its Cholesky factorization fails or its smallest pivot is at
    or below 1e-14 * max|S|.  The result is symmetrized on emit, and repeated
    calls with the same input are bitwise reproducible.
    """
    lam = _symmetrized("lam", np.asarray(lam, dtype=float))
    if lam.shape != (p.n, p.n):
        raise InputError(f"lam must be {p.n} x {p.n}, got {lam.shape}")
    return _riccati_core(p, lam)


def dare_residual(p: LqrProblem, lam: np.ndarray) -> float:
    """Sup-norm defect of lam in the algebraic Riccati equation."""
    lam_next, _ = riccati_step(p, lam)
    return float(np.max(np.abs(lam_next - np.asarray(lam, dtype=float))))


def _doubling_seed(p: LqrProblem) -> np.ndarray | None:
    """Limit of the Riccati iteration from Q by structure-preserving doubling.

    From A_0 = A, G_0 = B R^{-1} B^T and H_0 = Q, each step solves
    W = I + G H against [A | G] once and sets H <- H + A^T H W^{-1} A,
    G <- G + A W^{-1} G A^T and A <- A W^{-1} A.  H_k is the (2**k - 1)-th
    Riccati iterate from Q, so the gap between steps shrinks quadratically.
    Returns None when R or W is singular, an iterate is not finite, or the
    gap has not settled within _SDA_MAX_STEPS steps.
    """
    n = p.n
    A, H = p.A, p.Q
    with np.errstate(all="ignore"):
        try:
            M = np.linalg.solve(np.linalg.cholesky(p.R), p.B.T)
        except np.linalg.LinAlgError:
            return None
        G = M.T @ M
        for _ in range(_SDA_MAX_STEPS):
            W = G @ H
            W.flat[:: n + 1] += 1.0  # W = I + G H, without an identity temporary
            try:
                X = np.linalg.solve(W, np.hstack([A, G]))
            except np.linalg.LinAlgError:
                return None
            WA, WG = X[:, :n], X[:, n:]
            H_next = H + A.T @ (H @ WA)
            H_next = 0.5 * (H_next + H_next.T)
            G = G + A @ WG @ A.T
            G = 0.5 * (G + G.T)
            A = A @ WA
            # a non-finite A or G reaches H through the next step's solve
            scale = float(np.abs(H_next).max())
            if not np.isfinite(scale):
                return None
            gap = float(np.abs(H_next - H).max())
            H = H_next
            if gap <= _SDA_RTOL * scale:
                return H
    return None


def solve_lqr(p: LqrProblem, cfg: SolveConfig | None = None) -> LqrSolution:
    """Iterate the Riccati map to its fixed point from a doubling seed.

    The iteration is the finite-horizon backup with terminal weight Q, so
    the iterates are monotone nondecreasing in the semidefinite order.  The
    sweeps start from the limit that structure-preserving doubling reaches
    along the same iteration, or from lam0 = Q when doubling fails (R
    singular, a singular or non-finite doubling step, or no settling within
    40 steps).  On convergence the solution is certified: lam strictly
    positive definite, closed loop A + BK with spectral radius (the largest
    modulus of its LAPACK eigenvalues) below one, and Riccati defect below
    10 * tol.  Unstabilizable systems diverge (value grows without bound)
    rather than failing intake.
    """
    cfg = cfg or SolveConfig()
    seed = _doubling_seed(p)
    lam0 = p.Q if seed is None else seed
    # iterates are the step's own symmetrized emissions, so none is re-validated
    result = fixed_point_solve(lambda lam: _riccati_core(p, lam), lam0, cfg)
    lam = result.value
    K = result.minimizer
    min_eig = float(np.linalg.eigvalsh(lam)[0])
    if not min_eig > 0.0:
        raise CertificationError(
            f"converged value matrix is not positive definite (min eig {min_eig:.3e})"
        )
    rho = spectral_radius(p.A + p.B @ K)
    if not rho < 1.0:  # a NaN radius fails too
        raise CertificationError(f"closed-loop spectral radius {rho:.6f} >= 1")
    # the engine's certifying sweep ran the Riccati map at exactly this lam
    if not result.residual < 10.0 * cfg.tol:
        raise CertificationError(
            f"Riccati equation residual {result.residual:.3e} >= {10.0 * cfg.tol:.3e}"
        )
    return LqrSolution(
        lam=lam,
        K=K,
        trace=result.trace,
        dare_residual=result.residual,
        rho_closed_loop=rho,
    )


def cost_of_gain(p: LqrProblem, K: np.ndarray, x0: np.ndarray) -> float:
    """Closed-loop cost <lam_K, x0> of a fixed stabilizing gain.

    Solves the discrete Lyapunov equation
    lam_K = Q + K^T R K + (A+BK)^T lam_K (A+BK) by Smith doubling: with
    A_0 = A + BK, each step X <- X + A_k^T X A_k, A_{k+1} = A_k^2 doubles the
    number of summed sweeps, until successive iterates agree to 1e-12.  The
    result is paired with the PSD matrix x0 (rank-1 y y^T for a single start
    state).
    """
    K = np.asarray(K, dtype=float)
    if K.shape != (p.m, p.n):
        raise InputError(f"gain must be {p.m} x {p.n}, got {K.shape}")
    x0 = _symmetrized("x0", np.asarray(x0, dtype=float))
    if x0.shape != (p.n, p.n):
        raise InputError(f"x0 must be {p.n} x {p.n}, got {x0.shape}")
    power = p.A + p.B @ K
    rho = spectral_radius(power)
    if not rho < 1.0:
        raise InputError(f"spectral radius of A + BK is {rho:.6f} >= 1")
    lam = p.Q + K.T @ p.R @ K
    for _ in range(_LYAPUNOV_MAX_DOUBLINGS):
        lam_next = lam + power.T @ lam @ power
        lam_next = 0.5 * (lam_next + lam_next.T)
        gap = float(np.max(np.abs(lam_next - lam)))
        lam = lam_next
        if gap < _LYAPUNOV_TOL:
            return float(np.tensordot(lam, x0, axes=2))
        power = power @ power
    raise MaxIterExceeded(
        f"Lyapunov doubling did not reach {_LYAPUNOV_TOL} in "
        f"{_LYAPUNOV_MAX_DOUBLINGS} doublings (spectral radius {rho:.6f})"
    )
