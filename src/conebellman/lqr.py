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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .engine import ConvergenceTrace, SolveConfig, fixed_point_solve
from .errors import (
    CertificationError,
    InvalidProblem,
    MaxIterExceeded,
    NotInCone,
    NotPositiveDefinite,
    ShapeMismatch,
    UnstableGain,
)

logger = logging.getLogger("conebellman.lqr")

#: relative tolerance for accepting a nearly-symmetric matrix before symmetrizing
SYMMETRY_TOL = 1e-12

_LYAPUNOV_TOL = 1e-12
# 2**64 Lyapunov sweeps: the doubling summands shrink like rho**(2**k), which
# underflows within this budget for every spectral radius a double below 1 holds
_LYAPUNOV_MAX_DOUBLINGS = 64


def _symmetrized(name: str, S: np.ndarray) -> np.ndarray:
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ShapeMismatch(f"{name} must be square, got {S.shape}")
    scale = max(1.0, float(np.max(np.abs(S))) if S.size else 0.0)
    if S.size and float(np.max(np.abs(S - S.T))) > SYMMETRY_TOL * scale:
        raise ShapeMismatch(f"{name} must be symmetric")
    return 0.5 * (S + S.T)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LqrProblem:
    """Dynamics (A, B) and symmetric weights (Q, R).

    Intake accepts either Q positive definite with R PSD, or Q PSD with R
    positive definite (the latter with a logged warning: positivity of the
    converged value matrix is then certified a posteriori rather than
    guaranteed up front).
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ShapeMismatch(f"A must be square, got {A.shape}")
        n = A.shape[0]
        if n < 1:
            raise ShapeMismatch("A must have at least one state, got shape (0, 0)")
        if B.ndim != 2 or B.shape[0] != n:
            raise ShapeMismatch(f"B must be n x m with n={n}, got {B.shape}")
        m = B.shape[1]
        Q = _symmetrized("Q", np.asarray(self.Q, dtype=float))
        R = _symmetrized("R", np.asarray(self.R, dtype=float))
        if Q.shape != (n, n):
            raise ShapeMismatch(f"Q must be {n} x {n}, got {Q.shape}")
        if R.shape != (m, m):
            raise ShapeMismatch(f"R must be {m} x {m}, got {R.shape}")
        q_min = float(np.linalg.eigvalsh(Q)[0])
        r_min = float(np.linalg.eigvalsh(R)[0]) if m else 0.0
        q_slack = 1e-12 * max(1.0, float(np.max(np.abs(Q))))
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
            raise InvalidProblem(
                "need Q > 0 with R >= 0, or Q >= 0 with R > 0 "
                f"(min eigenvalues: Q {q_min:.3e}, R {r_min:.3e})"
            )
        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "B", _frozen(B))
        object.__setattr__(self, "Q", _frozen(Q))
        object.__setattr__(self, "R", _frozen(R))

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
    trace: ConvergenceTrace
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
            raise NotPositiveDefinite("R + B^T lam B is not positive definite") from None
        # LAPACK's pivots are the squared diagonal of L
        floor = 1e-14 * np.abs(S).max()
        if diag.min() ** 2 <= floor:
            j = int(diag.argmin())
            raise NotPositiveDefinite(
                f"pivot {diag[j] ** 2:.6e} at column {j} (threshold {floor:.6e})"
            )
    K = -np.linalg.solve(S, G)
    lam_next = p.Q + p.A.T @ (lam @ p.A) + G.T @ K
    return 0.5 * (lam_next + lam_next.T), K


def riccati_step(p: LqrProblem, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Riccati map evaluation: lam' = Q + A^T lam A + G^T K, K = -S^{-1} G.

    S = R + B^T lam B must be positive definite: NotPositiveDefinite is
    raised when its Cholesky factorization fails or its smallest pivot is at
    or below 1e-14 * max|S|.  The result is symmetrized on emit, and repeated
    calls with the same input are bitwise reproducible.
    """
    lam = _symmetrized("lam", np.asarray(lam, dtype=float))
    if lam.shape != (p.n, p.n):
        raise ShapeMismatch(f"lam must be {p.n} x {p.n}, got {lam.shape}")
    return _riccati_core(p, lam)


def dare_residual(p: LqrProblem, lam: np.ndarray) -> float:
    """Sup-norm defect of lam in the algebraic Riccati equation."""
    lam_next, _ = riccati_step(p, lam)
    return float(np.max(np.abs(lam_next - np.asarray(lam, dtype=float))))


def solve_lqr(p: LqrProblem, cfg: SolveConfig | None = None) -> LqrSolution:
    """Iterate the Riccati map from lam0 = Q to its fixed point.

    The iteration is the finite-horizon backup with terminal weight Q, so
    the iterates are monotone nondecreasing in the semidefinite order.  On
    convergence the solution is certified: lam strictly positive definite,
    closed loop A + BK with spectral radius (the largest modulus of its
    LAPACK eigenvalues) below one, and Riccati defect below 10 * tol.
    Unstabilizable systems diverge (value grows without bound) rather than
    failing intake.
    """
    cfg = cfg or SolveConfig()
    # intake lets Q's smallest eigenvalue reach -1e-12 * max|Q|; the start
    # of the iteration must lie in the PSD cone to 1e-10 absolute
    if np.linalg.eigvalsh(p.Q)[0] < -1e-10:
        raise NotInCone("initial value must lie in the cone")
    # iterates are the step's own symmetrized emissions, so none is re-validated
    result = fixed_point_solve(lambda lam: _riccati_core(p, lam), p.Q, cfg)
    lam = result.value
    K = result.minimizer
    min_eig = float(np.linalg.eigvalsh(lam)[0])
    if not min_eig > 0.0:
        raise CertificationError(
            f"converged value matrix is not positive definite (min eig {min_eig:.3e})"
        )
    rho = _closed_loop_radius(p, K)
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


def _closed_loop_radius(p: LqrProblem, K: np.ndarray) -> float:
    """Spectral radius of A + BK from its LAPACK eigenvalues."""
    return float(np.abs(np.linalg.eigvals(p.A + p.B @ K)).max())


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
        raise ShapeMismatch(f"gain must be {p.m} x {p.n}, got {K.shape}")
    x0 = _symmetrized("x0", np.asarray(x0, dtype=float))
    if x0.shape != (p.n, p.n):
        raise ShapeMismatch(f"x0 must be {p.n} x {p.n}, got {x0.shape}")
    rho = _closed_loop_radius(p, K)
    if not rho < 1.0:
        raise UnstableGain(f"spectral radius of A + BK is {rho:.6f} >= 1")
    power = p.A + p.B @ K
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
