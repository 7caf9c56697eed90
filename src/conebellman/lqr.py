"""Discrete-time LQR through the same block fixed-point lens.

For ``x(t+1) = A x(t) + B u(t)`` with cost ``x^T Q x + u^T R u``, the
quadratic value ansatz ``J(x) = x^T lam x`` turns the Bellman operator into
a Riccati map.  Completing the square with ``L L^T = R + B^T lam B`` and the
change of variables ``Khat = L^T K`` splits the input minimization into m
independent rank-1 problems with solutions ``khat_i = -m_i`` (the rows of
``M = L^{-1} B^T lam A``), so

    lam' = Q + A^T lam A - M^T M,        K = -L^{-T} M.

The factorization and the two triangular solves are written out here rather
than delegated, so the rank-1 structure of the block minima stays visible
and the summation order (index-ascending over the rows of M) is pinned down
for reproducibility.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cones import SYMMETRY_TOL, ConeTag, ValueObject
from .engine import (
    ConvergenceTrace,
    SolveConfig,
    fixed_point_solve,
    spectral_radius,
)
from .errors import (
    CertificationError,
    InvalidProblem,
    MaxIterExceeded,
    NotPositiveDefinite,
    ShapeMismatch,
    UnstableGain,
)

logger = logging.getLogger("conebellman.lqr")

_LYAPUNOV_TOL = 1e-12
_LYAPUNOV_MAX_SWEEPS = 200_000


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
        if B.ndim != 2 or B.shape[0] != n:
            raise ShapeMismatch(f"B must be n x m with n={n}, got {B.shape}")
        m = B.shape[1]
        Q = _symmetrized("Q", np.asarray(self.Q, dtype=float))
        R = _symmetrized("R", np.asarray(self.R, dtype=float))
        if Q.shape != (n, n):
            raise ShapeMismatch(f"Q must be {n} x {n}, got {Q.shape}")
        if R.shape != (m, m):
            raise ShapeMismatch(f"R must be {m} x {m}, got {R.shape}")
        q_min = float(np.linalg.eigvalsh(Q)[0]) if n else 0.0
        r_min = float(np.linalg.eigvalsh(R)[0]) if m else 0.0
        q_slack = 1e-12 * max(1.0, float(np.max(np.abs(Q))) if Q.size else 0.0)
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


def _chol_core(S: np.ndarray) -> np.ndarray:
    """Factorization loop on the lower triangle; no input validation."""
    n = S.shape[0]
    L = np.zeros((n, n))
    floor = 1e-14 * (float(np.max(np.abs(S))) if S.size else 0.0)
    for j in range(n):
        d = S[j, j] - L[j, :j] @ L[j, :j]
        if d <= floor:
            raise NotPositiveDefinite(
                f"pivot {d:.6e} at column {j} (threshold {floor:.6e})"
            )
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (S[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def cholesky_factor(S: np.ndarray) -> np.ndarray:
    """Left-looking Cholesky: lower-triangular L with L L^T = S.

    Fails with NotPositiveDefinite when a pivot falls at or below
    1e-14 * max|S| — the matrix is numerically singular or indefinite.
    """
    return _chol_core(_symmetrized("S", np.asarray(S, dtype=float)))


def forward_substitute(L: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Solve L X = Y for X with L lower triangular (Y may be a matrix)."""
    X = np.array(Y, dtype=float)
    for i in range(L.shape[0]):
        X[i] = (X[i] - L[i, :i] @ X[:i]) / L[i, i]
    return X


def back_substitute(L: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Solve L^T X = Y for X with L lower triangular (Y may be a matrix)."""
    X = np.array(Y, dtype=float)
    for i in reversed(range(L.shape[0])):
        X[i] = (X[i] - L[i + 1 :, i] @ X[i + 1 :]) / L[i, i]
    return X


def _riccati_core(p: LqrProblem, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """riccati_step without input validation (lam trusted symmetric)."""
    L = _chol_core(p.R + p.B.T @ lam @ p.B)
    M = forward_substitute(L, p.B.T @ lam @ p.A)
    lam_next = p.Q + p.A.T @ lam @ p.A
    for i in range(p.m):
        lam_next = lam_next - np.outer(M[i], M[i])
    lam_next = 0.5 * (lam_next + lam_next.T)
    K = -back_substitute(L, M)
    return lam_next, K


def riccati_step(p: LqrProblem, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Riccati map evaluation: lam' = Q + A^T lam A - M^T M, K = -L^{-T} M.

    The subtraction accumulates the m rank-1 outer products m_i m_i^T in
    ascending row order, and the result is symmetrized on emit, so repeated
    calls are bitwise reproducible.
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
    closed loop A + BK with spectral radius below one, and Riccati defect
    below 10 * tol.  Unstabilizable systems diverge (value grows without
    bound) rather than failing intake.
    """
    cfg = cfg or SolveConfig()
    # the m rank-1 minimizations stay fused in one factorization per sweep;
    # iterates are the step's own symmetrized emissions, so none is re-validated
    result = fixed_point_solve(
        lambda lam: _riccati_core(p, lam), ValueObject(ConeTag.psd(p.n), p.Q), cfg
    )
    lam = np.array(result.value.data)
    K = result.minimizer
    min_eig = float(np.linalg.eigvalsh(lam)[0]) if p.n else 0.0
    if p.n and min_eig <= 0.0:
        raise CertificationError(
            f"converged value matrix is not positive definite (min eig {min_eig:.3e})"
        )
    rho = spectral_radius(p.A + p.B @ K)
    if rho >= 1.0:
        raise CertificationError(f"closed-loop spectral radius {rho:.6f} >= 1")
    lam_next, _ = _riccati_core(p, lam)
    defect = float(np.max(np.abs(lam_next - lam))) if lam.size else 0.0
    if defect >= 10.0 * cfg.tol:
        raise CertificationError(
            f"Riccati equation residual {defect:.3e} >= {10.0 * cfg.tol:.3e}"
        )
    return LqrSolution(
        lam=lam,
        K=K,
        trace=result.trace,
        dare_residual=defect,
        rho_closed_loop=rho,
    )


def cost_of_gain(p: LqrProblem, K: np.ndarray, x0: np.ndarray) -> float:
    """Closed-loop cost <lam_K, x0> of a fixed stabilizing gain.

    Solves the discrete Lyapunov equation
    lam_K = Q + K^T R K + (A+BK)^T lam_K (A+BK) by iteration until
    successive sweeps agree to 1e-12, then pairs with the PSD matrix x0
    (rank-1 y y^T for a single start state).
    """
    K = np.asarray(K, dtype=float)
    if K.shape != (p.m, p.n):
        raise ShapeMismatch(f"gain must be {p.m} x {p.n}, got {K.shape}")
    x0 = _symmetrized("x0", np.asarray(x0, dtype=float))
    if x0.shape != (p.n, p.n):
        raise ShapeMismatch(f"x0 must be {p.n} x {p.n}, got {x0.shape}")
    closed = p.A + p.B @ K
    rho = spectral_radius(closed)
    if rho >= 1.0:
        raise UnstableGain(f"spectral radius of A + BK is {rho:.6f} >= 1")
    stage = p.Q + K.T @ p.R @ K
    lam = np.zeros((p.n, p.n))
    for _ in range(_LYAPUNOV_MAX_SWEEPS):
        lam_next = stage + closed.T @ lam @ closed
        lam_next = 0.5 * (lam_next + lam_next.T)
        gap = float(np.max(np.abs(lam_next - lam))) if lam.size else 0.0
        lam = lam_next
        if gap < _LYAPUNOV_TOL:
            return float(np.tensordot(lam, x0, axes=2))
    raise MaxIterExceeded(
        f"Lyapunov iteration did not reach {_LYAPUNOV_TOL} in "
        f"{_LYAPUNOV_MAX_SWEEPS} sweeps (spectral radius {rho:.6f})"
    )
