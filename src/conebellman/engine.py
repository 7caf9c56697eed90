"""Fixed-point engine, its stopping rule and the spectral radius.

The engine iterates one operator on plain arrays,

    lam_next, minimizer = step(lam)

until the sup-norm of successive iterates falls below a tolerance, then runs
one extra verification sweep so that the stationarity residual of the returned
candidate is certified as well.  Each problem class it drives (shortest path,
Riccati) supplies a single vectorized ``step`` that evaluates all of its
independent block minima at once; the minimizer it returns alongside the next
iterate is whatever that class needs to recover its policy, and the one
returned by the engine comes from the same sweep that certified the solution.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import Diverged, InputError, MaxIterExceeded

logger = logging.getLogger("conebellman.engine")

#: iterate magnitude beyond which the iteration is declared divergent
DIVERGENCE_CAP = 1e12

#: one synchronous sweep: lam -> (next iterate, minimizer evaluated at lam)
Step = Callable[[np.ndarray], tuple[np.ndarray, Any]]


@dataclass(frozen=True)
class SolveConfig:
    """Stopping rule for the fixed-point iteration.

    Convergence is declared when the sup-norm of successive iterates drops
    below ``tol`` and an extra verification sweep confirms the stationarity
    residual is below ``10 * tol``.  Divergence is declared only when an
    entry of the iterate exceeds ``DIVERGENCE_CAP`` in magnitude or is NaN;
    a transient of growing residuals runs on until ``max_iter``.
    """

    tol: float = 1e-10
    max_iter: int = 100_000

    def __post_init__(self):
        if not self.tol > 0:
            raise InputError(f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise InputError(f"max_iter must be >= 1, got {self.max_iter}")


class TraceRecord(NamedTuple):
    iteration: int
    residual: float
    elapsed_ns: int


@dataclass
class FixedPointResult:
    value: np.ndarray
    minimizer: Any  # what the certifying sweep's step returned beside its iterate
    trace: list[TraceRecord]  # one record per sweep
    residual: float  # stationarity residual certified at the returned value


def _sup_norm(a: np.ndarray) -> float:
    # the ndarray method skips np.max's Python-level dispatch, which costs as
    # much as the reduction itself on the small iterates of LQR
    return float(np.abs(a).max()) if a.size else 0.0


def fixed_point_solve(step: Step, lam0: np.ndarray, cfg: SolveConfig) -> FixedPointResult:
    """Iterate ``step`` from ``lam0`` to a certified fixed point.

    Every sweep evaluates all blocks at the previous iterate.  Once the
    successive residual drops below ``cfg.tol`` one extra sweep runs at the
    candidate: its residual is the stationarity residual, the candidate is
    returned only if that is below ``10 * cfg.tol``, and the minimizer
    returned is the one evaluated at the returned value.
    """
    trace: list[TraceRecord] = []
    t0 = time.perf_counter_ns()
    lam = lam0
    verify = False

    for k in range(cfg.max_iter):
        lam_new, minimizer = step(lam)
        residual = _sup_norm(lam_new - lam)
        trace.append(TraceRecord(k, residual, time.perf_counter_ns() - t0))
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("iteration %d residual %.6e", k, residual)

        if verify and residual < 10.0 * cfg.tol:
            # lam is the candidate that met the successive-residual test and
            # this sweep evaluated the block minimizers exactly at it.
            logger.info(
                "converged after %d iterations (stationarity %.3e)", k + 1, residual
            )
            return FixedPointResult(lam, minimizer, trace, residual)

        magnitude = _sup_norm(lam_new)
        if not magnitude <= DIVERGENCE_CAP:  # a NaN iterate diverges too
            raise Diverged(
                f"iterate magnitude {magnitude:.3e} exceeded cap "
                f"{DIVERGENCE_CAP:.3e} at iteration {k}"
            )

        lam = lam_new
        verify = residual < cfg.tol

    raise MaxIterExceeded(
        f"residual {trace[-1].residual:.3e} still above tol {cfg.tol:.1e} "
        f"after {cfg.max_iter} iterations"
    )


def spectral_radius(M) -> float:
    """Largest modulus of the LAPACK eigenvalues of a square real matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"expected a square matrix, got shape {M.shape}")
    return float(np.abs(np.linalg.eigvals(M)).max(initial=0.0))
