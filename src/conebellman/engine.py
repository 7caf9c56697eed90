"""Fixed-point engine and stability diagnostics.

The engine iterates one operator on plain arrays,

    lam_next, minimizer = step(lam)

until the sup-norm of successive iterates falls below a tolerance, then runs
one extra verification sweep so that the stationarity residual of the returned
candidate is certified as well.  Each problem class (shortest path, Riccati,
desirability) supplies a single vectorized ``step`` that evaluates all of its
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

from .errors import Diverged, InvalidProblem, MaxIterExceeded, NonSquare

logger = logging.getLogger("conebellman.engine")

#: consecutive residual-growth iterations tolerated before declaring divergence
GROWTH_LIMIT = 50

#: one synchronous sweep: lam -> (next iterate, minimizer evaluated at lam)
Step = Callable[[np.ndarray], tuple[np.ndarray, Any]]


@dataclass(frozen=True)
class SolveConfig:
    """Stopping rule for the fixed-point iteration.

    Convergence is declared when the sup-norm of successive iterates drops
    below ``tol`` and an extra verification sweep confirms the stationarity
    residual is below ``10 * tol``.  Divergence is declared when any entry of
    the iterate exceeds ``divergence_cap`` in magnitude, or when the residual
    grows for 50 consecutive iterations.
    """

    tol: float = 1e-10
    max_iter: int = 100_000
    divergence_cap: float = 1e12

    def __post_init__(self):
        if not self.tol > 0:
            raise InvalidProblem(f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise InvalidProblem(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.divergence_cap > 0:
            raise InvalidProblem(f"divergence_cap must be > 0, got {self.divergence_cap}")


class TraceRecord(NamedTuple):
    iteration: int
    residual: float
    elapsed_ns: int


class ConvergenceTrace:
    """Per-iteration residual log with strictly increasing iteration indices."""

    def __init__(self):
        self.records: list[TraceRecord] = []

    def append(self, iteration: int, residual: float, elapsed_ns: int) -> None:
        if self.records and iteration <= self.records[-1].iteration:
            raise InvalidProblem("trace iteration indices must strictly increase")
        if residual < 0.0:
            raise InvalidProblem("trace residuals must be nonnegative")
        self.records.append(TraceRecord(iteration, float(residual), int(elapsed_ns)))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def final_residual(self) -> float:
        return self.records[-1].residual if self.records else float("nan")


@dataclass
class FixedPointResult:
    value: np.ndarray
    minimizer: Any  # what the certifying sweep's step returned beside its iterate
    trace: ConvergenceTrace
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
    trace = ConvergenceTrace()
    t0 = time.perf_counter_ns()
    lam = lam0
    prev_residual = None
    growth_streak = 0
    verify = False

    for k in range(cfg.max_iter):
        lam_new, minimizer = step(lam)
        residual = _sup_norm(lam_new - lam)
        trace.append(k, residual, time.perf_counter_ns() - t0)
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
        if magnitude > cfg.divergence_cap:
            raise Diverged(
                f"iterate magnitude {magnitude:.3e} exceeded cap "
                f"{cfg.divergence_cap:.3e} at iteration {k}"
            )
        if prev_residual is not None and residual > prev_residual:
            growth_streak += 1
            if growth_streak >= GROWTH_LIMIT:
                raise Diverged(
                    f"residual grew for {GROWTH_LIMIT} consecutive iterations "
                    f"(last {residual:.3e})"
                )
        else:
            growth_streak = 0
        prev_residual = residual

        lam = lam_new
        verify = residual < cfg.tol

    raise MaxIterExceeded(
        f"residual {trace.final_residual:.3e} still above tol {cfg.tol:.1e} "
        f"after {cfg.max_iter} iterations"
    )


#: max recurrence order tried when extrapolating the power sequence
_MAX_RECURRENCE = 8
#: relative residual below which a fitted recurrence is trusted
_FIT_TOL = 1e-11


def _dominant_recurrence_root(history: list[np.ndarray], max_order: int):
    """Largest root magnitude of the lowest-order linear recurrence fitting
    the tail of the Krylov sequence, or None if no order fits well.

    A sequence dominated by p eigenmodes satisfies an order-p recurrence
    x_k = a_1 x_{k-1} + ... + a_p x_{k-p} whose characteristic roots are
    exactly those eigenvalues — complex pairs, ties and sign flips included.
    """
    target = history[-1]
    target_norm = float(np.linalg.norm(target))
    if target_norm == 0.0:
        return 0.0
    for p in range(1, min(max_order, len(history) - 1) + 1):
        basis = np.stack(history[-1 - p : -1][::-1], axis=1)  # columns x_{k-1}..x_{k-p}
        coef, _, _, _ = np.linalg.lstsq(basis, target, rcond=None)
        fit_err = float(np.linalg.norm(target - basis @ coef))
        if fit_err <= _FIT_TOL * target_norm:
            roots = np.roots(np.concatenate(([1.0], -coef)))
            return float(np.max(np.abs(roots))) if roots.size else 0.0
    return None


def spectral_radius(M, iters: int = 500, rtol: float = 1e-10, seed: int = 0) -> float:
    """Estimate the spectral radius of a square real matrix by power iteration.

    The iteration keeps a short window of consecutive Krylov vectors and
    periodically fits the lowest-order linear recurrence the window satisfies;
    the largest characteristic-root magnitude of that recurrence estimates the
    spectral radius.  Order 1 is classical power iteration (simple dominant
    eigenvalue); higher orders capture complex conjugate pairs, sign flips,
    cyclic structure, and near-tied magnitudes.  Two consecutive fits agreeing
    within ``rtol`` end the iteration early.  The start vector is drawn from a
    seeded generator so repeated calls are deterministic.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    if n == 0:
        return 0.0
    if n == 1:
        return abs(float(M[0, 0]))

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    history = [x]
    window = _MAX_RECURRENCE + 2
    # fit checks are front-loaded so cheap spectra exit after a few matvecs,
    # then spaced out so hard spectra spend their budget on iterations
    early_checks = {2, 4, 7, 11, 16, 23, 32, 44}
    previous = None
    best = 0.0
    for k in range(iters):
        x = M @ history[-1]
        scale = float(np.linalg.norm(x))
        if scale == 0.0:
            return 0.0  # Krylov sequence died: nilpotent action on the start
        history.append(x)
        if scale > 1e50 or scale < 1e-50:
            history = [v / scale for v in history]
        history = history[-window:]
        if len(history) >= 3 and (
            k in early_checks or (k >= 50 and k % 25 == 0) or k == iters - 1
        ):
            estimate = _dominant_recurrence_root(history, _MAX_RECURRENCE)
            if estimate is not None:
                best = estimate
                if previous is not None and abs(estimate - previous) <= rtol * max(
                    estimate, 1.0
                ):
                    return estimate
                previous = estimate
            else:
                previous = None
    if best > 0.0:
        return best
    # no recurrence order fit within tolerance: fall back to the norm ratio
    return float(np.linalg.norm(history[-1]) / np.linalg.norm(history[-2]))
