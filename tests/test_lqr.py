"""LQR Riccati recursion: one Cholesky check and one solve per step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conebellman import (
    CertificationError,
    InvalidProblem,
    LqrProblem,
    NotInCone,
    NotPositiveDefinite,
    ShapeMismatch,
    SolveConfig,
    SolveFailure,
    UnstableGain,
    cost_of_gain,
    dare_residual,
    riccati_step,
    solve_lqr,
    spectral_radius,
)
from conebellman import lqr
from conebellman.generators import random_lqr
from conebellman.oracles import naive_dare

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def scalar_problem():
    return LqrProblem(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])


# ---------------------------------------------------------------------------
# problem intake


def test_intake_rejects_indefinite_costs():
    with pytest.raises(InvalidProblem):
        LqrProblem(A=[[1.0]], B=[[1.0]], Q=[[-1.0]], R=[[1.0]])
    with pytest.raises(InvalidProblem):
        LqrProblem(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[-1.0]])
    with pytest.raises(InvalidProblem):
        LqrProblem(A=[[1.0]], B=[[1.0]], Q=[[0.0]], R=[[0.0]])


def test_intake_warns_on_semidefinite_state_cost(caplog):
    with caplog.at_level("WARNING", logger="conebellman.lqr"):
        LqrProblem(A=[[0.5]], B=[[1.0]], Q=[[0.0]], R=[[1.0]])
    assert any("positive semidefinite" in m for m in caplog.messages)


def test_intake_rejects_asymmetric_cost():
    with pytest.raises(ShapeMismatch):
        LqrProblem(A=np.eye(2), B=np.eye(2), Q=[[1.0, 0.3], [0.0, 1.0]], R=np.eye(2))


def test_start_outside_the_psd_cone_is_rejected_by_the_solve():
    # intake's slack is 1e-12 * max|Q| = 1e-9, the solve's start tolerance 1e-10
    p = LqrProblem(A=0.5 * np.eye(2), B=np.eye(2), Q=np.diag([1000.0, -5e-10]), R=np.eye(2))
    with pytest.raises(NotInCone, match="initial value must lie in the cone"):
        solve_lqr(p)


def test_problem_without_states_is_rejected():
    with pytest.raises(ShapeMismatch):
        solve_lqr(
            LqrProblem(A=np.zeros((0, 0)), B=np.zeros((0, 2)), Q=np.zeros((0, 0)), R=np.eye(2))
        )


# ---------------------------------------------------------------------------
# the Cholesky check and the gain solve inside the Riccati step


def random_step_input(seed):
    """A random LQR problem and a random SPD lam for one step."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    C = rng.standard_normal((n, n))
    p = LqrProblem(
        A=rng.standard_normal((n, n)),
        B=rng.standard_normal((n, m)),
        Q=np.eye(n),
        R=0.1 * np.eye(m),
    )
    return p, C @ C.T + 0.1 * np.eye(n)


def test_cholesky_two_by_two():
    # lam = I, B = I: S = R + I = [[4, 2], [2, 3]], G = A = I, K = -S^{-1},
    # lam' = Q + I - S^{-1} with S^{-1} = [[3/8, -1/4], [-1/4, 1/2]]
    p = LqrProblem(A=np.eye(2), B=np.eye(2), Q=np.eye(2), R=[[3.0, 2.0], [2.0, 2.0]])
    lam_next, K = riccati_step(p, np.eye(2))
    np.testing.assert_allclose(K, [[-0.375, 0.25], [0.25, -0.5]], atol=1e-15)
    np.testing.assert_allclose(lam_next, [[1.625, 0.25], [0.25, 1.5]], atol=1e-15)


def test_cholesky_identity():
    # S = R + B^T lam B = I: K = -G = -A and lam' = Q + A^T A - A^T A, exactly
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = LqrProblem(A=A, B=np.eye(2), Q=np.eye(2), R=np.zeros((2, 2)))
    lam_next, K = riccati_step(p, np.eye(2))
    assert np.array_equal(K, -A)
    assert np.array_equal(lam_next, np.eye(2))


def test_cholesky_rejects_indefinite():
    p = LqrProblem(A=np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.zeros((2, 2)))
    with pytest.raises(NotPositiveDefinite):
        riccati_step(p, np.array([[1.0, 2.0], [2.0, 1.0]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_cholesky_reconstructs_random_spd(seed):
    # the gain solves S K = -G for every random SPD S = R + B^T lam B
    p, lam = random_step_input(seed)
    lam_next, K = riccati_step(p, lam)
    S = p.R + p.B.T @ lam @ p.B
    G = p.B.T @ lam @ p.A
    assert float(np.max(np.abs(S @ K + G))) < 1e-10 * max(1.0, float(np.max(np.abs(G))))
    assert np.array_equal(lam_next, lam_next.T)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_triangular_solves_round_trip(seed):
    # the rank-1 split through L L^T = S gives the same step:
    # K = -L^{-T} M and G^T S^{-1} G = M^T M with M = L^{-1} G
    p, lam = random_step_input(seed)
    lam_next, K = riccati_step(p, lam)
    L = np.linalg.cholesky(p.R + p.B.T @ lam @ p.B)
    M = np.linalg.solve(L, p.B.T @ lam @ p.A)
    scale = max(1.0, float(np.max(np.abs(lam_next))))
    np.testing.assert_allclose(K, -np.linalg.solve(L.T, M), atol=1e-9 * scale)
    np.testing.assert_allclose(
        lam_next, p.Q + p.A.T @ lam @ p.A - M.T @ M, atol=1e-9 * scale
    )


def test_lapack_failure_raises_not_positive_definite():
    # S = R + B^T lam B = [[1, 0], [0, 0]] is singular: LAPACK stops at column 1
    p = LqrProblem(A=[[1.0]], B=[[1.0, 0.0]], Q=[[1.0]], R=np.zeros((2, 2)))
    with pytest.raises(NotPositiveDefinite, match="not positive definite"):
        riccati_step(p, np.array([[1.0]]))
    assert issubclass(NotPositiveDefinite, SolveFailure)


def test_pivot_below_floor_raises_not_positive_definite():
    # S = [[2, 2], [2, 2]] passes LAPACK with last pivot 4.4e-16, which is
    # below the threshold 1e-14 * max|S| = 2e-14
    p = LqrProblem(A=[[1.0]], B=[[1.0, 1.0]], Q=[[1.0]], R=np.ones((2, 2)))
    with pytest.raises(NotPositiveDefinite, match="pivot .* at column 1"):
        riccati_step(p, np.array([[1.0]]))


# ---------------------------------------------------------------------------
# single Riccati step


def test_riccati_step_scalar():
    lam_next, K = riccati_step(scalar_problem(), np.array([[1.0]]))
    assert np.array_equal(lam_next, [[1.5]])
    assert K[0, 0] == pytest.approx(-0.5, abs=1e-15)


def test_riccati_step_without_inputs_is_a_lyapunov_step():
    p = LqrProblem(A=[[0.5]], B=[[0.0]], Q=[[1.0]], R=[[1.0]])
    lam_next, K = riccati_step(p, np.array([[2.0]]))
    assert np.array_equal(lam_next, [[1.5]])  # Q + A^T lam A
    assert np.array_equal(K, [[0.0]])


def test_riccati_step_without_dynamics_returns_state_cost():
    p = LqrProblem(A=[[0.0]], B=[[1.0]], Q=[[3.0]], R=[[1.0]])
    lam_next, K = riccati_step(p, np.array([[5.0]]))
    assert np.array_equal(lam_next, [[3.0]])
    assert np.array_equal(K, [[0.0]])


def test_riccati_step_preserves_symmetry():
    p = random_lqr(5, 2, seed=1)
    lam_next, _ = riccati_step(p, p.Q)
    assert np.array_equal(lam_next, lam_next.T)


def test_riccati_step_is_bitwise_reproducible():
    p = random_lqr(30, 15, seed=2)
    lam_next, K = riccati_step(p, p.Q)
    again, K_again = riccati_step(p, p.Q)
    assert np.array_equal(lam_next, again)
    assert np.array_equal(K, K_again)
    assert np.array_equal(lam_next, lam_next.T)


def test_step_gain_satisfies_first_order_condition():
    # at any lam, not only at the fixed point: (R + B^T lam B) K + B^T lam A = 0
    p = random_lqr(30, 15, seed=3)
    lam = riccati_step(p, p.Q)[0]
    _, K = riccati_step(p, lam)
    defect = (p.R + p.B.T @ lam @ p.B) @ K + p.B.T @ lam @ p.A
    assert float(np.max(np.abs(defect))) < 1e-10


# ---------------------------------------------------------------------------
# full solve


def test_scalar_fixed_point_is_the_golden_ratio():
    sol = solve_lqr(scalar_problem(), SolveConfig(tol=1e-13))
    assert sol.lam[0, 0] == pytest.approx(GOLDEN, abs=1e-12)
    assert sol.K[0, 0] == pytest.approx(-GOLDEN / (1.0 + GOLDEN), abs=1e-12)
    # the closed loop A + BK = 1 - golden/(1 + golden) = 1/(1 + golden)
    assert sol.rho_closed_loop == pytest.approx(1.0 / (1.0 + GOLDEN), abs=1e-15)
    assert sol.dare_residual < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_solution_matches_plain_iteration_oracle(seed):
    p = random_lqr(3 + seed, 1 + seed % 3, seed=40 + seed)
    sol = solve_lqr(p)
    oracle = naive_dare(p, tol=1e-13)
    assert float(np.max(np.abs(sol.lam - oracle))) < 1e-9


def test_gain_satisfies_first_order_condition():
    p = random_lqr(6, 3, seed=77)
    sol = solve_lqr(p)
    defect = (p.R + p.B.T @ sol.lam @ p.B) @ sol.K + p.B.T @ sol.lam @ p.A
    assert float(np.max(np.abs(defect))) < 1e-10


def test_returned_value_matrix_is_exactly_symmetric():
    sol = solve_lqr(random_lqr(5, 2, seed=8))
    assert np.array_equal(sol.lam, sol.lam.T)


def test_dare_residual_vanishes_at_solution_and_not_elsewhere():
    p = scalar_problem()
    sol = solve_lqr(p, SolveConfig(tol=1e-13))
    assert dare_residual(p, sol.lam) < 1e-12
    assert dare_residual(p, np.array([[1.0]])) == pytest.approx(0.5)


@pytest.mark.parametrize("k", range(5))
def test_reported_defect_is_the_riccati_defect_at_lam(k):
    # solve_lqr reports its engine's certifying sweep; it must equal a fresh
    # evaluation of the Riccati map at the returned lam bit for bit
    p = random_lqr(20 + k, 7, seed=k)
    sol = solve_lqr(p)
    assert sol.dare_residual == dare_residual(p, sol.lam)


# ---------------------------------------------------------------------------
# fixed-gain evaluation


def test_cost_of_optimal_gain_recovers_value():
    p = scalar_problem()
    sol = solve_lqr(p, SolveConfig(tol=1e-13))
    cost = cost_of_gain(p, sol.K, np.array([[1.0]]))
    assert cost == pytest.approx(GOLDEN, abs=1e-11)


def test_cost_of_open_loop_gain_solves_lyapunov():
    p = LqrProblem(A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])
    cost = cost_of_gain(p, np.array([[0.0]]), np.array([[1.0]]))
    assert cost == pytest.approx(4.0 / 3.0, abs=1e-11)


@pytest.mark.parametrize("a", [0.999, 0.99999])
def test_cost_of_open_loop_gain_near_unit_radius(a):
    # lam_K = sum_k a^(2k) = 1/(1 - a^2); at a = 0.99999 that is over a
    # million sweeps of the plain Lyapunov iteration
    p = LqrProblem(A=[[a]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])
    cost = cost_of_gain(p, np.array([[0.0]]), np.array([[1.0]]))
    assert cost == pytest.approx(1.0 / (1.0 - a * a), rel=1e-10)


def test_cost_of_gain_rejects_unstable_loop():
    p = LqrProblem(A=[[2.0]], B=[[0.0]], Q=[[1.0]], R=[[1.0]])
    with pytest.raises(UnstableGain):
        cost_of_gain(p, np.array([[0.0]]), np.array([[1.0]]))


def test_no_stabilizing_perturbation_beats_the_optimum():
    p = random_lqr(4, 2, seed=123)
    sol = solve_lqr(p)
    rng = np.random.default_rng(5)
    y = rng.standard_normal(4)
    x0 = np.outer(y, y)
    base = cost_of_gain(p, sol.K, x0)
    tried = 0
    while tried < 100:
        Kp = sol.K + rng.standard_normal(sol.K.shape) * 0.1
        if spectral_radius(p.A + p.B @ Kp) >= 1.0:
            continue
        assert cost_of_gain(p, Kp, x0) >= base - 1e-8
        tried += 1


# ---------------------------------------------------------------------------
# divergence


def test_unstabilizable_system_diverges():
    from conebellman import Diverged

    p = LqrProblem(A=[[2.0]], B=[[0.0]], Q=[[1.0]], R=[[1.0]])
    with pytest.raises(Diverged):
        solve_lqr(p)


@pytest.mark.parametrize("seed", range(3))
def test_value_iterates_are_loewner_monotone(seed):
    # riccati sweeps from Q grow toward the fixed point in the matrix order
    p = random_lqr(4, 2, seed=200 + seed)
    lam = p.Q.copy()
    for _ in range(60):
        lam_next, _ = riccati_step(p, lam)
        assert float(np.min(np.linalg.eigvalsh(lam_next - lam))) > -1e-10
        lam = lam_next


# ---------------------------------------------------------------------------
# certificates fail closed


def test_nan_closed_loop_radius_fails_certification(monkeypatch):
    monkeypatch.setattr(lqr, "_closed_loop_radius", lambda p, K: float("nan"))
    with pytest.raises(CertificationError, match="spectral radius nan >= 1"):
        solve_lqr(scalar_problem())
    with pytest.raises(UnstableGain, match="nan >= 1"):
        cost_of_gain(scalar_problem(), np.array([[-0.5]]), np.array([[1.0]]))


def test_nan_riccati_residual_fails_certification(monkeypatch):
    real = lqr.fixed_point_solve

    def nan_residual(*args):
        result = real(*args)
        result.residual = float("nan")
        return result

    monkeypatch.setattr(lqr, "fixed_point_solve", nan_residual)
    with pytest.raises(CertificationError, match="residual nan"):
        solve_lqr(scalar_problem())
