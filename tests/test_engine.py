"""Fixed-point engine: step iteration, traces, divergence, spectral radius."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conebellman import (
    Diverged,
    InputError,
    MaxIterExceeded,
    SolveConfig,
    fixed_point_solve,
    spectral_radius,
)


def test_nan_iterate_diverges_at_once():
    # a NaN magnitude is not above the cap, so without the NaN rule this
    # ran every sweep of max_iter
    sweeps = []

    def step(lam):
        sweeps.append(lam)
        return np.full(2, np.nan), None

    with pytest.raises(Diverged, match="magnitude nan exceeded cap"):
        fixed_point_solve(step, np.zeros(2), SolveConfig())
    assert len(sweeps) <= 2


def scalar_affine(gain, offset):
    """One orthant coordinate iterating lam <- offset + gain * lam."""
    return lambda lam: (offset + gain * lam, None)


def vector_affine(M, c):
    """lam <- c + M lam; the minimizer is the iterate the step was evaluated at."""
    M = np.asarray(M, dtype=float)
    c = np.asarray(c, dtype=float)
    return lambda lam: (c + M @ lam, np.array(lam))


def zeros1():
    return np.zeros(1)


# ---------------------------------------------------------------------------
# configuration and trace plumbing


def test_solve_config_validation():
    with pytest.raises(InputError, match="tol must be > 0, got 0.0"):
        SolveConfig(tol=0.0)
    with pytest.raises(InputError, match="max_iter must be >= 1, got 0"):
        SolveConfig(max_iter=0)


def test_trace_indices_strictly_increase_and_residuals_nonnegative():
    res = fixed_point_solve(scalar_affine(0.5, 1.0), zeros1(), SolveConfig(tol=1e-12))
    its = [rec.iteration for rec in res.trace]
    assert its == sorted(set(its))
    assert its[0] == 0
    assert all(rec.residual >= 0.0 for rec in res.trace)
    assert all(rec.elapsed_ns >= 0 for rec in res.trace)


# ---------------------------------------------------------------------------
# convergence behaviour


def test_scalar_contraction_reaches_geometric_limit():
    cfg = SolveConfig(tol=1e-12)
    res = fixed_point_solve(scalar_affine(0.5, 1.0), zeros1(), cfg)
    assert res.value[0] == pytest.approx(2.0, abs=1e-11)
    assert res.residual < 10.0 * cfg.tol


def test_expansive_map_diverges():
    with pytest.raises(Diverged, match=r"exceeded cap 1\.000e\+12"):
        fixed_point_solve(scalar_affine(10.0, 1.0), zeros1(), SolveConfig())


def test_slowly_growing_residuals_run_to_the_cap():
    # residuals 1.01**k grow every sweep; growth alone is no verdict, so
    # the iterate runs until it passes the cap
    message = "iterate magnitude 1.009e+12 exceeded cap 1.000e+12 at iteration 2314"
    with pytest.raises(Diverged, match=f"^{re.escape(message)}$"):
        fixed_point_solve(scalar_affine(1.01, 1.0), zeros1(), SolveConfig())


def test_max_iter_exceeded_reports_residual():
    with pytest.raises(MaxIterExceeded):
        fixed_point_solve(scalar_affine(0.99, 1.0), zeros1(), SolveConfig(max_iter=5))


def test_jacobi_runs_are_bitwise_identical():
    M = np.array([[0.37, 0.11], [0.05, 0.42]])
    c = np.array([0.3, 0.7])
    lam0 = np.zeros(2)
    a = fixed_point_solve(vector_affine(M, c), lam0, SolveConfig(tol=1e-12))
    b = fixed_point_solve(vector_affine(M, c), lam0, SolveConfig(tol=1e-12))
    assert [r.residual for r in a.trace] == [r.residual for r in b.trace]
    assert np.array_equal(a.value, b.value)


def test_minimizers_come_from_the_returned_value():
    res = fixed_point_solve(
        vector_affine(np.array([[0.5]]), np.array([1.0])), zeros1(), SolveConfig()
    )
    assert np.array_equal(res.minimizer, res.value)


def test_vector_contraction_reaches_linear_solve():
    M = np.array([[0.3, 0.2, 0.0], [0.1, 0.1, 0.3], [0.0, 0.2, 0.4]])
    c = np.array([1.0, 0.5, 0.25])
    res = fixed_point_solve(vector_affine(M, c), np.zeros(3), SolveConfig(tol=1e-13))
    np.testing.assert_allclose(res.value, np.linalg.solve(np.eye(3) - M, c), atol=1e-11)


def test_stationarity_small_after_convergence():
    step = scalar_affine(0.5, 1.0)
    res = fixed_point_solve(step, zeros1(), SolveConfig(tol=1e-12))
    assert abs(step(res.value)[0] - res.value).max() < 1e-10


# ---------------------------------------------------------------------------
# spectral radius


def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([0.5, 0.2])) == pytest.approx(0.5, abs=1e-10)


def test_spectral_radius_nilpotent():
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(
        0.0, abs=1e-10
    )


def test_spectral_radius_column_stochastic():
    M = np.array([[0.9, 0.4], [0.1, 0.6]])
    assert spectral_radius(M) == pytest.approx(1.0, abs=1e-9)


def test_spectral_radius_complex_pair():
    rot = 0.7 * np.array(
        [[np.cos(0.8), -np.sin(0.8)], [np.sin(0.8), np.cos(0.8)]]
    )
    assert spectral_radius(rot) == pytest.approx(0.7, rel=1e-8)


def test_spectral_radius_negative_scalar_and_zero():
    assert spectral_radius(np.array([[-0.8]])) == pytest.approx(0.8, abs=1e-12)
    assert spectral_radius(np.zeros((3, 3))) == 0.0
    assert spectral_radius(np.zeros((0, 0))) == 0.0


def test_spectral_radius_defective_jordan_block():
    J = np.array([[0.9, 1.0], [0.0, 0.9]])
    assert spectral_radius(J) == pytest.approx(0.9, rel=1e-6)


def test_spectral_radius_permutation_cycle():
    # eigenvalues are the complex square roots of a*b
    M = np.array([[0.0, 0.3], [1.2, 0.0]])
    assert spectral_radius(M) == pytest.approx(np.sqrt(0.36), rel=1e-8)


def test_spectral_radius_rejects_non_square():
    with pytest.raises(InputError, match="expected a square matrix"):
        spectral_radius(np.zeros((2, 3)))


@pytest.mark.parametrize("seed", range(25))
def test_spectral_radius_matches_dense_eigenvalues(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    M = rng.standard_normal((n, n))
    truth = float(np.max(np.abs(np.linalg.eigvals(M))))
    est = spectral_radius(M)
    assert est == pytest.approx(truth, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_spectral_radius_on_sparse_nonnegative(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(5, 30))
    M = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.15)
    truth = float(np.max(np.abs(np.linalg.eigvals(M))))
    assert spectral_radius(M) == pytest.approx(truth, rel=1e-8, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_spectral_radius_scale_equivariance(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((4, 4))
    base = spectral_radius(M)
    assert spectral_radius(2.0 * M) == pytest.approx(2.0 * base, rel=1e-7, abs=1e-9)
