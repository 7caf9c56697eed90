"""Exception taxonomy shared by the cone solvers.

Two families matter for callers: :class:`InputError` covers everything that is
wrong with the data handed to us (bad shapes, signs, stochasticity, missing or
non-absorbing goals), while :class:`SolveFailure` covers problems that were
well-formed but could not be solved (divergence, iteration budgets, singular
systems).  The CLI maps the first family to exit status 3 and the second to
exit status 2.
"""


class ConebellmanError(Exception):
    """Base class for every error raised by this package."""


class InputError(ConebellmanError):
    """The problem data or call arguments violate a documented precondition."""


class SolveFailure(ConebellmanError):
    """A well-formed problem could not be solved."""


# --- cone and shape errors ---------------------------------------------------

class NotInCone(InputError):
    """A value is outside its cone (beyond tolerance)."""


class NonSquare(InputError):
    """A matrix that must be square is not."""


class ShapeMismatch(InputError):
    """Array dimensions are inconsistent with the problem data."""


class InvalidProblem(InputError):
    """Problem data fails a structural validity check."""


# --- fixed-point engine failures ---------------------------------------------

class MaxIterExceeded(SolveFailure):
    """The iteration budget ran out before the residual dropped below tol."""


class Diverged(SolveFailure):
    """Iterates blew past the divergence cap or residuals grew persistently."""


class CertificationError(SolveFailure):
    """A converged candidate failed its post-solve certification checks."""


# --- shortest-path solver ----------------------------------------------------

class NegativeLambda(InputError):
    """A value vector that must be elementwise nonnegative has negative entries."""


# --- Riccati solver ------------------------------------------------------------

class NotPositiveDefinite(SolveFailure):
    """R + B^T lam B lost positive definiteness mid-solve (Cholesky pivot failed)."""


class UnstableGain(InputError):
    """A feedback gain whose closed loop must be stable has spectral radius >= 1."""


# --- desirability solver -------------------------------------------------------

class NoGoal(InputError):
    """The goal set is empty."""


class GoalNotAbsorbing(InputError):
    """A goal state has outgoing transition mass or nonzero stage cost."""


class GoalUnreachable(InputError):
    """Some non-goal state has no support path to any goal."""


class SupportViolation(InputError):
    """A controlled transition matrix places mass where the passive one has none."""


class SingularSystem(SolveFailure):
    """The affine desirability system is singular (spectral radius >= 1)."""


# --- oracles ---------------------------------------------------------------------

class SingularInnerMatrix(SolveFailure):
    """The inner matrix of a Riccati step could not be inverted."""


class UnreachableNode(InputError):
    """A graph node cannot reach the goal set."""


class BadSeedConfig(InputError):
    """Rollout parameters (seed, trials, horizon) are invalid."""
