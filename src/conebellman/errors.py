"""The two ways a solve fails, and the three solve outcomes callers tell apart.

:class:`InputError` covers everything that is wrong with the data handed to
us (bad shapes, signs, stochasticity, missing or non-absorbing goals, bad
call arguments), while :class:`SolveFailure` covers problems that were
well-formed but could not be solved (singular systems, loss of definiteness).
The CLI maps the first to exit status 3 and the second to exit status 2.
The engine and the certificates raise one of three subclasses of
SolveFailure, so that a caller can tell a budget that ran out from an
ill-posed problem.
"""


class InputError(Exception):
    """The problem data or call arguments violate a documented precondition."""


class SolveFailure(Exception):
    """A well-formed problem could not be solved."""


class MaxIterExceeded(SolveFailure):
    """The iteration budget ran out before the residual dropped below tol."""


class Diverged(SolveFailure):
    """An iterate blew past the divergence cap or turned NaN."""


class CertificationError(SolveFailure):
    """A converged candidate failed its post-solve certification checks."""
