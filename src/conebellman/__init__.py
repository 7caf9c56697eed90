"""Block fixed-point solvers for explicit Bellman equations on cones.

Three control problems whose Bellman equations share one algebraic shape —
a constant term plus independent blockwise minima plus a cone-monotone
linear term:

- shortest-path control of positive linear systems (`ssp`) and
  discrete-time LQR via decomposed Riccati steps (`lqr`), solved by one
  engine iterating one vectorized step per class;
- KL-control / linearly solvable MDPs (`ldp`), whose minima have a closed
  form, solved by Newton's method in the value with sparse Krylov steps,

with independent brute-force oracles (`oracles`) for cross-validation and a
batch CLI (``conebellman solve|verify``).
"""

from .engine import (
    FixedPointResult,
    SolveConfig,
    TraceRecord,
    fixed_point_solve,
    spectral_radius,
)
from .errors import (
    CertificationError,
    Diverged,
    InputError,
    MaxIterExceeded,
    SolveFailure,
)
from .ldp import (
    LdpProblem,
    LdpSolution,
    ReducedLdp,
    kl_stage_cost,
    optimal_policy,
    reduce,
    solve_desirability,
    solve_ldp,
    verify_bellman,
)
from .lqr import (
    LqrProblem,
    LqrSolution,
    cost_of_gain,
    dare_residual,
    riccati_step,
    solve_lqr,
)
from .oracles import (
    RolloutStats,
    dijkstra,
    ldp_logsumexp_vi,
    ldp_rollout,
    naive_dare,
    ssp_value_iteration,
)
from .ssp import (
    CompiledGraph,
    GraphEdge,
    GraphSsp,
    SspProblem,
    SspSolution,
    bellman_update,
    closed_loop_successors,
    compile_graph,
    solve_ssp,
    validate_gain,
)

__version__ = "0.1.0"
