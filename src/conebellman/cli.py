"""Batch command-line front door: solve, verify.

    conebellman solve PROBLEM.json [--tol R] [--max-iter N] [--out DIR] [--trace]
    conebellman verify PROBLEM.json [--seed N] [--trials N]

Exit status: 0 solved / all checks passed; 2 diverged or infeasible;
3 invalid input (schema, shapes, semantic validation, bad flags);
4 verification failure (an oracle gap above its documented tolerance).

`solve` writes solution.json (and trace.csv with --trace) into --out
(default: current directory).  Identical inputs and flags produce
byte-identical solution.json.

Set CONEBELLMAN_LOG to error (default), info, or debug for diagnostics on
stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .engine import SolveConfig
from .errors import InputError, SolveFailure
from .io import ParsedProblem, load_problem, write_solution, write_trace_csv
from .ldp import reduce as ldp_reduce
from .ldp import solve_ldp
from .lqr import solve_lqr
from .oracles import dijkstra, ldp_logsumexp_vi, ldp_rollout, naive_dare, ssp_value_iteration
from .ssp import solve_ssp

EXIT_SOLVED = 0
EXIT_DIVERGED = 2
EXIT_INVALID = 3
EXIT_VERIFY_FAILED = 4

_ROLLOUT_HORIZON = 1000
_ROLLOUT_START = 0


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported as exit status 3 (invalid input)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _build_parser() -> _Parser:
    parser = _Parser(prog="conebellman", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a problem file, write solution.json")
    solve.add_argument("problem", help="problem JSON file")
    solve.add_argument("--tol", type=float, default=1e-10)
    solve.add_argument("--max-iter", type=int, default=100_000)
    solve.add_argument("--out", default=".", help="output directory (default: .)")
    solve.add_argument("--trace", action="store_true", help="also write trace.csv")

    verify = sub.add_parser("verify", help="solve and cross-check against oracles")
    verify.add_argument("problem", help="problem JSON file")
    verify.add_argument("--seed", type=int, default=0, help="rollout seed (ldp)")
    verify.add_argument(
        "--trials", type=int, default=0, help="Monte Carlo rollout trials (ldp)"
    )
    return parser


def _setup_logging() -> None:
    name = os.environ.get("CONEBELLMAN_LOG", "error").strip().lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if name not in levels:
        print(
            f"warning: CONEBELLMAN_LOG={name!r} not one of {sorted(levels)}; "
            "using 'error'",
            file=sys.stderr,
        )
    logging.basicConfig(
        level=levels.get(name, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _dispatch_solve(parsed: ParsedProblem, cfg: SolveConfig):
    """Run the matching solver; return (solution dict, trace)."""
    if parsed.kind in ("ssp", "ssp-graph"):
        sol = solve_ssp(parsed.problem, cfg)
        out = {
            "type": parsed.kind,
            "lambda": sol.lam,
            "gain": sol.K,
            "stationarity_residual": sol.stationarity,
            "rho_closed_loop": sol.rho_closed_loop,
            "iterations": len(sol.trace),
        }
        if parsed.compiled is not None:
            out["node_of_state"] = list(parsed.compiled.node_of_state)
        return out, sol.trace
    if parsed.kind == "lqr":
        sol = solve_lqr(parsed.problem, cfg)
        out = {
            "type": "lqr",
            "lambda": sol.lam,
            "gain": sol.K,
            "dare_residual": sol.dare_residual,
            "rho_closed_loop": sol.rho_closed_loop,
            "iterations": len(sol.trace),
        }
        return out, sol.trace
    sol = solve_ldp(parsed.problem, cfg)
    p = parsed.problem
    nongoal = np.ones(p.n, dtype=bool)
    nongoal[list(p.goals)] = False
    out = {
        "type": "ldp",
        "nongoal_states": np.flatnonzero(nongoal),
        "lambda": sol.lam,
        "z": sol.z,
        "Pstar": sol.Pstar,
        "bellman_residual": sol.bellman_residual,
        "iterations": len(sol.trace),
    }
    return out, sol.trace


def _cmd_solve(args) -> int:
    parsed = load_problem(args.problem)
    cfg = SolveConfig(tol=args.tol, max_iter=args.max_iter)
    out_dict, trace = _dispatch_solve(parsed, cfg)
    os.makedirs(args.out, exist_ok=True)
    solution_path = os.path.join(args.out, "solution.json")
    write_solution(solution_path, out_dict)
    written = [solution_path]
    if args.trace:
        trace_path = os.path.join(args.out, "trace.csv")
        write_trace_csv(trace_path, trace)
        written.append(trace_path)
    residual_key = (
        "stationarity_residual" if "stationarity_residual" in out_dict
        else "dare_residual" if "dare_residual" in out_dict
        else "bellman_residual"
    )
    print(
        f"{parsed.kind}: converged in {out_dict['iterations']} iterations, "
        f"{residual_key} {out_dict[residual_key]:.3e}"
    )
    for path in written:
        print(f"wrote {path}")
    return EXIT_SOLVED


def _sup_gap(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _cmd_verify(args) -> int:
    parsed = load_problem(args.problem)
    cfg = SolveConfig()
    checks: list[tuple[str, float, float]] = []
    if parsed.kind in ("ssp", "ssp-graph"):
        sol = solve_ssp(parsed.problem, cfg)
        vi = ssp_value_iteration(parsed.problem, iters=50_000, tol=1e-14)
        checks.append(("lambda vs dense value-iteration oracle", _sup_gap(sol.lam, vi), 1e-10))
        if parsed.graph is not None and parsed.graph.is_deterministic():
            dist = dijkstra(parsed.graph)
            along_states = dist[list(parsed.compiled.node_of_state)]
            checks.append(("lambda vs dijkstra distances", _sup_gap(sol.lam, along_states), 1e-12))
    elif parsed.kind == "lqr":
        sol = solve_lqr(parsed.problem, cfg)
        # naive_dare stops on an absolute step between sweeps, which 1e-13
        # cannot reach once the value matrix grows with the problem
        p = parsed.problem
        scale = max(1.0, float(np.max(np.abs(p.Q))) if p.Q.size else 0.0)
        oracle = naive_dare(p, tol=1e-13 * scale)
        checks.append(("lambda vs explicit-inverse Riccati oracle", _sup_gap(sol.lam, oracle), 1e-9))
        checks.append(("Riccati equation residual", sol.dare_residual, 1e-9))
        first_order = (p.R + p.B.T @ sol.lam @ p.B) @ sol.K + p.B.T @ sol.lam @ p.A
        defect = float(np.max(np.abs(first_order))) if first_order.size else 0.0
        checks.append(("gain first-order condition", defect, 1e-10))
    else:
        reduced = ldp_reduce(parsed.problem)
        sol = solve_ldp(parsed.problem, cfg)
        vi = ldp_logsumexp_vi(reduced, iters=100_000, tol=1e-12)
        checks.append(("lambda vs log-sum-exp value-iteration oracle", _sup_gap(sol.lam, vi), 1e-8))
        checks.append(("Bellman residual at (lambda, Pstar)", sol.bellman_residual, 1e-9))
        if args.trials > 0:
            stats = ldp_rollout(
                reduced,
                sol.Pstar,
                start_state=_ROLLOUT_START,
                horizon=_ROLLOUT_HORIZON,
                trials=args.trials,
                seed=args.seed,
            )
            gap = abs(stats.mean_cost - float(sol.lam[_ROLLOUT_START]))
            print(
                f"rollout from state {_ROLLOUT_START}: mean {stats.mean_cost:.6f} "
                f"+/- {stats.std_error:.6f} over {stats.trials} trials "
                f"(truncated fraction {stats.truncated_fraction:.4f})"
            )
            checks.append(
                ("rollout mean within 3 standard errors", gap, 3.0 * stats.std_error + 1e-12)
            )
            checks.append(("rollout truncated fraction", stats.truncated_fraction, 0.01))

    failed = 0
    for name, value, tol in checks:
        ok = value < tol or value <= tol * (1.0 + 1e-12)
        if not ok:
            failed += 1
        print(f"{name}: {value:.6e} (tolerance {tol:.1e}) {'ok' if ok else 'FAIL'}")
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print("all checks passed")
    return EXIT_SOLVED


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    commands = {"solve": _cmd_solve, "verify": _cmd_verify}
    try:
        return commands[args.command](args)
    except InputError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SolveFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
