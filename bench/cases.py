"""Benchmark cases: seeded inputs, one op each, and the checks every op passes.

A case holds one generated instance as raw data (arrays, edge tuples or a
problem file).  ``run`` is the untraced op: intake from the raw data, then
the public solve.  ``traced`` makes the same calls inside spans, then probes
what the solve pays for internally (one Bellman or Riccati step at the
converged value, the certificate checks) with the same public functions.

``prepare_oracle`` computes independent references in set-up and
``prepare_reference`` solves once.  ``check`` compares an op's output with
the oracles at the tolerances ``conebellman verify`` uses and, for untraced
ops, with the set-up solve bit for bit.  Only public names of the package
are used, so its internals can change without editing the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np

from conebellman import (
    GraphEdge,
    GraphSsp,
    LdpProblem,
    LdpSolution,
    LqrProblem,
    SolveConfig,
    bellman_update,
    cli,
    compile_graph,
    dare_residual,
    dijkstra,
    ldp_logsumexp_vi,
    naive_dare,
    optimal_policy,
    reduce,
    riccati_step,
    solve_desirability,
    solve_ldp,
    solve_lqr,
    solve_ssp,
    spectral_radius,
    ssp_value_iteration,
    validate_gain,
    verify_bellman,
)
from conebellman.generators import (
    random_chain_graph,
    random_ldp,
    random_lqr,
    random_ssp_graph,
)
from conebellman.io import dumps_deterministic, load_problem, write_solution

GOLDEN = (1.0 + 5.0**0.5) / 2.0

# tolerances of `conebellman verify` and of acceptance criterion 1
SSP_VI_TOL = 1e-10
SSP_DIJKSTRA_TOL = 1e-12
LQR_DARE_TOL = 1e-9
LQR_RESIDUAL_TOL = 1e-9
LQR_FIRST_ORDER_TOL = 1e-10
LDP_VI_TOL = 1e-8
LDP_RESIDUAL_TOL = 1e-9
GOLDEN_TOL = 1e-12

CLI_TIMEOUT_S = 120


class Mismatch(Exception):
    """An op's output disagrees with its references."""


def _gap(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise Mismatch(f"shape {a.shape} != reference shape {b.shape}")
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _within(what: str, value: float, tol: float) -> None:
    if not value <= tol:
        raise Mismatch(f"{what}: {value:.3e} above tolerance {tol:.0e}")


def _identical(what: str, value, reference) -> None:
    if not np.array_equal(value, reference):
        raise Mismatch(f"{what} differs from the set-up solve of the same input")


class GraphCase:
    """Graph SSP: one op is GraphSsp(...) + compile_graph + solve_ssp."""

    kind = "ssp"

    def __init__(self, label: str, graph: GraphSsp):
        self.label = label
        self.n_nodes = graph.n_nodes
        self.goals = tuple(graph.goals)
        self.edges = [(e.source, e.targets, e.cost, e.probs) for e in graph.edges]
        self.s = np.array(graph.s)
        self.cfg = SolveConfig()
        self.counts: dict[str, float] = {}

    def intake(self) -> GraphSsp:
        edges = tuple(GraphEdge(*e) for e in self.edges)
        return GraphSsp(n_nodes=self.n_nodes, goals=self.goals, edges=edges, s=self.s)

    def problem_json(self) -> dict:
        edges = []
        for source, targets, cost, probs in self.edges:
            if len(targets) == 1:
                edges.append({"from": source, "to": targets[0], "cost": cost})
            else:
                edges.append(
                    {"from": source, "to": list(targets), "cost": cost, "prob": list(probs)}
                )
        return {
            "type": "ssp-graph",
            "nodes": self.n_nodes,
            "goal": list(self.goals),
            "edges": edges,
            "s": self.s,
        }

    def run(self):
        return solve_ssp(compile_graph(self.intake()).problem, self.cfg)

    def prepare_oracle(self) -> float:
        graph = self.intake()
        compiled = compile_graph(graph)
        t0 = time.perf_counter()
        self.vi = ssp_value_iteration(compiled.problem, iters=50_000, tol=1e-14)
        self.dist = None
        if graph.is_deterministic():
            self.dist = dijkstra(graph)[list(compiled.node_of_state)]
        return time.perf_counter() - t0

    def prepare_reference(self) -> None:
        p = compile_graph(self.intake()).problem
        self.ref = self.run()
        self.counts = {
            "ssp.sweeps": len(self.ref.trace),
            "ssp.matrix_bytes": p.A.nbytes + p.B.nbytes + p.E.nbytes,
        }

    def check_value(self, lam) -> None:
        _within("lambda vs value iteration", _gap(lam, self.vi), SSP_VI_TOL)
        if self.dist is not None:
            _within("lambda vs dijkstra", _gap(lam, self.dist), SSP_DIJKSTRA_TOL)

    def check(self, sol, bitwise: bool) -> None:
        self.check_value(sol.lam)
        if bitwise:
            _identical("lambda", sol.lam, self.ref.lam)
            _identical("gain", sol.K, self.ref.K)
            _identical("sweep count", len(sol.trace), len(self.ref.trace))

    def traced(self, tr):
        with tr.span("op"):
            with tr.span("ssp.intake"):
                graph = self.intake()
            with tr.span("ssp.compile_graph"):
                compiled = compile_graph(graph)
            with tr.span("ssp.solve"):
                sol = solve_ssp(compiled.problem, self.cfg)
        p = compiled.problem
        with tr.span("ssp.bellman_update"):
            lam_next, _ = bellman_update(p, sol.lam)
        with tr.span("ssp.certify"):
            with tr.span("ssp.validate_gain"):
                feasible = validate_gain(p, sol.K)
            closed = np.maximum(p.A + p.B @ sol.K, 0.0)
            with tr.span("engine.spectral_radius"):
                rho = spectral_radius(closed)
        _within("bellman_update at the solution", _gap(lam_next, sol.lam), 10 * self.cfg.tol)
        if not feasible or not rho < 1.0:
            raise Mismatch(f"certificate probe failed: feasible={feasible}, rho={rho}")
        return sol


class LqrCase:
    """LQR: one op is LqrProblem(...) + solve_lqr."""

    kind = "lqr"

    def __init__(self, label: str, A, B, Q, R, tol: float = 1e-10, golden: bool = False):
        self.label = label
        self.A, self.B, self.Q, self.R = (np.array(M, dtype=float) for M in (A, B, Q, R))
        self.cfg = SolveConfig(tol=tol)
        self.golden = golden
        self.counts: dict[str, float] = {}

    @classmethod
    def random(cls, label: str, n: int, m: int, seed: int) -> "LqrCase":
        p = random_lqr(n, m, seed=seed)
        return cls(label, p.A, p.B, p.Q, p.R)

    def intake(self) -> LqrProblem:
        return LqrProblem(A=self.A, B=self.B, Q=self.Q, R=self.R)

    def problem_json(self) -> dict:
        return {"type": "lqr", "A": self.A, "B": self.B, "Q": self.Q, "R": self.R}

    def run(self):
        return solve_lqr(self.intake(), self.cfg)

    def prepare_oracle(self) -> float:
        p = self.intake()
        # naive_dare stops on an absolute step; 1e-13 is out of reach once the
        # value matrix is in the hundreds (n=120), so scale it with Q.
        tol = 1e-13 * max(1.0, float(np.max(np.abs(p.Q))))
        t0 = time.perf_counter()
        self.dare = naive_dare(p, tol=tol)
        return time.perf_counter() - t0

    def prepare_reference(self) -> None:
        self.ref = self.run()
        self.counts = {"lqr.sweeps": len(self.ref.trace)}

    def check_value(self, lam, K=None) -> None:
        _within("lambda vs explicit-inverse Riccati oracle", _gap(lam, self.dare), LQR_DARE_TOL)
        if self.golden:
            _within("lambda vs golden ratio", abs(float(np.asarray(lam)[0, 0]) - GOLDEN), GOLDEN_TOL)
            if K is not None:
                gain_gap = abs(float(K[0, 0]) + GOLDEN / (1.0 + GOLDEN))
                _within("gain vs -phi/(1+phi)", gain_gap, GOLDEN_TOL)

    def check(self, sol, bitwise: bool) -> None:
        self.check_value(sol.lam, sol.K)
        _within("Riccati equation residual", sol.dare_residual, LQR_RESIDUAL_TOL)
        first_order = (self.R + self.B.T @ sol.lam @ self.B) @ sol.K + self.B.T @ sol.lam @ self.A
        _within("gain first-order condition", float(np.max(np.abs(first_order))), LQR_FIRST_ORDER_TOL)
        if bitwise:
            _identical("lambda", sol.lam, self.ref.lam)
            _identical("gain", sol.K, self.ref.K)
            _identical("sweep count", len(sol.trace), len(self.ref.trace))

    def traced(self, tr):
        with tr.span("op"):
            with tr.span("lqr.intake"):
                p = self.intake()
            with tr.span("lqr.solve"):
                sol = solve_lqr(p, self.cfg)
        with tr.span("lqr.riccati_step"):
            riccati_step(p, sol.lam)
        with tr.span("lqr.certify"):
            min_eig = float(np.linalg.eigvalsh(sol.lam)[0])
            closed = p.A + p.B @ sol.K
            with tr.span("engine.spectral_radius"):
                rho = spectral_radius(closed)
            with tr.span("lqr.dare_residual"):
                defect = dare_residual(p, sol.lam)
        if not (min_eig > 0.0 and rho < 1.0):
            raise Mismatch(f"certificate probe failed: min eig {min_eig}, rho {rho}")
        _within("dare_residual probe", defect, LQR_RESIDUAL_TOL)
        return sol


class LdpCase:
    """KL control: one op is LdpProblem(...) + solve_ldp."""

    kind = "ldp"

    def __init__(self, label: str, problem: LdpProblem):
        self.label = label
        self.Pbar = np.array(problem.Pbar)
        self.s = np.array(problem.s)
        self.goals = tuple(problem.goals)
        self.cfg = SolveConfig()
        self.counts: dict[str, float] = {}

    def intake(self) -> LdpProblem:
        return LdpProblem(Pbar=self.Pbar, s=self.s, goals=self.goals)

    def problem_json(self) -> dict:
        return {"type": "ldp", "Pbar": self.Pbar, "s": self.s, "goals": list(self.goals)}

    def run(self):
        return solve_ldp(self.intake(), self.cfg)

    def prepare_oracle(self) -> float:
        reduced = reduce(self.intake())
        t0 = time.perf_counter()
        self.vi = ldp_logsumexp_vi(reduced, iters=100_000, tol=1e-12)
        return time.perf_counter() - t0

    def prepare_reference(self) -> None:
        self.ref = self.run()
        reduced = reduce(self.intake())
        self.counts = {
            "ldp.direct_route_frac": 1.0 if len(self.ref.trace) == 1 else 0.0,
            "ldp.matrix_bytes": self.Pbar.nbytes + reduced.Pbar_r.nbytes + self.ref.Pstar.nbytes,
        }

    def check_value(self, lam) -> None:
        _within("lambda vs log-sum-exp value iteration", _gap(lam, self.vi), LDP_VI_TOL)

    def check(self, sol, bitwise: bool) -> None:
        self.check_value(sol.lam)
        _within("Bellman residual at (lambda, Pstar)", sol.bellman_residual, LDP_RESIDUAL_TOL)
        if bitwise:
            _identical("lambda", sol.lam, self.ref.lam)
            _identical("Pstar", sol.Pstar, self.ref.Pstar)
            _identical("trace length", len(sol.trace), len(self.ref.trace))

    def traced(self, tr):
        # the four public stages solve_ldp runs, in its order, as true children
        with tr.span("op"):
            with tr.span("ldp.intake"):
                p = self.intake()
            with tr.span("ldp.solve"):
                with tr.span("ldp.reduce"):
                    r = reduce(p)
                with tr.span("ldp.solve_desirability"):
                    z, lam, trace = solve_desirability(r, self.cfg)
                with tr.span("ldp.optimal_policy"):
                    Pstar = optimal_policy(r, lam)
                with tr.span("ldp.verify_bellman"):
                    residual = verify_bellman(r, lam, Pstar)
        GP = np.exp(-r.s_r)[:, None] * r.Pbar_r.T
        with tr.span("engine.spectral_radius"):
            rho = spectral_radius(GP)
        if not rho < 1.0:
            raise Mismatch(f"rho(G Pbar_r^T) probe {rho} >= 1")
        return LdpSolution(z=z, lam=lam, Pstar=Pstar, trace=trace, bellman_residual=residual)


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class CliCase:
    """One `conebellman solve FILE --out DIR` process per op.

    ``inner`` is the in-process case of the same instance; its oracles check
    the reference solution.json, which in-process ``cli.main`` writes in
    set-up.  Every op's output must equal that reference byte for byte.
    """

    kind = "cli"

    def __init__(self, label: str, inner, workdir: str, env: dict):
        self.label = label
        self.inner = inner
        self.env = env
        self.path = os.path.join(workdir, f"{label}.json")
        self.out = os.path.join(workdir, f"{label}.out")
        self.ref_dir = os.path.join(workdir, f"{label}.ref")
        self.probe_dir = os.path.join(workdir, f"{label}.probe")
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(dumps_deterministic(inner.problem_json()) + "\n")
        self.counts: dict[str, float] = {}

    def run(self) -> bytes:
        target = os.path.join(self.out, "solution.json")
        with contextlib.suppress(FileNotFoundError):
            os.remove(target)
        proc = subprocess.run(
            [sys.executable, "-m", "conebellman.cli", "solve", self.path, "--out", self.out],
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=CLI_TIMEOUT_S,
        )
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip()[-300:]
            raise Mismatch(f"conebellman solve exited {proc.returncode}: {tail}")
        with open(target, "rb") as fh:
            return fh.read()

    def prepare_oracle(self) -> float:
        return self.inner.prepare_oracle()

    def prepare_reference(self) -> None:
        code = _quiet_main(["solve", self.path, "--out", self.ref_dir])
        if code != 0:
            raise Mismatch(f"in-process cli.main exited {code} on {self.label}")
        with open(os.path.join(self.ref_dir, "solution.json"), "rb") as fh:
            self.ref = fh.read()
        self.inner.check_value(np.array(json.loads(self.ref)["lambda"], dtype=float))
        self.counts = {
            "io.input_bytes": os.path.getsize(self.path),
            "io.solution_bytes": len(self.ref),
        }

    def check(self, out: bytes, bitwise: bool) -> None:
        if out != self.ref:
            raise Mismatch("solution.json differs from the in-process cli.main reference")

    def traced(self, tr):
        with tr.span("op"):
            with tr.span("cli.process"):
                out = self.run()
        with tr.span("io.load_problem"):
            load_problem(self.path)
        with tr.span("cli.main"):
            code = _quiet_main(["solve", self.path, "--out", self.probe_dir])
        if code != 0:
            raise Mismatch(f"in-process cli.main exited {code}")
        # parse_int=float keeps "-0" a float, so re-emitting reproduces the bytes
        obj = json.loads(self.ref, parse_int=float)
        written = os.path.join(self.probe_dir, "rewritten.json")
        with tr.span("io.write_solution"):
            write_solution(written, obj)
        for name in ("solution.json", "rewritten.json"):
            with open(os.path.join(self.probe_dir, name), "rb") as fh:
                if fh.read() != self.ref:
                    raise Mismatch(f"probe {name} differs from the reference solution.json")
        return out


class Batch:
    """A fixed list of cases issued back to back as one untraced op.

    Traced runs issue the members one by one, so each keeps its own spans.
    """

    def __init__(self, label: str, members: list):
        self.label = label
        self.members = members

    def run(self) -> list:
        return [case.run() for case in self.members]

    def prepare_oracle(self) -> float:
        return sum(case.prepare_oracle() for case in self.members)

    def prepare_reference(self) -> None:
        for case in self.members:
            case.prepare_reference()
        self.ref = [case.ref for case in self.members]

    def check(self, outs: list, bitwise: bool) -> None:
        for case, out in zip(self.members, outs, strict=True):
            case.check(out, bitwise)


# ---------------------------------------------------------------------------
# Workloads: seed -> cases.  Instance seeds are derived from the run seed.
# ---------------------------------------------------------------------------


def small_mix(seed: int, workdir: str, env: dict) -> list:
    # One op is a pass over all ten: single small solves last a few ms, so
    # their highest percentile with 10 samples beyond it (p99.7 of ~3500)
    # only caught host stalls and varied by 0.4 of its median across seeds.
    base = 64 * seed
    golden = LqrCase("lqr-golden", [[1.0]], [[1.0]], [[1.0]], [[1.0]], tol=1e-13, golden=True)
    members = [golden]
    for k, (n, m) in enumerate([(2, 1), (3, 2), (4, 2)]):
        members.append(LqrCase.random(f"lqr{n}x{m}", n, m, base + k))
    for k in range(2):
        members.append(GraphCase(f"ssp30-{k}", random_ssp_graph(30, seed=base + k, stochastic=True)))
        members.append(GraphCase(f"chain25-{k}", random_chain_graph(25, seed=base + k)))
        members.append(LdpCase(f"ldp30-{k}", random_ldp(30, seed=base + k)))
    return [Batch("small-mix-pass", members)]


def ssp_large(seed: int, workdir: str, env: dict) -> list:
    return [
        GraphCase(f"ssp300-{k}", random_ssp_graph(300, seed=64 * seed + k, stochastic=True))
        for k in range(2)
    ]


def lqr_dense(seed: int, workdir: str, env: dict) -> list:
    return [LqrCase.random(f"lqr120x60-{k}", 120, 60, 64 * seed + k) for k in range(3)]


def ldp_large(seed: int, workdir: str, env: dict) -> list:
    # n=700 rather than 1000: about 130 ms an op, so a run holds enough ops
    # for its tail percentile to sit in the host's slow mode every time
    return [LdpCase("ldp700", random_ldp(700, seed=64 * seed))]


def cli_files(seed: int, workdir: str, env: dict) -> list:
    base = 64 * seed
    inner = [
        GraphCase("graph150", random_ssp_graph(150, seed=base, stochastic=True)),
        LqrCase.random("lqr30x15", 30, 15, base + 1),
        LdpCase("ldp300", random_ldp(300, seed=base + 2)),
    ]
    return [CliCase(case.label, case, workdir, env) for case in inner]


WORKLOADS = {
    "small-mix": small_mix,
    "ssp-large": ssp_large,
    "lqr-dense": lqr_dense,
    "ldp-large": ldp_large,
    "cli-files": cli_files,
}


def tour(seed: int, workdir: str, env: dict) -> dict:
    """One small case per kind, for the layers a workload does not reach.

    The traced run reports every layer on every workload; a layer the
    workload's own ops never call is measured on these instead.
    """
    base = 64 * seed + 32
    return {
        "ssp": GraphCase("tour-ssp30", random_ssp_graph(30, seed=base, stochastic=True)),
        "lqr": LqrCase.random("tour-lqr4x2", 4, 2, base),
        "ldp": LdpCase("tour-ldp30", random_ldp(30, seed=base)),
        "cli": CliCase(
            "tour-graph30",
            GraphCase("tour-graph30", random_ssp_graph(30, seed=base + 1, stochastic=True)),
            workdir,
            env,
        ),
    }
