#!/usr/bin/env python3
"""Benchmark of conebellman: one workload per run, a closed loop with one client.

    python3 bench/run.py --workload small-mix --seed 1 --seconds 10 --trace 0

The run builds its inputs from ``--seed`` with ``conebellman.generators``,
computes oracle references, then issues one op at a time for ``--seconds``
(the next op starts when the previous one returns) and checks every op's
output.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it measures half the time untraced and half traced, and
reports the per-layer metrics from spans around its own calls into each
module's public functions.  Human-readable lines come first; the last line
of standard output is the JSON result.  Metric names and units come from
BENCHMARK.json at the repository root.

The package is imported from ``src/`` next to this directory, never from an
installed copy, with BLAS pinned to one thread for this process and its
children.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3  # setup_s is the median of this many full set-ups
MIN_OPS = 21  # enough samples for a tail percentile with 10 beyond it
TOUR_REPEATS = 5  # traced ops per tour case, for layers the workload misses
STARTUP_REPEATS = 3

# per-layer metric -> span name; value = mean milliseconds per op making the call
SPAN_METRICS = {
    "engine.spectral_radius_ms": "engine.spectral_radius",
    "ssp.intake_ms": "ssp.intake",
    "ssp.compile_graph_ms": "ssp.compile_graph",
    "ssp.solve_ms": "ssp.solve",
    "ssp.bellman_update_ms": "ssp.bellman_update",
    "ssp.certify_ms": "ssp.certify",
    "lqr.intake_ms": "lqr.intake",
    "lqr.solve_ms": "lqr.solve",
    "lqr.riccati_step_ms": "lqr.riccati_step",
    "lqr.certify_ms": "lqr.certify",
    "ldp.intake_ms": "ldp.intake",
    "ldp.reduce_ms": "ldp.reduce",
    "ldp.solve_desirability_ms": "ldp.solve_desirability",
    "ldp.optimal_policy_ms": "ldp.optimal_policy",
    "ldp.verify_bellman_ms": "ldp.verify_bellman",
    "io.load_problem_ms": "io.load_problem",
    "io.write_solution_ms": "io.write_solution",
    "cli.process_ms": "cli.process",
    "cli.main_ms": "cli.main",
    "cli.startup_ms": "cli.startup",
}
# exact counts: mean over the distinct cases that define them
COUNT_METRICS = (
    "ssp.sweeps",
    "ssp.matrix_bytes",
    "lqr.sweeps",
    "ldp.direct_route_frac",
    "ldp.matrix_bytes",
    "io.input_bytes",
    "io.solution_bytes",
)
# solver span, one-sweep span, certificate span and sweep count per engine class
ENGINE_SOLVES = (
    ("ssp.solve", "ssp.bellman_update", "ssp.certify", "ssp.sweeps"),
    ("lqr.solve", "lqr.riccati_step", "lqr.certify", "lqr.sweeps"),
)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def _environment() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_desc = "unknown"
    threads = " ".join(f"{k}={os.environ.get(k)}" for k in BLAS_ENV)
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, blas {blas_desc}, "
        f"{threads}, nproc {os.cpu_count()}"
    )


def _set_up(build, seed: int, workdir: str, env: dict):
    """Build the cases, compute oracle references and one reference solve each."""
    t0 = time.perf_counter()
    cases = build(seed, workdir, env)
    oracle_s = sum(case.prepare_oracle() for case in cases)
    for case in cases:
        case.prepare_reference()
        case.check(case.ref, bitwise=True)
    return cases, time.perf_counter() - t0, oracle_s


class Loop:
    """Closed loop over ``cases`` in order; op times in ns and failures."""

    def __init__(self):
        self.times_ns: list[int] = []
        self.failed = 0
        self.wall_s = 0.0
        self.errors: list[str] = []

    def run(self, cases, op, seconds: float, bitwise: bool):
        gc.collect()
        start = time.perf_counter()
        deadline = start + seconds
        k = 0
        while time.perf_counter() < deadline or k < MIN_OPS:
            self.one(cases[k % len(cases)], op, bitwise)
            k += 1
        self.wall_s += time.perf_counter() - start
        return self

    def one(self, case, op, bitwise: bool) -> None:
        error = None
        t0 = time.perf_counter_ns()
        try:
            out = op(case)
        except Exception as exc:  # a failed op is counted, not fatal
            error = exc
        self.times_ns.append(time.perf_counter_ns() - t0)
        if error is None:
            try:
                case.check(out, bitwise=bitwise)
            except Exception as exc:
                error = exc
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{case.label}: {type(error).__name__}: {error}")

    @property
    def attempted(self) -> int:
        return len(self.times_ns)


def _tail(times_ns: list[int]) -> tuple[float, float]:
    """(percentile, ms) of the highest sample with at least 10 samples above it."""
    ordered = sorted(times_ns)
    k = max(len(ordered) - 11, 0)
    return 100.0 * (k + 1) / len(ordered), ordered[k] / 1e6


def _end_to_end(workload: str, loop: Loop, setup_runs: list[float]) -> dict:
    usage = resource.RUSAGE_CHILDREN if workload == "cli-files" else resource.RUSAGE_SELF
    pct, tail_ms = _tail(loop.times_ns)
    print(f"op_ms_tail is p{pct:.1f} of {loop.attempted} samples")
    # for reading only: README.md says why these two are not listed metrics
    print(f"ops_per_s {(loop.attempted - loop.failed) / loop.wall_s:.4f} 1/s")
    print(f"op_ms_p50 {statistics.median(loop.times_ns) / 1e6:.3f} ms")
    return {
        "op_ms_tail": tail_ms,
        "setup_s": statistics.median(setup_runs),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }


def _host_calib_ms() -> float:
    """Fixed pure-Python plus numpy probe; shows host drift beside the numbers."""
    import numpy as np

    runs = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        acc = 0
        for k in range(200_000):
            acc += k * k
        a = np.full((150, 150), 1.0 / 150.0)
        for _ in range(20):
            a = np.tanh(a @ a + 0.5)
        runs.append(time.perf_counter_ns() - t0)
    return statistics.median(runs) / 1e6


def _per_layer(args, cases, oracle_runs, workdir, env) -> tuple[dict, Loop]:
    from cases import tour
    from spans import Tracer

    calib_ms = _host_calib_ms()
    loop = Loop().run(cases, lambda case: case.run(), args.seconds / 2, bitwise=True)

    tracer = Tracer()
    op_cases: list = []  # the case of each op id; None for a startup probe

    def traced(case):
        tracer.op = len(op_cases)
        op_cases.append(case)
        return case.traced(tracer)

    singles = [member for case in cases for member in getattr(case, "members", [case])]
    # untraced mean time of one single case, the unit traced ops are timed in
    plain_ms = statistics.fmean(loop.times_ns) / 1e6 * len(cases) / len(singles)
    loop.run(singles, traced, args.seconds / 2, bitwise=False)
    n_own = len(op_cases)

    missing = {"ssp", "lqr", "ldp", "cli"} - {case.kind for case in singles}
    extra = [case for kind, case in tour(args.seed, workdir, env).items() if kind in missing]
    for case in extra:
        case.prepare_oracle()
        case.prepare_reference()
    for _ in range(TOUR_REPEATS):
        for case in extra:
            loop.one(case, traced, bitwise=False)

    for _ in range(STARTUP_REPEATS):
        tracer.op = len(op_cases)
        op_cases.append(None)
        with tracer.span("cli.startup"):
            subprocess.run(
                [sys.executable, "-c", "import conebellman.cli"],
                env=env,
                check=True,
                timeout=120,
            )

    metrics = {}
    for metric, span in SPAN_METRICS.items():
        per_op = tracer.per_op_ms(span)
        metrics[metric] = statistics.fmean(per_op.values()) if per_op else None
    distinct = singles + extra
    for metric in COUNT_METRICS:
        values = [case.counts[metric] for case in distinct if metric in case.counts]
        metrics[metric] = statistics.fmean(values) if values else None

    overheads = []
    for solve, step, certify, sweeps in ENGINE_SOLVES:
        solve_ms, step_ms, certify_ms = (tracer.per_op_ms(n) for n in (solve, step, certify))
        for op, ms in solve_ms.items():
            if op in step_ms and op in certify_ms:  # a failed op may lack its probes
                count = op_cases[op].counts[sweeps]
                overheads.append(ms - count * step_ms[op] - certify_ms[op])
    metrics["engine.sweep_overhead_ms"] = statistics.fmean(overheads) if overheads else None

    own_op_ms = [ms for op, ms in tracer.per_op_ms("op").items() if op < n_own]
    metrics["trace.overhead_ops_per_s"] = 1e3 / plain_ms - 1e3 / statistics.fmean(own_op_ms)
    metrics["oracles.reference_s"] = statistics.median(oracle_runs)
    metrics["host.calib_ms"] = calib_ms

    print(f"layers measured on tour cases (workload does not call them): {sorted(missing) or 'none'}")
    print(f"{'span':28s} {'count':>6s} {'total ms':>12s} {'self ms':>12s}")
    for name, row in sorted(tracer.summary().items()):
        print(f"{name:28s} {row['count']:6d} {row['total_ms']:12.3f} {row['self_ms']:12.3f}")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(str(spans_path), [case.label if case else "cli.startup" for case in op_cases])
    print(f"wrote {spans_path.relative_to(ROOT)}")
    return metrics, loop


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (SRC / "conebellman" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/conebellman", file=sys.stderr)
        return 2

    # before numpy is first imported, so the pin holds here and in children
    os.environ.update(BLAS_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    sys.path.insert(0, str(SRC))
    import conebellman

    if not Path(conebellman.__file__).resolve().is_relative_to(SRC):
        print(f"error: conebellman imported from {conebellman.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from cases import WORKLOADS

    build = WORKLOADS[args.workload]
    env = dict(os.environ)
    print(f"env: {_environment()}")
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        setup_runs, oracle_runs = [], []
        for _ in range(SETUP_REPEATS):
            cases, setup_s, oracle_s = _set_up(build, args.seed, workdir, env)
            setup_runs.append(setup_s)
            oracle_runs.append(oracle_s)
        print(
            f"workload {args.workload} seed {args.seed}: {len(cases)} cases; set-up "
            + ", ".join(f"{s:.3f}" for s in setup_runs)
            + f" s (oracles {statistics.median(oracle_runs):.3f} s)"
        )
        if args.trace:
            values, loop = _per_layer(args, cases, oracle_runs, workdir, env)
            listed = spec["per_layer"]
        else:
            loop = Loop().run(cases, lambda case: case.run(), args.seconds, bitwise=True)
            values = _end_to_end(args.workload, loop, setup_runs)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{loop.attempted} ops, {loop.failed} failed, {loop.wall_s:.2f} s measured")
    for line in loop.errors:
        print(f"failure: {line}", file=sys.stderr)
    missing = [m["name"] for m in listed if values.get(m["name"]) is None]
    if missing or set(values) != {m["name"] for m in listed}:
        print(f"error: metrics do not match BENCHMARK.json: {sorted(values)} {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
