"""The benchmark's in-process cases run against the package as it stands.

bench/cases.py imports public names of the package and reads problem
attributes; a deletion or rename of one of them would otherwise show only
as a failed benchmark run.  Each kind's tour case goes through the same
set-up, checked op and traced op that bench/run.py runs.
"""

import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import cases
        import spans

        yield cases, spans
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("kind", ["ssp", "lqr", "ldp"])
def test_tour_case_sets_up_runs_and_traces(bench, tmp_path, kind):
    cases, spans = bench
    case = cases.tour(seed=1, workdir=str(tmp_path), env=dict(os.environ))[kind]
    case.prepare_oracle()
    case.prepare_reference()
    case.check(case.run(), bitwise=True)

    tracer = spans.Tracer()
    tracer.op = 0  # bench/run.py stamps each traced op with its id
    case.check(case.traced(tracer), bitwise=False)
    names = {name for name, *_ in tracer.spans}
    assert {"op", f"{kind}.intake", f"{kind}.solve", "engine.spectral_radius"} <= names
    assert all(op == 0 for *_, op in tracer.spans)
