"""Problem ingestion, deterministic serialization, and the batch CLI."""

import hashlib
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conebellman import InputError, cli, ssp
from conebellman.generators import random_lqr
from conebellman.io import (
    dumps_deterministic,
    load_problem,
    parse_problem,
    write_solution,
)

LQR_SCALAR = {
    "type": "lqr",
    "A": [[1.0]],
    "B": [[1.0]],
    "Q": [[1.0]],
    "R": [[1.0]],
}

LDP_SINGLE = {
    "type": "ldp",
    "Pbar": [[0.5, 0.0], [0.5, 1.0]],
    "s": [1.0, 0.0],
    "goals": [1],
}

GRAPH = {
    "type": "ssp-graph",
    "nodes": 4,
    "goal": 3,
    "edges": [
        {"from": 0, "to": [1, 2], "cost": 1.0, "prob": [0.6, 0.4]},
        {"from": 1, "to": 3, "cost": 0.5},
        {"from": 2, "to": 3, "cost": 2.0},
    ],
    "s": [0.1, 0.1, 0.1, 0.0],
}

SSP_RAW = {
    "type": "ssp",
    "A": [[1.0]],
    "B": [[-1.0]],
    "s": [1.0],
    "r": [2.0],
    "blocks": [1],
    "E": [[1.0]],
}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------------------
# parsing


def test_parse_all_problem_kinds():
    assert parse_problem(SSP_RAW).kind == "ssp"
    assert parse_problem(LQR_SCALAR).kind == "lqr"
    assert parse_problem(LDP_SINGLE).kind == "ldp"
    g = parse_problem(GRAPH)
    assert g.kind == "ssp-graph"
    assert g.graph is not None and g.compiled is not None


def test_parse_rejects_unknown_type_and_extras():
    with pytest.raises(InputError, match="unknown problem type 'mdp'"):
        parse_problem({"type": "mdp"})
    bad = dict(LQR_SCALAR)
    bad["extra"] = 1
    with pytest.raises(InputError, match="lqr: unknown field"):
        parse_problem(bad)


def test_parse_reports_missing_field():
    bad = {k: v for k, v in LQR_SCALAR.items() if k != "Q"}
    with pytest.raises(InputError, match="lqr: missing required field 'Q'"):
        parse_problem(bad)


def test_parse_rejects_ragged_matrix():
    bad = dict(LQR_SCALAR)
    bad["A"] = [[1.0], [2.0, 3.0]]
    with pytest.raises(InputError, match="field 'A' is not a numeric matrix"):
        parse_problem(bad)


def test_graph_single_target_defaults_to_probability_one():
    parsed = parse_problem(GRAPH)
    e = parsed.graph.edges[1]
    assert e.targets == (3,)
    assert e.probs == (1.0,)


def test_load_problem_errors(tmp_path):
    with pytest.raises(InputError):
        load_problem(str(tmp_path / "missing.json"))
    mangled = tmp_path / "broken.json"
    mangled.write_text('{"type": "lqr",\n  "A": [[1.0]\n}')
    with pytest.raises(InputError, match="is not valid JSON: line"):
        load_problem(str(mangled))


# ---------------------------------------------------------------------------
# deterministic serialization


def test_dump_uses_17_significant_digits():
    text = dumps_deterministic({"x": 1.0 / 3.0})
    assert text == '{"x": 0.33333333333333331}'


def test_dump_distinguishes_bool_from_int():
    assert dumps_deterministic({"a": True, "b": 1}) == '{"a": true, "b": 1}'


def test_dump_handles_arrays_and_nesting():
    text = dumps_deterministic({"m": np.array([[1.5, 2.0]]), "t": (1, 2)})
    assert text == '{"m": [[1.5, 2]], "t": [1, 2]}'


def reference_emit(value, out):
    """The element-by-element emitter that array emission must reproduce."""
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"refusing to serialize non-finite float {x!r}")
        out.append(format(x, ".17g"))
    elif isinstance(value, np.ndarray):
        reference_emit(value.tolist(), out)
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for k, item in enumerate(value):
            if k:
                out.append(", ")
            reference_emit(item, out)
        out.append("]")
    else:
        raise ValueError(f"cannot serialize {type(value).__name__}")


def reference_dumps(value) -> str:
    out = []
    reference_emit(value, out)
    return "".join(out)


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308, 1.0 / 3.0, 2.0, -7.0, 1e16]
EDGE_SHAPES = [(), (0,), (0, 0), (3, 0), (0, 3), (1,), (4,), (2, 3), (2, 2, 2), (1, 1, 1, 1)]


def edge_arrays():
    rng = np.random.default_rng(7)
    for shape in EDGE_SHAPES:
        size = math.prod(shape)
        picks = rng.choice(EDGE_FLOATS, size=size)
        noise = rng.standard_normal(size) * (rng.random(size) < 0.3)
        floats = np.where(noise != 0.0, noise, picks).reshape(shape)
        yield from map(np.asarray, (
            floats,
            np.clip(floats, -1e38, 1e38).astype(np.float32),
            floats.T,  # row-major text of a non-contiguous view
            rng.integers(-(2**62), 2**62, size=shape, dtype=np.int64),
            rng.integers(0, 4, size=shape, dtype=np.uint8),
            rng.random(shape) < 0.5,
        ))
    yield np.array(EDGE_FLOATS)
    yield np.array([-0.0, 0.0, 1e-45, -3.4e38, 1.0 / 3.0], dtype=np.float32)


@pytest.mark.parametrize("a", list(edge_arrays()), ids=lambda a: f"{a.dtype}{a.shape}")
def test_array_emission_matches_element_by_element_reference(a):
    assert dumps_deterministic(a) == reference_dumps(a)
    assert dumps_deterministic({"a": a, "b": [a]}) == "{\"a\": %s, \"b\": [%s]}" % (
        (reference_dumps(a),) * 2
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", [(0, 0), (1, 2)])
def test_array_emission_names_the_first_non_finite_value(dtype, bad, where):
    a = np.arange(12.0, dtype=dtype).reshape(3, 4) - 5.0
    a[where] = bad
    # later in row-major order, earlier in the Fortran copy's memory order
    a[2, 0] = -bad
    for arr in (a, np.asfortranarray(a)):
        with pytest.raises(ValueError) as expected:
            reference_dumps(arr)
        with pytest.raises(ValueError) as got:
            dumps_deterministic({"x": arr})
        assert str(got.value) == str(expected.value)


def test_dump_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps_deterministic({"x": float("nan")})
    with pytest.raises(ValueError):
        dumps_deterministic({"x": float("inf")})


def test_dump_is_reproducible():
    obj = {"lambda": [0.1 + 0.2, 1e-300, 123456789.123456789]}
    assert dumps_deterministic(obj) == dumps_deterministic(obj)


def test_written_solution_round_trips(tmp_path):
    path = str(tmp_path / "solution.json")
    write_solution(path, {"lambda": [1.0 / 3.0], "iterations": 5})
    raw = open(path).read()
    assert raw.endswith("\n")
    parsed = json.loads(raw)
    assert parsed["lambda"][0] == 1.0 / 3.0  # 17 digits round-trip exactly


# ---------------------------------------------------------------------------
# CLI: solve


def test_solve_writes_solution_and_trace(tmp_path, capsys):
    prob = write_json(tmp_path, "p.json", LQR_SCALAR)
    out = str(tmp_path / "out")
    code = cli.main(["solve", prob, "--trace", "--out", out])
    assert code == 0
    sol = json.loads(open(os.path.join(out, "solution.json")).read())
    assert sol["type"] == "lqr"
    assert sol["lambda"][0][0] == pytest.approx((1 + 5**0.5) / 2, abs=1e-9)
    lines = open(os.path.join(out, "trace.csv")).read().splitlines()
    assert lines[0] == "iter,residual,elapsed_ns"
    assert len(lines) > 2
    assert "converged" in capsys.readouterr().out


def test_solve_is_byte_deterministic(tmp_path):
    prob = write_json(tmp_path, "p.json", GRAPH)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["solve", prob, "--out", a]) == 0
    assert cli.main(["solve", prob, "--out", b]) == 0
    assert (
        open(os.path.join(a, "solution.json"), "rb").read()
        == open(os.path.join(b, "solution.json"), "rb").read()
    )


# SHA-256 of solution.json for each `scripts/make_problems.py --seed 0` sample.
# A change that alters these bytes on purpose updates the digest here and
# declares the change; another numpy or BLAS build may round differently.
SAMPLE_SOLUTION_SHA256 = {
    "graph_chain": "51a9f2384fcff4cc823bcf269dea2b929f6351a1acdc74c9e7f77c8bd9f4e449",
    "graph_random": "7e313c85826c3826f2b1d50a1721c16eb78fe6615064fde33a2ee793a7c66ac0",
    "graph_stochastic": "f8eac4bb2348664af3a4cce62371bea33f7615e9f453dcef987e36f21013c002",
    "ldp_random": "64efc11d1b5ef2016d38746be815ccc19ce87ca7e540f34313e854068e664154",
    "ldp_single": "182a8308bdac3d2aac7b66797cc8468629b45b36aaf76d977b3835f81b48aaa7",
    "lqr_random": "5dfa3fa30fb7317394c53082b5c60b3a89cc78907ffd37b5dd6ffb19e6e41f3c",
    "lqr_scalar": "1c459ca69b2e7e965636ba2e7a94aed9e846b91b89b7e05da1d9cae7da71d675",
    "ssp_raw_single": "f41fe09230d0985ddae43a0ce43ed68ff8a6dfcb0d0b3328eb378bb9d9d9a623",
}


def test_sample_solutions_match_recorded_digests(tmp_path, monkeypatch):
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_problems.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--seed", "0", "--out", str(tmp_path)])
    assert runpy.run_path(str(script))["main"]() == 0
    assert sorted(p.stem for p in tmp_path.glob("*.json")) == sorted(SAMPLE_SOLUTION_SHA256)
    digests = {}
    for name in SAMPLE_SOLUTION_SHA256:
        out = tmp_path / name
        assert cli.main(["solve", str(tmp_path / f"{name}.json"), "--out", str(out)]) == 0
        digests[name] = hashlib.sha256((out / "solution.json").read_bytes()).hexdigest()
    assert digests == SAMPLE_SOLUTION_SHA256


# SHA-256 of the raw bytes of (lam, K, trace residuals) for graphs and LQR
# and of (lam, z, Pstar, trace residuals) for LDP instances at the
# benchmark's sizes; the SSP ones were recorded before the solvers moved
# onto one shared support layout.  They are computed with one BLAS thread,
# as the benchmark runs: OpenBLAS rounds the larger LQR products
# differently when it splits them over threads.  A change that alters
# these bits on purpose updates the digest here and declares the change;
# another numpy or BLAS build may round differently.
BENCHMARK_SIZE_SHA256 = {
    "ssp300": "3eb8d6cf68e9e674800dd1e311ace735a13b36e315d380a1853652d9283da1a7",
    "chain25": "b2839915cb9f6de8b9d2c677598d59db21e2fa1166d4e335827d2a02f0236970",
    "ldp700": "faf7ff677d22e883b75006eb5cdc9385cd8aa8f169b6b10fa57f02faa652fc97",
    "ldp300": "49af6b932951d03cfc730b98225465edc3a6ddd779c820d317e84ead201ee629",
    "lqr120": "b979182146eb27c58e4549cd74f970ba4d8d204e3436e334c09a7451879c5408",
    "lqr2": "15e02afbb01fc51007c8f7382634a9cd52d3dc6fb8cf242f2f70c42cac2c548f",
}

BENCHMARK_SIZE_DIGESTS = """
import hashlib, json
import numpy as np
from conebellman import compile_graph, solve_ldp, solve_lqr, solve_ssp
from conebellman.generators import random_chain_graph, random_ldp, random_lqr, random_ssp_graph

def sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()

digests = {}
graphs = {
    "ssp300": random_ssp_graph(300, seed=64, stochastic=True),
    "chain25": random_chain_graph(25, seed=64),
}
for name, g in graphs.items():
    sol = solve_ssp(compile_graph(g).problem)
    digests[name] = sha256(sol.lam, sol.K, [t.residual for t in sol.trace])
for name, (n, seed) in {"ldp700": (700, 64), "ldp300": (300, 2)}.items():
    sol = solve_ldp(random_ldp(n, seed=seed))
    digests[name] = sha256(sol.lam, sol.z, sol.Pstar, [t.residual for t in sol.trace])
for name, (n, m) in {"lqr120": (120, 60), "lqr2": (2, 1)}.items():
    sol = solve_lqr(random_lqr(n, m, seed=64))
    digests[name] = sha256(sol.lam, sol.K, [t.residual for t in sol.trace])
print(json.dumps(digests))
"""


def run_one_blas_thread(script, *args):
    """Run ``script`` with the package on its path and one BLAS thread; return
    the JSON object on its last line of stdout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    res = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_benchmark_size_solutions_match_recorded_digests():
    assert run_one_blas_thread(BENCHMARK_SIZE_DIGESTS) == BENCHMARK_SIZE_SHA256


# SHA-256 of the solution.json that `conebellman solve` writes for each
# instance of the benchmark's cli-files workload at seed 1, recorded with the
# element-by-element emitter: array emission must reproduce these bytes.
CLI_FILES_SOLUTION_SHA256 = {
    "graph150": "bad5fbff4873b8c1261eb624a69c4f773b45f5955456d276d1851210e2a497f0",
    "lqr30x15": "3641686ff6d72404c9a4c2bd6a750c5bf921ee1633da1097eb04e69973afced1",
    "ldp300": "9f770d9e0a3918daf6404e1e960c7b8a9f6d51ed11bcd795bc95e2414ed9c8f6",
}

CLI_FILES_DIGESTS = """
import hashlib, json, os, sys
from conebellman import cli
from conebellman.generators import random_ldp, random_lqr, random_ssp_graph
from conebellman.io import dumps_deterministic

g = random_ssp_graph(150, seed=64, stochastic=True)
lqr = random_lqr(30, 15, seed=65)
ldp = random_ldp(300, seed=66)
edges = [
    {"from": e.source, "to": list(e.targets), "cost": e.cost, "prob": list(e.probs)}
    for e in g.edges
]
problems = {
    "graph150": {"type": "ssp-graph", "nodes": g.n_nodes, "goal": list(g.goals), "edges": edges, "s": g.s},
    "lqr30x15": {"type": "lqr", "A": lqr.A, "B": lqr.B, "Q": lqr.Q, "R": lqr.R},
    "ldp300": {"type": "ldp", "Pbar": ldp.Pbar, "s": ldp.s, "goals": list(ldp.goals)},
}
digests = {}
for name, obj in problems.items():
    path = os.path.join(sys.argv[1], name + ".json")
    with open(path, "w") as fh:
        fh.write(dumps_deterministic(obj))
    out = os.path.join(sys.argv[1], name)
    assert cli.main(["solve", path, "--out", out]) == 0
    with open(os.path.join(out, "solution.json"), "rb") as fh:
        digests[name] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps(digests))
"""


def test_cli_files_solutions_match_recorded_digests(tmp_path):
    assert run_one_blas_thread(CLI_FILES_DIGESTS, str(tmp_path)) == CLI_FILES_SOLUTION_SHA256


LDP300_SOLVE = """
import sys
from conebellman.generators import random_ldp
from conebellman.io import dumps_deterministic
p = random_ldp(300, seed=2)
problem = {"type": "ldp", "Pbar": p.Pbar, "s": p.s, "goals": list(p.goals)}
with open(sys.argv[1], "w") as f:
    f.write(dumps_deterministic(problem))
"""


def test_ldp_solution_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the LDP solve makes no BLAS call; a dense LU once made the bytes of
    # this file differ between one and two OpenBLAS threads
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    prob = tmp_path / "ldp300.json"
    subprocess.run([sys.executable, "-c", LDP300_SOLVE, str(prob)], check=True, env=env)
    solutions = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        res = subprocess.run(
            [sys.executable, "-m", "conebellman.cli", "solve", str(prob), "--out", str(out)],
            capture_output=True,
            text=True,
            env=dict(env, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
        )
        assert res.returncode == 0, res.stderr
        solutions.append((out / "solution.json").read_bytes())
    assert solutions[0] == solutions[1]


@pytest.mark.parametrize("field, bad", [("A", float("nan")), ("B", float("inf"))])
def test_solve_non_finite_lqr_data_exits_3(tmp_path, capsys, field, bad):
    # both used to run the Riccati map and exit 2 ("residual nan still above
    # tol" after every sweep, and "pivot inf")
    prob = write_json(tmp_path, "bad.json", dict(LQR_SCALAR, **{field: [[bad]]}))
    assert cli.main(["solve", prob, "--out", str(tmp_path)]) == 3
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "solution.json").exists()


def test_solve_unstabilizable_exits_2(tmp_path):
    prob = write_json(
        tmp_path,
        "bad.json",
        {"type": "lqr", "A": [[2.0]], "B": [[0.0]], "Q": [[1.0]], "R": [[1.0]]},
    )
    assert cli.main(["solve", prob, "--out", str(tmp_path)]) == 2


def test_solve_stranded_graph_exits_2_before_any_sweep(tmp_path, capsys, monkeypatch):
    # criterion 7's graph at the default budget: nodes 0 and 1 only visit
    # each other, and compile_graph proves it before the first sweep
    def no_sweeps(*args):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(ssp, "fixed_point_solve", no_sweeps)
    edges = [{"from": 0, "to": 1, "cost": 1.0}, {"from": 1, "to": 0, "cost": 1.0}]
    prob = write_json(
        tmp_path,
        "stranded.json",
        {"type": "ssp-graph", "nodes": 3, "goal": 2, "edges": edges, "s": [0.5, 0.5, 0.0]},
    )
    assert cli.main(["solve", prob, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: nodes [0, 1] cannot reach any goal\n"
    assert not (tmp_path / "solution.json").exists()


def test_solve_exits_2_when_riccati_step_loses_definiteness(tmp_path, capsys):
    # R = 0 and B^T lam B singular: R + B^T lam B fails its Cholesky check
    prob = write_json(
        tmp_path,
        "bad.json",
        {
            "type": "lqr",
            "A": [[1.0]],
            "B": [[1.0, 0.0]],
            "Q": [[1.0]],
            "R": [[0.0, 0.0], [0.0, 0.0]],
        },
    )
    assert cli.main(["solve", prob, "--out", str(tmp_path)]) == 2
    assert "not positive definite" in capsys.readouterr().err


def test_solve_invalid_json_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["solve", str(bad), "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize(
    "problem, message",
    [
        (dict(LDP_SINGLE, Pbar=[[float("nan"), 0.0], [0.5, 1.0]]), "Pbar entries must be finite"),
        (dict(LDP_SINGLE, s=[float("inf"), 0.0]), "stage cost s must be finite"),
        (
            dict(GRAPH, edges=[{"from": 0, "to": 3, "cost": float("nan")}]),
            "edge cost must be finite",
        ),
        (dict(SSP_RAW, A=[[float("nan")]]), "A must be finite"),
        (dict(SSP_RAW, B=[[float("-inf")]]), "B must be finite"),
        (dict(SSP_RAW, s=[float("nan")]), "s must be finite"),
        (dict(SSP_RAW, r=[float("inf")]), "r must be finite"),
        (dict(SSP_RAW, E=[[float("nan")]]), "E must be finite"),
        (dict(GRAPH, s=[0.1, float("nan"), 0.1, 0.0]), "node costs must be finite"),
    ],
)
def test_solve_non_finite_input_exits_3(tmp_path, capsys, problem, message):
    # json writes NaN and Infinity literals, which the loader reads back
    prob = write_json(tmp_path, "bad.json", problem)
    assert cli.main(["solve", prob, "--out", str(tmp_path)]) == 3
    assert message in capsys.readouterr().err


LDP_STUCK = {
    "type": "ldp",
    "Pbar": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
    "s": [1.0, 1.0, 0.0],
    "goals": [2],
}


@pytest.mark.parametrize(
    "problem, flags, line",
    [
        (dict(LDP_SINGLE, goals=[]), [], "the goal set is empty"),
        (dict(LDP_SINGLE, s=[1.0, 0.5]), [], "goal state 1 has nonzero cost 0.5"),
        (
            dict(LDP_SINGLE, Pbar=[[0.5, 0.5], [0.5, 0.5]]),
            [],
            "goal state 1 leaks probability 0.5 to other states",
        ),
        (LDP_STUCK, [], "states [0] cannot reach any goal under Pbar"),
        (dict(SSP_RAW, A=[[1.0, 0.0]]), [], "A must be square, got (1, 2)"),
        (dict(SSP_RAW, s=[1.0, 1.0]), [], "s must have length 1, got (2,)"),
        (dict(SSP_RAW, A=[[-1.0]]), [], "A must be elementwise nonnegative"),
        (LDP_SINGLE, ["--trials", "5", "--seed", "-1"], "seed must be nonnegative, got -1"),
    ],
    ids=[
        "ldp-no-goal", "ldp-goal-cost", "ldp-goal-leak", "ldp-unreachable",
        "ssp-nonsquare", "ssp-s-length", "ssp-negative-A", "verify-negative-seed",
    ],
)
def test_input_error_sites_exit_3_with_their_message(tmp_path, capsys, problem, flags, line):
    prob = write_json(tmp_path, "bad.json", problem)
    command = ["verify", prob, *flags] if flags else ["solve", prob, "--out", str(tmp_path)]
    assert cli.main(command) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: invalid input: {line}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "problem, field",
    [
        (dict(GRAPH, edges=[{"from": 0, "to": ["a"], "cost": 1.0}]), "'to' holds 'a'"),
        (dict(GRAPH, edges=[{"from": "a", "to": 3, "cost": 1.0}]), "'from' holds 'a'"),
        (dict(GRAPH, edges=[{"from": 0, "to": [3], "cost": 1.0, "prob": ["x"]}]), "'prob' holds"),
        (dict(GRAPH, edges=[{"from": 0, "to": 3, "cost": [1.0]}]), "'cost' holds [1.0]"),
        (dict(GRAPH, goal=["a"]), "'goal' holds 'a'"),
        (dict(GRAPH, goal="3"), "'goal' must be a node id"),
        (dict(LDP_SINGLE, goals=["a"]), "'goals' holds 'a'"),
        # fractional ids used to truncate and bools to count as 0 and 1
        (dict(LDP_SINGLE, goals=[1.5]), "'goals' holds 1.5"),
        (dict(LDP_SINGLE, goals=[1.0]), "'goals' holds 1.0"),
        (dict(GRAPH, goal=True), "'goal' must be a node id"),
        (dict(GRAPH, goal=[1.5]), "'goal' holds 1.5"),
        (dict(GRAPH, goal=[True]), "'goal' holds True"),
        (dict(GRAPH, edges=[{"from": 0, "to": [1.9], "cost": 1.0}]), "'to' holds 1.9"),
        (dict(GRAPH, edges=[{"from": 0, "to": True, "cost": 1.0}]), "'to' must be a node id"),
        (dict(GRAPH, edges=[{"from": 2.0, "to": 3, "cost": 1.0}]), "'from' holds 2.0"),
        (dict(GRAPH, edges=[{"from": 0, "to": 3, "cost": True}]), "'cost' holds True"),
        (dict(GRAPH, edges=[{"from": 0, "to": 3, "cost": "1.5"}]), "'cost' holds '1.5'"),
        (
            dict(GRAPH, edges=[{"from": 0, "to": [3], "cost": 1.0, "prob": [True]}]),
            "'prob' holds True",
        ),
        # np.array(..., dtype=float) reads "1.0" and true as 1.0, null as nan
        (dict(LQR_SCALAR, A=[["1.0"]]), "'A' holds '1.0'"),
        (dict(LQR_SCALAR, B=[[True]]), "'B' holds True"),
        (dict(LQR_SCALAR, Q=[[None]]), "'Q' holds None"),
        (dict(SSP_RAW, E=[[True]]), "'E' holds True"),
        (dict(SSP_RAW, r=["2.0"]), "'r' holds '2.0'"),
        (dict(LDP_SINGLE, Pbar=[[0.5, 0.0], [0.5, True]]), "'Pbar' holds True"),
        (dict(LDP_SINGLE, s=[1.0, False]), "'s' holds False"),
        (dict(GRAPH, s=[0.1, 0.1, "0.1", 0.0]), "'s' holds '0.1'"),
    ],
)
def test_solve_non_integer_ids_exit_3_naming_the_field(tmp_path, capsys, problem, field):
    prob = write_json(tmp_path, "bad.json", problem)
    assert cli.main(["solve", prob, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


def test_solve_lqr_start_outside_the_psd_cone_exits_3(tmp_path, capsys):
    # intake allows Q's eigenvalues down to -min(1e-12 * max|Q|, 1e-10): the
    # iteration starts from Q, which must lie in the PSD cone to 1e-10
    eye = [[1.0, 0.0], [0.0, 1.0]]
    Q = [[1000.0, 0.0], [0.0, -5e-10]]
    obj = dict(LQR_SCALAR, A=[[0.5, 0.0], [0.0, 0.5]], B=eye, Q=Q, R=eye)
    prob = write_json(tmp_path, "p.json", obj)
    assert cli.main(["solve", prob, "--out", str(tmp_path)]) == 3
    assert "need Q > 0 with R >= 0, or Q >= 0 with R > 0" in capsys.readouterr().err
    assert not (tmp_path / "solution.json").exists()


def test_solve_missing_file_exits_3(tmp_path):
    assert cli.main(["solve", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 3


def test_unknown_flag_exits_3(tmp_path):
    prob = write_json(tmp_path, "p.json", LQR_SCALAR)
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", prob, "--frobnicate"])
    assert exc.value.code == 3


# ---------------------------------------------------------------------------
# CLI: verify


def test_verify_lqr_passes(tmp_path, capsys):
    prob = write_json(tmp_path, "p.json", LQR_SCALAR)
    assert cli.main(["verify", prob]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "ok" in out


def test_verify_lqr_at_scale_passes(tmp_path):
    # the Riccati oracle's stopping step scales with the value matrix; with
    # an absolute 1e-13 this instance swept for minutes, then exited 2
    p = random_lqr(120, 60, seed=64)
    obj = {"type": "lqr"} | {k: getattr(p, k).tolist() for k in "ABQR"}
    assert cli.main(["verify", write_json(tmp_path, "p.json", obj)]) == 0


def test_verify_graph_passes(tmp_path):
    prob = write_json(tmp_path, "p.json", GRAPH)
    assert cli.main(["verify", prob]) == 0


def test_verify_ldp_with_rollout_passes(tmp_path, capsys):
    prob = write_json(tmp_path, "p.json", LDP_SINGLE)
    assert cli.main(["verify", prob, "--trials", "2000", "--seed", "0"]) == 0
    assert "rollout" in capsys.readouterr().out


def test_verify_failure_exits_4(tmp_path, monkeypatch, capsys):
    # force a disagreement between solver and oracle to exercise the
    # failure path end to end
    from conebellman import cli as cli_mod

    prob = write_json(tmp_path, "p.json", LQR_SCALAR)
    monkeypatch.setattr(
        cli_mod, "naive_dare", lambda p, tol=1e-12, max_iter=100_000: np.array([[9.0]])
    )
    assert cli_mod.main(["verify", prob]) == 4
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# logging environment variable


def test_invalid_log_level_warns_on_stderr(tmp_path):
    prob = write_json(tmp_path, "p.json", LQR_SCALAR)
    env = dict(os.environ, CONEBELLMAN_LOG="chatty")
    res = subprocess.run(
        [sys.executable, "-m", "conebellman.cli", "solve", prob, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0
    assert "CONEBELLMAN_LOG" in res.stderr


def test_debug_log_level_traces_iterations(tmp_path):
    prob = write_json(tmp_path, "p.json", LQR_SCALAR)
    env = dict(os.environ, CONEBELLMAN_LOG="debug")
    res = subprocess.run(
        [sys.executable, "-m", "conebellman.cli", "solve", prob, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0
    assert "residual" in res.stderr


def test_cli_import_does_not_load_scipy():
    # numpy is the only runtime dependency; a cold scipy import would add
    # about half a second to every conebellman process
    res = subprocess.run(
        [sys.executable, "-c", "import conebellman.cli, sys; assert 'scipy' not in sys.modules"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
