"""Problem ingestion, deterministic serialization, and the batch CLI."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conebellman import InputError, InvalidProblem, cli
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
    with pytest.raises(InvalidProblem):
        parse_problem({"type": "mdp"})
    bad = dict(LQR_SCALAR)
    bad["extra"] = 1
    with pytest.raises(InvalidProblem):
        parse_problem(bad)


def test_parse_reports_missing_field():
    bad = {k: v for k, v in LQR_SCALAR.items() if k != "Q"}
    with pytest.raises(InvalidProblem, match="Q"):
        parse_problem(bad)


def test_parse_rejects_ragged_matrix():
    bad = dict(LQR_SCALAR)
    bad["A"] = [[1.0], [2.0, 3.0]]
    with pytest.raises(InvalidProblem):
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
    with pytest.raises(InvalidProblem, match="line"):
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


def test_solve_unstabilizable_exits_2(tmp_path):
    prob = write_json(
        tmp_path,
        "bad.json",
        {"type": "lqr", "A": [[2.0]], "B": [[0.0]], "Q": [[1.0]], "R": [[1.0]]},
    )
    assert cli.main(["solve", prob, "--out", str(tmp_path)]) == 2


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
    ],
)
def test_solve_non_integer_ids_exit_3_naming_the_field(tmp_path, capsys, problem, field):
    prob = write_json(tmp_path, "bad.json", problem)
    assert cli.main(["solve", prob, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


def test_solve_lqr_start_outside_the_psd_cone_exits_3(tmp_path, capsys):
    # intake allows Q's eigenvalues down to -1e-12 * max|Q|; the iteration
    # starts from Q, which must lie in the PSD cone to 1e-10
    eye = [[1.0, 0.0], [0.0, 1.0]]
    Q = [[1000.0, 0.0], [0.0, -5e-10]]
    obj = dict(LQR_SCALAR, A=[[0.5, 0.0], [0.0, 0.5]], B=eye, Q=Q, R=eye)
    prob = write_json(tmp_path, "p.json", obj)
    assert cli.main(["solve", prob, "--out", str(tmp_path)]) == 3
    assert "initial value must lie in the cone" in capsys.readouterr().err
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
