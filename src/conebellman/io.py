"""Problem-file parsing and deterministic result serialization.

Problems are JSON objects dispatched on their "type" field:

    {"type": "ssp", "A": [[...]], "B": [[...]], "s": [...], "r": [...],
     "blocks": [...], "E": [[...]]}
    {"type": "ssp-graph", "nodes": N, "goal": [...], "s": [...],
     "edges": [{"from": i, "to": j-or-[j...], "cost": c, "prob": [...]}]}
    {"type": "lqr", "A": [[...]], "B": [[...]], "Q": [[...]], "R": [[...]]}
    {"type": "ldp", "Pbar": [[...]], "s": [...], "goals": [...]}

Matrices are row-major arrays-of-arrays.  Note the KL-control convention:
column i of Pbar holds the transition probabilities FROM state i (the matrix
is column-stochastic), so Pbar[j][i] in JSON is the i -> j probability.

Serialization is deterministic: floats are written with 17 significant
digits (enough to round-trip IEEE doubles exactly), keys in fixed order, so
identical solves produce byte-identical files.  Float and integer arrays
are written row by row with the same bytes as element by element: a zero
is "0" or "-0", and only nonzeros are formatted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InputError
from .ldp import LdpProblem
from .lqr import LqrProblem
from .ssp import CompiledGraph, GraphEdge, GraphSsp, SspProblem, compile_graph

PROBLEM_TYPES = ("ssp", "ssp-graph", "lqr", "ldp")


@dataclass
class ParsedProblem:
    """A dispatched problem: `problem` is what the matching solver consumes.

    For graph inputs, `graph` keeps the original node/edge view (the
    deterministic-oracle input) and `compiled` the matrix form plus the
    node/state mapping.
    """

    kind: str
    problem: SspProblem | LqrProblem | LdpProblem
    graph: GraphSsp | None = None
    compiled: CompiledGraph | None = None


def _require(obj: dict, field: str, context: str):
    if field not in obj:
        raise InputError(f"{context}: missing required field {field!r}")
    return obj[field]


def _no_extras(obj: dict, allowed: set[str], context: str) -> None:
    extras = sorted(set(obj) - allowed)
    if extras:
        raise InputError(
            f"{context}: unknown field(s) {extras}; allowed: {sorted(allowed)}"
        )


#: the types json decodes a number to
_JSON_NUMBERS = frozenset((int, float))


def _require_numbers(rows, field: str) -> None:
    """Reject strings, booleans and nulls among the entries of ``rows``.

    np.array(..., dtype=float) reads "1.0" and true as 1.0 and null as nan,
    even inside an otherwise numeric row; this check is one C-level pass.
    """
    if not _JSON_NUMBERS.issuperset(map(type, chain.from_iterable(rows))):
        bad = next(x for x in chain.from_iterable(rows) if type(x) not in _JSON_NUMBERS)
        raise InputError(f"field {field!r} holds {bad!r}, which is not a number")


def _as_matrix(raw, field: str) -> np.ndarray:
    try:
        M = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"field {field!r} is not a numeric matrix: {exc}")
    if M.ndim == 1 and M.size == 0:
        M = M.reshape(0, 0)
    if M.ndim != 2:
        raise InputError(
            f"field {field!r} must be an array of equal-length rows, got ndim={M.ndim}"
        )
    _require_numbers(raw, field)
    return M


def _as_vector(raw, field: str) -> np.ndarray:
    try:
        v = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"field {field!r} is not a numeric vector: {exc}")
    if v.ndim != 1:
        raise InputError(f"field {field!r} must be a flat array, got ndim={v.ndim}")
    _require_numbers((raw,), field)
    return v


def _is_int(x) -> bool:
    """A JSON integer: Python's bool is an int, but JSON's true is not a number."""
    return isinstance(x, int) and not isinstance(x, bool)


def _convert(kind, raw, field: str, context: str):
    """kind(raw) for a JSON number of that kind (a float id such as 2.0 is not
    an integer); anything else is invalid input naming its field."""
    if _is_int(raw) or (kind is float and isinstance(raw, float)):
        return kind(raw)
    what = "an integer node id" if kind is int else "a number"
    raise InputError(f"{context}: {field!r} holds {raw!r}, which is not {what}")


def _parse_graph(obj: dict) -> GraphSsp:
    _no_extras(obj, {"type", "nodes", "goal", "edges", "s"}, "ssp-graph")
    nodes = _require(obj, "nodes", "ssp-graph")
    if not _is_int(nodes) or nodes < 1:
        raise InputError(f"ssp-graph: 'nodes' must be a positive count, got {nodes!r}")
    raw_goal = _require(obj, "goal", "ssp-graph")
    if _is_int(raw_goal):
        goal = [raw_goal]
    elif isinstance(raw_goal, list):
        goal = [_convert(int, g, "goal", "ssp-graph") for g in raw_goal]
    else:
        raise InputError("ssp-graph: 'goal' must be a node id or list of them")
    raw_edges = _require(obj, "edges", "ssp-graph")
    if not isinstance(raw_edges, list):
        raise InputError("ssp-graph: 'edges' must be a list")
    edges = []
    for k, e in enumerate(raw_edges):
        ctx = f"ssp-graph edge {k}"
        if not isinstance(e, dict):
            raise InputError(f"{ctx}: must be an object")
        _no_extras(e, {"from", "to", "cost", "prob"}, ctx)
        src = _require(e, "from", ctx)
        to = _require(e, "to", ctx)
        cost = _require(e, "cost", ctx)
        if _is_int(to):
            targets = (to,)
        elif isinstance(to, list):
            targets = tuple(_convert(int, t, "to", ctx) for t in to)
        else:
            raise InputError(f"{ctx}: 'to' must be a node id or list of them")
        if "prob" in e:
            prob = e["prob"]
            if not isinstance(prob, list) or len(prob) != len(targets):
                raise InputError(
                    f"{ctx}: 'prob' must be a list matching 'to' ({len(targets)} entries)"
                )
            probs = tuple(_convert(float, q, "prob", ctx) for q in prob)
        elif len(targets) == 1:
            probs = (1.0,)
        else:
            raise InputError(f"{ctx}: 'prob' is required when 'to' lists several nodes")
        edges.append(GraphEdge(
            _convert(int, src, "from", ctx), targets, _convert(float, cost, "cost", ctx), probs
        ))
    s = _as_vector(_require(obj, "s", "ssp-graph"), "s")
    return GraphSsp(n_nodes=nodes, goals=tuple(goal), edges=tuple(edges), s=s)


def parse_problem(obj: dict) -> ParsedProblem:
    """Build the typed problem named by obj['type'], with field diagnostics."""
    if not isinstance(obj, dict):
        raise InputError(f"problem must be a JSON object, got {type(obj).__name__}")
    kind = _require(obj, "type", "problem")
    if kind == "ssp":
        _no_extras(obj, {"type", "A", "B", "s", "r", "blocks", "E"}, "ssp")
        blocks = _require(obj, "blocks", "ssp")
        if not isinstance(blocks, list) or not all(map(_is_int, blocks)):
            raise InputError("ssp: 'blocks' must be a list of integers")
        problem = SspProblem(
            A=_as_matrix(_require(obj, "A", "ssp"), "A"),
            B=_as_matrix(_require(obj, "B", "ssp"), "B"),
            s=_as_vector(_require(obj, "s", "ssp"), "s"),
            r=_as_vector(_require(obj, "r", "ssp"), "r"),
            block_sizes=tuple(blocks),
            E=_as_matrix(_require(obj, "E", "ssp"), "E"),
        )
        return ParsedProblem(kind="ssp", problem=problem)
    if kind == "ssp-graph":
        graph = _parse_graph(obj)
        compiled = compile_graph(graph)
        return ParsedProblem(
            kind="ssp-graph", problem=compiled.problem, graph=graph, compiled=compiled
        )
    if kind == "lqr":
        _no_extras(obj, {"type", "A", "B", "Q", "R"}, "lqr")
        problem = LqrProblem(
            A=_as_matrix(_require(obj, "A", "lqr"), "A"),
            B=_as_matrix(_require(obj, "B", "lqr"), "B"),
            Q=_as_matrix(_require(obj, "Q", "lqr"), "Q"),
            R=_as_matrix(_require(obj, "R", "lqr"), "R"),
        )
        return ParsedProblem(kind="lqr", problem=problem)
    if kind == "ldp":
        _no_extras(obj, {"type", "Pbar", "s", "goals"}, "ldp")
        goals = _require(obj, "goals", "ldp")
        if not isinstance(goals, list):
            raise InputError("ldp: 'goals' must be a list of state ids")
        problem = LdpProblem(
            Pbar=_as_matrix(_require(obj, "Pbar", "ldp"), "Pbar"),
            s=_as_vector(_require(obj, "s", "ldp"), "s"),
            goals=tuple(_convert(int, g, "goals", "ldp") for g in goals),
        )
        return ParsedProblem(kind="ldp", problem=problem)
    raise InputError(
        f"unknown problem type {kind!r}; expected one of {list(PROBLEM_TYPES)}"
    )


def load_problem(path: str) -> ParsedProblem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: line {exc.lineno}: {exc.msg}")
    return parse_problem(obj)


# ---------------------------------------------------------------------------
# Deterministic emission
# ---------------------------------------------------------------------------

def _array_text(a: np.ndarray) -> str:
    """``_emit(a.tolist())`` for a float or integer array with ndim >= 1: one
    finiteness pass, "{:.17g}" on the nonzeros only, one join per row."""
    if a.dtype.kind == "f":
        x = a.astype(np.float64, copy=False).ravel()
        finite = np.isfinite(x)
        if not finite.all():
            bad = float(x[np.argmin(finite)])
            raise ValueError(f"refusing to serialize non-finite float {bad!r}")
        items = ["0"] * x.size
        for i in np.flatnonzero(np.signbit(x) & (x == 0.0)).tolist():
            items[i] = "-0"
        nz = np.flatnonzero(x)
        for i, s in zip(nz.tolist(), map("{:.17g}".format, x[nz].tolist())):
            items[i] = s
    else:
        items = list(map(str, a.ravel().tolist()))
    for axis in range(a.ndim - 1, -1, -1):
        k, rows = a.shape[axis], math.prod(a.shape[:axis])
        items = ["[" + ", ".join(items[i * k:(i + 1) * k]) + "]" for i in range(rows)]
    return items[0]


def _emit(value, out: list[str]) -> None:
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
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, np.ndarray):
        if value.ndim and value.dtype.kind in "fiu":
            out.append(_array_text(value))
        else:
            _emit(value.tolist(), out)
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for k, item in enumerate(value):
            if k:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for k, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise ValueError(f"JSON object keys must be strings, got {key!r}")
            if k:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _emit(item, out)
        out.append("}")
    else:
        raise ValueError(f"cannot serialize {type(value).__name__}")


def dumps_deterministic(obj) -> str:
    """JSON text with floats at 17 significant digits and stable key order."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def write_solution(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_deterministic(obj))
        fh.write("\n")


def write_trace_csv(path: str, trace) -> None:
    """Trace rows as `iter,residual,elapsed_ns` with round-trip-exact residuals."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iter,residual,elapsed_ns\n")
        for rec in trace:
            fh.write(
                f"{rec.iteration},{format(rec.residual, '.17g')},{rec.elapsed_ns}\n"
            )
