"""Reference outputs and the comparisons every operation is held to.

References are computed after the timed window and outside set-up, by
independent public paths: the scalar ``hmm`` engine and the ``direct``
engine for library results, ``reference_values`` for DAG values, and the
worker task itself (``TASKS[kind](args)``, JSON round-tripped) for
served results.  A mismatch counts as a failed operation.
"""

from __future__ import annotations

import json

import gen


def words(counters: dict) -> int:
    """Charged words of one result: touched plus moved."""
    return counters.get("words_touched", 0) + counters.get("words_moved", 0)


# ------------------------------------------------------------ lib-default
def lib_digest(program: str, result) -> dict:
    """What is kept of one ``repro.run`` result for the later check."""
    digest = {
        "time": result.time,
        "counters": dict(result.counters),
        "breakdown": dict(result.breakdown),
        "baseline_time": result.baseline_time,
        "words": words(result.counters),
    }
    if program == "sort":
        keys = [ctx["key"] for ctx in result.contexts]
        digest["sorted"] = all(a <= b for a, b in zip(keys, keys[1:]))
    return digest


def lib_reference(program: str, f: str) -> dict:
    """Scalar ``hmm`` charged results and the ``direct`` guest time."""
    from repro.engines import ENGINES, build_program, resolve_access_function

    prog = build_program(program, gen.LIB_V)
    fn = resolve_access_function(f)
    hmm = ENGINES["hmm"].run(prog, fn, trace="phases")
    direct = ENGINES["direct"].run(prog, fn, trace="counters")
    return {
        "time": hmm.time,
        "counters": dict(hmm.counters),
        "breakdown": dict(hmm.breakdown),
        "baseline_time": direct.time,
    }


def lib_mismatch(digest: dict, ref: dict) -> str | None:
    for field in ("time", "counters", "breakdown", "baseline_time"):
        if digest[field] != ref[field]:
            return f"{field} differs from the reference"
    if digest.get("sorted") is False:
        return "sort contexts are not sorted"
    return None


# ------------------------------------------------------------ dag-compare
def dag_digest(results: dict) -> dict:
    """Every task value per heuristic, and the words of both runs."""
    digest: dict = {"values": {}, "words": 0}
    for heuristic, result in results.items():
        values: dict[str, int] = {}
        for ctx in result.contexts:
            values.update(ctx["values"])
        digest["values"][heuristic] = values
        digest["words"] += words(result.counters)
    return digest


def dag_reference(generator: str) -> dict[str, int]:
    from repro.algorithms.streaming import streaming_spec
    from repro.dag.compile import reference_values

    return reference_values(streaming_spec(generator, **gen.DAG_PARAMS))


def dag_mismatch(digest: dict, ref: dict[str, int]) -> str | None:
    for heuristic, values in digest["values"].items():
        if values != ref:
            return f"{heuristic} values differ from reference_values"
    return None


# ------------------------------------------------------------ svc-*
def body_key(body: dict) -> str:
    return json.dumps(body, sort_keys=True)


def render(doc: dict) -> dict:
    """A worker task's result as the service serves it: spans rendered,
    JSON round-tripped."""
    doc["trace"] = [span.to_json() for span in doc.pop("spans", [])]
    return json.loads(json.dumps(doc))


def svc_reference(body: dict) -> dict:
    """The result document the served one must equal: the request's
    worker task run here and rendered."""
    from repro.parallel.workers import TASKS
    from repro.service.scheduler import parse_run_request

    request = parse_run_request(body)
    return render(TASKS[request.task_kind](request.args))


def svc_mismatch(status, payload, error, ref: dict) -> str | None:
    if error is not None:
        return error
    if status != 200:
        return f"HTTP {status}"
    try:
        served = json.loads(payload)["result"]
    except (ValueError, KeyError, TypeError):
        return "undecodable response"
    if served != ref:
        return "result differs from the reference"
    return None
