"""The layer ladder: one public call per rung, on each workload's inputs.

A traced run ends by walking every rung, so each run reports every
per-layer metric.  Rungs draw their inputs from the seed, through the
same generators as the workload they belong to (stream ``part`` 9, so
they never repeat a key the timed windows used).  Each call is recorded
as a span; a rung whose layer is nested inside a bigger public call is
reported as the difference of two spans over the same input, taken per
operation and then as a median.
"""

from __future__ import annotations

import json

import gen
import refs
from spans import SpanLog
from stats import median
from tier import Conn, Tier, counters, delta

LADDER_PART = 9
#: svc-cold bodies walked in-process (one stratified block)
COLD_INPUTS = 20
#: passes over the 16 warm keys for the HTTP rungs
HOT_PASSES = 3


def per_op(log: SpanLog, name: str) -> dict[int, float]:
    return {s.op: self_s for s, self_s in log.self_times() if s.name == name}


def med(log: SpanLog, name: str) -> float:
    return median(per_op(log, name).values())


def med_diff(log: SpanLog, outer: str, inner: str) -> float:
    """Median over operations of ``outer`` minus ``inner`` self time."""
    a, b = per_op(log, outer), per_op(log, inner)
    return median(a[op] - b[op] for op in a if op in b)


def lib_rungs(log: SpanLog, seed: int) -> dict[str, float]:
    """build -> vec kernel -> plan build -> phases -> baseline -> to_json."""
    from repro import DBSPMachine
    from repro.engines import ENGINES, build_program, resolve_access_function

    rng = gen.stream_rng("ladder-lib", seed)
    used: set[str] = set()
    vec = ENGINES["vec"]
    words = 0
    inputs = gen.lib_inputs(seed, gen.LIB_BLOCK, LADDER_PART)
    for program_name, f_spec in dict.fromkeys(inputs):  # each input once
        op = log.next_op()
        with log.span("algorithms.build", op):
            program = build_program(program_name, gen.LIB_V)
        f = resolve_access_function(f_spec)
        vec.run(program, f, trace="counters")  # the plan is warm in-workload
        with log.span("sim.vec.kernel", op):
            result = vec.run(program, f, trace="counters")
        fresh = resolve_access_function(gen.exponent_spec(rng, used))
        with log.span("sim.vec.fresh_f", op):
            vec.run(program, fresh, trace="counters")
        with log.span("sim.vec.phases", op):
            phased = vec.run(program, f, trace="phases")
        with log.span("dbsp.baseline", op):
            DBSPMachine(f).run(program.with_global_sync())
        with log.span("engines.to_json", op):
            phased.to_json()
        words += refs.words(result.counters)
    return {
        "algorithms.build_s": med(log, "algorithms.build"),
        "sim.vec.kernel_s": med(log, "sim.vec.kernel"),
        "sim.vec.plan_build_s": med_diff(log, "sim.vec.fresh_f",
                                         "sim.vec.kernel"),
        "obs.phases_s": med_diff(log, "sim.vec.phases", "sim.vec.kernel"),
        "dbsp.baseline_s": med(log, "dbsp.baseline"),
        "engines.to_json_s": med(log, "engines.to_json"),
        "sim.charged_words": words,
    }


def scalar_rungs(log: SpanLog, seed: int) -> dict[str, float]:
    """The scalar engines on svc-cold's scalar requests (v=64)."""
    from repro.engines import ENGINES, build_program, resolve_access_function

    rng = gen.stream_rng("svc-cold", seed, LADDER_PART)
    bodies = [b for b in gen.cold_bodies(rng, 30)
              if b.get("engine") in gen.COLD_SCALAR_ENGINES]
    for body in bodies:
        program = build_program(body["program"], body["v"])
        f = resolve_access_function(body["f"])
        with log.span(f"sim.{body['engine']}.kernel", log.next_op()):
            ENGINES[body["engine"]].run(program, f, trace="counters")
    return {f"sim.{e}.kernel_s": med(log, f"sim.{e}.kernel")
            for e in gen.COLD_SCALAR_ENGINES}


def dag_rungs(log: SpanLog, seed: int) -> dict[str, float]:
    """spec -> schedule (both heuristics) -> compile -> vec run."""
    from repro.algorithms.streaming import streaming_spec
    from repro.dag import compile_schedule, schedule
    from repro.engines import ENGINES, resolve_access_function

    f = resolve_access_function(gen.DAG_F)
    messages = dict.fromkeys(gen.DAG_HEURISTICS, 0)
    for generator in gen.dag_inputs(seed, 3, LADDER_PART):
        op = log.next_op()
        with log.span("dag.spec", op):
            spec = streaming_spec(generator, **gen.DAG_PARAMS)
        for heuristic in gen.DAG_HEURISTICS:
            with log.span(f"dag.schedule.{heuristic}", op):
                sched = schedule(spec, gen.DAG_V, heuristic)
            with log.span("dag.compile", op):
                program = compile_schedule(spec, sched)
            ENGINES["vec"].run(program, f, trace="counters")  # warm plan
            run_op = log.next_op()
            with log.span("dag.run", run_op):
                result = ENGINES["vec"].run(program, f, trace="counters")
            messages[heuristic] += result.counters.get("messages", 0)
    out = {
        "dag.spec_s": med(log, "dag.spec"),
        "dag.compile_s": median(
            s for span, s in log.self_times() if span.name == "dag.compile"
        ),
        "dag.run_s": med(log, "dag.run"),
    }
    for heuristic in gen.DAG_HEURISTICS:
        out[f"dag.schedule.{heuristic}_s"] = med(log, f"dag.schedule.{heuristic}")
        out[f"dag.messages.{heuristic}"] = messages[heuristic]
    return out


def cold_rungs(log: SpanLog, seed: int, scratch) -> dict[str, float]:
    """Parse, worker task, in-process service miss, ledger-backed put."""
    from repro.parallel.workers import TASKS
    from repro.resilience.ledger import SweepLedger
    from repro.service.cache import ResultCache
    from repro.service.scheduler import parse_run_request
    from repro.service.server import SimService

    rng = gen.stream_rng("svc-cold", seed, LADDER_PART)
    service = SimService()
    ledger = SweepLedger.create(str(scratch / "ladder.ledger"))
    cache = ResultCache(ledger=ledger)
    try:
        for body in gen.cold_bodies(rng, COLD_INPUTS):
            op = log.next_op()
            if body.get("kind") == "dag":
                with log.span("dag.parse", op):
                    parse_run_request(body)
            request = parse_run_request(body)
            task = TASKS[request.task_kind]
            with log.span("parallel.run_cell", op):  # cold, as served
                doc = task(request.args)
            # with the kernel plan now warm on both sides, the service
            # miss minus the bare task is the service layer alone
            with log.span("parallel.run_cell.warm", op):
                task(request.args)
            with log.span("service.inproc_cold", op):
                service.handle_run(body)
            doc = refs.render(doc)
            with log.span("resilience.ledger_put", op):
                cache.put(request.key(), request.task_kind, doc)
    finally:
        ledger.close()
        service.close()
    return {
        "dag.parse_s": med(log, "dag.parse"),
        "parallel.run_cell_s": med(log, "parallel.run_cell"),
        "service.inproc_cold_s": med_diff(log, "service.inproc_cold",
                                          "parallel.run_cell.warm"),
        "resilience.ledger_put_s": med(log, "resilience.ledger_put"),
    }


def hot_rungs(log: SpanLog, seed: int, tier: Tier) -> tuple[dict, dict]:
    """In-process hit, direct-to-shard POST, POST through the router.

    Direct POSTs all go to shard 0; the router sends each key to its
    owner, either shard.  Both shards run the same code, so the
    difference is the router hop.

    Returns the rung metrics and the tier counter deltas over the timed
    POSTs (what a library workload reports for the service counters).
    """
    from repro.service.server import SimService

    keys = gen.hot_keys(seed)
    payloads = [json.dumps(body).encode() for body in keys]
    service = SimService()
    router = Conn(tier.addr)
    shard = Conn(tier.shard_addrs[0])

    def post(conn: Conn, payload: bytes) -> None:
        status, body = conn.request("POST", "/v1/run", payload)
        if status != 200:
            raise RuntimeError(f"ladder POST answered {status}: {body[:200]}")

    try:
        for body, payload in zip(keys, payloads):  # warm all three paths
            service.handle_run(body)
            post(shard, payload)
            post(router, payload)
        before = counters(tier.metrics())
        for _ in range(HOT_PASSES):
            for body, payload in zip(keys, payloads):
                op = log.next_op()
                with log.span("service.inproc_hot", op):
                    service.handle_run(body)
                with log.span("http.shard", op):
                    post(shard, payload)
                with log.span("http.router", op):
                    post(router, payload)
        after = counters(tier.metrics())
    finally:
        router.close()
        shard.close()
        service.close()
    metrics = {
        "service.inproc_hot_s": med(log, "service.inproc_hot"),
        "service.http_s": med_diff(log, "http.shard", "service.inproc_hot"),
        "router.hop_s": med_diff(log, "http.router", "http.shard"),
    }
    return metrics, delta(after, before)
