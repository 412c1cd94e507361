"""The per-layer metrics of a traced run: name, unit, how measured."""

from __future__ import annotations

#: ``(name, unit, how it is measured)``, in report order
TABLE = (
    ("algorithms.build_s", "s", "engines.build_program"),
    ("sim.vec.kernel_s", "s", 'ENGINES["vec"].run(trace="counters"), plan warm'),
    ("sim.vec.plan_build_s", "s", "first run under a fresh f minus a warm run"),
    ("sim.hmm.kernel_s", "s", "scalar hmm run, svc-cold sizes"),
    ("sim.bt.kernel_s", "s", "scalar bt run, svc-cold sizes"),
    ("sim.brent.kernel_s", "s", "brent run, svc-cold sizes"),
    ("obs.phases_s", "s", 'trace="phases" run minus trace="counters" run'),
    ("dbsp.baseline_s", "s", "DBSPMachine(f).run(program.with_global_sync())"),
    ("engines.to_json_s", "s", "EngineResult.to_json"),
    ("sim.plan_cache.hit_ratio", "ratio", "vec plan cache deltas, traced window"),
    ("dag.spec_s", "s", "streaming_spec"),
    ("dag.schedule.locality_s", "s", 'schedule(spec, 16, "locality")'),
    ("dag.schedule.greedy_s", "s", 'schedule(spec, 16, "greedy")'),
    ("dag.compile_s", "s", "compile_schedule"),
    ("dag.run_s", "s", 'ENGINES["vec"].run on the compiled DAG'),
    ("dag.parse_s", "s", "parse_run_request on svc-cold DAG bodies"),
    ("parallel.run_cell_s", "s", "TASKS[kind](args) on svc-cold bodies"),
    ("service.inproc_cold_s", "s",
     "SimService.handle_run on a fresh key minus the same task, plan warm"),
    ("resilience.ledger_put_s", "s", "ResultCache.put, ledger-backed"),
    ("service.inproc_hot_s", "s", "SimService.handle_run on a warm key"),
    ("service.http_s", "s", "POST to one shard minus service.inproc_hot_s"),
    ("router.hop_s", "s", "POST via the router minus POST to the shard"),
    ("service.cache.hit_ratio", "ratio", "router /v1/metrics cache deltas"),
    ("service.served_computed", "count", "router /v1/metrics deltas"),
    ("service.served_cached", "count", "router /v1/metrics deltas"),
    ("service.served_coalesced", "count", "router /v1/metrics deltas"),
    ("service.rejected", "count", "router /v1/metrics deltas"),
    ("router.forwards", "count", "router /v1/metrics deltas"),
    ("router.failovers", "count", "router /v1/metrics deltas"),
    ("router.unavailable", "count", "router /v1/metrics deltas"),
    ("sim.charged_words", "count", "words touched + moved, ladder inputs"),
    ("dag.messages.locality", "count", "messages, locality schedules"),
    ("dag.messages.greedy", "count", "messages, greedy schedules"),
    ("loadgen.late_p90_s", "s", "generator send lateness, traced window"),
    ("trace.overhead_ratio", "ratio", "untraced / traced ops_per_s"),
)

NAMES = tuple(name for name, _, _ in TABLE)
UNITS = {name: unit for name, unit, _ in TABLE}
NOTES = {name: note for name, _, note in TABLE}
