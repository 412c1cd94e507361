"""The four workloads: set-up, one timed window, the output check.

Each workload is measured from outside the program, through public
calls only: ``repro.run`` (lib-default), the DAG front end's
``streaming_spec`` / ``schedule`` / ``compile_schedule`` /
``ENGINES["vec"].run`` (dag-compare), and HTTP to
``python -m repro serve --shards 2`` (svc-hot, svc-cold).  Imports of
the program happen inside :meth:`setup`, so they are timed as set-up.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import calib
import gen
import refs
from drive import LoopResult, closed_loop, open_loop
from spans import SpanLog
from tier import Conn, Tier, counters, delta, ratio, vm_hwm_mb

#: seconds of host-speed probing just before and just after an open-loop
#: window (a closed loop probes before each operation instead)
CALIB_S = 1.0


@dataclass
class Window:
    """One timed window and what it left behind for the check."""

    loop: LoopResult
    inputs: list
    kept: dict = field(default_factory=dict)  #: op index -> output digest
    rss_mb: float = 0.0
    tier: dict = field(default_factory=dict)  #: /v1/metrics deltas
    plan: dict = field(default_factory=dict)  #: plan_cache_info() deltas
    failures: dict = field(default_factory=dict)  #: op index -> reason
    words: float = 0.0  #: charged words of every correct result
    #: per operation, the host speed (:func:`calib.probe` seconds) it ran at
    probes: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.loop.samples)


@dataclass
class Env:
    root: Path
    scratch: Path
    seed: int
    seconds: float


class _ClosedLoop:
    """One thread, one operation after another, checked afterwards.

    A workload supplies its inputs, one operation, the digest kept of
    each result, and its reference check.  Inputs are hashable, so a
    reference is computed once per distinct input.
    """

    service = False
    name = ""
    slo_s = 0.0
    #: inputs per block of the mix; set-up runs each distinct one once
    block = 1
    #: inputs generated per second of window, more than it can run
    max_ops_per_s = 60

    def __init__(self, env: Env):
        self.env = env
        self._refs: dict = {}

    def inputs(self, n: int, part: int) -> list:
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def digest(self, item, result) -> dict:
        raise NotImplementedError

    def reference(self, item):
        raise NotImplementedError

    def compare(self, digest: dict, ref) -> str | None:
        """Why ``digest`` does not match ``ref``, or ``None``."""
        raise NotImplementedError

    def words(self, digest: dict, ref) -> int:
        """Charged words of one correct result."""
        return digest["words"]

    def counts(self) -> dict:
        """The program's counters, read before and after a window."""
        from repro.sim.hmm_vec import plan_cache_info

        return plan_cache_info()

    def record(self, win: Window, before: dict, after: dict) -> None:
        win.plan = {k: after[k] - before[k] for k in ("hits", "misses")}
        win.rss_mb = vm_hwm_mb()

    def setup(self) -> float:
        """Imports and one operation per distinct input, timed."""
        start = time.perf_counter()
        for item in dict.fromkeys(self.inputs(self.block, 0)):
            self.op(item)
        return time.perf_counter() - start

    def window(self, seconds: float, part: int = 0,
               spans: SpanLog | None = None) -> Window:
        n = int(seconds * self.max_ops_per_s) + self.block
        inputs = self.inputs(n, part)
        kept: dict = {}

        def call(i, item):
            if spans is None or i % 2 == 0:
                return self.op(item)
            with spans.span(f"op.{self.name}", spans.next_op()):
                return self.op(item)

        def keep(sample, result):
            kept[sample.index] = self.digest(inputs[sample.index], result)

        before = self.counts()
        loop = closed_loop(call, inputs, seconds, keep)
        win = Window(loop, inputs, kept,
                     probes=calib.local([s.probe for s in loop.samples]))
        self.record(win, before, self.counts())
        return win

    def check(self, win: Window) -> None:
        for sample in win.loop.samples:
            if sample.error is not None:
                win.failures[sample.index] = sample.error
                continue
            item = win.inputs[sample.index]
            if item not in self._refs:
                self._refs[item] = self.reference(item)
            digest = win.kept[sample.index]
            reason = self.compare(digest, self._refs[item])
            if reason is None:
                win.words += self.words(digest, self._refs[item])
            else:
                win.failures[sample.index] = reason

    def claims(self, win: Window) -> list[str]:
        return []

    def close(self) -> None:
        pass


class LibDefault(_ClosedLoop):
    """Closed loop over ``repro.run(p, "vec", f, v=1024)`` with defaults."""

    name = "lib-default"
    slo_s = 0.5
    block = gen.LIB_BLOCK

    def inputs(self, n: int, part: int) -> list:
        return gen.lib_inputs(self.env.seed, n, part)

    def op(self, item):
        import repro

        program, f = item
        return repro.run(program, "vec", f, v=gen.LIB_V)

    def digest(self, item, result) -> dict:
        return refs.lib_digest(item[0], result)

    def reference(self, item) -> dict:
        return refs.lib_reference(*item)

    def compare(self, digest: dict, ref) -> str | None:
        return refs.lib_mismatch(digest, ref)


class DagCompare(_ClosedLoop):
    """Closed loop: one generator's spec, both heuristics, compile, run."""

    name = "dag-compare"
    slo_s = 1.5
    block = len(gen.DAG_GENERATORS)

    def inputs(self, n: int, part: int) -> list:
        return gen.dag_inputs(self.env.seed, n, part)

    def op(self, generator: str) -> dict:
        from repro.algorithms.streaming import streaming_spec
        from repro.dag import compile_schedule, schedule
        from repro.engines import ENGINES, resolve_access_function

        f = resolve_access_function(gen.DAG_F)
        spec = streaming_spec(generator, **gen.DAG_PARAMS)
        results = {}
        for heuristic in gen.DAG_HEURISTICS:
            sched = schedule(spec, gen.DAG_V, heuristic)
            program = compile_schedule(spec, sched)
            results[heuristic] = ENGINES["vec"].run(program, f, trace="counters")
        return results

    def digest(self, item, result) -> dict:
        return refs.dag_digest(result)

    def reference(self, generator) -> dict:
        return refs.dag_reference(generator)

    def compare(self, digest: dict, ref) -> str | None:
        return refs.dag_mismatch(digest, ref)


class _Tiered:
    """A fresh ``serve --shards 2`` tier per set-up, for the svc-* workloads."""

    service = True
    tier: Tier | None = None

    def warm(self) -> None:
        raise NotImplementedError

    def setup(self) -> float:
        """Boot a fresh tier on a new shard directory and warm it."""
        self.close()
        start = time.perf_counter()
        self.tier = Tier(self.env.root, self.env.scratch)
        self.warm()
        return time.perf_counter() - start

    def _post_all(self, addr: str, bodies) -> None:
        conn = Conn(addr)
        try:
            for body in bodies:
                status, doc = conn.post_json("/v1/run", body)
                if status != 200:
                    raise RuntimeError(f"warm-up answered {status}: {doc}")
        finally:
            conn.close()

    def counts(self) -> dict:
        return counters(self.tier.metrics())

    def record(self, win: Window, before: dict, after: dict) -> None:
        win.tier = delta(after, before)
        win.rss_mb = self.tier.peak_rss_mb()

    def close(self) -> None:
        if self.tier is not None:
            self.tier.stop()
            self.tier = None


class SvcHot(_Tiered):
    """Open loop at ~350 req/s: Zipf over 16 warm keys + 5% unique."""

    name = "svc-hot"
    slo_s = 0.010

    def __init__(self, env: Env):
        self.env = env

    def warm(self) -> None:
        self._post_all(self.tier.addr, gen.hot_keys(self.env.seed))

    def window(self, seconds: float, part: int = 0,
               spans: SpanLog | None = None) -> Window:
        times, bodies = gen.hot_stream(self.env.seed, seconds, part)
        before = self.counts()
        probe = calib.span(CALIB_S)
        loop = open_loop(self.tier.addr, times, bodies, spans=spans)
        probe = (probe + calib.span(CALIB_S)) / 2
        win = Window(loop, bodies, probes=[probe] * len(loop.samples))
        self.record(win, before, self.counts())
        return win

    def check(self, win: Window) -> None:
        cache: dict = {}
        for sample in win.loop.samples:
            body = win.inputs[sample.index]
            key = refs.body_key(body)
            if key not in cache:
                cache[key] = refs.svc_reference(body)
            reason = refs.svc_mismatch(
                sample.status, sample.payload, sample.error, cache[key]
            )
            if reason is None:
                win.words += refs.words(cache[key]["counters"])
            else:
                win.failures[sample.index] = reason

    def claims(self, win: Window) -> list[str]:
        hit = ratio(win.tier["cache.hits"], win.tier["cache.misses"])
        if hit < 0.9:
            return [f"svc-hot cache hit ratio {hit:.3f} < 0.9"]
        return []


class SvcCold(_Tiered, _ClosedLoop):
    """Closed loop, one connection through the router; every key unique,
    so every request computes."""

    name = "svc-cold"
    slo_s = 0.200
    block = 20
    #: a request takes 10 ms or more, so this many is never reached
    max_ops_per_s = 150

    def __init__(self, env: Env):
        super().__init__(env)
        self._conn: Conn | None = None

    def warm(self) -> None:
        # straight to each shard, so both have run every engine and kind
        for addr in self.tier.shard_addrs:
            self._post_all(addr, gen.cold_warmup())

    def inputs(self, n: int, part: int) -> list[bytes]:
        return [json.dumps(body).encode()
                for body in gen.cold_inputs(self.env.seed, n, part)]

    def op(self, payload: bytes):
        if self._conn is None:
            self._conn = Conn(self.tier.addr)
        try:
            return self._conn.request("POST", "/v1/run", payload)
        except OSError:
            self._conn.close()  # the next request opens a fresh one
            self._conn = None
            raise

    def digest(self, item, result) -> dict:
        status, payload = result
        return {"status": status, "payload": payload}

    def reference(self, payload: bytes) -> dict:
        return refs.svc_reference(json.loads(payload))

    def compare(self, digest: dict, ref) -> str | None:
        return refs.svc_mismatch(digest["status"], digest["payload"], None, ref)

    def words(self, digest: dict, ref) -> int:
        return refs.words(ref["counters"])

    def claims(self, win: Window) -> list[str]:
        cached = win.tier["service.served_cached"]
        if cached:
            return [f"svc-cold served {cached} request(s) from cache"]
        return []

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        super().close()


WORKLOADS = {w.name: w for w in (LibDefault, DagCompare, SvcHot, SvcCold)}
