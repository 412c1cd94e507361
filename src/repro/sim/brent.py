"""D-BSP self-simulation — the analogue of Brent's lemma (Section 4).

Guest: a program for ``D-BSP(v, mu, g(x))``.  Host: a
``D-BSP(v', mu v / v', g(x))`` with ``v' <= v``, same aggregate memory,
whose individual processors are regarded as ``g(x)``-HMMs of size
``mu v / v'``.  Host processor ``P_j`` simulates guest cluster
``C_j^(log v')``, keeping the ``v / v'`` guest contexts as blocks of its
local hierarchical memory.

The program is split into maximal *runs* of supersteps whose labels are
either all ``< log v'`` (coarse runs — real host communication happens) or
all ``>= log v'`` (fine runs — entirely local to each host processor):

* each i-superstep of a coarse run becomes a host i-superstep (cycle the
  guest contexts through the top of the local memory, execute bodies, ship
  an ``h v/v'``-relation) followed by a host ``log v'``-superstep that
  files received messages into the destination guests' context blocks;
* a fine run is handed verbatim (labels shifted by ``log v'``) to the
  Section 3 HMM-simulation scheme running inside every host processor.

Theorem 10: the host time is
``O((v/v')(tau + mu sum_i lambda_i g(mu v / 2^i)))``; for *full* programs
(every superstep routes a Theta(mu)-relation — fine-grained programs are
full) this is an optimal ``Theta(T v / v')`` slowdown (Corollary 11),
showing that D-BSP with hierarchical memory integrates network and memory
hierarchies seamlessly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Literal

from repro.dbsp.cluster import cluster_size, log2_exact
from repro.dbsp.machine import slowdown_ratio
from repro.dbsp.program import Message, ProcView, Program, Superstep
from repro.functions import AccessFunction, CostTable
from repro.obs.counters import NULL_COUNTERS, Counters
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer
from repro.parallel.config import ParallelConfig, resolve_parallel, warn_fallback_once
from repro.sim.hmm_sim import HMMSimulator
from repro.sim.kernel import deliver_sorted

__all__ = ["BrentSimulator", "BrentSimResult", "RunRecord", "BRENT_PHASES"]

#: phase categories of the Theorem 10 scheme: ``compute`` (cycling guest
#: contexts through the host HMMs + body execution), ``communication``
#: (the host (h v/v')-relations), ``filing`` (the extra log v'-superstep
#: filing received messages), ``fine`` (whole fine runs, simulated by the
#: embedded Section 3 scheme)
BRENT_PHASES = ("compute", "communication", "filing", "fine")


@dataclass(frozen=True)
class RunRecord:
    """Accounting for one maximal run of supersteps."""

    kind: str  #: "coarse" (labels < log v') or "fine" (labels >= log v')
    first_step: int
    n_steps: int
    host_time: float


@dataclass
class BrentSimResult:
    """Outcome of the self-simulation."""

    contexts: list[dict]
    time: float
    v_host: int
    runs: list[RunRecord] = field(default_factory=list)
    #: per-phase charged time (view over the span trace); empty when
    #: observability is off
    breakdown: dict[str, float] = field(default_factory=dict)
    #: event counters, including those of the embedded HMM simulations
    counters: dict[str, int | float] = field(default_factory=dict)
    #: recorded spans (``trace="full"`` only)
    spans: list[SpanRecord] = field(default_factory=list)

    def slowdown(self, guest_time: float) -> float | None:
        """``None`` when the guest time is zero (no meaningful ratio)."""
        return slowdown_ratio(self.time, guest_time)


class _GlobalizedView:
    """Adapter exposing a cluster-local :class:`ProcView` under global ids.

    Fine runs execute inside one host processor over the ``v/v'`` guests of
    one ``log v'``-cluster; program bodies, however, speak global processor
    ids.  This proxy translates pids on the way in and out.
    """

    __slots__ = ("_view", "_offset", "pid", "v", "mu", "label", "ctx", "inbox")

    def __init__(self, view: ProcView, offset: int, v_global: int):
        self._view = view
        self._offset = offset
        self.pid = view.pid + offset
        self.v = v_global
        self.mu = view.mu
        self.label = view.label  # local label; bodies rarely inspect it
        self.ctx = view.ctx
        # messages are immutable, so host 0 (offset 0) can share the list
        if offset:
            self.inbox = [Message(m.src + offset, m.payload) for m in view.inbox]
        else:
            self.inbox = view.inbox

    def send(self, dest: int, payload: Any = None) -> None:
        self._view.send(dest - self._offset, payload)

    def charge(self, t: float) -> None:
        self._view.charge(t)

    def received(self):
        return (msg.payload for msg in self.inbox)


class BrentSimulator:
    """Theorem 10's self-simulation engine."""

    def __init__(
        self,
        g: AccessFunction,
        v_host: int,
        c2: float = 0.5,
        trace: Literal["off", "counters", "phases", "full"] = "phases",
        parallel: "ParallelConfig | int | None" = None,
        kernel: Literal["scalar", "vec"] | None = None,
    ):
        self.g = g
        self.v_host = v_host
        self.c2 = c2
        self.log_v_host = log2_exact(v_host)
        if trace not in ("off", "counters", "phases", "full"):
            raise ValueError(f"unknown trace level {trace!r}")
        self.trace = trace
        #: execution kernel for the embedded Section 3 fine runs — passed
        #: through to HMMSimulator (``None`` reads ``REPRO_ENGINE``)
        self.kernel = kernel
        # host-parallelism policy: with jobs > 1, the independent per-host
        # fine runs are dispatched to worker processes; charged time,
        # counters and breakdowns stay bit-identical to the serial path
        # (see HMMSimulator's ``parallel`` parameter)
        self.parallel = resolve_parallel(parallel)

    def simulate(self, program: Program) -> BrentSimResult:
        """Simulate ``program`` on ``D-BSP(v', mu v/v', g)``; charge host time."""
        v, v_host = program.v, self.v_host
        if v_host > v:
            raise ValueError(f"host width {v_host} exceeds guest width {v}")
        if v_host == v:
            # degenerate: the host *is* the guest machine
            from repro.dbsp.machine import DBSPMachine

            run = DBSPMachine(self.g).run(program.with_global_sync())
            breakdown: dict[str, float] = {}
            if self.trace in ("phases", "full"):
                breakdown = dict.fromkeys(BRENT_PHASES, 0.0)
                breakdown.update(run.breakdown)
            return BrentSimResult(
                run.contexts,
                run.total_time,
                v_host,
                breakdown=breakdown,
                counters=dict(run.counters) if self.trace != "off" else {},
            )

        normalized = program.with_global_sync()
        state = _BrentRun(self, normalized)
        state.execute()
        state.tracer.assert_closed()
        if self.trace == "off":
            breakdown = {}
            counters: dict[str, int | float] = {}
        else:
            breakdown = {}
            if self.trace != "counters":
                breakdown = dict.fromkeys(BRENT_PHASES, 0.0)
                breakdown.update(state.tracer.phase_totals())
            counters = state.counters.snapshot()
        return BrentSimResult(
            contexts=state.contexts,
            time=state.time,
            v_host=v_host,
            runs=state.records,
            breakdown=breakdown,
            counters=counters,
            spans=state.tracer.spans,
        )


class _BrentRun:
    def __init__(self, sim: BrentSimulator, program: Program):
        self.sim = sim
        self.program = program
        self.v = program.v
        self.mu = program.mu
        self.v_host = sim.v_host
        self.log_v_host = sim.log_v_host
        self.guests_per_host = self.v // self.v_host
        #: local memory of one host processor, in words
        self.mu_host = self.mu * self.guests_per_host
        self.table = CostTable.shared(sim.g, max(self.mu_host, 2))
        # per-guest charged costs reused by every coarse superstep (the
        # same floats the prefix table would produce, added in the same
        # order — charged time is bit-identical): cycling a guest context
        # through the top of the local HMM, and filing one message into a
        # guest's context block
        table, mu = self.table, self.mu
        top_cost = table.range_cost(0, mu)
        self._cycle_cost = [
            2.0 * (table.range_cost(k * mu, (k + 1) * mu) + top_cost)
            for k in range(self.guests_per_host)
        ]
        self._file_cost = [
            table.access(k * mu) for k in range(self.guests_per_host)
        ]
        self.contexts = program.initial_contexts()
        self.pending: list[list[Message]] = [[] for _ in range(self.v)]
        # recycled per-body view (see _coarse_superstep)
        self._view = ProcView(0, self.v, self.mu, 0, {}, [])
        self.time = 0.0
        self.records: list[RunRecord] = []
        #: pid offset of the host processor currently simulated (fine runs)
        self.current_offset = 0
        if sim.trace == "off":
            self.counters = NULL_COUNTERS
            self.tracer = NULL_TRACER
        elif sim.trace == "counters":
            self.counters = Counters()
            self.tracer = NULL_TRACER
        else:
            self.counters = Counters()
            self.tracer = Tracer(
                clock=lambda: self.time, record=(sim.trace == "full")
            )

    # ------------------------------------------------------------- helpers
    def _host_of(self, pid: int) -> int:
        return pid // self.guests_per_host

    def _block_range(self, pid: int) -> tuple[int, int]:
        """Word range of guest ``pid``'s context inside its host's memory."""
        local = pid % self.guests_per_host
        return local * self.mu, (local + 1) * self.mu

    # --------------------------------------------------------------- main
    def execute(self) -> None:
        steps = self.program.supersteps
        pos = 0
        while pos < len(steps):
            coarse = steps[pos].label < self.log_v_host
            end = pos
            while end < len(steps) and (
                (steps[end].label < self.log_v_host) == coarse
            ):
                end += 1
            before = self.time
            if coarse:
                for s in range(pos, end):
                    self.tracer.open(
                        "coarse-superstep",
                        None,
                        {"superstep": s, "label": steps[s].label}
                        if self.tracer.record
                        else None,
                    )
                    self._coarse_superstep(steps[s])
                    self.tracer.close()
            else:
                self.tracer.open(
                    "fine-run",
                    "fine",
                    {"first_step": pos, "n_steps": end - pos}
                    if self.tracer.record
                    else None,
                )
                self._fine_run(steps[pos:end])
                self.tracer.close()
            self.records.append(
                RunRecord(
                    kind="coarse" if coarse else "fine",
                    first_step=pos,
                    n_steps=end - pos,
                    host_time=self.time - before,
                )
            )
            pos = end

    # ----------------------------------------------------- coarse supersteps
    def _coarse_superstep(self, step: Superstep) -> None:
        """One guest i-superstep with ``i < log v'`` on the host machine."""
        local_times = [0.0] * self.v_host
        sent_counts = [0] * self.v_host
        recv_counts = [0] * self.v_host
        deliveries: list[list[tuple[int, Message]]] = [
            [] for _ in range(self.v_host)
        ]

        if not step.is_dummy:
            g_per_host = self.guests_per_host
            cycle_cost = self._cycle_cost
            pending = self.pending
            contexts = self.contexts
            body = step.body
            # recycled per-body view, same discipline as the HMM engine
            view = self._view
            view.label = step.label
            outbox = view.outbox
            clear = outbox.clear
            pid = 0
            for host in range(self.v_host):
                lt = local_times[host]
                for k in range(g_per_host):
                    # bring the guest context to the top of the local HMM
                    # and back (same float order as the pid loop: cycle
                    # charge then local charge, guest by guest)
                    lt += cycle_cost[k]
                    view.pid = pid
                    view.ctx = contexts[pid]
                    view.inbox = pending[pid]  # kept ordered at delivery
                    pending[pid] = []
                    view.local_time = 1.0
                    body(view)
                    lt += view.local_time
                    sent_counts[host] += len(outbox)
                    for dest, msg in outbox:
                        dest_host = dest // g_per_host
                        recv_counts[dest_host] += 1
                        deliveries[dest_host].append((dest, msg))
                    clear()
                    pid += 1
                local_times[host] = lt
        else:
            for host in range(self.v_host):
                local_times[host] = 1.0

        # host i-superstep: local simulation plus an (h v/v')-relation
        # within host i-clusters; message cost g(mu_host * v'/2^i) = g(mu v/2^i)
        h_host = max(max(sent_counts), max(recv_counts), 0)
        comm = h_host * self.sim.g(self.mu_host * cluster_size(self.v_host, step.label))
        self.tracer.open("compute", "compute")
        self.time += max(local_times)
        self.tracer.close()
        self.tracer.open("communication", "communication")
        self.time += comm
        self.tracer.close()

        # host (log v')-superstep: file received messages into the guests'
        # incoming buffers (an access into the destination block)
        self.tracer.open("filing", "filing")
        file_cost = self._file_cost
        g_per_host = self.guests_per_host
        pending = self.pending
        max_filing = 0.0
        n_delivered = 0
        all_outgoing: list[tuple[int, Message]] = []
        for host in range(self.v_host):
            box = deliveries[host]
            n_delivered += len(box)
            host_filing = 0.0
            for dest, _msg in box:
                host_filing += file_cost[dest % g_per_host]
            if host_filing > max_filing:
                max_filing = host_filing
            all_outgoing.extend(box)
        # host-order concatenation preserves the per-message insort tie
        # order, so the batched delivery rebuilds identical inboxes
        deliver_sorted(pending, all_outgoing)
        self.time += max_filing + 1.0
        self.tracer.close()
        self.counters.add("messages", n_delivered)

    # --------------------------------------------------------- fine runs
    def _fine_run(self, steps: list[Superstep]) -> None:
        """A maximal run with labels ``>= log v'``: local to each host."""
        g_per_host = self.guests_per_host
        cfg = self.sim.parallel
        host_times: list[float] = []
        start_host = 0
        if (
            cfg.enabled
            and self.sim.trace != "full"
            and self.v_host >= 2
            and len(steps) * g_per_host >= cfg.min_work_per_task
        ):
            start_host = self._fine_run_parallel(cfg, steps, host_times)
        if start_host < self.v_host:
            self._fine_run_serial(steps, host_times, start_host)
        # the run is local: one host "superstep" costing the slowest member
        self.time += max(host_times)

    def _fine_run_serial(
        self, steps: list[Superstep], host_times: list[float], start_host: int
    ) -> None:
        """Serial host loop (also the tail after a degraded dispatch)."""
        g_per_host = self.guests_per_host
        shifted = [
            Superstep(
                s.label - self.log_v_host,
                None if s.is_dummy else _shift_body(s.body, self),
                name=s.name,
            )
            for s in steps
        ]
        # parallel=1: each host's embedded run is already scheduled here
        hmm = HMMSimulator(
            self.sim.g,
            c2=self.sim.c2,
            check_invariants="off",
            trace=(
                self.sim.trace
                if self.sim.trace in ("off", "counters")
                else "phases"
            ),
            parallel=1,
            kernel=self.sim.kernel,
        )
        # one shared Program for all hosts: its smoothing (and the label
        # set) is computed once by the first host's simulate() call and
        # served from the per-program memo for the other v'-1 hosts
        local_program = Program(
            g_per_host,
            self.mu,
            shifted,
            make_context=lambda pid: {},  # replaced via initial_contexts
            name=f"{self.program.name}@fine",
        )
        for host in range(start_host, self.v_host):
            offset = host * g_per_host
            self.current_offset = offset
            local_contexts = self.contexts[offset : offset + g_per_host]
            if offset:
                local_pending = [
                    [Message(m.src - offset, m.payload) for m in self.pending[pid]]
                    for pid in range(offset, offset + g_per_host)
                ]
            else:
                # messages are immutable and the HMM run copies the boxes
                local_pending = self.pending[:g_per_host]
            result = hmm.simulate(
                local_program,
                initial_contexts=local_contexts,
                initial_pending=local_pending,
            )
            host_times.append(result.time)
            self.counters.merge(result.counters)
            # contexts are shared dict objects: mutations already visible
            if offset:
                for k in range(g_per_host):
                    self.pending[offset + k] = [
                        Message(m.src + offset, m.payload)
                        for m in result.pending[k]
                    ]
            else:
                self.pending[:g_per_host] = result.pending

    def _fine_run_parallel(
        self, cfg: ParallelConfig, steps: list[Superstep], host_times: list[float]
    ) -> int:
        """Dispatch per-host fine runs to the pool; merge in host order.

        Each host's embedded HMM run starts from charged time zero in the
        serial path already, so no charge tape is needed: the worker ships
        back ``(contexts, pending, time, counters)`` and the parent takes
        ``max`` over host times exactly as the serial loop does.  Returns
        the number of hosts merged; on a mid-flight pool failure the
        caller's serial loop finishes the remaining hosts (host runs are
        independent, so the prefix/suffix split is sound).
        """
        from repro.parallel.pool import PoolUnavailable, dumps_payload, shared_pool

        g_per_host = self.guests_per_host
        counters_on = self.counters is not NULL_COUNTERS
        done = 0
        try:
            pool = shared_pool(cfg.jobs)
            # ship the *original* bodies: the worker adds its own
            # _OffsetBody wrapper (the picklable equivalent of
            # _shift_body, which closes over this run)
            payload_steps = [
                Superstep(
                    s.label - self.log_v_host,
                    None if s.is_dummy else s.body,
                    name=s.name,
                )
                for s in steps
            ]
            common = dumps_payload(
                (
                    self.sim.g,
                    self.sim.c2,
                    g_per_host,
                    self.mu,
                    payload_steps,
                    self.v,
                    self.sim.trace == "off",
                    self.sim.kernel,
                )
            )
            payloads = []
            for host in range(self.v_host):
                offset = host * g_per_host
                args = (
                    common,
                    offset,
                    self.contexts[offset : offset + g_per_host],
                    self.pending[offset : offset + g_per_host],
                )
                payloads.append(dumps_payload(("brent-hosts", args)))
            futures = pool.submit_many("brent-hosts", payloads)
            results = pool.gather_ordered(
                futures,
                kind="brent-hosts",
                payloads=payloads,
                policy=cfg.retry,
            )
            for host, result in enumerate(results):
                w_contexts, w_pending, w_time, w_counters = result
                offset = host * g_per_host
                self.contexts[offset : offset + g_per_host] = w_contexts
                if offset:
                    for k in range(g_per_host):
                        self.pending[offset + k] = [
                            Message(m.src + offset, m.payload)
                            for m in w_pending[k]
                        ]
                else:
                    self.pending[:g_per_host] = w_pending
                host_times.append(w_time)
                if counters_on:
                    self.counters.merge(w_counters)
                done = host + 1
        except PoolUnavailable as exc:
            if not cfg.fallback:
                raise
            warn_fallback_once(
                f"parallel fine-run degraded to serial: {exc}"
            )
        return done


class _shift_body:
    """Wrap a superstep body so it sees global processor ids.

    Host processors are simulated one after another; the enclosing
    :class:`_BrentRun` records the pid offset of the host currently being
    simulated in ``current_offset``, and the wrapper hands bodies a
    :class:`_GlobalizedView` built from it.
    """

    def __init__(self, body, run: _BrentRun):
        self.body = body
        self.run = run

    def __call__(self, view: ProcView) -> None:
        self.body(_GlobalizedView(view, self.run.current_offset, self.run.v))
