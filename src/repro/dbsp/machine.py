"""Direct (fully parallel) execution of D-BSP programs, with cost accounting.

The cost model is the paper's: an i-superstep in which every processor
computes for at most ``tau`` time and the messages form an h-relation costs

    ``tau + h * g(mu * v / 2^i)``

— each message delivery inside an i-cluster is priced like a remote access
just outside the cluster's aggregate memory.  The total running time ``T``
of a program is the sum over its supersteps.

This executor is the *guest-side ground truth*: the simulation theorems are
statements of the form "host time <= slowdown * T", and the equivalence
tests require every engine to reproduce this executor's final contexts
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.dbsp.cluster import cluster_size
from repro.dbsp.program import Message, ProcView, Program
from repro.functions import AccessFunction

__all__ = [
    "DBSPMachine",
    "DBSPRunResult",
    "SuperstepRecord",
    "slowdown_ratio",
    "superstep_cost",
]


def superstep_cost(
    g: AccessFunction, mu: int, v: int, label: int, tau: float, h: int
) -> float:
    """Cost of one i-superstep: ``tau + h * g(mu * v / 2^i)``."""
    return tau + h * g(mu * cluster_size(v, label))


def slowdown_ratio(host_time: float, guest_time: float) -> float | None:
    """Measured slowdown ``host_time / guest_time`` of a simulation.

    ``None`` when the guest time is zero: there is no meaningful ratio,
    and a fabricated ``0.0`` would read as an infinitely fast host.

    >>> slowdown_ratio(12.0, 4.0), slowdown_ratio(12.0, 0.0)
    (3.0, None)
    """
    return host_time / guest_time if guest_time > 0 else None


@dataclass(frozen=True)
class SuperstepRecord:
    """Per-superstep accounting row."""

    index: int
    label: int
    name: str
    tau: float  #: max local computation time over processors
    h: int  #: degree of the h-relation routed
    cost: float  #: tau + h * g(mu v / 2^label)


#: phase categories of the direct execution: a superstep's cost splits
#: into ``compute`` (tau) and ``communication`` (h * g(mu v / 2^i))
DBSP_PHASES = ("compute", "communication")


@dataclass
class DBSPRunResult:
    """Outcome of a direct D-BSP run."""

    contexts: list[dict]
    total_time: float
    records: list[SuperstepRecord] = field(default_factory=list)
    #: per-phase charged time: ``compute`` = sum of tau, ``communication``
    #: = sum of h * g(mu v / 2^i) (a view over ``records``)
    breakdown: dict[str, float] = field(default_factory=dict)
    #: event counters: supersteps executed, messages routed, max h seen
    counters: dict[str, int | float] = field(default_factory=dict)

    def label_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for rec in self.records:
            counts[rec.label] = counts.get(rec.label, 0) + 1
        return counts

    def max_local_time(self) -> float:
        """Total per-processor local computation bound ``O(tau)`` of Thm 5."""
        return sum(rec.tau for rec in self.records)


class DBSPMachine:
    """A ``D-BSP(v, mu, g(x))`` executing programs at full parallelism."""

    def __init__(self, g: AccessFunction, validate: bool = True):
        self.g = g
        self.validate = validate

    def run(self, program: Program) -> DBSPRunResult:
        """Execute ``program``; return final contexts and charged time."""
        v, mu = program.v, program.mu
        contexts = program.initial_contexts()
        inboxes: list[list[Message]] = [[] for _ in range(v)]
        records: list[SuperstepRecord] = []
        total = 0.0
        compute_total = 0.0
        comm_total = 0.0
        n_messages = 0
        n_dummies = 0
        max_h = 0

        for index, step in enumerate(program.supersteps):
            tau = 1.0
            h = 0
            if step.is_dummy:
                next_inboxes = inboxes  # nothing sent; pending stay empty
                n_dummies += 1
            else:
                next_inboxes = [[] for _ in range(v)]
                sent_counts = [0] * v
                recv_counts = [0] * v
                for pid in range(v):
                    view = ProcView(
                        pid, v, mu, step.label, contexts[pid], inboxes[pid]
                    )
                    step.body(view)
                    tau = max(tau, view.local_time)
                    sent_counts[pid] = len(view.outbox)
                    for dest, msg in view.outbox:
                        next_inboxes[dest].append(msg)
                        recv_counts[dest] += 1
                if self.validate:
                    self._check_degrees(recv_counts, mu, index, step.name)
                for pid in range(v):
                    next_inboxes[pid].sort()
                h = max(max(sent_counts), max(recv_counts))
                n_messages += sum(sent_counts)
            cost = superstep_cost(self.g, mu, v, step.label, tau, h)
            records.append(
                SuperstepRecord(index, step.label, step.name, tau, h, cost)
            )
            total += cost
            compute_total += tau
            comm_total += cost - tau
            max_h = max(max_h, h)
            inboxes = next_inboxes

        return DBSPRunResult(
            contexts=contexts,
            total_time=total,
            records=records,
            breakdown={"compute": compute_total, "communication": comm_total},
            counters={
                "supersteps": len(records),
                "dummy_supersteps": n_dummies,
                "messages": n_messages,
                "max_h": max_h,
            },
        )

    @staticmethod
    def _check_degrees(
        recv_counts: list[int], mu: int, index: int, name: str
    ) -> None:
        worst = max(recv_counts)
        if worst > mu:
            pid = recv_counts.index(worst)
            raise ValueError(
                f"superstep {index} ({name!r}): processor {pid} receives "
                f"{worst} messages > mu = {mu} (buffers are part of the "
                f"context, so h cannot exceed mu)"
            )
