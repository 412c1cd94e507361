"""D-BSP programs: labeled supersteps over per-processor contexts.

A :class:`Program` is a sequence of :class:`Superstep` objects.  Each
superstep has a *label* ``i`` (communication confined to i-clusters) and a
*body* — a per-processor function ``body(view)`` receiving a
:class:`ProcView` that exposes exactly the resources a D-BSP processor has:

* ``view.pid`` — the processor id, ``view.v`` — the machine width;
* ``view.ctx`` — the processor's own local memory (a dict; its charged
  footprint is the machine's ``mu`` words — see below);
* ``view.inbox`` — messages delivered at the end of the *previous*
  superstep, as ``Message(src, payload)``, sorted by sender;
* ``view.send(dest, payload)`` — post a constant-size message to a
  processor in the same i-cluster (checked);
* ``view.charge(t)`` — account ``t`` units of local computation.

Because a view exposes only its own processor's state and messages are
delivered at the *next* superstep, sequential execution of the processor
bodies in any order is semantically identical to the parallel execution —
this is what lets four different engines (direct D-BSP, HMM simulation, BT
simulation, Brent self-simulation) run the same program and be checked
word-for-word against each other.

Fine-grained convention (Sections 3 and 5): ``mu = O(1)``; the per-processor
context plus its message buffers is charged as one ``mu``-word block.  The
number of messages a processor sends or receives in a superstep must not
exceed ``mu`` (buffers are part of the context).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.dbsp.cluster import ClusterTree

__all__ = ["Message", "Superstep", "Program", "ProcView", "DUMMY",
           "concat_programs"]


@dataclass(order=True, unsafe_hash=True, slots=True)
class Message:
    """A constant-size message: sender id and payload word.

    Treated as immutable by every engine (messages are shared freely
    across inboxes); equality, ordering and hashing consider the sender
    only.  Not ``frozen=True``: the engines create millions of these in
    delivery loops, and the frozen ``__init__`` (``object.__setattr__``)
    costs ~2x a plain slot store.
    """

    src: int
    payload: Any = field(compare=False, default=None)


@dataclass(frozen=True)
class Superstep:
    """One labeled superstep.

    ``body(view)`` is run once per processor.  ``name`` is used in traces
    and error messages.  A ``body`` of ``None`` denotes a dummy superstep
    (inserted by smoothing): no computation, no communication — only the
    synchronization structure of its label.

    ``array_body`` is an optional whole-machine form of the same step:
    called once with an array view (:class:`repro.sim.kernel.ArrayView`)
    over column-store contexts, it must be semantically identical to
    running ``body`` once per processor (the equivalence suites enforce
    this for the built-in algorithms).  Partial and multiple sends are
    allowed: each ``send(dest, payload, where=mask)`` call posts one
    message per selected processor, at most one per destination, and
    the next step reads one aligned inbox pair per call.  The
    vectorized simulation kernel uses it when every non-dummy step of a
    program provides one; engines without an array path ignore it.
    """

    label: int
    body: Callable[["ProcView"], None] | None
    name: str = ""
    array_body: Callable[[Any], None] | None = None

    @property
    def is_dummy(self) -> bool:
        return self.body is None


#: sentinel body for dummy supersteps
DUMMY = None


class Program:
    """A D-BSP program: machine shape plus the superstep sequence.

    Parameters
    ----------
    v:
        Number of processors (power of two).
    mu:
        Local memory size in words — the charged size of one processor
        context (fine-grained programs use a small constant).
    supersteps:
        The labeled supersteps, in execution order.
    make_context:
        Factory producing processor ``pid``'s initial context (a dict).
        Defaults to an empty dict per processor.
    name:
        For reports.
    array_schema:
        Optional column-store schema for the vectorized kernel: a mapping
        of context field name to numpy dtype string (e.g.
        ``{"key": "i8"}``).  Programs whose every context is exactly
        these fields — and whose supersteps all carry ``array_body`` —
        can be executed whole-superstep-at-a-time by the ``vec`` engine.
    """

    def __init__(
        self,
        v: int,
        mu: int,
        supersteps: Sequence[Superstep],
        make_context: Callable[[int], dict] | None = None,
        name: str = "program",
        array_schema: dict[str, str] | None = None,
    ):
        self.tree = ClusterTree(v)
        if mu <= 0:
            raise ValueError(f"mu must be positive, got {mu}")
        self.v = v
        self.mu = int(mu)
        self.supersteps = list(supersteps)
        self.make_context = make_context or (lambda pid: {})
        self.name = name
        self.array_schema = array_schema
        for idx, step in enumerate(self.supersteps):
            if not 0 <= step.label <= self.tree.log_v:
                raise ValueError(
                    f"superstep {idx} ({step.name!r}) has label {step.label} "
                    f"outside [0, {self.tree.log_v}]"
                )

    # ------------------------------------------------------------- queries
    @property
    def log_v(self) -> int:
        return self.tree.log_v

    def __len__(self) -> int:
        return len(self.supersteps)

    def labels(self) -> list[int]:
        return [s.label for s in self.supersteps]

    def label_counts(self) -> dict[int, int]:
        """``lambda_i``: number of i-supersteps, for Theorem 5/12 bounds."""
        counts: dict[int, int] = {}
        for step in self.supersteps:
            counts[step.label] = counts.get(step.label, 0) + 1
        return counts

    def ends_with_global_sync(self) -> bool:
        return bool(self.supersteps) and self.supersteps[-1].label == 0

    def with_global_sync(self) -> "Program":
        """Return a program guaranteed to end with a 0-superstep.

        The paper assumes every D-BSP computation ends with a global
        synchronization; the simulation engines rely on it for their
        termination argument, so they normalize programs through here.
        """
        if self.ends_with_global_sync():
            return self
        cached = getattr(self, "_with_sync", None)
        if cached is not None:
            return cached
        closing = Superstep(0, DUMMY, name="global-sync")
        normalized = self.replace_supersteps(self.supersteps + [closing])
        self._with_sync = normalized
        return normalized

    def replace_supersteps(self, supersteps: Sequence[Superstep]) -> "Program":
        return Program(
            self.v,
            self.mu,
            supersteps,
            make_context=self.make_context,
            name=self.name,
            array_schema=self.array_schema,
        )

    def initial_contexts(self) -> list[dict]:
        return [self.make_context(pid) for pid in range(self.v)]


def concat_programs(first: Program, second: Program, name: str | None = None) -> Program:
    """Sequential composition: run ``first``, then ``second``, on one machine.

    Both programs must have the same ``v`` and ``mu``.  The composed
    program starts from ``first``'s initial contexts; ``second``'s
    ``make_context`` is ignored — its supersteps continue on whatever
    state ``first`` left behind (the usual way to chain phases, e.g. sort
    the keys, then run an FFT over them).  A global synchronization is
    inserted at the seam so ``second`` starts from a barrier, matching
    the semantics of running the two programs back to back.
    """
    if first.v != second.v or first.mu != second.mu:
        raise ValueError(
            f"cannot concatenate programs with different shapes: "
            f"(v={first.v}, mu={first.mu}) vs (v={second.v}, mu={second.mu})"
        )
    seam: list[Superstep] = []
    if not first.ends_with_global_sync():
        seam.append(Superstep(0, DUMMY, name="concat-sync"))
    # column schemas only survive concatenation when both halves agree —
    # otherwise the composed program simply loses the array fast path
    schema = (
        first.array_schema
        if first.array_schema == second.array_schema
        else None
    )
    return Program(
        first.v,
        first.mu,
        list(first.supersteps) + seam + list(second.supersteps),
        make_context=first.make_context,
        name=name or f"{first.name};{second.name}",
        array_schema=schema,
    )


class ProcView:
    """The resources one processor sees during one superstep.

    Engines construct one view per (processor, superstep) execution; the
    view enforces the D-BSP communication discipline (messages stay inside
    the superstep's i-cluster, at most ``mu`` sends per processor) and
    records the local-computation charge and outgoing messages for the
    engine's cost accounting.
    """

    __slots__ = ("pid", "v", "mu", "label", "ctx", "inbox", "outbox", "local_time")

    def __init__(
        self,
        pid: int,
        v: int,
        mu: int,
        label: int,
        ctx: dict,
        inbox: list[Message],
    ):
        self.pid = pid
        self.v = v
        self.mu = mu
        self.label = label
        self.ctx = ctx
        self.inbox = inbox
        self.outbox: list[tuple[int, Message]] = []
        #: local computation time; every executed superstep costs >= 1
        self.local_time: float = 1.0

    def send(self, dest: int, payload: Any = None) -> None:
        """Post a message to ``dest`` (must share this superstep's i-cluster)."""
        if not 0 <= dest < self.v:
            raise ValueError(f"destination {dest} outside [0, {self.v})")
        # i-clusters are aligned power-of-two blocks of size v >> label, so
        # p and q share one iff their pids differ only in the low bits:
        # (p ^ q) < cluster size.  Equivalent to same_cluster(), cheaper.
        if (self.pid ^ dest) >= (self.v >> self.label):
            raise ValueError(
                f"processor {self.pid} cannot reach {dest} in a "
                f"{self.label}-superstep (different {self.label}-clusters)"
            )
        outbox = self.outbox
        if len(outbox) >= self.mu:
            raise ValueError(
                f"processor {self.pid} exceeded its mu={self.mu} outgoing "
                f"message buffer in one superstep"
            )
        outbox.append((dest, Message(self.pid, payload)))

    def charge(self, t: float) -> None:
        """Account ``t`` additional units of local computation."""
        if t < 0:
            raise ValueError(f"cannot charge negative time {t}")
        self.local_time += t

    def received(self) -> Iterable[Any]:
        """Payloads of this superstep's inbox, in sender order."""
        return (msg.payload for msg in self.inbox)
