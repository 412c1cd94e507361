"""Array primitives shared by the vectorized simulation kernel.

The scalar engines interleave *scheduling* (which cluster runs when,
what every elementary ``time +=`` charges) with *execution* (running
superstep bodies, moving messages).  The vectorized kernel
(:mod:`repro.sim.hmm_vec`) splits the two: scheduling is compiled once
into a :class:`~repro.sim.hmm_vec.ChargePlan` and execution becomes a
handful of array operations.  This module holds the execution-side
primitives:

* :class:`ArrayView` — the whole-machine counterpart of
  :class:`~repro.dbsp.program.ProcView`, handed to
  ``Superstep.array_body`` over column-store contexts;
* :func:`ranges_concat` — concatenated ``arange`` ranges (the
  gather/scatter index builder for assembling charge streams);
* :func:`interleave2` — pairwise interleaving of two equal-length
  arrays (the ``src``/``dst`` charge pattern of message delivery);
* :func:`deliver_sorted` — batched replacement for per-message
  ``bisect.insort`` delivery loops (used by the BT and Brent engines),
  bit-identical in the resulting inbox order.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.dbsp.program import Message

__all__ = [
    "ArrayView",
    "GlobalizedArrayView",
    "ranges_concat",
    "interleave2",
    "deliver_sorted",
]

#: below this many messages the numpy fixed cost exceeds the insort loop
_DELIVER_BATCH_MIN = 16


class ArrayView:
    """The resources a whole cluster sees during one superstep.

    The array counterpart of :class:`~repro.dbsp.program.ProcView`: one
    view per superstep execution, covering every processor at once.
    ``ctx`` maps context field names to length-``n`` column arrays
    (``n == len(pids)``).  ``inboxes`` holds one aligned
    ``(src, payload)`` pair of length-``n`` arrays per :meth:`send` call
    of the previous body step, in call order: position ``k`` of pair
    ``j`` is the message that call ``j`` delivered to ``pids[k]``
    (``src[k] == -1`` when it delivered none).  ``inbox_src`` /
    ``inbox_payload`` are the one pair when that step made exactly one
    send call, and ``None`` otherwise.

    Contract for ``array_body`` authors: the body must be semantically
    identical to running the scalar ``body`` once per processor — same
    context updates, same messages, same ``charge`` calls.  Each
    :meth:`send` call posts at most one message per processor, and the
    processors selected by its ``where`` mask (all of them by default)
    must name distinct destinations.  The kernel keeps the scalar
    outbox order: pid-major, then call order.  The equivalence suites
    enforce the contract for the built-in algorithm library.
    """

    __slots__ = (
        "pids",
        "v",
        "mu",
        "label",
        "ctx",
        "inbox_src",
        "inbox_payload",
        "inboxes",
        "local_time",
        "_sends",
    )

    def __init__(
        self,
        pids: np.ndarray,
        v: int,
        mu: int,
        label: int,
        ctx: dict[str, np.ndarray],
        inbox_src: np.ndarray | None,
        inbox_payload: np.ndarray | None,
        inboxes: list[tuple[np.ndarray, np.ndarray]] | None = None,
    ):
        self.pids = pids
        self.v = v
        self.mu = mu
        self.label = label
        self.ctx = ctx
        self.inbox_src = inbox_src
        self.inbox_payload = inbox_payload
        if inboxes is None:
            inboxes = [] if inbox_src is None else [(inbox_src, inbox_payload)]
        self.inboxes = inboxes
        #: per-processor local computation time; every superstep costs >= 1
        self.local_time = np.ones(len(pids), dtype=np.float64)
        #: one ``(dest, payload, where)`` per send call, full-width
        self._sends: list[tuple[np.ndarray, np.ndarray, Any]] = []

    def send(self, dest: np.ndarray, payload: Any, where: Any = None) -> None:
        """Post one message per processor (``dest[k]`` from ``pids[k]``).

        ``dest`` and ``payload`` are full-width; with a boolean ``where``
        mask only the selected processors send (the others' ``dest`` and
        ``payload`` lanes are ignored).  The checks are
        :meth:`ProcView.send`'s, over the selected lanes: destination
        range, the label's cluster boundary and the ``mu`` buffer — plus
        at most one message per destination in one call.
        """
        pids = self.pids
        dest = np.asarray(dest)
        if dest.shape != pids.shape:
            raise ValueError(
                f"send is full-width: expected {pids.shape} "
                f"destinations, got {dest.shape}"
            )
        payload = np.asarray(payload)
        if payload.shape != pids.shape:
            payload = np.broadcast_to(payload, pids.shape)
        d, p = dest, pids
        if where is not None:
            where = np.asarray(where, dtype=bool)
            if where.shape != pids.shape:
                raise ValueError(
                    f"send mask is full-width: expected {pids.shape}, "
                    f"got {where.shape}"
                )
            d, p = dest[where], pids[where]
        if d.size:
            counts = np.bincount(d) if d.min() >= 0 else None
            if counts is None or len(counts) > self.v:
                raise ValueError(f"destination outside [0, {self.v})")
            # same aligned-cluster check as ProcView.send, over the batch
            if ((p ^ d) >= (self.v >> self.label)).any():
                raise ValueError(
                    f"send crosses a {self.label}-cluster boundary"
                )
            if counts.max() > 1:
                raise ValueError(
                    "send names one destination twice: an aligned array "
                    "inbox holds one message per send call"
                )
        sends = self._sends
        if len(sends) >= self.mu:
            # per-processor buffer count, as ProcView counts its outbox
            sent = np.ones(len(pids), dtype=np.int64) if where is None else (
                where.astype(np.int64)
            )
            for _, _, w in sends:
                sent += 1 if w is None else w
            if sent.max() > self.mu:
                raise ValueError(
                    f"exceeded the mu={self.mu} outgoing message buffer "
                    f"in one superstep"
                )
        sends.append((dest, payload, where))

    def charge(self, t: Any) -> None:
        """Account ``t`` additional units of local computation.

        ``t`` may be a scalar (uniform across the cluster) or a
        per-processor array.
        """
        if isinstance(t, (int, float)):
            negative = t < 0
        else:
            negative = (np.asarray(t) < 0).any()
        if negative:
            raise ValueError(f"cannot charge negative time {t!r}")
        self.local_time += t


def _globalize(src: np.ndarray, offset: int) -> np.ndarray:
    """Shift inbox senders by ``offset``, keeping ``-1`` (no message)."""
    return np.where(src >= 0, src + offset, -1)


class GlobalizedArrayView:
    """Present global pids to an array body running on a sub-machine.

    The array analog of :class:`repro.sim.brent._GlobalizedView`: worker
    processes simulate a pid slice ``offset .. offset + v_sub`` as local
    pids ``0 .. v_sub``, while program bodies index processors globally.
    Sends are translated back to local coordinates; the underlying
    view's cluster check still applies (cluster widths agree because the
    label is shifted by the same amount as the machine is narrowed).
    """

    __slots__ = ("_view", "_offset", "pids", "v", "mu", "label", "ctx",
                 "inbox_src", "inbox_payload", "inboxes")

    def __init__(self, view: ArrayView, offset: int, v_global: int,
                 label_shift: int = 0):
        self._view = view
        self._offset = offset
        self.pids = view.pids + offset
        self.v = v_global
        self.mu = view.mu
        self.label = view.label + label_shift
        self.ctx = view.ctx
        self.inbox_src = (
            _globalize(view.inbox_src, offset)
            if view.inbox_src is not None else None
        )
        self.inbox_payload = view.inbox_payload
        self.inboxes = [
            (_globalize(src, offset), payload) for src, payload in view.inboxes
        ]

    def send(self, dest, payload, where=None) -> None:
        self._view.send(np.asarray(dest) - self._offset, payload, where)

    def charge(self, t) -> None:
        self._view.charge(t)


def ranges_concat(starts, lengths) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``.

    The standard repeat/cumsum construction — no Python loop, zero-length
    groups allowed.  This is how the kernel scatters per-round charge
    segments into one stream and gathers per-round delivery slices out
    of step-major arrays.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    keep = lengths > 0
    if not keep.all():
        starts = starts[keep]
        lengths = lengths[keep]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    out = np.ones(ends[-1], dtype=np.int64)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - starts[:-1] - lengths[:-1] + 1
    return np.cumsum(out)


def interleave2(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Interleave two equal-length arrays: ``[e0, o0, e1, o1, ...]``."""
    out = np.empty(2 * len(even), dtype=np.float64)
    out[0::2] = even
    out[1::2] = odd
    return out


def deliver_sorted(
    pending: list[list[Message]], outgoing: list[tuple[int, Message]]
) -> None:
    """Deliver ``(dest, msg)`` pairs into per-pid sorted inboxes, batched.

    Bit-identical replacement for the per-message loop

    .. code-block:: python

        for dest, msg in outgoing:
            insort(pending[dest], msg)

    Messages compare by ``src`` only, and both ``insort_right`` and a
    stable sort resolve equal-``src`` ties to insertion order, so
    grouping the batch with one stable ``np.lexsort`` over
    ``(src, dest)`` and splicing per destination reproduces exactly the
    inboxes the scalar loop builds — in O(m log m) array work instead of
    m bisections and list shifts.
    """
    m = len(outgoing)
    if m < _DELIVER_BATCH_MIN:
        from bisect import insort

        for dest, msg in outgoing:
            insort(pending[dest], msg)
        return
    dests = np.fromiter(
        (d for d, _ in outgoing), dtype=np.int64, count=m
    )
    srcs = np.fromiter(
        (msg.src for _, msg in outgoing), dtype=np.int64, count=m
    )
    # stable: equal (dest, src) pairs keep batch order, like insort_right
    order = np.lexsort((srcs, dests))
    d_sorted = dests[order]
    uniq, starts = np.unique(d_sorted, return_index=True)
    starts = starts.tolist()
    starts.append(m)
    order = order.tolist()
    for i, dest in enumerate(uniq.tolist()):
        batch = [outgoing[k][1] for k in order[starts[i] : starts[i + 1]]]
        box = pending[dest]
        if box:
            # rare path: the inbox already holds messages — splice and
            # re-sort (stable, so existing-before-new on equal src, the
            # insort_right tie order)
            box.extend(batch)
            box.sort()
        else:
            pending[dest] = batch
