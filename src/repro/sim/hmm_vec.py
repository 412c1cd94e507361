"""Vectorized execution of the HMM round scheduler (the ``vec`` kernel).

The key observation (the charge-tape contract of the parallel scheduler,
taken to its conclusion): the Figure 1 schedule — which cluster runs in
which round, which context every cycling charge and every swap touches,
the *order* of every elementary ``time +=`` — depends only on the
machine shape and the smoothed label sequence, never on what the
superstep bodies compute.  The access function sets the charges, and
(through smoothing) which label sequence the run has.  So the schedule
is compiled once into a :class:`ChargePlan` cached per shape
``(v, mu, labels)``, and :func:`_price` turns it into charge arrays for
one access function with a gather (memoized on the plan for its most
recent function).  Bodies are run superstep-major (valid because
processor bodies within a superstep are independent — the direct engine
already executes step-major and passes the equivalence suites), and the
charged clock is produced by scattering the priced charge templates, the
bodies' local times and the batched delivery charges into one operand
stream and folding it with a single ``np.cumsum`` — the same fold
:meth:`repro.functions.CostTable.fold_access` uses, which reproduces the
serial ``t += c`` sequence bit-for-bit, including every intermediate
clock value.

Observability is preserved exactly: counters replicate the scalar
``add`` calls (amounts *and* key-creation).  In ``phases`` mode the
per-category span totals are segmented reductions over the folded clock:
every leaf span's cost is a difference of two clock values, and each
category total, round child cost and span self cost is accumulated with
``np.bincount`` in the serial replay order, so the sums (and the ±ulp
self-cost attribution to ``other``) are bit-identical to the scalar
tracer's.  ``full`` mode, which needs a :class:`~repro.obs.trace.SpanRecord`
per span, walks the plan against the folded clock and drives the real
:class:`~repro.obs.trace.Tracer` through the scalar open/leaf/close
sequence.

The same pass also prices the program as the guest: each original
superstep's ``tau`` (max local time) and ``h`` (max messages sent or
received) are read off the arrays the bodies filled, giving the direct
D-BSP time without executing the program a second time.  The pricing
is deferred until a caller asks for it, so runs without a baseline
never pay for it.

Two body-execution modes share all of the above:

* **array mode** — every non-dummy superstep carries an ``array_body``
  and the program declares an ``array_schema``: contexts become column
  arrays, bodies run as whole-machine numpy programs, and message
  delivery is an aligned scatter per send call.  This is the ≥10x path.
* **per-processor mode** — scalar bodies are executed step-major with
  the ordinary :class:`~repro.dbsp.program.ProcView`; charging and
  delivery batching are still vectorized.  Any program runs this way
  (it is also the fallback when a run starts with in-flight messages,
  e.g. the Brent engine's chained fine runs).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import partial

import numpy as np

from repro.dbsp.machine import superstep_cost
from repro.dbsp.program import Message
from repro.obs.counters import NULL_COUNTERS
from repro.obs.trace import OTHER
from repro.sim.kernel import ArrayView, interleave2, ranges_concat

__all__ = ["ChargePlan", "execute_vec", "plan_cache_info"]

_PLAN_CACHE: "OrderedDict[tuple, ChargePlan]" = OrderedDict()
_PLAN_CACHE_MAX = 8
_PLAN_CACHE_HITS = 0
_PLAN_CACHE_MISSES = 0
_PLAN_CACHE_EVICTIONS = 0
#: guards the plan cache, its counters and every plan's ``priced`` memo:
#: service shards run cells inline in concurrent handler threads
_PLAN_LOCK = threading.Lock()


class ChargePlan:
    """The compiled, body-independent part of one HMM simulation run.

    Per round: the superstep simulated, the cluster (``first``/``csize``),
    the length of its fixed charge template (dummy sync, or cycling
    charges with holes for the bodies' local times) and its Step 4 swaps
    as ``(0, b, length)`` slot ranges (``a`` is always the top).  Plus
    the gather/scatter indices and counter constants needed to assemble
    a full run's charge stream without touching the scalar loop.

    A plan holds no charge: it depends on the machine shape and the
    smoothed label sequence only.  :func:`_price` turns it into charge
    arrays for one access function; ``priced`` memoizes the most recent
    ``(f, A_all, C_all, wc)``.
    """

    __slots__ = (
        "v", "mu", "n_steps", "R",
        "step", "first", "csize", "label", "dummy", "max_csize",
        "a_len", "local_pos", "local_src",
        "c_len", "swap_b", "swap_len",
        "rounds_of_step", "csize_of_step",
        "cycle_words", "n_normal_rounds", "n_dummy_rounds",
        "total_context_swaps", "total_swap_words",
        "stream_layout", "phase_layout", "priced",
    )


def _build_plan(v, mu, steps) -> ChargePlan:
    """Replay the Figure 1 scheduler bookkeeping (no bodies, no clock).

    This is a faithful replication of ``_HMMSimRun.execute``'s control
    flow; the Theorem 4 invariants are asserted while building, so every
    run on the plan inherits the ``check_invariants="top"`` guarantee.
    """
    n_steps = len(steps)
    labels = [s.label for s in steps]
    pid_range = list(range(v))
    slot_to_pid = list(range(v))
    next_step = [0] * v
    # one int per round, step * v + first, and per swap, round * v + b
    # (the swap exchanges slot ranges [0, csize) and [b, b + csize));
    # flat int lists convert to arrays far faster than lists of tuples
    rounds: list[int] = []
    swaps: list[int] = []
    add_round = rounds.append
    add_swap = swaps.append

    # per step: cluster size, then for the Step 4 swaps that follow it
    # the sibling count (0: no swaps) and the offset mask of the parent
    # cluster the siblings share
    shape = []
    for s, label in enumerate(labels):
        next_label = labels[s + 1] if s + 1 < n_steps else label
        n_sib = 1 << (label - next_label) if next_label < label else 0
        shape.append((v >> label, n_sib, (v >> next_label) - 1))

    while True:
        top_pid = slot_to_pid[0]
        s = next_step[top_pid]
        if s >= n_steps:
            break
        csize, n_sib, parent_mask = shape[s]
        first = top_pid & -csize
        end = first + csize
        # Theorem 4 invariants, asserted once per (v, mu, labels) shape
        if slot_to_pid[:csize] != pid_range[first:end]:
            raise AssertionError(
                f"Invariant 2 violated at round {len(rounds)}: top slots "
                f"{slot_to_pid[:csize]} != cluster [{first}, {end})"
            )
        if next_step[first:end] != [s] * csize:
            raise AssertionError(
                f"Invariant 1 violated at round {len(rounds)}: cluster "
                f"[{first}, {end}) not {s}-ready"
            )
        r = len(rounds)
        add_round(s * v + first)
        s += 1
        next_step[first:end] = [s] * csize
        if s >= n_steps:
            break  # the top cluster finished the program
        if n_sib:
            # Step 4: swap the top slots [0, csize) with [b, b + csize):
            # C <-> C0 parked at C's home (k = j), then C0 <-> C_{j+1}
            # (k = j + 1), where those exist among the n_sib siblings
            j = (first & parent_mask) // csize
            for k in (j, j + 1):
                if 0 < k < n_sib:
                    b = k * csize
                    add_swap(r * v + b)
                    head = slot_to_pid[:csize]
                    slot_to_pid[:csize] = slot_to_pid[b : b + csize]
                    slot_to_pid[b : b + csize] = head

    plan = ChargePlan()
    plan.v = v
    plan.mu = mu
    plan.n_steps = n_steps
    plan.R = R = len(rounds)
    plan.step, plan.first = np.divmod(np.array(rounds, dtype=np.int64), v)
    plan.label = np.array(labels, dtype=np.int64)[plan.step]
    plan.csize = v >> plan.label
    plan.dummy = np.array(
        [st.body is None for st in steps], dtype=bool
    )[plan.step]
    normal = ~plan.dummy
    plan.max_csize = int(plan.csize[normal].max()) if normal.any() else 1
    # a dummy round charges one operand, a normal one 5 * csize - 4
    plan.a_len = np.where(plan.dummy, 1, 5 * plan.csize - 4)
    swap_round, swap_b = np.divmod(np.array(swaps, dtype=np.int64), v)
    plan.c_len = np.bincount(swap_round, minlength=R)
    index = np.min_scalar_type(v)
    plan.swap_b = swap_b.astype(index)
    plan.swap_len = plan.csize[swap_round].astype(index)
    # the normal rounds simulating each superstep, in round order
    n_round = np.flatnonzero(normal)
    n_step = plan.step[n_round]
    order = np.argsort(n_step, kind="stable")
    uniq, starts = np.unique(n_step[order], return_index=True)
    plan.rounds_of_step = dict(
        zip(uniq.tolist(), np.split(n_round[order], starts[1:]))
    )
    plan.csize_of_step = {s: v >> labels[s] for s in plan.rounds_of_step}
    plan.cycle_words = 4 * mu * int((plan.csize[normal] - 1).sum())
    plan.n_normal_rounds = len(n_round)
    plan.n_dummy_rounds = R - len(n_round)
    plan.total_context_swaps = 2 * int(plan.swap_len.sum(dtype=np.int64))
    plan.total_swap_words = plan.total_context_swaps * mu
    plan.stream_layout = None
    plan.phase_layout = None
    plan.priced = None

    # positions of the local-time holes inside A_all, and the
    # (step * v + pid) source index each hole reads from local_flat
    a_off = np.zeros(plan.R, dtype=np.int64)
    np.cumsum(plan.a_len[:-1], out=a_off[1:])
    n_csize = plan.csize[normal]
    if n_csize.size:
        intra = ranges_concat(np.zeros(len(n_csize), dtype=np.int64), n_csize)
        plan.local_pos = np.repeat(a_off[normal], n_csize) + 5 * intra
        plan.local_src = ranges_concat(
            plan.step[normal] * v + plan.first[normal], n_csize
        )
    else:
        plan.local_pos = np.empty(0, dtype=np.int64)
        plan.local_src = np.empty(0, dtype=np.int64)
    return plan


def _price(plan, block_cost, word_cost, table):
    """The plan's charge arrays under one access function.

    ``A_all`` is one gather from a bank holding the largest normal
    round's template — a hole (``0.0``, overwritten by the local time)
    then ``(bc_k, bc_k, top, top, hole)`` per cycled context ``k`` —
    followed by every dummy round's ``float(csize)``, indexed by label.
    Every smaller template is a prefix of the largest one, so a normal
    round reads the bank from position 0.  ``C_all`` prices every swap
    with :meth:`~repro.functions.CostTable.range_costs`, the batched
    face of the ``range_cost`` sums the scalar swap charges: the same
    floats, added in the same order.
    """
    v = plan.v
    mu = plan.mu
    width = 5 * plan.max_csize - 4
    bank = np.zeros(width + v.bit_length(), dtype=np.float64)
    bc = np.array(block_cost[1 : plan.max_csize], dtype=np.float64)
    bank[1:width:5] = bc
    bank[2:width:5] = bc
    bank[3:width:5] = block_cost[0]
    bank[4:width:5] = block_cost[0]
    bank[width:] = [float(v >> label) for label in range(v.bit_length())]
    a_start = np.where(plan.dummy, width + plan.label, 0)
    A_all = bank[ranges_concat(a_start, plan.a_len)]

    length = plan.swap_len.astype(np.int64) * mu
    b = plan.swap_b.astype(np.int64) * mu
    C_all = 2.0 * (
        table.range_costs(0, length) + table.range_costs(b, b + length)
    )
    return A_all, C_all, np.array(word_cost, dtype=np.float64)


def _plan_for(run) -> ChargePlan:
    global _PLAN_CACHE_HITS, _PLAN_CACHE_MISSES, _PLAN_CACHE_EVICTIONS
    sig = (run.v, run.mu, tuple((s.label, s.body is None) for s in run.steps))
    with _PLAN_LOCK:
        plan = _PLAN_CACHE.get(sig)
        if plan is not None:
            _PLAN_CACHE_HITS += 1
            _PLAN_CACHE.move_to_end(sig)
            return plan
        _PLAN_CACHE_MISSES += 1
    # built outside the lock; a concurrent build of the same shape just
    # replaces an equal plan
    plan = _build_plan(run.v, run.mu, run.steps)
    with _PLAN_LOCK:
        _PLAN_CACHE[sig] = plan
        _PLAN_CACHE.move_to_end(sig)
        while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
            _PLAN_CACHE_EVICTIONS += 1
    return plan


def _priced_for(run, plan) -> tuple:
    """``(A_all, C_all, wc)`` for the run's access function, through the
    plan's one-entry memo (replaced whole, never mutated in place)."""
    f = run.sim.f
    with _PLAN_LOCK:
        priced = plan.priced
    if priced is None or priced[0] != f:
        priced = (f, *_price(
            plan, run._block_cost, run._slot_word_cost, run.machine.table
        ))
        with _PLAN_LOCK:
            plan.priced = priced
    return priced[1:]


def plan_cache_info() -> dict:
    """Introspection hook for tests and ``/v1/metrics``: cached plan
    count plus lifetime hit/miss/eviction counters (process-wide)."""
    with _PLAN_LOCK:
        return {
            "size": len(_PLAN_CACHE),
            "max": _PLAN_CACHE_MAX,
            "hits": _PLAN_CACHE_HITS,
            "misses": _PLAN_CACHE_MISSES,
            "evictions": _PLAN_CACHE_EVICTIONS,
        }


# --------------------------------------------------------------- bodies
def _array_mode_ok(run) -> bool:
    program = run.program
    if program.array_schema is None:
        return False
    if any(
        s.array_body is None for s in run.steps if s.body is not None
    ):
        return False
    # a run that starts with in-flight messages (Brent's chained fine
    # runs) would need list->array inbox bridging; take the scalar-body
    # path instead
    return all(not box for box in run.pending)


def _inboxes(v, pids, sends) -> list:
    """One aligned ``(src, payload)`` inbox pair per send call."""
    out = []
    for dest, payload, where in sends:
        src = pids
        if where is not None:
            src, dest, payload = pids[where], dest[where], payload[where]
        in_src = np.full(v, -1, dtype=np.int64)
        in_src[dest] = src
        in_payload = np.zeros(v, dtype=payload.dtype)
        in_payload[dest] = payload
        out.append((in_src, in_payload))
    return out


def _outbox(pids, sends) -> tuple[np.ndarray, np.ndarray]:
    """A step's ``(src, dest)`` in scalar outbox order: pid-major, then
    call order, masked lanes dropped."""
    if len(sends) == 1:
        dest, _, where = sends[0]
        if where is None:
            return pids, dest
        return pids[where], dest[where]
    dest = np.stack([d for d, _, _ in sends], axis=1).ravel()
    src = np.repeat(pids, len(sends))
    if any(w is not None for _, _, w in sends):
        keep = np.stack(
            [np.ones(len(pids), dtype=bool) if w is None else w
             for _, _, w in sends],
            axis=1,
        ).ravel()
        return src[keep], dest[keep]
    return src, dest


def _run_bodies_array(run, local_flat, step_src, step_dest):
    """Array mode: column contexts, one ``array_body`` call per step."""
    v = run.v
    steps = run.steps
    schema = run.program.array_schema
    contexts = run.contexts
    cols = {
        name: np.array([ctx[name] for ctx in contexts], dtype=dt)
        for name, dt in schema.items()
    }
    pids = np.arange(v, dtype=np.int64)
    unconsumed = None  # the last body step's sends, not yet delivered
    for s, st in enumerate(steps):
        if st.body is None:
            continue
        inboxes = _inboxes(v, pids, unconsumed) if unconsumed else []
        in_src, in_payload = inboxes[0] if len(inboxes) == 1 else (None, None)
        unconsumed = None
        view = ArrayView(
            pids, v, run.mu, st.label, cols, in_src, in_payload, inboxes
        )
        st.array_body(view)
        local_flat[s * v : (s + 1) * v] = view.local_time
        if view._sends:
            unconsumed = view._sends
            step_src[s], step_dest[s] = _outbox(pids, unconsumed)

    # write columns back into the per-processor dicts (native scalars,
    # exactly what the scalar bodies would have stored)
    for name, col in cols.items():
        values = col.tolist()
        for pid in range(v):
            contexts[pid][name] = values[pid]
    if unconsumed is not None:
        # the program ended with undelivered-to-a-body messages (its
        # trailing steps were dummies): file them into inboxes sorted by
        # sender, equal senders in call order
        msgs = []
        for call, (dest, payload, where) in enumerate(unconsumed):
            src = pids
            if where is not None:
                src, dest, payload = pids[where], dest[where], payload[where]
            msgs.extend(zip(
                dest.tolist(), src.tolist(), [call] * len(src),
                payload.tolist(),
            ))
        msgs.sort(key=lambda m: m[:3])
        pending = run.pending
        for d, sp, _, pp in msgs:
            pending[d].append(Message(sp, pp))


def _run_bodies_scalar(run, local_flat, step_src, step_dest):
    """Per-processor mode: scalar bodies, step-major, batched delivery."""
    v = run.v
    steps = run.steps
    contexts = run.contexts
    pending = run.pending
    view = run._view
    outbox = view.outbox
    clear = outbox.clear
    for s, st in enumerate(steps):
        if st.body is None:
            continue
        body = st.body
        view.label = st.label
        base = s * v
        src_list: list[int] = []
        dest_list: list[int] = []
        deliveries: list[tuple[int, Message]] = []
        for pid in range(v):
            view.pid = pid
            view.ctx = contexts[pid]
            view.inbox = pending[pid]
            pending[pid] = []
            view.local_time = 1.0
            body(view)
            local_flat[base + pid] = view.local_time
            if outbox:
                for dest, msg in outbox:
                    src_list.append(msg.src)
                    dest_list.append(dest)
                    deliveries.append((dest, msg))
                clear()
        # deliveries are pid-major, so appending keeps every inbox
        # sorted by sender — the invariant insort maintains serially
        for dest, msg in deliveries:
            pending[dest].append(msg)
        if src_list:
            step_src[s] = np.array(src_list, dtype=np.int64)
            step_dest[s] = np.array(dest_list, dtype=np.int64)


# ------------------------------------------------------------- assembly
def _delivery_stream(plan, wc, step_src, step_dest):
    """Per-round delivery charges, in round order.

    Step-major send arrays are charged in one vectorized pass per step
    (``wc[src & (csize-1)]`` — the top slots hold the cluster sorted by
    pid at delivery time, so a message endpoint's slot is just its pid
    offset within the cluster), then gathered into round order: each
    round's messages are a contiguous pid-range slice of its step's
    pid-major arrays.
    """
    R = plan.R
    b_len = np.zeros(R, dtype=np.int64)
    b_start = np.zeros(R, dtype=np.int64)
    parts: list[np.ndarray] = []
    base = 0
    for s, rounds_idx in plan.rounds_of_step.items():
        src = step_src[s]
        if src is None:
            continue
        dest = step_dest[s]
        csize = plan.csize_of_step[s]
        mask = csize - 1
        inter = interleave2(wc[src & mask], wc[dest & mask])
        firsts = plan.first[rounds_idx]
        lo = np.searchsorted(src, firsts)
        hi = np.searchsorted(src, firsts + csize)
        b_len[rounds_idx] = 2 * (hi - lo)
        b_start[rounds_idx] = base + 2 * lo
        parts.append(inter)
        base += len(inter)
    if not parts:
        return np.empty(0, dtype=np.float64), b_len
    inter_concat = np.concatenate(parts)
    return inter_concat[ranges_concat(b_start, b_len)], b_len


def _assemble_stream(plan, priced, local_flat, step_src, step_dest):
    """Scatter charge templates, local times and delivery charges into
    the one operand stream the scalar engine folds serially.

    The scatter indices depend on the plan and on ``b_len`` only — and
    repeated runs of the same program deliver the same per-round message
    counts — so they are cached on the plan (one entry, keyed by the
    ``b_len`` bytes and replaced whole; a different delivery pattern
    just rebuilds).  The cache turns assembly from three index
    constructions plus a template copy into three fancy-index writes.
    """
    A_all, C_all, wc = priced
    B, b_len = _delivery_stream(plan, wc, step_src, step_dest)
    key = b_len.tobytes()
    layout = plan.stream_layout
    if layout is not None and layout[0] == key:
        cached = layout[1]
    else:
        r_len = plan.a_len + b_len + plan.c_len
        off = np.zeros(plan.R + 1, dtype=np.int64)
        np.cumsum(r_len, out=off[1:])
        a_idx = ranges_concat(off[:-1], plan.a_len)
        b_idx = ranges_concat(off[:-1] + plan.a_len, b_len)
        c_idx = ranges_concat(off[:-1] + plan.a_len + b_len, plan.c_len)
        local_idx = a_idx[plan.local_pos]
        cached = (off, a_idx, b_idx, c_idx, local_idx)
        plan.stream_layout = (key, cached)
    off, a_idx, b_idx, c_idx, local_idx = cached
    # one extra slot up front: the caller seeds it with the machine
    # clock and cumsums in place, so the stream never has to be copied
    # into a separate fold buffer
    buf = np.empty(off[-1] + 1, dtype=np.float64)
    stream = buf[1:]
    stream[a_idx] = A_all
    if local_idx.size:
        stream[local_idx] = local_flat[plan.local_src]
    if B.size:
        stream[b_idx] = B
    if C_all.size:
        stream[c_idx] = C_all
    return buf, off, b_len


# ----------------------------------------------------------- observability
def _add_counters(run, plan, b_len) -> None:
    counters = run.counters
    if counters is NULL_COUNTERS:
        return
    # same totals and same key-creation as the scalar adds: delivery
    # creates words_touched/messages on every normal round (amount may
    # be zero), swaps create their keys whenever at least one happens
    if plan.n_normal_rounds:
        total_msgs = int(b_len.sum()) // 2
        counters.add("words_touched", plan.cycle_words + 2 * total_msgs)
        counters.add("messages", total_msgs)
    if plan.total_context_swaps:
        counters.add("context_swaps", plan.total_context_swaps)
        counters.add("words_touched", plan.total_swap_words)
        counters.add("words_moved", plan.total_swap_words)
    if plan.n_dummy_rounds:
        counters.add("dummy_supersteps", plan.n_dummy_rounds)


# bins of the phase reduction: the five HMM phases, the round spans'
# ``other`` self cost, and a sink for swap leaves (summed via _SWAPS)
_LOCAL, _CYCLING, _DELIVERY, _DUMMIES, _SWAPS, _OTHER, _SWAP_LEAF = range(7)
_BIN_KEYS = ("local", "cycling", "delivery", "dummies", "swaps", OTHER)


class _PhaseLayout:
    """The span tree of a plan's ``phases`` trace, as flat arrays.

    Every round is a root span whose children are leaf spans that tile
    its slice of the operand stream: ``local`` / ``cycle-context`` in
    alternation (or one ``dummy``), one ``delivery`` (possibly empty),
    then the ``swap`` leaves, which sit inside a ``cycle-swaps`` span.
    Only the delivery lengths depend on the bodies; everything here is
    fixed by the plan and built once, on the first ``phases`` run.
    """

    __slots__ = (
        "leaf_len", "deliv_leaf", "normal_round", "child_round",
        "sw_leaf", "sw_group", "sr_round", "sr_first", "sr_end",
        "sw_seq", "sr_seq", "bins", "counts",
    )


def _phase_layout(plan) -> _PhaseLayout:
    lay = plan.phase_layout
    if lay is not None:
        return lay
    R = plan.R
    dummy = plan.dummy
    normal = ~dummy
    c_len = plan.c_len
    n_a = np.where(dummy, 1, 2 * plan.csize - 1)
    n_leaf = n_a + normal + c_len
    rnd = np.repeat(np.arange(R, dtype=np.int64), n_leaf)
    pos = np.arange(len(rnd), dtype=np.int64) - np.repeat(
        np.cumsum(n_leaf) - n_leaf, n_leaf
    )
    pos_a = pos < n_a[rnd]
    deliv = normal[rnd] & (pos == n_a[rnd])
    cat = np.full(len(rnd), _SWAP_LEAF, dtype=np.int64)
    # A region: local at even positions, cycle-context at odd ones
    cat[pos_a] = np.where(dummy[rnd[pos_a]], _DUMMIES, pos[pos_a] & 1)
    cat[deliv] = _DELIVERY
    swap = cat == _SWAP_LEAF

    # the per-leaf arrays stay resident with the plan: narrow dtypes
    lay = _PhaseLayout()
    lay.leaf_len = np.where(cat == _CYCLING, 4, 1).astype(np.int8)
    lay.leaf_len[deliv] = 0  # filled per run from the delivery counts
    lay.deliv_leaf = np.flatnonzero(deliv)
    lay.normal_round = np.flatnonzero(normal)
    # swap leaves are children of their cycle-swaps span, not the round
    lay.child_round = np.where(swap, R, rnd).astype(np.int32)
    lay.sw_leaf = np.flatnonzero(swap)
    lay.sr_round = np.flatnonzero(c_len)
    per = c_len[lay.sr_round]
    lay.sw_group = np.repeat(np.arange(len(per), dtype=np.int64), per)
    grp = np.cumsum(per) - per
    lay.sr_first = lay.sw_leaf[grp]
    lay.sr_end = lay.sw_leaf[grp + per - 1] + 1
    # the swaps total takes each round's swap leaves, then its span's
    # self cost: positions of both in that order
    seq = np.cumsum(per + 1) - (per + 1)
    lay.sr_seq = seq + per
    lay.sw_seq = np.repeat(seq - grp, per) + np.arange(
        len(lay.sw_leaf), dtype=np.int64
    )
    lay.bins = np.concatenate((
        cat,
        np.full(len(lay.sw_leaf) + len(per), _SWAPS),
        np.full(R, _OTHER),
    )).astype(np.int8)
    lay.counts = np.bincount(lay.bins, minlength=7)[:6].tolist()
    plan.phase_layout = lay
    return lay


def _attribute_phases(run, plan, buf, off, b_len) -> None:
    """Fill the tracer's per-category totals and counts from the clock.

    Bit-identical to replaying every span through the tracer: a leaf's
    cost is ``clk[end] - clk[start]`` either way, and ``np.bincount``
    adds each bin's weights one after another in input order, starting
    from ``0.0`` — the tracer's ``totals[cat] += cost`` sequence.  So the
    inputs are laid out in replay order per bin, and the pairwise
    ``np.sum`` is never used.
    """
    lay = _phase_layout(plan)
    lens = lay.leaf_len.astype(np.int64)
    lens[lay.deliv_leaf] = b_len[lay.normal_round]
    bnd = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=bnd[1:])
    leaf_clk = buf[bnd]
    cost = leaf_clk[1:] - leaf_clk[:-1]

    sw_cost = cost[lay.sw_leaf]
    span = buf[bnd[lay.sr_end]] - buf[bnd[lay.sr_first]]
    span_self = span - np.bincount(
        lay.sw_group, weights=sw_cost, minlength=len(span)
    )
    swaps = np.empty(len(sw_cost) + len(span), dtype=np.float64)
    swaps[lay.sw_seq] = sw_cost
    swaps[lay.sr_seq] = span_self

    # a round's children: its leaves in order, then its cycle-swaps span
    child = np.bincount(lay.child_round, weights=cost, minlength=plan.R + 1)
    child = child[: plan.R]
    child[lay.sr_round] += span
    round_clk = buf[off]
    round_self = (round_clk[1:] - round_clk[:-1]) - child

    totals = np.bincount(
        lay.bins,
        weights=np.concatenate((cost, swaps, round_self)),
        minlength=7,
    ).tolist()
    tracer = run.tracer
    for key, total, count in zip(_BIN_KEYS, totals, lay.counts):
        if count:
            tracer.totals[key] = total
            tracer.counts[key] = count


def _guest_time(
    smoothed, labels, g, local_flat, step_src, step_dest
) -> float | None:
    """The direct D-BSP time of the program, from one pass's arrays.

    Sums :func:`~repro.dbsp.machine.superstep_cost` over the original
    supersteps in order (inserted dummies skipped, original labels, each
    original dummy at ``tau = 1``, ``h = 0``) — the direct machine's
    ``total`` fold.  ``None`` when a step breaks a rule the direct
    machine enforces (more than ``mu`` messages into one processor, or a
    message leaving the original label's cluster), so the caller runs
    the direct machine and reports its error.
    """
    program = smoothed.program
    v = program.v
    mu = program.mu
    steps = program.supersteps
    total = 0.0
    for s, o in enumerate(smoothed.origin):
        if o is None:
            continue
        label = labels[o]
        tau = 1.0
        h = 0
        if steps[s].body is not None:
            tau = max(tau, float(local_flat[s * v : (s + 1) * v].max()))
            src = step_src[s]
            if src is not None:
                dest = step_dest[s]
                recv = int(np.bincount(dest).max())
                if recv > mu or np.any((src ^ dest) >= (v >> label)):
                    return None
                h = max(int(np.bincount(src).max()), recv)
        total += superstep_cost(g, mu, v, label, tau, h)
    return total


def _walk_tracer(run, plan, clk, off, b_len) -> None:
    """Drive the real tracer through the scalar call sequence.

    ``clk[i]`` is the charged clock after the first ``i`` elementary
    operands — every value the serial run's ``machine.time`` ever takes,
    reproduced by the cumsum fold.  ``open``/``close`` sample the clock
    through ``machine.time``, so it is positioned before each call
    exactly where the scalar engine would have it.
    """
    tracer = run.tracer
    machine = run.machine
    record = tracer.record
    steps = run.steps
    off_l = off.tolist()
    b_l = b_len.tolist()
    c_l = plan.c_len.tolist()
    dummy_l = plan.dummy.tolist()
    csize_l = plan.csize.tolist()
    add_leaf = tracer.add_leaf
    for r in range(plan.R):
        i = off_l[r]
        machine.time = clk[i]
        if record:
            s = int(plan.step[r])
            csize = csize_l[r]
            first = int(plan.first[r])
            tracer.open(
                "round",
                None,
                {
                    "superstep": s,
                    "label": steps[s].label,
                    "cluster": first // csize,
                },
            )
        else:
            tracer.open("round", None, None)
        if dummy_l[r]:
            add_leaf("dummy", "dummies", clk[i], clk[i + 1])
            i += 1
        else:
            csize = csize_l[r]
            add_leaf("local", "local", clk[i], clk[i + 1])
            i += 1
            for _ in range(csize - 1):
                add_leaf("cycle-context", "cycling", clk[i], clk[i + 4])
                i += 4
                add_leaf("local", "local", clk[i], clk[i + 1])
                i += 1
            nb = b_l[r]
            add_leaf("delivery", "delivery", clk[i], clk[i + nb])
            i += nb
        n_swaps = c_l[r]
        if n_swaps:
            machine.time = clk[i]
            tracer.open("cycle-swaps", "swaps")
            for _ in range(n_swaps):
                add_leaf("swap", "swaps", clk[i], clk[i + 1])
                i += 1
            machine.time = clk[i]
            tracer.close()
        machine.time = clk[i]
        tracer.close()


# ------------------------------------------------------------------ entry
def execute_vec(run) -> None:
    """Vectorized replacement for ``_HMMSimRun._execute_scalar()``.

    Only full runs are dispatched here (the parallel driver's serial
    bursts use the scalar path; worker processes, which each run their
    whole sub-program, land here with a :class:`FlatTape` attached).
    """
    assert run.round_index == 0, "vec kernel only executes full runs"
    plan = _plan_for(run)
    v = run.v

    local_flat = np.empty(plan.n_steps * v, dtype=np.float64)
    step_src: list = [None] * plan.n_steps
    step_dest: list = [None] * plan.n_steps
    if _array_mode_ok(run):
        _run_bodies_array(run, local_flat, step_src, step_dest)
    else:
        _run_bodies_scalar(run, local_flat, step_src, step_dest)

    if run.guest_labels is not None:
        run.price_guest = partial(
            _guest_time, run.smoothed, run.guest_labels, run.sim.f,
            local_flat, step_src, step_dest,
        )

    buf, off, b_len = _assemble_stream(
        plan, _priced_for(run, plan), local_flat, step_src, step_dest
    )
    if run.tape_rec is not None:
        run.tape_rec.charges.frombytes(buf[1:].tobytes())
    _add_counters(run, plan, b_len)

    machine = run.machine
    buf[0] = machine.time
    np.cumsum(buf, out=buf)
    if run.tracer.record:
        _walk_tracer(run, plan, buf.tolist(), off, b_len)
    elif run.tracer.enabled:
        _attribute_phases(run, plan, buf, off, b_len)
    machine.time = float(buf[-1])
    run.round_index = plan.R
