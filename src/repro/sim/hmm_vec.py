"""Vectorized execution of the HMM round scheduler (the ``vec`` kernel).

The key observation (the charge-tape contract of the parallel scheduler,
taken to its conclusion): for a fixed access function and machine shape,
the Figure 1 schedule — which cluster runs in which round, every context
cycling charge, every swap charge, the *order* of every elementary
``time +=`` — depends only on the smoothed label sequence, never on what
the superstep bodies compute.  So the schedule is compiled once into a
:class:`ChargePlan` (cached per ``(f, v, mu, labels)``), bodies are run
superstep-major (valid because processor bodies within a superstep are
independent — the direct engine already executes step-major and passes
the equivalence suites), and the charged clock is produced by scattering
the plan's charge templates, the bodies' local times and the batched
delivery charges into one operand stream and folding it with a single
``np.cumsum`` — the same fold :meth:`repro.functions.CostTable.fold_access`
uses, which reproduces the serial ``t += c`` sequence bit-for-bit,
including every intermediate clock value.

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
  delivery is an aligned scatter.  This is the ≥10x path.
* **per-processor mode** — scalar bodies are executed step-major with
  the ordinary :class:`~repro.dbsp.program.ProcView`; charging and
  delivery batching are still vectorized.  Any program runs this way
  (it is also the fallback when a run starts with in-flight messages,
  e.g. the Brent engine's chained fine runs).
"""

from __future__ import annotations

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


class ChargePlan:
    """The compiled, body-independent part of one HMM simulation run.

    Per round: the superstep simulated, the cluster (``first``/``csize``),
    the fixed charge template (dummy sync or cycling charges with holes
    for the bodies' local times) and the Step 4 swap charges.  Plus the
    gather/scatter indices and counter constants needed to assemble a
    full run's charge stream without touching the scalar loop.
    """

    __slots__ = (
        "v", "mu", "n_steps", "R",
        "step", "first", "csize", "label", "dummy",
        "a_len", "A_all", "local_pos", "local_src",
        "c_len", "C_all",
        "b_starts_cache",
        "rounds_of_step", "csize_of_step",
        "wc",
        "cycle_words", "n_normal_rounds", "n_dummy_rounds",
        "total_context_swaps", "total_swap_words",
        "phase_layout",
    )


def _build_plan(v, mu, steps, block_cost, word_cost, table) -> ChargePlan:
    """Replay the Figure 1 scheduler bookkeeping (no bodies, no clock).

    This is a faithful replication of ``_HMMSimRun.execute``'s control
    flow; the Theorem 4 invariants are asserted while building, so every
    run on the plan inherits the ``check_invariants="top"`` guarantee.
    """
    n_steps = len(steps)
    labels = [s.label for s in steps]
    dummy_step = [s.body is None for s in steps]
    slot_to_pid = list(range(v))
    next_step = [0] * v

    r_step: list[int] = []
    r_first: list[int] = []
    r_csize: list[int] = []
    r_label: list[int] = []
    r_dummy: list[bool] = []
    c_len: list[int] = []
    a_parts: list[np.ndarray] = []
    a_len: list[int] = []
    swap_charges: list[float] = []
    rounds_of_step: dict[int, list[int]] = {}

    cycle_words = 0
    n_dummy_rounds = 0
    total_context_swaps = 0
    total_swap_words = 0

    top_cost = block_cost[0]
    # per-csize charge template for a normal round: a hole for the k=0
    # local time, then (bc_k, bc_k, top, top, hole) per cycled context
    templates: dict[int, np.ndarray] = {}

    def template_for(csize: int) -> np.ndarray:
        tpl = templates.get(csize)
        if tpl is None:
            tpl = np.zeros(5 * csize - 4, dtype=np.float64)
            for k in range(1, csize):
                bc = block_cost[k]
                base = 5 * k - 4
                tpl[base] = bc
                tpl[base + 1] = bc
                tpl[base + 2] = top_cost
                tpl[base + 3] = top_cost
            templates[csize] = tpl
        return tpl

    def do_swap(a: int, b: int, length: int) -> None:
        nonlocal total_context_swaps, total_swap_words
        charge = 2.0 * (
            table.range_cost(a * mu, (a + length) * mu)
            + table.range_cost(b * mu, (b + length) * mu)
        )
        swap_charges.append(charge)
        total_context_swaps += 2 * length
        total_swap_words += 2 * length * mu
        pids_a = slot_to_pid[a : a + length]
        slot_to_pid[a : a + length] = slot_to_pid[b : b + length]
        slot_to_pid[b : b + length] = pids_a

    while True:
        top_pid = slot_to_pid[0]
        s = next_step[top_pid]
        if s >= n_steps:
            break
        label = labels[s]
        csize = v >> label
        first = top_pid & -csize
        # Theorem 4 invariants, asserted once per (f, v, mu, labels)
        if slot_to_pid[:csize] != list(range(first, first + csize)):
            raise AssertionError(
                f"Invariant 2 violated at round {len(r_step)}: top slots "
                f"{slot_to_pid[:csize]} != cluster [{first}, {first + csize})"
            )
        if next_step[first : first + csize] != [s] * csize:
            raise AssertionError(
                f"Invariant 1 violated at round {len(r_step)}: cluster "
                f"[{first}, {first + csize}) not {s}-ready"
            )
        r = len(r_step)
        r_step.append(s)
        r_first.append(first)
        r_csize.append(csize)
        r_label.append(label)
        if dummy_step[s]:
            r_dummy.append(True)
            a_parts.append(np.array([float(csize)]))
            a_len.append(1)
            n_dummy_rounds += 1
        else:
            r_dummy.append(False)
            tpl = template_for(csize)
            a_parts.append(tpl)
            a_len.append(len(tpl))
            cycle_words += 4 * mu * (csize - 1)
            rounds_of_step.setdefault(s, []).append(r)
        for pid in range(first, first + csize):
            next_step[pid] += 1

        n_swaps_before = len(swap_charges)
        done = next_step[slot_to_pid[0]] >= n_steps
        if not done and s + 1 < n_steps:
            next_label = labels[s + 1]
            if next_label < label:
                b = 1 << (label - next_label)
                parent_size = v >> next_label
                parent_first = first & -parent_size
                j = (first - parent_first) // csize
                if j > 0:
                    do_swap(0, j * csize, csize)
                if j < b - 1:
                    do_swap(0, (j + 1) * csize, csize)
        c_len.append(len(swap_charges) - n_swaps_before)
        if done:
            break

    plan = ChargePlan()
    plan.v = v
    plan.mu = mu
    plan.n_steps = n_steps
    plan.R = len(r_step)
    plan.step = np.array(r_step, dtype=np.int64)
    plan.first = np.array(r_first, dtype=np.int64)
    plan.csize = np.array(r_csize, dtype=np.int64)
    plan.label = np.array(r_label, dtype=np.int64)
    plan.dummy = np.array(r_dummy, dtype=bool)
    plan.a_len = np.array(a_len, dtype=np.int64)
    plan.A_all = (
        np.concatenate(a_parts) if a_parts else np.empty(0, dtype=np.float64)
    )
    plan.c_len = np.array(c_len, dtype=np.int64)
    plan.C_all = np.array(swap_charges, dtype=np.float64)
    plan.wc = np.array(word_cost, dtype=np.float64)
    plan.rounds_of_step = {
        s: np.array(rs, dtype=np.int64) for s, rs in rounds_of_step.items()
    }
    plan.csize_of_step = {s: v >> labels[s] for s in rounds_of_step}
    plan.cycle_words = cycle_words
    plan.n_normal_rounds = int(plan.R - n_dummy_rounds)
    plan.n_dummy_rounds = n_dummy_rounds
    plan.total_context_swaps = total_context_swaps
    plan.total_swap_words = total_swap_words
    plan.b_starts_cache = {}
    plan.phase_layout = None

    # positions of the local-time holes inside A_all, and the
    # (step * v + pid) source index each hole reads from local_flat
    normal = ~plan.dummy
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


def _plan_for(run) -> ChargePlan:
    global _PLAN_CACHE_HITS, _PLAN_CACHE_MISSES, _PLAN_CACHE_EVICTIONS
    sim = run.sim
    steps = run.steps
    sig = (
        sim.f,
        run.v,
        run.mu,
        tuple((s.label, s.body is None) for s in steps),
    )
    plan = _PLAN_CACHE.get(sig)
    if plan is not None:
        _PLAN_CACHE_HITS += 1
        _PLAN_CACHE.move_to_end(sig)
        return plan
    _PLAN_CACHE_MISSES += 1
    plan = _build_plan(
        run.v,
        run.mu,
        steps,
        run._block_cost,
        run._slot_word_cost,
        run.machine.table,
    )
    _PLAN_CACHE[sig] = plan
    while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
        _PLAN_CACHE.popitem(last=False)
        _PLAN_CACHE_EVICTIONS += 1
    return plan


def plan_cache_info() -> dict:
    """Introspection hook for tests and ``/v1/metrics``: cached plan
    count plus lifetime hit/miss/eviction counters (process-wide)."""
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
    unconsumed = None  # (src, dest, payload) sent but not yet delivered
    for s, st in enumerate(steps):
        if st.body is None:
            continue
        if unconsumed is not None:
            u_src, u_dest, u_payload = unconsumed
            in_src = np.full(v, -1, dtype=np.int64)
            in_src[u_dest] = u_src
            in_payload = np.zeros(v, dtype=u_payload.dtype)
            in_payload[u_dest] = u_payload
            unconsumed = None
        else:
            in_src = in_payload = None
        view = ArrayView(pids, v, run.mu, st.label, cols, in_src, in_payload)
        st.array_body(view)
        local_flat[s * v : (s + 1) * v] = view.local_time
        sends = view._sends
        if not sends:
            continue
        if len(sends) == 1:
            dest, payload = sends[0]
            src = pids
        else:
            # pid-major interleave: processor k's sends in call order,
            # then processor k+1's — the scalar outbox order
            dest = np.stack([d for d, _ in sends], axis=1).ravel()
            payload = np.stack([p for _, p in sends], axis=1).ravel()
            src = np.repeat(pids, len(sends))
        counts = np.bincount(dest, minlength=v)
        if counts.max() > 1:
            raise RuntimeError(
                f"array step {st.name!r} delivered multiple messages to "
                f"one processor — aligned array inboxes require at most "
                f"one; use the scalar body for this program"
            )
        step_src[s] = src
        step_dest[s] = dest
        unconsumed = (src, dest, payload)

    # write columns back into the per-processor dicts (native scalars,
    # exactly what the scalar bodies would have stored)
    for name, col in cols.items():
        values = col.tolist()
        for pid in range(v):
            contexts[pid][name] = values[pid]
    if unconsumed is not None:
        # the program ended with undelivered-to-a-body messages (its
        # trailing steps were dummies): group them into sorted inboxes
        src, dest, payload = unconsumed
        order = np.argsort(dest, kind="stable")
        d_sorted = dest[order].tolist()
        s_sorted = src[order].tolist()
        p_sorted = payload[order].tolist()
        pending = run.pending
        box: list[Message] = []
        prev = None
        for d, sp, pp in zip(d_sorted, s_sorted, p_sorted):
            if d != prev:
                box = pending[d] = []
                prev = d
            box.append(Message(sp, pp))


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
def _delivery_stream(plan, step_src, step_dest):
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
    wc = plan.wc
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


def _assemble_stream(plan, local_flat, step_src, step_dest):
    """Scatter charge templates, local times and delivery charges into
    the one operand stream the scalar engine folds serially.

    The scatter indices depend on the plan and on ``b_len`` only — and
    repeated runs of the same program deliver the same per-round message
    counts — so they are cached on the plan (one entry, keyed by the
    ``b_len`` bytes; a different delivery pattern just rebuilds).  The
    cache turns assembly from three index constructions plus a template
    copy into three fancy-index writes.
    """
    B, b_len = _delivery_stream(plan, step_src, step_dest)
    key = b_len.tobytes()
    cached = plan.b_starts_cache.get(key)
    if cached is None:
        r_len = plan.a_len + b_len + plan.c_len
        off = np.zeros(plan.R + 1, dtype=np.int64)
        np.cumsum(r_len, out=off[1:])
        a_idx = ranges_concat(off[:-1], plan.a_len)
        b_idx = ranges_concat(off[:-1] + plan.a_len, b_len)
        c_idx = ranges_concat(off[:-1] + plan.a_len + b_len, plan.c_len)
        local_idx = a_idx[plan.local_pos]
        plan.b_starts_cache.clear()  # keep exactly one pattern resident
        cached = (off, a_idx, b_idx, c_idx, local_idx)
        plan.b_starts_cache[key] = cached
    off, a_idx, b_idx, c_idx, local_idx = cached
    # one extra slot up front: the caller seeds it with the machine
    # clock and cumsums in place, so the stream never has to be copied
    # into a separate fold buffer
    buf = np.empty(off[-1] + 1, dtype=np.float64)
    stream = buf[1:]
    stream[a_idx] = plan.A_all
    if local_idx.size:
        stream[local_idx] = local_flat[plan.local_src]
    if B.size:
        stream[b_idx] = B
    if plan.C_all.size:
        stream[c_idx] = plan.C_all
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

    buf, off, b_len = _assemble_stream(plan, local_flat, step_src, step_dest)
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
