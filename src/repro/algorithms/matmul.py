"""The n-MM algorithm of Proposition 7 (Figure 3 schedule).

Two ``sqrt(n) x sqrt(n)`` matrices are multiplied (semiring operations
only) on an ``n``-processor D-BSP.  Elements are distributed in Morton
(bit-interleaved) order, so the four quadrants of ``A``/``B``/``C`` map
exactly onto the four 2-clusters: the standard decomposition into eight
``(n/4)``-MM subproblems runs in two *rounds* of four subproblems, each
preceded by one superstep in which every processor exchanges O(1) data
(Figure 3's submatrix shuffle), and recurses independently inside the
2-clusters.

Superstep profile: ``Theta(2^d)`` supersteps of label ``2d`` for
``0 <= d < log(n)/2`` plus ``Theta(sqrt n)`` purely local (label
``log n``) supersteps — giving running time

* ``O(n^alpha)`` on ``g = x^alpha`` with ``1/2 < alpha < 1``,
* ``O(sqrt(n) log n)`` at ``alpha = 1/2``,
* ``O(sqrt n)`` for ``alpha < 1/2`` and for ``g = log x``
  (Proposition 7), whose HMM simulation matches the bounds of [1].
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.dbsp.cluster import log2_exact
from repro.dbsp.program import ProcView, Program, Superstep
from repro.functions import AccessFunction, LogarithmicAccess, PolynomialAccess

__all__ = [
    "matmul_program",
    "morton_decode",
    "morton_encode",
    "mm_assignment_rounds",
    "dbsp_mm_time_bound",
]


def morton_decode(pid: int, half_bits: int) -> tuple[int, int]:
    """Morton (bit-interleaved) pid -> (row, col); MSB pair first."""
    row = col = 0
    for b in range(half_bits):
        shift = 2 * (half_bits - 1 - b)
        row = (row << 1) | ((pid >> (shift + 1)) & 1)
        col = (col << 1) | ((pid >> shift) & 1)
    return row, col


def morton_encode(row: int, col: int, half_bits: int) -> int:
    """(row, col) -> Morton pid; inverse of :func:`morton_decode`."""
    pid = 0
    for b in range(half_bits - 1, -1, -1):
        pid = (pid << 2) | (((row >> b) & 1) << 1) | ((col >> b) & 1)
    return pid


def matmul_program(
    v: int,
    mu: int = 8,
    value_a: Callable[[int, int], object] | None = None,
    value_b: Callable[[int, int], object] | None = None,
) -> Program:
    """Build the recursive n-MM program for ``v = n`` processors.

    ``v`` must be a power of 4.  Processor ``morton_encode(r, c)`` holds
    ``A[r][c]`` in ``ctx["a"]``, ``B[r][c]`` in ``ctx["b"]`` and
    accumulates ``C[r][c]`` in ``ctx["c"]``.  Every recursion level closes
    with a third shuffle restoring its cluster's operand layout, so each
    subproblem starts from (and the whole program ends in) clean Morton
    order — the restore costs the same O(1)-relation as the two working
    shuffles and keeps the superstep profile at ``Theta(2^d)`` label-2d
    supersteps.
    """
    log_v = log2_exact(v)
    if log_v % 2 != 0:
        raise ValueError(f"n-MM needs n a power of 4, got {v}")
    half_bits = log_v // 2
    # custom values may be arbitrary semiring objects; only the default
    # integer operands are guaranteed to round-trip through i8 columns
    vectorizable = value_a is None and value_b is None
    value_a = value_a or (lambda r, c: r + 2 * c + 1)
    value_b = value_b or (lambda r, c: r * c + r + 1)

    steps: list[Superstep] = []
    _emit_steps(steps, depth=0, max_depth=half_bits, log_v=log_v)
    steps.append(Superstep(0, _final_sync, name="mm-final-sync",
                           array_body=_array_final_sync))

    def make_context(pid: int) -> dict:
        r, c = morton_decode(pid, half_bits)
        return {"a": value_a(r, c), "b": value_b(r, c), "c": 0}

    return Program(
        v,
        mu,
        steps,
        make_context=make_context,
        name=f"matmul(n={v})",
        array_schema=(
            {"a": "i8", "b": "i8", "c": "i8"} if vectorizable else None
        ),
    )


def _final_sync(view: ProcView) -> None:
    _absorb(view)
    view.charge(1)


def _emit_steps(
    steps: list[Superstep], depth: int, max_depth: int, log_v: int
) -> None:
    """Recursive schedule: shuffle round-1 operands, recurse, shuffle
    round-2 operands, recurse, restore the cluster's operand layout."""
    if depth == max_depth:
        steps.append(Superstep(log_v, _leaf_multiply, name="mm-multiply",
                               array_body=_array_leaf_multiply))
        return
    for phase, name in ((1, "move1"), (None, None), (2, "move2"),
                        (None, None), (3, "restore")):
        if phase is None:
            _emit_steps(steps, depth + 1, max_depth, log_v)
        else:
            steps.append(
                Superstep(2 * depth, _move_body(depth, log_v, phase),
                          name=f"mm-{name}-d{depth}",
                          array_body=_array_move_body(depth, log_v, phase))
            )


def _leaf_multiply(view: ProcView) -> None:
    _absorb(view)
    view.ctx["c"] = view.ctx["c"] + view.ctx["a"] * view.ctx["b"]
    view.charge(1)


def _absorb(view: ProcView) -> None:
    """File incoming operand updates (tagged 'a'/'b') into the context."""
    for msg in view.inbox:
        tag, value = msg.payload
        view.ctx[tag] = value


def _move_body(depth: int, log_v: int, phase: int):
    """The Figure 3 operand shuffles at recursion ``depth``.

    At depth ``d`` the active cluster level is ``2d``; the two bits
    selecting the subcluster (matrix quadrant) are the pid bits at
    positions ``log v - 2d - 1`` (row bit) and ``log v - 2d - 2`` (col
    bit).  Writing quadrants as ``q = (r, c)``:

    * phase 1 installs round 1's ``(A11,B11 | A12,B22 | A22,B21 |
      A21,B12)``: swap A between quadrants (1,0)-(1,1) (processors with
      ``r = 1``) and B between (0,1)-(1,1) (processors with ``c = 1``);
    * phase 2 installs round 2's ``(A12,B21 | A11,B12 | A21,B11 |
      A22,B22)``: swap A across the col bit and B across the row bit for
      *all* processors;
    * phase 3 restores the initial ``(A_q, B_q)`` layout: swap A across
      the col bit where ``r = 0`` and B across the row bit where ``c = 0``.
    """
    r_bit = 1 << (log_v - 2 * depth - 1)
    c_bit = 1 << (log_v - 2 * depth - 2)

    def body(view: ProcView) -> None:
        _absorb(view)
        pid = view.pid
        if phase == 1:
            if pid & r_bit:
                view.send(pid ^ c_bit, ("a", view.ctx["a"]))
            if pid & c_bit:
                view.send(pid ^ r_bit, ("b", view.ctx["b"]))
        elif phase == 2:
            view.send(pid ^ c_bit, ("a", view.ctx["a"]))
            view.send(pid ^ r_bit, ("b", view.ctx["b"]))
        else:
            if not pid & r_bit:
                view.send(pid ^ c_bit, ("a", view.ctx["a"]))
            if not pid & c_bit:
                view.send(pid ^ r_bit, ("b", view.ctx["b"]))
        view.charge(1)

    return body


# ------------------------------------------------------------ array bodies
# Whole-machine forms of the bodies above (see repro.sim.kernel.ArrayView).
# Every move step makes two send calls, masked per phase: channel 0
# carries ``a`` and channel 1 carries ``b``, so the next step files
# inbox pair 0 into ``a`` and pair 1 into ``b``.


def _array_absorb(view) -> None:
    ctx = view.ctx
    for tag, (src, payload) in zip(("a", "b"), view.inboxes):
        ctx[tag] = np.where(src >= 0, payload, ctx[tag])


def _array_final_sync(view) -> None:
    _array_absorb(view)
    view.charge(1)


def _array_leaf_multiply(view) -> None:
    _array_absorb(view)
    ctx = view.ctx
    ctx["c"] = ctx["c"] + ctx["a"] * ctx["b"]
    view.charge(1)


class _array_move_body:
    """Array counterpart of :func:`_move_body` (picklable)."""

    __slots__ = ("phase", "r_bit", "c_bit")

    def __init__(self, depth: int, log_v: int, phase: int):
        self.phase = phase
        self.r_bit = 1 << (log_v - 2 * depth - 1)
        self.c_bit = 1 << (log_v - 2 * depth - 2)

    def __call__(self, view) -> None:
        _array_absorb(view)
        pids = view.pids
        r_bit, c_bit = self.r_bit, self.c_bit
        if self.phase == 1:
            send_a, send_b = (pids & r_bit) != 0, (pids & c_bit) != 0
        elif self.phase == 2:
            send_a = send_b = None
        else:
            send_a, send_b = (pids & r_bit) == 0, (pids & c_bit) == 0
        view.send(pids ^ c_bit, view.ctx["a"], where=send_a)
        view.send(pids ^ r_bit, view.ctx["b"], where=send_b)
        view.charge(1)


def mm_assignment_rounds(v: int = 16) -> list[dict[int, tuple[str, str]]]:
    """Figure 3 data: the (A, B) submatrices held by each 2-cluster.

    Runs the first recursion level symbolically and reports, for each of
    the four 2-clusters, the operand quadrants it works on in rounds 1 and
    2 (e.g. ``("A11", "B12")``), exactly as in the paper's figure.
    """

    def name(prefix: str, q: tuple[int, int]) -> str:
        return f"{prefix}{q[0] + 1}{q[1] + 1}"

    initial = {2 * r + c: ((r, c), (r, c)) for r in range(2) for c in range(2)}
    round1 = {}
    round2 = {}
    for cluster, (qa, qb) in initial.items():
        r, c = qa
        # round 1: A swaps across the col bit when r = 1; B swaps across
        # the row bit when c = 1 (matches _move_body with round_one=True)
        qa1 = (r, 1 - c) if r == 1 else (r, c)
        qb1 = (1 - r, c) if c == 1 else (r, c)
        round1[cluster] = (name("A", qa1), name("B", qb1))
        # round 2: both operands swap unconditionally
        qa2 = (qa1[0], 1 - qa1[1])
        qb2 = (1 - qb1[0], qb1[1])
        round2[cluster] = (name("A", qa2), name("B", qb2))
    return [round1, round2]


def dbsp_mm_time_bound(g: AccessFunction, n: int, mu: int = 8) -> float:
    """Proposition 7's claimed D-BSP running-time shape for n-MM."""
    if isinstance(g, PolynomialAccess):
        a = g.alpha
        if a > 0.5:
            return float(n) ** a
        if a == 0.5:
            return math.sqrt(n) * math.log2(max(n, 2))
        return math.sqrt(n)
    if isinstance(g, LogarithmicAccess):
        return math.sqrt(n)
    raise ValueError(f"Proposition 7 states no bound for {g!r}")
