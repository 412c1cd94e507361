"""The vectorized superstep kernel: bit-identity, composition, contract.

The ``vec`` engine's whole claim is *exact* equivalence — ``==`` on
charged time, counters, breakdowns, contexts, and span tapes, not
``approx``.  These tests pin that claim against every scalar engine,
across trace levels, under ``--jobs`` folding, inside Brent fine runs,
and with fault injection armed; they also exercise the array-kernel
contract errors and the primitives (`deliver_sorted`, the plan cache,
the access-function ufunc cache) the kernel is built from.
"""

from __future__ import annotations

import warnings
from bisect import insort
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsp.machine import DBSPMachine
from repro.dbsp.program import Message, Program, Superstep
from repro.engines import (
    ENGINES,
    PROGRAMS,
    build_program,
    resolve_access_function,
    run,
)
from repro.functions import (
    AccessFunction,
    CostTable,
    LogarithmicAccess,
    PolynomialAccess,
    VectorizationWarning,
)
from repro.obs.trace import Tracer
from repro.sim import hmm_vec
from repro.sim.brent import BrentSimulator
from repro.sim.hmm_sim import HMMSimulator
from repro.sim.hmm_vec import plan_cache_info
from repro.sim.kernel import ArrayView, deliver_sorted, interleave2, ranges_concat
from repro.testing import random_program
from tests.conftest import ACCESS_FUNCTIONS, program_zoo

F = PolynomialAccess(0.5)


def scalar_vs_vec(prog, f=F, trace="counters", **opts):
    """Run one program under both kernels with identical options."""
    s = HMMSimulator(f, kernel="scalar", trace=trace, **opts).simulate(prog)
    v = HMMSimulator(f, kernel="vec", trace=trace, **opts).simulate(prog)
    return s, v


def assert_identical(s, v):
    """``==`` everywhere — the vec kernel promises bit-identity."""
    assert v.time == s.time
    assert v.contexts == s.contexts
    assert v.counters == s.counters
    assert v.breakdown == s.breakdown
    assert v.trace == s.trace


# ------------------------------------------------------------ equivalence
class TestZooEquivalence:
    """Every library program, every trace level, several access functions."""

    @pytest.mark.parametrize("trace", ["counters", "phases", "full"])
    def test_zoo_bit_identical(self, trace):
        for prog, _ in program_zoo(16):
            s, v = scalar_vs_vec(prog, trace=trace)
            assert_identical(s, v)

    @pytest.mark.parametrize("f", ACCESS_FUNCTIONS, ids=lambda f: f.name)
    def test_zoo_across_access_functions(self, f):
        for prog, _ in program_zoo(16)[:4]:  # the algorithmic programs
            s, v = scalar_vs_vec(prog, f=f)
            assert_identical(s, v)

    @pytest.mark.parametrize("name", ["sort", "fft-rec", "fft-dag"])
    def test_vec_engine_matches_all_scalar_engines(self, name):
        """The registry-level check: vec agrees with hmm exactly and
        with every other engine on the computed contexts."""
        vec = run(name, engine="vec", v=16, baseline=False)
        hmm = run(name, engine="hmm", v=16, baseline=False)
        assert vec.time == hmm.time
        assert vec.counters == hmm.counters
        assert vec.breakdown == hmm.breakdown
        assert vec.contexts == hmm.contexts
        for other in ("direct", "bt", "brent"):
            res = run(name, engine=other, v=16, baseline=False)
            assert vec.contexts == res.contexts, other

    def test_vec_engine_reports_kernel_in_meta(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        res = run("sort", engine="vec", v=16, baseline=False)
        assert res.meta["kernel"] == "vec"
        scalar = run("sort", engine="hmm", v=16, baseline=False)
        assert scalar.meta["kernel"] == "scalar"


class TestPropertyEquivalence:
    """Seeded random programs (scalar bodies → the per-pid vec path)."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        log_v=st.integers(2, 5),
        n_steps=st.integers(1, 6),
    )
    def test_random_programs_bit_identical(self, seed, log_v, n_steps):
        prog = random_program(1 << log_v, n_steps=n_steps, seed=seed)
        s, v = scalar_vs_vec(prog, trace="full")
        assert_identical(s, v)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_programs_match_direct(self, seed):
        prog = random_program(16, n_steps=4, seed=seed)
        want = [c["w"] for c in DBSPMachine(F).run(prog.with_global_sync()).contexts]
        v = HMMSimulator(F, kernel="vec").simulate(prog)
        assert [c["w"] for c in v.contexts] == want


class TestComposition:
    """The kernel composes with --jobs folding and Brent fine runs."""

    @pytest.mark.parametrize("name", ["sort", "fft-rec"])
    def test_jobs_two_tape_identical(self, name):
        prog = build_program(name, 16)
        serial = HMMSimulator(F, kernel="scalar", trace="full").simulate(prog)
        par = HMMSimulator(
            F, kernel="vec", parallel=2, trace="full"
        ).simulate(prog)
        assert_identical(serial, par)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_jobs_two_random_program(self, seed):
        prog = random_program(16, n_steps=4, seed=seed)
        serial = HMMSimulator(F, kernel="scalar").simulate(prog)
        par = HMMSimulator(F, kernel="vec", parallel=2).simulate(prog)
        assert_identical(serial, par)

    def test_brent_fine_runs_use_vec_identically(self):
        prog = build_program("sort", 16)
        scalar = BrentSimulator(F, v_host=4, kernel="scalar").simulate(prog)
        vec = BrentSimulator(F, v_host=4, kernel="vec").simulate(prog)
        assert vec.time == scalar.time
        assert vec.contexts == scalar.contexts
        assert vec.counters == scalar.counters


class TestKernelSelection:
    def test_default_is_scalar(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert HMMSimulator(F).kernel == "scalar"

    def test_env_var_selects_vec(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "vec")
        assert HMMSimulator(F).kernel == "vec"
        # an explicit kernel= wins over the environment
        assert HMMSimulator(F, kernel="scalar").kernel == "scalar"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            HMMSimulator(F, kernel="simd")

    def test_vec_engine_registered(self):
        assert "vec" in ENGINES
        assert "vec" in ENGINES["vec"].description.lower()

    def test_scalar_fallback_modes_stay_identical(self):
        """Modes execute_vec does not cover (full invariant checks)
        silently fall back to scalar — results must be unchanged."""
        prog = build_program("sort", 16)
        s = HMMSimulator(F, kernel="scalar", check_invariants="full").simulate(prog)
        v = HMMSimulator(F, kernel="vec", check_invariants="full").simulate(prog)
        assert_identical(s, v)


class TestPlanCache:
    def test_plan_is_reused_and_bounded(self):
        prog = build_program("sort", 16)
        HMMSimulator(F, kernel="vec").simulate(prog)
        size_after_first = plan_cache_info()["size"]
        HMMSimulator(F, kernel="vec").simulate(prog)
        info = plan_cache_info()
        assert info["size"] == size_after_first  # second run hit the cache
        assert info["size"] <= info["max"]

    def test_cache_never_exceeds_max(self):
        for v in (4, 8, 16, 32):
            for seed in (1, 2, 3):
                prog = random_program(v, n_steps=2, seed=seed)
                HMMSimulator(F, kernel="vec").simulate(prog)
        info = plan_cache_info()
        assert info["size"] <= info["max"]


def _hits_after(prog, f, trace="phases"):
    """Run ``prog`` on the vec kernel; return the result and whether the
    run hit the plan cache."""
    before = plan_cache_info()["hits"]
    res = HMMSimulator(f, kernel="vec", trace=trace, parallel=1).simulate(prog)
    return res, plan_cache_info()["hits"] == before + 1


def assert_matches_hmm(res, prog, f):
    """``==`` to the scalar kernel on every charged output, and the fused
    guest time ``==`` to the direct machine's."""
    ref = HMMSimulator(f, kernel="scalar", trace="phases").simulate(prog)
    assert res.time == ref.time
    assert res.counters == ref.counters
    assert res.breakdown == ref.breakdown
    assert res.contexts == ref.contexts
    assert res.guest_time == direct_time(prog, f)


X06, X07, X05 = (PolynomialAccess(a) for a in (0.6, 0.7, 0.5))


class TestShapeKeyedPlans:
    """Plans are keyed on (v, mu, label/dummy shape); the access function
    enters through pricing (and through smoothing's label set)."""

    @pytest.mark.parametrize("name", ["sort", "fft-rec", "matmul"])
    def test_functions_sharing_a_label_set_share_the_plan(self, name):
        # x^0.6 and x^0.7 smooth to the same label set at v=256
        prog = build_program(name, 256)
        hmm_vec._PLAN_CACHE.clear()
        first, hit = _hits_after(prog, X06)
        assert not hit
        second, hit = _hits_after(prog, X07)
        assert hit
        assert plan_cache_info()["size"] == 1
        assert_matches_hmm(first, prog, X06)
        assert_matches_hmm(second, prog, X07)

    def test_interleaved_functions_reprice_identically(self):
        prog = build_program("sort", 256)
        hmm_vec._PLAN_CACHE.clear()
        for f in (X06, X07, X06):
            res, _ = _hits_after(prog, f)
            (plan,) = hmm_vec._PLAN_CACHE.values()
            assert plan.priced[0] == f
            assert_matches_hmm(res, prog, f)

    def test_memo_survives_a_repeated_function(self, monkeypatch):
        prog = build_program("fft-rec", 64)
        _hits_after(prog, X06)
        calls = []
        real = hmm_vec._price

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hmm_vec, "_price", spy)
        res, hit = _hits_after(prog, PolynomialAccess(0.6))  # equal, not same
        assert hit and not calls
        _hits_after(prog, X07)
        assert len(calls) == 1
        assert_matches_hmm(res, prog, X06)

    def test_a_new_label_set_builds_a_new_plan(self):
        prog = build_program("matmul", 256)
        hmm_vec._PLAN_CACHE.clear()
        _hits_after(prog, X06)
        res, hit = _hits_after(prog, X05)
        assert not hit
        assert plan_cache_info()["size"] == 2
        assert_matches_hmm(res, prog, X05)

    def test_price_matches_the_scalar_charges(self):
        """``_price`` gathers the floats the scalar loop charges: the
        cycling template, dummy syncs and ``range_cost`` swap sums."""
        prog = build_program("fft-dag", 64)
        f = resolve_access_function("x^0.3")
        hmm_vec._PLAN_CACHE.clear()
        HMMSimulator(f, kernel="vec", parallel=1).simulate(prog)
        (plan,) = hmm_vec._PLAN_CACHE.values()
        A_all, C_all, _ = plan.priced[1:]
        table = CostTable.shared(f, plan.v * plan.mu)
        mu = plan.mu
        bc = [table.range_cost(k * mu, (k + 1) * mu) for k in range(plan.v)]
        want_a = []
        for dummy, csize in zip(plan.dummy.tolist(), plan.csize.tolist()):
            if dummy:
                want_a.append(float(csize))
                continue
            want_a.append(0.0)
            for k in range(1, csize):
                want_a += [bc[k], bc[k], bc[0], bc[0], 0.0]
        assert A_all.tolist() == want_a
        want_c = [
            2.0 * (table.range_cost(0, n * mu)
                   + table.range_cost(b * mu, (b + n) * mu))
            for b, n in zip(plan.swap_b.tolist(), plan.swap_len.tolist())
        ]
        assert C_all.tolist() == want_c and want_c

    def test_threaded_runs_survive_evictions(self, monkeypatch):
        """Service shards compute in concurrent handler threads that
        share one cache.  With one slot, two label shapes and a lookup
        that yields the GIL, another thread evicts between every lookup
        and its LRU touch.  No run may fail, and every result equals its
        serial twin."""
        import threading
        import time
        from collections import OrderedDict

        class YieldingCache(OrderedDict):
            def get(self, key, default=None):
                value = super().get(key, default)
                time.sleep(0.0005)
                return value

        monkeypatch.setattr(hmm_vec, "_PLAN_CACHE", YieldingCache())
        monkeypatch.setattr(hmm_vec, "_PLAN_CACHE_MAX", 1)
        progs = [build_program("sort", 32), build_program("fft-rec", 32)]
        fs = [X06, X05]
        serial = {
            (i, j): HMMSimulator(f, kernel="vec", parallel=1).simulate(p)
            for i, p in enumerate(progs) for j, f in enumerate(fs)
        }
        errors = []
        mismatches = []

        def worker(offset):
            try:
                for k in range(20):
                    i, j = (k + offset) % 2, (k // 2 + offset) % 2
                    res = HMMSimulator(
                        fs[j], kernel="vec", parallel=1
                    ).simulate(progs[i])
                    ref = serial[(i, j)]
                    if (res.time, res.counters, res.contexts) != (
                        ref.time, ref.counters, ref.contexts
                    ):
                        mismatches.append((i, j))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert mismatches == []
        assert plan_cache_info()["size"] == 1


class TestArrayModeSelection:
    """Which body mode each library program takes."""

    @pytest.fixture
    def scalar_calls(self, monkeypatch):
        calls = []
        real = hmm_vec._run_bodies_scalar

        def spy(run, *args):
            calls.append(run.program.name)
            return real(run, *args)

        monkeypatch.setattr(hmm_vec, "_run_bodies_scalar", spy)
        return calls

    @pytest.mark.parametrize("name,v", [
        ("sort", 64), ("fft-rec", 64), ("matmul", 64), ("matmul", 256),
    ])
    def test_library_programs_take_array_mode(self, name, v, scalar_calls):
        prog = build_program(name, v)
        res, _ = _hits_after(prog, X07)
        assert scalar_calls == []
        assert_matches_hmm(res, prog, X07)

    def test_custom_matmul_values_stay_per_processor(self, scalar_calls):
        from repro.algorithms.matmul import matmul_program

        prog = matmul_program(64, value_a=lambda r, c: r - c, value_b=None)
        assert prog.array_schema is None
        res, _ = _hits_after(prog, X07)
        assert scalar_calls == [prog.name]
        assert_matches_hmm(res, prog, X07)
        default = HMMSimulator(X07, kernel="vec").simulate(
            build_program("matmul", 64)
        )
        assert res.time == default.time  # same schedule, same charges
        assert res.contexts != default.contexts


# ------------------------------------------- phase attribution, guest time
GRID_FUNCTIONS = ["x^0.5", "x^0.3", "log", "linear", "staircase", "const"]
#: per-processor programs too slow for the v=1024 leg of the grid
SLOW_AT_1024 = {"matmul", "conv"}


def _grid():
    for name in PROGRAMS:
        for v in (8, 64, 1024):
            if v == 1024 and name in SLOW_AT_1024:
                continue
            yield name, v


def spy_on_attribution(monkeypatch) -> list:
    """Capture each ``phases`` run's array-built tracer totals and counts
    next to a ``_walk_tracer`` replay of the same folded clock (onto a
    fresh tracer, so the run itself is untouched), plus the plan."""
    seen = []
    real = hmm_vec._attribute_phases

    def spy(run, plan, buf, off, b_len):
        real(run, plan, buf, off, b_len)
        machine = SimpleNamespace(time=0.0)
        shadow = SimpleNamespace(
            tracer=Tracer(clock=lambda: machine.time),
            machine=machine,
            steps=run.steps,
        )
        hmm_vec._walk_tracer(shadow, plan, buf.tolist(), off, b_len)
        shadow.tracer.assert_closed()
        seen.append(SimpleNamespace(
            totals=dict(run.tracer.totals),
            counts=dict(run.tracer.counts),
            walk_totals=shadow.tracer.totals,
            walk_counts=shadow.tracer.counts,
            plan=plan,
        ))

    monkeypatch.setattr(hmm_vec, "_attribute_phases", spy)
    return seen


@pytest.fixture
def replayed(monkeypatch):
    return spy_on_attribution(monkeypatch)


def assert_replay_identical(seen):
    assert seen, "the array attribution did not run"
    for rec in seen:
        assert rec.totals == rec.walk_totals
        assert rec.counts == rec.walk_counts


def direct_time(prog, f):
    return DBSPMachine(f).run(prog.with_global_sync()).total_time


class TestPhaseAttribution:
    """``phases`` totals are a segmented reduction over the folded clock,
    ``==`` to replaying every span through the tracer."""

    @pytest.mark.parametrize("name,v", list(_grid()))
    def test_grid_matches_replay_and_direct(self, name, v, replayed):
        try:
            prog = build_program(name, v)
        except ValueError:
            pytest.skip(f"{name} cannot be built at v={v}")
        for spec in GRID_FUNCTIONS:
            f = resolve_access_function(spec)
            res = HMMSimulator(f, kernel="vec", parallel=1).simulate(prog)
            assert res.guest_time == direct_time(prog, f), spec
        assert len(replayed) == len(GRID_FUNCTIONS)
        assert_replay_identical(replayed)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        log_v=st.integers(0, 5),
        n_steps=st.integers(1, 6),
    )
    def test_random_programs_match_replay_and_direct(
        self, seed, log_v, n_steps
    ):
        prog = random_program(1 << log_v, n_steps=n_steps, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            seen = spy_on_attribution(mp)
            res = HMMSimulator(F, kernel="vec", parallel=1).simulate(prog)
        assert_replay_identical(seen)
        assert res.guest_time == direct_time(prog, F)

    @pytest.mark.parametrize("name", ["fft-dag", "random"])
    def test_covers_swap_counts_and_dummy_rounds(self, name, replayed):
        """One array-body and one per-processor program whose schedules
        have rounds with 0, 1 and 2 swaps and smoothing dummies."""
        prog = build_program(name, 64)
        HMMSimulator(
            resolve_access_function("x^0.3"), kernel="vec", parallel=1
        ).simulate(prog)
        (rec,) = replayed
        assert set(rec.plan.c_len.tolist()) == {0, 1, 2}
        assert rec.plan.n_dummy_rounds > 0
        assert_replay_identical(replayed)

    @pytest.mark.parametrize("steps", [
        [],
        [Superstep(2, None), Superstep(1, None), Superstep(0, None)],
    ], ids=["empty", "dummies-only"])
    def test_dummy_only_programs(self, steps, replayed):
        prog = Program(8, 4, steps, name="dummies")
        s, v = scalar_vs_vec(prog, trace="phases", parallel=1)
        assert_identical(s, v)
        assert_replay_identical(replayed)
        assert v.guest_time == direct_time(prog, F)

    @pytest.mark.parametrize("name", ["sort", "fft-rec", "random", "conv"])
    def test_full_trace_unchanged(self, name):
        """``full`` still replays the tracer: spans and breakdowns equal
        the scalar engine's, and the ``phases`` breakdown equals both."""
        prog = build_program(name, 64)
        s, v = scalar_vs_vec(prog, trace="full")
        assert_identical(s, v)
        assert v.spans == s.spans and v.spans
        phases = HMMSimulator(F, kernel="vec", trace="phases").simulate(prog)
        assert phases.breakdown == v.breakdown

    def test_only_full_reaches_the_replay(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("_walk_tracer called outside trace='full'")

        monkeypatch.setattr(hmm_vec, "_walk_tracer", refuse)
        prog = build_program("sort", 64)
        for trace in ("off", "counters", "phases"):
            HMMSimulator(F, kernel="vec", trace=trace, parallel=1).simulate(
                prog
            )
        with pytest.raises(AssertionError, match="outside trace='full'"):
            HMMSimulator(F, kernel="vec", trace="full").simulate(prog)


def _fan_in_program(v=8, mu=2):
    """Label-0 step in which processors 1..mu+1 all message P0."""
    def body(view):
        if 1 <= view.pid <= mu + 1:
            view.send(0, view.pid)

    return Program(v, mu, [Superstep(0, body, name="fan-in")], name="fan-in")


def _stray_program(v=64):
    """A 1-step whose sends leave its 1-cluster: legal only under the
    coarser label smoothing upgrades it to for x^0.5 (label set 0,2,...)."""
    def body(view):
        view.send(view.pid ^ (v // 2), view.pid)

    return Program(v, 2, [Superstep(1, body, name="stray")], name="stray")


class TestGuestTime:
    """``repro.run(p, "vec")`` takes the guest time from the kernel pass;
    every other path still runs the direct machine, with equal results."""

    def test_default_vec_path_never_builds_the_direct_machine(
        self, monkeypatch
    ):
        import repro.engines as engines_module

        want = run("sort", engine="direct", v=64).time

        def refuse(*args, **kwargs):
            raise AssertionError("DBSPMachine constructed")

        monkeypatch.setattr(engines_module, "DBSPMachine", refuse)
        res = run("sort", engine="vec", v=64, parallel=1)
        assert res.baseline_time == want
        assert res.slowdown == res.time / want

    @pytest.mark.parametrize("opts", [
        {"parallel": 2},
        {"record_trace": True},
        {"check_invariants": "full"},
    ], ids=["parallel-2", "record-trace", "invariants-full"])
    def test_fallbacks_keep_the_direct_baseline(self, opts):
        prog = build_program("sort", 16)
        res = run(prog, engine="vec", **opts)
        assert res.native.guest_time is None
        assert res.baseline_time == direct_time(prog, F)
        assert res.slowdown == res.time / res.baseline_time

    def test_brent_fine_runs_leave_guest_time_unset(self, monkeypatch):
        seen = []
        real = HMMSimulator.simulate

        def spy(self, program, *args, **kwargs):
            res = real(self, program, *args, **kwargs)
            seen.append((kwargs.get("initial_pending"), res.guest_time))
            return res

        monkeypatch.setattr(HMMSimulator, "simulate", spy)
        prog = build_program("sort", 16)
        res = run(prog, engine="brent", kernel="vec", parallel=1)
        assert seen and all(
            pending is not None and guest is None for pending, guest in seen
        )
        assert res.baseline_time == direct_time(prog, F)

    def test_hmm_engine_keeps_the_direct_baseline(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "vec")
        calls = []
        import repro.engines as engines_module

        class Counting(DBSPMachine):
            def run(self, program):
                calls.append(program)
                return super().run(program)

        monkeypatch.setattr(engines_module, "DBSPMachine", Counting)
        run("sort", engine="hmm", v=16, parallel=1)
        assert len(calls) == 1

    @pytest.mark.parametrize("make", [_fan_in_program, _stray_program],
                             ids=["recv-over-mu", "cross-cluster"])
    def test_direct_machine_errors_survive(self, make):
        prog = make()
        with pytest.raises(ValueError) as direct:
            DBSPMachine(F).run(prog.with_global_sync())
        res = HMMSimulator(F, kernel="vec", parallel=1).simulate(prog)
        assert res.guest_time is None
        with pytest.raises(ValueError) as fused:
            run(prog, engine="vec", parallel=1)
        assert str(fused.value) == str(direct.value)
        quiet = run(prog, engine="vec", parallel=1, baseline=False)
        assert quiet.slowdown is None and quiet.baseline_time is None
        assert quiet.time == res.time


# ----------------------------------------------------------------- chaos
class TestChaosCleanRuns:
    """REPRO_FAULTS armed: the vec kernel keeps its bit-identity promise
    (mirrors TestGuardsStayQuietOnCorrectEngine for the scalar engines)."""

    @pytest.mark.parametrize("seed", [1, 3, 5, 7])
    def test_faults_env_does_not_perturb_results(
        self, seed, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULTS", f"seed={seed},kill=1.0,dir={tmp_path / 'marks'}"
        )
        prog = random_program(16, n_steps=4, seed=seed)
        want = [c["w"] for c in DBSPMachine(F).run(prog.with_global_sync()).contexts]
        s, v = scalar_vs_vec(prog, trace="full")
        assert_identical(s, v)
        assert [c["w"] for c in v.contexts] == want


# ------------------------------------------------------------ primitives
class TestDeliverSorted:
    def _reference(self, n_pids, outgoing, pending=None):
        pending = pending or [[] for _ in range(n_pids)]
        for dest, msg in outgoing:
            insort(pending[dest], msg)
        return pending

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(0, 60),
        seed=st.integers(0, 2**16),
    )
    def test_matches_insort_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        n_pids = 8
        outgoing = [
            (int(rng.integers(n_pids)), Message(int(rng.integers(n_pids)), i))
            for i in range(n)
        ]
        want = self._reference(n_pids, outgoing)
        got = [[] for _ in range(n_pids)]
        deliver_sorted(got, list(outgoing))
        assert got == want

    def test_nonempty_inbox_fallback_keeps_tie_order(self):
        """Pre-existing messages with equal src sort before the batch,
        the insort_right tie order."""
        n_pids, src = 4, 2
        pending = [[Message(src, "old")] for _ in range(n_pids)]
        outgoing = [(d, Message(src, f"new{i}")) for i in range(20) for d in range(n_pids)]
        want = self._reference(
            n_pids, outgoing, [list(box) for box in pending]
        )
        deliver_sorted(pending, outgoing)
        assert pending == want

    def test_small_batch_uses_insort_path(self):
        pending = [[], []]
        deliver_sorted(pending, [(1, Message(0, "a")), (0, Message(1, "b"))])
        assert pending == [[Message(1, "b")], [Message(0, "a")]]


class TestArrayViewContract:
    def _view(self, n=4, v=4, mu=2, label=0):
        return ArrayView(
            np.arange(n),
            v,
            mu,
            label,
            {"key": np.zeros(n)},
            None,
            None,
        )

    def test_send_must_be_full_width(self):
        view = self._view()
        with pytest.raises(ValueError, match="full-width"):
            view.send(np.array([0, 1]), np.zeros(2))

    def test_send_rejects_out_of_range_dest(self):
        view = self._view()
        with pytest.raises(ValueError, match="destination outside"):
            view.send(np.array([0, 1, 2, 4]), np.zeros(4))

    def test_send_rejects_cross_cluster(self):
        view = self._view(label=1)  # clusters {0,1} and {2,3}
        with pytest.raises(ValueError, match="cluster boundary"):
            view.send(np.array([2, 3, 0, 1]), np.zeros(4))

    def test_send_respects_mu(self):
        view = self._view(mu=1)
        dest = np.array([1, 0, 3, 2])
        view.send(dest, np.zeros(4))
        with pytest.raises(ValueError, match="mu=1"):
            view.send(dest, np.zeros(4))

    def test_negative_charge_rejected(self):
        view = self._view()
        with pytest.raises(ValueError, match="negative"):
            view.charge(-1.0)
        with pytest.raises(ValueError, match="negative"):
            view.charge(np.array([1.0, 1.0, -0.5, 1.0]))

    def test_ranges_concat_matches_python(self):
        starts = [3, 0, 7, 7]
        lengths = [2, 0, 3, 1]
        want = np.concatenate(
            [np.arange(s, s + l) for s, l in zip(starts, lengths)]
        )
        assert (ranges_concat(starts, lengths) == want).all()
        assert ranges_concat([], []).size == 0

    def test_interleave2(self):
        out = interleave2(np.array([1.0, 3.0]), np.array([2.0, 4.0]))
        assert out.tolist() == [1.0, 2.0, 3.0, 4.0]


def _partial_send_program(v=16, mu=4, trailing=False):
    """Masked, multiple sends in both body forms.

    Step 1: odd pids send ``10 * pid`` to ``pid + 1`` (call 0), every
    pid sends ``pid`` to ``pid ^ 2`` (call 1), and pids ``= 0 mod 4``
    send ``-pid`` to ``pid ^ 2`` again (call 2, a second message from
    one sender).  Step 2 sums the inbox into ``x``, in sender order, and
    weights each message by its position so a wrong order shows.  With
    ``trailing``, step 2 sends too and the program ends on a dummy."""
    def send1(view):
        pid = view.pid
        if pid & 1:
            view.send((pid + 1) % v, 10 * pid)
        view.send(pid ^ 2, pid)
        if pid % 4 == 0:
            view.send(pid ^ 2, -pid)
        view.charge(pid % 3)

    def array_send1(view):
        pids = view.pids
        view.send((pids + 1) % v, 10 * pids, where=(pids & 1) == 1)
        view.send(pids ^ 2, pids)
        view.send(pids ^ 2, -pids, where=pids % 4 == 0)
        view.charge(pids % 3)

    def absorb(view):
        view.ctx["x"] += sum(
            (k + 1) * m.payload for k, m in enumerate(view.inbox)
        )
        if trailing:
            view.send(view.pid ^ 1, view.ctx["x"])

    def array_absorb(view):
        # a pid's inbox, sorted by sender: call 0 comes from pid - 1,
        # calls 1 and 2 from pid ^ 2 (call order breaks the tie)
        pairs = [(src, payload, call)
                 for call, (src, payload) in enumerate(view.inboxes)]
        x = view.ctx["x"].copy()
        for k in range(len(view.pids)):
            got = sorted(
                (int(src[k]), call, int(payload[k]))
                for src, payload, call in pairs if src[k] >= 0
            )
            x[k] += sum((i + 1) * p for i, (_, _, p) in enumerate(got))
        view.ctx["x"] = x
        if trailing:
            view.send(view.pids ^ 1, x)

    steps = [
        Superstep(0, send1, name="send", array_body=array_send1),
        Superstep(0, absorb, name="absorb", array_body=array_absorb),
    ]
    if trailing:
        steps.append(Superstep(0, None, name="tail"))
    return Program(v, mu, steps, make_context=lambda pid: {"x": pid},
                   name="partial", array_schema={"x": "i8"})


def _scalar_twin(prog):
    """The same program without its array bodies (per-processor mode)."""
    return Program(
        prog.v, prog.mu,
        [Superstep(s.label, s.body, name=s.name) for s in prog.supersteps],
        make_context=prog.make_context, name=prog.name,
    )


class TestPartialSends:
    """The ``where=`` contract of :meth:`ArrayView.send`."""

    @pytest.fixture
    def streams(self, monkeypatch):
        seen = []
        real = hmm_vec._assemble_stream

        def spy(plan, priced, local_flat, step_src, step_dest):
            seen.append((list(step_src), list(step_dest)))
            return real(plan, priced, local_flat, step_src, step_dest)

        monkeypatch.setattr(hmm_vec, "_assemble_stream", spy)
        return seen

    @pytest.mark.parametrize("trailing", [False, True])
    def test_outbox_order_matches_the_scalar_outbox(self, streams, trailing):
        prog = _partial_send_program(trailing=trailing)
        twin = _scalar_twin(prog)
        vec = HMMSimulator(F, kernel="vec", trace="phases", parallel=1)
        array_res = vec.simulate(prog)
        scalar_res = vec.simulate(twin)
        (a_src, a_dest), (s_src, s_dest) = streams
        for a, b in zip(a_src + a_dest, s_src + s_dest):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.tolist() == b.tolist()
        assert a_src[0] is not None and len(a_src[0]) == 16 + 8 + 4
        ref = HMMSimulator(F, kernel="scalar", trace="phases").simulate(twin)
        for res in (array_res, scalar_res):
            assert_identical(ref, res)
            # Message equality looks at the sender only: compare payloads
            assert [[(m.src, m.payload) for m in box] for box in res.pending] \
                == [[(m.src, m.payload) for m in box] for box in ref.pending]
        assert any(ref.pending) == trailing
        assert array_res.guest_time == direct_time(twin, F)

    def _view(self, n=4, v=4, mu=2, label=0):
        return ArrayView(np.arange(n), v, mu, label, {}, None, None)

    def test_duplicate_destination_in_one_call_raises(self):
        view = self._view()
        with pytest.raises(ValueError, match="one destination twice"):
            view.send(np.array([1, 1, 2, 3]), np.zeros(4))
        # masked-out lanes do not count
        view.send(np.array([1, 1, 2, 3]), np.zeros(4),
                  where=np.array([True, False, True, True]))
        # across calls one destination may receive several messages
        view.send(np.array([1, 0, 3, 2]), np.zeros(4))

    def test_cluster_boundary_checks_selected_lanes(self):
        view = self._view(label=1)  # clusters {0,1} and {2,3}
        dest = np.array([2, 0, 3, 2])
        with pytest.raises(ValueError, match="cluster boundary"):
            view.send(dest, np.zeros(4), where=np.array([1, 1, 0, 0], bool))
        view.send(dest, np.zeros(4), where=np.array([0, 1, 1, 1], bool))

    def test_mu_caps_each_processor(self):
        view = self._view(mu=1)
        dest = np.array([1, 0, 3, 2])
        view.send(dest, np.zeros(4), where=np.array([1, 1, 0, 0], bool))
        view.send(dest, np.zeros(4), where=np.array([0, 0, 1, 1], bool))
        with pytest.raises(ValueError, match="mu=1"):
            view.send(dest, np.zeros(4), where=np.array([0, 0, 0, 1], bool))

    def test_mask_must_be_full_width(self):
        view = self._view()
        with pytest.raises(ValueError, match="full-width"):
            view.send(np.arange(4), np.zeros(4), where=np.array([True]))

    @pytest.mark.parametrize("name", ["sort", "fft-rec", "fft-dag"])
    def test_single_send_inboxes_are_unchanged(self, name, monkeypatch):
        """A step after one full-width send sees the aligned pair it saw
        before ``inboxes`` existed, as ``inbox_src``/``inbox_payload``
        and as the only ``inboxes`` entry."""
        prog = build_program(name, 32)
        log = []

        def wrap(body):
            def array_body(view):
                log.append(("in", view.inbox_src, view.inbox_payload,
                            list(view.inboxes)))
                body(view)
                log.append(("out", list(view._sends)))
            return array_body

        wrapped = prog.replace_supersteps([
            Superstep(s.label, s.body, name=s.name,
                      array_body=None if s.array_body is None
                      else wrap(s.array_body))
            for s in prog.supersteps
        ])
        res = HMMSimulator(F, kernel="vec", parallel=1).simulate(wrapped)
        assert res.contexts == HMMSimulator(F, kernel="scalar").simulate(
            prog
        ).contexts
        assert sum(1 for e in log if e[0] == "out" and e[1]) > 1
        sends = None
        for entry in log:
            if entry[0] == "out":
                sends = entry[1] or None
                continue
            _, in_src, in_payload, inboxes = entry
            if sends is None:
                assert in_src is None and in_payload is None
                assert inboxes == []
                continue
            ((dest, payload, where),) = sends
            assert where is None
            want_src = np.full(32, -1, dtype=np.int64)
            want_src[dest] = np.arange(32)
            want_payload = np.zeros(32, dtype=payload.dtype)
            want_payload[dest] = payload
            assert in_src.dtype == want_src.dtype
            assert in_payload.dtype == want_payload.dtype
            assert (in_src == want_src).all()
            assert (in_payload == want_payload).all()
            assert len(inboxes) == 1
            assert inboxes[0][0] is in_src and inboxes[0][1] is in_payload


# ------------------------------------------------- access-function ufunc
class TestEvaluateFallbackCache:
    class _Slow(AccessFunction):
        name = "slow"

        def __call__(self, x: float) -> float:
            return float(x) ** 0.5

    def test_warns_exactly_once_per_instance(self):
        f = self._Slow()
        xs = np.arange(4.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = f.evaluate(xs)
            second = f.evaluate(xs)
        vec_warnings = [
            w for w in caught if issubclass(w.category, VectorizationWarning)
        ]
        assert len(vec_warnings) == 1
        assert (first == second).all()
        assert (first == np.sqrt(xs)).all()

    def test_fresh_instance_warns_again(self):
        with pytest.warns(VectorizationWarning):
            self._Slow().evaluate(np.arange(3.0))

    def test_overriding_subclasses_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", VectorizationWarning)
            PolynomialAccess(0.5).evaluate(np.arange(8.0))
            LogarithmicAccess().evaluate(np.arange(1.0, 9.0))
