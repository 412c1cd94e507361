"""Tests of the benchmark itself: determinism, names, smoke runs, checks.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calib  # noqa: E402
import drive  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Env, LibDefault, Window  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _streams(seed: int) -> str:
    return json.dumps([
        gen.lib_inputs(seed, 60),
        gen.dag_inputs(seed, 30),
        gen.hot_keys(seed),
        gen.hot_stream(seed, 2.0),
        gen.cold_inputs(seed, 75),
    ])


def test_same_seed_gives_byte_identical_streams():
    assert _streams(7) == _streams(7)


def test_different_seeds_give_different_cold_keys():
    keys = [{refs.body_key(b) for b in gen.cold_inputs(seed, 75)}
            for seed in (1, 2)]
    assert keys[0].isdisjoint(keys[1])


def test_cold_keys_are_unique_and_mixed_as_documented():
    bodies = gen.cold_inputs(3, 300)
    assert len({refs.body_key(b) for b in bodies}) == len(bodies) == 300
    block = bodies[:20]
    assert sum(b.get("engine") == "vec" for b in block) == 12
    assert sum(b.get("engine") in gen.COLD_SCALAR_ENGINES for b in block) == 6
    assert sum(b.get("kind") == "dag" for b in block) == 2


def test_lib_blocks_hold_each_sort_input_twice_and_each_fft_input_once():
    inputs = gen.lib_inputs(6, 4 * gen.LIB_BLOCK)
    for start in range(0, len(inputs), gen.LIB_BLOCK):
        block = inputs[start:start + gen.LIB_BLOCK]
        for f in gen.LIB_FUNCTIONS:
            assert block.count(("sort", f)) == 2
            assert block.count(("fft-rec", f)) == 1


def test_host_speed_is_smoothed_over_neighbouring_operations():
    # one probe hit by an interrupt does not move its operation's scale
    assert calib.local([1.0, 9.0, 1.0, 1.0, 1.0]) == [1.0] * 5
    assert calib.probe() > 0


def test_a_host_twice_as_slow_reads_the_same():
    def window(slowdown):
        samples = [drive.Sample(i, 0.2 * slowdown, 0.0) for i in range(30)]
        loop = drive.LoopResult(samples, busy=6.0 * slowdown)
        return Window(loop, [], probes=[calib.REF_PROBE_S * slowdown] * 30,
                      words=30.0 * 1000)

    rows = [dict((name, value) for name, value, _ in
                 run.e2e_metrics(LibDefault, [1.0], window(k)))
            for k in (1.0, 2.0)]
    assert rows[0]["latency_p50_s"] == pytest.approx(0.2)
    for name in ("ops_per_s", "latency_p50_s", "latency_p90_s",
                 "charged_words_per_s", "slo_ratio"):
        assert rows[1][name] == pytest.approx(rows[0][name]), name


def test_hot_stream_is_95_percent_warm_keys():
    times, bodies = gen.hot_stream(5, 10.0)
    warm = {refs.body_key(b) for b in gen.hot_keys(5)}
    assert len(times) == len(bodies) == round(gen.HOT_RATE * 10.0)
    hits = sum(refs.body_key(b) in warm for b in bodies)
    assert hits == len(bodies) * 95 // 100


def test_busy_seconds_count_overlapping_operations_once():
    # an open loop's throughput is per busy second, so overlap and idle
    # gaps between requests must not count
    spans = [(3.0, 4.0), (0.0, 1.0), (0.5, 2.0), (1.5, 1.8)]
    assert drive.busy_seconds(spans) == 3.0


def test_every_metric_name_and_unit_is_well_formed():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    names += list(run.UNITS) + list(layers.NAMES) + list(WORKLOADS)
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in list(run.UNITS.values()) + list(layers.UNITS.values()):
        assert UNIT.fullmatch(unit), unit
    assert [m["name"] for m in benchmark["end_to_end"]] == list(run.E2E)
    assert [m["name"] for m in benchmark["per_layer"]] == list(layers.NAMES)
    assert {w["name"] for w in benchmark["workloads"]} <= set(WORKLOADS)


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_has_no_errors(workload):
    doc = _run("--workload", workload, "--seed", "3", "--seconds", "1.5")
    assert doc["correct"] is True
    assert doc["attempted"] >= 1
    assert doc["failed"] == 0
    assert list(doc["metrics"]) == list(run.E2E)
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_traced_smoke_run_reports_every_layer():
    doc = _run("--workload", "svc-cold", "--seed", "3", "--seconds", "1.5",
               "--trace", "1")
    assert doc["correct"] is True and doc["failed"] == 0
    assert list(doc["metrics"]) == list(layers.NAMES)
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    assert metrics["service.served_cached"] == 0
    assert metrics["dag.schedule.locality_s"] > metrics["dag.run_s"]
    assert metrics["dag.messages.locality"] < metrics["dag.messages.greedy"]


def test_a_corrupted_reference_counts_as_an_error(monkeypatch, tmp_path):
    real = refs.lib_reference

    def corrupted(program, f):
        ref = real(program, f)
        ref["time"] *= 1.0 + 1e-12
        return ref

    monkeypatch.setattr(refs, "lib_reference", corrupted)
    workload = LibDefault(Env(ROOT, tmp_path, seed=4, seconds=0.5))
    workload.setup()
    win = workload.window(0.5)
    workload.check(win)
    assert win.attempted >= 1
    assert len(win.failures) == win.attempted
    assert set(win.failures.values()) == {"time differs from the reference"}


def test_a_served_mismatch_counts_as_an_error():
    body = {"program": "reduce", "engine": "vec", "v": 8, "f": "x^0.5"}
    ref = refs.svc_reference(body)
    good = json.dumps({"result": ref}).encode()
    assert refs.svc_mismatch(200, good, None, ref) is None
    bad = dict(ref, time=ref["time"] + 1)
    assert refs.svc_mismatch(200, good, None, bad) is not None
    assert refs.svc_mismatch(503, good, None, ref) == "HTTP 503"


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "svc-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
