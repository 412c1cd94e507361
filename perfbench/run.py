"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lib-default --seed 1 --seconds 15
    python3 perfbench/run.py --workload all --seed 1 --seconds 15
    python3 perfbench/run.py --workload svc-hot --seed 1 --seconds 15 --trace 1

Every metric is printed on its own line with its unit and sample count;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, from an untraced run; ``--trace 1``
reports the per-layer metrics of the layer ladder.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import mean

import calib
import ladder
import layers
from spans import SpanLog
from stats import beyond, grouped_percentile, median, percentile
from tier import Tier, ratio
from workloads import WORKLOADS, Env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: a run that has not finished by then stops itself and fails
DEADLINE_S = 170
#: seconds of host-speed probing on either side of a set-up
PROBE_S = 0.2

UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
    "latency_p90_s": "s", "latency_p99_s": "s", "error_ratio": "ratio",
    "slo_ratio": "ratio", "charged_words_per_s": "words/s",
    "peak_rss_mb": "MiB",
}

#: latency percentiles are taken per group of this many consecutive
#: operations, and the median over the groups is reported
GROUP = 100

#: end-to-end metrics in the result line (the rest are printed only)
E2E = ("setup_s", "ops_per_s", "latency_p50_s", "latency_p90_s",
       "slo_ratio", "charged_words_per_s", "peak_rss_mb")


class Deadline(BaseException):
    """The run took too long.  A ``BaseException``, so no handler that
    counts a failed operation and carries on can swallow it."""


def _fail_on_deadline(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def _exit_on_term(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so tiers stop and scratch goes


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The program, the load generator and :func:`calib.probe` then share
    one core, so the probe sees the speed the program gets; spread over
    two cores of a shared host, the tier's processes ran at a speed the
    probe could not see.  Each workload issues one operation at a time,
    so one core costs it no parallelism.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def scaled_setup(setup) -> float:
    """``setup()``'s seconds, read at the reference host speed."""
    before = calib.span(PROBE_S)
    seconds = setup()
    return seconds * calib.REF_PROBE_S * 2 / (before + calib.span(PROBE_S))


def setup_probe(name: str, seed: int) -> float:
    """One library set-up in a fresh interpreter (imports included)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
    return float(proc.stdout.split()[-1])


def e2e_metrics(w, setups: list[float], win) -> list[tuple]:
    """``(name, value, note)`` for every end-to-end metric of a window.

    Every host time is read at the reference host speed
    (:mod:`calib`): each operation's latency is scaled by the probe
    taken around it.
    """
    samples = win.loop.samples
    n = len(samples)
    lat = [s.latency * calib.REF_PROBE_S / probe
           for s, probe in zip(samples, win.probes)]
    # busy seconds at the reference speed: a closed loop's are the sum of
    # its scaled latencies; an open loop's are scaled by its one factor
    busy = win.loop.busy * sum(lat) / sum(s.latency for s in samples)

    def pct(q: float) -> tuple[float, str]:
        value, k = grouped_percentile(lat, q, GROUP)
        where = f"n={n}" if k == 1 else f"median of {k} groups, n={n}"
        return value, f"{where}, {beyond(n // k, q)} beyond per group"

    within = sum(
        1 for s, latency in zip(samples, lat)
        if s.index not in win.failures and latency <= w.slo_s
    )
    speed = median(win.probes) / calib.REF_PROBE_S
    rows = [
        ("setup_s", median(setups), f"median of {len(setups)} set-ups"),
        ("ops_per_s", n / busy,
         f"{n} ops in {win.loop.busy:.2f} busy s, host at 1/{speed:.2f}"),
        ("latency_p50_s", *pct(50)),
        ("latency_p90_s", *pct(90)),
    ]
    if w.service:
        rows.append(("latency_p99_s", *pct(99)))
    rows += [
        ("error_ratio", len(win.failures) / n,
         f"{len(win.failures)} of {n} failed"),
        ("slo_ratio", within / n, f"limit {w.slo_s * 1000:g} ms, n={n}"),
        ("charged_words_per_s", win.words / busy, f"{win.words:.0f} words"),
        ("peak_rss_mb", win.rss_mb,
         "router + shards" if w.service else "bench process"),
    ]
    return rows


def run_e2e(w, env) -> tuple[list[tuple], int, int, list[str]]:
    if w.service:
        setups = [scaled_setup(w.setup) for _ in range(SETUP_REPEATS)]
    else:
        setups = [setup_probe(w.name, env.seed)
                  for _ in range(SETUP_REPEATS - 1)]
        setups.append(scaled_setup(w.setup))
    win = w.window(env.seconds)
    w.close()  # the references below run on a quiet host
    w.check(win)
    return (e2e_metrics(w, setups, win), win.attempted, len(win.failures),
            w.claims(win))


def run_traced(w, env) -> tuple[list[tuple], int, int, list[str]]:
    """A window with every other operation traced, then the ladder.

    Traced and untraced operations interleave, so host drift, which on a
    shared host is far larger than the cost of a span, cancels out of
    their ratio.
    """
    log = SpanLog()
    own_tier = None
    try:
        w.setup()
        win = w.window(env.seconds * 2 / 3, part=1, spans=log)
        values = {}
        values.update(ladder.lib_rungs(log, env.seed))
        values.update(ladder.scalar_rungs(log, env.seed))
        values.update(ladder.dag_rungs(log, env.seed))
        values.update(ladder.cold_rungs(log, env.seed, env.scratch))
        tier = w.tier if w.service else None
        if tier is None:
            tier = own_tier = Tier(env.root, env.scratch)
        hot, hot_counts = ladder.hot_rungs(log, env.seed, tier)
        values.update(hot)
    finally:
        if own_tier is not None:
            own_tier.stop()
        w.close()
    # the service counters describe the workload's own traffic where it
    # has any, and the ladder's router traffic otherwise
    counts = win.tier if w.service else hot_counts
    if w.service:
        plan = (win.tier["plan.hits"], win.tier["plan.misses"])
    else:
        plan = (win.plan["hits"], win.plan["misses"])
    values["sim.plan_cache.hit_ratio"] = ratio(*plan)
    values["service.cache.hit_ratio"] = ratio(
        counts["cache.hits"], counts["cache.misses"]
    )
    for key in ("service.served_computed", "service.served_cached",
                "service.served_coalesced", "service.rejected",
                "router.forwards", "router.failovers", "router.unavailable"):
        values[key] = counts[key]
    samples = win.loop.samples
    values["loadgen.late_p90_s"] = percentile([s.late for s in samples], 90)
    # untraced / traced ops_per_s, from the interleaved halves' latencies
    values["trace.overhead_ratio"] = (
        mean(s.latency for s in samples if s.index % 2)
        / mean(s.latency for s in samples if s.index % 2 == 0)
    )
    w.check(win)
    out_dir = env.root / ".perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    log.write_jsonl(out_dir / f"spans-{w.name}-{env.seed}.jsonl")
    rows = [(name, values[name], layers.NOTES[name]) for name in layers.NAMES]
    return rows, win.attempted, len(win.failures), w.claims(win)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })


def run_all(args) -> int:
    """Every workload, each in its own interpreter, so each one's peak
    RSS and warm caches are its own.  Metric names get the workload's
    name as a prefix."""
    metrics: dict = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            out, _ = proc.communicate(timeout=DEADLINE_S + 30)
        finally:
            if proc.poll() is None:  # SIGTERM, so the child stops its tier
                proc.terminate()
                proc.wait()
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name} failed with exit code {proc.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        doc = json.loads(lines[-1])
        correct = correct and doc["correct"]
        attempted += doc["attempted"]
        failed += doc["failed"]
        metrics.update(
            (f"{name}.{key}", value) for key, value in doc["metrics"].items()
        )
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {src}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    pin_to_one_cpu()
    signal.signal(signal.SIGTERM, _exit_on_term)
    # a shell that starts this in the background leaves SIGINT ignored,
    # and the tier, which stops on SIGINT, would inherit that
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.workload == "all":
        return run_all(args)

    scratch_root = ROOT / ".perfbench"
    if args.setup_probe:
        # library workloads only, whose set-up writes no files, so the
        # probe makes no scratch directory that a kill could leave behind
        env = Env(ROOT, scratch_root, args.seed, args.seconds)
        print(scaled_setup(WORKLOADS[args.workload](env).setup))
        return 0
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    env = Env(ROOT, scratch, args.seed, args.seconds)
    w = WORKLOADS[args.workload](env)

    signal.signal(signal.SIGALRM, _fail_on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        run = run_traced if args.trace else run_e2e
        try:
            rows, attempted, failed, problems = run(w, env)
        finally:
            w.close()
    finally:
        signal.alarm(0)
        shutil.rmtree(scratch, ignore_errors=True)
    keep = layers.NAMES if args.trace else E2E
    units = layers.UNITS if args.trace else UNITS
    metrics: dict = {}
    for metric, value, note in rows:
        unit = units[metric]
        print(f"{w.name:12s} {metric:28s} {value:>16.6g} {unit:8s} ({note})")
        if metric in keep:
            metrics[metric] = {"value": value, "unit": unit}
    for problem in problems:
        print(f"claim failed: {problem}")
    print(result_line(failed == 0 and not problems, attempted, failed,
                      metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
