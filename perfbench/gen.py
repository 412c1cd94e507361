"""Seeded input generators for the four workloads.

Every generator is a pure function of ``(seed, ...)``: the same seed
gives a byte-identical input stream, and nothing here imports the
program under test.  Mixes are *stratified*: each block of consecutive
inputs holds a fixed number of each kind in a seeded order, so the mix a
run measures does not drift with the seed and run-to-run spread comes
from the host, not from the draw.
"""

from __future__ import annotations

import random

#: lib-default: the researcher's default call, ``repro.run(p, "vec", f)``
LIB_PROGRAMS = ("sort", "fft-rec")
LIB_FUNCTIONS = ("x^0.5", "x^0.3", "log")
LIB_V = 1024
#: copies of each program's inputs per block of the mix
LIB_WEIGHTS = {"sort": 2, "fft-rec": 1}
LIB_BLOCK = len(LIB_FUNCTIONS) * sum(LIB_WEIGHTS.values())

#: dag-compare: the three pseudo-streaming generators at 256+ tasks
#: (partitions > v, where the two heuristics separate)
DAG_GENERATORS = ("stream-scan", "stream-stencil", "stream-reduce")
DAG_PARAMS = {"epochs": 8, "partitions": 32, "chunk": 8}
DAG_V = 16
DAG_HEURISTICS = ("locality", "greedy")
DAG_F = "x^0.5"

#: svc-hot: 16 warm keys (rank -> program fixed, ``f`` seeded), Zipf(1)
HOT_KEYS = 16
HOT_PROGRAMS = ("sort", "fft-rec", "reduce", "broadcast")
HOT_V = 64
HOT_RATE = 350.0
#: per block of 100 requests: 95 warm-key requests whose rank counts
#: follow Zipf(1), and 5 unique computes
HOT_BLOCK = 100
HOT_UNIQUE = 5

#: svc-cold: every key unique; each block of 20 requests holds 12 vec
#: cells (60%), hmm, bt and brent on sort and fft-rec at v=64 (30%) and
#: 2 greedy stream-scan DAGs (10%).  vec matmul at v=256 is the slowest
#: request by 2x or more; three per block put the p90 inside its latency
#: spread rather than on the step between it and the next-slowest kind,
#: where a small shift of either moves the p90 a long way.
COLD_VEC_CELLS = {
    ("sort", 64): 2, ("sort", 256): 2,
    ("fft-rec", 64): 2, ("fft-rec", 256): 2,
    ("matmul", 64): 1, ("matmul", 256): 3,
}
COLD_SCALAR_ENGINES = ("hmm", "bt", "brent")
COLD_SCALAR_PROGRAMS = ("sort", "fft-rec")
COLD_DAGS = 2
COLD_DAG = {
    "kind": "dag",
    "workload": "stream-scan",
    "params": {"epochs": 4, "partitions": 16, "chunk": 8},
    "heuristic": "greedy",
    "v": 8,
}


def stream_rng(workload: str, seed: int, part: int = 0) -> random.Random:
    """The generator for one stream; ``part`` separates the streams drawn
    from one seed (end-to-end window 0, traced window 1, ladder 9)."""
    # string seeds hash through sha512: stable across processes and hosts
    return random.Random(f"perfbench:{workload}:{seed}:{part}")


def exponent_spec(rng: random.Random, used: set[str]) -> str:
    """A fresh ``x^A`` spec (0.1 < A < 0.9) not in ``used``.

    Twelve digits make a collision within one run vanishingly rare; the
    ``used`` set makes it impossible, so every such key is unique.
    """
    while True:
        spec = f"x^{0.1 + 0.8 * rng.random():.12f}"
        if spec not in used:
            used.add(spec)
            return spec


def lib_inputs(seed: int, n: int, part: int = 0) -> list[tuple[str, str]]:
    """``n`` ``(program, f)`` pairs in blocks of nine: each sort input
    twice and each fft-rec input once, in a seeded order.

    fft-rec runs take about two thirds as long as sort runs.  Half and
    half would put the median on the step between the two; two to one
    puts it, and the p90, inside the spread of sort runs.
    """
    rng = stream_rng("lib-default", seed, part)
    block = [(p, f) for p in LIB_PROGRAMS for f in LIB_FUNCTIONS
             for _ in range(LIB_WEIGHTS[p])]
    out: list[tuple[str, str]] = []
    while len(out) < n:
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


def dag_inputs(seed: int, n: int, part: int = 0) -> list[str]:
    """``n`` generator names: seeded permutations of all three."""
    rng = stream_rng("dag-compare", seed, part)
    out: list[str] = []
    while len(out) < n:
        block = list(DAG_GENERATORS)
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


def arrivals(rng: random.Random, rate: float, seconds: float) -> list[float]:
    """A Poisson arrival schedule conditioned on its count.

    Exactly ``round(rate * seconds)`` arrivals, uniform over the window
    and sorted — a Poisson process given its count — so the offered
    load is the same on every seed and only the spacing varies.
    """
    n = max(1, round(rate * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(n))


def hot_keys(seed: int) -> list[dict]:
    """The 16 warm request bodies.

    Rank ``k`` always runs program ``k mod 4`` at exponent
    ``0.2 + 0.04 k`` plus a seeded shift below 1e-4: each seed gets its
    own keys, while the charged work behind each rank (which depends on
    the exponent) stays put.
    """
    rng = stream_rng("svc-hot-keys", seed)
    return [
        {
            "program": HOT_PROGRAMS[k % len(HOT_PROGRAMS)],
            "engine": "vec",
            "v": HOT_V,
            "f": f"x^{0.2 + 0.04 * k + 1e-4 * rng.random():.12f}",
        }
        for k in range(HOT_KEYS)
    ]


def hot_ranks() -> list[int]:
    """One block of warm-key ranks: counts proportional to Zipf(1)."""
    weights = [1.0 / (k + 1) for k in range(HOT_KEYS)]
    warm = HOT_BLOCK - HOT_UNIQUE
    counts = [max(1, round(w * warm / sum(weights))) for w in weights]
    counts[0] += warm - sum(counts)
    return [k for k, c in enumerate(counts) for _ in range(c)]


def hot_stream(seed: int, seconds: float, part: int = 0):
    """``(schedule, bodies)`` for one svc-hot window."""
    rng = stream_rng("svc-hot", seed, part)
    keys = hot_keys(seed)
    ranks = hot_ranks()
    used = {body["f"] for body in keys}
    times = arrivals(rng, HOT_RATE, seconds)
    bodies: list[dict] = []
    while len(bodies) < len(times):
        block = [dict(keys[k]) for k in ranks]
        block += [
            {"program": "reduce", "engine": "vec", "v": HOT_V,
             "f": exponent_spec(rng, used)}
            for _ in range(HOT_UNIQUE)
        ]
        rng.shuffle(block)
        bodies.extend(block)
    return times, bodies[: len(times)]


def cold_block(rng: random.Random, used: set[str]) -> list[dict]:
    """One stratified block of twenty unique svc-cold request bodies."""
    block = [
        {"program": p, "engine": "vec", "v": v, "f": exponent_spec(rng, used)}
        for (p, v), count in COLD_VEC_CELLS.items() for _ in range(count)
    ]
    block += [
        {"program": p, "engine": e, "v": 64, "f": exponent_spec(rng, used)}
        for e in COLD_SCALAR_ENGINES for p in COLD_SCALAR_PROGRAMS
    ]
    block += [
        dict(COLD_DAG, params=dict(COLD_DAG["params"]),
             f=exponent_spec(rng, used))
        for _ in range(COLD_DAGS)
    ]
    rng.shuffle(block)
    return block


def cold_inputs(seed: int, n: int, part: int = 0) -> list[dict]:
    """``n`` svc-cold request bodies; every key unique."""
    return cold_bodies(stream_rng("svc-cold", seed, part), n)


def cold_bodies(rng: random.Random, n: int) -> list[dict]:
    """``n`` unique svc-cold bodies, whole stratified blocks first."""
    used: set[str] = set()
    bodies: list[dict] = []
    while len(bodies) < n:
        bodies.extend(cold_block(rng, used))
    return bodies[:n]


def cold_warmup() -> list[dict]:
    """Fixed warm-up bodies: one per engine/kind, at exponents the
    seeded streams never produce (they draw A with twelve digits), so
    warming the code paths never pre-stores a measured key."""
    bodies = [
        {"program": p, "engine": "vec", "v": v, "f": "x^0.5"}
        for p, v in COLD_VEC_CELLS
    ]
    bodies += [
        {"program": p, "engine": e, "v": 64, "f": "x^0.5"}
        for e in COLD_SCALAR_ENGINES for p in COLD_SCALAR_PROGRAMS
    ]
    bodies.append(dict(COLD_DAG, params=dict(COLD_DAG["params"]), f="x^0.5"))
    return bodies
