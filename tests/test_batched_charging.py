"""Batched charging must be bit-identical to scalar charging.

The vectorized cost kernels (``CostTable.access_many`` / ``fold_access``,
``HMMMachine.touch_addresses``) exist purely as wall-clock optimizations:
every charged total they produce must equal — to the last ulp — the value
the scalar ``read``/``access`` loop would have produced, and every
counter must advance by the same amount.  These tests pin that down
across the access-function zoo with randomized address batches, plus the
large-table numpy path and the vectorization-fallback warning.
"""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest

from repro.functions import (
    AccessFunction,
    ConstantAccess,
    CostTable,
    LinearAccess,
    LogarithmicAccess,
    PolynomialAccess,
    StaircaseAccess,
    VectorizationWarning,
)
from repro.functions import _SCALAR_LIST_MAX
from repro.hmm.machine import HMMMachine

FUNCTIONS = [
    PolynomialAccess(0.5),
    PolynomialAccess(0.25),
    LogarithmicAccess(),
    StaircaseAccess(),
    LinearAccess(),
    ConstantAccess(),
]

IDS = [f.name for f in FUNCTIONS]


def _random_batches(size: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    batches = [
        [],  # empty batch: charging must be a no-op on time
        [0],
        [size - 1],
        [rng.randrange(size) for _ in range(37)],  # repeats allowed
        sorted(rng.randrange(size) for _ in range(64)),
        [size - 1 - rng.randrange(size // 2) for _ in range(51)],
    ]
    return batches


class TestFoldAccessEqualsScalarLoop:
    @pytest.mark.parametrize("f", FUNCTIONS, ids=IDS)
    def test_fold_matches_scalar_fold(self, f: AccessFunction):
        size = 1 << 10
        table = CostTable.shared(f, size)
        t = 7.25  # arbitrary non-trivial starting clock
        for xs in _random_batches(size, seed=hash(f.name) & 0xFFFF):
            expected = t
            for x in xs:
                expected += table.access(x)
            got = table.fold_access(t, xs)
            assert got == expected  # bitwise, not approx
            t = got  # chain: later batches start from earlier sums

    @pytest.mark.parametrize("f", FUNCTIONS, ids=IDS)
    def test_access_many_matches_access(self, f: AccessFunction):
        size = 1 << 10
        table = CostTable.shared(f, size)
        xs = _random_batches(size, seed=1234)[3]
        many = table.access_many(xs)
        assert many.dtype == np.float64
        for x, cost in zip(xs, many):
            assert cost == table.access(x)

    @pytest.mark.parametrize("f", FUNCTIONS, ids=IDS)
    def test_range_costs_match_range_cost(self, f: AccessFunction):
        size = 1 << 10
        table = CostTable.shared(f, size)
        rng = random.Random(4321)
        lo = [rng.randrange(size) for _ in range(50)] + [0, size]
        hi = [x + rng.randrange(size - x + 1) for x in lo]
        many = table.range_costs(lo, hi)
        for a, b, cost in zip(lo, hi, many):
            assert cost == table.range_cost(a, b)
        with pytest.raises(IndexError):
            table.range_costs([0, 5], [3, size + 1])
        with pytest.raises(IndexError):
            table.range_costs([4], [3])

    def test_ndarray_input_takes_numpy_path_identically(self):
        table = CostTable.shared(PolynomialAccess(0.5), 1 << 10)
        xs = [3, 9, 511, 511, 17, 0]
        assert table.fold_access(1.5, np.asarray(xs)) == table.fold_access(
            1.5, xs
        )

    def test_large_table_numpy_path_matches_scalar(self):
        # tables beyond _SCALAR_LIST_MAX drop the Python mirrors and all
        # folds run through the cumsum path — still bit-identical
        size = _SCALAR_LIST_MAX + 2
        table = CostTable(PolynomialAccess(0.5), size)
        assert table._cost_list is None
        rng = random.Random(99)
        xs = [rng.randrange(size) for _ in range(41)]
        expected = 2.0
        for x in xs:
            expected += table.access(x)
        assert table.fold_access(2.0, xs) == expected

    def test_bounds_are_validated_batchwise(self):
        table = CostTable.shared(PolynomialAccess(0.5), 64)
        with pytest.raises(IndexError):
            table.fold_access(0.0, [1, 2, 64])
        with pytest.raises(IndexError):
            table.fold_access(0.0, [-1])
        with pytest.raises(IndexError):
            table.access_many([0, 70])


class TestTouchAddressesEqualsScalarReads:
    @pytest.mark.parametrize("f", FUNCTIONS, ids=IDS)
    def test_machine_time_and_counters_match(self, f: AccessFunction):
        size = 512
        rng = random.Random(7)
        xs = [rng.randrange(size) for _ in range(100)]

        scalar = HMMMachine(f, size)
        for x in xs:
            scalar.read(x)

        batched = HMMMachine(f, size)
        batched.touch_addresses(xs)

        assert batched.time == scalar.time  # bitwise
        assert batched.counters.snapshot() == scalar.counters.snapshot()

    def test_empty_batch_is_a_noop_on_time(self):
        machine = HMMMachine(PolynomialAccess(0.5), 64)
        before = machine.time
        machine.touch_addresses([])
        assert machine.time == before


class TestVectorizationFallback:
    def test_unvectorized_function_warns_but_is_correct(self):
        class Sqrtish(AccessFunction):
            name = "sqrtish"

            def __call__(self, x: float) -> float:
                return (x + 1.0) ** 0.5

        with pytest.warns(VectorizationWarning, match="evaluate"):
            table = CostTable(Sqrtish(), 256)
        vectorized = CostTable(PolynomialAccess(0.5), 256)
        # frompyfunc fallback evaluates the same scalar expression:
        # identical table contents, just slower to build
        for x in (0, 1, 17, 255):
            assert table.access(x) == vectorized.access(x)

    def test_builtin_functions_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", VectorizationWarning)
            for f in FUNCTIONS:
                CostTable(f, 128)
