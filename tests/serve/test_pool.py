"""Tests for the scan worker pool's sharding arithmetic and mapping."""

import threading
import time

import numpy as np
import pytest

from repro.serve.errors import DeadlineExceeded
from repro.serve.pool import WorkerPool, shard_slices


class TestShardSlices:
    def test_even_split(self):
        assert shard_slices(8, 4) == [
            slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 8)
        ]

    def test_uneven_split_front_loads_remainder(self):
        slices = shard_slices(10, 3)
        sizes = [s.stop - s.start for s in slices]
        assert sizes == [4, 3, 3]
        assert slices[0].start == 0 and slices[-1].stop == 10

    def test_zero_items_yields_no_shards(self):
        assert shard_slices(0, 4) == []

    def test_more_shards_than_items_drops_empties(self):
        slices = shard_slices(3, 8)
        assert len(slices) == 3
        assert all(s.stop - s.start == 1 for s in slices)

    def test_covers_range_without_gaps(self):
        for n_items in (1, 5, 17, 100):
            for n_shards in (1, 2, 7, 200):
                covered = []
                for s in shard_slices(n_items, n_shards):
                    covered.extend(range(n_items)[s])
                assert covered == list(range(n_items))


def flat(outcomes):
    """Concatenate tolerant-map results in shard order (all must be ok)."""
    assert all(o.ok for o in outcomes)
    return [r for o in outcomes for r in o.results]


class TestMapShards:
    @pytest.fixture
    def pool(self):
        with WorkerPool(workers=4) as pool:
            yield pool

    def test_flattens_in_order(self, pool):
        items = list(range(23))
        out = flat(pool.map_shards_tolerant(
            lambda shard: [x * 2 for x in shard], items
        ))
        assert out == [x * 2 for x in items]

    def test_empty_items(self, pool):
        """Empty non-list sequences too (no truthiness traps)."""
        assert pool.map_shards_tolerant(lambda s: list(s), range(0)) == []
        assert pool.map_shards_tolerant(lambda s: s.tolist(),
                                        np.empty(0)) == []

    def test_more_shards_than_items(self, pool):
        outcomes = pool.map_shards_tolerant(
            lambda shard: list(shard), [1, 2], shards=10
        )
        assert [(o.start, o.stop) for o in outcomes] == [(0, 1), (1, 2)]
        assert flat(outcomes) == [1, 2]

    def test_non_list_sequences(self, pool):
        """range, tuple and numpy arrays all shard (no truthiness traps)."""
        assert flat(pool.map_shards_tolerant(
            lambda s: [x + 1 for x in s], range(9)
        )) == list(range(1, 10))
        assert flat(pool.map_shards_tolerant(
            lambda s: list(s), (4, 5, 6)
        )) == [4, 5, 6]
        arr = np.arange(11)
        assert flat(pool.map_shards_tolerant(
            lambda s: s.tolist(), arr
        )) == arr.tolist()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)


class TestShardFailures:
    def test_single_shard_failure_also_attributed(self):
        with WorkerPool(workers=1) as pool:
            outcomes = pool.map_shards_tolerant(
                lambda s: 1 // 0, [1, 2, 3], retries=0
            )
        assert [(o.start, o.stop, o.ok) for o in outcomes] == [(0, 3, False)]
        assert isinstance(outcomes[0].error, ZeroDivisionError)


class TestMapShardsTolerant:
    @pytest.fixture
    def pool(self):
        with WorkerPool(workers=4) as pool:
            yield pool

    def test_partial_failure_keeps_healthy_shards(self, pool):
        def fn(shard):
            if 5 in shard:
                raise ValueError("bad shard")
            return [x * 2 for x in shard]

        outcomes = pool.map_shards_tolerant(fn, list(range(16)), retries=0)
        assert [(o.start, o.stop, o.ok) for o in outcomes] == [
            (0, 4, True), (4, 8, False), (8, 12, True), (12, 16, True)
        ]
        assert outcomes[0].results == [0, 2, 4, 6]
        assert isinstance(outcomes[1].error, ValueError)
        assert outcomes[1].results is None

    def test_retry_heals_transient_failure(self, pool):
        failed_once = threading.Event()

        def flaky(shard):
            if 5 in shard and not failed_once.is_set():
                failed_once.set()
                raise ValueError("transient")
            return [x * 2 for x in shard]

        outcomes = pool.map_shards_tolerant(flaky, list(range(16)), retries=1)
        assert all(o.ok for o in outcomes)
        assert outcomes[1].retries == 1
        assert outcomes[1].results == [8, 10, 12, 14]

    def test_persistent_failure_exhausts_retries(self, pool):
        attempts = []

        def broken(shard):
            if 5 in shard:
                attempts.append(1)
                raise ValueError("persistent")
            return list(shard)

        outcomes = pool.map_shards_tolerant(broken, list(range(16)), retries=2)
        assert not outcomes[1].ok
        assert outcomes[1].retries == 2
        assert len(attempts) == 3  # initial run + two retries

    def test_timeout_fails_pending_shards_only(self, pool):
        release = threading.Event()

        def mixed(shard):
            if shard[0] >= 8:
                release.wait(10)  # the back half hangs
            return list(shard)

        started = time.perf_counter()
        try:
            outcomes = pool.map_shards_tolerant(
                mixed, list(range(16)), timeout=0.3
            )
        finally:
            release.set()
        assert time.perf_counter() - started < 5.0
        assert outcomes[0].ok and outcomes[1].ok
        assert not outcomes[2].ok and not outcomes[3].ok
        assert isinstance(outcomes[2].error, DeadlineExceeded)

    def test_empty_items(self, pool):
        assert pool.map_shards_tolerant(lambda s: list(s), []) == []


class TestClose:
    def test_close_bounded_when_worker_wedged(self):
        """A shard abandoned by a timed-out map cannot block ``close()``
        forever: the leak surfaces as ``RuntimeError`` within the close
        timeout (regression: ``close()`` used ``shutdown(wait=True)``
        and hung on the wedged thread, so a service that survived a
        ``DeadlineExceeded`` scan could never shut down)."""
        release = threading.Event()

        def wedge(shard):
            release.wait(30)
            return list(shard)

        pool = WorkerPool(workers=1)
        try:
            outcomes = pool.map_shards_tolerant(
                wedge, list(range(4)), timeout=0.1
            )
            assert [o.ok for o in outcomes] == [False]
            started = time.perf_counter()
            with pytest.raises(RuntimeError, match="failed to stop"):
                pool.close(timeout=0.2)
            assert time.perf_counter() - started < 2.0
        finally:
            release.set()
            pool.close(timeout=10.0)  # joins cleanly once unwedged
