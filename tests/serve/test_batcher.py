"""Tests for the micro-batching queue.

The load-bearing property: coalescing is a throughput optimisation with
zero effect on results — every sample's output is bit-identical to a
direct engine call, no matter how requests interleave across threads.
"""

import threading
import time

import numpy as np
import pytest

from repro.serve import (
    DeadlineExceeded,
    MicroBatcher,
    ServiceMetrics,
    ServiceOverloaded,
)


def double(x):
    return x * 2.0


class TestMicroBatcher:
    def test_single_submit_roundtrip(self):
        with MicroBatcher(double, max_batch=4, max_wait_ms=1.0) as batcher:
            x = np.arange(12.0).reshape(1, 3, 2, 2)
            out = batcher.submit(x).result(timeout=5)
        np.testing.assert_array_equal(out, (x * 2.0)[0])

    def test_accepts_unbatched_sample(self):
        with MicroBatcher(double, max_batch=2, max_wait_ms=0.5) as batcher:
            out = batcher.infer(np.ones((1, 4, 4)))
        assert out.shape == (1, 4, 4)

    def test_rejects_multi_sample_input(self):
        with MicroBatcher(double) as batcher:
            with pytest.raises(ValueError):
                batcher.submit(np.ones((2, 1, 4, 4)))

    def test_coalesces_up_to_max_batch(self):
        metrics = ServiceMetrics()
        sizes = []

        def record(x):
            sizes.append(x.shape[0])
            time.sleep(0.01)  # let the queue fill while "inferring"
            return x

        with MicroBatcher(record, max_batch=8, max_wait_ms=50.0,
                          metrics=metrics) as batcher:
            futures = [batcher.submit(np.full((1, 1, 2, 2), float(i)))
                       for i in range(20)]
            results = [f.result(timeout=10) for f in futures]
        assert max(sizes) > 1  # coalescing happened
        assert all(size <= 8 for size in sizes)  # cap respected
        assert sum(sizes) == 20
        assert metrics["batches_total"] == len(sizes)
        for i, out in enumerate(results):  # order preserved
            np.testing.assert_array_equal(out, np.full((1, 2, 2), float(i)))

    def test_zero_wait_degenerates_to_per_request(self):
        sizes = []

        def record(x):
            sizes.append(x.shape[0])
            return x

        with MicroBatcher(record, max_batch=64, max_wait_ms=0.0) as batcher:
            for i in range(5):
                batcher.infer(np.full((1, 1, 2, 2), float(i)))
        assert sizes == [1] * 5

    def test_infer_fn_exception_propagates(self):
        def boom(x):
            raise RuntimeError("engine on fire")

        with MicroBatcher(boom, max_wait_ms=0.0) as batcher:
            future = batcher.submit(np.ones((1, 1, 2, 2)))
            with pytest.raises(RuntimeError, match="engine on fire"):
                future.result(timeout=5)

    def test_close_drains_and_rejects_new_work(self):
        batcher = MicroBatcher(double, max_batch=4, max_wait_ms=1.0)
        futures = [batcher.submit(np.full((1, 1, 2, 2), float(i)))
                   for i in range(6)]
        batcher.close()
        for i, future in enumerate(futures):
            np.testing.assert_array_equal(
                future.result(timeout=5), np.full((1, 2, 2), 2.0 * i)
            )
        with pytest.raises(RuntimeError):
            batcher.submit(np.ones((1, 1, 2, 2)))
        batcher.close()  # idempotent

    def test_malformed_submit_fails_at_the_door(self):
        """Shape/dtype mismatches raise in the caller, never poison the
        consumer-thread concatenate of co-batched requests."""
        with MicroBatcher(double, max_batch=8, max_wait_ms=20.0) as batcher:
            good = batcher.submit(np.ones((1, 1, 4, 4)))
            with pytest.raises(ValueError, match="contract"):
                batcher.submit(np.ones((1, 1, 8, 8)))  # wrong shape
            with pytest.raises(ValueError, match="contract"):
                batcher.submit(np.ones((1, 1, 4, 4), dtype=np.float32))
            with pytest.raises(ValueError, match="numeric"):
                batcher.submit(np.array([[["a"] * 4] * 4]))
            np.testing.assert_array_equal(
                good.result(timeout=5), np.full((1, 4, 4), 2.0)
            )

    def test_poison_request_quarantined_by_bisection(self):
        """One poison clip in a coalesced batch fails alone; every
        healthy co-batched request still gets its exact result."""

        def poison_fn(x):
            if np.any(x == 7.0):
                raise RuntimeError("poison clip")
            return x * 10.0

        metrics = ServiceMetrics()
        with MicroBatcher(poison_fn, max_batch=16, max_wait_ms=50.0,
                          metrics=metrics) as batcher:
            futures = [batcher.submit(np.full((1, 1, 2, 2), float(i)))
                       for i in range(10)]
            for i, future in enumerate(futures):
                if i == 7:
                    with pytest.raises(RuntimeError, match="poison clip"):
                        future.result(timeout=10)
                else:
                    np.testing.assert_array_equal(
                        future.result(timeout=10),
                        np.full((1, 2, 2), 10.0 * i),
                    )
        assert metrics["quarantined_total"] == 1
        assert metrics["batch_splits_total"] >= 1

    def test_shed_policy_raises_typed_overload(self):
        release = threading.Event()

        def slow(x):
            release.wait(10)
            return x

        metrics = ServiceMetrics()
        batcher = MicroBatcher(slow, max_batch=1, max_wait_ms=0.0,
                               metrics=metrics, queue_depth=1,
                               overflow="shed")
        try:
            first = batcher.submit(np.ones((1, 2, 2)))
            time.sleep(0.05)  # consumer picks up `first`, blocks in slow()
            queued = batcher.submit(np.ones((1, 2, 2)))  # fills the queue
            with pytest.raises(ServiceOverloaded):
                batcher.submit(np.ones((1, 2, 2)))
            assert metrics["shed_total"] == 1
        finally:
            release.set()
            batcher.close()
        assert first.result(timeout=5) is not None
        assert queued.result(timeout=5) is not None

    def test_block_policy_admission_deadline(self):
        release = threading.Event()

        def slow(x):
            release.wait(10)
            return x

        batcher = MicroBatcher(slow, max_batch=1, max_wait_ms=0.0,
                               queue_depth=1, overflow="block")
        try:
            batcher.submit(np.ones((1, 2, 2)))
            time.sleep(0.05)
            batcher.submit(np.ones((1, 2, 2)))
            with pytest.raises(DeadlineExceeded) as excinfo:
                batcher.submit(np.ones((1, 2, 2)), timeout=0.1)
            assert excinfo.value.stage == "admission"
        finally:
            release.set()
            batcher.close()

    def test_queued_request_expires_at_its_deadline(self):
        release = threading.Event()

        def slow(x):
            release.wait(10)
            return x

        metrics = ServiceMetrics()
        batcher = MicroBatcher(slow, max_batch=1, max_wait_ms=0.0,
                               metrics=metrics)
        try:
            batcher.submit(np.ones((1, 2, 2)))  # occupies the consumer
            time.sleep(0.05)
            stale = batcher.submit(np.ones((1, 2, 2)), timeout=0.05)
            time.sleep(0.1)  # deadline passes while queued
            release.set()
            with pytest.raises(DeadlineExceeded):
                stale.result(timeout=5)
            assert metrics["timeouts_total"] == 1
        finally:
            release.set()
            batcher.close()

    def test_infer_timeout_on_hung_engine(self):
        release = threading.Event()

        def hung(x):
            release.wait(10)
            return x

        batcher = MicroBatcher(hung, max_batch=1, max_wait_ms=0.0)
        try:
            started = time.perf_counter()
            with pytest.raises(DeadlineExceeded):
                batcher.infer(np.ones((1, 2, 2)), timeout=0.1)
            assert time.perf_counter() - started < 5.0
        finally:
            release.set()
            batcher.close()

    def test_close_raises_when_consumer_is_wedged(self):
        release = threading.Event()

        def hung(x):
            release.wait(30)
            return x

        batcher = MicroBatcher(hung, max_batch=1, max_wait_ms=0.0)
        batcher.submit(np.ones((1, 2, 2)))
        time.sleep(0.05)
        with pytest.raises(RuntimeError, match="failed to stop"):
            batcher.close(timeout=0.2)
        release.set()
        batcher.close(timeout=5.0)  # drains cleanly once unwedged

    def test_blocked_submit_never_wedges_other_submitters_or_close(self):
        """A full queue under a wedged consumer stalls only the blocked
        submitter.  The batcher lock is never held while waiting for a
        slot, so concurrent submits keep their own deadlines and
        ``close()`` still runs and reports the wedge (regression:
        ``submit()`` used to hold the lock across a blocking queue put,
        deadlocking every other submitter and ``close()`` itself).
        """
        release = threading.Event()

        def hung(x):
            release.wait(30)
            return x

        batcher = MicroBatcher(hung, max_batch=1, max_wait_ms=0.0,
                               queue_depth=1, overflow="block")
        outcome: dict = {}
        try:
            batcher.submit(np.ones((1, 2, 2)))  # consumer takes it, wedges
            time.sleep(0.05)
            batcher.submit(np.ones((1, 2, 2)))  # fills the depth-1 queue

            def blocked_forever():
                try:
                    batcher.submit(np.ones((1, 2, 2)))  # no deadline
                except RuntimeError as exc:
                    outcome["error"] = exc

            thread = threading.Thread(target=blocked_forever)
            thread.start()
            time.sleep(0.05)
            # another submitter's own deadline still fires on time
            started = time.perf_counter()
            with pytest.raises(DeadlineExceeded):
                batcher.submit(np.ones((1, 2, 2)), timeout=0.1)
            assert time.perf_counter() - started < 2.0
            # and close() is not blocked out of the lock: it flips the
            # closed flag and reports the wedged consumer promptly
            started = time.perf_counter()
            with pytest.raises(RuntimeError, match="failed to stop"):
                batcher.close(timeout=0.2)
            assert time.perf_counter() - started < 2.0
            # the deadline-less blocked submitter loses the race cleanly
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert isinstance(outcome.get("error"), RuntimeError)
        finally:
            release.set()
            batcher.close(timeout=10.0)  # drains cleanly once unwedged

    def test_infer_deadline_covers_admission_and_wait_once(self):
        """``infer(timeout=t)`` is one budget end to end: time spent
        blocked on admission is subtracted from the result wait
        (regression: the two stages each got the full ``t``, so the
        documented bound was ~2x in the worst case)."""

        def slow(x):
            time.sleep(0.6)
            return x

        batcher = MicroBatcher(slow, max_batch=1, max_wait_ms=0.0,
                               queue_depth=1, overflow="block")
        try:
            batcher.submit(np.ones((1, 2, 2)))  # consumer busy ~0.6s
            time.sleep(0.05)
            batcher.submit(np.ones((1, 2, 2)))  # queue full: admission blocks
            started = time.perf_counter()
            with pytest.raises(DeadlineExceeded):
                batcher.infer(np.ones((1, 2, 2)), timeout=0.9)
            # admission ate ~0.6s of the 0.9s budget; the old code then
            # waited a further full 0.9s on the future (~1.5s total)
            assert time.perf_counter() - started < 1.2
        finally:
            batcher.close(timeout=10.0)

    def test_deterministic_under_concurrent_submission(self):
        """Same request set -> same outputs, however batches coalesce.

        Eight threads hammer the batcher with interleaved submissions;
        every sample's result must equal the serial reference exactly,
        across runs with different max_batch/max_wait coalescing.
        """
        rng = np.random.default_rng(7)
        samples = rng.normal(size=(48, 1, 1, 4, 4))
        reference = [double(s)[0] for s in samples]

        for max_batch, max_wait_ms in ((1, 0.0), (4, 2.0), (64, 10.0)):
            results = [None] * len(samples)
            with MicroBatcher(double, max_batch=max_batch,
                              max_wait_ms=max_wait_ms) as batcher:

                def worker(indices):
                    for i in indices:
                        results[i] = batcher.submit(samples[i]).result(10)

                threads = [
                    threading.Thread(target=worker,
                                     args=(range(k, len(samples), 8),))
                    for k in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            for out, ref in zip(results, reference):
                np.testing.assert_array_equal(out, ref)

    def test_stress_concurrent_submits_and_close_loses_nothing(self):
        """Submitters hammer the batcher while close() races them.

        Every submit must either be rejected cleanly (RuntimeError: the
        batcher closed first) or produce a future that resolves with
        the correct value — no hangs, no futures stranded forever.
        """
        accepted: list = []
        rejected = [0]
        lock = threading.Lock()
        batcher = MicroBatcher(double, max_batch=8, max_wait_ms=0.5,
                               queue_depth=64, overflow="block")

        def submitter(worker: int):
            for i in range(200):
                value = float(worker * 1000 + i)
                try:
                    future = batcher.submit(
                        np.full((1, 1, 2, 2), value), timeout=10.0
                    )
                except RuntimeError:  # closed (or shed): clean rejection
                    with lock:
                        rejected[0] += 1
                    return
                with lock:
                    accepted.append((value, future))

        threads = [threading.Thread(target=submitter, args=(k,))
                   for k in range(6)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        batcher.close(timeout=30.0)
        for t in threads:
            t.join(timeout=30.0)
            assert not t.is_alive(), "submitter thread hung"
        assert accepted, "close() won the race before any submit landed"
        resolved = 0
        for value, future in accepted:
            # every accepted future must resolve promptly: either the
            # correct doubled result or a clean deadline rejection
            try:
                out = future.result(timeout=10.0)
            except DeadlineExceeded:
                continue
            np.testing.assert_array_equal(
                out, np.full((1, 2, 2), value * 2.0)
            )
            resolved += 1
        assert resolved > 0
