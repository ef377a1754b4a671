"""Durability contract of :class:`repro.chip.DurableChipScan`.

Kill a journaled scan anywhere — a tile boundary, mid-journal-write —
and resuming produces a heatmap bit-identical to an uninterrupted run;
transient faults recover within the retry bounds with a deterministic
backoff schedule; a persistent poison window is bisected down to a
one-window quarantine.
"""

import os
import signal

import numpy as np
import pytest

from repro.binary.inference import ProgramEngine
from repro.chip import (
    ChipScanner,
    DurableChipScan,
    JournalCorruptError,
    JournalMismatchError,
    RetryPolicy,
    ScanPreemptedError,
    read_journal,
    snapshot_journal,
)
from repro.chip.tiling import TileSpec
from repro.litho.fullchip import synthesize_chip
from repro.models.bnn_resnet import build_bnn_resnet
from repro.serve import FaultInjector

SIZE = 4096
WINDOW = 512
STRIDE = 256
IMAGE = 16
# two windows per tile axis -> a 5x5 tile grid at this geometry
BUDGET = (2 * IMAGE) ** 2 * 8

FAST = RetryPolicy(max_retries=2, base_delay_s=0.0, max_delay_s=0.0,
                   retry_budget=32, seed=0)


class KilledScan(RuntimeError):
    """Simulated crash raised from the tile hook."""


@pytest.fixture(scope="module")
def engine():
    rng = np.random.default_rng(99)
    model = build_bnn_resnet((4, 8), scaling="xnor", seed=3)
    x = (rng.random((8, 1, IMAGE, IMAGE)) > 0.5) * 2.0 - 1.0
    model.forward(x, training=True)
    return ProgramEngine(model)


@pytest.fixture(scope="module")
def layout():
    return synthesize_chip(SIZE, seed=11)


@pytest.fixture(scope="module")
def reference(engine, layout):
    return ChipScanner(engine, IMAGE).scan(
        layout, WINDOW, STRIDE, BUDGET
    ).heatmap.scores


def durable(engine, layout, journal, faults=None, **kwargs):
    kwargs.setdefault("policy", FAST)
    return DurableChipScan(
        ChipScanner(engine, IMAGE, faults=faults), layout,
        WINDOW, STRIDE, BUDGET, journal=journal, **kwargs
    )


class TestDurableScan:
    def test_uninterrupted_matches_plain_scan(
        self, engine, layout, reference, tmp_path
    ):
        path = tmp_path / "scan.journal"
        result = durable(engine, layout, path).run()
        np.testing.assert_array_equal(result.heatmap.scores, reference)
        stats = result.stats
        assert not stats["resumed"]
        assert stats["tiles_replayed"] == 0
        assert stats["tiles_scored"] == len(result.job.tiles)
        assert stats["quarantined_windows"] == ()
        assert len(read_journal(path).tiles) == len(result.job.tiles)

    def test_kill_and_resume_bit_identical(
        self, engine, layout, reference, tmp_path
    ):
        path = tmp_path / "scan.journal"

        def kill_after(n):
            seen = [0]

            def hook(_index):
                seen[0] += 1
                if seen[0] >= n:
                    raise KilledScan(f"killed after {seen[0]} tiles")
            return hook

        with pytest.raises(KilledScan):
            durable(engine, layout, path, tile_hook=kill_after(7)).run()
        assert len(read_journal(path).tiles) == 7
        result = durable(engine, layout, path, resume=True).run()
        np.testing.assert_array_equal(result.heatmap.scores, reference)
        stats = result.stats
        assert stats["resumed"]
        assert stats["tiles_replayed"] == 7
        assert (stats["tiles_replayed"] + stats["tiles_scored"]
                == len(result.job.tiles))

    def test_torn_journal_tail_resumes(
        self, engine, layout, reference, tmp_path
    ):
        path = tmp_path / "scan.journal"

        def hook(_index):
            raise KilledScan("killed after the first tile")

        with pytest.raises(KilledScan):
            durable(engine, layout, path, tile_hook=hook).run()
        # crash mid-append: the last record loses its tail bytes
        path.write_bytes(path.read_bytes()[:-7])
        result = durable(engine, layout, path, resume=True).run()
        np.testing.assert_array_equal(result.heatmap.scores, reference)
        assert result.stats["tiles_scored"] == len(result.job.tiles)

    def test_corrupt_journal_refused_on_resume(
        self, engine, layout, tmp_path
    ):
        path = tmp_path / "scan.journal"
        durable(engine, layout, path).run()
        # the same records under a header recording a backend that no
        # longer exists: a different scan configuration, not replayed
        contents = read_journal(path)
        old = snapshot_journal(
            tmp_path / "old.journal",
            dict(contents.header, backend="compiled"),
            list(contents.tiles.values()),
        )
        with pytest.raises(JournalMismatchError, match="backend"):
            durable(engine, layout, old, resume=True).run()
        data = bytearray(path.read_bytes())
        data[-40] ^= 0xFF  # inside the last record's score payload
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError):
            durable(engine, layout, path, resume=True).run()


class TestRetry:
    def test_transient_faults_recover(
        self, engine, layout, reference, tmp_path
    ):
        faults = FaultInjector(seed=0)
        faults.add_error("engine", times=2)
        result = durable(
            engine, layout, tmp_path / "scan.journal", faults=faults
        ).run()
        np.testing.assert_array_equal(result.heatmap.scores, reference)
        assert result.stats["tile_retries"] == 2
        assert result.stats["quarantined_windows"] == ()

    def test_backoff_schedule_is_deterministic(
        self, engine, layout, tmp_path
    ):
        policy = RetryPolicy(max_retries=2, base_delay_s=0.05,
                             retry_budget=32, seed=5)
        schedules = []
        for run in range(2):
            # the first call fails in wave 0, its retry (call index
            # 25) fails in wave 1, the second retry succeeds -> two
            # backoff sleeps
            faults = FaultInjector(seed=0)
            faults.add_error("engine", on_calls=[0, 25])
            slept = []
            result = durable(
                engine, layout, tmp_path / f"run{run}.journal",
                faults=faults, policy=policy, sleep=slept.append,
            ).run()
            assert result.stats["tile_retries"] == 2
            schedules.append(slept)
        assert schedules[0] == schedules[1]
        assert schedules[0] == [policy.delay_s(1), policy.delay_s(2)]
        assert all(d > 0 for d in schedules[0])

    def test_permanent_errors_are_not_retried(
        self, engine, layout, tmp_path
    ):
        faults = FaultInjector(seed=0)
        faults.add_error("engine", times=1, error=ValueError("bad shape"))
        result = durable(
            engine, layout, tmp_path / "scan.journal", faults=faults
        ).run()
        # no retry spent: the tile went straight to bisection, whose
        # sub-tile scoring succeeded (the fault fired only once)
        assert result.stats["tile_retries"] == 0
        assert result.stats["quarantined_windows"] == ()
        assert result.heatmap.n_unscored == 0


class TestQuarantine:
    def test_poison_window_bisected_to_minimal_quarantine(
        self, engine, layout, reference, tmp_path
    ):
        poison = (5, 6)
        faults = FaultInjector(seed=0)
        faults.add_error("engine", match=lambda args: (
            isinstance(args[0], TileSpec)
            and args[0].contains_index(*poison)
        ))
        result = durable(
            engine, layout, tmp_path / "scan.journal", faults=faults
        ).run()
        scores = result.heatmap.scores
        assert result.stats["quarantined_windows"] == (poison,)
        assert np.isnan(scores[poison[1], poison[0]])
        assert result.heatmap.n_unscored == 1
        scored = ~np.isnan(scores)
        np.testing.assert_array_equal(scores[scored], reference[scored])

    def test_quarantine_survives_resume(
        self, engine, layout, tmp_path
    ):
        poison = (5, 6)

        def poison_faults():
            faults = FaultInjector(seed=0)
            faults.add_error("engine", match=lambda args: (
                isinstance(args[0], TileSpec)
                and args[0].contains_index(*poison)
            ))
            return faults

        path = tmp_path / "scan.journal"
        seen = [0]

        def hook(_index):
            seen[0] += 1
            if seen[0] >= 10:
                raise KilledScan("killed after 10 tiles")

        with pytest.raises(KilledScan):
            durable(engine, layout, path, faults=poison_faults(),
                    tile_hook=hook).run()
        result = durable(engine, layout, path, faults=poison_faults(),
                         resume=True).run()
        assert result.stats["quarantined_windows"] == (poison,)
        assert result.heatmap.n_unscored == 1


class TestPreemption:
    def test_preemption_flushes_resumable_journal(
        self, engine, layout, reference, tmp_path
    ):
        path = tmp_path / "scan.journal"
        scan = durable(engine, layout, path)

        def hook(_index):
            scan.request_preemption("test says stop")
        scan._tile_hook = hook
        with pytest.raises(ScanPreemptedError) as err:
            scan.run()
        assert err.value.journal == path
        assert 0 < err.value.completed < err.value.total
        # the flushed journal resumes to a bit-identical heatmap
        result = durable(engine, layout, path, resume=True).run()
        np.testing.assert_array_equal(result.heatmap.scores, reference)
        assert result.stats["tiles_replayed"] == err.value.completed

    def test_sigint_translates_to_preemption(self, engine, layout, tmp_path):
        previous = signal.getsignal(signal.SIGINT)
        scan = durable(
            engine, layout, tmp_path / "scan.journal", handle_signals=True,
            tile_hook=lambda index: os.kill(os.getpid(), signal.SIGINT)
            if index == 2 else None,
        )
        with pytest.raises(ScanPreemptedError, match="SIGINT"):
            scan.run()
        # original handler restored afterwards
        assert signal.getsignal(signal.SIGINT) is previous


class TestParallelHook:
    def test_parallel_wave_matches_sequential(
        self, engine, layout, reference, tmp_path
    ):
        def parallel(tiles, score_fn):
            out = []
            for tile in tiles:
                try:
                    out.append(score_fn(tile))
                except Exception as exc:  # noqa: BLE001
                    out.append(exc)
            return out

        result = durable(
            engine, layout, tmp_path / "scan.journal"
        ).run(parallel=parallel)
        np.testing.assert_array_equal(result.heatmap.scores, reference)

    def test_short_parallel_result_is_an_error(
        self, engine, layout, tmp_path
    ):
        with pytest.raises(RuntimeError, match="parallel hook"):
            durable(
                engine, layout, tmp_path / "scan.journal"
            ).run(parallel=lambda tiles, fn: [])


class TestRetryPolicy:
    def test_delay_deterministic_and_capped(self):
        policy = RetryPolicy(base_delay_s=0.5, max_delay_s=1.0, seed=3)
        for attempt in (1, 2, 5):
            a = policy.delay_s(attempt, key=9)
            assert a == policy.delay_s(attempt, key=9)
            assert 0 < a <= policy.max_delay_s
        assert policy.delay_s(0) == 0.0
        # different keys jitter independently
        assert policy.delay_s(1, key=1) != policy.delay_s(1, key=2)

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_transient(RuntimeError("worker died"))
        assert not policy.is_transient(ValueError("bad geometry"))

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="retry_budget"):
            RetryPolicy(retry_budget=-1)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay_s=-0.1)
