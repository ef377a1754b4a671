"""Durable chip-scan jobs: journaled resume, retry/backoff, quarantine.

:class:`DurableChipScan` wraps a :class:`~repro.chip.scanner.ChipScanner`
sweep in the robustness layer long scans need (mirroring what
``repro.train`` gives training):

* **Crash safety** — every completed tile is appended to a
  :class:`~repro.chip.journal.ScanJournal` (checksummed, fsynced)
  before the scan moves on.  Kill the process anywhere, run again with
  ``resume=True``, and the journaled tiles are *replayed* while only
  the pending tiles are re-scored — the final heatmap is bit-identical
  to an uninterrupted run (the engine is bit-exact, so replay vs
  re-compute is indistinguishable).
* **Retry with backoff** — tile failures are classified transient vs
  permanent by :class:`RetryPolicy`; transients are re-attempted in
  later *waves* with capped exponential backoff and deterministic
  jitter (seeded, keyed by attempt — never wall clock), bounded both
  per tile (``max_retries``) and per job (``retry_budget``).
* **Poison quarantine** — a tile that keeps failing is *bisected*
  (:func:`~repro.chip.tiling.split_tile`, the spatial arm of the batch
  bisection idea): each half is scored independently, recursing until
  the failure is cornered in single windows, which are quarantined
  (NaN + listed).  Every window outside the poison region scores
  bit-identically to a fault-free run.
* **Graceful preemption** — SIGINT/SIGTERM (with
  ``handle_signals=True``, main thread only) or an explicit
  :meth:`DurableChipScan.request_preemption` finishes the in-flight
  tile, flushes the journal, and raises :class:`ScanPreemptedError`
  naming the resumable journal — exactly the train loop's contract.

The chaos gate (``python -m repro.chip.parity --chaos``) holds all
four properties in CI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..litho.geometry import Clip
from ..train.run import preemption_signals
from .journal import JournalCorruptError, ScanJournal, journal_header
from .scanner import DEFAULT_TILE_BUDGET, ChipScanJob, ChipScanResult
from .tiling import TileSpec, split_tile

__all__ = ["DurableChipScan", "RetryPolicy", "ScanPreemptedError"]

#: Tiles a concurrent wave scores between journal flushes.
WAVE_SIZE = 32


class ScanPreemptedError(RuntimeError):
    """A durable scan stopped gracefully on request (resumable).

    ``journal`` names the flushed journal; ``completed`` of ``total``
    tiles are already recorded there, so re-running with
    ``resume=True`` continues instead of starting over.
    """

    def __init__(self, message: str, journal, completed: int, total: int):
        super().__init__(message)
        self.journal = journal
        self.completed = completed
        self.total = total


#: exception types never retried: deterministic programming errors
#: (bad geometry, shape bugs) fail the same way on the same inputs
PERMANENT_ERRORS: tuple[type, ...] = (ValueError, TypeError)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry schedule for tile failures.

    :data:`PERMANENT_ERRORS` are never retried.  Everything else is
    presumed transient (worker died, I/O hiccup, injected fault) and
    re-attempted up to ``max_retries`` times per tile, capped globally
    by ``retry_budget`` re-attempts per job so a sick fleet cannot
    retry forever.

    The backoff before attempt ``k`` (1-based) is capped exponential
    with deterministic jitter::

        min(max_delay_s, base_delay_s * 2**(k-1)) * (0.5 + 0.5 * u)

    where ``u`` is drawn from a generator seeded by ``(seed, key, k)``
    — a pure function of the policy and the retry position, never of
    wall clock, so a chaos run's schedule is exactly reproducible.
    """

    max_retries: int = 2
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    retry_budget: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.retry_budget < 0:
            raise ValueError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )

    def is_transient(self, exc: BaseException) -> bool:
        """Whether ``exc`` is worth retrying."""
        return not isinstance(exc, PERMANENT_ERRORS)

    def delay_s(self, attempt: int, key: int = 0) -> float:
        """Deterministically jittered backoff before retry ``attempt``."""
        if attempt < 1:
            return 0.0
        base = min(self.max_delay_s,
                   self.base_delay_s * (2.0 ** (attempt - 1)))
        u = float(np.random.default_rng(
            (self.seed, key, attempt)
        ).random())
        return base * (0.5 + 0.5 * u)


@dataclass
class _Progress:
    """Mutable per-run accounting threaded through the scoring passes."""

    scores: np.ndarray
    journal: ScanJournal
    quarantined: set = field(default_factory=set)
    replayed: int = 0
    scored: int = 0
    retries: int = 0
    backoff_s: float = 0.0
    total: int = 0

    @property
    def completed(self) -> int:
        return self.replayed + self.scored


class DurableChipScan:
    """One journaled, retrying, resumable streaming sweep.

    Parameters mirror :meth:`ChipScanner.scan` plus the durability
    knobs; :meth:`run` returns the same :class:`ChipScanResult` a plain
    scan would, with the durability counters in ``result.stats``
    (``resumed``, ``tiles_replayed``, ``tiles_scored``,
    ``tile_retries``, ``backoff_s``, ``quarantined_windows``,
    ``journal``).

    ``sleep`` and ``tile_hook`` are test seams: ``sleep`` receives the
    backoff delays (patch it to keep chaos tests fast), ``tile_hook``
    is called with the tile index after each tile is durably journaled
    (the chaos harness's kill vector — raising from it models a crash
    at a tile boundary, *after* the fsync).  :data:`WAVE_SIZE` bounds
    how many tiles a concurrent wave (``run(parallel=...)``) scores
    between journal flushes — the most scoring work a crash or
    preemption can lose; the sequential path journals every tile.
    """

    def __init__(
        self,
        scanner,
        layout: Clip,
        window: int,
        stride: int,
        tile_budget: int = DEFAULT_TILE_BUDGET,
        journal=None,
        resume: bool = False,
        policy: RetryPolicy | None = None,
        token: str | None = None,
        handle_signals: bool = False,
        sleep=time.sleep,
        tile_hook=None,
    ):
        if journal is None:
            raise ValueError("a durable scan needs a journal= path")
        self.scanner = scanner
        self.layout = layout
        self.window = window
        self.stride = stride
        self.tile_budget = tile_budget
        self.journal_path = journal
        self.resume = resume
        self.policy = policy if policy is not None else RetryPolicy()
        self.token = token
        self.handle_signals = handle_signals
        self._sleep = sleep
        self._tile_hook = tile_hook
        self._preempted = False
        self._preempt_reason = "preemption requested"
        self._score_fn = None  # bound to the compiled job in run()

    # -- preemption ------------------------------------------------------

    def request_preemption(
        self, reason: str = "preemption requested"
    ) -> None:
        """Stop after the in-flight tile; the journal stays resumable."""
        self._preempt_reason = reason
        self._preempted = True

    def _check_preempt(self, progress: _Progress) -> None:
        if self._preempted:
            raise ScanPreemptedError(
                f"{self._preempt_reason}; journal {progress.journal.path} "
                f"holds {progress.completed} of {progress.total} tiles — "
                f"resume to continue",
                journal=progress.journal.path,
                completed=progress.completed,
                total=progress.total,
            )

    # -- the run ---------------------------------------------------------

    def run(self, parallel=None) -> ChipScanResult:
        """Execute (or resume) the sweep; returns a full scan result.

        ``parallel`` optionally scores one retry wave concurrently:
        called as ``parallel(tiles, score_fn)`` it must return one
        entry per tile — the score block or the exception that killed
        it (the serving layer backs this with its worker pool).  The
        default scores sequentially; both are bit-identical.
        """
        started = time.perf_counter()
        job = self.scanner.compile(
            self.layout, self.window, self.stride, self.tile_budget,
            token=self.token,
        )
        engine = self.scanner.engine
        header = journal_header(
            self.layout, job.grid, self.scanner.image_size,
            backend=getattr(engine, "backend_name", ""),
            pipeline=getattr(engine, "pipeline", ""),
        )
        if self.resume:
            journal, contents = ScanJournal.resume(
                self.journal_path, header
            )
        else:
            journal = ScanJournal.create(self.journal_path, header)
            contents = None
        progress = _Progress(
            scores=job.empty_scores(), journal=journal,
            total=len(job.tiles),
        )
        pending: list[tuple[int, TileSpec]] = []
        for index, tile in enumerate(job.tiles):
            record = contents.tiles.get(index) if contents else None
            if record is None:
                pending.append((index, tile))
                continue
            block = np.asarray(record.scores)
            shape = (tile.iy1 - tile.iy0, tile.ix1 - tile.ix0)
            if block.shape != shape:
                raise JournalCorruptError(
                    f"journal {journal.path}: tile {index} holds a "
                    f"{block.shape} block, grid expects {shape}"
                )
            progress.scores[tile.iy0:tile.iy1, tile.ix0:tile.ix1] = block
            progress.quarantined.update(record.quarantined)
            progress.replayed += 1
        resumed = progress.replayed > 0
        self._score_fn = job.score_tile
        try:
            with preemption_signals(self.handle_signals,
                                    self.request_preemption), \
                    job.scoring() as memo:
                self._scan_pending(job, pending, progress, parallel)
        finally:
            journal.close()
        return ChipScanResult(
            layout=self.layout, heatmap=job.heatmap(progress.scores),
            job=job, tile_budget=job.grid.tile_budget,
            tiles=len(job.tiles), windows=job.grid.n_windows,
            peak_tile_bytes=job.peak_tile_bytes,
            wall_s=time.perf_counter() - started, token=self.token,
            stats={
                "resumed": resumed,
                "tiles_replayed": progress.replayed,
                "tiles_scored": progress.scored,
                "scored_windows": memo.rows,
                "tile_retries": progress.retries,
                "backoff_s": progress.backoff_s,
                "quarantined_windows": tuple(sorted(progress.quarantined)),
                "journal": str(journal.path),
            },
        )

    # -- scoring passes --------------------------------------------------

    def _commit(
        self,
        job: ChipScanJob,
        progress: _Progress,
        index: int,
        tile: TileSpec,
        block: np.ndarray,
        quarantined: tuple[tuple[int, int], ...] = (),
    ) -> None:
        """Fill the grid and durably journal one resolved tile."""
        progress.scores[tile.iy0:tile.iy1, tile.ix0:tile.ix1] = block
        progress.journal.append_tile(index, block, quarantined)
        progress.quarantined.update(quarantined)
        progress.scored += 1
        if self._tile_hook is not None:
            self._tile_hook(index)

    def _score_wave(self, tiles: list[TileSpec], parallel) -> list:
        """Score one wave concurrently; one block-or-exception per tile."""
        out = list(parallel(tiles, self._score_fn))
        if len(out) != len(tiles):
            raise RuntimeError(
                f"parallel hook returned {len(out)} results for "
                f"{len(tiles)} tiles"
            )
        return out

    def _scan_pending(
        self,
        job: ChipScanJob,
        pending: list[tuple[int, TileSpec]],
        progress: _Progress,
        parallel,
    ) -> None:
        policy = self.policy
        persistent: list[tuple[int, TileSpec, BaseException]] = []
        remaining = list(pending)
        attempt = 0
        while remaining:
            if attempt > 0:
                delay = policy.delay_s(attempt)
                progress.backoff_s += delay
                if delay > 0.0:
                    self._sleep(delay)
            next_round: list[tuple[int, TileSpec]] = []

            def settle(index, tile, outcome):
                if isinstance(outcome, BaseException):
                    if (policy.is_transient(outcome)
                            and attempt < policy.max_retries
                            and progress.retries < policy.retry_budget):
                        progress.retries += 1
                        next_round.append((index, tile))
                    else:
                        persistent.append((index, tile, outcome))
                    return
                self._commit(job, progress, index, tile,
                             np.asarray(outcome))

            if parallel is None:
                # sequential: score then commit tile by tile, so a
                # preemption (or a crash) loses at most one tile's
                # scoring work — never a whole wave's
                for index, tile in remaining:
                    if self._preempted:
                        break  # stays pending; journal already flushed
                    try:
                        outcome = self._score_fn(tile)
                    except Exception as exc:  # noqa: BLE001
                        outcome = exc
                    settle(index, tile, outcome)
            else:
                # concurrent: bounded chunks, journaled between chunks,
                # so a crash or preemption mid-scan loses at most
                # WAVE_SIZE tiles of scoring work — never the whole
                # sweep's
                for start in range(0, len(remaining), WAVE_SIZE):
                    if self._preempted:
                        break  # uncommitted tiles stay pending
                    batch = remaining[start:start + WAVE_SIZE]
                    wave = self._score_wave(
                        [tile for _, tile in batch], parallel
                    )
                    for (index, tile), outcome in zip(batch, wave):
                        settle(index, tile, outcome)
            self._check_preempt(progress)
            remaining = next_round
            attempt += 1
        # persistently-failing tiles: corner the poison by bisection
        for index, tile, _exc in sorted(persistent, key=lambda t: t[0]):
            block = np.full(
                (tile.iy1 - tile.iy0, tile.ix1 - tile.ix0), np.nan
            )
            quarantined = self._bisect_into(job, tile, progress, block)
            self._commit(job, progress, index, tile, block,
                         tuple(sorted(quarantined)))
            self._check_preempt(progress)

    def _attempt_tile(
        self, tile: TileSpec, progress: _Progress
    ) -> np.ndarray:
        """Score one (sub-)tile with budget-bounded transient retries."""
        policy = self.policy
        attempt = 0
        while True:
            try:
                return np.asarray(self._score_fn(tile))
            except Exception as exc:  # noqa: BLE001 - classified here
                if (not policy.is_transient(exc)
                        or attempt >= policy.max_retries
                        or progress.retries >= policy.retry_budget):
                    raise
                attempt += 1
                progress.retries += 1
                delay = policy.delay_s(attempt, key=tile.ix0 * 65536
                                       + tile.iy0)
                progress.backoff_s += delay
                if delay > 0.0:
                    self._sleep(delay)

    def _bisect_into(
        self,
        job: ChipScanJob,
        tile: TileSpec,
        progress: _Progress,
        block: np.ndarray,
        parent: TileSpec | None = None,
    ) -> list[tuple[int, int]]:
        """Recursively score ``tile``, writing into the parent ``block``.

        Returns the quarantined origin indices.  Sub-tile scoring is
        bit-identical to scoring the same windows in the parent tile
        (:func:`split_tile` keeps sub-regions halo-correct), so every
        window outside the final quarantine matches a fault-free run.
        """
        root = parent if parent is not None else tile
        try:
            scored = self._attempt_tile(tile, progress)
        except Exception:  # noqa: BLE001 - quarantine path
            if tile.n_origins == 1:
                # smallest tile: one window; NaN in block already
                return [(tile.ix0, tile.iy0)]
            first, second = split_tile(job.grid, tile)
            return (
                self._bisect_into(job, first, progress, block, root)
                + self._bisect_into(job, second, progress, block, root)
            )
        block[tile.iy0 - root.iy0:tile.iy1 - root.iy0,
              tile.ix0 - root.ix0:tile.ix1 - root.ix0] = scored
        return []
