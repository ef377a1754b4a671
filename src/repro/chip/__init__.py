"""Full-chip streaming scan with bounded memory + incremental ECO re-scan.

Rasterizing a whole layout as one plane is fine for verification
clips and quadratic-memory-impossible for a chip.  This package streams
the sweep instead, and it is the serving layer's one scan path
(:meth:`repro.serve.service.HotspotService.scan` and ``scan_chip``):

* :mod:`~repro.chip.tiling` cuts the origin grid into halo-correct
  tiles sized from a byte budget;
* :mod:`~repro.chip.index` serves each tile's geometry from a bucketed
  spatial index, in raster accumulation order;
* :mod:`~repro.chip.scanner` rasterizes and scores tile by tile —
  bit-identical to the monolithic scan, peak plane memory bounded —
  and re-scans only the windows a layout edit dirtied
  (:mod:`~repro.chip.eco`);
* :mod:`~repro.chip.heatmap` is the aggregated per-origin result;
* :mod:`~repro.chip.journal` + :mod:`~repro.chip.durable` make long
  scans crash-safe: a checksummed tile-completion journal, kill-anywhere
  resume, retry with deterministic backoff, and poison-window
  quarantine by spatial bisection.

``python -m repro.chip.parity`` is the CI gate holding both
bit-identity lines (streamed-vs-monolithic, re-scan-vs-scratch) on
every engine backend; ``--chaos`` adds the durability gate
(kill/resume bit-identity, torn/corrupt journal refusal, bounded
retries, minimal quarantine).
"""

from .durable import DurableChipScan, RetryPolicy, ScanPreemptedError
from .eco import DirtyRegionTracker
from .heatmap import HotspotHeatmap, HotspotSite
from .index import RectIndex
from .journal import (
    JournalContents,
    JournalCorruptError,
    JournalError,
    JournalMismatchError,
    JournalTruncatedError,
    ScanJournal,
    TileRecord,
    journal_header,
    layout_fingerprint,
    read_journal,
    snapshot_journal,
)
from .scanner import (
    DEFAULT_TILE_BUDGET,
    ChipScanJob,
    ChipScanner,
    ChipScanResult,
)
from .tiling import TileGrid, TileSpec, origin_steps, plan_tiles, split_tile

__all__ = [
    "ChipScanJob",
    "ChipScanner",
    "ChipScanResult",
    "DEFAULT_TILE_BUDGET",
    "DirtyRegionTracker",
    "DurableChipScan",
    "HotspotHeatmap",
    "HotspotSite",
    "JournalContents",
    "JournalCorruptError",
    "JournalError",
    "JournalMismatchError",
    "JournalTruncatedError",
    "RectIndex",
    "RetryPolicy",
    "ScanJournal",
    "ScanPreemptedError",
    "TileGrid",
    "TileRecord",
    "TileSpec",
    "journal_header",
    "layout_fingerprint",
    "origin_steps",
    "plan_tiles",
    "read_journal",
    "snapshot_journal",
    "split_tile",
]
