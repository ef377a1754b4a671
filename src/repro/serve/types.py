"""Typed request/response contracts of the serving layer.

Requests carry either a rasterized 0/1 clip image or raw clip geometry
(a :class:`~repro.litho.geometry.Clip`); geometry requests are
rasterized by the service through its LRU raster cache.  Responses are
frozen dataclasses so callers can treat them as immutable records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..litho.geometry import Clip

__all__ = [
    "ClipRequest",
    "Prediction",
    "ScanRequest",
    "ScanHit",
    "ScanReport",
    "ChipScanRequest",
    "ChipScanReport",
    "HealthState",
    "HealthReport",
]


class HealthState(enum.Enum):
    """Coarse service health for load balancers and operators.

    ``READY`` — serving normally.  ``DEGRADED`` — serving, but faults
    (sheds, timeouts, quarantined requests, degraded scans, errors)
    have been observed since the metrics were last reset; responses may
    be partial.  ``DRAINING`` — ``close()`` has begun; no new requests
    are admitted.
    """

    READY = "ready"
    DEGRADED = "degraded"
    DRAINING = "draining"


@dataclass(frozen=True)
class HealthReport:
    """One health probe: the state plus the reasons it is not READY."""

    state: HealthState
    reasons: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """Whether the service is accepting new requests."""
        return self.state is not HealthState.DRAINING


@dataclass(frozen=True)
class ClipRequest:
    """One clip to classify.

    Exactly one of ``image`` (a square 0/1 occupancy raster, any side
    the service can down-sample to the model's input size) or ``clip``
    (layout geometry, rasterized server-side) must be given.
    """

    image: np.ndarray | None = None
    clip: Clip | None = None
    request_id: str = ""

    def __post_init__(self) -> None:
        if (self.image is None) == (self.clip is None):
            raise ValueError("provide exactly one of image= or clip=")
        if self.image is not None:
            arr = np.asarray(self.image)
            if arr.ndim == 3 and arr.shape[0] == 1:
                arr = arr[0]
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError(
                    f"image must be a square 2-D raster, got {arr.shape}"
                )
            object.__setattr__(self, "image", arr)


@dataclass(frozen=True)
class Prediction:
    """Classification result for one clip."""

    request_id: str
    label: int  #: 1 = hotspot, 0 = clean
    score: float  #: hotspot logit minus non-hotspot logit
    model: str  #: registry name of the model that served the request
    backend: str  #: engine backend that scored it (``"packed"``)
    latency_ms: float  #: service-side wall time, enqueue to response


@dataclass(frozen=True)
class ScanRequest:
    """Sweep a full layout with a sliding window and classify each stop.

    ``window`` is the clip side in nanometres (typically the training
    clip size) and ``stride`` the sweep step; the final row/column is
    snapped to the layout edge so coverage is complete.
    """

    layout: Clip
    window: int
    stride: int
    request_id: str = ""

    def __post_init__(self) -> None:
        if self.window <= 0 or self.window > self.layout.size:
            raise ValueError(
                f"window {self.window} outside (0, {self.layout.size}]"
            )
        if self.stride <= 0:
            raise ValueError(f"stride must be positive, got {self.stride}")


@dataclass(frozen=True)
class ChipScanRequest:
    """Stream-scan a full chip under a bounded tile-plane memory budget.

    Unlike :class:`ScanRequest`, the layout is never rasterized as one
    plane: the sweep is served tile by tile through
    :class:`repro.chip.ChipScanner`, so ``layout`` may be arbitrarily
    large.  ``tile_budget`` caps the float64 raster bytes of any tile
    (0 picks the scanner default).  ``token``, when set, names this
    layout state in the service's region-keyed plane cache so follow-up
    ECO re-scans under the same token reuse clean tile planes.

    Setting ``journal`` routes the request through the **durable** scan
    path (:class:`repro.chip.DurableChipScan`): completed tiles are
    checksummed to the journal file as the scan progresses, so a killed
    scan re-run with ``resume=True`` replays them and re-scores only
    the pending tiles — bit-identical to an uninterrupted run.
    ``max_retries`` caps the per-tile transient-retry attempts of the
    durable retry policy (``None`` keeps the policy default).
    """

    layout: Clip
    window: int
    stride: int
    tile_budget: int = 0
    token: str = ""
    request_id: str = ""
    journal: str = ""
    resume: bool = False
    max_retries: int | None = None

    def __post_init__(self) -> None:
        if self.window <= 0 or self.window > self.layout.size:
            raise ValueError(
                f"window {self.window} outside (0, {self.layout.size}]"
            )
        if self.stride <= 0:
            raise ValueError(f"stride must be positive, got {self.stride}")
        if self.tile_budget < 0:
            raise ValueError(
                f"tile_budget must be >= 0, got {self.tile_budget}"
            )
        if self.resume and not self.journal:
            raise ValueError("resume=True needs a journal= path to resume")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )


@dataclass(frozen=True)
class ChipScanReport:
    """Result of a chip scan (or an incremental re-scan).

    ``heatmap`` is the full per-origin score grid
    (:class:`repro.chip.HotspotHeatmap`); ``hits()`` and ``summary()``
    live there.  Like :class:`ScanReport`, a report can be
    **degraded**: tiles whose shard kept failing after retry are left
    ``NaN`` in the heatmap and enumerated in ``failed_tiles`` (indices
    into the scan's tile grid) — healthy tiles' scores are returned
    unchanged.  ``rescored_windows`` is ``None`` for a full scan and
    the dirty-window count for an ECO re-scan.

    Durable scans add: ``quarantined_windows`` — origin-grid ``(i, j)``
    indices the retry policy's bisection isolated as poison (NaN in the
    heatmap, everything around them scored normally; these degrade the
    report exactly like failed tiles); ``tiles_replayed`` — tiles
    served from the resume journal instead of re-scored;
    ``tile_retries`` — transient re-attempts spent; ``resumed`` —
    whether the scan continued a journal.

    The report carries the scanner's compiled state (``result``) so the
    service can serve :meth:`~repro.serve.service.HotspotService.\
rescan_chip` against it without re-planning; treat it as opaque.
    """

    request_id: str
    windows_scanned: int
    tiles_total: int
    peak_tile_bytes: int
    heatmap: object  #: :class:`repro.chip.HotspotHeatmap`
    result: object = field(repr=False, default=None)
    model: str = ""
    backend: str = ""
    #: pass-pipeline signature the scanning engine was compiled under;
    #: journal headers bind to it so resumes cannot mix artifacts
    #: produced by different compilation pipelines
    pipeline: str = ""
    latency_ms: float = 0.0
    degraded: bool = False
    failed_tiles: tuple[int, ...] = ()
    rescored_windows: int | None = None
    quarantined_windows: tuple[tuple[int, int], ...] = ()
    tiles_replayed: int = 0
    tile_retries: int = 0
    resumed: bool = False

    def __post_init__(self) -> None:
        if self.degraded != bool(
            self.failed_tiles or self.quarantined_windows
        ):
            raise ValueError(
                "degraded must be True exactly when failed_tiles or "
                "quarantined_windows is non-empty "
                f"(degraded={self.degraded}, "
                f"failed_tiles={self.failed_tiles}, "
                f"quarantined_windows={self.quarantined_windows})"
            )

    @property
    def windows_failed(self) -> int:
        """Windows never scored (NaN heatmap entries)."""
        return self.heatmap.n_unscored

    def hits(self, bias: float = 0.0):
        """Hotspot windows above ``bias`` (see ``HotspotHeatmap.hits``)."""
        return self.heatmap.hits(bias)


@dataclass(frozen=True)
class ScanHit:
    """One window flagged as a hotspot (layout coordinates, nm)."""

    x0: int
    y0: int
    x1: int
    y1: int
    score: float


@dataclass(frozen=True)
class ScanReport:
    """Result of a scan request.

    A report can be **degraded**: when a scan tile keeps failing after
    retry (or misses the scan deadline), the service returns the other
    windows' hits instead of discarding the sweep, sets ``degraded``,
    and enumerates the un-scored windows in ``failed_ranges`` — maximal
    ``(start, stop)`` half-open ranges of window indices in the sweep's
    row-major origin order (a failed tile contributes one run per
    origin row, adjacent runs merged).  ``windows_scanned`` always
    counts the full sweep; subtract ``windows_failed`` for the number
    actually scored.
    """

    request_id: str
    windows_scanned: int
    hits: tuple[ScanHit, ...] = field(default_factory=tuple)
    model: str = ""
    backend: str = ""
    latency_ms: float = 0.0
    degraded: bool = False
    failed_ranges: tuple[tuple[int, int], ...] = ()
    tiles_total: int = 0  #: tiles the sweep was planned as

    def __post_init__(self) -> None:
        if self.degraded != bool(self.failed_ranges):
            raise ValueError(
                "degraded must be True exactly when failed_ranges is "
                f"non-empty (degraded={self.degraded}, "
                f"failed_ranges={self.failed_ranges})"
            )

    @property
    def windows_failed(self) -> int:
        """Windows whose shard failed (0 for a healthy report)."""
        return sum(stop - start for start, stop in self.failed_ranges)

    @property
    def hotspot_rate(self) -> float:
        """Fraction of *scored* windows flagged as hotspots."""
        scored = self.windows_scanned - self.windows_failed
        if scored == 0:
            return 0.0
        return len(self.hits) / scored
