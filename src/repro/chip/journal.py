"""Crash-safe tile-completion journal for durable chip scans.

A full-chip sweep can run for hours; a crash must not discard the
tiles already scored.  :class:`ScanJournal` is the durability layer:
an **append-only** file of per-record-checksummed frames, fsynced
after every append, so the set of *complete* records on disk is
exactly the set of tiles whose scores survived — no matter where the
process died.  Resuming a scan replays those records and re-scores
only the pending tiles; because the engine is bit-exact across runs
(the chip parity contract), the resumed heatmap is bit-identical to an
uninterrupted scan.

Record framing (all integers little-endian)::

    kind(1 byte)  length(u32)  payload(length bytes)  sha256(32 bytes)

where the digest covers ``kind + length + payload``.  Two kinds:

* ``b"H"`` — header, exactly one, first: a JSON dict binding the
  journal to one scan configuration (layout fingerprint, window,
  stride, image size, tile budget, grid shape).  Resuming against a
  *different* configuration raises :class:`JournalMismatchError` —
  replaying tiles into the wrong grid would be silent corruption.
* ``b"T"`` — one completed tile: tile index, score-block shape, the
  float64 scores, and the windows quarantined inside the tile.

Failure semantics mirror ``train/checkpoint``:

* an **incomplete frame at the tail** is the signature of a crash
  mid-append.  :func:`read_journal` refuses it with
  :class:`JournalTruncatedError` unless the caller opts into
  ``recover_tail=True`` (the resume path), which drops the torn frame
  and truncates the file back to its last complete record;
* a **complete frame whose digest does not match** is corruption, not
  a crash artifact — it is *always* refused with
  :class:`JournalCorruptError`, never silently replayed.

:func:`snapshot_journal` writes a whole journal in one atomic step
(temp + fsync + rename, directory fsynced) — used to checkpoint the
merged heatmap after an ECO re-scan.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..litho.geometry import Clip
from ..nn.serialization import atomic_write, fsync_directory
from .tiling import TileGrid

__all__ = [
    "JournalError",
    "JournalCorruptError",
    "JournalTruncatedError",
    "JournalMismatchError",
    "TileRecord",
    "JournalContents",
    "ScanJournal",
    "journal_header",
    "layout_fingerprint",
    "read_journal",
    "snapshot_journal",
]

#: Journal format version, bumped on any framing/payload change.
#: v2 added the engine provenance binding (backend, pipeline) — a v1
#: journal fails the version binding and must be rescanned, which is
#: the safe direction (its provenance is unknowable).
JOURNAL_VERSION = 2

_KIND_HEADER = b"H"
_KIND_TILE = b"T"
_LEN = struct.Struct("<I")
_TILE_HEAD = struct.Struct("<III")  # tile index, ny, nx
_PAIR = struct.Struct("<II")  # quarantined (i, j) origin index
_DIGEST_BYTES = 32

#: Header keys that must match for a journal to be resumable against a
#: job — replaying scores into a different grid would be corruption.
_BINDING_KEYS = (
    "version", "layout_sha256", "layout_size", "window", "stride",
    "image_size", "tile_budget", "n_steps", "n_tiles",
    "backend", "pipeline",
)


class JournalError(RuntimeError):
    """Base error of the scan journal (unusable file or misuse)."""


class JournalCorruptError(JournalError):
    """A complete record failed its checksum — refused, never replayed."""


class JournalTruncatedError(JournalError):
    """The journal ends in a torn frame (crash mid-append).

    Recoverable: re-read with ``recover_tail=True`` (what resume does)
    to drop the torn frame and keep every complete record before it.
    """


class JournalMismatchError(JournalError):
    """The journal's header binds it to a different scan configuration."""


def layout_fingerprint(layout: Clip) -> str:
    """SHA-256 hex digest of a layout's exact geometry.

    Covers the size and every rectangle in insertion order, so a
    journal written for one layout state can never be replayed against
    an edited one.
    """
    digest = hashlib.sha256()
    digest.update(_LEN.pack(int(layout.size) & 0xFFFFFFFF))
    coords = np.asarray(
        [(r.x0, r.y0, r.x1, r.y1) for r in layout.rects], dtype=np.int64
    ).reshape(-1, 4)
    digest.update(coords.tobytes())
    return digest.hexdigest()


def journal_header(
    layout: Clip,
    grid: TileGrid,
    image_size: int,
    backend: str = "",
    pipeline: str = "",
) -> dict:
    """The header dict binding a journal to one scan configuration.

    ``backend`` and ``pipeline`` record the engine provenance (backend
    name, pass-pipeline signature) the scores were produced under.
    Although every backend/pipeline combination is bit-identical by the
    parity contract, the binding still refuses to mix them silently —
    if that contract were ever violated, a resume would otherwise blend
    two numeric substrates into one heatmap with no trace.
    """
    return {
        "version": JOURNAL_VERSION,
        "layout_sha256": layout_fingerprint(layout),
        "layout_size": grid.layout_size,
        "window": grid.window,
        "stride": grid.stride,
        "image_size": image_size,
        "tile_budget": grid.tile_budget,
        "n_steps": len(grid.steps),
        "n_tiles": len(grid.tiles),
        "backend": backend,
        "pipeline": pipeline,
    }


@dataclass(frozen=True)
class TileRecord:
    """One journaled tile: its scores plus any quarantined windows.

    ``scores`` is the tile's ``(ny, nx)`` float64 block (quarantined
    windows hold NaN); ``quarantined`` lists their origin-grid
    ``(i, j)`` indices explicitly so a resume can tell a quarantined
    window from an unscored one.
    """

    index: int
    scores: np.ndarray
    quarantined: tuple[tuple[int, int], ...] = ()


@dataclass
class JournalContents:
    """Everything a valid journal holds, plus tail-recovery facts."""

    header: dict
    tiles: dict[int, TileRecord] = field(default_factory=dict)
    #: byte offset of the end of the last complete record
    valid_bytes: int = 0
    #: whether a torn tail frame was dropped (``recover_tail`` only)
    recovered_tail: bool = False


def _frame(kind: bytes, payload: bytes) -> bytes:
    head = kind + _LEN.pack(len(payload))
    return head + payload + hashlib.sha256(head + payload).digest()


def _tile_payload(record: TileRecord) -> bytes:
    scores = np.ascontiguousarray(record.scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"tile scores must be 2-D, got {scores.shape}")
    parts = [
        _TILE_HEAD.pack(record.index, scores.shape[0], scores.shape[1]),
        scores.tobytes(),
        _LEN.pack(len(record.quarantined)),
    ]
    parts.extend(_PAIR.pack(i, j) for i, j in record.quarantined)
    return b"".join(parts)


def _parse_tile(payload: bytes) -> TileRecord:
    try:
        index, ny, nx = _TILE_HEAD.unpack_from(payload, 0)
        offset = _TILE_HEAD.size
        scores = np.frombuffer(
            payload, dtype="<f8", count=ny * nx, offset=offset
        ).reshape(ny, nx).copy()
        offset += ny * nx * 8
        (nq,) = _LEN.unpack_from(payload, offset)
        offset += _LEN.size
        quarantined = tuple(
            _PAIR.unpack_from(payload, offset + k * _PAIR.size)
            for k in range(nq)
        )
        if offset + nq * _PAIR.size != len(payload):
            raise ValueError("trailing bytes in tile payload")
    except (struct.error, ValueError) as exc:
        raise JournalCorruptError(
            f"malformed tile record payload: {exc}"
        ) from exc
    return TileRecord(index=index, scores=scores, quarantined=quarantined)


def read_journal(
    path: str | os.PathLike, recover_tail: bool = False
) -> JournalContents:
    """Read and verify a journal; every returned record passed its checksum.

    ``recover_tail=True`` (the resume path) tolerates exactly one torn
    frame at the end of the file — the signature of a crash mid-append —
    returning the complete records before it with ``recovered_tail``
    set.  Without it a torn tail raises :class:`JournalTruncatedError`.
    A complete record with a bad digest always raises
    :class:`JournalCorruptError`.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    header: dict | None = None
    tiles: dict[int, TileRecord] = {}
    pos = 0
    recovered = False
    while pos < len(data):
        head_end = pos + 1 + _LEN.size
        if head_end > len(data):
            if recover_tail:
                recovered = True
                break
            raise JournalTruncatedError(
                f"journal {path} ends in a torn frame header at byte {pos}"
            )
        kind = data[pos:pos + 1]
        (length,) = _LEN.unpack_from(data, pos + 1)
        end = head_end + length + _DIGEST_BYTES
        if end > len(data):
            if recover_tail:
                recovered = True
                break
            raise JournalTruncatedError(
                f"journal {path} ends in a torn record at byte {pos} "
                f"(need {end - len(data)} more bytes)"
            )
        payload = data[head_end:head_end + length]
        digest = data[head_end + length:end]
        if hashlib.sha256(data[pos:head_end + length]).digest() != digest:
            raise JournalCorruptError(
                f"journal {path}: record at byte {pos} failed its "
                f"checksum — refusing to replay"
            )
        if kind == _KIND_HEADER:
            if header is not None:
                raise JournalCorruptError(
                    f"journal {path}: duplicate header at byte {pos}"
                )
            try:
                header = json.loads(payload.decode("utf-8"))
            except ValueError as exc:
                raise JournalCorruptError(
                    f"journal {path}: unreadable header: {exc}"
                ) from exc
        elif kind == _KIND_TILE:
            if header is None:
                raise JournalCorruptError(
                    f"journal {path}: tile record before the header"
                )
            record = _parse_tile(payload)
            tiles[record.index] = record
        else:
            raise JournalCorruptError(
                f"journal {path}: unknown record kind {kind!r} "
                f"at byte {pos}"
            )
        pos = end
    if header is None:
        raise JournalError(f"journal {path} holds no header record")
    return JournalContents(
        header=header, tiles=tiles, valid_bytes=pos, recovered_tail=recovered
    )


def _check_binding(header: dict, expected: dict, path: Path) -> None:
    mismatched = [
        f"{key}: journal={header.get(key)!r} != job={expected.get(key)!r}"
        for key in _BINDING_KEYS
        if header.get(key) != expected.get(key)
    ]
    if mismatched:
        raise JournalMismatchError(
            f"journal {path} was written for a different scan "
            f"configuration ({'; '.join(mismatched)})"
        )


class ScanJournal:
    """Append-only writer over one journal file.

    Construct via :meth:`create` (fresh scan; refuses to clobber an
    existing file) or :meth:`resume` (verify the header binding, drop a
    torn tail, return the surviving records).  Every
    :meth:`append_tile` is flushed and fsynced before it returns, so a
    record either fully exists on disk or not at all — the torn-tail
    case — and :func:`read_journal` can always tell which.
    """

    def __init__(self, path: Path, header: dict, handle):
        self.path = path
        self.header = header
        self._handle = handle
        self.tiles_written = 0

    @classmethod
    def create(cls, path: str | os.PathLike, header: dict) -> "ScanJournal":
        """Start a fresh journal; refuses to overwrite an existing one."""
        path = Path(path)
        if path.exists():
            raise JournalError(
                f"journal {path} already exists — pass resume=True to "
                f"continue it, or remove it to start over"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "ab")
        journal = cls(path, dict(header), handle)
        payload = json.dumps(header, sort_keys=True).encode("utf-8")
        journal._append(_KIND_HEADER, payload)
        fsync_directory(path.parent)
        return journal

    @classmethod
    def resume(
        cls, path: str | os.PathLike, header: dict
    ) -> tuple["ScanJournal", JournalContents]:
        """Reopen a journal for appending; returns the surviving records.

        A missing file degrades to :meth:`create` (a resume of a scan
        that died before its first record).  A torn tail frame is
        dropped and the file truncated back to its last complete
        record; corrupt records and header mismatches are refused with
        their typed errors.
        """
        path = Path(path)
        if not path.exists():
            journal = cls.create(path, header)
            return journal, JournalContents(header=dict(header))
        contents = read_journal(path, recover_tail=True)
        _check_binding(contents.header, header, path)
        if contents.recovered_tail:
            with open(path, "r+b") as handle:
                handle.truncate(contents.valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        handle = open(path, "ab")
        journal = cls(path, contents.header, handle)
        journal.tiles_written = len(contents.tiles)
        return journal, contents

    def _append(self, kind: bytes, payload: bytes) -> None:
        if self._handle is None:
            raise JournalError(f"journal {self.path} is closed")
        self._handle.write(_frame(kind, payload))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append_tile(
        self,
        index: int,
        scores: np.ndarray,
        quarantined: tuple[tuple[int, int], ...] = (),
    ) -> None:
        """Durably record one completed tile (flushed + fsynced)."""
        record = TileRecord(
            index=int(index),
            scores=np.ascontiguousarray(scores, dtype=np.float64),
            quarantined=tuple(
                (int(i), int(j)) for i, j in quarantined
            ),
        )
        self._append(_KIND_TILE, _tile_payload(record))
        self.tiles_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ScanJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def snapshot_journal(
    path: str | os.PathLike,
    header: dict,
    records: list[TileRecord] | tuple[TileRecord, ...],
) -> Path:
    """Atomically (re)write a whole journal: temp + fsync + rename.

    Used to checkpoint a *derived* state — e.g. the merged heatmap
    after an ECO re-scan, whose layout fingerprint differs from the
    original scan's journal.  The result is indistinguishable from a
    journal written record by record.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    def write(handle) -> None:
        handle.write(_frame(
            _KIND_HEADER, json.dumps(header, sort_keys=True).encode("utf-8")
        ))
        for record in records:
            handle.write(_frame(_KIND_TILE, _tile_payload(record)))

    return atomic_write(path, write)
