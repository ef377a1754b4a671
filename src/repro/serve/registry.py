"""Model registry: checkpoints in, compiled inference engines out.

The registry is the service's model store.  Models arrive either as
live :class:`~repro.nn.module.Module` trees (``register``) or as
``.npz`` checkpoints written by ``repro train --save``
(``load_checkpoint``).  Each entry is compiled to
``ProgramEngine(model)``: the bit-packed XNOR/popcount engine, the one
substrate the service serves (the ``float`` backend is a parity
reference inside :mod:`repro.engine`).  Compilation is strict: a model
the IR cannot lower raises :class:`~repro.engine.lower.LoweringError`
naming the layer type, and nothing is registered, so a failed
re-registration leaves the previous entry serving.

Checkpoints written with metadata (``save_model(..., meta=...)``) are
self-describing: :func:`model_from_meta` rebuilds the paper's residual
architecture from the recorded knobs, so ``load_checkpoint`` needs no
out-of-band architecture information.  The ``backend`` a checkpoint
records is provenance only: every checkpoint serves on ``packed``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from threading import Lock

from ..binary.inference import ProgramEngine
from ..detect.bnn_detector import stages_for_image_size
from ..models.bnn_resnet import build_bnn_resnet
from ..nn.module import Module
from ..nn.serialization import CheckpointError, load_meta, load_model

__all__ = ["ModelEntry", "ModelRegistry", "model_from_meta"]


def model_from_meta(meta: dict[str, object]) -> Module:
    """Rebuild the BNN architecture recorded in checkpoint metadata.

    Required key: ``image_size``; without it the checkpoint has no
    architecture record and :class:`CheckpointError` is raised.
    Optional (with training defaults): ``base_width``, ``scaling``,
    ``stem_stride``.  Weights are loaded separately; the seed only fixes
    the throwaway initialisation.
    """
    if "image_size" not in meta:
        raise CheckpointError(
            "checkpoint metadata lacks 'image_size'; pass an explicit "
            "model= to load_checkpoint() for legacy checkpoints"
        )
    image_size = int(meta["image_size"])
    base_width = int(meta.get("base_width", 8))
    scaling = str(meta.get("scaling", "xnor"))
    stem_stride = int(meta.get("stem_stride", 2 if image_size >= 64 else 1))
    n_stages = stages_for_image_size(image_size, stem_stride)
    channels = tuple(base_width * (2**i) for i in range(n_stages))
    return build_bnn_resnet(
        channels, scaling=scaling, stem_stride=stem_stride, seed=0
    )


@dataclass
class ModelEntry:
    """One registered model: weights, compiled engine, serving knobs."""

    name: str
    model: Module
    engine: ProgramEngine
    backend: str  #: engine backend name (always ``"packed"``)
    image_size: int  #: square input side the engine expects
    decision_bias: float = 0.0  #: score threshold (see ``BNNDetector``)
    meta: dict[str, object] = field(default_factory=dict)
    #: pass-pipeline signature the engine was compiled under
    #: (``"fold-bn>hoist-scales>liveness"``)
    pipeline: str = ""


class ModelRegistry:
    """Thread-safe name -> :class:`ModelEntry` store."""

    def __init__(self):
        self._entries: dict[str, ModelEntry] = {}
        self._lock = Lock()

    def register(
        self,
        name: str,
        model: Module,
        image_size: int,
        decision_bias: float = 0.0,
        meta: dict[str, object] | None = None,
    ) -> ModelEntry:
        """Compile and register a live model under ``name``.

        Re-registering a name replaces the previous entry (latest
        wins), which is how a rolling model update deploys; a model
        that fails to compile replaces nothing.
        """
        engine = ProgramEngine(model)
        entry = ModelEntry(
            name=name,
            model=model,
            engine=engine,
            backend=engine.backend_name,
            image_size=int(image_size),
            decision_bias=float(decision_bias),
            meta=dict(meta or {}),
            pipeline=engine.pipeline,
        )
        with self._lock:
            self._entries[name] = entry
        return entry

    def load_checkpoint(
        self,
        name: str,
        path: str | os.PathLike,
        model: Module | None = None,
        image_size: int | None = None,
    ) -> ModelEntry:
        """Load a ``.npz`` checkpoint and register it under ``name``.

        With ``model=None`` the architecture is rebuilt from the
        checkpoint's metadata record (written by ``repro train --save``);
        an explicit ``model`` skips that and just receives the weights.

        A corrupt, truncated, or checksum-failing checkpoint, or one
        without an architecture record (no ``image_size``), raises
        :class:`~repro.nn.serialization.CheckpointError` *before*
        anything is registered — a bad model file must never replace a
        live entry (re-registering a name is how rolling updates
        deploy, so the previous entry keeps serving).
        """
        try:
            meta = load_meta(path)
            if model is None:
                model = model_from_meta(meta)
            load_model(model, path)
        except CheckpointError as exc:
            raise CheckpointError(
                f"cannot register model {name!r}: {exc}"
            ) from exc
        if image_size is None:
            if "image_size" not in meta:
                raise CheckpointError(
                    f"cannot register model {name!r}: image_size not in "
                    "checkpoint metadata; pass image_size="
                )
            image_size = int(meta["image_size"])
        return self.register(
            name,
            model,
            image_size=image_size,
            decision_bias=float(meta.get("decision_bias", 0.0)),
            meta=meta,
        )

    def get(self, name: str) -> ModelEntry:
        """Look up an entry; raises ``KeyError`` with the known names."""
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                raise KeyError(
                    f"no model {name!r} registered "
                    f"(known: {sorted(self._entries) or 'none'})"
                ) from None

    def names(self) -> list[str]:
        """Registered model names, sorted."""
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
