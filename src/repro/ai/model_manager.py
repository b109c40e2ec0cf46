"""Layered model storage with versioning and incremental updates.

Implements the paper's Fig. 3 exactly: a *Models* table keyed by (MID,
timestamp) and a *Layers* table keyed by (MID, LID, timestamp).  A model
version at time ``t`` assembles, for each layer position, the newest layer
row with timestamp <= t.  Incremental update (fine-tuning the suffix)
persists ONLY the retrained layers, so consecutive versions share the frozen
prefix — the storage saving the paper calls out.

Metadata rows live in real heap tables of this engine (models are managed
*by the database*, the paper's design point); the weight blobs live in a
blob store keyed by (MID, LID, timestamp).  A per-model index of those rows
(version timestamps, and each layer's timestamps, ascending) answers every
read, so resolving a version costs the same at 1 and at 1,000 versions.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from repro.ai.armnet import ARMNet
from repro.common import categories as cat
from repro.common.errors import ModelNotFound
from repro.common.simtime import CostModel, SimClock
from repro.nn.serialize import pack_state, unpack_state
from repro.storage.heap import HeapTable
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType


class ModelManager:
    """Fig. 3's model manager: training/inference/fine-tune handlers operate
    through model views over the Models/Layers tables."""

    def __init__(self, clock: SimClock | None = None):
        self.clock = clock if clock is not None else SimClock()
        self._models = HeapTable(TableSchema("_models", [
            Column("mid", DataType.INT),
            Column("name", DataType.TEXT),
            Column("timestamp", DataType.INT),
        ]))
        self._layers = HeapTable(TableSchema("_model_layers", [
            Column("mid", DataType.INT),
            Column("lid", DataType.INT),
            Column("timestamp", DataType.INT),
            Column("nbytes", DataType.INT),
        ]))
        self._blobs: dict[tuple[int, int, int], bytes] = {}
        self._specs: dict[int, dict] = {}
        self._layer_names: dict[int, tuple[str, ...]] = {}
        self._name_to_mid: dict[str, int] = {}
        # mid -> version timestamps / per-LID layer timestamps, ascending
        # (timestamps only grow, so appends keep both sorted)
        self._versions: dict[int, list[int]] = {}
        self._layer_stamps: dict[int, list[list[int]]] = {}
        self._next_mid = 1
        self._logical_time = 0

    # -- clocks & ids -------------------------------------------------------

    def _tick(self) -> int:
        self._logical_time += 1
        return self._logical_time

    # -- registration -----------------------------------------------------------

    def register_model(self, name: str, model: ARMNet) -> int:
        """Persist a freshly-trained model as version 1; returns timestamp."""
        if name.lower() in self._name_to_mid:
            raise ValueError(f"model {name.lower()!r} already registered; "
                             "use incremental_update or a new name")
        return self.replace_model(name, model)

    def incremental_update(self, name: str, model: ARMNet,
                           tuned_layers: list[str]) -> int:
        """Persist only the retrained layers as a new version (Fig. 3).

        Returns the new version timestamp.  Layers not in ``tuned_layers``
        are NOT rewritten; the new version shares them with its predecessor.
        The model's architecture must match the registered spec — a layer
        from a differently-shaped model would corrupt version assembly.
        """
        mid = self._mid_of(name)
        if model.spec() != self._specs[mid]:
            raise ValueError(
                f"model {name!r} spec changed "
                f"({self._specs[mid]} -> {model.spec()}); use "
                "replace_model for architecture changes")
        return self._persist_version(mid, name.lower(), model, tuned_layers)

    def replace_model(self, name: str, model: ARMNet) -> int:
        """(Re-)register a model under a name with a NEW model id (for
        architecture changes); old versions stay readable until the
        name mapping is dropped."""
        name = name.lower()
        mid = self._next_mid
        self._next_mid += 1
        self._name_to_mid[name] = mid
        self._specs[mid] = model.spec()
        self._layer_names[mid] = model.layer_names()
        self._versions[mid] = []
        self._layer_stamps[mid] = [[] for _ in model.layer_names()]
        return self._persist_version(mid, name, model, model.layer_names())

    def _persist_version(self, mid: int, name: str, model: ARMNet,
                         layer_names) -> int:
        timestamp = self._tick()
        self._models.insert((mid, name, timestamp))
        self._versions[mid].append(timestamp)
        names = self._layer_names[mid]
        for layer_name in layer_names:
            if layer_name not in names:
                raise KeyError(f"model {name!r} has no layer {layer_name!r}")
            lid = names.index(layer_name)
            blob = pack_state(model.layer_state(layer_name))
            self._blobs[(mid, lid, timestamp)] = blob
            self._layers.insert((mid, lid, timestamp, len(blob)))
            self._layer_stamps[mid][lid].append(timestamp)
        return timestamp

    # -- resolution & loading -------------------------------------------------------

    def resolve_layers(self, name: str,
                       timestamp: Optional[int] = None) -> list[tuple[int, int]]:
        """For each LID, the newest persisted timestamp <= requested.

        This is the paper's constraint:  L(p) has t_p >= t_q for persisted
        versions and t_p <= t (the view's timestamp).
        """
        mid = self._mid_of(name)
        limit = timestamp if timestamp is not None else self._logical_time
        resolved = []
        for lid, stamps in enumerate(self._layer_stamps[mid]):
            upto = bisect_right(stamps, limit)
            if not upto:
                raise ModelNotFound(
                    f"model {name!r} has no complete version at t<={limit}")
            resolved.append((lid, stamps[upto - 1]))
        return resolved

    def load_model(self, name: str,
                   timestamp: Optional[int] = None) -> ARMNet:
        """Assemble a model version from its layer rows.  Every layer is
        resolved (or ``resolve_layers`` raised) and loaded strictly, so the
        skeleton is built without drawing initial weights."""
        mid = self._mid_of(name)
        resolved = self.resolve_layers(name, timestamp)
        model = ARMNet.from_spec(self._specs[mid], seed=None)
        names = self._layer_names[mid]
        for lid, layer_timestamp in resolved:
            blob = self._blobs[(mid, lid, layer_timestamp)]
            model.load_layer(names[lid], unpack_state(blob))
            self.clock.advance(CostModel.MODEL_LOAD_PER_LAYER, cat.MODEL_LOAD)
        return model

    # -- introspection -----------------------------------------------------------

    def has_model(self, name: str) -> bool:
        return name.lower() in self._name_to_mid

    def versions(self, name: str) -> list[int]:
        return list(self._versions[self._mid_of(name)])

    def layer_rows(self, name: str) -> int:
        """Number of persisted layer rows (Fig. 3's Layers-table rows)."""
        return sum(map(len, self._layer_stamps[self._mid_of(name)]))

    def _mid_of(self, name: str) -> int:
        try:
            return self._name_to_mid[name.lower()]
        except KeyError:
            raise ModelNotFound(f"no model named {name!r}") from None
