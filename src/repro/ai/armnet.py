"""ARM-Net-style adaptive relation modeling network for structured data.

The paper uses ARM-Net [Cai et al., SIGMOD'21] as the default analytics model
for both NeurDB and the PostgreSQL+P baseline.  This is a faithful small-scale
variant: per-field embeddings, an adaptive interaction module where learned
query vectors attend over the fields to form cross-feature representations
(the "adaptive relation modeling" idea — which feature combinations matter is
learned, not fixed), and an MLP head.

The model is organized as an ordered list of *named layers* so the model
manager can persist and version each layer independently (Fig. 3's layered
model storage), and fine-tuning can freeze a prefix (incremental update).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.common.rng import fnv1a, stable_hash
from repro.nn.layers import Embedding, Linear, Module
from repro.nn.tensor import Tensor
from repro.storage.types import TypedColumn

DEFAULT_HASH_BUCKETS = 4096


#: Columns shorter than this are hashed value by value: factorising has a
#: fixed numpy cost per column that pays back from about 20 rows on.
SHORT_COLUMN = 24

#: Rows per inference forward.  Activations grow with the rows: one
#: forward over a 163,840-row table held 3.3 GB.
INFER_ROWS = 1024

#: Distinct ``(field, value)`` ids one :class:`FeatureHasher` remembers;
#: the memo starts over when it reaches this many.
MEMO_ENTRIES = 65_536

_NUMBER = (int, float, np.number, np.bool_)


def _round2(x: np.ndarray) -> np.ndarray:
    """``round(v, 2)`` of every element of a float64 array, bit for bit.

    ``rint(x * 100) / 100`` is exact unless the product lands on a ``.5``
    tie (the product is rounded, so the true value may sit on either side)
    or leaves the integers float64 holds exactly; those cells — a 1e-9
    guard band around the ties, ``|x| >= 1e13``, NaN — go through
    ``round`` itself.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = x * 100.0
        out = np.rint(scaled) / 100.0
        unsure = ((np.abs(scaled - np.floor(scaled) - 0.5) < 1e-9)
                  | ~(np.abs(x) < 1e13))
    where = np.flatnonzero(unsure)
    if where.size:
        out[where] = [round(v, 2) for v in x[where].tolist()]
    return out


def _typed(col) -> "tuple[TypedColumn | list, bool]":
    """A feature column in the form the hasher works on, and whether it is
    numeric-kind.  Storage's typed columns pass through.  ``obj`` columns
    and plain sequences are typed by the classes of their elements: Python
    ints and floats become ``f8`` (both hash through ``float``), bools
    ``bool``; short columns and anything else — strings, numpy scalars,
    mixtures — become a plain list, numeric-kind when every element is a
    number (an all-NULL untyped column vacuously so)."""
    if isinstance(col, TypedColumn):
        if col.kind != "obj":
            return col, col.kind != "dict"
        col = col.data
    values = col.tolist() if isinstance(col, np.ndarray) else list(col)
    classes = set(map(type, values))
    has_null = type(None) in classes
    classes.discard(type(None))
    exact = classes and (classes <= {int, float} or classes == {bool})
    if exact and len(values) >= SHORT_COLUMN:
        kind, fill = ("bool", False) if bool in classes else ("f8", 0.0)
        valid, filled = None, values
        if has_null:
            valid = np.array([v is not None for v in values])
            filled = [fill if v is None else v for v in values]
        try:
            return TypedColumn(kind, np.array(filled, dtype=kind), valid), True
        except OverflowError:        # an int no float64 can hold
            pass
    return values, all(issubclass(c, _NUMBER) for c in classes)


class FeatureHasher:
    """Maps raw per-field values to integer ids via feature hashing.

    Two hash families, chosen by the *kinds* of the columns and never by
    their content: when every column is numeric-kind, non-NULL cells are
    quantized to 2 decimals and mixed with the field index through integer
    multiplies (:meth:`_mix_numeric`); otherwise every cell gets the FNV
    id of ``(field, value)`` (:meth:`_hash_value` — numbers quantized to 2
    decimals, strings as they are).  A NULL cell has the ``"<null>"`` FNV
    id in both, so a NULL never changes another cell's id.

    The column paths look each distinct value's FNV id up in a memo the
    hasher keeps across calls (:meth:`_memo_id`), so a hasher that lives
    as long as its model — a served one in the model cache — runs the FNV
    loop once per value it has ever seen, not once per batch.
    """

    def __init__(self, field_count: int, buckets: int = DEFAULT_HASH_BUCKETS):
        self.field_count = field_count
        self.buckets = buckets
        self._memo: dict[str, int] = {}

    def transform(self, rows: Sequence[Sequence[object]]) -> np.ndarray:
        """Rows of raw values -> (n, field_count) int ids: a transpose into
        :meth:`transform_columns`, the one definition of the hashing."""
        for row in rows:
            if len(row) != self.field_count:
                raise ValueError(
                    f"row has {len(row)} fields, expected {self.field_count}")
        if len(rows) == 0:
            return np.empty((0, self.field_count), dtype=np.int64)
        return self.transform_columns(list(zip(*rows)))

    def transform_columns(self, columns: Sequence[Sequence[object]]
                          ) -> np.ndarray:
        """Feature columns -> (n, field_count) int ids, a column at a time.

        Columns are storage's ``TypedColumn`` objects as scanned, or any
        sequence of raw values.  Hashing goes through the *distinct* values
        of a column, not its cells: dictionary codes, int64 / bool data and
        2-decimal-quantized float bit patterns are factorised with
        ``np.unique`` and only the distinct values reach
        :meth:`_memo_id`; the ids are gathered back by code.
        """
        if len(columns) != self.field_count:
            raise ValueError(
                f"got {len(columns)} columns, expected {self.field_count}")
        length = len(columns[0]) if columns else 0
        if any(len(col) != length for col in columns):
            raise ValueError("feature columns have unequal lengths")
        if length == 0:
            return np.empty((0, self.field_count), dtype=np.int64)
        typed = [_typed(col) for col in columns]
        if all(numeric for _, numeric in typed):
            return self._mix_columns([col for col, _ in typed])
        if length < SHORT_COLUMN:
            cells = zip(*(col if isinstance(col, list) else col.tolist()
                          for col, _ in typed))
            return np.array([[self._memo_id(j, value)
                              for j, value in enumerate(row)]
                             for row in cells], dtype=np.int64)
        out = np.empty((length, self.field_count), dtype=np.int64)
        for j, (col, _) in enumerate(typed):
            out[:, j] = self._hash_column(j, col)
        return out

    def _mix_columns(self, columns: "list[TypedColumn | list]") -> np.ndarray:
        """The numeric family over numeric-kind columns: every cell is
        mixed but the NULL and NaN ones, which keep their FNV ids."""
        floats = []
        for col in columns:
            if isinstance(col, list):
                col = [np.nan if v is None else v for v in col]
                floats.append(np.array(col, dtype=np.float64))
            else:
                values = col.data.astype(np.float64, copy=False)
                floats.append(values if col.valid is None
                              else np.where(col.valid, values, np.nan))
        numeric = np.column_stack(floats)
        ids = self._mix_numeric(numeric)
        missing = np.isnan(numeric)
        if missing.any():
            for j in np.flatnonzero(missing.any(axis=0)).tolist():
                col = columns[j]
                null = (np.array([v is None for v in col])
                        if isinstance(col, list) else col.null_mask())
                ids[missing[:, j], j] = self._memo_id(j, np.nan)
                ids[null, j] = self._memo_id(j, None)
        return ids

    def _mix_numeric(self, numeric: np.ndarray) -> np.ndarray:
        """Quantize a (n, field_count) float matrix and mix field index and
        value into bucket ids."""
        with np.errstate(over="ignore", invalid="ignore"):
            quantized = np.rint(numeric * 100).astype(np.int64)
        fields = np.arange(self.field_count, dtype=np.int64)
        mixed = (quantized * np.int64(0x9E3779B1)
                 + (fields + 1) * np.int64(0x85EBCA77))
        mixed ^= mixed >> 15
        mixed *= np.int64(0xC2B2AE35)
        mixed ^= mixed >> 13
        return np.abs(mixed) % self.buckets

    def _hash_column(self, field_idx: int,
                     col: "TypedColumn | list") -> np.ndarray:
        """FNV ids of one column of ``SHORT_COLUMN`` rows or more: lists of
        raw values hash value by value (each distinct string once), the
        typed kinds factorise."""
        if isinstance(col, list):
            texts = {v: self._memo_id(field_idx, v)
                     for v in {v for v in col if type(v) is str}}
            return np.array([texts[v] if type(v) is str
                             else self._memo_id(field_idx, v)
                             for v in col], dtype=np.int64)
        if col.kind == "f8":
            # the bit pattern keeps -0.0 apart from 0.0, as repr does
            distinct, codes = np.unique(_round2(col.data).view(np.int64),
                                        return_inverse=True)
            values = distinct.view(np.float64).tolist()
        else:
            distinct, codes = np.unique(col.data, return_inverse=True)
            values = distinct.tolist()
            if col.kind == "dict":
                values = [None if code < 0 else col.dictionary[code]
                          for code in values]
        ids = np.array([self._memo_id(field_idx, v) for v in values],
                       dtype=np.int64)[codes]
        if col.valid is not None:
            ids[~col.valid] = self._memo_id(field_idx, None)
        return ids

    def _hash_value(self, field_idx: int, value: object) -> int:
        """The FNV id of one cell, by definition: no memo."""
        return stable_hash(_feature_key(field_idx, value), self.buckets)

    def _memo_id(self, field_idx: int, value: object) -> int:
        """:meth:`_hash_value` through the memo.  The memo is keyed by the
        ``repr`` text the FNV hash reads, never by the key tuple: ``True``,
        ``1`` and ``1.0`` are one dict key, as are ``0.0`` and ``-0.0``,
        but ``True`` hashes apart from the other two and ``-0.0`` apart
        from ``0.0``.  A miss costs that one ``repr``, the FNV loop and
        one insert."""
        text = repr(_feature_key(field_idx, value))
        found = self._memo.get(text)
        if found is None:
            if len(self._memo) >= MEMO_ENTRIES:
                self._memo.clear()
            found = self._memo[text] = (fnv1a(text.encode("utf-8"))
                                        % self.buckets)
        return found


def _feature_key(field_idx: int, value: object) -> tuple:
    """What a cell is hashed as: ``(field, value)``, numbers quantized to
    2 decimals for bucket sharing, NULL as ``"<null>"``."""
    if value is None:
        return (field_idx, "<null>")
    if isinstance(value, bool):
        return (field_idx, value)
    if isinstance(value, (int, float)):
        return (field_idx, round(float(value), 2))
    return (field_idx, str(value))


class _InteractionLayer(Module):
    """Adaptive feature-interaction: K learned queries attend over fields."""

    def __init__(self, dim: int, num_cross: int,
                 rng: np.random.Generator):
        super().__init__()
        self.num_cross = num_cross
        self.dim = dim
        self.queries = Tensor(rng.standard_normal((num_cross, dim)) * 0.1,
                              requires_grad=True)
        self.value_proj = Linear(dim, dim, rng=rng)

    def forward(self, embedded: Tensor) -> Tensor:
        """(batch, fields, dim) -> (batch, num_cross * dim)."""
        batch = embedded.shape[0]
        # attention scores: (batch, K, fields)
        scores = self._expand_queries(batch) @ embedded.transpose(0, 2, 1)
        weights = (scores * (1.0 / np.sqrt(self.dim))).softmax(axis=-1)
        crossed = weights @ self.value_proj(embedded)  # (batch, K, dim)
        return crossed.reshape(batch, self.num_cross * self.dim)

    def _expand_queries(self, batch: int) -> Tensor:
        """Broadcast the learned queries across the batch with grad routing."""
        q = self.queries
        out = Tensor(np.broadcast_to(q.data[None, :, :],
                                     (batch, *q.data.shape)).copy(),
                     requires_grad=q.requires_grad, _parents=(q,))

        def backward() -> None:
            if q.requires_grad:
                q._accumulate(out.grad.sum(axis=0))
        out._backward = backward
        return out


class _NoInit:
    """Stands in for the generator when every weight is about to be
    loaded: the layers get zeros instead of drawing 65k normals."""

    @staticmethod
    def standard_normal(shape) -> np.ndarray:
        return np.zeros(shape)


class ARMNet(Module):
    """The analytics model: hash -> embed -> adaptive interaction -> MLP head.

    Layer order (the unit of incremental update, first = closest to input):
        ``embedding`` -> ``interaction`` -> ``head0`` -> ``head1``

    ``seed=None`` builds the skeleton with zero weights, for a caller that
    loads every layer next (:meth:`ModelManager.load_model`).
    """

    LAYER_NAMES = ("embedding", "interaction", "head0", "head1")

    def __init__(self, field_count: int, task_type: str = "classification",
                 embed_dim: int = 16, num_cross: int = 8,
                 hidden_dim: int = 64, buckets: int = DEFAULT_HASH_BUCKETS,
                 seed: int | None = 0):
        super().__init__()
        if task_type not in ("classification", "regression"):
            raise ValueError(f"unknown task_type {task_type!r}")
        rng = np.random.default_rng(seed) if seed is not None else _NoInit()
        self.field_count = field_count
        self.task_type = task_type
        self.hasher = FeatureHasher(field_count, buckets)
        self.embedding = Embedding(buckets, embed_dim, rng=rng)
        self.interaction = _InteractionLayer(embed_dim, num_cross, rng=rng)
        self.head0 = Linear(num_cross * embed_dim, hidden_dim, rng=rng)
        self.head1 = Linear(hidden_dim, 1, rng=rng)

    # -- forward -----------------------------------------------------------

    def forward(self, ids: np.ndarray) -> Tensor:
        """(batch, fields) hashed ids -> (batch,) logits/values."""
        embedded = self.embedding(ids)                 # (b, f, d)
        crossed = self.interaction(embedded)           # (b, K*d)
        hidden = self.head0(crossed).relu()
        out = self.head1(hidden)
        return out.reshape(out.shape[0])

    def forward_raw(self, rows: Sequence[Sequence[object]]) -> Tensor:
        """Raw value rows -> outputs (hashing included)."""
        return self.forward(self.hasher.transform(rows))

    def predict(self, rows: Sequence[Sequence[object]]) -> np.ndarray:
        """Inference: probabilities for classification, values for regression."""
        return self.predict_ids(self.hasher.transform(rows))

    def predict_ids(self, ids: np.ndarray) -> np.ndarray:
        """Inference over pre-hashed ids — the columnar serving path, where
        the hasher already ran on column arrays and re-hashing per call
        would double the preprocessing work.  At most ``INFER_ROWS`` rows
        go through one forward, so memory stays flat in the table size; a
        one-row tail joins the chunk before it, because a one-row product
        takes BLAS's matrix-vector path, whose last bits differ."""
        count = len(ids)
        if count <= INFER_ROWS + 1:
            logits = self.forward(ids).data
        else:
            cuts = range(INFER_ROWS, count - 1, INFER_ROWS)
            logits = np.concatenate([self.forward(part).data
                                     for part in np.split(ids, cuts)])
        if self.task_type == "classification":
            return 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))
        return logits

    # -- layered storage interface (model manager contract) ------------------

    def layer_names(self) -> tuple[str, ...]:
        return self.LAYER_NAMES

    def layer_module(self, name: str) -> Module:
        if name not in self.LAYER_NAMES:
            raise KeyError(f"unknown layer {name!r}")
        return getattr(self, name)

    def layer_state(self, name: str) -> dict[str, np.ndarray]:
        return self.layer_module(name).state_dict()

    def load_layer(self, name: str, state: dict[str, np.ndarray]) -> None:
        self.layer_module(name).load_state_dict(state)

    def freeze_prefix(self, tune_last: int) -> list[Tensor]:
        """Mark all but the last ``tune_last`` layers non-trainable; returns
        the still-trainable parameters (for the fine-tune optimizer)."""
        trainable: list[Tensor] = []
        cut = len(self.LAYER_NAMES) - tune_last
        for i, name in enumerate(self.LAYER_NAMES):
            module = self.layer_module(name)
            for param in module.parameters():
                param.requires_grad = i >= cut
                if i >= cut:
                    trainable.append(param)
        return trainable

    def unfreeze_all(self) -> None:
        for name in self.LAYER_NAMES:
            for param in self.layer_module(name).parameters():
                param.requires_grad = True

    def spec(self) -> dict:
        """Construction arguments, shipped in the streaming handshake."""
        return {
            "field_count": self.field_count,
            "task_type": self.task_type,
            "embed_dim": self.embedding.dim,
            "num_cross": self.interaction.num_cross,
            "hidden_dim": self.head0.out_features,
            "buckets": self.hasher.buckets,
        }

    @classmethod
    def from_spec(cls, spec: dict, seed: int | None = 0) -> "ARMNet":
        return cls(field_count=spec["field_count"],
                   task_type=spec["task_type"],
                   embed_dim=spec.get("embed_dim", 16),
                   num_cross=spec.get("num_cross", 8),
                   hidden_dim=spec.get("hidden_dim", 64),
                   buckets=spec.get("buckets", DEFAULT_HASH_BUCKETS),
                   seed=seed)
