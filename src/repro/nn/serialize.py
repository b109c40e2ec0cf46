"""Weight (de)serialization for layered model storage and streaming.

Layer weights travel as (name -> ndarray) dicts.  ``pack_state`` produces a
compact binary frame (header + raw float64 buffers) used both by the model
storage tables and the data streaming protocol's model-transfer messages.
"""

from __future__ import annotations

import math
import struct

import numpy as np

_MAGIC = b"NDBW"


def pack_state(state: dict[str, np.ndarray]) -> bytes:
    """Serialize a state dict to bytes."""
    parts: list[bytes] = [_MAGIC, struct.pack("<I", len(state))]
    for name in sorted(state):
        array = np.ascontiguousarray(state[name], dtype=np.float64)
        encoded_name = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded_name)))
        parts.append(encoded_name)
        parts.append(struct.pack("<B", array.ndim))
        parts.append(struct.pack(f"<{array.ndim}q", *array.shape))
        parts.append(array.tobytes())
    return b"".join(parts)


def unpack_state(blob: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`pack_state`.  The arrays are read-only views into
    ``blob``; ``Module.load_state_dict`` makes the one writable copy."""
    if blob[:4] != _MAGIC:
        raise ValueError("not a packed weight blob (bad magic)")
    offset = 4
    (count,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    state: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        name = blob[offset:offset + name_len].decode("utf-8")
        offset += name_len
        (ndim,) = struct.unpack_from("<B", blob, offset)
        offset += 1
        shape = struct.unpack_from(f"<{ndim}q", blob, offset)
        offset += 8 * ndim
        size = math.prod(shape)
        state[name] = np.frombuffer(blob, dtype=np.float64, count=size,
                                    offset=offset).reshape(shape)
        offset += size * 8
    return state


def state_nbytes(state: dict[str, np.ndarray]) -> int:
    """Approximate wire size of a state dict."""
    return sum(a.nbytes + len(n) + 16 for n, a in state.items()) + 8
