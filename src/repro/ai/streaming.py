"""The data streaming protocol between dispatchers and AI runtimes.

Paper §4.1: "the AI runtime establishes a TCP socket connection with the
dispatcher.  When a task is assigned ... it first schedules the AI runtimes
and performs handshakes with them to negotiate (1) model parameters ... and
(2) streaming parameters, e.g. the initial size for send and receive buffers
and the number of batches per transmission.  Then it starts the data and
model transfer through the connection."

This module implements that protocol over an in-process duplex channel that
stands in for the TCP socket: real framed messages (header + payload bytes),
a real handshake negotiating model/streaming parameters, and credit-based
windowed flow control (the receiver returns credit by method call, not by
frame).  Virtual time is charged per frame and per byte so the protocol's
efficiency is measurable.
"""

from __future__ import annotations

import enum
import json
import struct
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.common import categories as cat
from repro.common.errors import StreamProtocolError
from repro.common.simtime import CostModel, SimClock

_FRAME_HEADER = struct.Struct("<BI")  # type, payload length


class FrameType(enum.IntEnum):
    HANDSHAKE = 1
    HANDSHAKE_ACK = 2
    DATA_BATCH = 3
    MODEL_WEIGHTS = 4
    CREDIT = 5          # reserved: credit travels by method call today
    RENEGOTIATE = 6     # reserved: no sender emits it
    END_OF_STREAM = 7
    RESULT = 8


@dataclass
class Frame:
    type: FrameType
    payload: bytes

    def encode(self) -> bytes:
        return _FRAME_HEADER.pack(int(self.type), len(self.payload)) + self.payload

    @classmethod
    def decode(cls, data: bytes) -> "Frame":
        if len(data) < _FRAME_HEADER.size:
            raise StreamProtocolError("truncated frame header")
        type_value, length = _FRAME_HEADER.unpack_from(data)
        payload = data[_FRAME_HEADER.size:]
        if len(payload) != length:
            raise StreamProtocolError(
                f"frame length mismatch: header says {length}, "
                f"got {len(payload)}")
        return cls(FrameType(type_value), payload)


@dataclass
class StreamStats:
    """Accounting for one channel direction."""

    frames_sent: int = 0
    bytes_sent: int = 0
    batches_sent: int = 0
    handshakes: int = 0


class Channel:
    """In-process stand-in for a TCP connection between dispatcher and
    runtime.  Frames are queued as encoded bytes; each ``send`` charges the
    virtual clock with per-message and per-byte costs."""

    def __init__(self, clock: SimClock):
        self._clock = clock
        self._queue: deque[bytes] = deque()
        self.stats = StreamStats()

    def send(self, frame: Frame) -> None:
        encoded = frame.encode()
        self._queue.append(encoded)
        self.stats.frames_sent += 1
        self.stats.bytes_sent += len(encoded)
        if frame.type is FrameType.DATA_BATCH:
            self.stats.batches_sent += 1
        self._clock.advance(
            CostModel.NET_ROUND_TRIP * 0.5
            + len(encoded) * (CostModel.NET_PER_BYTE
                              + CostModel.SERIALIZE_PER_BYTE),
            cat.STREAM)

    def recv(self) -> Frame:
        if not self._queue:
            raise StreamProtocolError("recv on empty channel")
        return Frame.decode(self._queue.popleft())

    def pending(self) -> int:
        return len(self._queue)


@dataclass
class StreamConfig:
    """Negotiated streaming parameters (paper's handshake item 2)."""

    window_batches: int = 80      # paper default window size
    batch_size: int = 4096        # paper default records per batch
    batches_per_transmission: int = 1
    send_buffer_bytes: int = 1 << 20
    recv_buffer_bytes: int = 1 << 20

    def to_json(self) -> dict:
        return {
            "window_batches": self.window_batches,
            "batch_size": self.batch_size,
            "batches_per_transmission": self.batches_per_transmission,
            "send_buffer_bytes": self.send_buffer_bytes,
            "recv_buffer_bytes": self.recv_buffer_bytes,
        }

    @classmethod
    def from_json(cls, data: dict) -> "StreamConfig":
        return cls(**data)


def encode_handshake(model_spec: dict, config: StreamConfig) -> Frame:
    """Handshake frame carrying model parameters + streaming parameters."""
    payload = json.dumps({"model": model_spec,
                          "stream": config.to_json()}).encode("utf-8")
    return Frame(FrameType.HANDSHAKE, payload)


def decode_handshake(frame: Frame) -> tuple[dict, StreamConfig]:
    if frame.type is not FrameType.HANDSHAKE:
        raise StreamProtocolError(
            f"expected HANDSHAKE, got {frame.type.name}")
    data = json.loads(frame.payload.decode("utf-8"))
    return data["model"], StreamConfig.from_json(data["stream"])


def encode_batch(ids: np.ndarray, targets: np.ndarray) -> Frame:
    """Pack one training batch: int64 feature ids + float64 targets."""
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    header = struct.pack("<III", ids.shape[0], ids.shape[1], targets.size)
    return Frame(FrameType.DATA_BATCH,
                 header + ids.tobytes() + targets.tobytes())


def decode_batch(frame: Frame) -> tuple[np.ndarray, np.ndarray]:
    if frame.type is not FrameType.DATA_BATCH:
        raise StreamProtocolError(f"expected DATA_BATCH, got {frame.type.name}")
    rows, cols, target_count = struct.unpack_from("<III", frame.payload)
    offset = 12
    ids = np.frombuffer(frame.payload, dtype=np.int64, count=rows * cols,
                        offset=offset).reshape(rows, cols)
    offset += rows * cols * 8
    targets = np.frombuffer(frame.payload, dtype=np.float64,
                            count=target_count, offset=offset)
    return ids.copy(), targets.copy()


class StreamSender:
    """Dispatcher-side sender with credit-based flow control.

    The sender may only have ``window_batches`` unacknowledged batches in
    flight; the receiver grants credits back as it consumes.  A full window
    raises (callers drain credits first), making violations loud in tests.
    """

    def __init__(self, channel: Channel, config: StreamConfig):
        self._channel = channel
        self._config = config
        self._in_flight = 0

    def handshake(self, model_spec: dict) -> None:
        self._channel.send(encode_handshake(model_spec, self._config))
        self._channel.stats.handshakes += 1

    def send_batch(self, ids: np.ndarray, targets: np.ndarray) -> None:
        if self._in_flight >= self._config.window_batches:
            raise StreamProtocolError(
                f"window overflow: {self._in_flight} batches in flight "
                f"(window={self._config.window_batches})")
        self._channel.send(encode_batch(ids, targets))
        self._in_flight += 1

    def credit_received(self, batches: int) -> None:
        self._in_flight = max(0, self._in_flight - batches)

    def finish(self) -> None:
        self._channel.send(Frame(FrameType.END_OF_STREAM, b""))
