"""The in-database AI ecosystem: AI engine, streaming protocol, streaming
loader, model manager (layered storage + incremental update), monitor, and
the ARM-Net analytics model."""

from repro.ai.armnet import ARMNet, FeatureHasher
from repro.ai.engine import AIEngine, Dispatcher
from repro.ai.loader import (
    ColumnFeatures,
    ColumnTrainingSet,
    StreamingDataLoader,
    map_scan_blocks,
    table_feature_columns,
    table_training_set,
)
from repro.ai.model_manager import ModelManager
from repro.ai.monitor import DriftEvent, MetricStream, Monitor
from repro.ai.runtime import AIRuntime
from repro.ai.streaming import (
    Channel,
    Frame,
    FrameType,
    StreamConfig,
    StreamSender,
    StreamStats,
    decode_batch,
    decode_handshake,
    encode_batch,
    encode_handshake,
)
from repro.ai.tasks import (
    FineTuneTask,
    InferenceTask,
    ModelSelectionTask,
    TaskResult,
    TrainTask,
)

__all__ = [
    "AIEngine",
    "AIRuntime",
    "ARMNet",
    "Channel",
    "ColumnFeatures",
    "ColumnTrainingSet",
    "Dispatcher",
    "DriftEvent",
    "FeatureHasher",
    "FineTuneTask",
    "Frame",
    "FrameType",
    "InferenceTask",
    "MetricStream",
    "ModelManager",
    "ModelSelectionTask",
    "Monitor",
    "StreamConfig",
    "StreamSender",
    "StreamStats",
    "StreamingDataLoader",
    "TaskResult",
    "TrainTask",
    "decode_batch",
    "decode_handshake",
    "encode_batch",
    "encode_handshake",
    "map_scan_blocks",
    "table_feature_columns",
    "table_training_set",
]
