"""The AI engine: task manager, dispatchers, and pipeline accounting.

Paper Fig. 2: the task manager "handles and parses the incoming AI tasks,
and creates a dispatcher for each task.  A dispatcher connects to multiple AI
runtimes ... loads and caches the necessary data ... performs data pipelines
on it for preprocessing, feature engineering, etc, and pushes the prepared
data and model weights to the remote AI runtime ... the data is transferred
in a streaming and pipelining manner."

Pipelining and virtual time
---------------------------
The dispatcher (producer: prepare + serialize + send) and the runtimes
(consumer: gradient steps) overlap.  Per batch *i* with cumulative producer
time ``ready_i`` and consumer cost ``c_i``::

    finish_i = max(ready_i, finish_{i-1}) + c_i

The task's makespan is ``handshake + finish_last``.  Producer and consumer
costs are measured on private clocks while the real work happens (real
frames, real gradients), then the engine advances the shared clock by the
makespan once — this is how streaming+pipelining shows up as a makespan
below the serial sum (``serial_seconds``) without double-counting.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.ai.armnet import ARMNet
from repro.ai.loader import (ColumnFeatures, ColumnTrainingSet,
                             StreamingDataLoader)
from repro.ai.model_manager import ModelManager
from repro.ai.monitor import Monitor
from repro.ai.runtime import AIRuntime
from repro.ai.streaming import Channel, StreamConfig, StreamSender
from repro.ai.tasks import (
    FineTuneTask,
    InferenceTask,
    ModelSelectionTask,
    TaskResult,
    TrainTask,
)
from repro.common import categories as cat
from repro.common.errors import AIEngineError, check_at_least
from repro.common.simtime import CostModel, SimClock
from repro.nn.losses import auc_score, mse_loss


class Dispatcher:
    """Per-task dispatcher: owns the loader, the channel(s), and the
    pipeline timeline for one AI task."""

    def __init__(self, task_id: int, clock_factory=SimClock):
        self.task_id = task_id
        self.producer_clock = clock_factory()
        self.consumer_clock = clock_factory()
        self._producer_ready: list[float] = []
        self._consumer_costs: list[float] = []

    def record_batch(self, producer_delta: float,
                     consumer_delta: float) -> None:
        cumulative = (self._producer_ready[-1] if self._producer_ready
                      else 0.0) + producer_delta
        self._producer_ready.append(cumulative)
        self._consumer_costs.append(consumer_delta)

    def makespan(self, parallel_runtimes: int = 1) -> float:
        """Pipelined end-to-end time for the recorded batches."""
        finish = 0.0
        scale = 1.0 / max(1, parallel_runtimes)
        for ready, cost in zip(self._producer_ready, self._consumer_costs):
            finish = max(ready, finish) + cost * scale
        return finish

    def serial_time(self) -> float:
        """What the same work would cost without pipelining (baseline)."""
        producer_total = self._producer_ready[-1] if self._producer_ready else 0.0
        return producer_total + sum(self._consumer_costs)

    @property
    def batches(self) -> int:
        return len(self._consumer_costs)


class AIEngine:
    """Task manager + dispatchers + runtimes (paper Fig. 2)."""

    def __init__(self, model_manager: ModelManager | None = None,
                 clock: SimClock | None = None, num_runtimes: int = 1,
                 monitor: Monitor | None = None,
                 stream_config: StreamConfig | None = None):
        self.clock = clock if clock is not None else SimClock()
        self.models = (model_manager if model_manager is not None
                       else ModelManager(self.clock))
        self.num_runtimes = check_at_least("num_runtimes", num_runtimes)
        self.monitor = monitor if monitor is not None else Monitor()
        self.stream_config = (stream_config if stream_config is not None
                              else StreamConfig())
        self.completed_tasks: list[TaskResult] = []

    # -- the streamed-epoch loop ---------------------------------------------

    def _stream_epochs(self, task: "TrainTask | FineTuneTask", model: ARMNet,
                       rows, targets, kind: str,
                       consumer_cost=None, **handshake) -> TaskResult:
        """Stream ``task.epochs`` passes of ``rows`` / ``targets`` to one
        runtime that takes a gradient step per batch — the one loop under
        :meth:`train` and :meth:`fine_tune`.  Producer and consumer time
        land on the dispatcher's private clocks; the caller charges the
        pipelined makespan (``virtual_seconds``) to the shared clock.

        ``consumer_cost(samples, fields)`` caps a batch's consumer charge
        (a fine-tune step is cheaper than the full step the runtime
        charged); ``handshake`` goes to
        :meth:`~repro.ai.runtime.AIRuntime.accept_handshake`.  The result
        has no ``model_version`` yet: the caller persists."""
        config = StreamConfig(
            window_batches=self.stream_config.window_batches,
            batch_size=task.batch_size)
        dispatcher = Dispatcher(task.task_id)
        producer, consumer = (dispatcher.producer_clock,
                              dispatcher.consumer_clock)
        channel = Channel(producer)
        sender = StreamSender(channel, config)
        runtime = AIRuntime(channel, consumer)
        sender.handshake(model.spec())
        runtime.accept_handshake(model=model, **handshake)

        samples = 0
        for _ in range(task.epochs):
            loader = StreamingDataLoader(rows, targets, model.hasher,
                                         batch_size=task.batch_size,
                                         window_batches=config.window_batches)
            for ids, batch_targets in loader:
                producer_before = producer.now
                producer.advance(ids.size * CostModel.PREP_PER_VALUE,
                                 cat.PREP)
                sender.send_batch(ids, batch_targets)
                producer_delta = producer.now - producer_before

                consumer_before = consumer.now
                runtime.consume_available(train=True)
                runtime.grant_credit(sender, 1)
                consumer_delta = consumer.now - consumer_before
                if consumer_cost is not None:
                    consumer_delta = min(consumer_delta, consumer_cost(
                        len(batch_targets), model.field_count))

                dispatcher.record_batch(producer_delta, consumer_delta)
                samples += len(batch_targets)
        sender.finish()

        makespan = (CostModel.NET_ROUND_TRIP  # handshake round trip
                    + dispatcher.makespan(self.num_runtimes))
        return TaskResult(task_id=task.task_id, model_name=task.model_name,
                          kind=kind, virtual_seconds=makespan,
                          samples_processed=samples,
                          losses=list(runtime.losses),
                          details={"batches": dispatcher.batches,
                                   "stream_stats": channel.stats,
                                   "serial_seconds":
                                       dispatcher.serial_time()})

    # -- training -------------------------------------------------------------

    def train(self, task: TrainTask, rows: Sequence[Sequence[object]],
              targets: Iterable[float],
              model: ARMNet | None = None) -> TaskResult:
        """Execute a Train task end-to-end through the streaming protocol.
        A model the engine built itself becomes, once persisted, the
        shared instance of its version; a caller's ``model`` stays the
        caller's."""
        if task.field_count <= 0:
            raise AIEngineError("TrainTask.field_count must be set")
        owned = model is None
        if owned:
            model = ARMNet(field_count=task.field_count,
                           task_type=task.task_type,
                           **task.hyperparams)
        result = self._stream_epochs(task, model, rows, targets, "train")
        self.clock.advance(result.virtual_seconds, cat.AI_TRAIN)
        if not self.models.has_model(task.model_name):
            result.model_version = self.models.register_model(
                task.model_name, model)
        else:
            # retraining an existing model: persist every layer as a new
            # full version; if the architecture changed, re-register
            try:
                result.model_version = self.models.incremental_update(
                    task.model_name, model, list(model.layer_names()))
            except ValueError:
                result.model_version = self.models.replace_model(
                    task.model_name, model)
        if owned:
            self.models.keep_assembled(task.model_name,
                                       result.model_version, model)
        self.completed_tasks.append(result)
        return result

    # -- inference --------------------------------------------------------------

    def infer(self, task: InferenceTask, rows) -> TaskResult:
        """Execute an Inference task with the requested model version.

        ``rows`` is either a sequence of raw feature tuples or a
        :class:`~repro.ai.loader.ColumnFeatures` (the columnar PREDICT
        path — hashed via ``transform_columns``, no row tuples built).
        """
        model = self.models.load_model(task.model_name, task.version)
        return self.infer_with_model(task, model, rows)

    def infer_with_model(self, task: InferenceTask, model: ARMNet,
                         rows) -> TaskResult:
        """Inference against an already-materialized model — the serving
        subsystem's entry point, where the model comes from a cache and
        must not be re-loaded (and re-charged) per request."""
        if isinstance(rows, ColumnFeatures):
            ids = model.hasher.transform_columns(rows.columns)
        else:
            ids = model.hasher.transform(rows)
        count = len(rows)
        cost = AIRuntime.infer_batch_cost(count, model.field_count)
        self.clock.advance(cost, cat.AI_INFER)
        predictions = model.predict_ids(ids)
        result = TaskResult(task_id=task.task_id, model_name=task.model_name,
                            kind="inference", virtual_seconds=cost,
                            samples_processed=count,
                            predictions=predictions)
        self.completed_tasks.append(result)
        return result

    # -- fine-tuning (incremental update) ----------------------------------------

    def fine_tune(self, task: FineTuneTask,
                  rows: Sequence[Sequence[object]],
                  targets: Iterable[float]) -> TaskResult:
        """Incremental update: retrain only the suffix layers on new data
        and persist only those layers as a new version (paper Fig. 3).
        The model trained is a writable copy of its own, never the
        instance readers share; once persisted, it becomes the shared
        instance of the new version."""
        model = self.models.build_model(task.model_name)
        trainable = model.freeze_prefix(task.tune_last_layers)
        if not isinstance(rows, ColumnTrainingSet):
            rows = list(rows)
            targets = list(targets)
        result = self._stream_epochs(
            task, model, rows, targets, "finetune",
            consumer_cost=AIRuntime.finetune_batch_cost,
            learning_rate=task.learning_rate, trainable_params=trainable)
        model.unfreeze_all()
        self.clock.advance(result.virtual_seconds, cat.AI_FINETUNE)
        tuned = list(model.layer_names()[-task.tune_last_layers:])
        result.model_version = self.models.incremental_update(
            task.model_name, model, tuned)
        self.models.keep_assembled(task.model_name, result.model_version,
                                   model)
        result.details["tuned_layers"] = tuned
        self.completed_tasks.append(result)
        return result

    # -- model selection (MSelection operator) --------------------------------------

    CANDIDATE_SPECS = {
        "armnet": {"embed_dim": 16, "num_cross": 8, "hidden_dim": 64},
        "mlp": {"embed_dim": 16, "num_cross": 1, "hidden_dim": 64},
        "logistic": {"embed_dim": 4, "num_cross": 1, "hidden_dim": 4},
    }

    def select_model(self, task: ModelSelectionTask,
                     rows: Sequence[Sequence[object]],
                     targets: Sequence[float],
                     train_fraction: float = 0.8,
                     steps: int = 30) -> TaskResult:
        """Train each candidate briefly on a split and pick the best by
        validation metric (AUC for classification, -MSE for regression)."""
        rows = list(rows)
        targets = np.asarray(list(targets), dtype=np.float64)
        if len(rows) < 10:
            raise AIEngineError("model selection needs at least 10 samples")
        split = max(1, int(len(rows) * train_fraction))
        field_count = len(rows[0])

        best_name, best_score = None, -np.inf
        scores: dict[str, float] = {}
        total_cost = 0.0
        for name in task.candidates:
            spec = self.CANDIDATE_SPECS.get(name)
            if spec is None:
                raise AIEngineError(f"unknown candidate model {name!r}")
            candidate = ARMNet(field_count=field_count,
                               task_type=task.task_type, **spec)
            score, cost = self._fit_and_score(
                candidate, rows[:split], targets[:split],
                rows[split:], targets[split:], steps)
            scores[name] = score
            total_cost += cost
            if score > best_score:
                best_name, best_score = name, score
        self.clock.advance(total_cost, cat.AI_MSELECT)
        result = TaskResult(task_id=task.task_id, model_name=task.model_name,
                            kind="mselection", virtual_seconds=total_cost,
                            samples_processed=len(rows), metric=best_score,
                            selected_model=best_name,
                            details={"scores": scores})
        self.completed_tasks.append(result)
        return result

    def _fit_and_score(self, model: ARMNet, train_rows, train_targets,
                       val_rows, val_targets,
                       steps: int) -> tuple[float, float]:
        from repro.nn.losses import bce_with_logits
        from repro.nn.optim import Adam
        ids = model.hasher.transform(train_rows)
        optimizer = Adam(list(model.parameters()), lr=5e-3)
        batch = min(256, len(train_rows))
        rng = np.random.default_rng(0)
        cost = 0.0
        for _ in range(steps):
            pick = rng.choice(len(train_rows), size=batch, replace=False)
            optimizer.zero_grad()
            outputs = model.forward(ids[pick])
            if model.task_type == "classification":
                loss = bce_with_logits(outputs, train_targets[pick])
            else:
                loss = mse_loss(outputs, train_targets[pick])
            loss.backward()
            optimizer.step()
            cost += AIRuntime.train_batch_cost(batch, model.field_count)
        if not val_rows:
            val_rows, val_targets = train_rows, train_targets
        predictions = model.predict(val_rows)
        cost += AIRuntime.infer_batch_cost(len(val_rows), model.field_count)
        if model.task_type == "classification":
            score = auc_score(predictions, np.asarray(val_targets))
        else:
            score = -float(np.mean((predictions
                                    - np.asarray(val_targets)) ** 2))
        return score, cost
