"""Tests for the in-database AI ecosystem: streaming protocol, loader,
model manager (incremental updates), monitor, ARM-Net, AI engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ai import (
    AIEngine,
    ARMNet,
    Channel,
    ColumnFeatures,
    ColumnTrainingSet,
    FeatureHasher,
    FineTuneTask,
    Frame,
    FrameType,
    InferenceTask,
    ModelManager,
    ModelSelectionTask,
    Monitor,
    StreamConfig,
    StreamSender,
    StreamingDataLoader,
    TrainTask,
    decode_batch,
    decode_handshake,
    encode_batch,
    encode_handshake,
)
from repro.common.errors import ModelNotFound, StreamProtocolError
from repro.common.simtime import SimClock

RNG = np.random.default_rng(0)


def make_dataset(n=600, fields=5, seed=3):
    rng = np.random.default_rng(seed)
    rows = [[float(v) for v in rng.integers(0, 15, fields)]
            for _ in range(n)]
    weights = rng.standard_normal(fields)
    logits = np.array([sum(r[j] * weights[j] for j in range(fields))
                       for r in rows]) / 8 - 0.5
    labels = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(float)
    return rows, labels


class TestFrames:
    def test_frame_roundtrip(self):
        frame = Frame(FrameType.DATA_BATCH, b"payload")
        assert Frame.decode(frame.encode()).payload == b"payload"

    def test_frame_truncated(self):
        with pytest.raises(StreamProtocolError):
            Frame.decode(b"\x01")

    def test_frame_length_mismatch(self):
        good = Frame(FrameType.END_OF_STREAM, b"abc").encode()
        with pytest.raises(StreamProtocolError):
            Frame.decode(good + b"extra")

    def test_frame_unknown_type(self):
        with pytest.raises(StreamProtocolError, match="unknown frame type 99"):
            Frame.decode(b"\x63\0\0\0\0")

    def test_handshake_roundtrip(self):
        config = StreamConfig(window_batches=7, batch_size=123)
        frame = encode_handshake({"field_count": 4}, config)
        spec, decoded = decode_handshake(frame)
        assert spec == {"field_count": 4}
        assert decoded.window_batches == 7
        assert decoded.batch_size == 123

    def test_batch_roundtrip(self):
        ids = RNG.integers(0, 100, (16, 4))
        targets = RNG.random(16)
        out_ids, out_targets = decode_batch(encode_batch(ids, targets))
        assert np.array_equal(out_ids, ids)
        assert np.allclose(out_targets, targets)

    def test_wrong_frame_type_rejected(self):
        frame = Frame(FrameType.END_OF_STREAM, b"")
        with pytest.raises(StreamProtocolError):
            decode_batch(frame)

    @given(st.integers(1, 50), st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_batch_roundtrip_property(self, rows, cols):
        ids = RNG.integers(0, 1000, (rows, cols))
        targets = RNG.random(rows)
        out_ids, out_targets = decode_batch(encode_batch(ids, targets))
        assert np.array_equal(out_ids, ids)
        assert np.allclose(out_targets, targets)


class TestChannelAndFlowControl:
    def test_channel_fifo(self):
        channel = Channel(SimClock())
        channel.send(Frame(FrameType.DATA_BATCH, b"1"))
        channel.send(Frame(FrameType.DATA_BATCH, b"2"))
        assert channel.recv().payload == b"1"
        assert channel.recv().payload == b"2"

    def test_recv_empty_raises(self):
        with pytest.raises(StreamProtocolError):
            Channel(SimClock()).recv()

    def test_send_charges_clock(self):
        clock = SimClock()
        channel = Channel(clock)
        channel.send(Frame(FrameType.DATA_BATCH, b"x" * 1000))
        assert clock.now > 0

    def test_window_overflow(self):
        channel = Channel(SimClock())
        sender = StreamSender(channel, StreamConfig(window_batches=2))
        ids, targets = np.zeros((1, 1), dtype=np.int64), np.zeros(1)
        sender.send_batch(ids, targets)
        sender.send_batch(ids, targets)
        with pytest.raises(StreamProtocolError):
            sender.send_batch(ids, targets)

    def test_credit_opens_window(self):
        channel = Channel(SimClock())
        sender = StreamSender(channel, StreamConfig(window_batches=1))
        ids, targets = np.zeros((1, 1), dtype=np.int64), np.zeros(1)
        sender.send_batch(ids, targets)
        sender.credit_received(1)
        sender.send_batch(ids, targets)  # allowed again
        with pytest.raises(StreamProtocolError):   # and the window is full
            sender.send_batch(ids, targets)

    def test_stats_accumulate(self):
        channel = Channel(SimClock())
        sender = StreamSender(channel, StreamConfig())
        sender.handshake({"field_count": 2})
        sender.send_batch(np.zeros((4, 2), dtype=np.int64), np.zeros(4))
        sender.finish()
        assert channel.stats.handshakes == 1
        assert channel.stats.batches_sent == 1
        assert channel.stats.frames_sent == 3
        assert channel.stats.bytes_sent > 0


class TestFeatureHasher:
    def test_deterministic(self):
        hasher = FeatureHasher(3, 100)
        rows = [[1.0, 2.0, 3.0]]
        assert np.array_equal(hasher.transform(rows),
                              hasher.transform(rows))

    def test_field_mixing(self):
        hasher = FeatureHasher(2, 10_000)
        ids = hasher.transform([[7.0, 7.0]])
        assert ids[0, 0] != ids[0, 1]  # same value, different fields

    def test_vectorized_and_range(self):
        hasher = FeatureHasher(4, 256)
        rows = RNG.random((50, 4)) * 100
        ids = hasher.transform(rows)
        assert ids.shape == (50, 4)
        assert ids.min() >= 0 and ids.max() < 256

    def test_string_rows(self):
        hasher = FeatureHasher(2, 100)
        ids = hasher.transform([["a", "b"], ["a", "c"]])
        assert ids[0, 0] == ids[1, 0]
        assert ids[0, 1] != ids[1, 1] or True  # collisions allowed

    def test_wrong_arity(self):
        hasher = FeatureHasher(3, 10)
        with pytest.raises(ValueError):
            hasher.transform([[1.0, 2.0]])

    def test_empty(self):
        hasher = FeatureHasher(3, 10)
        assert hasher.transform([]).shape == (0, 3)


@pytest.mark.parametrize("make", [
    ColumnFeatures,
    lambda columns: ColumnTrainingSet(
        columns, np.zeros(len(columns[0]) if columns else 0)),
], ids=["features", "training-set"])
class TestColumnHandOff:
    """The one column hand-off, with and without targets."""

    def test_rows_and_len(self, make):
        data = make([np.array([1, 2, 3], dtype=object),
                     np.array(["a", None, "c"], dtype=object)])
        assert len(data) == 3 and data
        assert data.rows() == [(1, "a"), (2, None), (3, "c")]
        assert data.rows() is data.rows()          # built once

    def test_empty_sets(self, make):
        for empty in (make([np.empty(0, dtype=object)]), make([])):
            assert len(empty) == 0 and not empty
            assert empty.rows() == []

    def test_ragged_columns_rejected(self, make):
        with pytest.raises(ValueError, match="equal lengths"):
            make([np.zeros(3, dtype=object), np.zeros(2, dtype=object)])


def test_training_set_length_follows_targets():
    with pytest.raises(ValueError, match="equal lengths"):
        ColumnTrainingSet([np.zeros(3, dtype=object)], np.zeros(2))
    featureless = ColumnTrainingSet([], np.zeros(4))
    assert len(featureless) == 4 and featureless.rows() == [()] * 4


class TestStreamingDataLoader:
    def test_batches_cover_all_rows(self):
        rows, labels = make_dataset(250)
        loader = StreamingDataLoader(rows, labels, FeatureHasher(5),
                                     batch_size=64, window_batches=2)
        total = sum(len(t) for _, t in loader)
        assert total == 250

    def test_last_batch_partial(self):
        rows, labels = make_dataset(130)
        loader = StreamingDataLoader(rows, labels, FeatureHasher(5),
                                     batch_size=64, window_batches=4)
        sizes = [len(t) for _, t in loader]
        assert sizes == [64, 64, 2]

    def test_window_bounded(self):
        rows, labels = make_dataset(600)
        hasher = FeatureHasher(5)
        prepared = []
        real = hasher.transform

        def counting(batch):
            prepared.append(len(batch))
            return real(batch)
        hasher.transform = counting
        loader = StreamingDataLoader(rows, labels, hasher,
                                     batch_size=10, window_batches=3)
        loader.fill_window()
        assert prepared == [10, 10, 10]     # 60 batches waiting, 3 prepared

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StreamingDataLoader([], [], FeatureHasher(1), batch_size=0)
        with pytest.raises(ValueError):
            StreamingDataLoader([], [], FeatureHasher(1), window_batches=0)

    @pytest.mark.parametrize("targets", [7, 12])
    def test_unequal_lengths_rejected(self, targets):
        """Rows and targets of different lengths are an error naming both
        — not a last batch of 4 rows beside 3 targets, nor 2 targets
        dropped without a word."""
        rows, labels = make_dataset(12)
        loader = StreamingDataLoader(rows[:10], labels[:targets],
                                     FeatureHasher(5), batch_size=4)
        with pytest.raises(ValueError,
                           match=f"10 rows, {targets} targets"):
            list(loader)


class TestModelManager:
    def _model(self, seed=0):
        return ARMNet(field_count=3, embed_dim=4, num_cross=2,
                      hidden_dim=8, buckets=64, seed=seed)

    def test_register_and_load_roundtrip(self):
        manager = ModelManager()
        model = self._model()
        manager.register_model("m", model)
        loaded = manager.load_model("m")
        rows = [[1.0, 2.0, 3.0]]
        assert np.allclose(model.predict(rows), loaded.predict(rows))

    def test_duplicate_registration_rejected(self):
        manager = ModelManager()
        manager.register_model("m", self._model())
        with pytest.raises(ValueError):
            manager.register_model("m", self._model())

    def test_missing_model(self):
        with pytest.raises(ModelNotFound):
            ModelManager().load_model("ghost")

    def test_incremental_update_creates_version(self):
        manager = ModelManager()
        model = self._model()
        t1 = manager.register_model("m", model)
        model.head1.weight.data += 1.0
        t2 = manager.incremental_update("m", model, ["head1"])
        assert t2 > t1
        assert manager.versions("m") == [t1, t2]

    def test_version_resolution_rule(self):
        """Fig. 3: a view at time t assembles newest layer <= t per LID."""
        manager = ModelManager()
        model = self._model()
        t1 = manager.register_model("m", model)
        original_head = model.head1.weight.data.copy()
        model.head1.weight.data += 5.0
        t2 = manager.incremental_update("m", model, ["head1"])

        old_version = manager.load_model("m", timestamp=t1)
        new_version = manager.load_model("m", timestamp=t2)
        assert np.allclose(old_version.head1.weight.data, original_head)
        assert np.allclose(new_version.head1.weight.data,
                           original_head + 5.0)
        # frozen prefix shared between versions
        assert np.allclose(old_version.embedding.weight.data,
                           new_version.embedding.weight.data)

    def test_incremental_update_stores_only_tuned_layers(self):
        manager = ModelManager()
        model = self._model()
        manager.register_model("m", model)
        rows_before = manager.layer_rows("m")
        first = manager.versions("m")[-1]
        second = manager.incremental_update("m", model, ["head0", "head1"])
        assert manager.layer_rows("m") == rows_before + 2
        # the new version shares every other layer with its predecessor
        names = model.layer_names()
        assert {names[lid]: stamp
                for lid, stamp in manager.resolve_layers("m")} == {
            name: second if name in ("head0", "head1") else first
            for name in names}

    def test_unknown_layer_rejected(self):
        manager = ModelManager()
        model = self._model()
        manager.register_model("m", model)
        with pytest.raises(KeyError):
            manager.incremental_update("m", model, ["nope"])

    def test_no_complete_version_before_first(self):
        manager = ModelManager()
        manager.register_model("m", self._model())
        with pytest.raises(ModelNotFound):
            manager.resolve_layers("m", timestamp=0)

    def _versions(self, count: int) -> tuple[ModelManager, list[int]]:
        manager = ModelManager(SimClock())
        model = self._model()
        stamps = [manager.register_model("m", model)]
        for step in range(count - 1):
            model.head1.weight.data += 0.5 * (step + 1)
            stamps.append(manager.incremental_update("m", model,
                                                     ["head1"]))
        return manager, stamps

    def test_loads_of_one_version_share_one_instance(self):
        manager, (t1, t2) = self._versions(2)
        newest = manager.load_model("m")
        assert manager.load_model("m", timestamp=t2) is newest
        assert manager.load_model("M") is newest
        assert manager.load_model("m", timestamp=t1) is not newest
        assert (manager.loads, manager.builds) == (4, 2)
        # a reused version charges what a fresh build of it charges
        fresh, _ = self._versions(2)
        for timestamp in (None, t2, None, t1):
            fresh.build_model("m", timestamp)
        assert manager.clock.breakdown() == fresh.clock.breakdown()
        assert manager.clock.now == fresh.clock.now

    def test_loaded_parameters_are_read_only(self):
        manager, _ = self._versions(1)
        loaded = manager.load_model("m")
        for param in loaded.parameters():
            with pytest.raises(ValueError, match="read-only"):
                param.data += 1.0
        with pytest.raises(ValueError, match="read-only"):
            loaded.embedding.weight.data[0, 0] = 1.0
        built = manager.build_model("m")
        built.head1.weight.data += 1.0       # the writer's own copy
        rows = [[1.0, 2.0, 3.0]]
        assert not np.array_equal(built.predict(rows), loaded.predict(rows))

    def test_assembled_versions_are_bounded(self):
        from repro.ai.model_manager import ASSEMBLED_VERSIONS
        count = ASSEMBLED_VERSIONS + 2
        manager, stamps = self._versions(count)
        rows = [[1.0, 2.0, 3.0], ["a", None, 0.25]]
        first = manager.load_model("m", stamps[0])
        expected = first.predict(rows).tobytes()
        for stamp in stamps[1:]:
            manager.load_model("m", stamp)
        assert len(manager._assembled) == ASSEMBLED_VERSIONS
        again = manager.load_model("m", stamps[0])   # evicted: rebuilt
        assert again is not first
        assert manager.builds == count + 1
        assert again.predict(rows).tobytes() == expected

    def test_fine_tune_trains_its_own_copy(self):
        rows, labels = make_dataset(200)
        engine = AIEngine()
        engine.train(TrainTask(model_name="m", field_count=5,
                               batch_size=64), rows, labels)
        before = engine.models.load_model("m")
        snapshot = [p.data.copy() for p in before.parameters()]
        predictions = before.predict(rows[:50]).tobytes()
        engine.fine_tune(FineTuneTask(model_name="m", epochs=1,
                                      batch_size=64,
                                      learning_rate=5e-2),
                         rows[:64], labels[:64])
        for param, data in zip(before.parameters(), snapshot):
            assert param.data.tobytes() == data.tobytes()
        assert before.predict(rows[:50]).tobytes() == predictions
        after = engine.models.load_model("m")
        assert after is not before
        assert after.predict(rows[:50]).tobytes() != predictions


class TestMonitor:
    def test_detects_loss_increase(self):
        monitor = Monitor()
        monitor.register("loss", threshold=0.3, window=3)
        events = [monitor.observe("loss", 1.0) for _ in range(6)]
        events += [monitor.observe("loss", 2.0) for _ in range(3)]
        assert any(e is not None for e in events)

    def test_no_event_when_stable(self):
        monitor = Monitor()
        monitor.register("loss", threshold=0.3, window=3)
        events = [monitor.observe("loss", 1.0 + 0.01 * i)
                  for i in range(20)]
        assert all(e is None for e in events)

    def test_higher_is_better_direction(self):
        monitor = Monitor()
        monitor.register("tput", higher_is_better=True, threshold=0.3,
                         window=3)
        for _ in range(6):
            monitor.observe("tput", 100.0)
        events = [monitor.observe("tput", 40.0) for _ in range(3)]
        assert any(e is not None for e in events)

    def test_cooldown_suppresses_storm(self):
        monitor = Monitor()
        monitor.register("loss", threshold=0.1, window=3, cooldown=100)
        for _ in range(6):
            monitor.observe("loss", 1.0)
        for _ in range(20):
            monitor.observe("loss", 5.0)
        assert monitor.drift_count("loss") == 1

    def test_trigger_callback(self):
        monitor = Monitor()
        monitor.register("loss", threshold=0.1, window=3)
        fired = []
        monitor.on_drift("loss", fired.append)
        for _ in range(6):
            monitor.observe("loss", 1.0)
        for _ in range(4):
            monitor.observe("loss", 9.0)
        assert fired and fired[0].stream == "loss"

    def test_unknown_stream(self):
        with pytest.raises(KeyError):
            Monitor().observe("nope", 1.0)

    def test_duplicate_stream(self):
        monitor = Monitor()
        monitor.register("x")
        with pytest.raises(ValueError):
            monitor.register("x")

    def test_stream_shorter_than_reference_window_never_fires(self):
        # drift needs a full reference AND a full recent window: the first
        # 2*window-1 observations can never fire, however degraded
        monitor = Monitor()
        monitor.register("loss", threshold=0.1, window=5)
        events = [monitor.observe("loss", 1.0 if i < 5 else 100.0)
                  for i in range(9)]
        assert all(e is None for e in events)
        assert monitor.drift_count("loss") == 0

    def test_higher_is_better_improvement_never_fires(self):
        monitor = Monitor()
        monitor.register("tput", higher_is_better=True, threshold=0.3,
                         window=3)
        for _ in range(6):
            monitor.observe("tput", 100.0)
        events = [monitor.observe("tput", 500.0) for _ in range(10)]
        assert all(e is None for e in events)

    def test_lower_is_better_improvement_never_fires(self):
        monitor = Monitor()
        monitor.register("loss", threshold=0.3, window=3)
        for _ in range(6):
            monitor.observe("loss", 1.0)
        events = [monitor.observe("loss", 0.01) for _ in range(10)]
        assert all(e is None for e in events)

    def test_trigger_callback_error_captured_not_raised(self):
        # an erroring adaptation trigger must not break the metric
        # pipeline, and later triggers for the same event must still run
        monitor = Monitor()
        monitor.register("loss", threshold=0.1, window=3)
        fired = []

        def bad(_event):
            raise RuntimeError("refresh enqueue failed")

        monitor.on_drift("loss", bad)
        monitor.on_drift("loss", fired.append)
        for _ in range(6):
            monitor.observe("loss", 1.0)
        for _ in range(4):
            monitor.observe("loss", 9.0)
        assert fired, "second trigger must still run"
        assert monitor.trigger_errors
        event, error = monitor.trigger_errors[0]
        assert event.stream == "loss"
        assert isinstance(error, RuntimeError)

    def test_drift_count_filters_by_stream(self):
        monitor = Monitor()
        monitor.register("a", threshold=0.1, window=3)
        monitor.register("b", threshold=0.1, window=3)
        for _ in range(6):
            monitor.observe("a", 1.0)
            monitor.observe("b", 1.0)
        for _ in range(4):
            monitor.observe("a", 9.0)  # only stream a drifts
            monitor.observe("b", 1.0)
        assert monitor.drift_count("a") >= 1
        assert monitor.drift_count("b") == 0
        assert monitor.drift_count() == monitor.drift_count("a")
        assert monitor.drift_count("nope") == 0  # unknown name: no events

    def test_has_stream_and_ensure_stream(self):
        monitor = Monitor()
        assert not monitor.has_stream("loss")
        created = monitor.ensure_stream("loss", threshold=0.2, window=4)
        assert monitor.has_stream("loss")
        # idempotent: the existing stream (and its parameters) win
        again = monitor.ensure_stream("loss", threshold=0.9, window=99)
        assert again is created
        assert again.threshold == 0.2


class TestARMNet:
    def test_forward_shape(self):
        model = ARMNet(field_count=4, buckets=64)
        ids = RNG.integers(0, 64, (8, 4))
        assert model.forward(ids).shape == (8,)

    def test_predict_classification_range(self):
        model = ARMNet(field_count=3, task_type="classification",
                       buckets=64)
        probs = model.predict([[1.0, 2.0, 3.0]])
        assert 0.0 <= probs[0] <= 1.0

    def test_predict_regression_unbounded(self):
        model = ARMNet(field_count=3, task_type="regression", buckets=64)
        out = model.predict([[1.0, 2.0, 3.0]])
        assert out.shape == (1,)

    def test_invalid_task_type(self):
        with pytest.raises(ValueError):
            ARMNet(field_count=2, task_type="clustering")

    def test_spec_roundtrip(self):
        model = ARMNet(field_count=5, embed_dim=8, num_cross=3,
                       hidden_dim=16, buckets=128)
        clone = ARMNet.from_spec(model.spec())
        assert clone.field_count == 5
        assert clone.spec() == model.spec()

    def test_freeze_prefix(self):
        model = ARMNet(field_count=3, buckets=64)
        trainable = model.freeze_prefix(tune_last=2)
        head_params = (list(model.head0.parameters())
                       + list(model.head1.parameters()))
        assert len(trainable) == len(head_params)
        assert all(not p.requires_grad
                   for p in model.embedding.parameters())
        model.unfreeze_all()
        assert all(p.requires_grad for p in model.parameters())

    def test_layer_state_roundtrip(self):
        model = ARMNet(field_count=3, buckets=64, seed=1)
        other = ARMNet(field_count=3, buckets=64, seed=2)
        for name in model.layer_names():
            other.load_layer(name, model.layer_state(name))
        ids = RNG.integers(0, 64, (4, 3))
        assert np.allclose(model.forward(ids).data,
                           other.forward(ids).data)


class TestAIEngine:
    def test_train_reduces_loss(self):
        rows, labels = make_dataset(800)
        engine = AIEngine()
        result = engine.train(
            TrainTask(model_name="m", field_count=5, epochs=3,
                      batch_size=128), rows, labels)
        assert np.mean(result.losses[:3]) > np.mean(result.losses[-3:])
        assert result.samples_processed == 800 * 3

    def test_pipelined_beats_serial(self):
        rows, labels = make_dataset(500)
        engine = AIEngine()
        result = engine.train(
            TrainTask(model_name="m", field_count=5, batch_size=64),
            rows, labels)
        assert result.virtual_seconds < result.details["serial_seconds"]

    def test_train_registers_model(self):
        rows, labels = make_dataset(200)
        engine = AIEngine()
        engine.train(TrainTask(model_name="m", field_count=5,
                               batch_size=64), rows, labels)
        assert engine.models.has_model("m")

    def test_infer_after_train(self):
        rows, labels = make_dataset(300)
        engine = AIEngine()
        engine.train(TrainTask(model_name="m", field_count=5,
                               batch_size=64), rows, labels)
        result = engine.infer(InferenceTask(model_name="m"), rows[:10])
        assert result.predictions.shape == (10,)
        assert (0 <= result.predictions).all()
        assert (result.predictions <= 1).all()

    def test_finetune_creates_version_and_is_cheaper(self):
        rows, labels = make_dataset(600)
        engine = AIEngine()
        train = engine.train(TrainTask(model_name="m", field_count=5,
                                       batch_size=128), rows, labels)
        tune = engine.fine_tune(
            FineTuneTask(model_name="m", tune_last_layers=2, epochs=1,
                         batch_size=128), rows[:256], labels[:256])
        assert tune.model_version is not None
        assert engine.models.versions("m") == [1, 2]
        per_sample_train = train.virtual_seconds / train.samples_processed
        per_sample_tune = tune.virtual_seconds / tune.samples_processed
        assert per_sample_tune < per_sample_train

    def test_finetune_leaves_model_unfrozen(self):
        rows, labels = make_dataset(200)
        engine = AIEngine()
        engine.train(TrainTask(model_name="m", field_count=5,
                               batch_size=64), rows, labels)
        engine.fine_tune(FineTuneTask(model_name="m", epochs=1,
                                      batch_size=64),
                         rows[:64], labels[:64])
        model = engine.models.load_model("m")
        assert all(p.requires_grad for p in model.parameters())

    def test_model_selection_picks_a_candidate(self):
        rows, labels = make_dataset(400)
        engine = AIEngine()
        result = engine.select_model(
            ModelSelectionTask(model_name="sel"), rows, labels, steps=5)
        assert result.selected_model in ("armnet", "mlp", "logistic")
        assert set(result.details["scores"]) == {"armnet", "mlp",
                                                 "logistic"}

    def test_train_requires_field_count(self):
        from repro.common.errors import AIEngineError
        with pytest.raises(AIEngineError):
            AIEngine().train(TrainTask(model_name="m"), [], [])

    def test_more_runtimes_faster(self):
        rows, labels = make_dataset(600)
        slow = AIEngine(num_runtimes=1).train(
            TrainTask(model_name="a", field_count=5, batch_size=64),
            rows, labels)
        fast = AIEngine(num_runtimes=4).train(
            TrainTask(model_name="b", field_count=5, batch_size=64),
            rows, labels)
        assert fast.virtual_seconds < slow.virtual_seconds
