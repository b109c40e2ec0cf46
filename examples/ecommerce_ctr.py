"""E-commerce click-through-rate prediction under data drift (Workload E).

Reproduces the paper's motivating scenario: an e-commerce database whose
data drifts (here: the Avazu-style cluster switch), with the monitor
detecting the drift and the FineTune operator adapting the model by
retraining only its head layers — persisting a new model *version* that
shares the frozen layers with its predecessor (Fig. 3).

Run with:  python examples/ecommerce_ctr.py
"""

import numpy as np

from repro.ai.armnet import ARMNet
from repro.ai.engine import AIEngine
from repro.ai.model_manager import ModelManager
from repro.ai.monitor import Monitor
from repro.ai.tasks import FineTuneTask, InferenceTask, TrainTask
from repro.workloads.avazu import FIELD_COUNT, AvazuGenerator


def main() -> None:
    generator = AvazuGenerator(seed=0)
    engine = AIEngine(model_manager=ModelManager())
    monitor = Monitor()
    monitor.register("ctr-loss", threshold=0.2, window=4, cooldown=8)

    # 1. initial training on cluster C1 through the streaming protocol
    initial = generator.generate(cluster=0, count=16_384)
    train = engine.train(
        TrainTask(model_name="ctr", field_count=FIELD_COUNT, epochs=3,
                  batch_size=256),
        initial.rows, initial.labels)
    print(f"trained on C1: {train.samples_processed} samples, "
          f"loss {train.losses[0]:.3f} -> {train.losses[-1]:.3f}, "
          f"virtual time {train.virtual_seconds:.3f}s "
          f"({train.samples_processed / train.virtual_seconds:,.0f} "
          f"samples/vs)")

    for loss in train.losses:
        monitor.observe("ctr-loss", loss)

    # 2. the workload drifts to cluster C2: the serving model goes stale
    drifted = generator.generate(cluster=1, count=4096)
    model = engine.models.load_model("ctr")
    from repro.nn.losses import bce_with_logits
    stale_loss = bce_with_logits(
        model.forward_raw(drifted.rows), drifted.labels).item()
    print(f"\ncluster switch C1 -> C2: serving loss jumps to "
          f"{stale_loss:.3f}")
    event = None
    for chunk in range(0, 4096, 512):
        logits = model.forward_raw(drifted.rows[chunk:chunk + 512])
        loss = bce_with_logits(logits,
                               drifted.labels[chunk:chunk + 512]).item()
        event = monitor.observe("ctr-loss", loss) or event
    print(f"monitor drift event fired: {event is not None}")

    # 3. incremental update: fine-tune the head layers only (Fig. 3)
    tune = engine.fine_tune(
        FineTuneTask(model_name="ctr", tune_last_layers=2, epochs=5,
                     batch_size=256, learning_rate=3e-2),
        drifted.rows, drifted.labels)
    print(f"\nfine-tuned layers {tune.details['tuned_layers']} as version "
          f"{tune.model_version} in {tune.virtual_seconds:.4f} virtual s")

    adapted = engine.models.load_model("ctr")
    adapted_loss = bce_with_logits(
        adapted.forward_raw(drifted.rows), drifted.labels).item()
    print(f"serving loss after incremental update: {adapted_loss:.3f} "
          f"(was {stale_loss:.3f})")

    # 4. versioned model storage: both versions remain addressable
    versions = engine.models.versions("ctr")
    print(f"\nmodel versions in storage: {versions}")
    print(f"layer rows persisted: {engine.models.layer_rows('ctr')} "
          f"(a full snapshot per version would need "
          f"{len(versions) * len(ARMNet.LAYER_NAMES)})")
    old = engine.models.load_model("ctr", timestamp=versions[0])
    old_loss = bce_with_logits(
        old.forward_raw(drifted.rows), drifted.labels).item()
    print(f"time-travel to version {versions[0]}: loss on C2 data "
          f"{old_loss:.3f} (the stale model, reconstructed)")

    # 5. inference through the engine (what a PREDICT query invokes)
    inference = engine.infer(InferenceTask(model_name="ctr"),
                             drifted.rows[:5])
    print(f"\nsample click probabilities: "
          f"{[round(float(p), 3) for p in inference.predictions]}")


if __name__ == "__main__":
    main()
