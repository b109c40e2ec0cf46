"""PostgreSQL+P, the baseline of paper §5.1.2, run for real beside
NeurDB's ``PREDICT ... TRAIN ON *`` on the same rows.

Paper: "We implement a baseline system called PostgreSQL+P, which loads
data from PostgreSQL in batches, and utilizes an AI runtime built with
PyTorch to support AI analytics."  Here:

* stdlib ``sqlite3`` holds the same rows, copied from the NeurDB heap in
  scan order, so ``ORDER BY rowid`` reads them in the order PREDICT's
  training scan does;
* one query per epoch, ``cursor.fetchmany(batch)`` per batch;
* every value crosses as text, ``str`` out and parsed back by its
  declared column type, as psycopg's text protocol does;
* ``FeatureHasher.transform(rows)`` runs per batch, in client Python;
* the same ``ARMNet`` and ``Adam(lr=1e-3)`` train strictly serially:
  fetch, preparation and gradient step never overlap;
* inference re-exports every row the same way and builds the result rows
  PREDICT returns.

The baseline trains with the ``TrainTask`` the in-database statement was
handed (:class:`InDatabase` records it), so both loss lists are equal bit
for bit and only the systems cost differs.

Wall time is read with ``perf_counter`` here, never in ``src/``, by the
span tracer of ``benchmarks/e2e``.  A run is one root span; its phases
are spans named after ``PHASES``, and a phase keeps its self time only,
so time in a phase nested inside another counts to the inner one.  On
the NeurDB side the phases come from wrapping the facade's calls:
``export`` is the table scans that feed training and inference,
``parse_hash`` the feature hashing, ``train`` the AI engine's training
task less its hashing, ``infer`` inference plus the result rows.
"""

from __future__ import annotations

import json
import os
import sqlite3
import statistics

import numpy as np

import repro.db as facade
from repro.ai.armnet import ARMNet, FeatureHasher
from repro.bench.reporting import write_bench_json
from repro.nn.losses import bce_with_logits, mse_loss
from repro.nn.optim import Adam
from repro.storage.types import DataType

from e2e.spans import END, NAME, START, Tracer, self_times

PHASES = ("export", "parse_hash", "train", "infer")

_SQL_TYPES = {DataType.INT: "INTEGER", DataType.FLOAT: "REAL",
              DataType.TEXT: "TEXT"}
_PARSERS = {DataType.INT: int, DataType.FLOAT: float, DataType.TEXT: str}


def reading(tracer: Tracer) -> dict[str, float]:
    """Seconds of the one run ``tracer`` holds: ``total``, ``trained``
    (from the start until the ``fit`` span closed) and each of
    ``PHASES``."""
    spans = tracer.spans
    run, fit = spans[0], next(s for s in spans if s[NAME] == "fit")
    out = {"total": run[END] - run[START], "trained": fit[END] - run[START],
           **dict.fromkeys(PHASES, 0.0)}
    for span, own in zip(spans, self_times(spans)):
        if span[NAME] in PHASES:
            out[span[NAME]] += own
    return out


def timed_run(tracer: Tracer, call):
    """``call()`` as one root span on a cleared tracer; returns the run's
    :func:`reading` and what ``call`` returned."""
    tracer.spans.clear()
    with tracer.span("run"):
        result = call()
    return reading(tracer), result


class InDatabase:
    """NeurDB's side: ``db.execute(sql, force_retrain=True)``, with the
    facade's feed, hashing, training and inference calls wrapped in
    ``tracer``'s phase spans and the training task it runs recorded."""

    def __init__(self, db, sql: str, tracer: Tracer):
        self.db, self.sql, self.tracer = db, sql, tracer
        self.task = self.losses = None
        self.samples = 0                 # training samples of the last run
        engine = db.ai_engine
        # the facade imported the training scan by name
        tracer.wrap(facade, "table_training_set", "export")
        tracer.wrap(db, "prediction_inputs", "export")
        tracer.wrap(FeatureHasher, "transform_columns", "parse_hash")
        tracer.wrap(db, "ensure_predict_model", "fit")
        tracer.wrap(engine, "train", "train")
        tracer.wrap(engine, "infer", "infer")
        tracer.wrap(db, "predict_result", "infer")
        train = engine.train

        def record(task, *args, **kwargs):
            self.task = task
            result = train(task, *args, **kwargs)
            self.losses = result.losses
            self.samples = result.samples_processed
            return result

        engine.train = record        # unwrap_all drops it with the span

    def run(self) -> tuple[dict, list]:
        return timed_run(self.tracer, lambda: self.db.execute(
            self.sql, force_retrain=True).rows)


def copy_to_sqlite(db, table: str) -> sqlite3.Connection:
    """A sqlite3 database holding ``table``'s rows in heap scan order."""
    heap = db.catalog.table(table)
    columns = heap.schema.columns
    conn = sqlite3.connect(":memory:")
    conn.execute(f"CREATE TABLE {table} ("
                 + ", ".join(f"{c.name} {_SQL_TYPES[c.dtype]}"
                             for c in columns) + ")")
    conn.executemany(f"INSERT INTO {table} VALUES "
                     f"({', '.join('?' * len(columns))})",
                     (row for _, row in heap.scan()))
    conn.commit()
    return conn


class PostgresPlusP:
    """The client of PostgreSQL+P: export in batches, prepare in Python,
    then train and infer, one step after the other."""

    def __init__(self, conn: sqlite3.Connection, schema, target: str,
                 feature_columns, task, tracer: Tracer):
        self.conn, self.task, self.tracer = conn, task, tracer
        features = ", ".join(feature_columns)
        self._parsers = [_PARSERS[schema.column(name).dtype]
                         for name in (*feature_columns, target)]
        self._train_sql = (f"SELECT {features}, {target} FROM "
                           f"{schema.table_name} WHERE {target} IS NOT NULL "
                           f"ORDER BY rowid")
        self._infer_sql = (f"SELECT {features} FROM {schema.table_name} "
                           f"ORDER BY rowid")

    def _batches(self, sql: str, parsers):
        """Typed rows, a batch at a time: ``fetchmany``, then each value's
        text round trip."""
        phase = self.tracer.span
        with phase("export"):
            cursor = self.conn.execute(sql)
        while True:
            with phase("export"):
                text = [[None if v is None else str(v) for v in row]
                        for row in cursor.fetchmany(self.task.batch_size)]
            if not text:
                return
            with phase("parse_hash"):
                rows = [tuple(None if s is None else parse(s)
                              for parse, s in zip(parsers, row))
                        for row in text]
            yield rows

    def train(self) -> tuple[ARMNet, list[float]]:
        task, phase = self.task, self.tracer.span
        model = ARMNet(field_count=task.field_count,
                       task_type=task.task_type, **task.hyperparams)
        optimizer = Adam(list(model.parameters()), lr=1e-3)
        loss_of = (bce_with_logits if task.task_type == "classification"
                   else mse_loss)
        losses: list[float] = []
        for _ in range(task.epochs):
            for rows in self._batches(self._train_sql, self._parsers):
                with phase("parse_hash"):
                    ids = model.hasher.transform([row[:-1] for row in rows])
                    targets = np.array([row[-1] for row in rows],
                                       dtype=np.float64)
                with phase("train"):
                    optimizer.zero_grad()
                    loss = loss_of(model.forward(ids), targets)
                    loss.backward()
                    optimizer.step()
                    losses.append(loss.item())
        return model, losses

    def infer(self, model: ARMNet) -> list[tuple]:
        phase = self.tracer.span
        classify = model.task_type == "classification"
        result: list[tuple] = []
        for rows in self._batches(self._infer_sql, self._parsers[:-1]):
            with phase("parse_hash"):
                ids = model.hasher.transform(rows)
            with phase("infer"):
                predictions = model.predict_ids(ids)
                output = ([int(p >= 0.5) for p in predictions] if classify
                          else [float(p) for p in predictions])
                result.extend(row + (value,)
                              for row, value in zip(rows, output))
        return result

    def run(self) -> tuple[dict, tuple[list[float], list[tuple]]]:
        def run():
            with self.tracer.span("fit"):
                model, losses = self.train()
            return losses, self.infer(model)
        return timed_run(self.tracer, run)


def compare(db, table: str, sql: str, repeats: int) -> dict:
    """Run ``sql`` in NeurDB and PostgreSQL+P over the same rows of
    ``table``: one untimed warm-up each, then ``repeats`` alternating
    timed pairs.  Every run checks that both return the same feature rows
    and records whether the two loss lists are ``==``.  Returns every
    end-to-end time and the medians."""
    conn = copy_to_sqlite(db, table)
    tracer = Tracer()
    in_db = InDatabase(db, sql, tracer)
    runs: dict[str, list[dict]] = {"neurdb": [], "postgresql_p": []}
    losses_equal = True
    baseline = None
    try:
        for lap in range(repeats + 1):
            db_reading, db_rows = in_db.run()
            if baseline is None:
                binding = db.catalog.model_binding(in_db.task.model_name)
                baseline = PostgresPlusP(
                    conn, db.catalog.table(table).schema, binding.target,
                    binding.feature_columns, in_db.task, tracer)
            base_reading, (base_losses, base_rows) = baseline.run()
            losses_equal &= base_losses == in_db.losses
            assert ([row[:-1] for row in base_rows]
                    == [row[:-1] for row in db_rows])
            if lap:
                runs["neurdb"].append(db_reading)
                runs["postgresql_p"].append(base_reading)
    finally:
        tracer.unwrap_all()
    conn.close()
    report = {"rows": len(db_rows), "batch_size": in_db.task.batch_size,
              "epochs": in_db.task.epochs, "steps": len(in_db.losses),
              "repeats": repeats, "losses_equal": losses_equal}
    for system, readings in runs.items():
        median = {key: statistics.median(r[key] for r in readings)
                  for key in readings[0]}
        report[system] = {
            "end_to_end_s": round(median["total"], 4),
            "end_to_end_runs_s": [round(r["total"], 4) for r in readings],
            "trained_s": round(median["trained"], 4),
            "train_samples_per_s": round(in_db.samples / median["trained"],
                                         1),
            **{f"{name}_s": round(median[name], 4) for name in PHASES}}
    neurdb, base = report["neurdb"], report["postgresql_p"]
    report["latency_reduction"] = round(
        1 - neurdb["end_to_end_s"] / base["end_to_end_s"], 4)
    report["throughput_gain"] = round(
        neurdb["train_samples_per_s"] / base["train_samples_per_s"], 3)
    return report


def write_report(path: str, section: str, payload: dict,
                 smoke: bool) -> None:
    """Put ``payload`` under ``section`` of the JSON report at ``path``,
    keeping the other figure's section if an earlier run wrote one."""
    report = {}
    if os.path.exists(path):
        with open(path) as fh:
            report = json.load(fh)
        report.pop("meta", None)
    report[section] = payload
    write_bench_json(path, report, smoke=smoke,
                     seeds={"workload_generators": 0, "armnet": 0})
