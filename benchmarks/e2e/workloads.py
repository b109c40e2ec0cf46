"""The five workloads: frozen sizes, seeded data and schedules, set-up,
and how one statement is executed plainly and under spans.

A *shape* is one statement template.  A schedule is a sequence of
*rounds*; every round holds each shape ``mix[shape]`` times in a seeded
order, so any whole number of rounds has exactly the frozen mix.  Round
``i`` is a pure function of ``(seed, i)`` and the frozen sizes: literals
differ per statement, templates repeat (what a plan cache or prepared
statements would see in production).  The program under test receives only
the generated SQL text.

Why each workload is here, and which layer it stresses, is in
``README.md`` and in ``BENCHMARK.json``'s ``why`` lines.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np

import repro
import repro.db as facade
from repro.ai.tasks import InferenceTask
from repro.common import categories as cat
from repro.common.simtime import CostModel
from repro.exec.pipeline import compile_pipelines, run_program
from repro.plan.logical import IndexScan
from repro.serve.server import PredictServer
from repro.serve.workload import bursty_arrivals
from repro.sql.parser import parse

from oracle import PredictOracle, ServeOracle, SqlOracle

NPROC = os.cpu_count() or 1
ENGINE_WORKERS = min(2, NPROC)      # the engine's own morsel workers

# Frozen sizes.  ``rounds`` is the schedule length when a run is a fixed
# statement list (``--rounds`` absent and ``--seconds`` absent); sized so
# the timed part takes about ten seconds on the 2-core container and every
# workload times >= 200 statements.
SIZES = {
    "olap_mix": {"rows": 40_000, "buffer_pages": 96, "rounds": 32},
    "olap_engines": {"rows": 16_000, "shards": 4, "nodes": 2, "rounds": 30},
    "oltp_mix": {"rows": 20_000, "rounds": 22},
    "predict_batch": {"rows": 8_000, "holdout": 1_600, "scan_rows": 2_000,
                      "window_rows": 2_048, "rounds": 6},
    "predict_serve": {"rows": 4_000, "holdout": 800, "range_rows": 16,
                      "rounds": 120},
}
SMOKE_SIZES = {
    "olap_mix": {"rows": 1_500, "buffer_pages": 8, "rounds": 2},
    "olap_engines": {"rows": 800, "shards": 4, "nodes": 2, "rounds": 2},
    "oltp_mix": {"rows": 600, "rounds": 1},
    "predict_batch": {"rows": 400, "holdout": 80, "scan_rows": 100,
                      "window_rows": 128, "rounds": 1},
    "predict_serve": {"rows": 300, "holdout": 60, "range_rows": 16,
                      "rounds": 1},
}


def active_sizes() -> dict:
    """``E2E_SMOKE=1`` selects the tiny sizes the smoke test runs at."""
    return SMOKE_SIZES if os.environ.get("E2E_SMOKE") == "1" else SIZES


def _literal(rng, low: float, high: float) -> str:
    return repr(round(float(rng.uniform(low, high)), 4))


LOAD_CHUNK_ROWS = 2_000


def _load(db, ddl: str, table: str, rows: list[tuple], tick) -> None:
    """Bulk load through ``HeapTable.insert``; ``tick`` between chunks lets
    the caller's meter read its sensor during the load."""
    db.execute(ddl)
    heap = db.catalog.table(table)
    for start in range(0, len(rows), LOAD_CHUNK_ROWS):
        for row in rows[start:start + LOAD_CHUNK_ROWS]:
            heap.insert(row)
        tick()


def _rows_of(db, text: str, force_retrain: bool = False) -> list:
    rows = db.execute(text, force_retrain=force_retrain).rows
    len(rows)       # the client consumes the result inside the timed region
    return rows


# -- step-wise replays under spans --------------------------------------------
# Each mirrors what NeurDB._dispatch_statement + Executor.run do for that
# statement kind, with a span around every public call.


def traced_select(db, tracer, text: str) -> list:
    with tracer.span("sql.parse"):
        statement = parse(text)
    with tracer.span("plan.plan_select"):
        plan = db.planner.plan_select(statement)
    clock = db.clock
    scanned = clock.category_total(cat.SCAN)
    indexed = clock.category_total(cat.INDEX)
    if db.executor.engine == "batch":
        with tracer.span("exec.build"):
            operator = db.executor.build(plan)
        with tracer.span("exec.compile"):
            program = compile_pipelines(operator)
        with tracer.span("exec.run"):
            blocks = list(run_program(program, clock))
        with tracer.span("exec.materialise"):
            rows = [row for block in blocks for row in block.iter_rows()]
    else:
        with tracer.span("exec.run"):
            result = db.executor.run(plan)
            rows = result.rows
        stats = result.extra.get("parallel")
        if stats is not None:
            tracer.counts["parallel.statements"] += 1
            tracer.counts["parallel.tasks"] += stats["tasks"]
            tracer.counts["parallel.retries"] += stats["task_retries"]
        stats = result.extra.get("distributed")
        if stats is not None:
            tracer.counts["dist.statements"] += 1
            tracer.counts["dist.exchanges"] += len(stats["exchanges"])
    descents = sum(isinstance(node, IndexScan) for node in plan.walk())
    tracer.counts["rows_examined"] += round(
        (clock.category_total(cat.SCAN) - scanned
         + clock.category_total(cat.INDEX) - indexed
         - descents * CostModel.INDEX_DESCENT) / CostModel.TUPLE_CPU)
    tracer.counts["rows_out"] += len(rows)
    tracer.counts["rows_returned"] += len(rows)
    return rows


def traced_dml(db, tracer, text: str) -> list:
    with tracer.span("sql.parse"):
        statement = parse(text)
    before = tracer.counts["rows_scanned"]
    with tracer.span("db.execute_statement"):
        result = db.execute_statement(statement)
    tracer.counts["rows_examined"] += tracer.counts["rows_scanned"] - before
    tracer.counts["rows_returned"] += result.extra["rowcount"]
    return result.rows


def traced_predict(db, tracer, text: str, force_retrain: bool = False) -> list:
    """Needs ``instrument_predict``: the facade calls below are wrapped."""
    with tracer.span("sql.parse"):
        statement = parse(text)
    ctx = db.bind_predict(statement)
    trained_now = db.ensure_predict_model(ctx, force_retrain)
    features, _, _ = db.prediction_inputs(ctx)
    if not features:
        return []
    inference = db.ai_engine.infer(InferenceTask(model_name=ctx.model_name),
                                   features)
    return db.predict_result(ctx, features, inference.predictions,
                             trained_now).rows


def instrument_predict(db, tracer) -> None:
    tracer.wrap(db, "bind_predict", "db.bind_predict")
    tracer.wrap(db, "ensure_predict_model", "db.ensure_predict_model")
    tracer.wrap(db, "prediction_inputs", "ai.feed_infer")
    tracer.wrap(db, "predict_result", "db.predict_result")
    tracer.wrap(db, "fine_tune_model", "db.fine_tune_model")
    for attr in ("train", "infer", "infer_with_model", "fine_tune"):
        tracer.wrap(db.ai_engine, attr, f"ai.{attr}")
    tracer.wrap(db.models, "load_model", "ai.model_load")
    # the facade imported these two by name, so its globals are what it calls
    tracer.wrap(facade, "table_training_set", "ai.feed_train")
    tracer.wrap(facade, "table_training_set_tail", "ai.feed_train")


def instrument_table(db, tracer, table_name: str) -> None:
    table = db.catalog.table(table_name)
    for attr in ("insert", "update", "delete", "read"):
        tracer.wrap(table, attr, f"storage.{attr}")
    tracer.wrap(table, "scan", "storage.scan", items="rows_scanned")
    for entry in db.catalog.indexes_on(table_name):
        tracer.wrap(entry.index, "insert", "storage.index_insert")
        tracer.wrap(entry.index, "delete", "storage.index_delete")
        tracer.wrap(entry.index, "search", "storage.index_search")
        if hasattr(entry.index, "range_scan"):
            tracer.wrap(entry.index, "range_scan", "storage.index_search",
                        items="index_range_rows")


def db_counts(db) -> dict[str, float]:
    """Buffer-pool and clock counts of one database.  Page accesses are
    read off the clock's own buffer-hit / buffer-miss charges."""
    pool = db.buffer_pool.snapshot()
    clock = db.clock
    return {
        "buffer_hit_ratio": pool["hit_ratio"],
        "view_rebuilds": pool["view_rebuilds"],
        "pages_accessed": (
            round(clock.category_total(cat.BUFFER_HIT) / CostModel.PAGE_HIT)
            + round(clock.category_total(cat.BUFFER_MISS)
                    / CostModel.PAGE_READ)),
        "virtual_s": clock.now,
    }


# -- workloads -----------------------------------------------------------------


class Workload:
    name = ""
    index = 0                        # position in WORKLOADS; part of every seed
    shapes: tuple[str, ...] = ()     # warm-up runs one of each, in this order
    cost_order: tuple[str, ...] = ()  # cheapest first at the baseline
    mix: dict[str, int] = {}         # statements of each shape per round
    units = 1                        # requests one statement stands for

    def __init__(self, seed: int, sizes: dict | None = None):
        self.seed = seed
        self.sizes = dict(active_sizes()[self.name] if sizes is None
                          else sizes)
        self.make_data(self.rng(0))

    def rng(self, stream: int):
        """``--seed`` is the only source of randomness."""
        return np.random.default_rng([self.seed, self.index, stream])

    def make_data(self, rng) -> None:
        raise NotImplementedError

    def statement(self, shape: str, rng, round_index: int, j: int) -> str:
        raise NotImplementedError

    def round(self, i: int) -> list[tuple[str, str]]:
        rng = self.rng(i + 2)
        statements = [(shape, self.statement(shape, rng, i, j))
                      for shape, count in self.mix.items()
                      for j in range(count)]
        return [statements[k] for k in rng.permutation(len(statements))]

    def warmup(self) -> list[tuple[str, str]]:
        """One statement of every shape, from round -1."""
        first = {}
        for shape, text in self.round(-1):
            first.setdefault(shape, text)
        return [(shape, first[shape]) for shape in self.shapes]

    def setup(self, tick) -> SimpleNamespace:
        """connect + DDL + bulk load + ANALYZE / index build (+ the first
        model training).  ``tick()`` marks a boundary between stages for
        the caller's meter.  The warm-up round is run by the caller."""
        raise NotImplementedError

    def oracle(self):
        raise NotImplementedError

    def setup_batch(self):
        """The same rows on the batch engine, where another engine is
        what the workload times (the base of ``exec.engine_ratio.*``)."""
        return None

    def execute(self, state, shape: str, text: str):
        return _rows_of(state.db, text)

    def instrument(self, state, tracer) -> None:
        """Set the timing wrappers this workload's traced replay needs."""

    def execute_traced(self, state, tracer, shape: str, text: str):
        if text.startswith("SELECT"):
            return traced_select(state.db, tracer, text)
        return traced_dml(state.db, tracer, text)

    def counts(self, state) -> dict[str, float]:
        """Counts the system itself keeps, read before and after a replay."""
        return db_counts(state.db)


OLAP_DDL = ("CREATE TABLE t (id INT UNIQUE, grp TEXT, k INT, "
            "v FLOAT, w FLOAT)")
OLAP_GROUPS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta")


def _olap_rows(rng, n: int) -> list[tuple]:
    grp = rng.integers(0, len(OLAP_GROUPS), n)
    k = rng.integers(0, 1000, n)
    v = rng.random(n)
    w = rng.random(n)
    return [(i, OLAP_GROUPS[grp[i]], int(k[i]), float(v[i]), float(w[i]))
            for i in range(n)]


def _olap_statement(shape: str, rng) -> str:
    # literal ranges are narrow so a statement's work does not depend on
    # the draw: ~25% of rows sorted, ~50% projected
    if shape == "count_filter":
        return (f"SELECT count(*) FROM t WHERE v > {_literal(rng, 0.2, 0.3)} "
                f"AND w < {_literal(rng, 0.8, 0.9)}")
    if shape == "filter_agg":
        return (f"SELECT grp, count(*), sum(v), avg(w) FROM t "
                f"WHERE v > {_literal(rng, 0.2, 0.3)} "
                f"AND w < {_literal(rng, 0.85, 0.95)} GROUP BY grp")
    if shape == "int_groupby":
        return (f"SELECT k, count(*), sum(v) FROM t "
                f"WHERE w < {_literal(rng, 0.93, 0.97)} GROUP BY k")
    if shape == "sort":
        return (f"SELECT id, v FROM t WHERE w < {_literal(rng, 0.24, 0.26)} "
                f"ORDER BY v")
    if shape == "topk":
        return (f"SELECT id, v FROM t WHERE w < {_literal(rng, 0.24, 0.26)} "
                f"ORDER BY v DESC LIMIT 10")
    if shape == "project":
        return f"SELECT id, v, w FROM t WHERE v > {_literal(rng, 0.49, 0.51)}"
    if shape == "join":
        return (f"SELECT a.grp, count(*), sum(b.v) FROM t a JOIN t b "
                f"ON a.id = b.k WHERE b.w < {_literal(rng, 0.48, 0.52)} "
                f"GROUP BY a.grp")
    raise ValueError(f"unknown shape {shape!r}")


class OlapMix(Workload):
    name = "olap_mix"
    index = 0
    shapes = ("count_filter", "filter_agg", "int_groupby", "sort", "topk",
              "project", "join")
    cost_order = ("count_filter", "filter_agg", "project", "sort", "topk",
                  "int_groupby", "join")
    mix = dict.fromkeys(shapes, 1)

    def make_data(self, rng):
        self.rows = _olap_rows(rng, self.sizes["rows"])

    def statement(self, shape, rng, round_index, j):
        return _olap_statement(shape, rng)

    def setup(self, tick):
        db = repro.connect(buffer_pages=self.sizes["buffer_pages"])
        _load(db, OLAP_DDL, "t", self.rows, tick)
        db.execute("ANALYZE")
        return SimpleNamespace(db=db)

    def oracle(self):
        return SqlOracle(self.name, OLAP_DDL, "t", "id", self.rows,
                         ordered_by={"sort": 1, "topk": 1})


class OlapEngines(Workload):
    """The same plans on the other two drivers.  Shapes are
    ``<engine>.<olap shape>``; each engine has its own database over the
    same rows, so one sqlite mirror answers for both."""

    name = "olap_engines"
    index = 1
    shapes = ("par.filter_agg", "par.int_groupby", "par.join", "par.project",
              "dist.filter_agg", "dist.int_groupby", "dist.join")
    cost_order = ("par.project", "par.filter_agg", "dist.filter_agg",
                  "par.join", "par.int_groupby", "dist.join",
                  "dist.int_groupby")
    mix = dict.fromkeys(shapes, 1)

    def make_data(self, rng):
        self.rows = _olap_rows(rng, self.sizes["rows"])

    def statement(self, shape, rng, round_index, j):
        return _olap_statement(shape.split(".", 1)[1], rng)

    def _connect(self, tick, **options):
        db = repro.connect(**options)
        db.executor.workers = ENGINE_WORKERS
        _load(db, OLAP_DDL, "t", self.rows, tick)
        db.execute("ANALYZE")
        tick()
        return db

    def setup(self, tick):
        par = self._connect(tick, engine="parallel")
        dist = self._connect(tick, shards=self.sizes["shards"],
                             engine="distributed", nodes=self.sizes["nodes"])
        return SimpleNamespace(db=par, dbs={"par": par, "dist": dist})

    def setup_batch(self):
        return SimpleNamespace(db=self._connect(lambda: None))

    def oracle(self):
        return SqlOracle(self.name, OLAP_DDL, "t", "id", self.rows)

    def execute(self, state, shape, text):
        return _rows_of(state.dbs[shape.split(".", 1)[0]], text)

    def execute_traced(self, state, tracer, shape, text):
        return traced_select(state.dbs[shape.split(".", 1)[0]], tracer, text)

    def counts(self, state):
        out = db_counts(state.dbs["par"])
        other = db_counts(state.dbs["dist"])
        for key in ("view_rebuilds", "pages_accessed", "virtual_s"):
            out[key] += other[key]
        return out


OLTP_DDL = "CREATE TABLE acct (id INT UNIQUE, owner TEXT, region INT, bal FLOAT)"
OLTP_BATCH_ROWS = 50
OLTP_RANGE_IDS = 20


class OltpMix(Workload):
    """Ids below ``rows // 4`` are the delete pool (each deleted at most
    once, in a seeded order); reads and updates draw from the ids above it,
    so every statement finds its row.  Inserts take fresh ids above
    ``rows``, a block per round."""

    name = "oltp_mix"
    index = 2
    shapes = ("point_select", "insert_one", "insert_batch", "range_select",
              "update_one", "delete_one")
    cost_order = ("insert_one", "point_select", "insert_batch",
                  "range_select", "delete_one", "update_one")
    mix = {"point_select": 40, "insert_one": 25, "insert_batch": 5,
           "range_select": 10, "update_one": 13, "delete_one": 7}

    def make_data(self, rng):
        n = self.sizes["rows"]
        region = rng.integers(0, 50, n)
        bal = rng.uniform(0, 1000, n).round(2)
        self.rows = [(i, f"owner{i % 997}", int(region[i]), float(bal[i]))
                     for i in range(n)]
        self.delete_order = rng.permutation(n // 4)
        self.ids_per_round = (self.mix["insert_one"]
                              + self.mix["insert_batch"] * OLTP_BATCH_ROWS)

    def _new_row(self, rng, new_id: int) -> str:
        return (f"({new_id}, 'owner{new_id % 997}', {int(rng.integers(0, 50))}, "
                f"{_literal(rng, 0, 1000)})")

    def statement(self, shape, rng, round_index, j):
        n = self.sizes["rows"]
        live_low = n // 4
        block = n + (round_index + 1) * self.ids_per_round
        if shape == "point_select":
            return (f"SELECT id, owner, bal FROM acct "
                    f"WHERE id = {int(rng.integers(live_low, n))}")
        if shape == "range_select":
            low = int(rng.integers(live_low, n - OLTP_RANGE_IDS))
            return (f"SELECT id, bal FROM acct WHERE id >= {low} "
                    f"AND id < {low + OLTP_RANGE_IDS}")
        if shape == "insert_one":
            return f"INSERT INTO acct VALUES {self._new_row(rng, block + j)}"
        if shape == "insert_batch":
            first = block + self.mix["insert_one"] + j * OLTP_BATCH_ROWS
            return "INSERT INTO acct VALUES " + ", ".join(
                self._new_row(rng, first + r) for r in range(OLTP_BATCH_ROWS))
        if shape == "update_one":
            return (f"UPDATE acct SET bal = bal + {_literal(rng, 1, 50)} "
                    f"WHERE id = {int(rng.integers(live_low, n))}")
        if shape == "delete_one":
            slot = (round_index + 1) * self.mix["delete_one"] + j
            victim = self.delete_order[slot % len(self.delete_order)]
            return f"DELETE FROM acct WHERE id = {int(victim)}"
        raise ValueError(f"unknown shape {shape!r}")

    def setup(self, tick):
        db = repro.connect()        # default buffer pool: the table fits
        _load(db, OLTP_DDL, "acct", self.rows, tick)
        db.execute("CREATE INDEX acct_id ON acct (id)")
        tick()
        db.execute("ANALYZE")
        return SimpleNamespace(db=db)

    def oracle(self):
        return SqlOracle(self.name, OLTP_DDL, "acct", "id", self.rows)

    def instrument(self, state, tracer):
        instrument_table(state.db, tracer, "acct")


CLICKS_DDL = ("CREATE TABLE clicks (cid INT UNIQUE, site TEXT, dev INT, "
              "a FLOAT, b FLOAT, y FLOAT)")
SITES, DEVICES = 12, 5


class _Predict(Workload):
    """``clicks``: y is a seeded function of the features plus noise.  The
    first ``holdout`` ids are never trained on (training and the fine-tune
    tail window both lie above them); ``model_err`` is measured there."""

    def make_data(self, rng):
        n = self.sizes["rows"]
        site = rng.integers(0, SITES, n)
        dev = rng.integers(0, DEVICES, n)
        a = rng.random(n).round(4)
        b = rng.random(n).round(4)
        site_effect = rng.normal(size=SITES)
        dev_effect = rng.normal(size=DEVICES)
        self.y = (site_effect[site] + dev_effect[dev] + 2 * a - b
                  + 0.1 * rng.normal(size=n)).round(6)
        self.rows = [(i, f"s{site[i]}", int(dev[i]), float(a[i]), float(b[i]),
                      float(self.y[i])) for i in range(n)]

    def _train_text(self, low: int, count: int) -> str:
        return (f"PREDICT VALUE OF y FROM clicks WHERE cid >= {low} "
                f"AND cid < {low + count} TRAIN ON * "
                f"WITH cid >= {self.sizes['holdout']}")

    def _scan_text(self, rng, count: int) -> str:
        low = int(rng.integers(0, self.sizes["rows"] - count))
        return (f"PREDICT VALUE OF y FROM clicks WHERE cid >= {low} "
                f"AND cid < {low + count} TRAIN ON *")

    def _inline_text(self, rng) -> str:
        return (f"PREDICT VALUE OF y FROM clicks TRAIN ON * VALUES "
                f"('s{int(rng.integers(0, SITES))}', "
                f"{int(rng.integers(0, DEVICES))}, {_literal(rng, 0, 1)}, "
                f"{_literal(rng, 0, 1)})")

    def _connect(self, tick):
        db = repro.connect()
        _load(db, CLICKS_DDL, "clicks", self.rows, tick)
        db.execute("ANALYZE")
        tick()
        return db

    def model_err(self, state) -> float:
        """Hold-out MSE / var(y) of the model the run left behind."""
        holdout = self.sizes["holdout"]
        rows = state.db.execute(
            f"PREDICT VALUE OF y FROM clicks WHERE cid >= 0 "
            f"AND cid < {holdout} TRAIN ON *").rows
        predicted = np.array([row[-1] for row in rows])
        truth = self.y[:holdout]
        return float(np.mean((predicted - truth) ** 2) / np.var(truth))

    def instrument(self, state, tracer):
        instrument_predict(state.db, tracer)


class PredictBatch(_Predict):
    name = "predict_batch"
    index = 3
    shapes = ("train", "fine_tune", "infer_scan", "infer_inline")
    cost_order = ("infer_inline", "infer_scan", "fine_tune", "train")
    mix = {"train": 1, "fine_tune": 4, "infer_scan": 12, "infer_inline": 32}

    def statement(self, shape, rng, round_index, j):
        if shape == "train":     # retrain, then predict 100 hold-out rows
            count = min(100, self.sizes["holdout"] // 2)
            low = int(rng.integers(0, self.sizes["holdout"] - count))
            return self._train_text(low, count)
        if shape == "fine_tune":
            return (f"CALL fine_tune_model('clicks', 'y', "
                    f"window_rows={self.sizes['window_rows']})")
        if shape == "infer_scan":
            return self._scan_text(rng, self.sizes["scan_rows"])
        if shape == "infer_inline":
            return self._inline_text(rng)
        raise ValueError(f"unknown shape {shape!r}")

    def setup(self, tick):
        # the warm-up round's ``train`` statement is the first training
        return SimpleNamespace(db=self._connect(tick))

    def oracle(self):
        return PredictOracle(self.name, self.sizes["rows"])

    def execute(self, state, shape, text):
        if shape == "fine_tune":     # not SQL: the facade's fine-tune call
            state.db.fine_tune_model("clicks", "y",
                                     window_rows=self.sizes["window_rows"])
            return None
        return _rows_of(state.db, text, force_retrain=shape == "train")

    def execute_traced(self, state, tracer, shape, text):
        if shape == "fine_tune":
            return self.execute(state, shape, text)   # wrapped: spans itself
        return traced_predict(state.db, tracer, text,
                              force_retrain=shape == "train")


SLICE_REQUESTS = 32
BURST_SIZE = 16
BURST_GAP_S = 0.01                   # virtual seconds between bursts
SLICE_ARRIVALS = bursty_arrivals(SLICE_REQUESTS, BURST_SIZE, BURST_GAP_S)
SLICE_SPAN_S = BURST_GAP_S * SLICE_REQUESTS / BURST_SIZE


class PredictServe(_Predict):
    """One statement is a *slice*: 32 ``submit`` (28 inline point requests,
    4 range requests) and one ``drain``.  Arrival times follow
    ``bursty_arrivals`` in virtual time (an open-loop schedule there); the
    wall-clock driver is closed-loop, one slice after another."""

    name = "predict_serve"
    index = 4
    shapes = ("serve_slice",)
    cost_order = ("serve_slice",)
    mix = {"serve_slice": 8}
    units = SLICE_REQUESTS

    def statement(self, shape, rng, round_index, j):
        return "\n".join(
            self._scan_text(rng, self.sizes["range_rows"]) if r % 8 == 7
            else self._inline_text(rng) for r in range(SLICE_REQUESTS))

    def setup(self, tick):
        db = self._connect(tick)
        db.execute(self._train_text(0, 8))
        server = PredictServer(db, lanes=2, max_batch_requests=16,
                               refresh="manual")
        return SimpleNamespace(db=db, server=server, slices=0)

    def oracle(self):
        return ServeOracle(self.name, self.sizes["rows"], SLICE_REQUESTS)

    def _serve(self, state, text, submit):
        base = state.slices * SLICE_SPAN_S
        state.slices += 1
        texts = {}
        for request_text, offset in zip(text.split("\n"), SLICE_ARRIVALS):
            texts[submit(request_text, base + offset).request_id] = request_text
        return texts

    def execute(self, state, shape, text):
        texts = self._serve(state, text,
                            lambda t, at: state.server.submit(t, at=at))
        return [(texts[r.request_id], r.error,
                 None if r.result is None else r.result.rows)
                for r in state.server.drain()]

    def execute_traced(self, state, tracer, shape, text):
        def submit(request_text, at):
            with tracer.span("sql.parse"):
                statement = parse(request_text)
            with tracer.span("serve.submit"):
                return state.server.submit(statement, at=at)
        texts = self._serve(state, text, submit)
        with tracer.span("serve.drain"):
            done = state.server.drain()
        return [(texts[r.request_id], r.error,
                 None if r.result is None else r.result.rows) for r in done]

    def counts(self, state):
        out = super().counts(state)
        stats = state.server.stats()
        lookups = stats["cache_hits"] + stats["cache_misses"]
        out.update({
            "mean_batch_requests": stats["mean_batch_requests"],
            "cache_hit_ratio": stats["cache_hits"] / lookups if lookups else 0.0,
            "virtual_p95_ms": stats.get("latency", {}).get("p95", 0.0) * 1e3,
            "modeled_rps": stats["throughput_rps"],
            "deadline_misses": stats["deadline_misses"],
            "batch_retries": stats["batch_retries"],
        })
        return out


WORKLOADS = {cls.name: cls for cls in
             (OlapMix, OlapEngines, OltpMix, PredictBatch, PredictServe)}
ALL_SHAPES = tuple(shape for cls in WORKLOADS.values() for shape in cls.shapes)


P50_BAND = 5.0    # p50_ms is the mean of pooled ranks 45..55
P95_BAND = 2.5    # p95_ms is the mean of pooled ranks 92.5..97.5


def check_schedule_rules(workload: Workload, rounds: int) -> None:
    """The two rules a frozen schedule must meet before anything is timed:
    at least 200 statements, and — with shapes ordered by baseline cost —
    the rank bands behind ``p50_ms`` and ``p95_ms`` each lie inside one
    shape's block, >= 4 statements from its borders.  A percentile that
    sits on the border between a cheap and a dear shape jumps between
    identical runs."""
    per_round = sum(workload.mix.values())
    total = per_round * rounds
    if total * workload.units < 200:
        raise ValueError(f"{workload.name}: {total * workload.units} timed "
                         f"statements, need >= 200")
    if set(workload.cost_order) != set(workload.mix):
        raise ValueError(f"{workload.name}: cost_order and mix name "
                         f"different shapes")
    borders, edge = [], 0.0
    for shape in workload.cost_order[:-1]:
        edge += 100.0 * workload.mix[shape] / per_round
        borders.append(edge)
    for rank, band in ((50.0, P50_BAND), (95.0, P95_BAND)):
        for border in borders:
            margin = abs(rank - border)
            if margin < band or margin / 100.0 * total < 4:
                raise ValueError(
                    f"{workload.name}: the border at rank {border:.2f} is "
                    f"{margin:.2f} points ({margin / 100.0 * total:.1f} "
                    f"statements) from rank {rank:g}, inside its band of "
                    f"+-{band:g}")
