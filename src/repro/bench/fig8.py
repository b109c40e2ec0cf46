"""Experiment driver for Figure 8: learned query optimizers under drift.

Protocol (paper §5.3):

* three databases: original STATS, STATS with mild drift, STATS with severe
  drift (random inserts/updates/deletes following ALECE's protocol);
* 8 SPJ queries; four systems pick a plan per query:
    - PostgreSQL: the classical cost-based planner — with the statistics it
      gathered on the ORIGINAL data (no re-ANALYZE), which is how stale
      statistics hurt a static optimizer under drift;
    - Bao: stable hint-set value model trained on the original DB;
    - Lero: stable pairwise ranker trained on the original DB;
    - NeurDB: the dual-module model pre-trained on synthetic distributions,
      conditioned on LIVE sampled statistics at choice time.
* each chosen plan is executed (capped) and its virtual latency recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.reporting import geometric_mean
from repro.db import NeurDB
from repro.exec.measure import measure_plan_latency
from repro.learned.qo import (
    BaoOptimizer,
    LearnedQueryOptimizer,
    LeroOptimizer,
    QOPretrainer,
)
from repro.sql import parse
from repro.workloads.stats import QUERIES, StatsGenerator, StatsScale

SYSTEMS = ("PostgreSQL", "Bao", "Lero", "NeurDB")
SCENARIOS = ("original", "mild", "severe")

# virtual-time execution cap per query (well above any sane plan)
LATENCY_CAP = 0.25


@dataclass
class Fig8Cell:
    scenario: str
    query: int          # 1-based, as in the figure's x axis
    system: str
    latency: float      # virtual seconds
    censored: bool


@dataclass
class Fig8Result:
    cells: list[Fig8Cell] = field(default_factory=list)

    def latency(self, scenario: str, query: int, system: str) -> float:
        for cell in self.cells:
            if (cell.scenario == scenario and cell.query == query
                    and cell.system == system):
                return cell.latency
        raise KeyError((scenario, query, system))

    def average_latency(self, scenario: str, system: str) -> float:
        values = [c.latency for c in self.cells
                  if c.scenario == scenario and c.system == system]
        return geometric_mean(values)


def _build_db(scale: StatsScale, seed: int, knobs=None) -> NeurDB:
    kwargs = {}
    if knobs is not None:
        kwargs = {"reputation_shape": float(knobs[0]),
                  "score_correlation": float(knobs[1]),
                  "vote_skew": float(knobs[2])}
    db = NeurDB()
    StatsGenerator(scale=scale, seed=seed, **kwargs).build(db)
    return db


def pretrain_neurdb_qo(scale: StatsScale, queries=QUERIES,
                       distributions: int = 3, epochs: int = 25,
                       seed: int = 7) -> LearnedQueryOptimizer:
    """Pre-train the NeurDB optimizer across synthetic distributions
    (the paper's Bayesian-optimization sweep over data distributions)."""
    optimizer = LearnedQueryOptimizer()
    pretrainer = QOPretrainer(
        make_db=lambda knobs: _build_db(scale, seed, knobs),
        queries=list(queries),
        knob_ranges=[(0.6, 2.0),    # reputation pareto shape
                     (0.2, 1.0),    # score/reputation correlation
                     (0.8, 2.2)],   # vote skew
        seed=seed)
    pretrainer.pretrain(optimizer, distributions=distributions,
                        epochs=epochs)
    return optimizer


def run_fig8(scale: StatsScale | None = None, seed: int = 0,
             neurdb_qo: LearnedQueryOptimizer | None = None,
             queries=QUERIES) -> Fig8Result:
    """The full Fig. 8 grid: 8 queries x 3 scenarios x 4 systems."""
    scale = scale if scale is not None else StatsScale()

    # -- original database: train the stable baselines ---------------------
    original = _build_db(scale, seed)
    bao = BaoOptimizer()
    bao.train(original, list(queries))
    lero = LeroOptimizer()
    lero.train(original, list(queries))
    if neurdb_qo is None:
        neurdb_qo = pretrain_neurdb_qo(scale, queries=queries)

    result = Fig8Result()
    for scenario in SCENARIOS:
        db = _build_db(scale, seed)
        if scenario != "original":
            StatsGenerator(scale=scale, seed=seed).apply_drift(db, scenario)
            # NOTE: deliberately no ANALYZE here — the classical planner
            # keeps its stale statistics, as a production system would
            # between autovacuum runs.
        for query_index, sql in enumerate(queries, start=1):
            select = parse(sql)
            chosen = {
                "PostgreSQL": db.planner.plan_select(select),
                "Bao": bao.choose_plan(db, select),
                "Lero": lero.choose_plan(db, select),
                "NeurDB": neurdb_qo.choose_plan(db, select)[0],
            }
            for system in SYSTEMS:
                measured = measure_plan_latency(db.executor, db.clock,
                                                chosen[system],
                                                cap_virtual=LATENCY_CAP)
                result.cells.append(Fig8Cell(
                    scenario=scenario, query=query_index, system=system,
                    latency=measured.latency, censored=measured.censored))
    return result
