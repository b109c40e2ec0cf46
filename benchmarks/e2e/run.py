#!/usr/bin/env python3
"""The repo's one benchmark: SQL text in, rows out, on a wall clock.

One run (what ``BENCHMARK.json``'s ``command`` starts)::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

builds the workload's data from the seed, sets up, warms up, checks the
warm-up against the oracle, then times whole rounds of the schedule from a
single closed-loop client until ``T`` seconds of statement time have passed
(and at least 200 statements).  ``--rounds N`` times a fixed statement list
instead.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (a short untraced pass, then the same rounds replayed
step-wise under spans on a fresh database, then the isolated probes).  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.

A set of runs (what a person starts, and what ``compare.py`` reads)::

    python3 benchmarks/e2e/run.py [--seed S] [--workload W] [--repeats R]
                                  [--trace] [--out FILE]

runs every workload ``R`` times as a fixed statement list, each in a fresh
child process, round-robin across workloads, prints every metric by name
with its unit as median [min .. max] across repeats, and exits non-zero if
any statement failed.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from meter import Meter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))      # the package is not installed

DEFAULT_SEED = 20250
SETUP_REPEATS = 3          # setup_s is the median of this many set-ups
MIN_STATEMENTS = 200       # so p95 has >= 10 samples beyond it
SAMPLE_EVERY = 10          # every 10th timed statement meets the oracle
RUN_CEILING_S = 120.0      # a run stops here whatever its schedule says
ENGINE_RATIO_ROUNDS = 6    # rounds the batch-engine base is timed for


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def digest(out) -> bytes:
    return hashlib.sha256(repr(out).encode()).digest()


# -- one pass over the schedule -------------------------------------------------


class Pass:
    """One pass over the schedule: per statement its shape, raw seconds
    and meter mark, plus where each round ended."""

    def __init__(self, workload):
        self.workload = workload
        self.samples: list[tuple[str, float, int]] = []
        self.round_ends: list[int] = []
        self.raw_busy = 0.0
        self.schedule = hashlib.sha256()     # of the statements it ran

    @property
    def rounds(self) -> int:
        return len(self.round_ends)

    @property
    def statements(self) -> int:
        return len(self.samples) * self.workload.units

    def seconds(self, deflate=None) -> list[float]:
        """Seconds per statement, raw or deflated by the meter."""
        if deflate is None:
            return [raw for _, raw, _ in self.samples]
        return [deflate(raw, mark) for _, raw, mark in self.samples]

    def by_shape(self, seconds: list[float]) -> dict[str, list[float]]:
        """Seconds per *unit* (a served slice stands for 32 requests)."""
        out: dict[str, list[float]] = {s: [] for s in self.workload.shapes}
        for (shape, _, _), value in zip(self.samples, seconds):
            out[shape].append(value / self.workload.units)
        return out

    def late_over_early(self, seconds: list[float]) -> float:
        """Second-half statements per second over first-half (whole
        rounds; the middle round of an odd count is left out)."""
        half = self.rounds // 2
        if half == 0:
            return 1.0
        early = sum(seconds[:self.round_ends[half - 1]])
        late = sum(seconds[self.round_ends[self.rounds - half - 1]:])
        return early / late


def band_mean(ordered: list[float], rank: float, half_width: float) -> float:
    """Mean of an ascending list between ranks ``rank - half_width`` and
    ``rank + half_width`` (in points of rank): a percentile that does not
    jump when the single sample at the rank does."""
    n = len(ordered)
    low = min(n - 1, math.floor((rank - half_width) / 100.0 * n))
    high = max(low + 1, math.ceil((rank + half_width) / 100.0 * n))
    band = ordered[low:high]
    return sum(band) / len(band)


def summarise_pass(timed: Pass, seconds: list[float]) -> dict[str, float]:
    """The latency and throughput metrics of one pass, from raw or from
    deflated seconds."""
    from repro.bench.reporting import geometric_mean
    from workloads import P50_BAND, P95_BAND

    shapes = timed.by_shape(seconds)
    pooled = sorted(v for values in shapes.values() for v in values)
    return {
        "stmt_per_s": timed.statements / sum(seconds),
        "p50_ms": band_mean(pooled, 50.0, P50_BAND) * 1e3,
        "p95_ms": band_mean(pooled, 95.0, P95_BAND) * 1e3,
        "shape_geomean_ms": geometric_mean(
            [median(values) for values in shapes.values() if values]) * 1e3,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload, state, meter, execute, observe, *, seconds=None,
             rounds=None, min_statements=0, started=None) -> Pass:
    """Time whole rounds, statement by statement.  ``execute(state, shape,
    text)`` runs one statement and consumes its rows; ``observe(index,
    shape, text, out, error, seconds)`` is called after each, outside the
    timed interval.  Statement time is the sum of the timed intervals: the
    client's own bookkeeping between statements (the oracle, the meter's
    sensor) is think time, not load."""
    result = Pass(workload)
    started = perf_counter() if started is None else started
    while True:
        for shape, text in workload.round(result.rounds):
            out = error = None
            mark = meter.mark()
            t0 = perf_counter()
            try:
                out = execute(state, shape, text)
            except Exception as exc:   # a failed statement is a counted failure
                error = exc
            elapsed = perf_counter() - t0
            result.raw_busy += elapsed
            observe(len(result.samples), shape, text, out, error, elapsed)
            result.samples.append((shape, elapsed, mark))
            result.schedule.update(f"{shape}\x00{text}\x01".encode())
        result.round_ends.append(len(result.samples))
        if perf_counter() - started > RUN_CEILING_S:
            break
        if rounds is not None:
            if result.rounds >= rounds:
                break
        elif (result.raw_busy >= seconds
              and result.statements >= min_statements):
            break
    meter.mark()          # a reading after the last interval
    return result


def set_up(workload, meter, oracle=None):
    """connect + DDL + load + ANALYZE / index build (+ first training) +
    one warm-up statement of every shape.  Returns the state and the
    set-up's intervals as (raw seconds, meter mark): ``tick`` closes one
    interval and opens the next, with a sensor reading between.  The
    warm-up answers meet the oracle after the clock stops."""
    gc.collect()
    intervals: list[tuple[float, int]] = []
    mark = meter.mark()
    t0 = perf_counter()

    def tick():
        nonlocal mark, t0
        intervals.append((perf_counter() - t0, mark))
        mark = meter.mark()
        t0 = perf_counter()

    state = workload.setup(tick)
    tick()
    outs = []
    for shape, text in workload.warmup():
        outs.append((shape, text, workload.execute(state, shape, text)))
        tick()
    if oracle is not None:
        for shape, text, out in outs:
            oracle.observe(shape, text, out, None, 0.0, sampled=True)
    return state, intervals


# -- the two kinds of run -------------------------------------------------------


def end_to_end_run(workload, seconds, rounds) -> tuple[dict, object]:
    oracle = workload.oracle()
    meter = Meter()
    started = perf_counter()
    setups = []
    state = None
    for repeat in range(SETUP_REPEATS):
        state = None                     # free the previous database first
        last = repeat == SETUP_REPEATS - 1
        state, intervals = set_up(workload, meter, oracle if last else None)
        setups.append(intervals)
    # read here, not after the timed pass: most workloads grow with every
    # round (inserted rows, model versions, the server's completed
    # requests), so a later reading would measure how many rounds fitted
    rss_after_setup = peak_rss_mb()
    gc.collect()

    def observe(index, shape, text, out, error, took):
        oracle.observe(shape, text, out, error, took,
                       sampled=index % SAMPLE_EVERY == 0)

    timed = run_pass(workload, state, meter, workload.execute, observe,
                     seconds=seconds, rounds=rounds,
                     min_statements=MIN_STATEMENTS, started=started)
    oracle.finish(workload, state)
    deflate = meter.deflator()
    deflated = timed.seconds(deflate)
    metrics = summarise_pass(timed, deflated)
    metrics["setup_s"] = median(
        sum(deflate(raw, mark) for raw, mark in intervals)
        for intervals in setups)
    metrics["peak_rss_mb"] = rss_after_setup
    raw = summarise_pass(timed, timed.seconds())
    raw["setup_s"] = median(sum(r for r, _ in intervals)
                            for intervals in setups)
    slow = sorted(meter.slowdowns())
    detail = {"rounds": timed.rounds, "statements": timed.statements,
              "schedule_sha256": timed.schedule.hexdigest(),
              "timed_s": timed.raw_busy, "deflated_s": sum(deflated),
              "p95_samples_beyond": len(timed.samples) // 20,
              "peak_rss_at_end_mb": peak_rss_mb(),
              "raw": raw,
              "host": {"spin_reference_us": meter.reference() * 1e6,
                       "median_slowdown": median(slow), "max_slowdown": slow[-1],
                       "readings": len(slow)},
              "shape_p50_ms": {shape: median(values) * 1e3 for shape, values
                               in timed.by_shape(deflated).items()}}
    return {"metrics": metrics, "detail": detail}, oracle


def traced_run(workload, probed, seconds, rounds, spans_path) -> tuple[dict, object]:
    import spans as spanlib
    from workloads import ALL_SHAPES

    oracle = workload.oracle()
    meter = Meter()
    started = perf_counter()
    state, _ = set_up(workload, meter, oracle)
    gc.collect()
    digests: list[bytes] = []

    def observe(index, shape, text, out, error, took):
        digests.append(digest(out))
        oracle.observe(shape, text, out, error, took,
                       sampled=index % SAMPLE_EVERY == 0)

    plain = run_pass(workload, state, meter, workload.execute, observe,
                     seconds=None if seconds is None else seconds / 2,
                     rounds=rounds, started=started)
    oracle.finish(workload, state)
    base_seconds = _batch_engine_seconds(workload, plain, meter)

    # the same rounds, on a fresh database, step-wise under spans
    state = None
    state, _ = set_up(workload, meter)
    tracer = spanlib.Tracer()
    workload.instrument(state, tracer)
    before = workload.counts(state)
    tasks_before = len(state.db.ai_engine.completed_tasks)
    gc.collect()

    def execute(state, shape, text):
        with tracer.statement(shape):
            return workload.execute_traced(state, tracer, shape, text)

    def compare(index, shape, text, out, error, took):
        oracle.attempted["trace_replay"] += 1
        if error is not None:
            oracle.fail("trace_replay", text,
                        f"raised {type(error).__name__}: {error}")
        elif digest(out) != digests[index]:
            oracle.fail("trace_replay", text, f"step-wise replay of {shape} "
                        f"differs from db.execute")

    try:
        traced = run_pass(workload, state, meter, execute, compare,
                          rounds=plain.rounds)
    finally:
        tracer.unwrap_all()
    deflate = meter.deflator()
    plain_seconds = plain.seconds(deflate)
    plain_busy = sum(plain_seconds)
    shape_ms = {shape: median(values) * 1e3 for shape, values
                in plain.by_shape(plain_seconds).items()}
    engine_ratio = _engine_ratios(shape_ms, base_seconds, deflate)
    after = workload.counts(state)
    tasks = state.db.ai_engine.completed_tasks[tasks_before:]
    problems = spanlib.check_spans(tracer.spans)
    if problems:
        oracle.attempted["spans"] += 1
        oracle.fail("spans", "span list", "; ".join(problems[:3]))
    aggregate = spanlib.aggregate(tracer.spans)
    if spans_path is not None:
        with open(spans_path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "statement_id"],
                       "spans": tracer.spans}, handle)

    virtual = after["virtual_s"] - before["virtual_s"]
    metrics = layer_metrics(aggregate["by_name"], tracer.counts, before,
                            after, tasks, traced.statements)
    metrics.update(probed)
    metrics.update({
        "exec.engine_ratio.parallel": engine_ratio.get("par", 0.0),
        "exec.engine_ratio.distributed": engine_ratio.get("dist", 0.0),
        "ai.model_err": oracle.model_err,
        "serve.late_over_early": plain.late_over_early(plain_seconds),
        "clock.virtual_s": virtual / traced.statements,
        "clock.virtual_over_wall": virtual / plain_busy,
        "trace.overhead_ratio": sum(traced.seconds(deflate)) / plain_busy,
    })
    for shape in ALL_SHAPES:
        metrics[f"shape.{shape}.p50_ms"] = shape_ms.get(shape, 0.0)
    detail = {"rounds": plain.rounds, "statements": plain.statements,
              "schedule_sha256": plain.schedule.hexdigest(),
              "untraced_s": plain.raw_busy, "traced_s": traced.raw_busy,
              "span_count": len(tracer.spans),
              "spans": dict(sorted(aggregate["by_name"].items())),
              "layer_share": aggregate["layer_share"],
              "shape_layer_share": aggregate["shape_layer_share"]}
    return {"metrics": metrics, "detail": detail}, oracle


def layer_metrics(by_name: dict, counts: dict, before: dict, after: dict,
                  tasks: list, statements: int) -> dict[str, float]:
    """The per-layer metrics read off the traced replay: span aggregates
    by name, the tracer's counts, the system's own counts before and after
    the replay, and the AI engine's tasks it completed meanwhile."""

    def total(name):
        return by_name.get(name, {}).get("total_s", 0.0)

    def count(name):
        return by_name.get(name, {}).get("count", 0)

    def mean_ms(*names):
        calls = count(names[0])
        return sum(total(n) for n in names) / calls * 1e3 if calls else 0.0

    def share(name):
        return by_name.get(name, {}).get("share", 0.0)

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    train = [t for t in tasks if t.kind == "train"]
    infer = [t for t in tasks if t.kind == "inference"]
    dispatch = by_name.get("db.execute_statement", {})
    metrics = {
        "sql.parse_ms": mean_ms("sql.parse"),
        "sql.parse_share": share("sql.parse"),
        "plan.plan_ms": mean_ms("plan.plan_select"),
        "plan.plan_share": share("plan.plan_select"),
        "db.dispatch_ms": per(dispatch.get("self_s", 0.0),
                              dispatch.get("count", 0)) * 1e3,
        "exec.build_compile_ms": mean_ms("exec.build", "exec.compile"),
        "exec.run_ms": mean_ms("exec.run"),
        "exec.materialise_ms": mean_ms("exec.materialise"),
        "exec.rows_out_per_s": per(counts["rows_out"],
                                   total("exec.run")
                                   + total("exec.materialise")),
        "exec.parallel.tasks": per(counts["parallel.tasks"],
                                   counts["parallel.statements"]),
        "exec.parallel.retries": counts["parallel.retries"],
        "exec.dist.exchanges": per(counts["dist.exchanges"],
                                   counts["dist.statements"]),
        "storage.dml_scan_ms": per(total("storage.scan"),
                                   counts["rows_scanned.calls"]) * 1e3,
        "storage.rows_examined_per_row_returned": per(
            counts["rows_examined"], counts["rows_returned"]),
        "storage.buffer_hit_ratio": after["buffer_hit_ratio"],
        "storage.view_rebuilds": per(
            after["view_rebuilds"] - before["view_rebuilds"], statements),
        "storage.pages_accessed": per(
            after["pages_accessed"] - before["pages_accessed"], statements),
        "ai.feed_train_ms": mean_ms("ai.feed_train"),
        "ai.feed_infer_ms": mean_ms("ai.feed_infer"),
        "ai.train_ms": mean_ms("ai.train"),
        "ai.train_rows_per_s": per(sum(t.samples_processed for t in train),
                                   total("ai.train")),
        "ai.infer_ms": mean_ms("ai.infer_with_model"),
        "ai.infer_rows_per_s": per(sum(t.samples_processed for t in infer),
                                   total("ai.infer_with_model")),
        "ai.fine_tune_ms": mean_ms("ai.fine_tune"),
        "ai.model_load_ms": mean_ms("ai.model_load"),
        "ai.train_steps": per(sum(t.details["batches"] for t in train),
                              len(train)),
        "serve.submit_us": mean_ms("serve.submit") * 1e3,
        "serve.drain_ms_per_req": per(total("serve.drain"),
                                      count("serve.submit")) * 1e3,
    }
    for key in ("mean_batch_requests", "cache_hit_ratio", "virtual_p95_ms",
                "modeled_rps", "deadline_misses", "batch_retries"):
        metrics[f"serve.{key}"] = after.get(key, 0.0)
    return metrics


def _batch_engine_seconds(workload, plain: Pass, meter) -> dict:
    """``olap_engines`` only: the same statements on the batch engine
    (same rows, same process), as (raw seconds, meter mark) per olap
    shape — the base of ``exec.engine_ratio.*``."""
    state = workload.setup_batch()
    if state is None:
        return {}
    base: dict[str, list[tuple[float, int]]] = {}
    for i in range(-1, min(plain.rounds, ENGINE_RATIO_ROUNDS)):
        for shape, text in workload.round(i):   # round -1 warms up
            engine, olap_shape = shape.split(".", 1)
            if engine != "par":     # par.* covers every dist.* template
                continue
            mark = meter.mark()
            t0 = perf_counter()
            len(state.db.execute(text).rows)
            elapsed = perf_counter() - t0
            if i >= 0:
                base.setdefault(olap_shape, []).append((elapsed, mark))
    meter.mark()
    return base


def _engine_ratios(shape_ms: dict, base_seconds: dict, deflate) -> dict:
    """Geometric mean, over an engine's shapes, of its shape median over
    the batch engine's median for the same template."""
    from repro.bench.reporting import geometric_mean

    ratios: dict[str, list[float]] = {}
    for shape, ms in shape_ms.items():
        engine, _, olap_shape = shape.partition(".")
        if olap_shape in base_seconds:
            base_ms = median(deflate(raw, mark) for raw, mark
                             in base_seconds[olap_shape]) * 1e3
            ratios.setdefault(engine, []).append(ms / base_ms)
    return {engine: geometric_mean(values)
            for engine, values in ratios.items()}


def schedule_sha256(workload, rounds: int) -> str:
    """What a pass over ``rounds`` rounds reports as its schedule hash."""
    sha = hashlib.sha256()
    for i in range(rounds):
        for shape, text in workload.round(i):
            sha.update(f"{shape}\x00{text}\x01".encode())
    return sha.hexdigest()


def single_run(args) -> int:
    from workloads import SIZES, WORKLOADS, check_schedule_rules

    spec = benchmark_spec()
    if args.trace:
        # before the workload's rows exist: a large heap makes every
        # garbage collection, and so every probe, slower
        import probes
        probed = probes.run_all(args.seed)
    workload = WORKLOADS[args.workload](args.seed)
    check_schedule_rules(workload, SIZES[workload.name]["rounds"])
    if args.trace:
        spans_path = None
        if args.out is not None:
            spans_path = Path(args.out).with_suffix(
                f".spans.{workload.name}.json")
        result, oracle = traced_run(workload, probed, args.seconds,
                                    args.rounds, spans_path)
        wanted = spec["per_layer"]
    else:
        result, oracle = end_to_end_run(workload, args.seconds, args.rounds)
        wanted = spec["end_to_end"]
    attempted, failed = oracle.totals()
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "sizes": workload.sizes,
        "per_shape": {shape: {"attempted": oracle.attempted[shape],
                              "failed": oracle.failed[shape]}
                      for shape in sorted(oracle.attempted)},
        "mismatches": oracle.mismatches, "detail": result["detail"]}))
    print(json.dumps(line))
    return 0


# -- a set of runs ---------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD's commit, read from ``.git`` in the checkout (None outside a
    git repository: the driver's checkout is not one)."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            text = (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None


def child(workload: str, seed: int, rounds: int, trace: int,
          out: str | None) -> tuple[dict, dict]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--rounds", str(rounds),
               "--trace", str(trace)]
    if out is not None:
        command += ["--out", out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    return {"median": median(values), "min": min(values),
            "max": max(values), "values": values}


def run_set(args) -> int:
    import numpy
    from repro.bench.reporting import write_bench_json

    from workloads import ENGINE_WORKERS, NPROC, WORKLOADS, active_sizes

    spec = benchmark_spec()
    names = [args.workload] if args.workload else list(WORKLOADS)
    sizes = active_sizes()
    runs: dict[str, list] = {name: [] for name in names}
    for repeat in range(args.repeats):           # round-robin: drift spreads
        for name in names:
            print(f"# {name} repeat {repeat + 1}/{args.repeats}",
                  file=sys.stderr)
            runs[name].append(child(name, args.seed, sizes[name]["rounds"],
                                    0, None))
    traced = {}
    if args.trace:
        for name in names:
            print(f"# {name} traced", file=sys.stderr)
            traced[name] = child(name, args.seed,
                                 max(1, sizes[name]["rounds"] // 2), 1,
                                 args.out)
    stamp = dict(seeds={"seed": args.seed},
                 workload={name: sizes[name] for name in names},
                 smoke=os.environ.get("E2E_SMOKE") == "1",
                 repeats=args.repeats, nproc=NPROC,
                 engine_workers=ENGINE_WORKERS,
                 python=platform.python_version(), numpy=numpy.__version__,
                 git_commit=git_commit())
    entries = {}
    failed_total = 0
    for name in names:
        infos = [info for info, _ in runs[name]]
        lines = [line for _, line in runs[name]]
        attempted = sum(line["attempted"] for line in lines)
        failed = sum(line["failed"] for line in lines)
        entry = {
            "schedule_sha256": infos[0]["detail"]["schedule_sha256"],
            "attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted,
            "per_shape": infos[0]["per_shape"],
            "mismatches": [m for info in infos for m in info["mismatches"]],
            "timed_s": [info["detail"]["timed_s"] for info in infos],
            "statements": infos[0]["detail"]["statements"],
            "end_to_end": {
                m["name"]: dict(summarise(
                    [line["metrics"][m["name"]]["value"] for line in lines]),
                    unit=m["unit"]) for m in spec["end_to_end"]},
        }
        if name in traced:
            info, line = traced[name]
            failed += line["failed"]
            entry["traced"] = {
                "attempted": line["attempted"], "failed": line["failed"],
                "mismatches": info["mismatches"], "detail": info["detail"],
                "per_layer": line["metrics"]}
        failed_total += failed
        entries[name] = entry
        print_workload(name, entry)
    if args.out is not None:
        write_bench_json(args.out, {"claim": None, "workloads": entries},
                         **stamp)
    if failed_total:
        print(f"FAILED: {failed_total} statements raised, timed out or "
              f"disagreed with the oracle", file=sys.stderr)
        return 1
    return 0


def print_workload(name: str, entry: dict) -> None:
    print(f"\n== {name}: {entry['statements']} timed statements, "
          f"attempted {entry['attempted']}, failed {entry['failed']}, "
          f"fail_ratio {entry['fail_ratio']:g}, schedule "
          f"{entry['schedule_sha256'][:12]}")
    for shape, tally in entry["per_shape"].items():
        print(f"   {shape:<22} attempted {tally['attempted']:>6} "
              f"succeeded {tally['attempted'] - tally['failed']:>6} "
              f"failed {tally['failed']:>3}")
    for mismatch in entry["mismatches"][:5]:
        print(f"   MISMATCH {mismatch['shape']}: {mismatch['detail']} in "
              f"{mismatch['statement'][:120]}")
    for metric, s in entry["end_to_end"].items():
        print(f"   {metric:<22} {s['median']:>14.6g} {s['unit']:<5} "
              f"[{s['min']:.6g} .. {s['max']:.6g}]")
    if "traced" in entry:
        for metric, value in entry["traced"]["per_layer"].items():
            if metric.startswith("shape.") and not value["value"]:
                continue                 # another workload's shape
            print(f"   {metric:<42} {value['value']:>14.6g} {value['unit']}")
        for mismatch in entry["traced"]["mismatches"][:5]:
            print(f"   MISMATCH {mismatch['shape']}: {mismatch['detail']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="one run, timed for this long")
    parser.add_argument("--rounds", type=int,
                        help="one run of this many rounds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", help="set: the result file; raw spans go "
                                      "beside it")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}: the benchmark drives the "
              f"repository's own package", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {', '.join(WORKLOADS)}")
    if args.seconds is not None or args.rounds is not None:
        if args.workload is None:
            parser.error("--seconds / --rounds time one run: name a --workload")
        return single_run(args)
    return run_set(args)


if __name__ == "__main__":
    sys.exit(main())
