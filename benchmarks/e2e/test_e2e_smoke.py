"""Smoke test of the e2e benchmark at tiny sizes (``E2E_SMOKE=1``).

Picked up by ``pytest --bench`` (everything under ``benchmarks/`` carries
the ``bench`` marker); tier-1 ``pytest -x -q`` deselects it.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = run.benchmark_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def smoke_sizes(monkeypatch):
    monkeypatch.setenv("E2E_SMOKE", "1")


def last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed(name, trace, capsys, tmp_path):
    """Every name in BENCHMARK.json comes out with a finite value and its
    unit, nothing else does, and no statement fails."""
    out = tmp_path / "set.json"
    code = run.main(["--workload", name, "--seed", "7", "--rounds", "1",
                     "--trace", str(trace), "--out", str(out)])
    line = last_line(capsys)
    assert code == 0
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(line["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"]), metric["name"]
        if not trace:
            assert got["value"] > 0, metric["name"]
    if trace:
        raw = json.loads(out.with_suffix(f".spans.{name}.json").read_text())
        assert raw["spans"], "the traced run recorded no spans"
        assert spans.check_spans(raw["spans"]) == []


def test_frozen_schedules_meet_the_rules():
    assert len(NAMES) == len(workloads.WORKLOADS) == 5
    assert len(workloads.ALL_SHAPES) == 25
    for name, cls in workloads.WORKLOADS.items():
        workloads.check_schedule_rules(cls(7), workloads.SIZES[name]["rounds"])


def test_rank_rule_rejects_a_border():
    class OnBorder(workloads.OlapMix):
        mix = {"count_filter": 1, "filter_agg": 1}
        cost_order = ("count_filter", "filter_agg")
    with pytest.raises(ValueError, match="border"):
        workloads.check_schedule_rules(OnBorder(7), 200)


def test_schedule_is_a_function_of_the_seed():
    for cls in workloads.WORKLOADS.values():
        same = [run.schedule_sha256(cls(11), 2) for _ in range(2)]
        assert same[0] == same[1]
        assert same[0] != run.schedule_sha256(cls(12), 2)


def test_malformed_spans_are_reported():
    good = [["stmt.x", 0.0, 10.0, -1, 0], ["sql.parse", 1.0, 4.0, 0, 0],
            ["exec.run", 4.0, 9.0, 0, 0], ["storage.read", 5.0, 6.0, 2, 0]]
    assert spans.check_spans(good) == []
    assert spans.self_times(good) == [2.0, 3.0, 4.0, 1.0]
    shares = spans.aggregate(good)["layer_share"]
    assert math.isclose(sum(shares.values()), 1.0)
    escaped = copy.deepcopy(good)
    escaped[3][2] = 9.5                      # child outlives its parent
    assert any("leaves its parent" in p for p in spans.check_spans(escaped))
    overfull = copy.deepcopy(good)
    overfull[1][2] = 9.0                     # siblings overlap: self < 0
    assert any("negative self" in p for p in spans.check_spans(overfull))


def test_wrong_oracle_row_is_a_failure():
    workload = workloads.OlapMix(7)
    state = workload.setup(lambda: None)
    oracle = workload.oracle()
    for shape, text in workload.warmup():
        oracle.observe(shape, text, workload.execute(state, shape, text),
                       None, 0.0, sampled=True)
    assert oracle.totals() == (len(workload.shapes), 0)
    oracle.conn.execute("UPDATE t SET v = v + 1.0 WHERE id = 3")
    for shape, text in workload.warmup():
        oracle.observe(shape, text, workload.execute(state, shape, text),
                       None, 0.0, sampled=True)
    attempted, failed = oracle.totals()
    assert failed > 0 and failed / attempted > 0
    first = oracle.mismatches[0]
    assert first["workload"] == "olap_mix" and first["statement"]
    assert "oracle" in first["detail"]


def test_a_raising_statement_is_a_failure():
    workload = workloads.OltpMix(7)
    oracle = workload.oracle()
    oracle.observe("point_select", "SELECT 1", None, RuntimeError("boom"),
                   0.0, sampled=False)
    assert oracle.totals() == (1, 1)


@pytest.fixture(scope="module")
def set_result(tmp_path_factory):
    """One set of runs (two repeats of one workload, children and all)."""
    out = tmp_path_factory.mktemp("set") / "set.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "oltp_mix",
         "--seed", "7", "--repeats", "2", "--out", str(out)],
        env={**os.environ, "E2E_SMOKE": "1"}, stdout=subprocess.PIPE,
        text=True, timeout=120)
    assert done.returncode == 0, done.stdout
    for metric in SPEC["end_to_end"]:
        assert metric["name"] in done.stdout
    return json.loads(out.read_text())


def test_set_result_carries_its_provenance(set_result):
    assert set_result["claim"] is None
    meta = set_result["meta"]
    assert meta["seeds"] == {"seed": 7} and meta["smoke"] is True
    assert meta["workload"] == {"oltp_mix": workloads.SMOKE_SIZES["oltp_mix"]}
    for key in ("schema_version", "nproc", "python", "numpy", "git_commit"):
        assert key in meta
    entry = set_result["workloads"]["oltp_mix"]
    assert len(entry["schedule_sha256"]) == 64
    assert entry["fail_ratio"] == 0
    assert set(entry["per_shape"]) >= set(workloads.OltpMix.shapes)


def test_compare_verdicts(set_result):
    # two smoke-scale repeats spread wider than any bound; make them agree,
    # so that what is judged is the medians
    base = copy.deepcopy(set_result)
    for cell in base["workloads"]["oltp_mix"]["end_to_end"].values():
        cell["min"] = cell["max"] = cell["median"]
    rows = compare.compare(base, base, SPEC)
    assert len(rows) == len(SPEC["end_to_end"]) + 1
    assert {row["verdict"] for row in rows} == {"unchanged"}
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "stmt_per_s")
    slower = copy.deepcopy(base)
    cell = slower["workloads"]["oltp_mix"]["end_to_end"]["stmt_per_s"]
    for key in ("median", "min", "max"):
        cell[key] *= 1.0 - bound - 0.05
    verdicts = {row["metric"]: row["verdict"]
                for row in compare.compare(base, slower, SPEC)}
    assert verdicts["stmt_per_s"] == "regressed"
    assert verdicts["p50_ms"] == "unchanged"
    verdicts = {row["metric"]: row["verdict"]
                for row in compare.compare(slower, base, SPEC)}
    assert verdicts["stmt_per_s"] == "improved"
    failing = copy.deepcopy(base)
    failing["workloads"]["oltp_mix"]["fail_ratio"] = 0.01
    verdicts = {row["metric"]: row["verdict"]
                for row in compare.compare(base, failing, SPEC)}
    assert verdicts["fail_ratio"] == "regressed"


def test_compare_calls_noisy_overlap_unresolved():
    base = {"median": 100.0, "min": 80.0, "max": 120.0}
    new = {"median": 115.0, "min": 95.0, "max": 130.0}
    assert compare.verdict(base, new, "lower", 0.10) == "unresolved"
    clear = {"median": 150.0, "min": 140.0, "max": 160.0}
    assert compare.verdict(base, clear, "lower", 0.10) == "regressed"
    assert compare.verdict(clear, base, "lower", 0.10) == "improved"


def test_exits_non_zero_without_the_repository(tmp_path):
    """In a directory that holds only BENCHMARK.json and the benchmark's
    own files the command fails and prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, target / path.name)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "olap_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert done.stdout.strip() == ""
