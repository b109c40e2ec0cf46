#!/usr/bin/env python3
"""Compare two sets of runs: ``compare.py BASE.json NEW.json``.

One row per workload x end-to-end metric: the base median, the new median,
their ratio (new / base), the bound from ``BENCHMARK.json`` and a verdict:

``improved`` / ``regressed``  the new median is better / worse than the
    base median by more than the bound;
``unchanged``   it is within the bound;
``unresolved``  the repeats of either side spread wider than the bound and
    the two sides' runs overlap, so the comparison decides nothing.

``fail_ratio`` has bound 0: any rise is a regression.  Exits non-zero on
any regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (new["median"] - base["median"]) / base["median"]
    spread = max((side["max"] - side["min"]) / side["median"]
                 for side in (base, new))
    overlap = new["min"] <= base["max"] and base["min"] <= new["max"]
    if spread > bound and overlap:
        return "unresolved"
    if worsening > bound:
        return "regressed"
    if worsening < -bound:
        return "improved"
    return "unchanged"


def compare(base: dict, new: dict, spec: dict) -> list[dict]:
    rows = []
    for name, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(name)
        if new_entry is None:
            continue
        for metric in spec["end_to_end"]:
            a = base_entry["end_to_end"][metric["name"]]
            b = new_entry["end_to_end"][metric["name"]]
            rows.append({
                "workload": name, "metric": metric["name"],
                "unit": metric["unit"], "base": a["median"],
                "new": b["median"], "ratio": b["median"] / a["median"],
                "bound": metric["bound"],
                "verdict": verdict(a, b, metric["better"], metric["bound"])})
        a, b = base_entry["fail_ratio"], new_entry["fail_ratio"]
        rows.append({"workload": name, "metric": "fail_ratio",
                     "unit": "ratio", "base": a, "new": b,
                     "ratio": b / a if a else (float("inf") if b else 1.0),
                     "bound": 0.0,
                     "verdict": ("regressed" if b > a else
                                 "improved" if b < a else "unchanged")})
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        new = json.load(handle)
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    rows = compare(base, new, spec)
    print(f"{'workload':<14} {'metric':<18} {'base':>12} {'new':>12} "
          f"{'new/base':>9} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<14} {row['metric']:<18} "
              f"{row['base']:>12.6g} {row['new']:>12.6g} "
              f"{row['ratio']:>9.3f} {row['bound']:>6.2f}  {row['verdict']}"
              f"  ({row['unit']})")
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    print(f"\n{len(rows)} cells: " + ", ".join(
        f"{sum(r['verdict'] == v for r in rows)} {v}"
        for v in ("improved", "unchanged", "unresolved", "regressed")))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
