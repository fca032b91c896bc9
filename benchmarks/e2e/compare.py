#!/usr/bin/env python3
"""Compare two result files of ``run.py`` (parent A, change B).

One row per workload x end-to-end metric, with a verdict:

- ``regressed``  B's median is worse than A's by more than the metric's bound
- ``unresolved`` the run-to-run spread of either side is wider than the
  bound, so "no change" cannot be told from a change (unless every run of
  B reads better than every run of A)
- ``improved``   B's median is better by more than the spread
- ``unchanged``  otherwise

Exits non-zero on any ``regressed`` row, or when a workload's failed
operations rose.  Each side is one result file or several joined by
commas; medians and spreads are taken over all the runs they hold.
``compare.py --pool R1.json R2.json ...`` prints the runs of several
result files as one (how ``baseline.json`` is made).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

from harness import load_contract


def spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    range with four or more runs, the full range with two or three."""
    if len(values) < 2:
        return 0.0
    median = statistics.median(values)
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        width = q[2] - q[0]
    else:
        width = max(values) - min(values)
    return abs(width / median) if median else 0.0


def collect(result: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """workload -> {"metrics": {name: {values, unit, better?, bound?}}, "failed": n}."""
    out: dict[str, dict[str, Any]] = {}
    for run in result["runs"]:
        for workload, detail in run.items():
            if detail.get("trace"):
                continue
            entry = out.setdefault(workload, {"metrics": {}, "failed": 0})
            entry["failed"] = max(entry["failed"], detail["failed"])
            for name, (value, unit) in detail["end_to_end"].items():
                entry["metrics"].setdefault(name, {"values": [], "unit": unit})["values"].append(value)
            for name, extra in detail["extras"].items():
                if "bound" not in extra:
                    continue
                slot = entry["metrics"].setdefault(name, {
                    "values": [], "unit": extra["unit"],
                    "better": extra["better"], "bound": extra["bound"],
                })
                slot["values"].append(extra["value"])
    return out


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """(verdict, relative worsening of B's median, spread)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    width = max(spread(a), spread(b))
    if better == "lower":
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if worsening > bound:
        return "regressed", worsening, width
    if all_better and len(a) > 1 and len(b) > 1:
        return "improved", worsening, width
    if width > bound:
        return "unresolved", worsening, width
    if -worsening > max(width, 0.01):
        return "improved", worsening, width
    return "unchanged", worsening, width


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[dict[str, Any]], list[str]]:
    """Rows for every workload x metric both sides have, and the reasons
    (if any) the comparison fails."""
    gated = {m["name"]: m for m in load_contract()["end_to_end"]}
    side_a, side_b = collect(a), collect(b)
    rows, failures = [], []
    for workload in side_a:
        if workload not in side_b:
            continue
        if side_b[workload]["failed"] > side_a[workload]["failed"]:
            failures.append(
                f"{workload}: failed operations rose "
                f"{side_a[workload]['failed']} -> {side_b[workload]['failed']}"
            )
        for name, slot_a in side_a[workload]["metrics"].items():
            slot_b = side_b[workload]["metrics"].get(name)
            if slot_b is None:
                continue
            rule = gated.get(name, slot_a)
            kind, worsening, width = verdict(
                slot_a["values"], slot_b["values"], rule["better"], rule["bound"]
            )
            rows.append({
                "workload": workload, "metric": name, "unit": slot_a["unit"],
                "a": statistics.median(slot_a["values"]),
                "b": statistics.median(slot_b["values"]),
                "runs": (len(slot_a["values"]), len(slot_b["values"])),
                "worsening": worsening, "spread": width,
                "bound": rule["bound"], "verdict": kind,
            })
            if kind == "regressed":
                failures.append(
                    f"{workload}: {name} worse by {worsening:.1%} (bound {rule['bound']:.0%})"
                )
    return rows, failures


def format_rows(rows: list[dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<15}{'metric':<16}{'A median':>13}{'B median':>13} "
        f"{'unit':<5}{'runs':>6}{'worse by':>10}{'spread':>9}{'bound':>7}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:<15}{r['metric']:<16}{r['a']:>13.4f}{r['b']:>13.4f} "
            f"{r['unit']:<5}{r['runs'][0]:>3}/{r['runs'][1]:<2}{r['worsening']:>+10.1%}"
            f"{r['spread']:>9.1%}{r['bound']:>7.0%}  {r['verdict']}"
        )
    return "\n".join(lines)


def pool(paths: list[str]) -> dict[str, Any]:
    """The runs of several result files under the first one's ``meta``."""
    results = [json.loads(Path(p).read_text()) for p in paths]
    return {
        "meta": results[0].get("meta", {}),
        "runs": [run for result in results for run in result["runs"]],
    }


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1 and args[0] == "--pool":
        print(json.dumps(pool(args[1:]), indent=1))
        return 0
    if len(args) != 2:
        print("usage: compare.py A.json[,A2.json...] B.json[,B2.json...]\n"
              "       compare.py --pool R1.json R2.json ...", file=sys.stderr)
        return 2
    a, b = (pool(side.split(",")) for side in args)
    rows, failures = compare(a, b)
    print(f"A: {args[0]}  {a.get('meta', {})}")
    print(f"B: {args[1]}  {b.get('meta', {})}")
    print(format_rows(rows))
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
