#!/usr/bin/env python3
"""End-to-end federation benchmark with per-layer attribution.

One workload, as ``BENCHMARK.json``'s driver runs it::

    python3 benchmarks/e2e/run.py --workload portal --seed 7 --seconds 15 --trace 0

prints a human-readable report and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``).

Without ``--workload`` it runs all four, each in its own fresh subprocess
(``PYTHONHASHSEED=0``), untraced then traced, and writes
``out/result.json`` for ``compare.py``.  See README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import io
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parents[1] / "src"))

import harness  # noqa: E402
from harness import Recorder, summarize  # noqa: E402

LOOP = "closed loop, 1 client thread: each operation starts when the previous one was answered"
LAYERS = ("etl", "core", "aggregation", "ui")
#: A traced run records spans on every other operation, so the same run
#: holds untraced operations to set the traced ones against.
MIN_OPS = 2
#: What ``out/result.json`` keeps of each run's detail file.
RESULT_KEYS = (
    "workload", "seed", "seconds", "trace", "ops", "region_s", "records", "op_ms",
    "inputs_sha256", "end_to_end", "extras", "per_layer", "attempted", "failed",
)


def tally(workload, checks: list[tuple[str, bool]]) -> tuple[int, int]:
    """(attempted, failed): input records offered + requests issued +
    checks run, against those rejected, not visible on the hub, answered
    with an error or different bytes, or failed."""
    return (
        workload.offered + len(checks),
        workload.failed + sum(1 for _, ok in checks if not ok),
    )


def measure(workload, seconds: float, trace: bool, sizes, out_dir: Path) -> dict[str, Any]:
    """Set up (several times), run the timed region, check, probe."""
    from probes import run_probes

    rec: Recorder = workload.rec
    setup_times = []
    try:
        # a cheap set-up is repeated more often: its median is then as
        # steady as that of an expensive one
        while len(setup_times) < sizes.setup_reps or (
            sum(setup_times) < sizes.setup_min_s and len(setup_times) < 6 * sizes.setup_reps
        ):
            if setup_times:
                workload.teardown()
            gc.collect()
            start = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - start)
        cap = (sizes.max_ops or {}).get(workload.name)
        gc.collect()
        region_start = perf_counter()
        deadline = region_start + seconds
        i = 0
        while workload.has_next(i) and (
            i < MIN_OPS or (i < cap if cap else perf_counter() < deadline)
        ):
            rec.enabled = trace and i % 2 == 1
            rec.unit_id = i
            workload.op(i)
            i += 1
        rec.enabled = False
        region_s = perf_counter() - region_start
        workload.finish()
        checks = workload.checks()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        per_layer = run_probes(workload, sizes, out_dir) if trace else {}
    finally:
        workload.teardown()

    op_ms = summarize([t * 1e3 for t in workload.latencies], workload.tail_percentile)
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_ms": (op_ms["p50"], "ms"),
        "records_per_s": (workload.records / region_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if "tail" in op_ms:
        workload.extra(
            f"op_{op_ms['tail']}_ms", op_ms["tail_value"], "ms", op_ms["n"],
            f"{op_ms['tail']} of the operation latency over the whole run", gated=True,
        )
    attempted, failed = tally(workload, checks)
    detail: dict[str, Any] = {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": int(trace),
        "loop": LOOP,
        "unit": workload.unit,
        "record_unit": workload.record_unit,
        "sizes": dataclasses.asdict(sizes),
        "ops": len(workload.ops),
        "region_s": region_s,
        "records": workload.records,
        "setup_s_samples": setup_times,
        "op_samples": workload.ops,
        "op_ms": op_ms,
        "inputs_sha256": workload.sha256,
        "end_to_end": end_to_end,
        "extras": workload.extras,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        traced, untraced = workload.walls[1::2], workload.walls[0::2]
        shares = harness.layer_shares(rec.spans)
        for layer in LAYERS:
            per_layer[f"{layer}.share_pct"] = (shares.get(layer, 0.0), "%")
        per_layer["bench.harness_share_pct"] = (shares.get("bench", 0.0), "%")
        # What the recorder costs is too small to read off the difference
        # between traced and untraced operations (a handful of reps each on
        # two workloads), so it is measured directly: record the same spans
        # again around empty bodies.  The difference is printed beside it.
        per_layer["bench.trace_overhead_pct"] = (
            100.0 * harness.replay_cost(rec.spans) / sum(traced), "%")
        detail["traced_vs_untraced_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(untraced) - 1.0)
        detail["per_layer"] = per_layer
        detail["span_table"] = harness.span_table(rec.spans)
        detail["traced_ops"] = len(traced)
    return detail


def report(detail: dict[str, Any]) -> str:
    """The human-readable half of the output."""
    lines = [
        f"== {detail['workload']}  seed={detail['seed']} seconds={detail['seconds']:g} "
        f"trace={detail['trace']} ==",
        f"loop: {LOOP}",
        f"unit: {detail['unit']}",
        f"ops: n={detail['ops']} in {detail['region_s']:.2f} s "
        f"({detail['records']} {detail['record_unit']})",
    ]
    op = detail["op_ms"]
    tail = f", {op['tail']}={op['tail_value']:.3f} ms" if "tail" in op else ""
    lines.append(f"op latency over the whole run: p50={op['p50']:.3f} ms{tail} (n={op['n']})")
    lines.append(
        f"end-to-end metrics (setup_s: median of {len(detail['setup_s_samples'])} set-ups; "
        f"op_p50_ms: median of the {op['n']} latencies; records_per_s: over the whole region):"
    )
    for name, (value, unit) in detail["end_to_end"].items():
        lines.append(f"  {name:<40}{value:>14.4f} {unit}")
    for name, extra in detail["extras"].items():
        lines.append(
            f"  {name:<40}{extra['value']:>14.4f} {extra['unit']}  "
            f"(n={extra['n']}; {extra['what']})"
        )
    if "per_layer" in detail:
        lines.append(
            f"spans of the {detail['traced_ops']} traced operations (every other one; their "
            f"median wall is {detail['traced_vs_untraced_pct']:+.2f} % of the untraced ones'):"
        )
        lines.append(harness.format_span_table(detail["span_table"]))
        lines.append("per-layer metrics (probes on this workload's data, then span shares):")
        for name, (value, unit) in detail["per_layer"].items():
            lines.append(f"  {name:<40}{value:>14.6g} {unit}")
    passed = sum(1 for _, ok in detail["checks"] if ok)
    lines.append(f"checks: {passed}/{len(detail['checks'])} passed; "
                 f"attempted={detail['attempted']} failed={detail['failed']}")
    lines.extend(f"  FAILED {name}" for name, ok in detail["checks"] if not ok)
    for name, digest in detail["inputs_sha256"].items():
        lines.append(f"input {name}: sha256 {digest}")
    return "\n".join(lines)


def contract_line(detail: dict[str, Any]) -> str:
    """The last line of stdout, as ``BENCHMARK.json``'s driver reads it."""
    metrics = detail["per_layer"] if detail["trace"] else detail["end_to_end"]
    return json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    })


def pin_to_one_cpu() -> None:
    """Keep every thread of this process on one CPU.

    The loops are closed, so client and server threads never run at the
    same time anyway; left to the scheduler they end up on different
    virtual CPUs after a second or two, and every request then pays a
    cross-CPU wake-up that doubles loopback latency in this sandbox
    (0.2 ms -> 0.5 ms on a bare ``http.server``) for part of the run.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args: argparse.Namespace) -> int:
    from inputs import FULL, SMOKE
    from workloads import WORKLOADS

    pin_to_one_cpu()
    sizes = SMOKE if args.smoke else FULL
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    workload = WORKLOADS[args.workload](args.seed, sizes, Recorder(args.workload))
    if args.profile:
        profiler = cProfile.Profile()
        profiler.runcall(measure, workload, args.seconds, trace, sizes, out_dir)
        text = io.StringIO()
        pstats.Stats(profiler, stream=text).sort_stats("cumulative").print_stats(20)
        (out_dir / f"profile_{args.workload}.txt").write_text(text.getvalue())
        print(f"profile written to {out_dir}/profile_{args.workload}.txt; no numbers recorded")
        return 0
    detail = measure(workload, args.seconds, trace, sizes, out_dir)
    if trace:
        (out_dir / f"trace_{args.workload}.json").write_text(
            json.dumps(workload.rec.to_json())
        )
    (out_dir / f"detail_{args.workload}_trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1)
    )
    print(report(detail))
    print(contract_line(detail), flush=True)
    return 0


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=BENCH_DIR,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh subprocess; ``out/result.json``."""
    from workloads import WORKLOADS

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    passes = [0, 1] if args.trace is None else [args.trace]
    if args.profile:
        passes = [0]
    if args.check_baseline:
        # three, so that one disturbed run moves neither median nor verdict
        passes = [0, 0, 0]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    runs: list[dict[str, Any]] = []
    for trace in passes:
        run: dict[str, Any] = {}
        for name in WORKLOADS:
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(out_dir),
                *(["--smoke"] if args.smoke else []),
                *(["--profile"] if args.profile else []),
            ]
            subprocess.run(command, env=env, check=True)
            if args.profile:
                continue
            detail = json.loads(
                (out_dir / f"detail_{name}_trace{trace}.json").read_text()
            )
            run[name] = {key: detail[key] for key in RESULT_KEYS if key in detail}
        runs.append(run)
    if args.profile:
        return 0
    result = {
        "meta": {
            "commit": git_commit(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke,
        },
        "runs": runs,
    }
    path = out_dir / "result.json"
    path.write_text(json.dumps(result, indent=1))
    print(f"wrote {path}")
    if args.check_baseline:
        import compare
        return compare.main([str(BENCH_DIR / "baseline.json"), str(path)])
    return 0


def main(argv: list[str] | None = None) -> int:
    run_seconds = harness.load_contract()["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("backfill", "nightly", "portal", "heterogeneous"))
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="length of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
                        help="1: traced run with per-layer metrics; 0: end-to-end metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and a fixed, small number of operations")
    parser.add_argument("--out", default=str(BENCH_DIR / "out"))
    parser.add_argument("--profile", action="store_true",
                        help="cProfile top-20 into out/profile_<workload>.txt")
    parser.add_argument("--check-baseline", action="store_true",
                        help="run all workloads untraced three times and compare with "
                             "baseline.json")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order must not differ between two runs of a seed
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
