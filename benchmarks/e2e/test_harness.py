"""Self-tests of the benchmark's own plumbing.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  Nothing
here measures the program; these tests pin the arithmetic the reported
numbers rest on (self times, the percentile rule, verdicts), the
determinism of the generated inputs, that a broken federation is
counted as failed operations, and that a run prints exactly the metric
names ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
for path in (BENCH_DIR, BENCH_DIR.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import compare  # noqa: E402
import harness  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from harness import Recorder, Span  # noqa: E402


# -- span recorder --------------------------------------------------------------

def hand_built_tree() -> list[Span]:
    #  op [0, 10]
    #    aggregate [1, 7]
    #      materialize [5, 7]
    #    read [8, 9.5]
    return [
        Span(0, "bench.op", None, 0.0, 10.0, 1),
        Span(1, "aggregation.full", 0, 1.0, 7.0, 1, count=600),
        Span(2, "ui.serving.materialize", 1, 5.0, 7.0, 1, count=3),
        Span(3, "ui.rest.handle_http", 0, 8.0, 9.5, 1, count=1000),
    ]


def test_self_time_is_duration_minus_children():
    own = harness.self_times(hand_built_tree())
    assert own == {0: 10.0 - 6.0 - 1.5, 1: 6.0 - 2.0, 2: 2.0, 3: 1.5}
    assert sum(own.values()) == pytest.approx(10.0)


def test_span_table_and_layer_shares():
    rows = {r["span"]: r for r in harness.span_table(hand_built_tree())}
    assert rows["aggregation.full"]["busy_s"] == 6.0
    assert rows["aggregation.full"]["self_s"] == 4.0
    assert rows["aggregation.full"]["share"] == pytest.approx(0.4)
    assert rows["aggregation.full"]["count_per_s"] == pytest.approx(100.0)
    shares = harness.layer_shares(hand_built_tree())
    assert shares == pytest.approx({"bench": 25.0, "aggregation": 40.0, "ui": 35.0})


def test_recorder_nests_and_costs_nothing_when_off():
    rec = Recorder("w")
    with rec.span("a") as sink:
        sink.count = 5
    assert rec.spans == []
    rec.enabled, rec.unit_id = True, 7
    with rec.span("outer"):
        with rec.span("inner") as inner:
            inner.count = 2
    outer, inner = rec.spans
    assert (inner.parent, inner.unit_id, inner.count) == (outer.id, 7, 2)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert rec.to_json()[1]["workload"] == "w"


def test_replay_cost_records_the_same_tree_again():
    cost = harness.replay_cost(hand_built_tree())
    assert 0.0 < cost < 0.01        # four spans around empty bodies
    assert harness.replay_cost([]) < 0.001


# -- percentile rule ------------------------------------------------------------

@pytest.mark.parametrize("n, p, supported", [
    (99, 90, False), (100, 90, True), (999, 99, False), (1000, 99, True),
    (19, 50, False), (20, 50, True),
])
def test_a_percentile_needs_ten_samples_beyond_it(n, p, supported):
    assert harness.has_samples_beyond(n, p) is supported


def test_summarize_reports_median_count_and_the_supported_tail():
    samples = [float(i) for i in range(1, 101)]
    assert harness.summarize(samples, 90) == {
        "n": 100, "p50": 50.5, "tail": "p90", "tail_value": 90.0,
    }
    assert harness.summarize(samples, 99) == {"n": 100, "p50": 50.5}
    assert harness.summarize([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0}


# -- seeded inputs --------------------------------------------------------------

def test_same_seed_same_inputs_other_seed_other_inputs():
    a = inputs.jobs_inputs(3, inputs.SMOKE)
    b = inputs.jobs_inputs(3, inputs.SMOKE)
    c = inputs.jobs_inputs(4, inputs.SMOKE)
    assert a.sha256 == b.sha256 and a.texts == b.texts
    assert all(a.sha256[k] != c.sha256[k] for k in a.sha256)
    h1 = inputs.heterogeneous_inputs(3, inputs.SMOKE)
    h2 = inputs.heterogeneous_inputs(3, inputs.SMOKE)
    h3 = inputs.heterogeneous_inputs(4, inputs.SMOKE)
    assert h1.sha256 == h2.sha256
    assert all(h1.sha256[k] != h3.sha256[k] for k in h1.sha256)


def test_request_sequence_is_seeded_and_mixed_as_documented():
    args = (2000, 16, 2340)
    assert inputs.request_sequence(5, *args) == inputs.request_sequence(5, *args)
    assert inputs.request_sequence(5, *args) != inputs.request_sequence(6, *args)
    kinds = [kind for kind, _ in inputs.request_sequence(5, 20000, 16, 2340)]
    for start in (0, 200, 7400):        # every period holds the same mix
        window = kinds[start:start + inputs.MIX_PERIOD]
        assert [window.count(k) for k in ("hot", "tail", "metrics", "status")] == [176, 20, 3, 1]
    assert len(set(inputs.url_of(s) for s in inputs.jobs_tail())) == 2340
    assert len(set(inputs.url_of(s) for s in inputs.JOBS_HOT)) == 16


# -- compare.py -----------------------------------------------------------------

def result(op_ms: list[float], *, failed: int = 0, extra_ms: float | None = None) -> dict:
    """A result file with one untraced portal run per ``op_ms`` value."""
    runs = []
    for value in op_ms:
        detail = {
            "trace": 0, "failed": failed, "extras": {},
            "end_to_end": {
                "setup_s": [2.0, "s"], "op_p50_ms": [value, "ms"],
                "records_per_s": [1000.0 / value, "1/s"], "peak_rss_mb": [150.0, "MB"],
            },
        }
        if extra_ms is not None:
            detail["extras"]["status_p50_ms"] = {
                "value": extra_ms, "unit": "ms", "n": 30, "what": "",
                "better": "lower", "bound": 0.10,
            }
        runs.append({"portal": detail})
    return {"meta": {}, "runs": runs}


def verdicts(a: dict, b: dict) -> tuple[dict[str, str], list[str]]:
    rows, failures = compare.compare(a, b)
    return {r["metric"]: r["verdict"] for r in rows}, failures


def test_compare_flags_a_regression_in_either_direction():
    got, failures = verdicts(result([1.00, 1.01, 0.99]), result([1.40, 1.41, 1.39]))
    assert got["op_p50_ms"] == "regressed"          # lower is better, went up
    assert got["records_per_s"] == "regressed"      # higher is better, went down
    assert got["setup_s"] == "unchanged"
    assert len(failures) == 2


def test_compare_reports_wide_spread_as_unresolved_not_unchanged():
    got, failures = verdicts(result([1.0, 1.4, 0.7]), result([1.02, 0.7, 1.4]))
    assert got["op_p50_ms"] == "unresolved"
    assert failures == []


def test_compare_improved_when_every_run_is_better():
    got, _ = verdicts(result([1.0, 1.3, 0.9]), result([0.5, 0.6, 0.55]))
    assert got["op_p50_ms"] == "improved"


def test_compare_fails_on_a_rise_in_failed_operations():
    rows, failures = compare.compare(result([1.0]), result([1.0], failed=1))
    assert all(r["verdict"] == "unchanged" for r in rows)
    assert failures == ["portal: failed operations rose 0 -> 1"]


def test_compare_gates_workload_specific_extras_that_carry_a_bound():
    got, failures = verdicts(result([1.0], extra_ms=90.0), result([1.0], extra_ms=120.0))
    assert got["status_p50_ms"] == "regressed"
    assert len(failures) == 1


def test_compare_cli_exit_code(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result([1.0, 1.0])))
    b.write_text(json.dumps(result([1.5, 1.5])))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1


def test_compare_pools_several_result_files_per_side(tmp_path, capsys):
    paths = []
    for i, value in enumerate([1.0, 1.02, 0.98]):
        paths.append(tmp_path / f"r{i}.json")
        paths[-1].write_text(json.dumps(result([value])))
    pooled = compare.pool([str(p) for p in paths])
    assert len(pooled["runs"]) == 3
    assert compare.main(["--pool", *map(str, paths)]) == 0
    assert json.loads(capsys.readouterr().out) == pooled
    both = ",".join(map(str, paths))
    assert compare.main([both, both]) == 0
    assert "  3/3 " in capsys.readouterr().out


# -- failed operations ------------------------------------------------------------

def test_corrupting_one_replicated_row_counts_as_a_failed_operation():
    def run_backfill(corrupt: bool) -> tuple[int, int]:
        workload = workloads.Backfill(1, inputs.SMOKE, Recorder("backfill"))
        workload.setup()
        workload.op(0)
        if corrupt:
            replica = workload.hub.federated_schemas()["site_comet"]
            first = next(iter(replica.table("fact_job").rows()))["job_id"]
            replica.table("fact_job").update_where(
                lambda row: row["job_id"] == first, {"cpu_hours": -1.0}
            )
        workload.finish()
        return run.tally(workload, workload.checks())

    attempted, failed = run_backfill(corrupt=False)
    assert attempted > 0 and failed == 0
    _, failed = run_backfill(corrupt=True)
    assert failed >= 1


# -- the contract -----------------------------------------------------------------

def test_smoke_prints_exactly_the_metric_names_of_benchmark_json(tmp_path):
    contract = harness.load_contract()
    expected = {
        0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
        1: {m["name"]: m["unit"] for m in contract["per_layer"]},
    }
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    for workload in (w["name"] for w in contract["workloads"]):
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--smoke",
                 "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--out", str(tmp_path)],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            last = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            assert last["correct"] is True and last["failed"] == 0, (workload, trace)
            assert last["attempted"] >= 1
            got = {name: m["unit"] for name, m in last["metrics"].items()}
            assert got == expected[trace], (workload, trace)
            assert "closed loop" in out.stdout
