"""Measurement plumbing of the end-to-end benchmark.

Everything here is independent of the program under test: the in-memory
span recorder the traced runs use, the percentile rule every timing is
reported under, and small timing helpers.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: A percentile is only reported with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10
#: Bound of the workload-specific extras ``compare.py`` gates.
EXTRA_BOUND = 0.25


# -- percentile rule ----------------------------------------------------------

def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in 0..100) of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def has_samples_beyond(n: int, p: float) -> bool:
    """Whether ``n`` samples leave :data:`MIN_SAMPLES_BEYOND` beyond the
    ``p``-th percentile."""
    return n - math.ceil(p / 100.0 * n) >= MIN_SAMPLES_BEYOND


def summarize(samples: Sequence[float], tail: int | None = None) -> dict[str, Any]:
    """Median, sample count and, if asked for, the ``tail`` percentile.

    The median is always reported (with ``n`` beside it, so a reader can
    judge it).  Each workload names the one tail percentile its run
    length supports — a percentile chosen from the sample count would
    change meaning whenever a change makes the run faster — and it is
    still only reported with ten samples beyond it.
    """
    n = len(samples)
    out: dict[str, Any] = {"n": n, "p50": statistics.median(samples)}
    if tail is not None and has_samples_beyond(n, tail):
        out["tail"] = f"p{tail}"
        out["tail_value"] = percentile(samples, tail)
    return out


# -- input fingerprints -------------------------------------------------------

def sha256_of(obj: Any) -> str:
    """sha256 of a generated input: text as UTF-8, anything else as
    canonical JSON — two commits that print the same digest consumed the
    same bytes."""
    if isinstance(obj, str):
        data = obj.encode()
    elif isinstance(obj, bytes):
        data = obj
    else:
        data = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(data).hexdigest()


# -- span recorder ------------------------------------------------------------

@dataclass
class Span:
    """``span(name, parent, start, end, workload, unit_id)`` plus the work
    count observed at the same boundary."""

    id: int
    name: str
    parent: int | None
    start: float
    end: float
    unit_id: int
    count: float = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """In-memory span recorder wrapped around the calls into each layer.

    Disabled (the untraced runs, and every other operation of a traced
    run) ``span`` costs one attribute test and yields a sink object, so
    call sites never branch on whether tracing is on.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.enabled = False
        self.unit_id = 0
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._sink = Span(-1, "", None, 0.0, 0.0, -1)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        if not self.enabled:
            yield self._sink
            return
        span = Span(
            len(self.spans), name,
            self._stack[-1] if self._stack else None,
            perf_counter(), 0.0, self.unit_id,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def to_json(self) -> list[dict[str, Any]]:
        return [
            {
                "id": s.id, "name": s.name, "parent": s.parent,
                "start": s.start, "end": s.end,
                "workload": self.workload, "unit_id": s.unit_id,
                "count": s.count,
            }
            for s in self.spans
        ]


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> self time: duration minus the time its children cover."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def span_table(spans: Sequence[Span]) -> list[dict[str, Any]]:
    """One row per span name: calls, busy s, self s, share of the traced
    wall time (the root spans' total), count and count per busy second."""
    own = self_times(spans)
    wall = sum(s.duration for s in spans if s.parent is None)
    rows: dict[str, dict[str, Any]] = {}
    for s in spans:
        row = rows.setdefault(
            s.name, {"span": s.name, "calls": 0, "busy_s": 0.0,
                     "self_s": 0.0, "count": 0},
        )
        row["calls"] += 1
        row["busy_s"] += s.duration
        row["self_s"] += own[s.id]
        row["count"] += s.count
    for row in rows.values():
        row["share"] = row["self_s"] / wall if wall else 0.0
        row["count_per_s"] = row["count"] / row["busy_s"] if row["busy_s"] else 0.0
    return sorted(rows.values(), key=lambda r: -r["self_s"])


def layer_shares(spans: Sequence[Span]) -> dict[str, float]:
    """Layer -> percent of the traced wall time spent in its own code."""
    own = self_times(spans)
    wall = sum(s.duration for s in spans if s.parent is None)
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
    return {k: 100.0 * v / wall if wall else 0.0 for k, v in out.items()}


def replay_cost(spans: Sequence[Span]) -> float:
    """Seconds the recorder takes to record ``spans`` again, nested as
    they were, around empty bodies: what tracing added to the operations
    they were recorded on."""
    children: dict[int | None, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    rec = Recorder("replay")
    rec.enabled = True

    def replay(parent: int | None) -> None:
        for s in children.get(parent, ()):
            with rec.span(s.name) as again:
                again.count = s.count
                replay(s.id)

    start = perf_counter()
    replay(None)
    return perf_counter() - start


def format_span_table(rows: Iterable[dict[str, Any]]) -> str:
    lines = [
        f"{'span':<28}{'calls':>7}{'busy s':>10}{'self s':>10}"
        f"{'share':>8}{'count':>11}{'count/s':>12}"
    ]
    for r in rows:
        lines.append(
            f"{r['span']:<28}{r['calls']:>7}{r['busy_s']:>10.4f}"
            f"{r['self_s']:>10.4f}{r['share']:>8.1%}{r['count']:>11.0f}"
            f"{r['count_per_s']:>12.0f}"
        )
    return "\n".join(lines)


# -- the contract -------------------------------------------------------------

def load_contract() -> dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units, directions, bounds."""
    return json.loads(BENCHMARK_JSON.read_text())


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    """Wall time of one call of ``fn`` and its result."""
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


def median_of(fn: Callable[[], Any], reps: int) -> tuple[float, Any]:
    """Median wall time of ``reps`` calls of ``fn`` and its last result."""
    runs = [timed(fn) for _ in range(reps)]
    return statistics.median(t for t, _ in runs), runs[-1][1]
