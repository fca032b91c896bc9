"""Seeded input generation for the end-to-end benchmark.

``--seed`` is the only source of randomness: it offsets every simulator
seed and seeds the request-sequence RNG.  The program under test never
sees a simulator or an RNG, only what is generated here — sacct text,
cloud event lists, storage JSON documents, and URL paths — and the
result records a sha256 of each so two commits provably consumed
identical bytes.
"""

from __future__ import annotations

import dataclasses
import random
import urllib.parse
from dataclasses import dataclass
from typing import Any

from repro.simulators import (
    CloudConfig,
    CloudSimulator,
    ConversionTable,
    StorageConfig,
    StorageSimulator,
    WorkloadGenerator,
    figure1_sites,
    simulate_resource,
    to_sacct_log,
)
from repro.core import standardize_federation
from repro.timeutil import SECONDS_PER_HOUR, ts
from repro.ui import ViewSpec

from harness import sha256_of

YEAR_START = ts(2017, 1, 1)
YEAR_END = ts(2018, 1, 1)
MONTH_STARTS = tuple(ts(2017, m, 1) for m in range(1, 13)) + (YEAR_END,)


@dataclass(frozen=True)
class Sizes:
    """How big one run is.  Recorded in every result file.

    The ISSUE's sizes (scale 1.0, 40 VMs/day, 150 storage users) give
    15-40 s timed regions; the driver's contract allows about 25 s per
    run *including* three set-ups, so every size is shrunk uniformly to
    roughly 0.15 of that and the timed region is a fixed ``--seconds``.
    """

    scale: float = 0.15          # figure1_sites(scale=...): ~5.7 k jobs
    sim_end: int = YEAR_END      # jobs are simulated over [2017-01-01, sim_end)
    vms_per_day: float = 2.0     # ~3.8 k cloud events over 2017
    storage_users: int = 10      # ~1.6 k storage documents over 2017
    preload_until: int = ts(2017, 9, 1)   # nightly: history before cycle 1
    delta_hours: int = 8         # nightly: one cycle's worth of finished jobs
    delta_from: int = ts(2017, 12, 25)    # heterogeneous: the extra week
    setup_reps: int = 5          # at least; up to 6x while under setup_min_s in total
    setup_min_s: float = 2.0
    probe_reps: int = 3
    tail_sample: int = 40        # tail URLs timed by the probes
    body_sample: int = 200       # portal bodies compared byte for byte
    max_ops: dict[str, int] | None = None  # --smoke caps; None = by time


FULL = Sizes()
#: ``figure1_sites`` floors every resource at 4 nodes, so a scale below
#: 0.15 hardly shrinks the job count; the smoke run shortens the year.
SMOKE = Sizes(
    sim_end=ts(2017, 2, 1), preload_until=ts(2017, 1, 22), delta_hours=24,
    vms_per_day=0.25, storage_users=2, setup_reps=1, setup_min_s=0.0,
    probe_reps=1, tail_sample=6, body_sample=20,
    max_ops={"backfill": 2, "nightly": 5, "portal": 200, "heterogeneous": 2},
)


# -- jobs realm: three Figure-1 satellites -------------------------------------

@dataclass
class JobsInputs:
    conversion: ConversionTable
    records: dict[str, list]          # site -> JobRecords ordered by end
    texts: dict[str, str]             # site -> full-year sacct text
    sha256: dict[str, str]

    @property
    def n_jobs(self) -> int:
        return sum(len(r) for r in self.records.values())


def jobs_inputs(seed: int, sizes: Sizes) -> JobsInputs:
    """Comet / Stampede2 / Stampede, full 2017, as sacct text."""
    sites = figure1_sites(scale=sizes.scale)
    conversion, _ = standardize_federation(
        {name: preset.resource for name, preset in sites.items()}
    )
    records: dict[str, list] = {}
    for name, preset in sorted(sites.items()):
        workload = dataclasses.replace(
            preset.workload, seed=preset.workload.seed + seed
        )
        records[name] = simulate_resource(
            preset.resource,
            WorkloadGenerator(workload).generate(YEAR_START, sizes.sim_end),
        )
    texts = {name: to_sacct_log(recs) for name, recs in records.items()}
    return JobsInputs(
        conversion, records, texts,
        {f"sacct_{name}": sha256_of(text) for name, text in texts.items()},
    )


def split_history(
    inputs: JobsInputs, sizes: Sizes
) -> tuple[dict[str, str], list[tuple[int, dict[str, str]]]]:
    """History before ``sizes.preload_until`` as one sacct text per site,
    and after it one ``(n_jobs, {site: sacct text})`` delta per
    ``sizes.delta_hours`` of 2017 in which any site finished a job."""
    cut, window_s = sizes.preload_until, sizes.delta_hours * SECONDS_PER_HOUR
    history: dict[str, str] = {}
    windows: dict[int, dict[str, list]] = {}
    for site, records in inputs.records.items():
        history[site] = to_sacct_log([r for r in records if r.end_ts < cut])
        for r in records:
            if cut <= r.end_ts < YEAR_END:
                windows.setdefault((r.end_ts - cut) // window_s, {}).setdefault(site, []).append(r)
    deltas = [
        (
            sum(len(recs) for recs in windows[w].values()),
            {site: to_sacct_log(recs) for site, recs in sorted(windows[w].items())},
        )
        for w in sorted(windows)
    ]
    return history, deltas


# -- cloud + storage realms: one CCR-style instance ----------------------------

@dataclass
class HeterogeneousInputs:
    cloud_main: list[dict[str, Any]]
    cloud_delta: list[dict[str, Any]]
    storage_main: list[dict[str, Any]]
    storage_delta: list[dict[str, Any]]
    sha256: dict[str, str]

    @property
    def n_records(self) -> int:
        return (
            len(self.cloud_main) + len(self.cloud_delta)
            + len(self.storage_main) + len(self.storage_delta)
        )


def heterogeneous_inputs(seed: int, sizes: Sizes) -> HeterogeneousInputs:
    """A year of cloud events and storage documents, split at the last
    week so the workload can re-ship a delta."""
    events = CloudSimulator(CloudConfig(
        resource="ccr_research_cloud", seed=77 + seed,
        vms_per_day=sizes.vms_per_day,
    )).generate(YEAR_START, YEAR_END)
    docs = list(StorageSimulator(StorageConfig(
        resource="ccr_storage", seed=77 + seed, n_users=sizes.storage_users,
    )).generate(YEAR_START, YEAR_END))
    cut = sizes.delta_from
    return HeterogeneousInputs(
        [e for e in events if e["ts"] < cut],
        [e for e in events if e["ts"] >= cut],
        [d for d in docs if d["ts"] < cut],
        [d for d in docs if d["ts"] >= cut],
        {"cloud_events": sha256_of(events), "storage_docs": sha256_of(docs)},
    )


# -- what people look at -------------------------------------------------------

def url_of(spec: ViewSpec) -> str:
    route = "/chart?" if spec.chart else "/query?"
    return route + urllib.parse.urlencode(spec.params())


def _jobs(metric: str, **kw: Any) -> ViewSpec:
    return ViewSpec("jobs", metric, YEAR_START, YEAR_END, **kw)


#: The portal's 16 standing charts.  The first three are registered as
#: materialized views (refreshed by the hub's post-aggregation hook); the
#: first one must stay the ungrouped monthly ``n_jobs_ended`` query — the
#: nightly workload reads freshness off its total.
JOBS_HOT: tuple[ViewSpec, ...] = (
    _jobs("n_jobs_ended"),
    _jobs("xdsu", group_by="resource", chart=True, top_n=3, title="Figure 1"),
    _jobs("cpu_hours", group_by="walltime_level", view="aggregate"),
    _jobs("cpu_hours", group_by="application", chart=True, top_n=10),
    _jobs("avg_wait_hours", group_by="queue", period="quarter"),
    _jobs("n_jobs_ended", group_by="resource", period="day", chart=True),
    _jobs("cpu_hours", group_by="resource"),
    _jobs("xdsu", group_by="pi", view="aggregate"),
    _jobs("node_hours", group_by="department"),
    _jobs("avg_job_size", group_by="application"),
    _jobs("avg_wall_hours", group_by="queue"),
    _jobs("n_jobs_started", group_by="resource", period="quarter"),
    _jobs("cpu_hours", period="year"),
    _jobs("wall_hours", group_by="jobsize_level", chart=True),
    _jobs("xdsu", group_by="science_field", chart=True, top_n=5),
    _jobs("avg_cpu_hours", group_by="person", view="aggregate", chart=True, top_n=10),
)
N_VIEWS = 3
#: What backfill and nightly read after each aggregation: the three views
#: plus three standing charts that are not pre-materialized.
JOBS_READS = JOBS_HOT[:6]

_TAIL_METRICS = ("cpu_hours", "n_jobs_ended", "xdsu", "wall_hours", "avg_wait_hours")
_TAIL_GROUPS = ("resource", "person", "pi", "application", "queue", "walltime_level")


def jobs_tail() -> list[ViewSpec]:
    """The long tail: 5 metrics x 6 group-bys x 78 month ranges = 2340
    distinct ``/query`` URLs, 4.5x the 512-entry query cache."""
    return [
        ViewSpec("jobs", metric, MONTH_STARTS[a], MONTH_STARTS[b], group_by=group)
        for metric in _TAIL_METRICS
        for group in _TAIL_GROUPS
        for a in range(12)
        for b in range(a + 1, 13)
    ]


def _het(realm: str, metric: str, **kw: Any) -> ViewSpec:
    return ViewSpec(realm, metric, YEAR_START, YEAR_END, **kw)


HETEROGENEOUS_READS: tuple[ViewSpec, ...] = (
    _het("storage", "logical_usage_tb", group_by="filesystem", chart=True),
    _het("storage", "file_count", group_by="resource_type"),
    _het("cloud", "core_hours", group_by="memory_level", chart=True, title="Figure 7"),
    _het("cloud", "n_vms_started", group_by="project", period="quarter"),
)


def heterogeneous_tail() -> list[ViewSpec]:
    """Month-range queries over both realms, for the read-path probes."""
    out = []
    for realm, metric, group in (
        ("cloud", "core_hours", "project"),
        ("cloud", "n_vms_running", "memory_level"),
        ("storage", "physical_usage_gb", "filesystem"),
        ("storage", "user_count", "resource_type"),
    ):
        for a in range(12):
            for b in range(a + 1, 13):
                out.append(ViewSpec(
                    realm, metric, MONTH_STARTS[a], MONTH_STARTS[b], group_by=group
                ))
    return out


# -- the portal's traffic ------------------------------------------------------

STATUS_URL = "/status"
METRICS_URL = "/metrics"


#: The mix repeats every 200 requests, so any window of that length holds
#: exactly 176 hot, 20 tail, 3 ``/metrics`` and 1 ``/status`` request.
MIX_PERIOD = 200
_MIX = {199: "status", 49: "metrics", 99: "metrics", 149: "metrics"}


def request_sequence(seed: int, n: int, n_hot: int, n_tail: int) -> list[tuple[str, int]]:
    """The fixed request mix as ``(kind, index)`` pairs: 88 % hot set,
    10 % long tail, 1.5 % ``/metrics``, 0.5 % ``/status``.  The kinds
    follow a fixed pattern (a ``/status`` costs as much as 140 cache hits,
    so its share must not vary between runs); the seed picks which hot
    and which tail URL each request asks for."""
    rng = random.Random(seed)
    out: list[tuple[str, int]] = []
    for i in range(n):
        slot = i % MIX_PERIOD
        if slot in _MIX:
            out.append((_MIX[slot], 0))
        elif slot % 20 in (4, 15):   # tails on even and odd positions alike
            out.append(("tail", rng.randrange(n_tail)))
        else:
            out.append(("hot", rng.randrange(n_hot)))
    return out
