"""Application Kernels: proactive QoS probes.

"The Application Kernel module enables quality-of-service monitoring for
HPC resources" — small, fixed benchmark jobs run on a schedule at several
core counts; their performance history establishes a baseline, and
deviations flag resource degradation (Simakov et al., CPE 2015).

The runner here synthesizes those periodic executions against a
:class:`~repro.simulators.cluster.ResourceSpec`, with injectable
degradation windows so the QoS detector (:mod:`repro.appkernels.qos`) has
real anomalies to find.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from ..simulators.cluster import ResourceSpec
from ..timeutil import SECONDS_PER_DAY
from ..warehouse import ColumnType, Schema, TableSchema, make_columns

C = ColumnType


@dataclass(frozen=True)
class AppKernelSpec:
    """One QoS benchmark application."""

    name: str
    core_counts: tuple[int, ...]
    #: nominal runtime seconds on the reference core count
    nominal_runtime_s: float
    #: parallel efficiency exponent: runtime ~ nominal * (ref/cores)^alpha
    scaling_alpha: float = 0.9
    #: run-to-run noise (relative std dev)
    noise: float = 0.03


DEFAULT_KERNELS: tuple[AppKernelSpec, ...] = (
    AppKernelSpec("nwchem", (8, 16, 32), 1800.0),
    AppKernelSpec("namd", (16, 32, 64), 1200.0),
    AppKernelSpec("hpcc", (8, 16, 32, 64), 900.0),
    AppKernelSpec("ior", (8, 16), 600.0, scaling_alpha=0.3, noise=0.08),
    AppKernelSpec("graph500", (16, 32), 1500.0, scaling_alpha=0.6),
)


@dataclass(frozen=True)
class Degradation:
    """An injected performance problem on a resource."""

    start_ts: int
    end_ts: int
    #: multiplier on runtime while active (1.3 == 30% slowdown)
    slowdown: float
    #: which kernels notice it (I/O problems only hit I/O kernels); empty
    #: tuple means all kernels are affected
    kernels: tuple[str, ...] = ()

    def affects(self, kernel: str, ts: int) -> bool:
        if not (self.start_ts <= ts < self.end_ts):
            return False
        return not self.kernels or kernel in self.kernels


@dataclass(frozen=True)
class AppKernelResult:
    """One kernel execution record."""

    ts: int
    resource: str
    kernel: str
    cores: int
    runtime_s: float
    succeeded: bool


def appkernel_table_schema() -> TableSchema:
    return TableSchema(
        "fact_appkernel",
        make_columns([
            ("run_id", C.INT, False),
            ("ts", C.TIMESTAMP, False),
            ("resource", C.STR, False),
            ("kernel", C.STR, False),
            ("cores", C.INT, False),
            ("runtime_s", C.FLOAT, False),
            ("succeeded", C.BOOL, False),
        ]),
        primary_key=("run_id",),
    )


class AppKernelRunner:
    """Schedules and 'executes' app kernels over a time window."""

    def __init__(
        self,
        resource: ResourceSpec,
        *,
        kernels: Sequence[AppKernelSpec] = DEFAULT_KERNELS,
        interval_s: int = SECONDS_PER_DAY,
        seed: int = 0,
        failure_rate: float = 0.01,
    ) -> None:
        self.resource = resource
        self.kernels = tuple(kernels)
        self.interval_s = interval_s
        self.failure_rate = failure_rate
        self._rng = np.random.default_rng(seed)
        self.degradations: list[Degradation] = []

    def inject(self, degradation: Degradation) -> None:
        self.degradations.append(degradation)

    def _runtime(self, spec: AppKernelSpec, cores: int, ts: int) -> float:
        ref = spec.core_counts[0]
        runtime = spec.nominal_runtime_s * (ref / cores) ** spec.scaling_alpha
        # per-core speed of the resource scales the baseline
        runtime *= 16.0 / max(self.resource.gflops_per_core, 0.1)
        for degradation in self.degradations:
            if degradation.affects(spec.name, ts):
                runtime *= degradation.slowdown
        runtime *= float(self._rng.lognormal(0.0, spec.noise))
        return runtime

    def run(self, start_ts: int, end_ts: int) -> list[AppKernelResult]:
        """Execute every kernel at every core count on the cadence."""
        out: list[AppKernelResult] = []
        t = start_ts
        while t < end_ts:
            for spec in self.kernels:
                for cores in spec.core_counts:
                    succeeded = bool(self._rng.random() >= self.failure_rate)
                    out.append(
                        AppKernelResult(
                            ts=t,
                            resource=self.resource.name,
                            kernel=spec.name,
                            cores=cores,
                            runtime_s=(
                                self._runtime(spec, cores, t) if succeeded else 0.0
                            ),
                            succeeded=succeeded,
                        )
                    )
            t += self.interval_s
        return out


def ingest_appkernels(schema: Schema, results: Iterable[AppKernelResult]) -> int:
    """Store execution records in the warehouse.

    One batch, validated whole; run ids follow the largest stored one, so
    a stored run is never overwritten.  Returns the number stored."""
    if not schema.has_table("fact_appkernel"):
        schema.create_table(appkernel_table_schema())
    table = schema.table("fact_appkernel")
    results = list(results)
    first_id = int(table.column_array("run_id").max(initial=0)) + 1
    return table.upsert_columns({
        "run_id": range(first_id, first_id + len(results)),
        **{
            f.name: [getattr(r, f.name) for r in results]
            for f in fields(AppKernelResult)
        },
    })
