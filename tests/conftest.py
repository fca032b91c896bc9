"""Shared fixtures: small synthetic instances and federations.

Scale is kept small (days of workload, handfuls of users) so the whole
suite runs in seconds; the benchmarks exercise year-scale data.

The ``soak`` hypothesis profile runs the property tests that read
:func:`property_settings` (fold == rebuild, batch writes, the column
cache) at 400 examples each: ``pytest --hypothesis-profile=soak``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.core import FederationHub, XdmodInstance, standardize_federation
from repro.simulators import CloudConfig, CloudSimulator, ResourceSpec, StorageConfig, StorageSimulator, WorkloadConfig, WorkloadGenerator, simulate_resource, to_sacct_log
from repro.timeutil import ts

T0 = ts(2017, 1, 1)
T_FEB = ts(2017, 2, 1)
T_MAR = ts(2017, 3, 1)
T_END = ts(2018, 1, 1)

settings.register_profile(
    "soak", max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def property_settings(max_examples: int) -> settings:
    """A property test's settings: ``max_examples`` examples, or the soak
    profile's when that profile is loaded."""
    if settings.default is settings.get_profile("soak"):
        return settings.default
    return settings(
        max_examples=max_examples, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@pytest.fixture(scope="session")
def small_resource() -> ResourceSpec:
    return ResourceSpec(
        "testcluster", nodes=16, cores_per_node=16,
        mem_per_node_gb=64.0, gflops_per_core=16.0,
    )


@pytest.fixture(scope="session")
def job_records(small_resource):
    """~2 weeks of scheduled jobs on the small resource."""
    config = WorkloadConfig(
        seed=7, jobs_per_day=15.0, max_cores=small_resource.total_cores
    )
    requests = WorkloadGenerator(config).generate(T0, T0 + 14 * 86400)
    return simulate_resource(small_resource, requests)


@pytest.fixture(scope="session")
def sacct_log(job_records):
    return to_sacct_log(job_records)


@pytest.fixture()
def instance(small_resource, sacct_log):
    """A fresh single-resource XDMoD instance with jobs ingested."""
    from repro.simulators import ConversionTable

    conversion = ConversionTable.benchmark_resources(
        {small_resource.name: small_resource}
    )
    inst = XdmodInstance("test_instance", conversion=conversion)
    inst.pipeline.ingest_sacct(sacct_log, default_resource=small_resource.name)
    return inst


@pytest.fixture()
def aggregated_instance(instance):
    instance.aggregate(["day", "month"])
    return instance


@pytest.fixture()
def cloud_events():
    return CloudSimulator(CloudConfig(seed=5, vms_per_day=4.0)).generate(
        T0, T_MAR
    )


@pytest.fixture()
def storage_docs():
    return list(
        StorageSimulator(StorageConfig(seed=5, n_users=8)).generate(T0, T_MAR)
    )


def build_two_site_federation(*, mode_b: str = "tight"):
    """Two satellites with distinct resources joined to one hub."""
    specs = {
        "alpha_cluster": ResourceSpec("alpha_cluster", 8, 16, 64, 20.0),
        "beta_cluster": ResourceSpec("beta_cluster", 16, 8, 128, 10.0),
    }
    conversion, _ = standardize_federation(specs)
    satellites = {}
    for i, (res_name, spec) in enumerate(sorted(specs.items())):
        inst = XdmodInstance(f"site{i}", conversion=conversion)
        config = WorkloadConfig(
            seed=20 + i, jobs_per_day=10.0, max_cores=spec.total_cores
        )
        records = simulate_resource(
            spec, WorkloadGenerator(config).generate(T0, T0 + 10 * 86400)
        )
        inst.pipeline.ingest_sacct(
            to_sacct_log(records), default_resource=res_name
        )
        satellites[inst.name] = inst
    hub = FederationHub("hub", conversion=conversion)
    hub.join(satellites["site0"], mode="tight")
    hub.join(satellites["site1"], mode=mode_b)
    return hub, satellites, specs, conversion


@pytest.fixture()
def federation():
    return build_two_site_federation()


@pytest.fixture()
def lock_sanitizer():
    """Activate the runtime lock sanitizer for one test.

    Every lock constructed through ``create_lock`` while the fixture is
    live becomes a :class:`~repro.analysis.sanitizer.SanitizedLock`; the
    teardown fails the test on any observed lock-order inversion, so a
    test only has to *exercise* a code path to gate it.
    """
    from repro.analysis import sanitizer

    monitor = sanitizer.activate(sanitizer.LockMonitor())
    try:
        yield monitor
    finally:
        sanitizer.deactivate()
    if monitor.inversions:
        pytest.fail(
            "lock-order inversion detected by the runtime sanitizer:\n"
            + monitor.report()
        )
