"""Metric standardization across a federation (Section II-C6).

"In order to make a federation of XDMoD instances useful and meaningful,
the metrics being reported must be standardized by including
benchmarking-based conversions."  XSEDE's answer is the XD SU: every
resource's CPU-hour is scaled by an HPL-derived conversion factor.

:func:`standardize_federation` builds one :class:`ConversionTable` from
synthetic HPL runs on every resource of every federation member, and
:func:`standardization_report` audits a federation for unstandardized
resources — the paper's warning that comparing raw CPU-hours across
differently-provisioned systems is not a fair comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..simulators.cluster import ResourceSpec
from ..simulators.hpl import ConversionTable, HplResult, run_hpl


@dataclass(frozen=True)
class StandardizationReport:
    """Audit of which federated resources carry conversion factors."""

    standardized: tuple[str, ...]
    unstandardized: tuple[str, ...]

    @property
    def is_fully_standardized(self) -> bool:
        return not self.unstandardized


def standardize_federation(
    resources: Mapping[str, ResourceSpec], *, seed: int = 0
) -> tuple[ConversionTable, dict[str, HplResult]]:
    """Benchmark every resource and derive the federation-wide table.

    Returns the conversion table plus the raw HPL results (sites keep these
    for audit).  Deterministic given ``seed``.
    """
    results = {
        name: run_hpl(spec, seed=seed + i)
        for i, (name, spec) in enumerate(sorted(resources.items()))
    }
    return ConversionTable.from_benchmarks(results), results


def standardization_report(
    conversion: ConversionTable, resource_names: Iterable[str]
) -> StandardizationReport:
    """Check a set of federated resources against the conversion table."""
    standardized = []
    unstandardized = []
    for name in sorted(set(resource_names)):
        if conversion.is_standardized(name):
            standardized.append(name)
        else:
            unstandardized.append(name)
    return StandardizationReport(tuple(standardized), tuple(unstandardized))


def federation_resource_names(hub) -> list[str]:
    """All resource names present in a hub's replicated schemas."""
    names: set[str] = set()
    for schema in hub.federated_schemas().values():
        if schema.has_table("dim_resource"):
            names.update(schema.table("dim_resource").column_values("name"))
    return sorted(names)
