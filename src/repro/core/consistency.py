"""Federation consistency checking.

"The federation hub does not alter the raw, replicated data from the
individual instances" — these checks make that claim falsifiable.  They
verify, for every member:

1. **replication fidelity** — each replicated table's contents checksum
   equals the satellite's seen through the member's filter, which routes
   rows by the rule its channel ships them by;
2. **metric equivalence** — additive jobs-realm totals (job count, CPU
   hours, XD SUs) on the hub equal the satellite's totals; and federation-
   wide totals equal the sum over members (the fan-in equivalence
   invariant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..warehouse import Schema, Table
from ..warehouse.engine import rows_checksum
from .errors import ConsistencyError
from .federation import FederationHub
from .replicator import ReplicationFilter


@dataclass(frozen=True)
class TableCheck:
    table: str
    satellite_rows: int
    hub_rows: int
    checksums_match: bool

    @property
    def ok(self) -> bool:
        return self.checksums_match and self.satellite_rows == self.hub_rows


@dataclass(frozen=True)
class MemberCheck:
    member: str
    tables: tuple[TableCheck, ...]

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.tables)


def _seen(table: Table, routing: ReplicationFilter) -> tuple[int, str]:
    """Row count and checksum of ``table`` seen through ``routing``; a
    table whose rows the filter does not route keeps its memoized digest."""
    if not routing.routes(table.name):
        return len(table), table.checksum()
    rows = list(routing.rows(table))
    return len(rows), rows_checksum(rows)


_NO_JOBS = {"n_jobs": 0.0, "cpu_hours": 0.0, "xdsu": 0.0}


def _jobs_totals(schema: Schema, routing: ReplicationFilter) -> dict[str, float]:
    if not schema.has_table("fact_job"):
        return dict(_NO_JOBS)
    fact = schema.table("fact_job")
    rows = list(routing.rows(fact))
    cpu_hours, xdsu = fact.schema.position("cpu_hours"), fact.schema.position("xdsu")
    return {
        "n_jobs": float(len(rows)),
        # Python's sequential sum, not np.sum: the /status totals stay
        # bit-identical to a row-by-row fold
        "cpu_hours": sum((row[cpu_hours] for row in rows), 0.0),
        "xdsu": sum((row[xdsu] for row in rows), 0.0),
    }


def check_member(hub: FederationHub, member_name: str) -> MemberCheck:
    """Table-level fidelity check for one member, through its filter.

    Each hub table is compared with the satellite's seen through the
    member's filter: what the channel ships of it.

    A member whose schema never replicated (e.g. its first loose shipment
    failed) yields an empty, non-failing check — the monitor reports it
    degraded through lag and circuit state instead of crashing here.
    """
    member = hub.member(member_name)
    satellite = member.instance.schema
    if not hub.database.has_schema(member.fed_schema):
        return MemberCheck(member_name, ())
    hub_schema = hub.database.schema(member.fed_schema)
    checks: list[TableCheck] = []
    for table_name in hub_schema.table_names():
        if not satellite.has_table(table_name):
            continue
        sat_rows, sat_checksum = _seen(satellite.table(table_name), member.filter)
        hub_table = hub_schema.table(table_name)
        checks.append(
            TableCheck(
                table=table_name,
                satellite_rows=sat_rows,
                hub_rows=len(hub_table),
                checksums_match=sat_checksum == hub_table.checksum(),
            )
        )
    return MemberCheck(member_name, tuple(checks))


@dataclass(frozen=True)
class FederationCheck:
    members: tuple[MemberCheck, ...]
    satellite_totals: Mapping[str, Mapping[str, float]]
    hub_totals: Mapping[str, Mapping[str, float]]

    @property
    def ok(self) -> bool:
        if not all(m.ok for m in self.members):
            return False
        for name, sat in self.satellite_totals.items():
            hub = self.hub_totals.get(name, {})
            for metric, value in sat.items():
                if abs(hub.get(metric, 0.0) - value) > 1e-6 * max(1.0, abs(value)):
                    return False
        return True

    def federation_totals(self) -> dict[str, float]:
        """Fan-in totals over all members' hub-side data."""
        out: dict[str, float] = dict(_NO_JOBS)
        for totals in self.hub_totals.values():
            for metric, value in totals.items():
                out[metric] += value
        return out


def check_federation(
    hub: FederationHub, *, strict: bool = False
) -> FederationCheck:
    """Run all consistency checks across the federation.

    With ``strict=True`` a failed check raises :class:`ConsistencyError`.
    Tables and totals are compared through each member's filter, so a
    routed member is verified like any other.
    """
    member_checks = []
    satellite_totals: dict[str, dict[str, float]] = {}
    hub_totals: dict[str, dict[str, float]] = {}
    for member in hub.members:
        member_checks.append(check_member(hub, member.name))
        if not hub.database.has_schema(member.fed_schema):
            hub_totals[member.name] = dict(_NO_JOBS)
            continue
        satellite_totals[member.name] = _jobs_totals(
            member.instance.schema, member.filter
        )
        hub_totals[member.name] = _jobs_totals(
            hub.database.schema(member.fed_schema), member.filter
        )
    result = FederationCheck(
        tuple(member_checks), satellite_totals, hub_totals
    )
    if strict and not result.ok:
        failing = [
            f"{m.member}:{t.table}"
            for m in result.members
            for t in m.tables
            if not t.ok
        ]
        raise ConsistencyError(f"federation consistency failed: {failing}")
    return result
