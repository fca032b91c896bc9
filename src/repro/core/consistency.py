"""Federation consistency checking.

"The federation hub does not alter the raw, replicated data from the
individual instances" — these checks make that claim falsifiable.  They
verify, for every member:

1. **replication fidelity** — each replicated table's contents checksum
   equals the satellite's (modulo the channel's configured filtering);
2. **metric equivalence** — additive jobs-realm totals (job count, CPU
   hours, XD SUs) on the hub equal the satellite's totals; and federation-
   wide totals equal the sum over members (the fan-in equivalence
   invariant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..warehouse import Schema
from .errors import ConsistencyError
from .federation import FederationHub


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
    filtered: bool  # channel filters rows; count mismatch may be expected

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.tables)


def _jobs_totals(schema: Schema) -> dict[str, float]:
    if not schema.has_table("fact_job"):
        return {"n_jobs": 0.0, "cpu_hours": 0.0, "xdsu": 0.0}
    fact = schema.table("fact_job")
    return {
        "n_jobs": float(len(fact)),
        # Python's sequential sum, not np.sum: the /status totals stay
        # bit-identical to a row-by-row fold
        "cpu_hours": sum(fact.column_values("cpu_hours"), 0.0),
        "xdsu": sum(fact.column_values("xdsu"), 0.0),
    }


def check_member(hub: FederationHub, member_name: str) -> MemberCheck:
    """Table-level fidelity check for one member.

    A member whose schema never replicated (e.g. its first loose shipment
    failed) yields an empty, non-failing check — the monitor reports it
    degraded through lag and circuit state instead of crashing here.
    """
    member = hub.member(member_name)
    satellite = member.instance.schema
    if not hub.database.has_schema(member.fed_schema):
        return MemberCheck(member_name, (), False)
    hub_schema = hub.database.schema(member.fed_schema)
    routing = member.filter
    filtered = bool(
        routing.exclude_resources or routing.include_resources is not None
    )
    checks: list[TableCheck] = []
    for table_name in hub_schema.table_names():
        if not satellite.has_table(table_name):
            continue
        sat_table = satellite.table(table_name)
        hub_table = hub_schema.table(table_name)
        checks.append(
            TableCheck(
                table=table_name,
                satellite_rows=len(sat_table),
                hub_rows=len(hub_table),
                checksums_match=sat_table.checksum() == hub_table.checksum(),
            )
        )
    return MemberCheck(member_name, tuple(checks), filtered)


@dataclass(frozen=True)
class FederationCheck:
    members: tuple[MemberCheck, ...]
    satellite_totals: Mapping[str, Mapping[str, float]]
    hub_totals: Mapping[str, Mapping[str, float]]

    @property
    def ok(self) -> bool:
        if not all(m.ok for m in self.members if not m.filtered):
            return False
        for name, sat in self.satellite_totals.items():
            hub = self.hub_totals.get(name, {})
            for metric, value in sat.items():
                if abs(hub.get(metric, 0.0) - value) > 1e-6 * max(1.0, abs(value)):
                    return False
        return True

    def federation_totals(self) -> dict[str, float]:
        """Fan-in totals over all members' hub-side data."""
        out: dict[str, float] = {"n_jobs": 0.0, "cpu_hours": 0.0, "xdsu": 0.0}
        for totals in self.hub_totals.values():
            for metric, value in totals.items():
                out[metric] += value
        return out


def check_federation(
    hub: FederationHub, *, strict: bool = False
) -> FederationCheck:
    """Run all consistency checks across the federation.

    With ``strict=True`` a failed unfiltered-member check raises
    :class:`ConsistencyError`.  Members with routing filters are verified
    on totals only when their filters are empty; otherwise their table
    checks are informational (``filtered`` flag set).
    """
    member_checks = []
    satellite_totals: dict[str, dict[str, float]] = {}
    hub_totals: dict[str, dict[str, float]] = {}
    for member in hub.members:
        check = check_member(hub, member.name)
        member_checks.append(check)
        if not hub.database.has_schema(member.fed_schema):
            hub_totals[member.name] = {
                "n_jobs": 0.0, "cpu_hours": 0.0, "xdsu": 0.0,
            }
            continue
        if not check.filtered:
            satellite_totals[member.name] = _jobs_totals(member.instance.schema)
        hub_totals[member.name] = _jobs_totals(
            hub.database.schema(member.fed_schema)
        )
    result = FederationCheck(
        tuple(member_checks), satellite_totals, hub_totals
    )
    if strict and not result.ok:
        failing = [
            f"{m.member}:{t.table}"
            for m in result.members
            if not m.filtered
            for t in m.tables
            if not t.ok
        ]
        raise ConsistencyError(f"federation consistency failed: {failing}")
    return result
