"""Federation consistency checking.

"The federation hub does not alter the raw, replicated data from the
individual instances" — these checks make that claim falsifiable.  They
verify, for every member, **replication fidelity**: the hub copy holds
exactly what the member's filter selects of the satellite
(:meth:`ReplicationFilter.select`, the rows the channel ships by its
routing rule), compared both ways.  Each table the filter selects and
each non-derived table of the hub copy is compared by row count and
contents checksum; a table missing on either side fails.

Metric equivalence follows from table fidelity: a hub ``fact_job``
whose digest equals the satellite's selection holds the same jobs, so
the same job count, CPU hours and XD SUs.  The federation-wide totals
are the fan-in over the hub copies (:meth:`FederationCheck.federation_totals`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..warehouse import Database, Schema
from ..warehouse.engine import rows_checksum
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

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.tables)


def table_digest(schema: Schema, name: str) -> tuple[int, str] | None:
    """Row count and memoized checksum of table ``name``, if ``schema``
    holds it."""
    if not schema.has_table(name):
        return None
    table = schema.table(name)
    return len(table), table.checksum()


def compare_table(
    name: str, held: tuple[int, str] | None, have: tuple[int, str] | None
) -> TableCheck:
    """The one per-table comparison: the digest of what a copy should
    hold of table ``name`` against the copy's.  A table missing on either
    side (None) fails, with 0 rows on that side."""
    matched = held is not None and have is not None and held[1] == have[1]
    return TableCheck(name, held[0] if held else 0, have[0] if have else 0, matched)


def check_member(hub: FederationHub, member_name: str) -> MemberCheck:
    """Table-level fidelity check for one member, through its filter.

    Every table the member's filter selects of the satellite and every
    non-derived table of its hub copy is compared, so a table the copy
    lacks, or holds and should not, fails.  A table the filter does not
    route compares its memoized checksum.

    A member whose schema never replicated (e.g. its first loose shipment
    failed) yields an empty, non-failing check — the monitor reports it
    degraded through lag and circuit state instead of crashing here.
    """
    member = hub.member(member_name)
    if not hub.database.has_schema(member.fed_schema):
        return MemberCheck(member_name, ())
    copy = hub.database.schema(member.fed_schema)
    source, filter = member.instance.schema, member.filter
    held: dict[str, tuple[int, str] | None] = {}
    for name in source.table_names():
        rows = filter.select(source.table(name))
        if rows is None:
            continue
        if filter.routes(name):
            rows = list(rows)
            held[name] = len(rows), rows_checksum(rows)
        else:
            held[name] = table_digest(source, name)
    names = held.keys() | {
        name for name in copy.table_names() if not copy.table(name).schema.derived
    }
    return MemberCheck(member_name, tuple(
        compare_table(name, held.get(name), table_digest(copy, name))
        for name in sorted(names)
    ))


_NO_JOBS = {"n_jobs": 0.0, "cpu_hours": 0.0, "xdsu": 0.0}


#: hub copy -> ((schema serial, fact_job data_version), its totals)
_totals_memo: dict[str, tuple[tuple[int, int], dict[str, float]]] = {}


def _jobs_totals(database: Database, copy: str) -> dict[str, float]:
    """Additive jobs-realm totals of the hub copy ``copy``, from its
    cached ``fact_job`` columns; none while it holds no jobs.  They are
    kept per ``(schema serial, fact_job data_version)``, so a copy whose
    jobs did not change since the last check sums nothing."""
    if not (database.has_schema(copy) and database.schema(copy).has_table("fact_job")):
        return dict(_NO_JOBS)
    schema = database.schema(copy)
    fact = schema.table("fact_job")
    version = (schema.serial, fact.data_version)
    memo = _totals_memo.get(copy)
    if memo is None or memo[0] != version:
        columns = fact.column_arrays(("cpu_hours", "xdsu"))
        memo = _totals_memo[copy] = version, {
            "n_jobs": float(len(columns["cpu_hours"])),
            # Python's sequential sum in row order, not np.sum: the /status
            # totals stay bit-identical to a row-by-row fold
            "cpu_hours": sum(columns["cpu_hours"].tolist(), 0.0),
            "xdsu": sum(columns["xdsu"].tolist(), 0.0),
        }
    return dict(memo[1])


@dataclass(frozen=True)
class FederationCheck:
    members: tuple[MemberCheck, ...]
    hub_totals: Mapping[str, Mapping[str, float]]

    @property
    def ok(self) -> bool:
        return all(m.ok for m in self.members)

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
    Tables are compared through each member's filter, so a routed member
    is verified like any other.
    """
    members = hub.members
    result = FederationCheck(
        tuple(check_member(hub, m.name) for m in members),
        {m.name: _jobs_totals(hub.database, m.fed_schema) for m in members},
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
