"""Row-at-a-time reference for :meth:`repro.realms.base.Realm.query`.

This is the per-row loop over ``Table.rows()`` dicts that served every
``/query`` and ``/chart`` before the read path moved onto the columnar
group-by kernel.  It stays here, unchanged in behaviour, as the oracle
``tests/test_realms_jobs.py`` compares the kernel path against.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from repro.core.identity import IdentityMap, qualified_identity
from repro.realms.base import (
    DimensionSpec,
    Realm,
    RealmQueryError,
    RealmResult,
    ResultRow,
)
from repro.warehouse import Schema


def _labeler(
    spec: DimensionSpec,
    schema: Schema,
    instance: str,
    *,
    many_sources: bool,
    idmap: IdentityMap | None,
) -> Callable[[Any], str]:
    if spec.dim_table is None:
        return lambda v: str(v)
    table = schema.table(spec.dim_table)
    mapping = {row[spec.dim_key]: row[spec.dim_label] for row in table.rows()}
    if spec.qualify and many_sources:
        if idmap is not None:
            return lambda v: idmap.resolve(instance, mapping.get(v, str(v)))
        return lambda v: qualified_identity(instance, mapping.get(v, str(v)))
    return lambda v: str(mapping.get(v, v))


def oracle_query(
    realm: Realm,
    sources: Schema | Mapping[str, Schema],
    metric: str,
    *,
    start: int,
    end: int,
    period: str = "month",
    group_by: str | None = None,
    filters: Mapping[str, Iterable[str]] | None = None,
    view: str = "timeseries",
    idmap: IdentityMap | None = None,
) -> RealmResult:
    if end <= start:
        raise RealmQueryError(f"empty time range [{start}, {end})")
    if view not in ("timeseries", "aggregate"):
        raise RealmQueryError(f"unknown view {view!r}")
    m = realm.metric(metric)
    gspec = realm.dimension(group_by) if group_by else None
    fspecs = {
        name: (realm.dimension(name), set(labels))
        for name, labels in (filters or {}).items()
    }
    if isinstance(sources, Schema):
        sources = {"local": sources}
    many = len(sources) > 1
    table_name = f"{realm.agg_prefix}_{period}"

    # (group, period) -> [num, den]
    acc: dict[tuple[str, int, str], list[float]] = {}
    for instance, schema in sources.items():
        if not schema.has_table(table_name):
            continue
        glabel = (
            _labeler(gspec, schema, instance, many_sources=many, idmap=idmap)
            if gspec
            else None
        )
        flabelers = {
            name: _labeler(spec, schema, instance, many_sources=many, idmap=idmap)
            for name, (spec, _) in fspecs.items()
        }
        for row in schema.table(table_name).rows():
            if not (start <= row["period_start"] < end):
                continue
            skip = False
            for name, (spec, allowed) in fspecs.items():
                if flabelers[name](row[spec.column]) not in allowed:
                    skip = True
                    break
            if skip:
                continue
            group = glabel(row[gspec.column]) if gspec else realm.TOTAL
            if view == "timeseries":
                key = (group, row["period_start"], row["period_label"])
            else:
                key = (group, 0, "")
            entry = acc.setdefault(key, [0.0, 0.0])
            entry[0] += row[m.numerator] or 0
            if m.denominator is not None:
                entry[1] += row[m.denominator] or 0

    result = RealmResult(metric=m, dimension=group_by)
    for (group, p_start, p_label) in sorted(acc):
        num, den = acc[(group, p_start, p_label)]
        result.rows.append(
            ResultRow(
                group=group,
                period_start=p_start if view == "timeseries" else None,
                period_label=p_label if view == "timeseries" else None,
                value=m.value(num, den),
            )
        )
    return result
