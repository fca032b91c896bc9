"""Realm abstractions: metrics, dimensions, and the query engine.

"The metrics collected by XDMoD are assembled into groups called realms,
based on the type of information they measure."  A :class:`Realm` binds a
set of :class:`Metric` definitions (computed from that realm's aggregate
tables) and :class:`DimensionSpec` definitions (the group-by / drill-down
axes).  The same realm object serves a single XDMoD instance (one schema)
or a federation hub (one replicated schema per member): pass multiple
sources and results combine correctly — ratios are combined from summed
numerators/denominators, never averaged averages.

Results come back as a :class:`RealmResult` supporting both of XDMoD's
views: *timeseries* (one value per period per group) and *aggregate* (one
value per group over the whole range).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..aggregation import group_reduce
from ..core.identity import IdentityMap, qualified_identity
from ..timeutil import PERIODS, period_label
from ..warehouse import ColumnType, Schema, Table


class RealmQueryError(ValueError):
    """A realm query referenced an unknown metric/dimension or bad range."""


@dataclass(frozen=True)
class Metric:
    """One chartable statistic.

    ``numerator`` is the aggregate-table column summed over matching rows;
    a ``denominator`` makes the metric a ratio (sums combined before the
    division, so federation-wide ratios are exact).  ``scale`` converts
    units for display (e.g. GB -> TB).
    """

    name: str
    label: str
    unit: str
    numerator: str
    denominator: str | None = None
    scale: float = 1.0

    def value(self, num: float, den: float) -> float | None:
        if self.denominator is None:
            return num * self.scale
        if den == 0:
            return None
        return (num / den) * self.scale


@dataclass(frozen=True)
class DimensionSpec:
    """One group-by / drill-down axis.

    ``column`` is the aggregate-table column holding the raw group value;
    ``dim_table`` + ``dim_key`` + ``dim_label`` resolve surrogate ids to
    display labels within the *same* schema (star join).  Level dimensions
    (wall-time bins, VM memory bins) carry their label directly.
    ``qualify`` marks person-like dimensions whose labels must be
    namespaced per instance on a federation hub (Section II-D4: without
    identity mapping, the same human appears once per instance).
    """

    name: str
    label: str
    column: str
    dim_table: str | None = None
    dim_key: str | None = None
    dim_label: str | None = None
    qualify: bool = False


@dataclass
class ResultRow:
    """One output cell."""

    group: str
    period_start: int | None
    period_label: str | None
    value: float | None


@dataclass
class RealmResult:
    """Query output with chart-friendly accessors."""

    metric: Metric
    dimension: str | None
    rows: list[ResultRow] = field(default_factory=list)

    def series(self) -> dict[str, list[tuple[str, float | None]]]:
        """group -> ordered [(period_label, value)] — timeseries view."""
        out: dict[str, list[tuple[str, float | None]]] = {}
        ordered = sorted(
            self.rows, key=lambda r: (r.period_start or 0, r.group)
        )
        for row in ordered:
            out.setdefault(row.group, []).append((row.period_label or "", row.value))
        return out

    def totals(self) -> dict[str, float]:
        """group -> summed value (ratio metrics: value over whole range)."""
        out: dict[str, float] = {}
        for row in self.rows:
            if row.value is not None:
                out[row.group] = out.get(row.group, 0.0) + row.value
        return out

    def top(self, n: int) -> list[tuple[str, float]]:
        """Top-n groups by total (how Figure 1 ranks resources)."""
        return sorted(self.totals().items(), key=lambda kv: -kv[1])[:n]

    def groups(self) -> list[str]:
        return sorted({r.group for r in self.rows})


class Realm:
    """A named metric family over one aggregate-table prefix."""

    #: overall group label when no dimension is requested
    TOTAL = "total"

    def __init__(
        self,
        name: str,
        agg_prefix: str,
        metrics: Sequence[Metric],
        dimensions: Sequence[DimensionSpec],
    ) -> None:
        self.name = name
        self.agg_prefix = agg_prefix
        self.metrics: dict[str, Metric] = {m.name: m for m in metrics}
        self.dimensions: dict[str, DimensionSpec] = {d.name: d for d in dimensions}

    # -- catalog -----------------------------------------------------------

    def metric(self, name: str) -> Metric:
        try:
            return self.metrics[name]
        except KeyError:
            raise RealmQueryError(
                f"realm {self.name!r}: unknown metric {name!r} "
                f"(have {sorted(self.metrics)})"
            ) from None

    def dimension(self, name: str) -> DimensionSpec:
        try:
            return self.dimensions[name]
        except KeyError:
            raise RealmQueryError(
                f"realm {self.name!r}: unknown dimension {name!r} "
                f"(have {sorted(self.dimensions)})"
            ) from None

    # -- the query ------------------------------------------------------------

    def query(
        self,
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
        """Aggregate-table query across one or many schemas.

        ``filters`` maps dimension name -> allowed labels (XDMoD's filter
        UI).  ``view`` is ``"timeseries"`` (per period) or ``"aggregate"``
        (whole range).

        Each source's ``agg_<realm>_<period>`` table is read through its
        cached column arrays; group labels share one code space across
        sources (two ids with one label form one group), and
        :func:`repro.aggregation.group_reduce` sums numerator and
        denominator over ``(group, period_start)``.  NULL adds nothing.
        """
        if end <= start:
            raise RealmQueryError(f"empty time range [{start}, {end})")
        if view not in ("timeseries", "aggregate"):
            raise RealmQueryError(f"unknown view {view!r}")
        if period not in PERIODS:
            raise RealmQueryError(f"unknown period {period!r} (have {list(PERIODS)})")
        m = self.metric(metric)
        gspec = self.dimension(group_by) if group_by else None
        fspecs = [
            (self.dimension(name), set(labels))
            for name, labels in (filters or {}).items()
        ]
        if isinstance(sources, Schema):
            sources = {"local": sources}
        timeseries = view == "timeseries"
        # on a hub, person-like labels are namespaced per instance
        resolve = idmap.resolve if idmap is not None else qualified_identity
        many = len(sources) > 1
        table_name = f"{self.agg_prefix}_{period}"
        measures = [m.numerator] + ([m.denominator] if m.denominator else [])
        dims = [spec for spec, _ in fspecs] + ([gspec] if gspec else [])
        columns = ["period_start", *measures, *(spec.column for spec in dims)]

        group_code: dict[str, int] = {}  # label -> code, shared by all sources
        chunks: list[list[np.ndarray]] = []  # per source: group, period, *measures
        for instance, schema in sources.items():
            if not schema.has_table(table_name):
                continue
            table = schema.table(table_name)
            cols = table.column_arrays(columns)
            qualify = partial(resolve, instance) if many else None
            p_start = cols["period_start"]
            rows = np.flatnonzero((p_start >= start) & (p_start < end))
            for spec, allowed in fspecs:
                labels, index = _labels(spec, schema, table, cols[spec.column][rows], qualify)
                keep = np.array([lb in allowed for lb in labels], dtype=bool)
                rows = rows[keep[index]]
            if gspec:
                labels, index = _labels(gspec, schema, table, cols[gspec.column][rows], qualify)
                codes = [group_code.setdefault(lb, len(group_code)) for lb in labels]
                group = np.array(codes, dtype=np.intp)[index]
            else:
                group = np.full(len(rows), group_code.setdefault(self.TOTAL, 0))
            period_key = p_start[rows] if timeseries else np.zeros_like(rows)
            chunks.append([group, period_key, *(cols[name][rows] for name in measures)])

        result = RealmResult(metric=m, dimension=group_by)
        if not chunks:
            return result
        group, p_start, *values = (np.concatenate(c) for c in zip(*chunks))
        # codes follow first appearance; result rows come in label order
        labels = sorted(group_code)
        rank = np.empty(len(labels), dtype=np.intp)
        rank[[group_code[lb] for lb in labels]] = np.arange(len(labels))
        (group, p_start), sums = group_reduce(
            [rank[group], p_start],
            {name: np.where(np.isnan(v), 0.0, v) for name, v in zip(measures, values)},
        )
        p_labels = {p: period_label(period, p) for p in set(p_start.tolist())}
        num = sums[m.numerator].tolist()
        # a plain sum never looks at its denominator
        den = sums[m.denominator].tolist() if m.denominator else num
        for g, p, n, d in zip(group.tolist(), p_start.tolist(), num, den):
            result.rows.append(
                ResultRow(
                    group=labels[g],
                    period_start=p if timeseries else None,
                    period_label=p_labels[p] if timeseries else None,
                    value=m.value(n, d),
                )
            )
        return result


def _labels(
    spec: DimensionSpec,
    schema: Schema,
    table: Table,
    values: np.ndarray,
    qualify: Callable[[str], str] | None,
) -> tuple[list[str], np.ndarray]:
    """Display labels of the distinct entries of ``values`` — a slice of
    ``spec``'s column of the aggregate ``table`` — and each entry's index
    into them; only the distinct values are labelled."""
    distinct: dict[Any, int] = {}  # stored value -> index, in order of appearance
    stored = _stored_values(table, spec.column, values)
    index = np.fromiter(
        (distinct.setdefault(v, len(distinct)) for v in stored),
        dtype=np.intp, count=len(stored),
    )
    if spec.dim_table is None:
        return [str(v) for v in distinct], index
    dim = schema.table(spec.dim_table)
    arrays = dim.column_arrays([spec.dim_key, spec.dim_label])
    mapping = dict(zip(
        _stored_values(dim, spec.dim_key, arrays[spec.dim_key]),
        _stored_values(dim, spec.dim_label, arrays[spec.dim_label]),
    ))
    if spec.qualify and qualify:
        return [qualify(mapping.get(v, str(v))) for v in distinct], index
    return [str(mapping.get(v, v)) for v in distinct], index


def _stored_values(table: Table, column: str, array: np.ndarray) -> list[Any]:
    """Entries of an array of ``table.column`` as the warehouse stores them
    (the inverse of :meth:`Table.column_array`'s dtype mapping): NaN is
    ``None`` again, and an INT/TIMESTAMP column that came back as floats
    because it holds NULLs is ints again."""
    values = array.tolist()
    if array.dtype != np.float64:
        return values
    stored = float if table.schema.column(column).ctype is ColumnType.FLOAT else int
    return [None if v != v else stored(v) for v in values]

