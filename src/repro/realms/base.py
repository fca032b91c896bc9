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
    """Query output with chart-friendly accessors.

    ``rows`` come in ``(group, period_start)`` order, one row per pair
    (how :meth:`Realm.query` reduces them); the accessors rely on it."""

    metric: Metric
    dimension: str | None
    rows: list[ResultRow] = field(default_factory=list)

    def series(self) -> dict[str, list[tuple[str, float | None]]]:
        """group -> ordered [(period_label, value)] — timeseries view."""
        out: dict[str, list[tuple[str, float | None]]] = {}
        for row in self.rows:
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
        cached column arrays.  A filter or group column is factorized with
        array operations and only its distinct ids are labelled
        (:func:`_labels`); labels share one code space across sources (two
        ids with one label form one group), and
        :func:`repro.aggregation.group_reduce` sums numerator and
        denominator over ``(group, period_start)``.  NULL adds nothing.
        The cost follows the rows in range and the groups returned, not
        the size of a dimension table.
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

        if not chunks:
            return RealmResult(metric=m, dimension=group_by)
        group, p_start, *values = (np.concatenate(c) for c in zip(*chunks))
        # codes follow first appearance; result rows come in label order
        labels = sorted(group_code)
        rank = np.argsort(np.array([group_code[lb] for lb in labels], dtype=np.intp))
        (group, p_start), sums = group_reduce(
            [rank[group], p_start],
            {name: np.where(np.isnan(v), 0.0, v) for name, v in zip(measures, values)},
        )
        starts = p_start.tolist()
        p_labels = {p: period_label(period, p) if timeseries else None for p in set(starts)}
        num = sums[m.numerator].tolist()
        # a plain sum never looks at its denominator
        den = sums[m.denominator].tolist() if m.denominator else num
        return RealmResult(m, group_by, [
            ResultRow(labels[g], p if timeseries else None, p_labels[p], m.value(n, d))
            for g, p, n, d in zip(group.tolist(), starts, num, den)
        ])


def _labels(
    spec: DimensionSpec,
    schema: Schema,
    table: Table,
    values: np.ndarray,
    qualify: Callable[[str], str] | None,
) -> tuple[list[str], np.ndarray]:
    """Display labels of the distinct entries of ``values`` — a slice of
    ``spec``'s column of the aggregate ``table`` — and each entry's index
    into them.  Only the distinct entries (:func:`_distinct`) are
    labelled: ``searchsorted`` over the dimension's cached key array finds
    each id's last row, the one a mapping over the table keeps; an id the
    table lacks is spelled as stored (NULL as ``"None"``)."""
    distinct, index = _distinct(values)
    ids = _stored_values(table, spec.column, distinct)
    labels: list[Any] = [str(v) for v in ids]
    if spec.dim_table is None:
        return labels, index
    dim = schema.table(spec.dim_table)
    arrays = dim.column_arrays([spec.dim_key, spec.dim_label])
    keys = arrays[spec.dim_key]
    if len(keys):
        order = np.argsort(keys, kind="stable")
        at = order[np.searchsorted(keys, distinct, "right", sorter=order) - 1]
        hits = _stored_values(dim, spec.dim_key, keys[at])
        names = _stored_values(dim, spec.dim_label, arrays[spec.dim_label][at])
        labels = [n if k == v else lb for v, lb, k, n in zip(ids, labels, hits, names)]
    if spec.qualify and qualify:
        return [qualify(lb) for lb in labels], index
    return [str(lb) for lb in labels], index


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of ``values`` and each entry's index into them.
    A numeric array is sorted (``np.unique``, NaN once); an object array,
    whose ``None`` no ``str`` orders against, is hashed instead, with no
    Python-level step per entry."""
    if values.dtype != object:
        return np.unique(values, return_inverse=True)
    entries = values.tolist()
    code = {v: i for i, v in enumerate(dict.fromkeys(entries))}
    index = np.fromiter(map(code.__getitem__, entries), dtype=np.intp, count=len(entries))
    return np.array(list(code), dtype=object), index


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

