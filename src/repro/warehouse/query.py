"""Query engine: predicates, projection, group-by aggregation, joins.

XDMoD's UI issues a narrow family of queries against the data warehouse:
filter facts by dimension values and a time range, group by one dimension
(and/or a time period), and aggregate a statistic.  This module implements
that family over :class:`~repro.warehouse.engine.Table` with a small
composable predicate algebra and a fluent :class:`Query` builder::

    rows = (
        Query(fact_job)
        .where(P.eq("resource", "comet") & P.between("end_ts", t0, t1))
        .group_by("month")
        .aggregate(total_cpu_hours=Agg.sum("cpu_hours"), jobs=Agg.count())
        .order_by("month")
        .run()
    )

The vectorized grouped reductions behind nightly aggregation are
:func:`repro.aggregation.group_reduce`, not this module.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .engine import Table
from .errors import QueryError

Row = dict[str, Any]
PredicateFn = Callable[[Row], bool]


class Predicate:
    """A composable row predicate: ``&``, ``|`` and ``~`` combine them."""

    def __init__(self, fn: PredicateFn, description: str = "<pred>") -> None:
        self._fn = fn
        self.description = description

    def __call__(self, row: Row) -> bool:
        return self._fn(row)

    def __and__(self, other: "Predicate") -> "Predicate":
        return Predicate(
            lambda r: self._fn(r) and other._fn(r),
            f"({self.description} AND {other.description})",
        )

    def __or__(self, other: "Predicate") -> "Predicate":
        return Predicate(
            lambda r: self._fn(r) or other._fn(r),
            f"({self.description} OR {other.description})",
        )

    def __invert__(self) -> "Predicate":
        return Predicate(lambda r: not self._fn(r), f"(NOT {self.description})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Predicate({self.description})"


class P:
    """Factory namespace for common predicates."""

    @staticmethod
    def true() -> Predicate:
        return Predicate(lambda r: True, "TRUE")

    @staticmethod
    def eq(column: str, value: Any) -> Predicate:
        return Predicate(lambda r: r.get(column) == value, f"{column} = {value!r}")

    @staticmethod
    def ne(column: str, value: Any) -> Predicate:
        return Predicate(lambda r: r.get(column) != value, f"{column} != {value!r}")

    @staticmethod
    def _cmp(column: str, value: Any, op: Callable[[Any, Any], bool], sym: str) -> Predicate:
        def fn(r: Row) -> bool:
            v = r.get(column)
            return v is not None and op(v, value)

        return Predicate(fn, f"{column} {sym} {value!r}")

    @staticmethod
    def lt(column: str, value: Any) -> Predicate:
        return P._cmp(column, value, operator.lt, "<")

    @staticmethod
    def le(column: str, value: Any) -> Predicate:
        return P._cmp(column, value, operator.le, "<=")

    @staticmethod
    def gt(column: str, value: Any) -> Predicate:
        return P._cmp(column, value, operator.gt, ">")

    @staticmethod
    def ge(column: str, value: Any) -> Predicate:
        return P._cmp(column, value, operator.ge, ">=")

    @staticmethod
    def between(column: str, lo: Any, hi: Any) -> Predicate:
        """Inclusive-exclusive range: ``lo <= value < hi`` (time ranges)."""

        def fn(r: Row) -> bool:
            v = r.get(column)
            return v is not None and lo <= v < hi

        return Predicate(fn, f"{lo!r} <= {column} < {hi!r}")

    @staticmethod
    def isin(column: str, values: Iterable[Any]) -> Predicate:
        vset = set(values)
        return Predicate(lambda r: r.get(column) in vset, f"{column} IN {sorted(map(repr, vset))}")

    @staticmethod
    def isnull(column: str) -> Predicate:
        return Predicate(lambda r: r.get(column) is None, f"{column} IS NULL")

    @staticmethod
    def notnull(column: str) -> Predicate:
        return Predicate(lambda r: r.get(column) is not None, f"{column} IS NOT NULL")


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: a function name and the column it reduces.

    ``column`` is None for ``count``.
    """

    func: str
    column: str | None = None

    _NUMERIC = {"sum", "avg", "min", "max", "weighted_avg"}

    def validate(self) -> None:
        known = {"count", "count_distinct", "sum", "avg", "min", "max", "weighted_avg"}
        if self.func not in known:
            raise QueryError(f"unknown aggregate {self.func!r}")
        if self.func != "count" and self.column is None:
            raise QueryError(f"aggregate {self.func!r} requires a column")


class Agg:
    """Factory namespace for aggregate specs."""

    @staticmethod
    def count() -> AggSpec:
        return AggSpec("count")

    @staticmethod
    def count_distinct(column: str) -> AggSpec:
        return AggSpec("count_distinct", column)

    @staticmethod
    def sum(column: str) -> AggSpec:
        return AggSpec("sum", column)

    @staticmethod
    def avg(column: str) -> AggSpec:
        return AggSpec("avg", column)

    @staticmethod
    def min(column: str) -> AggSpec:
        return AggSpec("min", column)

    @staticmethod
    def max(column: str) -> AggSpec:
        return AggSpec("max", column)

    @staticmethod
    def weighted_avg(column: str, weight: str) -> AggSpec:
        """Average of ``column`` weighted by ``weight`` (cloud realm uses
        wall-hours-weighted reservation averages)."""
        spec = AggSpec("weighted_avg", column)
        object.__setattr__(spec, "weight", weight)  # type: ignore[attr-defined]
        return spec


def _reduce_group(spec: AggSpec, rows: list[Row]) -> Any:
    """Reduce one group of rows under one aggregate spec."""
    if spec.func == "count":
        return len(rows)
    column = spec.column
    assert column is not None
    values = [r[column] for r in rows if r.get(column) is not None]
    if spec.func == "count_distinct":
        return len(set(values))
    if not values:
        return None
    if spec.func == "sum":
        return sum(values)
    if spec.func == "min":
        return min(values)
    if spec.func == "max":
        return max(values)
    if spec.func == "avg":
        return sum(values) / len(values)
    if spec.func == "weighted_avg":
        weight_col = getattr(spec, "weight")
        num = 0.0
        den = 0.0
        for r in rows:
            v = r.get(column)
            w = r.get(weight_col)
            if v is None or w is None:
                continue
            num += v * w
            den += w
        return num / den if den else None
    raise QueryError(f"unknown aggregate {spec.func!r}")  # pragma: no cover


class Query:
    """Fluent query over one table (or a pre-materialized row list)."""

    def __init__(self, source: Table | Sequence[Row]) -> None:
        self._source = source
        self._predicate: Predicate | None = None
        self._group_cols: tuple[str, ...] = ()
        self._aggregates: dict[str, AggSpec] = {}
        self._select_cols: tuple[str, ...] | None = None
        self._derived: dict[str, Callable[[Row], Any]] = {}
        self._order: tuple[tuple[str, bool], ...] = ()
        self._limit: int | None = None

    # -- builder -----------------------------------------------------------

    def where(self, predicate: Predicate) -> "Query":
        self._predicate = (
            predicate if self._predicate is None else self._predicate & predicate
        )
        return self

    def select(self, *columns: str) -> "Query":
        self._select_cols = columns
        return self

    def derive(self, **derivations: Callable[[Row], Any]) -> "Query":
        """Add computed columns evaluated per input row before grouping."""
        self._derived.update(derivations)
        return self

    def group_by(self, *columns: str) -> "Query":
        self._group_cols = columns
        return self

    def aggregate(self, **aggregates: AggSpec) -> "Query":
        for name, spec in aggregates.items():
            spec.validate()
            self._aggregates[name] = spec
        return self

    def order_by(self, *columns: str, descending: bool = False) -> "Query":
        self._order = self._order + tuple((c, descending) for c in columns)
        return self

    def limit(self, n: int) -> "Query":
        if n < 0:
            raise QueryError(f"negative limit {n}")
        self._limit = n
        return self

    # -- execution -----------------------------------------------------------

    def _input_rows(self) -> Iterable[Row]:
        if isinstance(self._source, Table):
            return self._source.rows()
        return iter(self._source)

    def run(self) -> list[Row]:
        """Execute and return result rows as dicts."""
        rows: Iterable[Row] = self._input_rows()
        if self._derived:
            derived = self._derived

            def with_derived(r: Row) -> Row:
                out = dict(r)
                for name, fn in derived.items():
                    out[name] = fn(r)
                return out

            rows = (with_derived(r) for r in rows)
        if self._predicate is not None:
            pred = self._predicate
            rows = (r for r in rows if pred(r))

        if self._aggregates:
            result = self._run_grouped(rows)
        else:
            result = [dict(r) for r in rows]
            if self._select_cols is not None:
                cols = self._select_cols
                result = [{c: r.get(c) for c in cols} for r in result]

        for column, descending in reversed(self._order):
            # stable per-column sort with NULLs always last
            nulls = [r for r in result if r.get(column) is None]
            rest = [r for r in result if r.get(column) is not None]
            rest.sort(key=lambda r: r[column], reverse=descending)
            result = rest + nulls
        if self._limit is not None:
            result = result[: self._limit]
        return result

    def _run_grouped(self, rows: Iterable[Row]) -> list[Row]:
        groups: dict[tuple[Any, ...], list[Row]] = {}
        gcols = self._group_cols
        for r in rows:
            key = tuple(r.get(c) for c in gcols)
            groups.setdefault(key, []).append(r)
        out: list[Row] = []
        for key, grouped in groups.items():
            record: Row = dict(zip(gcols, key))
            for name, spec in self._aggregates.items():
                record[name] = _reduce_group(spec, grouped)
            out.append(record)
        return out

    def scalar(self, name: str | None = None) -> Any:
        """Run a no-group aggregate query and return a single value."""
        result = self.run()
        if len(result) != 1:
            raise QueryError(f"scalar() expected 1 row, got {len(result)}")
        row = result[0]
        if name is None:
            if len(row) != 1:
                raise QueryError(
                    f"scalar() expected 1 column, got {sorted(row)}"
                )
            return next(iter(row.values()))
        return row[name]


def hash_join(
    left: Iterable[Row],
    right: Iterable[Row],
    *,
    left_key: str,
    right_key: str,
    right_prefix: str = "",
    how: str = "inner",
) -> list[Row]:
    """Hash join two row streams on single-column equality.

    Star-schema queries (fact -> dimension) always join on a surrogate key;
    ``right_prefix`` namespaces the dimension's columns on collision.
    ``how`` is ``"inner"`` or ``"left"``.
    """
    if how not in ("inner", "left"):
        raise QueryError(f"unsupported join type {how!r}")
    index: dict[Any, list[Row]] = {}
    for r in right:
        index.setdefault(r.get(right_key), []).append(r)
    out: list[Row] = []
    for l in left:
        matches = index.get(l.get(left_key), [])
        if not matches:
            if how == "left":
                out.append(dict(l))
            continue
        for m in matches:
            merged = dict(l)
            for k, v in m.items():
                name = right_prefix + k if (right_prefix and k in merged) else k
                if name in merged and merged[name] != v and not right_prefix:
                    # silent collision would corrupt results; namespace it
                    name = "right_" + k
                merged[name] = v
            out.append(merged)
    return out
