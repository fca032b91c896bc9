"""Schema catalog: the warehouse metadata repolint rules reason with.

This is what makes the engine *schema-aware* rather than purely syntactic:
the catalog imports the real :class:`~repro.warehouse.schema.TableSchema`
definitions from the ETL, aggregation, realm, and app-kernel modules, so a
rule can ask "is ``soft_quota_gb`` nullable?" or "does ``fact_storage``
have a column named ``soft_quota``?" and get the same answer the warehouse
enforces at runtime.

Period-parameterized aggregate tables (``agg_job_month`` …) are registered
for every configured period; :meth:`SchemaCatalog.resolve` additionally
accepts ``fnmatch``-style patterns (``agg_job_*``), which is how the rules
handle table names built with f-strings.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Iterable

from ..warehouse.schema import Column, ColumnType, TableSchema

#: Periods the period-parameterized aggregate tables are registered under.
CATALOG_PERIODS = ("day", "month", "quarter", "year")

#: Column types the nullable-truthiness rule cares about: types for which
#: zero is a valid stored value that is falsy in Python.
NUMERIC_TYPES = frozenset(
    {ColumnType.INT, ColumnType.FLOAT, ColumnType.TIMESTAMP}
)


class SchemaCatalog:
    """All known table schemas, with the lookups rules need."""

    def __init__(self, schemas: Iterable[TableSchema] = ()) -> None:
        self._tables: dict[str, TableSchema] = {}
        self._nullable_numeric: dict[str, set[str]] = {}
        for schema in schemas:
            self.add(schema)

    def add(self, schema: TableSchema) -> None:
        self._tables[schema.name] = schema
        for column in schema.columns:
            if self._is_nullable_numeric(schema, column):
                self._nullable_numeric.setdefault(column.name, set()).add(
                    schema.name
                )

    @staticmethod
    def _is_nullable_numeric(schema: TableSchema, column: Column) -> bool:
        return (
            column.ctype in NUMERIC_TYPES
            and column.nullable
            and column.name not in schema.primary_key
        )

    # -- lookups -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, table: str) -> bool:
        return table in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def get(self, table: str) -> TableSchema | None:
        return self._tables.get(table)

    def resolve(self, pattern: str) -> list[TableSchema]:
        """Schemas whose name matches ``pattern`` (exact or fnmatch glob)."""
        if "*" not in pattern and "?" not in pattern:
            schema = self._tables.get(pattern)
            return [schema] if schema is not None else []
        return [
            self._tables[name]
            for name in sorted(self._tables)
            if fnmatchcase(name, pattern)
        ]

    def has_column(self, pattern: str, column: str) -> bool | None:
        """Does any table matching ``pattern`` define ``column``?

        Returns None when the pattern matches no known table (the rule
        should stay silent rather than guess).
        """
        schemas = self.resolve(pattern)
        if not schemas:
            return None
        return any(column in schema.column_names for schema in schemas)

    def nullable_numeric_tables(self, column: str) -> set[str]:
        """Tables in which ``column`` is a nullable numeric column."""
        return set(self._nullable_numeric.get(column, ()))

    def is_nullable_numeric(self, column: str) -> bool:
        """Is ``column`` nullable-numeric in at least one known table?"""
        return column in self._nullable_numeric


def build_default_catalog() -> SchemaCatalog:
    """Catalog of every table schema this repository defines."""
    from ..aggregation.engine import SPECS, agg_watermark_schema
    from ..analytics.summarize import analytics_fact_schema
    from ..appkernels.kernels import appkernel_table_schema
    from ..etl.cloudevents import cloud_fact_schemas
    from ..etl.perfingest import perf_fact_schema, timeseries_schema
    from ..etl.pipeline import marker_schema
    from ..etl.star import jobs_star_schemas
    from ..etl.storagefs import storage_fact_schema
    from ..realms.allocations import allocation_schemas

    catalog = SchemaCatalog()
    for schema in jobs_star_schemas():
        catalog.add(schema)
    for schema in cloud_fact_schemas():
        catalog.add(schema)
    for schema in allocation_schemas():
        catalog.add(schema)
    catalog.add(storage_fact_schema())
    catalog.add(perf_fact_schema())
    catalog.add(timeseries_schema())
    catalog.add(analytics_fact_schema())
    catalog.add(marker_schema())
    catalog.add(appkernel_table_schema())
    catalog.add(agg_watermark_schema())
    for period in CATALOG_PERIODS:
        for spec in SPECS:
            catalog.add(spec.table_schema(period))
    return catalog
