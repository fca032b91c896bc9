"""Storage engine: databases, schemas, tables, CRUD.

This is the MySQL-equivalent substrate under every XDMoD instance.  A
:class:`Database` holds named :class:`Schema` objects (one per logical
database — XDMoD uses ``modw``, ``mod_shredder``, etc.; the federation hub
additionally holds one renamed schema per satellite).  Every schema owns a
:class:`~repro.warehouse.binlog.Binlog` and all committed changes are
recorded there, which is what makes tight federation possible.

Rows are stored as tuples in insertion order with tombstoned deletes, so row
ids remain stable; the primary key is a hash map from key to row id.  The
design favours clarity first (per the optimization guide: make it work, make
it right); everything that filters or groups rows reads the cached column
arrays (:meth:`Table.column_arrays`) and runs vectorized in
:mod:`repro.aggregation`, and what that produces comes back the same way,
as columns, in one batch write (:meth:`Table.upsert_columns`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..analysis.sanitizer import create_lock
from .binlog import Binlog, BinlogEvent, EventType
from .errors import (
    DuplicateObjectError,
    PrimaryKeyError,
    SchemaError,
    UnknownObjectError,
)
from .schema import ColumnType, TableSchema


def rows_checksum(rows: Iterable[Sequence[Any]]) -> str:
    """Order-independent digest of one table's row data.

    The one definition behind :meth:`Table.checksum` and the dump
    document's content checksum (:func:`repro.warehouse.dump.dump_checksum`):
    ``json.dumps`` renders tuples and lists identically, so rows that
    round-tripped through a JSON dump digest the same as the live table.
    """
    digests = sorted(
        hashlib.sha256(
            json.dumps(row, sort_keys=False, default=str).encode()
        ).hexdigest()
        for row in rows
    )
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
    return h.hexdigest()


class Table:
    """One table: schema + rows + primary-key index.

    Not constructed directly — use :meth:`Schema.create_table`.  When the
    schema is ``derived`` the table is re-derivable from its sources: its
    row mutations move the versions like any other table's and write no
    binlog events.
    """

    def __init__(self, schema: "Schema", table_schema: TableSchema) -> None:
        self._owner = schema
        self.schema = table_schema
        self._rows: list[tuple[Any, ...] | None] = []  # None == tombstone
        self._live_count = 0
        self._pk_index: dict[tuple[Any, ...], int] = {}
        # starts where the schema's counter stands, so a table dropped and
        # re-created under the same name never repeats a version
        self._data_version = schema.data_version
        # column -> (epoch, raw rows converted, array); see column_array
        self._epoch = 0
        self._columnar_cache: dict[str, tuple[int, int, np.ndarray]] = {}

    # -- introspection ----------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return self._live_count

    def rows(self) -> Iterator[dict[str, Any]]:
        """Iterate live rows as dicts (insertion order)."""
        names = self.schema.column_names
        for row in self._rows:
            if row is not None:
                yield dict(zip(names, row))

    def raw_rows(self) -> Iterator[tuple[Any, ...]]:
        """Iterate live rows as stored tuples (no dict overhead)."""
        for row in self._rows:
            if row is not None:
                yield row

    def row_ids(self) -> Iterator[int]:
        for rid, row in enumerate(self._rows):
            if row is not None:
                yield rid

    def row_at(self, rid: int) -> tuple[Any, ...]:
        row = self._rows[rid]
        if row is None:
            raise UnknownObjectError(f"row id {rid} is deleted")
        return row

    def checksum(self) -> str:
        """Order-independent digest of live row contents
        (:func:`rows_checksum`).

        Used by :mod:`repro.core.consistency` to verify that replicated data
        on the hub is byte-identical to the satellite's (invariant 1 in
        DESIGN.md).
        """
        return rows_checksum(self.raw_rows())

    # -- mutation ----------------------------------------------------------

    def insert(self, values: Mapping[str, Any], *, _log: bool = True) -> int:
        """Insert one row; returns its row id.

        Raises :class:`PrimaryKeyError` on duplicate key.
        """
        row = self.schema.normalize_row(values)
        key = self.schema.key_of(row)
        if key is not None and key in self._pk_index:
            raise PrimaryKeyError(
                f"table {self.name!r}: duplicate primary key {key!r}"
            )
        return self._append(row, key, _log)

    def _append(
        self, row: tuple[Any, ...], key: tuple[Any, ...] | None, log: bool
    ) -> int:
        """Store an already-normalised row whose key is known to be free."""
        rid = len(self._rows)
        self._rows.append(row)
        self._live_count += 1
        self._appended()
        if key is not None:
            self._pk_index[key] = rid
        if log and not self.schema.derived:
            self._owner._log(
                EventType.INSERT,
                self.name,
                {"row": dict(zip(self.schema.column_names, row))},
            )
        return rid

    def upsert(self, values: Mapping[str, Any]) -> int:
        """Insert, or update in place when the primary key already exists."""
        row = self.schema.normalize_row(values)
        key = self.schema.key_of(row)
        if key is not None and key in self._pk_index:
            rid = self._pk_index[key]
            self._replace(rid, row)
            if not self.schema.derived:
                self._owner._log(
                    EventType.UPDATE,
                    self.name,
                    {
                        "key": list(key),
                        "row": dict(zip(self.schema.column_names, row)),
                    },
                )
            return rid
        return self._append(row, key, True)

    def upsert_columns(self, columns: Mapping[str, Any]) -> int:
        """Upsert a batch of rows held as equal-length columns (NumPy
        arrays or sequences keyed by column name); returns the row count.

        The table, its ``data_version`` and the binlog end up exactly as
        after one :meth:`upsert` per row in batch order (:meth:`insert` on
        a keyless table): a key already stored — or repeated earlier in
        the batch — is updated in place, and every row logs its own
        ``INSERT`` / ``UPDATE`` event.  What differs is the cost and the
        failure mode: the whole batch is validated first
        (:meth:`TableSchema.normalize_columns`, every check ``upsert``
        makes), so a bad value anywhere raises before anything is written;
        then the versions move once, by the row count, the column cache is
        kept (only new keys: see :meth:`column_array`) or cleared once, and
        each run of like events reaches the binlog through one
        :meth:`Binlog.extend` (a derived table builds no row images and
        logs nothing).  An empty batch writes nothing and bumps
        nothing.
        """
        stored = self.schema.normalize_columns(columns)
        rows = list(zip(*stored))
        if not rows:
            return 0
        names = self.schema.column_names
        key_columns = [stored[self.schema.position(c)] for c in self.schema.primary_key]
        keys = zip(*key_columns) if key_columns else itertools.repeat(())
        table_rows, index = self._rows, self._pk_index
        logged = not self.schema.derived
        log: list[tuple[EventType, dict[str, Any]]] = []
        replaced = False
        for row, key in zip(rows, keys):
            rid = index.get(key)  # a keyless table's index stays empty
            if rid is not None:
                table_rows[rid] = row
                replaced = True
                if logged:
                    log.append((
                        EventType.UPDATE,
                        {"key": list(key), "row": dict(zip(names, row))},
                    ))
                continue
            if key_columns:
                index[key] = len(table_rows)
            table_rows.append(row)
            self._live_count += 1
            if logged:
                log.append((EventType.INSERT, {"row": dict(zip(names, row))}))
        (self._mutated if replaced else self._appended)(len(rows))
        for etype, run in itertools.groupby(log, key=itemgetter(0)):
            self._owner.binlog.extend(
                etype, self.name, [payload for _, payload in run]
            )
        return len(rows)

    def get(self, key: Sequence[Any]) -> dict[str, Any] | None:
        """Primary-key point lookup; returns the row dict or None."""
        if not self.schema.primary_key:
            raise SchemaError(f"table {self.name!r} has no primary key")
        rid = self._pk_index.get(tuple(key))
        if rid is None:
            return None
        return dict(zip(self.schema.column_names, self._rows[rid]))  # type: ignore[arg-type]

    def update_where(
        self,
        predicate: Callable[[dict[str, Any]], bool],
        changes: Mapping[str, Any],
    ) -> int:
        """Update all rows matching ``predicate``; returns count updated."""
        names = self.schema.column_names
        updated = 0
        for rid, row in enumerate(self._rows):
            if row is None:
                continue
            asdict = dict(zip(names, row))
            if not predicate(asdict):
                continue
            asdict.update(changes)
            new_row = self.schema.normalize_row(asdict)
            new_key = self.schema.key_of(new_row)
            old_key = self.schema.key_of(row)
            if new_key != old_key and new_key in self._pk_index:
                raise PrimaryKeyError(
                    f"table {self.name!r}: update collides on key {new_key!r}"
                )
            if old_key is not None:
                del self._pk_index[old_key]
            if new_key is not None:
                self._pk_index[new_key] = rid
            self._replace(rid, new_row)
            if not self.schema.derived:
                self._owner._log(
                    EventType.UPDATE,
                    self.name,
                    {
                        "key": list(new_key) if new_key is not None else None,
                        "old_row": dict(zip(names, row)),
                        "row": dict(zip(names, new_row)),
                    },
                )
            updated += 1
        return updated

    def delete_where(self, predicate: Callable[[dict[str, Any]], bool]) -> int:
        """Delete all rows matching ``predicate``; returns count deleted."""
        names = self.schema.column_names
        deleted = 0
        for rid, row in enumerate(self._rows):
            if row is None:
                continue
            if predicate(dict(zip(names, row))):
                self._remove(rid, row)
                deleted += 1
        return deleted

    def delete_key(self, key: Sequence[Any]) -> bool:
        """Delete the row stored under primary key ``key``; returns whether
        there was one.  What :meth:`delete_where` on the key columns does
        to the table, the versions and the binlog, found through the
        primary-key index instead of a scan."""
        if not self.schema.primary_key:
            raise SchemaError(f"table {self.name!r} has no primary key")
        rid = self._pk_index.get(tuple(key))
        if rid is None:
            return False
        self._remove(rid, self._rows[rid])  # type: ignore[arg-type]
        return True

    def _remove(self, rid: int, row: tuple[Any, ...]) -> None:
        """Tombstone live row ``rid`` (one mutation, one ``DELETE`` event)."""
        key = self.schema.key_of(row)
        if key is not None:
            del self._pk_index[key]
        self._rows[rid] = None
        self._live_count -= 1
        self._mutated()
        if not self.schema.derived:
            self._owner._log(
                EventType.DELETE,
                self.name,
                {
                    "key": list(key) if key is not None else None,
                    "row": dict(zip(self.schema.column_names, row)),
                },
            )

    def truncate(self) -> None:
        """Remove all rows (one ``TRUNCATE`` event)."""
        self._rows.clear()
        self._live_count = 0
        self._pk_index.clear()
        self._mutated()
        if not self.schema.derived:
            self._owner._log(EventType.TRUNCATE, self.name, {})

    def _replace(self, rid: int, new_row: tuple[Any, ...]) -> None:
        self._rows[rid] = new_row
        self._mutated()

    # -- column access for vectorized aggregation ---------------------------

    def _appended(self, n: int = 1) -> None:
        """Count ``n`` row mutations that only appended rows (the column
        cache stays, a prefix the next read extends); after the write."""
        self._data_version += n
        self._owner._bump_data_version(n)

    def _mutated(self, n: int = 1) -> None:
        """Count ``n`` row mutations that may have changed stored rows: a
        new cache epoch, the columnar cache cleared; after the write.  One
        of the two is called from every mutation point (the same points
        that record a binlog event)."""
        self._appended(n)
        self._epoch += 1
        if self._columnar_cache:
            self._columnar_cache.clear()

    @property
    def data_version(self) -> int:
        """Monotonic counter bumped once by every row mutation.

        Lets callers detect staleness of anything derived from the table's
        contents, and — compared with the row count — that a table has
        only been appended to (the aggregation watermark,
        :mod:`repro.aggregation.engine`).
        """
        return self._data_version

    def column_array(self, column: str) -> np.ndarray:
        """Cached NumPy array of one column's live values, in row order.

        This is the columnar view feeding the aggregation builders
        (:mod:`repro.aggregation.columnar`) and the realm read path
        (:meth:`repro.realms.base.Realm.query`), so aggregator and REST
        threads share it.  Arrays are built lazily per column and cached
        with how many stored rows they cover.  A mutation that only
        appends rows — :meth:`insert`, an :meth:`upsert` or
        :meth:`upsert_columns` adding only new keys, hub ``apply_events``
        — keeps the cache, and the next read converts just the appended
        tail and extends the array; every other mutation (an update, a
        delete, a truncate) clears the cache and starts a new *epoch*.
        An entry carries the epoch read before its rows were: a reader
        overtaken by a non-append mutation stores an entry of an old
        epoch, which no later read trusts or extends.

        dtype mapping: INT/TIMESTAMP columns become ``int64`` (``float64``
        with NaN standing in for NULL when the column holds NULLs);
        FLOAT becomes ``float64`` (NULL becomes NaN); everything else
        (STR/BOOL/JSON) becomes an ``object`` array with NULLs kept as
        ``None``.  An extended array is the array a from-scratch
        conversion gives, dtype included.  The returned array is shared
        cache state — callers must treat it as read-only.
        """
        # the epoch is read before the rows: a non-append writer that lands
        # in between leaves an entry of an epoch older than the table's
        epoch = self._epoch
        cached = self._columnar_cache.get(column)
        done, head = 0, None
        if cached is not None and cached[0] == epoch and cached[1] <= len(self._rows):
            _, done, head = cached
            if done == len(self._rows):
                return head
        pos = self.schema.position(column)
        ctype = self.schema.column(column).ctype
        tail = list(itertools.islice(self._rows, done, None))
        values = [row[pos] for row in tail if row is not None]
        if ctype in (ColumnType.INT, ColumnType.TIMESTAMP, ColumnType.FLOAT):
            has_null = any(v is None for v in values)
            if has_null:
                arr = np.array(
                    [np.nan if v is None else v for v in values],
                    dtype=np.float64,
                )
            elif ctype is ColumnType.FLOAT:
                arr = np.array(values, dtype=np.float64)
            else:
                arr = np.array(values, dtype=np.int64)
        else:
            arr = np.empty(len(values), dtype=object)
            arr[:] = values
        if head is not None:
            arr = np.concatenate([head, arr])
        self._columnar_cache[column] = (epoch, done + len(tail), arr)
        return arr

    def column_arrays(self, columns: Sequence[str]) -> dict[str, np.ndarray]:
        """Cached columnar views of several columns (see :meth:`column_array`),
        all of one table version: if a writer got in while they were being
        gathered, they are gathered again."""
        while True:
            version = self._data_version
            arrays = {c: self.column_array(c) for c in columns}
            lengths = {len(a) for a in arrays.values()}
            if self._data_version == version and len(lengths) <= 1:
                return arrays

    def column_values(self, column: str) -> list[Any]:
        """All live values of one column, in row order (aggregation feed)."""
        pos = self.schema.position(column)
        return [row[pos] for row in self._rows if row is not None]

    def columns_values(self, columns: Sequence[str]) -> list[tuple[Any, ...]]:
        """Live values of several columns, in row order."""
        positions = [self.schema.position(c) for c in columns]
        return [
            tuple(row[p] for p in positions)
            for row in self._rows
            if row is not None
        ]


_SCHEMA_SERIALS = itertools.count()


class Schema:
    """A named schema (logical database) with its own binlog.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) is optional; when
    wired, the schema publishes ``warehouse_binlog_events_total`` and
    ``warehouse_apply_events_total`` labelled by schema name.  The cost
    when absent is one ``None`` check per apply.  ``trace_provider``
    (typically ``Tracer.current_context``) stamps every binlog append
    with the live trace context for cross-member propagation.
    """

    def __init__(self, name: str, *, metrics=None, trace_provider=None) -> None:
        if not name or not name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid schema name {name!r}")
        self.name = name
        #: unique per Schema object: one loaded in place of another (a loose
        #: re-ship) restarts ``data_version`` but never repeats a serial
        self.serial = next(_SCHEMA_SERIALS)
        self._tables: dict[str, Table] = {}
        self._data_version = 0
        on_append = None
        self._apply_counter = None
        if metrics is not None:
            on_append = metrics.counter(
                "warehouse_binlog_events_total",
                "Events appended to each schema's binlog",
                ("schema",),
            ).labels(schema=name).inc
            self._apply_counter = metrics.counter(
                "warehouse_apply_events_total",
                "Replicated events applied into each schema",
                ("schema",),
            ).labels(schema=name)
        self.binlog = Binlog(on_append=on_append, trace_provider=trace_provider)
        self._lock = create_lock(f"Schema:{name}", rlock=True)  # guards: _tables, _data_version

    def _log(self, etype: EventType, table: str, data: dict[str, Any]) -> BinlogEvent:
        return self.binlog.append(etype, table, data)

    def _bump_data_version(self, n: int = 1) -> None:
        # += on an int is read-modify-write: concurrent table mutators
        # (nightly ingest overlapping a replication tail) could lose
        # bumps and leave the serving cache thinking it is fresh.  The
        # RLock keeps the re-entrant call from create_table/drop_table
        # (which already hold it) cheap and safe.
        with self._lock:
            self._data_version += n

    @property
    def data_version(self) -> int:
        """Monotonic counter bumped on any mutation anywhere in the schema.

        Covers row mutations in every table (via :meth:`Table._mutated`)
        plus table creation/removal, so anything derived from the schema's
        contents — most importantly the serving layer's query-result cache
        (:mod:`repro.ui.serving`) — can detect staleness with one integer
        comparison instead of walking tables.
        """
        return self._data_version

    def create_table(self, table_schema: TableSchema) -> Table:
        with self._lock:
            if table_schema.name in self._tables:
                raise DuplicateObjectError(
                    f"schema {self.name!r}: table {table_schema.name!r} exists"
                )
            table = Table(self, table_schema)
            self._tables[table_schema.name] = table
            self._bump_data_version()
            self._log(
                EventType.CREATE_TABLE, table_schema.name, table_schema.to_dict()
            )
            return table

    def drop_table(self, name: str) -> None:
        with self._lock:
            if name not in self._tables:
                raise UnknownObjectError(
                    f"schema {self.name!r}: no table {name!r}"
                )
            derived = self._tables.pop(name).schema.derived
            self._bump_data_version()
            # like ``TableSchema.to_dict``: said only when true
            self._log(EventType.DROP_TABLE, name, {"derived": True} if derived else {})

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownObjectError(
                f"schema {self.name!r}: no table {name!r}"
            ) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def apply_event(self, event: BinlogEvent) -> None:
        """Apply a binlog event from another schema to this one.

        This is the replication "applier" side: the federation hub calls
        this for each event shipped from a satellite.  Row application goes
        through the normal table methods so the hub's own binlog also
        records the change (supporting hub-of-hubs topologies), but inserts
        use upsert semantics so replay is idempotent.  An update that
        changed the row's primary key removes the row stored under the old
        key first, so the replica holds what the source holds.
        """
        if self._apply_counter is not None:
            self._apply_counter.inc()
        if event.etype is EventType.CREATE_TABLE:
            schema = TableSchema.from_dict(event.data)
            if schema.name in self._tables:
                return  # idempotent re-provision
            self.create_table(schema)
            return
        if event.etype is EventType.DROP_TABLE:
            if event.table in self._tables:
                self.drop_table(event.table)
            return
        table = self.table(event.table)
        if event.etype is EventType.TRUNCATE:
            table.truncate()
        elif event.etype is EventType.INSERT:
            row = event.data["row"]
            if table.schema.primary_key:
                table.upsert(row)
            else:
                table.insert(row)
        elif event.etype is EventType.UPDATE:
            # an update that changed the primary key (``update_where``
            # logs the before-image) moved the row: drop it from under its
            # old key, or the replica keeps both
            pk = table.schema.primary_key
            old_row, row = event.data.get("old_row"), event.data["row"]
            if pk and old_row is not None:
                old_key = tuple(old_row[c] for c in pk)
                if old_key != tuple(row[c] for c in pk):
                    table.delete_key(old_key)
            table.upsert(row)
        elif event.etype is EventType.DELETE:
            if event.data.get("key") is not None and table.schema.primary_key:
                table.delete_key(event.data["key"])
            else:
                target = event.data.get("row", {})
                table.delete_where(
                    lambda r, target=target: all(
                        r.get(k) == v for k, v in target.items()
                    )
                )
        else:  # pragma: no cover - exhaustive
            raise AssertionError(f"unhandled event type {event.etype}")

    def apply_events(self, events: Sequence[BinlogEvent]) -> None:
        """Apply a run of ``INSERT`` events, all on one table, as one batch.

        The table, the versions and this schema's own binlog (events,
        LSNs, and one trace context for the run) end up as after
        :meth:`apply_event` on each event in order, but the run costs one
        :meth:`Table.upsert_columns`, which validates every row before it
        writes any: a run that raises has applied nothing, and the caller
        can apply it event by event to find the event at fault.
        """
        if not events:
            return
        table = self.table(events[0].table)
        images = []
        for event in events:
            if event.etype is not EventType.INSERT or event.table != table.name:
                raise SchemaError(
                    f"schema {self.name!r}: apply_events takes INSERTs on one "
                    f"table, got {event.etype.value} on {event.table!r} in a "
                    f"run on {table.name!r}"
                )
            images.append(event.data["row"])
        table.upsert_columns(table.schema.columns_from_rows(images))
        if self._apply_counter is not None:
            self._apply_counter.inc(len(events))

    def checksum(self) -> str:
        """Digest over all tables' contents (schema-name independent)."""
        h = hashlib.sha256()
        for name in self.table_names():
            h.update(name.encode())
            h.update(self._tables[name].checksum().encode())
        return h.hexdigest()


class Database:
    """Top-level container: a set of named schemas.

    One :class:`Database` per XDMoD instance.  The federation hub's database
    accumulates one extra schema per satellite (``fed_<instance>``) alongside
    its own.
    """

    def __init__(
        self, name: str = "xdmod", *, metrics=None, trace_provider=None
    ) -> None:
        self.name = name
        self.metrics = metrics
        self.trace_provider = trace_provider
        self._schemas: dict[str, Schema] = {}

    def create_schema(self, name: str) -> Schema:
        if name in self._schemas:
            raise DuplicateObjectError(f"schema {name!r} already exists")
        schema = Schema(
            name, metrics=self.metrics, trace_provider=self.trace_provider
        )
        self._schemas[name] = schema
        return schema

    def ensure_schema(self, name: str) -> Schema:
        if name in self._schemas:
            return self._schemas[name]
        return self.create_schema(name)

    def drop_schema(self, name: str) -> None:
        if name not in self._schemas:
            raise UnknownObjectError(f"no schema {name!r}")
        del self._schemas[name]

    def schema(self, name: str) -> Schema:
        try:
            return self._schemas[name]
        except KeyError:
            raise UnknownObjectError(f"no schema {name!r}") from None

    def has_schema(self, name: str) -> bool:
        return name in self._schemas

    def schema_names(self) -> list[str]:
        return sorted(self._schemas)

    def __contains__(self, name: str) -> bool:
        return name in self._schemas
