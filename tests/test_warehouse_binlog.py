"""Binary log: LSNs, cursors, and the replay-determinism invariant."""

from __future__ import annotations

import gc
import random
import threading

import pytest
from hypothesis import given, strategies as st

from repro.warehouse import (
    Binlog,
    BinlogCursor,
    BinlogError,
    ColumnType,
    Database,
    EventType,
    TableSchema,
    make_columns,
)
from tests.conftest import property_settings

C = ColumnType


class TestBinlog:
    def test_lsns_monotonic_from_zero(self):
        log = Binlog()
        events = [log.append(EventType.INSERT, "t", {"row": {"i": i}}) for i in range(5)]
        assert [e.lsn for e in events] == [0, 1, 2, 3, 4]
        assert log.head_lsn == 5

    def test_read_from(self):
        log = Binlog()
        for i in range(10):
            log.append(EventType.INSERT, "t", {"row": {"i": i}})
        chunk = log.read_from(7)
        assert [e.lsn for e in chunk] == [7, 8, 9]
        assert log.read_from(3, limit=2)[0].lsn == 3
        assert len(log.read_from(3, limit=2)) == 2
        assert log.read_from(100) == []

    def test_negative_lsn_rejected(self):
        with pytest.raises(BinlogError):
            Binlog().read_from(-1)

    def test_event_round_trip(self):
        log = Binlog()
        event = log.append(EventType.UPDATE, "t", {"key": [1], "row": {"a": 2}})
        clone = type(event).from_dict(event.to_dict())
        assert clone == event

    def test_checksum_changes_with_content(self):
        log1, log2 = Binlog(), Binlog()
        log1.append(EventType.INSERT, "t", {"row": {"a": 1}})
        log2.append(EventType.INSERT, "t", {"row": {"a": 2}})
        assert log1.checksum() != log2.checksum()


class TestCursor:
    def test_poll_and_commit(self):
        log = Binlog()
        for i in range(4):
            log.append(EventType.INSERT, "t", {"row": {"i": i}})
        cursor = BinlogCursor(log)
        assert cursor.lag == 4
        events = cursor.poll(2)
        assert [e.lsn for e in events] == [0, 1]
        cursor.commit(events[-1].lsn)
        assert cursor.position == 2 and cursor.lag == 2

    def test_commit_backwards_rejected(self):
        log = Binlog()
        for i in range(5):
            log.append(EventType.INSERT, "t", {})
        cursor = BinlogCursor(log, start_lsn=4)
        with pytest.raises(BinlogError):
            cursor.commit(1)

    def test_commit_is_monotonic_not_strict(self):
        log = Binlog()
        for i in range(3):
            log.append(EventType.INSERT, "t", {})
        cursor = BinlogCursor(log)
        cursor.commit(1)
        cursor.commit(1)  # re-commit same position is fine (at-least-once)
        assert cursor.position == 2

    def test_seek(self):
        log = Binlog()
        for i in range(3):
            log.append(EventType.INSERT, "t", {})
        cursor = BinlogCursor(log, start_lsn=3)
        cursor.seek(0)
        assert cursor.lag == 3
        with pytest.raises(BinlogError):
            cursor.seek(-1)

    def test_negative_start_rejected(self):
        with pytest.raises(BinlogError):
            BinlogCursor(Binlog(), start_lsn=-2)


# -- property-based replay determinism ---------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 20), st.integers(0, 100)),
        st.tuples(st.just("upsert"), st.integers(0, 20), st.integers(0, 100)),
        st.tuples(st.just("delete"), st.integers(0, 20), st.just(0)),
        st.tuples(st.just("truncate"), st.just(0), st.just(0)),
    ),
    max_size=60,
)


def _apply_ops(ops):
    db = Database()
    schema = db.create_schema("src")
    table = schema.create_table(
        TableSchema(
            "t",
            make_columns([("k", C.INT, False), ("v", C.INT)]),
            primary_key=("k",),
        )
    )
    for op, k, v in ops:
        if op == "insert":
            if table.get((k,)) is None:
                table.upsert_columns({"k": [k], "v": [v]})
        elif op == "upsert":
            table.upsert_columns({"k": [k], "v": [v]})
        elif op == "delete":
            table.delete_where(lambda r, k=k: r["k"] == k)
        else:
            table.truncate()
    return schema, table


@property_settings(60)
@given(ops=_ops)
def test_replay_from_zero_reproduces_state(ops):
    """Invariant 4 (DESIGN.md): full binlog replay == source state."""
    schema, table = _apply_ops(ops)
    db2 = Database()
    target = db2.create_schema("dst")
    for event in schema.binlog:
        target.apply_event(event)
    assert target.table("t").checksum() == table.checksum()


@property_settings(40)
@given(ops=_ops, resume_at=st.integers(0, 30))
def test_resume_overlap_is_idempotent(ops, resume_at):
    """Re-applying an already-applied suffix never corrupts the target."""
    schema, table = _apply_ops(ops)
    events = list(schema.binlog)
    db2 = Database()
    target = db2.create_schema("dst")
    for event in events:
        target.apply_event(event)
    # replay an arbitrary suffix again (at-least-once delivery)
    for event in events[min(resume_at, len(events)):]:
        target.apply_event(event)
    assert target.table("t").checksum() == table.checksum()


# -- batch records read back as the events one append per row would log -------


def history_tables(schema):
    """The tables a mixed history writes: keyed (with a JSON column),
    keyless, and derived (rows never logged)."""
    keyed = schema.create_table(TableSchema(
        "jobs",
        make_columns([
            ("job_id", C.INT, False), ("user", C.STR, False),
            ("hours", C.FLOAT), ("doc", C.JSON),
        ]),
        primary_key=("job_id",),
    ))
    keyless = schema.create_table(TableSchema(
        "log", make_columns([("at", C.TIMESTAMP, False), ("msg", C.STR)])
    ))
    derived = schema.create_table(TableSchema(
        "agg_jobs",
        make_columns([("user", C.STR, False), ("n", C.INT)]),
        primary_key=("user",),
        derived=True,
    ))
    return keyed, keyless, derived


def job_columns(job_ids, version):
    return {
        "job_id": list(job_ids),
        "user": [f"u{j % 3}" for j in job_ids],
        "hours": [j * 0.5 + version for j in job_ids],
        "doc": [{"v": version} if j % 2 else None for j in job_ids],
    }


def write_batch(table, columns, batched):
    """One ``upsert_columns``, or the single-row batches it stands for."""
    if batched:
        table.upsert_columns(columns)
        return
    for values in zip(*columns.values()):
        table.upsert_columns({name: [value] for name, value in zip(columns, values)})


def run_history(ops, *, batched, traced=False):
    """Apply a drawn history to a fresh schema; returns it.  ``traced``
    switches the live trace context between ops, batch records included."""
    context = {"now": None}
    schema = Database(trace_provider=lambda: context["now"]).create_schema("src")
    keyed, keyless, derived = history_tables(schema)
    peer = Database().create_schema("peer")
    peer_table = peer.create_table(keyed.schema)
    for i, (verb, ids, version) in enumerate(ops):
        context["now"] = f"ctx{i % 2}" if traced and i % 3 else None
        if verb == "jobs":
            write_batch(keyed, job_columns(ids, version), batched)
        elif verb == "log":
            write_batch(keyless, {
                "at": [1000 + j for j in ids], "msg": [f"m{version}"] * len(ids),
            }, batched)
        elif verb == "derived":
            write_batch(derived, {
                "user": [f"u{j}" for j in ids], "n": [version] * len(ids),
            }, batched)
        elif verb == "insert":
            if ids and keyed.get((ids[0],)) is None:
                keyed.upsert_columns({"job_id": [ids[0]], "user": ["solo"]})
        elif verb == "update_where":
            keyed.update_where(lambda r: r["job_id"] in ids, {"hours": float(version)})
        elif verb == "rekey":
            if ids and keyed.get((ids[0] + 100,)) is None:
                keyed.update_where(
                    lambda r: r["job_id"] == ids[0], {"job_id": ids[0] + 100}
                )
        elif verb == "delete":
            for j in ids:
                keyed.delete_key([j])
            keyless.delete_where(lambda r: r["at"] - 1000 in ids)
        elif verb == "apply":
            start = peer.binlog.head_lsn
            peer_table.upsert_columns(job_columns(ids, version))
            for record in peer.binlog.read_records(start):
                if record.etype is not EventType.INSERT:
                    continue
                if batched:
                    schema.apply_rows(record)
                else:
                    for event in record.events():
                        schema.apply_event(event)
        elif verb == "truncate":
            keyless.truncate()
        elif verb == "ddl":
            schema.drop_table("log")
            keyless = schema.create_table(TableSchema(
                "log", make_columns([("at", C.TIMESTAMP, False), ("msg", C.STR)])
            ))
    return schema


_history_ops = st.lists(
    st.tuples(
        st.sampled_from([
            "jobs", "jobs", "log", "derived", "insert", "update_where",
            "rekey", "delete", "apply", "truncate", "ddl",
        ]),
        st.lists(st.integers(0, 12), max_size=6),
        st.integers(0, 3),
    ),
    max_size=14,
)


#: the seeded history's log length and digests, taken when the log stored
#: one event per row
PINNED_EVENTS = 232
PINNED_BINLOG = "bcf488bed9ffdad28f10548c83e7cce4a7ffaf7d17d35eace35800f0781e08e7"
PINNED_SCHEMA = "a8dacfcd77adcc0a578636b2fec5cf0784890984191557c84305658be0e2c011"


def event_dicts(events):
    return [event.to_dict() for event in events]


class TestBatchRecords:
    @property_settings(60)
    @given(ops=_history_ops, limits=st.lists(st.integers(0, 9), min_size=1, max_size=4))
    def test_every_window_equals_the_per_event_log(self, ops, limits):
        """Every ``read_from`` window — straddling batch records or not —
        and every LSN's trace context equal those of the log that one
        append per row writes."""
        batched = run_history(ops, batched=True, traced=True)
        looped = run_history(ops, batched=False, traced=True)
        reference = list(looped.binlog)
        log = batched.binlog
        assert log.head_lsn == len(log) == len(reference)
        for lsn in range(len(reference) + 2):
            assert event_dicts(log.read_from(lsn)) == event_dicts(reference[lsn:])
            for limit in limits:
                assert event_dicts(log.read_from(lsn, limit)) == event_dicts(
                    reference[lsn : lsn + limit]
                )
        for lsn in range(-1, len(reference) + 2):
            assert log.trace_context(lsn) == looped.binlog.trace_context(lsn)
        assert log.checksum() == looped.binlog.checksum()
        assert batched.checksum() == looped.checksum()

    def test_every_read_builds_fresh_payloads(self):
        schema = Database().create_schema("src")
        keyed, _, _ = history_tables(schema)
        keyed.upsert_columns(job_columns(range(3), 0))
        first = schema.binlog.read_from(3)[0]
        first.data["row"]["user"] = "scribbled"
        assert schema.binlog.read_from(3)[0].data["row"]["user"] == "u0"

    def test_seeded_history_digests_are_pinned(self):
        """Logs are byte-identical to what one append per row logged."""
        rng = random.Random(2017)
        verbs = ["jobs", "jobs", "log", "derived", "insert", "update_where",
                 "rekey", "delete", "apply", "truncate", "ddl"]
        ops = [
            (rng.choice(verbs), [rng.randrange(40) for _ in range(rng.randrange(12))],
             rng.randrange(4))
            for _ in range(80)
        ]
        schema = run_history(ops, batched=True)
        assert len(schema.binlog) == PINNED_EVENTS
        assert schema.binlog.checksum() == PINNED_BINLOG
        assert schema.checksum() == PINNED_SCHEMA

    def test_a_bulk_load_adds_no_tracked_object_per_row(self):
        """A 10 000-row batch adds O(1) objects the cyclic GC tracks: the
        log keeps the table's own row tuples, not one event per row."""
        schema = Database().create_schema("src")
        keyed, _, _ = history_tables(schema)
        n = 10_000
        columns = {
            "job_id": list(range(n)), "user": ["u"] * n,
            "hours": [1.5] * n, "doc": [None] * n,
        }
        gc.collect()
        before = len(gc.get_objects())
        keyed.upsert_columns(columns)
        gc.collect()
        assert len(gc.get_objects()) - before < 100
        assert len(schema.binlog) == 3 + n

    def test_windows_read_while_batches_land(self):
        """A reader thread sees whole, contiguous windows while another
        thread appends batch records (run under the lock sanitizer)."""
        schema = Database().create_schema("src")
        keyed, _, _ = history_tables(schema)
        log, batches, size = schema.binlog, 200, 25
        errors = []

        def write():
            for b in range(batches):
                keyed.upsert_columns(job_columns(range(b * size, (b + 1) * size), 0))

        def read():
            rng = random.Random(7)
            while writer.is_alive() or rng.random() < 0.5:
                lsn = rng.randrange(log.head_lsn + 1)
                window = log.read_from(lsn, rng.randrange(1, 60))
                lsns = [event.lsn for event in window]
                if lsns != list(range(lsn, lsn + len(lsns))):
                    errors.append(lsns)
                for event in window:
                    if event.lsn >= 3 and event.data["row"]["job_id"] != event.lsn - 3:
                        errors.append(event.lsn)

        writer = threading.Thread(target=write)
        reader = threading.Thread(target=read)
        writer.start()
        reader.start()
        writer.join()
        reader.join()
        assert errors == []
        assert len(log) == 3 + batches * size

