"""Binary log: LSNs, cursors, and the replay-determinism invariant."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

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
                table.insert({"k": k, "v": v})
        elif op == "upsert":
            table.upsert({"k": k, "v": v})
        elif op == "delete":
            table.delete_where(lambda r, k=k: r["k"] == k)
        else:
            table.truncate()
    return schema, table


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_replay_from_zero_reproduces_state(ops):
    """Invariant 4 (DESIGN.md): full binlog replay == source state."""
    schema, table = _apply_ops(ops)
    db2 = Database()
    target = db2.create_schema("dst")
    for event in schema.binlog:
        target.apply_event(event)
    assert target.table("t").checksum() == table.checksum()


@settings(max_examples=40, deadline=None)
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
