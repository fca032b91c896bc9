"""Runtime lock sanitizer + real-thread regression tests for the races
fixed in the concurrency pass.

The acceptance scenario lives in :class:`TestSanitizerDetectsInversions`:
a deliberately-inverted two-lock sequence is caught by ``SanitizedLock``
(without needing an actual deadlock), and the same sequence reordered is
clean — proving the sanitizer detects real inversions at test time.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import LockMonitor, SanitizedLock
from repro.warehouse import (
    Binlog,
    ColumnType,
    Database,
    EventType,
    TableSchema,
    make_columns,
)
from repro.warehouse.engine import rows_checksum

C = ColumnType


def run_threads(workers, n=None):
    """Start, join, and re-raise the first worker exception."""
    errors = []

    def wrap(fn):
        def inner():
            try:
                fn()
            except BaseException as exc:  # propagated to the test thread
                errors.append(exc)

        return inner

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force frequent preemption
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old)
    if errors:
        raise errors[0]


# -- sanitizer unit behavior --------------------------------------------------


class TestSanitizerDetectsInversions:
    def test_inverted_two_lock_order_is_caught(self):
        monitor = LockMonitor()
        a = SanitizedLock("A", monitor)
        b = SanitizedLock("B", monitor)
        with a:
            with b:
                pass
        with b:  # deliberate inversion: B then A after A then B
            with a:
                pass
        assert len(monitor.inversions) == 1
        inv = monitor.inversions[0]
        assert {inv.first, inv.second} == {"A", "B"}
        assert "inversion" in monitor.report()

    def test_same_sequence_reordered_is_clean(self):
        monitor = LockMonitor()
        a = SanitizedLock("A", monitor)
        b = SanitizedLock("B", monitor)
        for _ in range(2):  # consistent A-then-B order every time
            with a:
                with b:
                    pass
        assert monitor.inversions == ()

    def test_fixture_style_gate_fails_on_inversion(self):
        # what the lock_sanitizer fixture does at teardown
        monitor = LockMonitor()
        a = SanitizedLock("A", monitor)
        b = SanitizedLock("B", monitor)
        with a, b:
            pass
        with b, a:
            pass
        with pytest.raises(pytest.fail.Exception):
            _fail_on_inversions(monitor)

    def test_cross_thread_inversion_detected(self):
        # The order graph is global across threads: thread 1 takes A->B,
        # thread 2 later takes B->A.  The orders are sequenced with an
        # event so the inversion is *detected* without ever *deadlocking*
        # — which is the point of the sanitizer: single overlapping
        # schedules are not required to prove the hazard.
        monitor = LockMonitor()
        a = SanitizedLock("A", monitor)
        b = SanitizedLock("B", monitor)
        first_done = threading.Event()

        def t1():
            with a:
                with b:
                    pass
            first_done.set()

        def t2():
            first_done.wait(timeout=5.0)
            with b:
                with a:
                    pass

        run_threads([t1, t2])
        assert len(monitor.inversions) == 1
        inv = monitor.inversions[0]
        assert inv.site.thread_name != inv.prior_site.thread_name

    def test_reentrant_rlock_is_not_an_inversion(self):
        monitor = LockMonitor()
        r = SanitizedLock("R", monitor, rlock=True)
        with r:
            with r:
                pass
        assert monitor.inversions == ()
        assert monitor.edges() == {}

    def test_long_hold_recorded_with_fake_clock(self):
        t = [0.0]
        monitor = LockMonitor(long_hold_s=0.05, clock=lambda: t[0])
        lock = SanitizedLock("L", monitor, rlock=False)
        lock.acquire()
        t[0] = 0.2
        lock.release()
        assert len(monitor.long_holds) == 1
        hold = monitor.long_holds[0]
        assert hold.lock_name == "L"
        assert hold.held_s == pytest.approx(0.2)

    def test_short_hold_not_recorded(self):
        t = [0.0]
        monitor = LockMonitor(long_hold_s=0.05, clock=lambda: t[0])
        lock = SanitizedLock("L", monitor)
        with lock:
            t[0] = 0.01
        assert monitor.long_holds == ()

    def test_metrics_binding_exports_sanitizer_series(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        t = [0.0]
        monitor = LockMonitor(long_hold_s=0.05, clock=lambda: t[0])
        monitor.bind_metrics(registry)
        a = SanitizedLock("A", monitor)
        b = SanitizedLock("B", monitor)
        with a, b:
            pass
        with b:
            t[0] = 0.2
            with a:
                pass
        text = registry.render_prometheus()
        assert 'sanitizer_lock_inversions_total{first="B",second="A"} 1' in text
        assert "sanitizer_long_holds_total" in text
        assert "sanitizer_lock_hold_seconds" in text

    def test_reset_clears_state(self):
        monitor = LockMonitor()
        a = SanitizedLock("A", monitor)
        b = SanitizedLock("B", monitor)
        with a, b:
            pass
        with b, a:
            pass
        monitor.reset()
        assert monitor.inversions == ()
        assert monitor.edges() == {}


@pytest.fixture()
def _sanitizer_state_restored():
    """Save/restore the global monitor so these tests hold under both a
    bare run and ``REPRO_LOCK_SANITIZER=1`` (which activates at import,
    as CI's sanitizer-enabled pass does)."""
    prior = sanitizer.current_monitor()
    try:
        yield
    finally:
        sanitizer.deactivate()
        if prior is not None:
            sanitizer.activate(prior)


class TestCreateLock:
    def test_plain_lock_when_inactive(self, _sanitizer_state_restored):
        sanitizer.deactivate()
        assert sanitizer.current_monitor() is None
        lock = sanitizer.create_lock("X")
        assert not isinstance(lock, SanitizedLock)
        # duck-compatible with threading.Lock
        with lock:
            pass

    def test_rlock_when_inactive_is_reentrant(self, _sanitizer_state_restored):
        sanitizer.deactivate()
        lock = sanitizer.create_lock("X", rlock=True)
        with lock:
            with lock:
                pass

    def test_sanitized_when_active(self, _sanitizer_state_restored):
        sanitizer.deactivate()
        monitor = sanitizer.activate()
        lock = sanitizer.create_lock("X")
        assert isinstance(lock, SanitizedLock)
        assert sanitizer.enabled()
        assert sanitizer.current_monitor() is monitor
        sanitizer.deactivate()
        assert not sanitizer.enabled()

    def test_production_locks_instrumented_under_fixture(self, lock_sanitizer):
        # with the fixture active, warehouse locks are SanitizedLock and
        # ordinary single-lock use records hold times, not inversions
        db = Database()
        schema = db.create_schema("modw")
        assert isinstance(schema._lock, SanitizedLock)
        schema.create_table(_table_schema("jobs"))
        assert lock_sanitizer.inversions == ()


# -- regression: the three fixed races, with real threads ---------------------


def _table_schema(name: str) -> TableSchema:
    return TableSchema(
        name,
        make_columns([
            ("id", C.INT, False),
            ("val", C.FLOAT),
        ]),
        primary_key=("id",),
    )


class TestSchemaDataVersionRace:
    def test_concurrent_mutators_never_lose_a_bump(self):
        """Regression: ``Schema._bump_data_version`` was an unlocked
        ``+= 1``; concurrent table writers lost bumps, so the serving
        cache could treat changed data as fresh.  Each thread writes its
        own table — the schema-level version counter is the only shared
        state."""
        db = Database()
        schema = db.create_schema("modw")
        n_threads, n_rows = 8, 200
        tables = [
            schema.create_table(_table_schema(f"t{i}")) for i in range(n_threads)
        ]
        start_version = schema.data_version

        def writer(table):
            def run():
                for i in range(n_rows):
                    table.upsert_columns({"id": [i], "val": [float(i)]})

            return run

        run_threads([writer(t) for t in tables])
        assert schema.data_version - start_version == n_threads * n_rows

    def test_create_table_still_bumps_reentrantly(self):
        db = Database()
        schema = db.create_schema("modw")
        before = schema.data_version
        schema.create_table(_table_schema("jobs"))
        assert schema.data_version > before


class _PausingRows(list):
    """Row storage whose next full iteration calls ``pause`` after the last
    row — the point between a reader's row snapshot and its cache store."""

    def __init__(self, rows, pause):
        super().__init__(rows)
        self._pause = pause

    def __iter__(self):
        yield from super().__iter__()
        pause, self._pause = self._pause, None
        if pause is not None:
            pause()


class TestColumnCacheRace:
    """REST threads read the column cache the aggregator thread fills."""

    N = 3

    @pytest.fixture()
    def table(self):
        table = Database().create_schema("modw").create_table(_table_schema("jobs"))
        for i in range(self.N):
            table.upsert_columns({"id": [i], "val": [float(i)]})
        return table

    def _insert_after_snapshot(self, table, read):
        """Run ``read`` on a thread; once it has snapshotted the rows,
        insert one more row from this thread, then let it finish."""
        snapshotted, mutated = threading.Event(), threading.Event()

        def pause():
            snapshotted.set()
            assert mutated.wait(5)

        table._rows = _PausingRows(table._rows, pause)
        result = []
        reader = threading.Thread(target=lambda: result.append(read()))
        reader.start()
        try:
            assert snapshotted.wait(5)
            table.upsert_columns({"id": [self.N], "val": [float(self.N)]})
        finally:
            mutated.set()
            reader.join(5)
        assert not reader.is_alive()
        return result[0]

    def test_overtaken_reader_cannot_publish_a_stale_array(self, table):
        """Regression: a reader snapshotted the rows, a writer appended
        and cleared the cache, the reader then stored its pre-mutation
        array — served to everyone until the next mutation."""
        self._insert_after_snapshot(table, lambda: table.column_array("val"))
        assert len(table) == self.N + 1
        assert table.column_array("val").tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_column_arrays_are_of_one_version(self, table):
        """Regression: ``id`` was snapshotted before the insert and
        ``val`` after it, so the two arrays differed in length."""
        cols = self._insert_after_snapshot(
            table, lambda: table.column_arrays(["id", "val"])
        )
        assert cols["id"].tolist() == [0, 1, 2, 3]
        assert cols["val"].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_readers_see_whole_rows_while_a_writer_appends(self, table):
        n_rows, done = 400, threading.Event()

        def writer():
            try:
                for i in range(self.N, n_rows):
                    table.upsert_columns({"id": [i], "val": [float(i)]})
            finally:
                done.set()

        def reader():
            while not done.is_set():
                cols = table.column_arrays(["id", "val"])
                assert len(cols["id"]) == len(cols["val"])
                assert (cols["id"] == cols["val"]).all()

        run_threads([writer, reader, reader, reader])
        assert table.column_array("id").tolist() == list(range(n_rows))

    def test_readers_see_whole_rows_while_a_writer_batches(self, table):
        """``upsert_columns`` moves the version once, after its rows are in:
        a reader overlapping the batch may see a prefix of it, never a
        torn row, and never keeps what it saw past the bump."""
        n_rows, batch, done = 600, 50, threading.Event()

        def writer():
            try:
                for lo in range(self.N, n_rows, batch):
                    ids = list(range(lo, min(lo + batch, n_rows)))
                    table.upsert_columns({"id": ids, "val": [float(i) for i in ids]})
            finally:
                done.set()

        def reader():
            while not done.is_set():
                cols = table.column_arrays(["id", "val"])
                assert len(cols["id"]) == len(cols["val"])
                assert (cols["id"] == cols["val"]).all()

        run_threads([writer, reader, reader, reader])
        assert table.column_array("id").tolist() == list(range(n_rows))
        assert table.data_version == n_rows


    def test_reader_overtaken_by_a_delete_never_extends_its_stale_array(self, table):
        """A delete lands between a reader's epoch read and its store, then
        an append follows: the array the reader stored still holds the
        deleted row, and extending it by the appended tail would serve
        that row until the next non-append write."""
        table._rows = _PausingRows(table._rows, lambda: table.delete_key([1]))
        assert table.column_array("val").tolist() == [0.0, 1.0, 2.0]
        table.upsert_columns({"id": [self.N], "val": [float(self.N)]})
        assert table.column_array("val").tolist() == [0.0, 2.0, 3.0]

    def test_checksum_is_fresh_after_readers_race_a_writer(self, table):
        """Readers hash while a writer replaces and deletes rows: whatever
        digests they stored along the way, the one served afterwards is
        the digest of the rows as they end."""
        done = threading.Event()

        def writer():
            try:
                for i in range(300):
                    table.upsert_columns({"id": [i % 7], "val": [float(i)]})
                    table.delete_key([(i * 3) % 7])
            finally:
                done.set()

        def reader():
            while not done.is_set():
                table.checksum()

        run_threads([writer, reader, reader, reader])
        assert table.checksum() == rows_checksum(table.raw_rows())

    def test_checksum_overtaken_by_a_delete_is_never_served(self, table):
        """A delete lands after a checksum hashed the rows and before it
        stored the digest: the stored digest is of the version read before
        the rows, so the next call hashes the rows afresh."""
        stale = rows_checksum(table.raw_rows())
        table._rows = _PausingRows(table._rows, lambda: table.delete_key([1]))
        assert table.checksum() == stale
        assert len(table) == self.N - 1
        assert table.checksum() == rows_checksum(table.raw_rows()) != stale


class TestBinlogBatchRace:
    def test_appends_and_batches_interleave_into_a_dense_log(self, lock_sanitizer):
        """``Binlog.extend`` takes the log lock once per batch: whatever
        single appends race it, LSNs stay dense and unique, every batch
        occupies consecutive LSNs in row order, and the telemetry
        hook has counted every event exactly once."""
        counted = []
        log = Binlog(on_append=counted.append)
        n_appenders, n_batchers, n_appends, n_batches = 3, 3, 300, 60

        def appender(worker):
            def run():
                for i in range(n_appends):
                    log.append(EventType.INSERT, "t", {"single": worker, "i": i})

            return run

        def batcher(worker):
            def run():
                for b in range(n_batches):
                    rows = [(worker, b, i) for i in range(b % 8)]
                    base = log.extend(
                        EventType.UPDATE, "t", ("worker", "batch", "i"),
                        rows, [(i,) for i in range(len(rows))],
                    )
                    events = log.read_from(base, len(rows))
                    assert [(e.lsn - base, e.data["row"]["i"]) for e in events] == [
                        (i, i) for i in range(len(rows))
                    ]

            return run

        run_threads(
            [appender(w) for w in range(n_appenders)]
            + [batcher(w) for w in range(n_batchers)]
        )
        events = list(log)
        n_batched = n_batchers * sum(b % 8 for b in range(n_batches))
        assert len(events) == n_appenders * n_appends + n_batched
        assert [e.lsn for e in events] == list(range(len(events)))
        assert sum(counted) == len(events)
        batches: dict = {}
        for event in events:
            if "row" in event.data:
                row = event.data["row"]
                batches.setdefault((row["worker"], row["batch"]), []).append(event)
        for (worker, b), batch in batches.items():
            assert [e.data["row"]["i"] for e in batch] == list(range(b % 8))
            assert [e.data["key"] for e in batch] == [[i] for i in range(b % 8)]
            assert [e.lsn for e in batch] == list(
                range(batch[0].lsn, batch[0].lsn + len(batch))
            )
        for worker in range(n_appenders):
            mine = [e.data["i"] for e in events if e.data.get("single") == worker]
            assert mine == list(range(n_appends))


class TestCacheEntryPagesRace:
    def test_concurrent_page_memoization_respects_bound(self):
        """Regression: ``respond()`` checked ``len(entry.pages) < cap``
        and inserted without a lock; concurrent clients with distinct
        windows could blow past the bound and race the dict."""
        from repro.ui.serving import MAX_PAGES_PER_ENTRY, _CacheEntry

        entry = _CacheEntry({"rows": []}, versions=(1,))
        n_threads, n_keys = 8, 64

        def worker(seed):
            def run():
                for k in range(n_keys):
                    key = ((seed * n_keys + k) % 97, 10)
                    memo = entry.get_page(key)
                    if memo is None:
                        entry.memo_page(key, {"page": key}, f"etag-{key}")

            return run

        run_threads([worker(s) for s in range(n_threads)])
        assert len(entry.pages) <= MAX_PAGES_PER_ENTRY

    def test_memoized_window_round_trips(self):
        from repro.ui.serving import _CacheEntry

        entry = _CacheEntry({"rows": []}, versions=(1,))
        entry.memo_page((0, 10), {"page": 1}, "etag-1")
        assert entry.get_page((0, 10)) == ({"page": 1}, "etag-1")
        assert entry.get_page((10, 10)) is None


class TestSessionTableRace:
    def test_concurrent_expired_token_checks_do_not_500(self):
        """Regression: two requests presenting the same expired token
        both reached ``del self._sessions[token]``; the loser raised
        KeyError, which surfaced as a 500."""
        from repro.auth.accounts import Session
        from repro.ui.rest import XdmodApi

        api = XdmodApi({}, {}, require_auth=True)
        now = time.time()
        expired = Session(
            token="tok-expired",
            username="u",
            instance="i",
            method="local",
            issued_at=now - 100.0,
            expires_at=now - 1.0,
            capabilities=frozenset(),
        )
        api._sessions[expired.token] = expired
        headers = {"Authorization": "Bearer tok-expired"}

        results = []

        def check():
            # pre-fix this raised KeyError on the losing thread
            results.append(api._authorized(headers))

        run_threads([check] * 8)
        assert results == [False] * 8
        assert "tok-expired" not in api._sessions

    def test_register_evicts_expired_and_keeps_live(self):
        from repro.auth.accounts import Session
        from repro.ui.rest import XdmodApi

        api = XdmodApi({}, {}, require_auth=True)
        now = time.time()

        def session(token, expires):
            return Session(
                token=token,
                username="u",
                instance="i",
                method="local",
                issued_at=now - 100.0,
                expires_at=expires,
                capabilities=frozenset(),
            )

        api._sessions["old"] = session("old", now - 1.0)
        api.register_session(session("new", now + 100.0))
        assert "old" not in api._sessions
        assert "new" in api._sessions
        assert api._authorized({"Authorization": "Bearer new"})


# -- production lock discipline under the sanitizer ---------------------------


class TestProductionPathsUnderSanitizer:
    def test_ingest_and_serve_cycle_has_no_inversions(self, lock_sanitizer):
        """Drive warehouse writes and cache traffic with the sanitizer
        active; the teardown gate fails the test on any inversion."""
        from repro.ui.serving import QueryCache

        db = Database()
        schema = db.create_schema("modw")
        table = schema.create_table(_table_schema("jobs"))
        cache = QueryCache(max_entries=4)

        def writer():
            for i in range(50):
                table.upsert_columns({"id": [i], "val": [float(i)]})

        def reader():
            for i in range(50):
                key = ("q", i % 8)
                versions = (schema.data_version,)
                entry, state = cache.lookup(key, versions)
                if entry is None:
                    cache.store(key, versions, {"i": i})

        run_threads([writer, reader])
        assert lock_sanitizer.inversions == ()

    def test_report_mentions_edge_counts(self):
        monitor = LockMonitor()
        a = SanitizedLock("A", monitor)
        b = SanitizedLock("B", monitor)
        with a, b:
            pass
        assert "1 order edge(s)" in monitor.report()


def _fail_on_inversions(monitor: LockMonitor) -> None:
    """Shared with the ``lock_sanitizer`` fixture teardown."""
    if monitor.inversions:
        pytest.fail(
            "lock-order inversion detected by the runtime sanitizer:\n"
            + monitor.report()
        )
