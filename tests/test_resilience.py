"""Resilience primitives: retry policy, circuit breaker, dead letters."""

from __future__ import annotations

import pytest

from repro.core import (
    CircuitBreaker,
    CircuitState,
    DeadLetterQueue,
    MemberSyncOutcome,
    RetryPolicy,
)
from repro.warehouse import BinlogEvent, EventType


class TestRetryPolicy:
    def test_schedule_is_exponential_and_bounded(self):
        policy = RetryPolicy(
            max_retries=6, base_delay=1.0, multiplier=2.0, max_delay=10.0,
            jitter=0.0,
        )
        assert policy.schedule() == [1.0, 2.0, 4.0, 8.0, 10.0, 10.0]

    def test_jitter_is_deterministic_per_seed(self):
        a = RetryPolicy(max_retries=5, seed=42)
        b = RetryPolicy(max_retries=5, seed=42)
        c = RetryPolicy(max_retries=5, seed=43)
        assert a.schedule() == b.schedule()
        assert a.schedule() != c.schedule()

    def test_jitter_only_shrinks_delay(self):
        policy = RetryPolicy(max_retries=8, jitter=0.5, seed=1)
        plain = RetryPolicy(max_retries=8, jitter=0.0)
        for jittered, raw in zip(policy.schedule(), plain.schedule()):
            assert 0 < jittered <= raw

    def test_attempts_without_sleep_just_counts(self):
        assert list(RetryPolicy(max_retries=2).attempts()) == [0, 1, 2]


class TestCircuitBreaker:
    def test_initially_closed_and_allowing(self):
        breaker = CircuitBreaker()
        assert breaker.state is CircuitState.CLOSED
        assert breaker.allow()

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=2)
        breaker.record_failure("boom")
        breaker.record_failure("boom")
        assert breaker.state is CircuitState.CLOSED
        breaker.record_failure("boom")
        assert breaker.state is CircuitState.OPEN
        assert breaker.times_opened == 1
        assert breaker.last_error == "boom"

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is CircuitState.CLOSED

    def test_cooldown_then_half_open_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=2)
        breaker.record_failure("down")
        assert breaker.state is CircuitState.OPEN
        assert not breaker.allow()  # cooling down
        assert not breaker.allow()
        assert breaker.allow()  # probe
        assert breaker.state is CircuitState.HALF_OPEN

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is CircuitState.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.allow()
        breaker.record_failure("still down")
        assert breaker.state is CircuitState.OPEN
        assert breaker.times_opened == 2
        assert not breaker.allow()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0)


def _event(lsn: int) -> BinlogEvent:
    return BinlogEvent(lsn, EventType.INSERT, "fact_job", {"row": {"x": lsn}})


class TestDeadLetterQueue:
    def test_add_get_remove_in_lsn_order(self):
        dlq = DeadLetterQueue()
        dlq.add(_event(7), "seven", 3)
        dlq.add(_event(3), "three", 3)
        assert len(dlq) == 2
        assert dlq.lsns() == [3, 7]
        assert 3 in dlq and 5 not in dlq
        assert dlq.get(7).error == "seven"
        assert [letter.lsn for letter in dlq] == [3, 7]
        removed = dlq.remove(3)
        assert removed.attempts == 3
        assert dlq.lsns() == [7]
        dlq.clear()
        assert len(dlq) == 0


class TestMemberSyncOutcome:
    def test_carries_failure_detail(self):
        outcome = MemberSyncOutcome(
            "a", "failed", 0, retried=3, error="apply blew up"
        )
        assert outcome.status == "failed"
        assert outcome.retried == 3
        assert "apply blew up" in repr(outcome)
