"""Federation resilience primitives: retry, circuit breaking, dead letters.

Production replication stacks (Tungsten included) assume member databases
will misbehave: transient apply errors, poison events that can never apply,
satellites that disappear for hours.  The paper's federation hub is only
useful if such failures degrade the aggregate view instead of destroying
it, so the reproduction gets the same three defensive layers:

- :class:`RetryPolicy` — exponential backoff with deterministic, seeded
  jitter.  Delays are *computed*, never slept: a channel adds each one to
  its ``backoff_s`` counter, so the simulation keeps the schedule and the
  attempt counts without any code here reading or waiting on a clock.
- :class:`CircuitBreaker` — the classic closed / open / half-open machine,
  measured in sync cycles rather than wall-clock time.  A member whose
  channel keeps failing stops consuming sync work, then gets re-probed
  automatically after a cooldown.
- :class:`DeadLetterQueue` — LSN-addressed quarantine for poison events.
  A quarantined event is skipped (the cursor advances past it) but never
  forgotten: :meth:`ReplicationChannel.replay` re-applies it once the
  operator has fixed the cause.
"""

from __future__ import annotations

import enum
import random
from dataclasses import KW_ONLY, dataclass
from typing import Any, Iterator

from ..warehouse import BinlogEvent


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with bounded, deterministically seeded jitter.

    Parameters
    ----------
    max_retries:
        Re-attempts after the first failure (total attempts =
        ``max_retries + 1``).
    base_delay / multiplier / max_delay:
        Classic exponential schedule: retry ``n``'s delay is
        ``min(base_delay * multiplier**n, max_delay)`` seconds, computed
        but never slept; a channel sums it in ``ChannelStats.backoff_s``.
    jitter:
        Fraction of the computed delay randomized away (0 disables).  The
        jitter stream is seeded so two policies built with the same seed
        produce identical schedules — tests and benchmarks are repeatable.
    """

    max_retries: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.5
    seed: int = 0

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), jitter applied."""
        raw = min(self.base_delay * (self.multiplier ** attempt), self.max_delay)
        if not self.jitter:
            return raw
        rng = random.Random(f"{self.seed}:{attempt}")
        return raw * (1.0 - self.jitter * rng.random())

    def schedule(self) -> list[float]:
        """The full backoff schedule this policy would follow."""
        return [self.delay(i) for i in range(self.max_retries)]

    def attempts(self) -> range:
        """Attempt numbers, the first try included."""
        return range(self.max_retries + 1)


class CircuitState(enum.Enum):
    """Breaker states, in the canonical closed -> open -> half-open cycle."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-member circuit breaker, clocked in sync cycles.

    ``allow()`` is asked once per sync cycle.  While CLOSED every cycle is
    allowed; ``failure_threshold`` consecutive failures trip the breaker
    OPEN, after which ``cooldown`` cycles are refused outright (the member
    consumes no sync work).  The next cycle after cooldown runs HALF_OPEN:
    one probe is allowed, and its outcome either closes the breaker
    (recovery) or re-opens it for another cooldown.
    """

    def __init__(self, *, failure_threshold: int = 3, cooldown: int = 2) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown < 1:
            raise ValueError("cooldown must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.state = CircuitState.CLOSED
        self.consecutive_failures = 0
        self.total_failures = 0
        self.times_opened = 0
        self.last_error: str = ""
        self._cooldown_left = 0

    def allow(self) -> bool:
        """May this sync cycle touch the member?  (Advances the cooldown.)"""
        if self.state is not CircuitState.OPEN:
            return True
        self._cooldown_left -= 1
        if self._cooldown_left > 0:
            return False
        self.state = CircuitState.HALF_OPEN
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = CircuitState.CLOSED

    def record_failure(self, error: str = "") -> None:
        self.total_failures += 1
        self.last_error = error
        if self.state is CircuitState.HALF_OPEN:
            self._trip()
            return
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self.state = CircuitState.OPEN
        self.times_opened += 1
        self.consecutive_failures = 0
        self._cooldown_left = self.cooldown + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker(state={self.state.value}, "
            f"failures={self.total_failures}, opened={self.times_opened})"
        )


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined event: the event, why it failed, how hard we tried.

    ``trace`` keeps the propagation context the event carried when it was
    quarantined (a :class:`~repro.obs.TraceContext`, or None),
    so a later :meth:`ReplicationChannel.replay` re-links to the original
    federated trace.
    """

    lsn: int
    event: BinlogEvent
    error: str
    attempts: int
    trace: Any = None


class DeadLetterQueue:
    """LSN-addressed store of quarantined events for one channel."""

    def __init__(self) -> None:
        self._letters: dict[int, DeadLetter] = {}

    def add(
        self, event: BinlogEvent, error: str, attempts: int, *, trace: Any = None
    ) -> DeadLetter:
        letter = DeadLetter(event.lsn, event, error, attempts, trace)
        self._letters[event.lsn] = letter
        return letter

    def lsns(self) -> list[int]:
        return sorted(self._letters)

    def get(self, lsn: int) -> DeadLetter:
        return self._letters[lsn]

    def remove(self, lsn: int) -> DeadLetter:
        return self._letters.pop(lsn)

    def clear(self) -> None:
        self._letters.clear()

    def __len__(self) -> int:
        return len(self._letters)

    def __contains__(self, lsn: int) -> bool:
        return lsn in self._letters

    def __iter__(self) -> Iterator[DeadLetter]:
        return iter(self._letters[lsn] for lsn in self.lsns())


@dataclass(frozen=True)
class MemberSyncOutcome:
    """Per-member result of one :meth:`FederationHub.sync` cycle.

    ``applied`` counts the events (or rows) applied; ``status`` says why
    a member applied nothing: one of ``applied`` (clean), ``retried``
    (applied after transient failures), ``quarantined`` (events were
    dead-lettered this cycle), ``circuit_open`` (member skipped, breaker
    open), ``failed`` (channel error, breaker notified), or ``idle``
    (loose member during a live sync — they only move on
    :meth:`FederationHub.ship_loose`).
    """

    member: str
    status: str
    applied: int = 0
    _: KW_ONLY
    retried: int = 0
    quarantined: int = 0
    error: str = ""
