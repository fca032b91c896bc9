"""Federation resilience primitives: retry, circuit breaking, dead letters.

Production replication stacks (Tungsten included) assume member databases
will misbehave: transient apply errors, poison events that can never apply,
satellites that disappear for hours.  The paper's federation hub is only
useful if such failures degrade the aggregate view instead of destroying
it, so the reproduction gets the same three defensive layers:

- :class:`RetryPolicy` — exponential backoff with deterministic, seeded
  jitter.  Delays are *computed*, not slept, unless a ``sleep`` callable is
  supplied; the simulation cares about schedules and attempt counts, a real
  deployment would pass ``time.sleep``.
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
from dataclasses import dataclass
from typing import Any, Callable, Iterator

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
        Classic exponential schedule: attempt ``n`` waits
        ``min(base_delay * multiplier**n, max_delay)`` seconds.
    jitter:
        Fraction of the computed delay randomized away (0 disables).  The
        jitter stream is seeded so two policies built with the same seed
        produce identical schedules — tests and benchmarks are repeatable.
    sleep:
        Optional callable invoked with each delay.  ``None`` (default)
        records the schedule without waiting, which is what the in-memory
        simulation wants; pass ``time.sleep`` for real deployments.
    """

    max_retries: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.5
    seed: int = 0
    sleep: Callable[[float], None] | None = None

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

    def attempts(self) -> Iterator[int]:
        """Yield attempt numbers, invoking ``sleep`` between them."""
        for attempt in range(self.max_retries + 1):
            if attempt and self.sleep is not None:
                self.sleep(self.delay(attempt - 1))
            yield attempt


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


class MemberSyncOutcome:
    """Per-member result of one :meth:`FederationHub.sync` cycle.

    Backwards-compatible with the historical ``dict[str, int]`` return:
    comparisons, ``int()`` and addition all see the number of events (or
    rows) applied, so ``sum(hub.sync().values())`` and
    ``hub.sync()["site0"] > 0`` keep working while the resilience layer
    reports *why* a member applied nothing.

    ``status`` is one of ``applied`` (clean), ``retried`` (applied after
    transient failures), ``quarantined`` (events were dead-lettered this
    cycle), ``circuit_open`` (member skipped, breaker open), ``failed``
    (channel error, breaker notified), or ``idle`` (loose member during a
    live sync — they only move on :meth:`FederationHub.ship_loose`).
    """

    __slots__ = ("member", "status", "applied", "retried", "quarantined", "error")

    def __init__(
        self,
        member: str,
        status: str,
        applied: int = 0,
        *,
        retried: int = 0,
        quarantined: int = 0,
        error: str = "",
    ) -> None:
        self.member = member
        self.status = status
        self.applied = applied
        self.retried = retried
        self.quarantined = quarantined
        self.error = error

    def __int__(self) -> int:
        return self.applied

    def __index__(self) -> int:
        return self.applied

    def __add__(self, other: Any) -> Any:
        return self.applied + other

    __radd__ = __add__

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, MemberSyncOutcome):
            return (
                self.member == other.member
                and self.status == other.status
                and self.applied == other.applied
            )
        if isinstance(other, (int, float)):
            return self.applied == other
        return NotImplemented

    def __lt__(self, other: Any) -> bool:
        return self.applied < other

    def __le__(self, other: Any) -> bool:
        return self.applied <= other

    def __gt__(self, other: Any) -> bool:
        return self.applied > other

    def __ge__(self, other: Any) -> bool:
        return self.applied >= other

    def __hash__(self) -> int:
        return hash((self.member, self.status, self.applied))

    def __repr__(self) -> str:
        extra = ""
        if self.retried:
            extra += f", retried={self.retried}"
        if self.quarantined:
            extra += f", quarantined={self.quarantined}"
        if self.error:
            extra += f", error={self.error!r}"
        return (
            f"MemberSyncOutcome({self.member!r}, {self.status!r}, "
            f"applied={self.applied}{extra})"
        )
