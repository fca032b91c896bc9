"""Injectable clocks for telemetry.

Instrumented code never reads ``time.monotonic`` directly — it asks the
:class:`Clock` handed to it.  Production wiring uses
:class:`MonotonicClock`; tests and demos inject :class:`FakeClock` and
advance it themselves, so spans and histograms come out byte-identical
across runs.  Keeping the only
wall-clock read in this module (outside ``repro/core/``) is what lets the
replication layer stay clean under repolint's
``nondeterminism-in-replication`` rule without suppressions.
"""

from __future__ import annotations

import time


class Clock:
    """Monotonic-seconds time source interface."""

    def now(self) -> float:
        raise NotImplementedError


class MonotonicClock(Clock):
    """The real thing: wraps :func:`time.monotonic`."""

    def now(self) -> float:
        return time.monotonic()


class FakeClock(Clock):
    """Deterministic clock for tests.

    Reading it never moves it; only :meth:`advance` does, called by the
    test or demo at its own operation boundaries, so span durations,
    staleness and alert windows never depend on how often code reads it.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("FakeClock cannot run backwards")
        self._now += dt
