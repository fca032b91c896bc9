"""Live replication: the always-on pump behind tight federation.

"Once data is ingested on the individual XDMoD instances, it undergoes
live replication to the central federation hub database."  Tungsten runs
as a daemon; :class:`LiveReplicator` is the equivalent — a background
thread that drains every tight channel of a hub on a short interval, so
satellite commits appear on the hub without anyone calling
:meth:`~repro.core.FederationHub.sync`.

Thread-safety: binlogs are lock-protected, and appliers touch only the
hub-side schemas this thread owns while it runs.  Call :meth:`stop` (or
use the context manager) before querying the hub from another thread,
:meth:`~LiveReplicator.wait_until_current` aside: it waits on a
condition the daemon notifies after each cycle, not on a clock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..analysis.sanitizer import create_lock
from .federation import FederationHub


@dataclass
class LiveStats:
    """Counters observable while the daemon runs."""

    cycles: int = 0
    events_applied: int = 0
    errors: int = 0
    last_error: str = ""


class LiveReplicator:
    """Background sync loop over one hub's tight channels."""

    def __init__(self, hub: FederationHub, *, interval_s: float = 0.05) -> None:
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.hub = hub
        self.interval_s = interval_s
        self.stats = LiveStats()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        #: notified after every cycle and on stop: when the lag can move
        self._cycled = threading.Condition(create_lock("LiveReplicator"))

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _loop(self) -> None:
        while not self._stop_event.is_set():
            try:
                outcomes = self.hub.sync()
                self.stats.events_applied += sum(o.applied for o in outcomes.values())
            # repolint: ignore[overbroad-except] -- daemon loop must survive any sync failure; error is surfaced via LiveStats
            except Exception as exc:
                self.stats.errors += 1
                self.stats.last_error = str(exc)
            self.stats.cycles += 1
            with self._cycled:
                self._cycled.notify_all()
            self._stop_event.wait(self.interval_s)

    def start(self) -> "LiveReplicator":
        if self.running:
            raise RuntimeError("live replicator already running")
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name=f"live-replicator-{self.hub.name}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, *, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop the loop; with ``drain`` do one final catch-up so the hub
        is current at the moment of shutdown."""
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        with self._cycled:
            self._cycled.notify_all()
        if drain:
            outcomes = self.hub.sync()
            self.stats.events_applied += sum(o.applied for o in outcomes.values())

    def wait_until_current(self, *, timeout: float = 10.0) -> bool:
        """Block until every tight channel reports zero lag (False after
        ``timeout`` seconds).  Loose members move only when shipped, and a
        stopped daemon moves nothing, so neither is waited on."""
        tight = [m.channel for m in self.hub.members if m.mode == "tight"]

        def current() -> bool:
            return not any(channel.lag for channel in tight)

        with self._cycled:
            self._cycled.wait_for(lambda: current() or not self.running, timeout)
        return current()

    def __enter__(self) -> "LiveReplicator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
