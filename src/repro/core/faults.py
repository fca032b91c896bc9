"""Fault injection for federation testing and benchmarking.

Resilience claims are untestable without a way to make things break on
purpose.  This module injects the failure modes a real federation sees —
transient apply errors, poison events, stalled binlogs, corrupted or
truncated dump files — *deterministically*: every decision derives from a
seed and the event's LSN, never from call order, so a failing scenario
replays identically under a debugger.

The injectors wrap existing objects rather than patching them:

- :class:`FaultySchema` wraps a hub-side :class:`~repro.warehouse.Schema`
  and makes ``apply_event`` / ``apply_events`` fail according to a
  :class:`FaultPlan`;
- :class:`StalledCursor` wraps a :class:`~repro.warehouse.BinlogCursor`
  and returns nothing from ``poll`` for a configured number of cycles;
- :func:`corrupt_dump_file` / :func:`truncate_dump_file` damage loose
  federation shipments on disk.

Injected errors subclass :class:`InjectedFault` so tests can tell
manufactured failures from real bugs.
"""

from __future__ import annotations

import gzip
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from ..warehouse import BinlogCursor, BinlogEvent, Schema


class InjectedFault(Exception):
    """Base class for all manufactured failures."""


class TransientApplyFault(InjectedFault):
    """An apply error that clears after a bounded number of attempts."""


class PoisonApplyFault(InjectedFault):
    """An apply error that never clears until the operator heals it."""


@dataclass
class FaultPlan:
    """Deterministic description of which applies fail, and how.

    Parameters
    ----------
    seed:
        Root of all randomness; same seed + same LSNs => same faults.
    transient_rate:
        Probability (per LSN) that the event fails transiently.
    transient_lsns:
        Specific LSNs that fail transiently regardless of the rate —
        tests use this for exact scenarios, benchmarks use the rate.
    transient_burst:
        How many total failed attempts a transient LSN accumulates before
        it applies cleanly (1 means: fails once, succeeds on any retry).
    poison_lsns:
        LSNs that fail every attempt until :meth:`heal` is called.
    """

    seed: int = 0
    transient_rate: float = 0.0
    transient_lsns: frozenset[int] | set[int] = field(default_factory=frozenset)
    transient_burst: int = 1
    poison_lsns: frozenset[int] | set[int] = field(default_factory=frozenset)
    _healed: set[int] = field(default_factory=set, repr=False)

    def is_transient(self, lsn: int) -> bool:
        """Whether this LSN is in the transient-failure population."""
        if lsn in self.transient_lsns:
            return True
        if self.transient_rate <= 0:
            return False
        # seeded per-LSN: independent of the order in which LSNs are seen
        return random.Random(f"{self.seed}:t:{lsn}").random() < self.transient_rate

    def is_poison(self, lsn: int) -> bool:
        return lsn in self.poison_lsns and lsn not in self._healed

    def heal(self, *lsns: int) -> None:
        """Clear poison faults (the operator fixed the underlying cause).

        With no arguments, heals every poison LSN.
        """
        self._healed.update(lsns or self.poison_lsns)

    def should_fail(self, lsn: int, attempt: int) -> Exception | None:
        """The error attempt number ``attempt`` (0-based) of ``lsn`` hits,
        or ``None`` for a clean apply."""
        if self.is_poison(lsn):
            return PoisonApplyFault(f"injected poison event at LSN {lsn}")
        if self.is_transient(lsn) and attempt < self.transient_burst:
            return TransientApplyFault(
                f"injected transient fault at LSN {lsn} (attempt {attempt})"
            )
        return None


class FaultySchema:
    """A :class:`~repro.warehouse.Schema` proxy whose applies fail to plan.

    ``apply_event`` and ``apply_events`` raise what the :class:`FaultPlan`
    holds for the LSNs they are given.

    Everything else delegates to the wrapped schema, so a replication
    channel (or anything downstream) cannot tell the difference.  Attempt
    counts are tracked per LSN so transient bursts clear exactly as the
    plan specifies, including across separate ``pump()`` calls.
    """

    def __init__(self, target: Schema, plan: FaultPlan) -> None:
        self._target = target
        self.plan = plan
        self.attempts: dict[int, int] = {}
        self.faults_raised = 0

    def apply_event(self, event: BinlogEvent) -> None:
        attempt = self.attempts.get(event.lsn, 0)
        self.attempts[event.lsn] = attempt + 1
        error = self.plan.should_fail(event.lsn, attempt)
        if error is not None:
            self.faults_raised += 1
            raise error
        self._target.apply_event(event)

    def apply_events(self, events: Sequence[BinlogEvent]) -> None:
        """Refuse the whole run with the first fault the plan holds for any
        of its LSNs, consuming no attempt: the channel then applies the run
        event by event through :meth:`apply_event`, which counts attempts
        per LSN exactly as if there had been no batch."""
        for event in events:
            error = self.plan.should_fail(
                event.lsn, self.attempts.get(event.lsn, 0)
            )
            if error is not None:
                raise error
        self._target.apply_events(events)
        for event in events:
            self.attempts[event.lsn] = self.attempts.get(event.lsn, 0) + 1

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)


def inject_apply_faults(channel: "Any", plan: FaultPlan) -> FaultySchema:
    """Wrap ``channel.target`` in a :class:`FaultySchema` in place.

    Works on any object with a ``target`` schema attribute (a
    :class:`~repro.core.ReplicationChannel`).  Returns the wrapper so the
    caller can heal or inspect it.
    """
    wrapper = FaultySchema(channel.target, plan)
    channel.target = wrapper
    return wrapper


class StalledCursor:
    """A :class:`~repro.warehouse.BinlogCursor` proxy that yields nothing
    for the first ``stall_polls`` polls — a satellite whose binlog tailer
    has wedged.  Lag keeps growing while stalled; replication resumes (and
    catches up) once the stall clears."""

    def __init__(self, cursor: BinlogCursor, stall_polls: int) -> None:
        self._cursor = cursor
        self.stall_polls = stall_polls
        self.polls_seen = 0

    @property
    def stalled(self) -> bool:
        return self.polls_seen < self.stall_polls

    def poll(self, max_events: int | None = None) -> list[BinlogEvent]:
        self.polls_seen += 1
        if self.polls_seen <= self.stall_polls:
            return []
        return self._cursor.poll(max_events)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._cursor, name)


def stall_binlog(channel: "Any", polls: int) -> StalledCursor:
    """Wrap ``channel.cursor`` so the next ``polls`` polls return nothing."""
    wrapper = StalledCursor(channel.cursor, polls)
    channel.cursor = wrapper
    return wrapper


# -- dump-file damage ---------------------------------------------------------


def corrupt_dump_file(
    path: str | Path, *, seed: int = 0, mode: str = "payload"
) -> Path:
    """Flip one byte of a dump file, deterministically.

    ``mode="payload"`` flips a byte of the decompressed JSON document and
    recompresses — the file still *parses*, so only content verification
    (the dump checksum) can catch it.  ``mode="raw"`` flips a byte of the
    file as stored, which breaks the gzip framing or the JSON syntax —
    the parse/decompress layer must catch that.
    """
    path = Path(path)
    raw = path.read_bytes()
    rng = random.Random(f"{seed}:{path.name}")
    if mode == "payload":
        compressed = raw[:2] == b"\x1f\x8b"
        payload = bytearray(gzip.decompress(raw) if compressed else raw)
        # flip a digit inside the row data so the JSON stays syntactically
        # valid but the content checksum no longer matches
        digits = [i for i, b in enumerate(payload) if chr(b).isdigit()]
        if not digits:  # pragma: no cover - dumps always carry numbers
            raise ValueError(f"no numeric payload to corrupt in {path}")
        pos = rng.choice(digits)
        payload[pos] = ord(str((int(chr(payload[pos])) + 1) % 10))
        out = bytes(payload)
        path.write_bytes(gzip.compress(out) if compressed else out)
    elif mode == "raw":
        body = bytearray(raw)
        pos = rng.randrange(len(body))
        body[pos] ^= 0xFF
        path.write_bytes(bytes(body))
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return path


def truncate_dump_file(path: str | Path, *, keep_fraction: float = 0.5) -> Path:
    """Cut a dump file short — a shipment interrupted mid-transfer."""
    if not 0 <= keep_fraction < 1:
        raise ValueError("keep_fraction must be in [0, 1)")
    path = Path(path)
    raw = path.read_bytes()
    path.write_bytes(raw[: int(len(raw) * keep_fraction)])
    return path
