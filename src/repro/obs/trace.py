"""Nested span tracing with a context-manager API.

Spans nest per thread (a thread-local stack supplies parent ids), carry
free-form attributes, and are finished in the order they close.  Ids are
sequential integers under a lock — no uuids, no randomness — and
timestamps come from the injected :class:`~repro.obs.clock.Clock`, so a
trace produced under a :class:`~repro.obs.clock.FakeClock` is
byte-identical across runs (``sort_keys`` JSONL export).

Federation extension: every span belongs to a *trace*.  A root span
mints a deterministic trace id (``<tracer name>:<span id>``); nested
spans inherit their parent's.  :meth:`Tracer.current_context` exports
the innermost live span as a :class:`TraceContext`
that replication attaches to binlog events and loose dumps, and
``tracer.span(..., remote=ctx)`` *re-parents* a hub-side span under that
satellite context: the span adopts the remote trace id and records the
remote parent's qualified id (``<instance>#<span id>``) so the
federated-trace assembler can stitch the two tracers' spans into one
tree.  :meth:`Tracer.merge_remote` imports another tracer's finished
spans wholesale (ids stay unambiguous because every span carries its
instance name).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from ..analysis.sanitizer import create_lock
from .clock import Clock, MonotonicClock

__all__ = ["SpanRecord", "TraceContext", "Tracer"]


def qualified_id(instance: str, span_id: int) -> str:
    """Federation-unique span id: ``<instance>#<span id>``."""
    return f"{instance}#{span_id}"


@dataclass(frozen=True)
class TraceContext:
    """Propagation context for one live span.

    ``trace_id`` names the whole federated trace; ``span_id`` /
    ``instance`` name the span that was live when the context was
    captured (the future remote parent of any re-parented span).
    """

    trace_id: str
    span_id: int
    instance: str

    @property
    def qualified_span(self) -> str:
        return qualified_id(self.instance, self.span_id)

    def to_payload(self) -> dict[str, Any]:
        """JSON-safe dict shipped inside loose dumps and dead letters."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "instance": self.instance,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any] | None) -> "TraceContext | None":
        if not payload:
            return None
        try:
            return cls(
                trace_id=str(payload["trace_id"]),
                span_id=int(payload["span_id"]),
                instance=str(payload["instance"]),
            )
        except (KeyError, TypeError, ValueError):
            return None


@dataclass
class SpanRecord:
    """One finished span."""

    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    end_s: float
    attrs: dict = field(default_factory=dict)
    trace_id: str = ""
    instance: str = ""
    remote_parent: str | None = None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def qualified_id(self) -> str:
        return qualified_id(self.instance, self.span_id)

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
            "trace_id": self.trace_id,
            "instance": self.instance,
            "remote_parent": self.remote_parent,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanRecord":
        return cls(
            span_id=int(payload["span_id"]),
            parent_id=payload.get("parent_id"),
            name=payload["name"],
            start_s=float(payload["start_s"]),
            end_s=float(payload["end_s"]),
            attrs=dict(payload.get("attrs", {})),
            trace_id=payload.get("trace_id", ""),
            instance=payload.get("instance", ""),
            remote_parent=payload.get("remote_parent"),
        )


class _Span:
    """Live span; records itself on the tracer when the block exits."""

    __slots__ = (
        "tracer", "name", "attrs", "remote",
        "span_id", "parent_id", "trace_id", "remote_parent", "start_s",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict, remote=None) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.remote = remote

    def annotate(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.span_id = tracer._next_id()
        stack = tracer._stack()
        self.parent_id = stack[-1][0] if stack else None
        remote = self.remote
        if remote is not None:
            # re-parented under a context shipped from another instance:
            # join the remote trace and remember the cross-instance edge
            self.trace_id = remote.trace_id
            self.remote_parent = qualified_id(remote.instance, remote.span_id)
        elif stack:
            self.trace_id = stack[-1][1]
            self.remote_parent = None
        else:
            self.trace_id = tracer._mint_trace_id(self.span_id)
            self.remote_parent = None
        stack.append((self.span_id, self.trace_id))
        self.start_s = tracer.clock.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_s = self.tracer.clock.now()
        stack = self.tracer._stack()
        if stack and stack[-1][0] == self.span_id:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._record(
            SpanRecord(
                self.span_id, self.parent_id, self.name,
                self.start_s, end_s, self.attrs,
                trace_id=self.trace_id,
                instance=self.tracer.name,
                remote_parent=self.remote_parent,
            )
        )
        return False


class _NoopSpan:
    __slots__ = ()

    def annotate(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects finished spans in a bounded ring buffer.

    ``max_spans`` caps the in-memory buffer: overflow evicts the
    *oldest* finished span (long-running ``serve`` sessions keep the
    most recent traces, not the boot-time ones) and counts the eviction
    in ``spans_dropped`` — and, once :meth:`bind_metrics` has been
    called, in the ``obs_spans_dropped_total`` counter.

    ``name`` identifies the owning instance inside a federation; it tags
    every finished span and prefixes minted trace ids, which keeps span
    references unambiguous when several tracers' exports are merged.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        *,
        enabled: bool = True,
        max_spans: int = 10000,
        name: str = "",
    ) -> None:
        self.clock = clock if clock is not None else MonotonicClock()
        self.enabled = enabled
        self.max_spans = max_spans
        self.name = name
        self.spans_dropped = 0
        self._spans: deque[SpanRecord] = deque()
        self._id_lock = create_lock("Tracer.id")  # guards: _id, _spans, spans_dropped
        self._id = 0
        self._local = threading.local()
        self._c_dropped = None  # bound by bind_metrics()

    def bind_metrics(self, registry) -> None:
        """Expose ring-buffer evictions as ``obs_spans_dropped_total``.

        Called by :class:`~repro.obs.Observability` at construction; safe
        to call again (registration is idempotent).
        """
        self._c_dropped = registry.counter(
            "obs_spans_dropped_total",
            "Finished spans evicted from the tracer ring buffer",
        )

    def _next_id(self) -> int:
        with self._id_lock:
            self._id += 1
            return self._id

    def _mint_trace_id(self, root_span_id: int) -> str:
        return f"{self.name or 'trace'}:{root_span_id:06d}"

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, record: SpanRecord) -> None:
        dropped = False
        with self._id_lock:
            if self.max_spans <= 0:
                self.spans_dropped += 1
                dropped = True
            else:
                if len(self._spans) >= self.max_spans:
                    self._spans.popleft()
                    self.spans_dropped += 1
                    dropped = True
                self._spans.append(record)
        # counter bump outside the id lock: first resolution may take the
        # metric family's child lock, and Tracer.id must stay a leaf
        if dropped and self._c_dropped is not None:
            self._c_dropped.inc()

    def span(self, name: str, *, remote=None, **attrs):
        """``with tracer.span("stage", key=value): ...``

        ``remote`` (a :class:`~repro.obs.TraceContext`)
        re-parents the span under a context propagated from another
        instance: the span joins the remote trace instead of minting or
        inheriting a local one.
        """
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, name, attrs, remote)

    def current_context(self):
        """The innermost live span as a propagation context (or None).

        Returned contexts are attached to binlog events at append time
        (see :class:`~repro.warehouse.binlog.Binlog`) and travel with
        replication deltas and loose dumps.
        """
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        span_id, trace_id = stack[-1]
        return TraceContext(
            trace_id=trace_id, span_id=span_id, instance=self.name
        )

    def merge_remote(self, spans: Iterable[SpanRecord | dict]) -> int:
        """Import finished spans from another tracer (or a parsed JSONL
        export).  Returns the number of spans merged.

        Imported records keep their own span ids and instance tags —
        federation-wide references use the qualified ``instance#id`` form,
        so no renumbering is needed.  The buffer cap applies as usual.
        """
        merged = 0
        for record in spans:
            if isinstance(record, dict):
                record = SpanRecord.from_dict(record)
            self._record(record)
            merged += 1
        return merged

    @property
    def finished(self) -> tuple[SpanRecord, ...]:
        with self._id_lock:
            return tuple(self._spans)

    def clear(self) -> None:
        with self._id_lock:
            self._spans.clear()
            self.spans_dropped = 0

    # -- export ----------------------------------------------------------------

    def iter_jsonl(self) -> Iterator[str]:
        for record in self.finished:
            yield json.dumps(record.to_dict(), sort_keys=True)

    def to_jsonl(self) -> str:
        lines = list(self.iter_jsonl())
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path) -> int:
        """Append-free JSONL dump; returns the number of spans written."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return len(self.finished)

    # -- slow-span report ------------------------------------------------------

    def slow_spans(self, top: int = 10) -> list[dict]:
        """Per-name aggregates sorted by total time, worst first."""
        groups: dict[str, dict] = {}
        for record in self.finished:
            g = groups.setdefault(
                record.name,
                {"name": record.name, "count": 0, "total_s": 0.0, "max_s": 0.0},
            )
            g["count"] += 1
            g["total_s"] += record.duration_s
            g["max_s"] = max(g["max_s"], record.duration_s)
        for g in groups.values():
            g["mean_s"] = g["total_s"] / g["count"]
        ordered = sorted(
            groups.values(), key=lambda g: (-g["total_s"], g["name"])
        )
        return ordered[:top]

    def render_slow_report(self, top: int = 10) -> str:
        rows = self.slow_spans(top)
        lines = [
            f"slow spans (top {top} by total time; "
            f"{len(self.finished)} recorded, {self.spans_dropped} dropped)",
            f"{'span':<28} {'count':>7} {'total_s':>10} {'mean_s':>10} {'max_s':>10}",
        ]
        for g in rows:
            lines.append(
                f"{g['name']:<28} {g['count']:>7} {g['total_s']:>10.4f} "
                f"{g['mean_s']:>10.6f} {g['max_s']:>10.6f}"
            )
        if not rows:
            lines.append("(no spans recorded)")
        return "\n".join(lines)
