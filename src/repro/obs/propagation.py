"""Cross-member trace propagation and federated trace assembly.

A federation splits one logical operation — ingest a job record, binlog
it, pump it over a replication channel, apply it on the hub, aggregate —
across two independent instances, each with its own
:class:`~repro.obs.trace.Tracer`.  This module carries the trace across
that boundary:

- :class:`TraceContext` (defined beside the tracer that mints it, in
  :mod:`repro.obs.trace`, and re-exported here) is the wire format: the
  satellite's tracer exports its innermost live span (``tracer.current_context()``), the
  binlog records it per event at append time, and replication (tight
  deltas, dead letters, loose dumps) ships it to the hub.
- Hub-side spans opened with ``tracer.span(..., remote=ctx)`` *re-parent*
  under the shipped context: they join the satellite's trace id and
  point at the satellite span through its qualified id
  (``<instance>#<span id>``).
- :class:`FederatedTraceAssembler` stitches the spans of any number of
  tracers (or merged/parsed exports) back into whole per-trace trees and
  renders them deterministically — under a
  :class:`~repro.obs.clock.FakeClock` two identical runs render
  byte-identically.
"""

from __future__ import annotations

from typing import Iterable

from .trace import SpanRecord, TraceContext, Tracer, qualified_id

__all__ = ["TraceContext", "FederatedTraceAssembler"]


class FederatedTraceAssembler:
    """Stitch spans from several tracers into per-trace trees.

    Feed it tracers and/or iterables of :class:`SpanRecord` (e.g. a
    parsed JSONL export); every span is grouped by ``trace_id`` and
    linked to its parent — the local ``parent_id`` within the same
    instance, or the cross-instance ``remote_parent`` edge recorded by
    re-parented spans.
    """

    def __init__(self, *sources: "Tracer | Iterable[SpanRecord]") -> None:
        self._spans: list[SpanRecord] = []
        for source in sources:
            self.add(source)

    def add(self, source: "Tracer | Iterable[SpanRecord]") -> None:
        records = source.finished if isinstance(source, Tracer) else source
        self._spans.extend(records)

    # -- queries ---------------------------------------------------------------

    def trace_ids(self) -> list[str]:
        """Distinct trace ids, in first-seen order."""
        seen: dict[str, None] = {}
        for span in self._spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def spans_of(self, trace_id: str) -> list[SpanRecord]:
        """All spans of one trace, ordered deterministically."""
        spans = [s for s in self._spans if s.trace_id == trace_id]
        spans.sort(key=lambda s: (s.start_s, s.instance, s.span_id))
        return spans

    def reparented_spans(self, trace_id: str) -> list[SpanRecord]:
        """Spans of the trace that joined it through a remote context."""
        return [
            s for s in self.spans_of(trace_id) if s.remote_parent is not None
        ]

    def instances_of(self, trace_id: str) -> list[str]:
        return sorted({s.instance for s in self.spans_of(trace_id)})

    def assemble(self, trace_id: str) -> list[tuple[SpanRecord, int]]:
        """The trace as a depth-first list of ``(span, depth)``.

        Roots are spans whose parent (local or remote) is absent from the
        collected set — a trace whose satellite export was not merged
        still assembles, with the hub spans as roots.
        """
        spans = self.spans_of(trace_id)
        by_qid = {s.qualified_id: s for s in spans}
        children: dict[str | None, list[SpanRecord]] = {}
        for span in spans:
            parent_qid = None
            if span.remote_parent is not None:
                if span.remote_parent in by_qid:
                    parent_qid = span.remote_parent
            elif span.parent_id is not None:
                local = qualified_id(span.instance, span.parent_id)
                if local in by_qid:
                    parent_qid = local
            children.setdefault(parent_qid, []).append(span)

        out: list[tuple[SpanRecord, int]] = []

        def walk(parent_qid: str | None, depth: int) -> None:
            for span in children.get(parent_qid, ()):
                out.append((span, depth))
                walk(span.qualified_id, depth + 1)

        walk(None, 0)
        return out

    # -- rendering -------------------------------------------------------------

    def render(self, trace_id: str) -> str:
        """One trace as an indented tree (deterministic under FakeClock)."""
        rows = self.assemble(trace_id)
        lines = [
            f"trace {trace_id} "
            f"({len(rows)} spans across {len(self.instances_of(trace_id))} "
            f"instances)"
        ]
        for span, depth in rows:
            marker = "<=" if span.remote_parent is not None else "--"
            attrs = ""
            if span.attrs:
                attrs = " " + ",".join(
                    f"{k}={span.attrs[k]}" for k in sorted(span.attrs)
                )
            lines.append(
                f"  {'  ' * depth}{marker} {span.name} "
                f"[{span.qualified_id}] {span.duration_s * 1000:.3f} ms"
                + (f" (from {span.remote_parent})" if span.remote_parent else "")
                + attrs
            )
        return "\n".join(lines)

    def render_all(self) -> str:
        """Every collected trace, cross-instance traces first."""
        ids = sorted(
            self.trace_ids(),
            key=lambda tid: (-len(self.instances_of(tid)), tid),
        )
        if not ids:
            return "(no traces collected)"
        return "\n".join(self.render(tid) for tid in ids)
