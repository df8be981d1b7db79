"""Span-based tracing of the explain hot path.

One :class:`Tracer` per process records :class:`Span` records for the
nested phases of an explain run::

    explain_job → cell → shard → walk_prime / repair_pass / pair_eval

Tracing is **off by default** and zero-cost when off: every instrumented
call site reads :func:`current` (a module global plus a pid check) and
skips all span work on ``None``.  Spans observe wall-clock only; they never
touch a random stream, so estimates are bit-identical with tracing on or
off (golden-tested).

Cross-process stitching
-----------------------

Shard spans executed inside resident workers must parent onto cell spans
the *parent* process owns, with no coordination channel.  The trick is the
same one the seeding layer uses: identity from coordinates.
:func:`coordinate_span_id` hashes ``(job_seed, kind, *coords)`` into a
64-bit id, so the worker derives its shard span's id — and its parent cell
span's id — from ``(job_seed, cell_position, chunk_index)`` alone, and the
parent synthesises cell spans under the *same* ids after the run.  Workers
ship their finished spans home inside :class:`~repro.parallel.job.WorkerReport`
(:meth:`Tracer.drain` → :meth:`Tracer.adopt`); a forked worker never
inherits the parent's tracer because :func:`current` rejects a tracer
whose pid is not this process's.

Timestamps are ``time.perf_counter()`` (CLOCK_MONOTONIC on Linux, shared
by forked children), so parent and worker spans land on one comparable
timeline.  :meth:`Tracer.write_chrome_trace` exports the Chrome
``traceEvents`` JSON format — load it in ``chrome://tracing`` or Perfetto;
the parent's spans render as tid 0 and each worker's as tid
``worker_index + 1``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager


def coordinate_span_id(*coordinates) -> int:
    """A deterministic 64-bit span id from seed/shard coordinates.

    Stable across processes and runs: any party knowing the coordinates
    derives the same id, which is what lets worker shard spans stitch onto
    parent cell spans without communication.
    """
    payload = repr(coordinates).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


class Span:
    """One timed phase: name, tree links, timeline, provenance."""

    __slots__ = ("name", "span_id", "parent_id", "start", "duration", "worker", "meta")

    def __init__(self, name: str, span_id: int, parent_id: "int | None",
                 start: float, duration: float = 0.0,
                 worker: "int | None" = None, meta: "dict | None" = None):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.duration = duration
        #: worker index the span ran on; ``None`` = the parent process
        self.worker = worker
        self.meta = meta or {}

    @property
    def end(self) -> float:
        return self.start + self.duration

    def __getstate__(self):
        return (self.name, self.span_id, self.parent_id, self.start,
                self.duration, self.worker, self.meta)

    def __setstate__(self, state):
        (self.name, self.span_id, self.parent_id, self.start,
         self.duration, self.worker, self.meta) = state

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Span({self.name!r}, id={self.span_id:#x}, "
                f"dur={self.duration * 1e3:.3f}ms)")


class Tracer:
    """Collects spans for one process; implicit parenting via a span stack."""

    __slots__ = ("pid", "spans", "events", "_stack", "_next_local")

    def __init__(self):
        self.pid = os.getpid()
        #: finished spans, in finish order
        self.spans: list[Span] = []
        #: structured event-log records adopted from schedulers/pools, so a
        #: trace export carries the worker-health incidents of its run
        self.events: list[dict] = []
        self._stack: list[Span] = []
        self._next_local = 0

    # -- recording --------------------------------------------------------------------

    def start(self, name: str, span_id: "int | None" = None,
              parent_id: "int | None" = None, **meta) -> Span:
        """Open a span; without an explicit parent the innermost open span is it.

        Spans without a coordinate-derived ``span_id`` get a process-local
        one (pid-salted so ids from different processes cannot collide
        after adoption).
        """
        if span_id is None:
            self._next_local += 1
            span_id = coordinate_span_id("local", self.pid, self._next_local)
        if parent_id is None and self._stack:
            parent_id = self._stack[-1].span_id
        span = Span(name, span_id, parent_id, time.perf_counter(), meta=meta)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> Span:
        """Close a span, stamping its duration and filing it as finished."""
        span.duration = time.perf_counter() - span.start
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - unbalanced finish
            self._stack.remove(span)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, span_id: "int | None" = None,
             parent_id: "int | None" = None, **meta):
        opened = self.start(name, span_id=span_id, parent_id=parent_id, **meta)
        try:
            yield opened
        finally:
            self.finish(opened)

    def record(self, name: str, span_id: int, parent_id: "int | None",
               start: float, duration: float, worker: "int | None" = None,
               **meta) -> Span:
        """File an already-timed span (the parent's stitched cell spans)."""
        span = Span(name, span_id, parent_id, start, duration, worker, meta)
        self.spans.append(span)
        return span

    # -- shipping ---------------------------------------------------------------------

    def drain(self) -> list[Span]:
        """Hand over (and forget) the finished spans — the worker→parent hop."""
        spans, self.spans = self.spans, []
        return spans

    def adopt(self, spans: "list[Span]", worker: "int | None" = None) -> None:
        """File spans shipped from a worker, stamping their provenance."""
        if worker is not None:
            for span in spans:
                if span.worker is None:
                    span.worker = worker
        self.spans.extend(spans)

    # -- views ------------------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per-name totals: ``{name: {count, total_seconds, max_seconds}}``."""
        totals: dict[str, dict] = {}
        for span in self.spans:
            entry = totals.setdefault(
                span.name, {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0}
            )
            entry["count"] += 1
            entry["total_seconds"] += span.duration
            if span.duration > entry["max_seconds"]:
                entry["max_seconds"] = span.duration
        for entry in totals.values():
            entry["total_seconds"] = round(entry["total_seconds"], 6)
            entry["max_seconds"] = round(entry["max_seconds"], 6)
        return totals

    def extent(self) -> float:
        """Wall-clock seconds from the earliest span start to the latest end."""
        if not self.spans:
            return 0.0
        return (max(span.end for span in self.spans)
                - min(span.start for span in self.spans))

    def chrome_events(self, events: "list[dict] | None" = None) -> list[dict]:
        """The spans as Chrome ``traceEvents`` (plus optional instant events).

        Complete ("X") events carry microsecond timestamps on the shared
        monotonic timeline; tid 0 is the parent process, tid ``n + 1``
        worker ``n``.  ``events`` (structured event-log records with a
        ``ts`` wall-clock field) are appended as instant ("i") events so
        worker-health incidents line up with the spans that felt them;
        records adopted into :attr:`events` are always included.
        """
        records = []
        for span in self.spans:
            args = dict(span.meta)
            args["span_id"] = f"{span.span_id:#x}"
            if span.parent_id is not None:
                args["parent_id"] = f"{span.parent_id:#x}"
            records.append({
                "name": span.name,
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": 0 if span.worker is None else span.worker + 1,
                "args": args,
            })
        for event in list(self.events) + list(events or ()):
            fields = {key: value for key, value in event.items()
                      if key not in ("kind", "ts")}
            records.append({
                "name": event.get("kind", "event"),
                "ph": "i",
                "ts": round(event.get("ts", 0.0) * 1e6, 3),
                "pid": 1,
                "tid": 0,
                "s": "g",
                "args": fields,
            })
        return records

    def write_chrome_trace(self, path, events: "list[dict] | None" = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.chrome_events(events)}, handle)


#: the process-global tracer; ``None`` = tracing disabled (the default)
_tracer: "Tracer | None" = None


def current() -> "Tracer | None":
    """The active tracer of *this* process, or ``None`` when disabled.

    A forked worker inherits the parent's module global but must not record
    into the parent's object (those spans would be lost — they live in the
    child's copy): a tracer whose pid is not ours reads as disabled, and
    the worker entry points install their own when the job asks for
    tracing.  This is the one branch every instrumented call site pays
    when tracing is off.
    """
    tracer = _tracer
    if tracer is None or tracer.pid != os.getpid():
        return None
    return tracer


def enable() -> Tracer:
    """Install (and return) a fresh tracer for this process."""
    global _tracer
    _tracer = Tracer()
    return _tracer


def disable() -> "Tracer | None":
    """Stop tracing; returns the tracer that was active, spans intact."""
    global _tracer
    tracer, _tracer = _tracer, None
    return tracer


@contextmanager
def tracing():
    """Context-managed :func:`enable`/:func:`disable` (tests, benchmarks)."""
    tracer = enable()
    try:
        yield tracer
    finally:
        disable()
