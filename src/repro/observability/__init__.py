"""Unified telemetry for the explain stack: metrics, spans, events.

Three complementary instruments, all read-only observers of the run (they
never feed values back, so bit-identity of estimates is preserved with
telemetry enabled or disabled — the golden-determinism grid pins that):

* :mod:`~repro.observability.metrics` — the :class:`MetricsRegistry` of
  typed counters (summed or high-water).  The oracle's ad-hoc statistics
  attributes are registry-backed (every counter keeps its public name and
  attribute semantics), and the merge rules that used to be hard-coded in
  ``aggregate_oracle_statistics`` are views over the registry's declared
  metric kinds.
* :mod:`~repro.observability.trace` — span-based tracing of the hot path
  (``explain_job → cell → shard → walk_prime → repair_pass → pair_eval``)
  with deterministic span ids derived from shard coordinates, so parent and
  resident-worker spans stitch into one tree without any cross-process
  coordination.  Exportable as Chrome-trace JSON (``--trace-out``).
  Disabled by default: every call site guards on
  :func:`~repro.observability.trace.current` returning ``None``.
* :mod:`~repro.observability.events` — an always-on structured event log
  (JSON lines) for the *rare* worker-health lifecycle events: spawn,
  fail-over, base update, deadline expiry.  The chaos
  harness asserts these reconcile exactly with the health counters.

See ``docs/OBSERVABILITY.md`` for the counter/span/event glossary and a
worked trace-reading example.
"""

from repro.observability.events import EventLog
from repro.observability.metrics import (
    MAX,
    SUM,
    Metric,
    MetricsRegistry,
    NullMetricsRegistry,
    ORACLE_METRICS,
)
from repro.observability.trace import Span, Tracer, coordinate_span_id

__all__ = [
    "EventLog",
    "MAX",
    "Metric",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "ORACLE_METRICS",
    "SUM",
    "Span",
    "Tracer",
    "coordinate_span_id",
]
