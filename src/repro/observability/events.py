"""Structured event log for worker-health lifecycle incidents.

Counters tell you *how many* fail-overs a run absorbed; the event log tells
you *which worker*, *when*, and *why*.  Each record is one flat dict with
a ``kind``, a wall-clock ``ts`` (``time.perf_counter()``, the same
monotonic timeline the tracer stamps spans with, so events line up with
spans in a Chrome trace) and kind-specific fields.

The log is **always on** — health events are rare (a healthy run emits
one ``worker_spawn`` per pool worker and nothing else), so there is no
hot-path cost to guard.  Emission sites sit exactly next to the counter
bumps they describe (or derive from the same ``WorkerReport`` fields the
counters do), which is what makes event↔counter reconciliation exact by
construction; the chaos harness asserts it.

Kinds emitted by the pool/scheduler stack:

``worker_spawn``           a pool worker process started (worker, pid)
``pool_failover``          a worker's assignment failed (reason, worker,
                           n_shards); it finished in-process and the pool
                           was closed for the rest of the call
``task_deadline_expired``  one task ran past the job deadline (task, worker)
``base_update``            a base-table update reached the scheduler (cells,
                           workers_patched, target_changed)
``deadline_expired``       the whole explain hit its deadline budget
"""

from __future__ import annotations

import json
import time


class EventLog:
    """An append-only list of structured lifecycle events.

    Cheap enough to always exist; query helpers (:meth:`count`,
    :meth:`filter`) are what the chaos tests reconcile counters against,
    and :meth:`to_jsonl`/:meth:`write` give the operator-facing JSON-lines
    form.
    """

    __slots__ = ("records",)

    def __init__(self):
        self.records: list[dict] = []

    def emit(self, kind: str, **fields) -> dict:
        record = {"kind": kind, "ts": time.perf_counter()}
        record.update(fields)
        self.records.append(record)
        return record

    def extend(self, records: "list[dict]") -> None:
        self.records.extend(records)

    # -- queries ----------------------------------------------------------------------

    def count(self, kind: str, **match) -> int:
        return len(self.filter(kind, **match))

    def filter(self, kind: "str | None" = None, **match) -> list[dict]:
        """Events of ``kind`` whose fields equal every ``match`` item."""
        out = []
        for record in self.records:
            if kind is not None and record["kind"] != kind:
                continue
            if all(record.get(key) == value for key, value in match.items()):
                out.append(record)
        return out

    def kinds(self) -> dict[str, int]:
        """Occurrence counts per kind, in first-seen order."""
        totals: dict[str, int] = {}
        for record in self.records:
            totals[record["kind"]] = totals.get(record["kind"], 0) + 1
        return totals

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # -- export -----------------------------------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(json.dumps(record, sort_keys=True) + "\n"
                       for record in self.records)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    def clear(self) -> None:
        self.records.clear()
