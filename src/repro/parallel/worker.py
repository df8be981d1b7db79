"""Worker-side execution: build (or reuse) a resident oracle stack, drain shards.

:func:`run_resident_worker` looks the oracle stack up in (or installs it
into) a worker-lifetime ``resident`` dict keyed by the job-spec fingerprint,
so repeated rounds of the same job skip the rebuild entirely; only the
*diff* of cache entries inserted since the worker's last sync (a per-worker
high-water mark over
:meth:`~repro.repair.cache.OracleCache.entries_since`) plus this round's
counter deltas travel home.  :func:`run_base_update_worker` patches a
resident stack in place for a base-table update.

The spec arrives as a live object (in-process execution) or as pickled
bytes (the multi-process path pickles the spec once and reuses the payload),
so every execution venue runs literally the same code on the same inputs.
Each stack is a full private copy of the evaluation engine — oracle, cache,
statistics, repair-walk state.  Within a worker the cache
accumulates across shards and rounds exactly like the sequential oracle's
does; because the cache is a pure memoisation of a deterministic black box,
this sharing affects wall-clock only, never values.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass

from repro.observability import trace as otrace
from repro.observability.trace import coordinate_span_id
from repro.parallel.job import (
    ExplainJobSpec,
    ExplainShard,
    ShardResult,
    WorkerFault,
    WorkerReport,
)
from repro.parallel.seeding import shard_rng
from repro.repair.base import BinaryRepairOracle
from repro.shapley.convergence import RunningMean


def build_worker_state(spec: ExplainJobSpec):
    """A fresh ``(oracle, explainer)`` pair rebuilt from a job spec.

    The explainer is constructed with ``n_jobs=None`` — workers always run
    the sequential engine; parallelism exists only between workers.
    """
    from repro.shapley.cells import CellShapleyExplainer

    oracle = BinaryRepairOracle(
        spec.algorithm,
        list(spec.constraints),
        spec.dirty_table,
        spec.cell,
        target_value=spec.target_value,
        use_cache=spec.use_cache,
        cache_size=spec.cache_size,
    )
    explainer = CellShapleyExplainer(oracle, policy=spec.policy, rng=spec.job_seed)
    return oracle, explainer


@dataclass
class ResidentState:
    """One warm worker's resident oracle stack for one job fingerprint."""

    spec: ExplainJobSpec
    oracle: BinaryRepairOracle
    explainer: object
    #: the cache's high-water mark at the last sync — entries at or above it
    #: are what the next report ships home
    cache_mark: int = 0


def _load_spec(spec: "ExplainJobSpec | bytes") -> ExplainJobSpec:
    if isinstance(spec, (bytes, bytearray)):
        return pickle.loads(bytes(spec))
    return spec


def _worker_tracer(spec: ExplainJobSpec):
    """``(tracer, ship)`` for one task, honouring the spec's trace flag.

    In-process execution records straight into the caller's live tracer and
    ships nothing (the spans are already home).  In a worker process —
    recognised by :func:`~repro.observability.trace.current` returning
    ``None``, since a fork-inherited parent tracer fails its pid check — a
    fresh tracer is installed for this task and ``ship=True`` tells the
    entry point to drain it onto the report (and tear it down, so the next
    task on a resident worker starts clean).
    """
    if not getattr(spec, "trace", False):
        return otrace.current(), False
    tracer = otrace.current()
    if tracer is not None:
        return tracer, False
    return otrace.enable(), True


def _drain_shards(spec: ExplainJobSpec, explainer, shards: "list[ExplainShard]",
                  fault: WorkerFault | None = None) -> list[ShardResult]:
    """The shared evaluation core: reseed per shard, accumulate, report.

    Before each shard the sampler is reseeded with the shard's own stream
    (derived from the job seed and the shard coordinates), so the draws are
    independent of the shard's position in this worker's list — the property
    that makes any shard-to-worker assignment produce identical estimates.

    With tracing active each shard runs under a ``shard`` span whose id —
    and whose parent ``cell`` span's id — are derived from the same seed
    coordinates, so spans recorded here stitch under the parent process's
    cell spans with no communication (see :mod:`repro.observability.trace`).
    """
    tracer = otrace.current()
    results: list[ShardResult] = []
    sampler = explainer.sampler
    for position, shard in enumerate(shards):
        if fault is not None and fault.die_after_shards is not None \
                and position >= fault.die_after_shards:
            os._exit(23)  # a mid-task crash: no reply, EOF on the pipe
        sampler.reseed(
            shard_rng(spec.job_seed, shard.cell_position, shard.chunk_index)
        )
        tracker = RunningMean()
        # provenance is recorded per shard and shipped on the result — the
        # parent ORs shards per cell into the touched-cell bitmask the live
        # session's selective invalidation tests against updates
        sampler.touched = 0
        try:
            if tracer is None:
                explainer._accumulate_cell(shard.cell, shard.n_samples, tracker)
            else:
                with tracer.span(
                    "shard",
                    span_id=coordinate_span_id(
                        spec.job_seed, "shard", shard.cell_position, shard.chunk_index
                    ),
                    parent_id=coordinate_span_id(
                        spec.job_seed, "cell", shard.cell_position
                    ),
                    shard_id=shard.shard_id,
                    n_samples=shard.n_samples,
                ):
                    explainer._accumulate_cell(shard.cell, shard.n_samples, tracker)
            touched = sampler.touched
        finally:
            sampler.touched = None
        results.append(
            ShardResult(shard.shard_id, shard.cell_position, shard.chunk_index,
                        tracker, touched)
        )
    return results


def run_base_update_worker(old_key: str, new_key: str, delta,
                           worker_index: int = 0, *, resident: dict) -> dict:
    """Patch one worker's resident oracle stack for a base-table update.

    The warm half of ``worker_rebuilds`` staying flat across updates: the
    resident stack filed under ``old_key`` has the
    :class:`~repro.repair.updates.BaseUpdateDelta` applied to its own table
    copy — statistics synced and moved by delta, detector delta-maintained,
    target value adopted, cache entries kept unless the target changed (a
    key names the content it was computed on) — and is re-filed under
    ``new_key`` (the fingerprint of the post-update job spec), so the next
    explain round finds it without a payload or a rebuild.  Counters stay silent
    (``count=False``): the parent accounts the update once on its own
    oracle, and worker reports only ever carry per-round deltas.

    A worker holding no stack for ``old_key`` acknowledges with
    ``patched=0`` — it will rebuild from the post-update payload on its next
    shard assignment, which is the same state either way.
    """
    state = resident.pop(old_key, None)
    if state is None:
        return {"worker_index": worker_index, "patched": 0, "cells_written": 0}
    cells_written = state.oracle.apply_base_update(delta, count=False)
    state.spec.target_value = delta.target_value
    state.explainer.sampler.invalidate_overlay()
    resident[new_key] = state
    return {"worker_index": worker_index, "patched": 1,
            "cells_written": cells_written}


def run_resident_worker(spec: "ExplainJobSpec | bytes | None", spec_key: str,
                        shards: "list[ExplainShard]", worker_index: int = 0,
                        *, resident: dict,
                        fault: WorkerFault | None = None) -> WorkerReport:
    """Resident stack lookup, shard drain, cache-diff shipping.

    ``resident`` is the worker-lifetime state dict (the pool hands its
    process-global one to every resident task; the scheduler's in-process
    and degraded paths pass their own).  The stack for ``spec_key`` is built
    at most once per dict — every later round reuses it, which is the whole
    point of the warm pool — and the report ships only the cache entries
    inserted since this worker's previous sync plus this round's counter
    deltas.  ``fault`` is the test harness's injection hook
    (:class:`~repro.parallel.job.WorkerFault`); production rounds never set
    it.  ``spec`` may be ``None`` when the caller knows this state dict
    already holds the stack (the scheduler ships the payload once per worker
    process, then sends bare shard lists).

    Diff shipping is **at-most-once**: the high-water mark advances when the
    diff is cut, so a report that later fails to cross the pipe does not
    re-ship its entries on the next round.  That loss is deliberate — the
    dominant failure there is an unpicklable entry, which would fail every
    retry identically; values are unaffected either way (the cache is pure
    memoisation) and the in-process fail-over run rebuilds its own warmth.
    """
    if fault is not None and fault.hang_seconds is not None:
        time.sleep(fault.hang_seconds)
    state = resident.get(spec_key)
    rebuilt = 0
    if state is None:
        if spec is None:
            raise RuntimeError(
                f"no resident oracle stack for job {spec_key!r} and no spec "
                "payload to build one from (a worker receives the payload "
                "with its first task of each job)"
            )
        spec = _load_spec(spec)
        oracle, explainer = build_worker_state(spec)
        mark = oracle.cache.high_water_mark() if oracle.cache is not None else 0
        state = ResidentState(spec, oracle, explainer, cache_mark=mark)
        resident[spec_key] = state
        rebuilt = 1
    # the resident spec carries the job's trace flag even on payload-free
    # rounds (the payload ships once per worker process)
    tracer, ship_spans = _worker_tracer(state.spec)
    try:
        oracle = state.oracle
        oracle.reset_counters()
        results = _drain_shards(state.spec, state.explainer, shards, fault=fault)
        if oracle.cache is not None:
            cache_diff = oracle.cache.entries_since(state.cache_mark)
            state.cache_mark = oracle.cache.high_water_mark()
            cache_size = len(oracle.cache)
        else:
            cache_diff = []
            cache_size = 0
        report = WorkerReport(
            worker_index=worker_index,
            shard_results=results,
            statistics=oracle.statistics(),
            cache_diff=cache_diff,
            rebuilt=rebuilt,
            entries_shipped=len(cache_diff),
            resident_cache_size=cache_size,
            spans=tracer.drain() if ship_spans else [],
        )
        if fault is not None:
            if fault.slow_seconds is not None:
                time.sleep(fault.slow_seconds)  # the work is done; the reply is late
            if fault.unpicklable_report:
                report.statistics = dict(report.statistics)
                report.statistics["_poison"] = lambda: None  # defeats pickling
            if fault.corrupt_reply:
                return "\x00corrupt worker reply\x00"  # type: ignore[return-value]
        return report
    finally:
        if ship_spans:
            otrace.disable()
