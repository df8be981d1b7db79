"""Sharded multi-process execution for the Shapley hot path.

The evaluation engine of PR 1–3 (views → indexes → shared stats → repair
walks → paired/batched oracle) is single-core by construction: one oracle,
one cache, one statistics instance.  This package adds the scaling axis on
top of it without touching any of those layers' semantics:

* :mod:`~repro.parallel.seeding` — per-shard seed streams spawned from one
  job seed, the invariant that makes worker count irrelevant to the draws;
* :mod:`~repro.parallel.job` — the picklable job/shard/report vocabulary,
  including the test harness's :class:`WorkerFault` directives;
* :mod:`~repro.parallel.worker` — one worker = one private oracle stack,
  built from the pickled job spec once and kept **resident** across rounds
  (cache-diff shipping via per-worker high-water marks);
* :mod:`~repro.parallel.pool` — the :class:`WorkerPool`: one dedicated pipe
  per worker (exact task→worker assignment), health monitoring with
  requeue-on-death/timeout, a :class:`RetryPolicy` bounding restarts with
  exponential backoff, per-job deadline budgets, and a deterministic
  in-process degradation;
* :mod:`~repro.parallel.scheduler` — plan, execute, merge: Welford-merged
  estimates, absorbed oracle counter deltas, diff-merged caches, warm
  restarts from parent cache snapshots, poison-shard quarantine, and an
  adaptive mode whose early stopping consumes merged cross-shard counts;
* :mod:`~repro.parallel.chaos` — seeded, deterministic
  :class:`FaultPlan` schedules for soak-testing all of the above at once.

Failure semantics
-----------------

Every failure path preserves the core invariant — Shapley values are
bit-identical to the sequential engine — because shard draws are seeded by
``(job_seed, cell_position, chunk_index)`` coordinates only; faults can only
change *where* a shard is evaluated, never *what* it computes.  The matrix
(rows: what went wrong; right: how the warm pool recovers, degrading to
in-process execution where no worker can take the work):

===================  ==========================================================
failure              recovery
===================  ==========================================================
worker crash         restart slot with bounded backoff; requeue its shards on
                     a warm sibling that answered this round, else run them
                     in-process; the replacement's first task ships the job
                     payload **plus a snapshot of the merged cache** so it
                     starts warm (``warm_restarts`` / ``cache_entries_seeded``)
worker hang          timeout → treated as a crash (the hung process is
                     terminated); ``workers_restarted`` counts both
corrupt reply        reply that is not a :class:`WorkerReport` is discarded
                     and the shards rerun in-process; the worker keeps
                     running but is not marked resident for the round
crash loop           :class:`RetryPolicy` caps restarts per slot
                     (``max_worker_restarts``) with exponential backoff
                     (``restart_backoff_seconds`` total); an exhausted slot
                     stays dead and its work degrades in-process
poison shard         a shard failing ``max_shard_attempts`` times across
                     *different* workers is quarantined to the in-process
                     path for the scheduler's lifetime (``shards_poisoned``
                     counts quarantine events, ``shards_quarantined`` the
                     per-round reroutes)
deadline expiry      the round stops cleanly at a shard-wave boundary;
                     merged partial estimates are returned with
                     ``completed=False`` (``deadline_expired``,
                     ``shards_dropped``) — never a hang, never a mid-merge
                     exception
===================  ==========================================================

Telemetry: every counter named above flows through the oracle's
:class:`~repro.observability.metrics.MetricsRegistry` into
``oracle.statistics()`` and the CLI report; the scheduler and pool also
emit structured health events (:class:`~repro.observability.events.EventLog`)
that reconcile exactly with the counters, and the whole hot path carries
optional spans (``explain_job → cell → shard → …``) exportable as a Chrome
trace.  The full counter/span/event glossary lives in
``docs/OBSERVABILITY.md``.

Adaptive runs (:meth:`ShardedExplainScheduler.run_adaptive`) draw one
sample chunk per unconverged cell per round and decide stopping on the
merged cross-shard accumulator only.

Entry points for users are ``CellShapleyExplainer(..., n_jobs=...,
deadline_seconds=...)``, ``TRexConfig(n_jobs=..., deadline_seconds=...,
max_worker_restarts=...)`` and the CLI's ``--jobs`` / ``--deadline`` /
``--max-worker-restarts``; this package
is the seam future serving work (async service, multi-backend dispatch)
plugs into.
"""

from repro.parallel.chaos import FAULT_KINDS, FaultEvent, FaultPlan
from repro.parallel.job import (
    ExplainJobSpec,
    ExplainShard,
    ShardResult,
    WorkerFault,
    WorkerReport,
)
from repro.parallel.pool import (
    PoolTask,
    RetryPolicy,
    TaskOutcome,
    WorkerPool,
    process_context,
    run_worker_tasks,
)
from repro.parallel.scheduler import (
    DEFAULT_SAMPLES_PER_SHARD,
    ParallelExplainResult,
    ShardedExplainScheduler,
)
from repro.parallel.seeding import partition_samples, shard_rng, shard_seed_sequence
from repro.parallel.worker import (
    ResidentState,
    build_worker_state,
    run_resident_worker,
)

__all__ = [
    "DEFAULT_SAMPLES_PER_SHARD",
    "FAULT_KINDS",
    "ExplainJobSpec",
    "ExplainShard",
    "FaultEvent",
    "FaultPlan",
    "ParallelExplainResult",
    "PoolTask",
    "ResidentState",
    "RetryPolicy",
    "ShardResult",
    "ShardedExplainScheduler",
    "TaskOutcome",
    "WorkerFault",
    "WorkerPool",
    "WorkerReport",
    "build_worker_state",
    "partition_samples",
    "process_context",
    "run_resident_worker",
    "run_worker_tasks",
    "shard_rng",
    "shard_seed_sequence",
]
