"""Sharded multi-process execution of Example 2.5's cell game.

The evaluation engine (views → indexes → repair walks → batched oracle) is
single-core by construction: one oracle, one cache.  This package runs the
sampled cell game on worker processes without touching any of those
layers' semantics.  It has one process lifecycle — the scheduler's warm
:class:`WorkerPool` — and one cache merge, the replay of each worker's
cache diff into the parent cache; the constraint game (exact enumeration
or sequential permutation sampling) never leaves the parent process.

* :mod:`~repro.parallel.seeding` — per-shard seed streams spawned from one
  job seed, the invariant that makes worker count irrelevant to the draws;
* :mod:`~repro.parallel.job` — the picklable job/shard/report vocabulary,
  including the test harness's :class:`WorkerFault` directives;
* :mod:`~repro.parallel.worker` — one worker = one private oracle stack,
  built from the pickled job spec once and kept **resident** across rounds
  (cache-diff shipping via per-worker high-water marks);
* :mod:`~repro.parallel.pool` — the :class:`WorkerPool`: one dedicated pipe
  per worker (exact task→worker assignment), detection of dead, hung and
  erroring workers, and per-job deadline budgets;
* :mod:`~repro.parallel.scheduler` — plan, execute, merge: Welford-merged
  estimates, absorbed oracle counter deltas, diff-merged caches, in-process
  fail-over, and an adaptive mode whose early stopping consumes merged
  cross-shard counts;
* :mod:`~repro.parallel.chaos` — seeded, deterministic
  :class:`FaultPlan` schedules (kill, hang, corrupt reply) for soak-testing
  the fail-over.

Failure semantics
-----------------

Every failure path preserves the core invariant — Shapley values are
bit-identical to the in-process ``n_jobs=1`` plan — because shard draws are
seeded by ``(job_seed, cell_position, chunk_index)`` coordinates only;
faults can only change *where* a shard is evaluated, never *what* it
computes.  The pool
does not recover: it **fails over**.  On any failure below the scheduler
keeps the round's good reports, runs the failed assignments in-process,
closes the pool and runs the rest of the current ``run()`` /
``run_adaptive()`` / ``apply_base_update()`` call in-process.  The next call
spawns a fresh pool.  A crash loop therefore costs at most one failed round
per call:

=====================  ==========================================================
failure                fail-over
=====================  ==========================================================
worker crash           EOF on the pipe; the worker's shards finish in-process
                       (``pool_failover`` reason ``dead``)
worker hang            no report within ``worker_timeout``; the worker is
                       killed and its shards finish in-process (reason
                       ``timeout``)
corrupt or             a report that cannot be pickled (reason ``error``) or a
unpicklable reply      reply that is not a :class:`WorkerReport` (reason
                       ``corrupt``) is discarded; the shards finish in-process
deadline expiry        the round stops cleanly at a shard-wave boundary; the
                       late worker is killed, the pool closed, and merged
                       partial estimates are returned with ``completed=False``
                       (``deadline_expired``, ``shards_dropped``) — never a
                       hang, never a mid-merge exception
=====================  ==========================================================

Telemetry: ``pool_failovers`` counts failed assignments and equals the
number of ``pool_failover`` events.  Every counter flows through the
oracle's :class:`~repro.observability.metrics.MetricsRegistry` into
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
deadline_seconds=..., worker_timeout=...)``, ``TRexConfig(n_jobs=...,
deadline_seconds=...)`` and the CLI's ``--jobs`` / ``--deadline``.
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
    TaskOutcome,
    WorkerPool,
    process_context,
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
    "shard_rng",
    "shard_seed_sequence",
]
