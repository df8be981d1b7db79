"""The picklable job/shard/report vocabulary of the sharded scheduler.

An :class:`ExplainJobSpec` is the complete, self-contained description of one
cell-Shapley job: the black box, the constraint set, the dirty table snapshot,
the cell of interest with its reference repaired value, the replacement
policy, the engine flags of both the oracle and the explainer (they can be
set independently — the flag-grid tests rely on that), and the job seed.  It
is pickled once in the parent and shipped to every worker, which rebuilds a
private oracle stack from it (own ``BinaryRepairOracle``, ``OracleCache``,
``SharedStatistics``, repair-walk state) — workers share nothing at runtime.

Shards and reports are the wire format in the other direction: a
:class:`ShardResult` carries one chunk's Welford accumulator back, and a
:class:`WorkerReport` bundles a worker's shard results with its oracle
counters and either its whole cache (the cold, rebuild-per-round path) or —
on the warm-pool path — only the *diff* of cache entries inserted since the
worker's last sync, which the parent merges
(:meth:`~repro.repair.cache.OracleCache.merge_entries`,
:meth:`~repro.repair.base.BinaryRepairOracle.absorb_statistics`).

:class:`WorkerFault` is the fault-injection vocabulary of the test harness:
a picklable directive executed *inside* a pool worker to simulate the
environmental failures (process death, hangs, unpicklable reports) the
pool's health/requeue machinery must absorb without changing any value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.constraints.dc import DenialConstraint
from repro.dataset.table import CellRef, Table
from repro.repair.base import RepairAlgorithm
from repro.repair.cache import OracleCache
from repro.shapley.convergence import RunningMean


@dataclass
class ExplainJobSpec:
    """Everything a worker process needs to rebuild the oracle stack.

    ``target_value`` is mandatory so workers never re-run the reference
    repair; the parent's oracle already paid for it once.  The two flag
    groups mirror the ``BinaryRepairOracle`` / ``CellShapleyExplainer``
    constructor flags — a job built from a mismatched pair (e.g. a paired
    explainer over an unpaired oracle) reproduces exactly that pairing in
    every worker.
    """

    algorithm: RepairAlgorithm
    constraints: Sequence[DenialConstraint]
    dirty_table: Table
    cell: CellRef
    target_value: Any
    policy: str
    job_seed: int
    use_cache: bool = True
    cache_size: int | None = None
    oracle_incremental: bool = True
    oracle_paired: bool = True
    oracle_shared_stats: bool = True
    oracle_batched_pairs: bool = True
    explainer_incremental: bool = True
    explainer_paired: bool = True
    explainer_shared_stats: bool = True
    explainer_batched_pairs: bool = True
    #: whether workers should record spans for their shards and ship them
    #: home on the report; set by the scheduler from the parent's tracer
    #: state at payload time — tracing never changes any value, only what
    #: the report carries
    trace: bool = False


@dataclass(frozen=True)
class ExplainShard:
    """One schedulable unit: a chunk of one cell's Monte-Carlo samples.

    ``(cell_position, chunk_index)`` are the seed coordinates (see
    :mod:`repro.parallel.seeding`); ``shard_id`` is global bookkeeping only.
    """

    shard_id: int
    cell: CellRef
    cell_position: int
    chunk_index: int
    n_samples: int


@dataclass
class ShardResult:
    """One executed shard: its coordinates plus the chunk's accumulator.

    ``touched`` is the shard's provenance fingerprint: the base cells whose
    original values its sampled coalitions exposed (recorded by the
    sampler's ``touched_sink`` hook, RNG-free).  The live session unions
    them per cell to decide which estimates a later base-table update
    invalidates.
    """

    shard_id: int
    cell_position: int
    chunk_index: int
    accumulator: RunningMean
    touched: frozenset = frozenset()


@dataclass
class WorkerReport:
    """Everything one worker sends home after draining its shard list.

    ``statistics`` always carries *this report's delta* (counters are reset
    at task entry), so a long-lived warm worker reporting several rounds
    never double-counts.  Exactly one of ``cache`` / ``cache_diff`` carries
    entries: the cold path ships the whole worker cache, the warm path only
    the entries inserted since the worker's last sync (its high-water mark
    over :meth:`~repro.repair.cache.OracleCache.entries_since`).
    """

    worker_index: int
    shard_results: list[ShardResult] = field(default_factory=list)
    statistics: dict = field(default_factory=dict)
    cache: OracleCache | None = None
    #: warm-path cache diff: ``(key, value)`` entries inserted since the last
    #: sync, in insertion order
    cache_diff: list = field(default_factory=list)
    #: 1 when this task had to build the oracle stack from the job spec
    rebuilt: int = 0
    #: cache entries this report ships across the process boundary (the whole
    #: cache on the cold path, ``len(cache_diff)`` on the warm path)
    entries_shipped: int = 0
    #: size of the worker's resident cache when the report was cut — what
    #: whole-cache shipping would have cost this round
    resident_cache_size: int = 0
    #: 1 when this task rebuilt its stack *seeded from a parent snapshot* (a
    #: warm restart) instead of starting from an empty cache
    warm_restart: int = 0
    #: entries the parent's snapshot seeded into this worker's fresh cache
    #: (they never ship back — the first sync mark is taken above them)
    entries_seeded: int = 0
    #: finished :class:`~repro.observability.trace.Span` records for this
    #: report's shards (empty unless the job spec asked for tracing); the
    #: parent adopts them into its tracer, where their coordinate-derived
    #: ids stitch them under the parent's cell spans
    spans: list = field(default_factory=list)


@dataclass(frozen=True)
class WorkerFault:
    """A test-only fault directive executed inside a pool worker.

    Exactly the failure modes the pool's health machinery distinguishes:

    * ``die_after_shards`` — hard-exit the worker process after executing
      that many shards (a mid-task crash; the parent sees EOF on the pipe);
    * ``hang_seconds`` — sleep at task entry, tripping the parent's
      ``worker_timeout`` (the worker is terminated and replaced);
    * ``unpicklable_report`` — poison the report so it cannot cross the pipe
      (the worker answers with an error and the parent degrades the task
      in-process);
    * ``slow_seconds`` — sleep *after* computing the report, before replying
      (a slow reply: harmless under a generous timeout, a timeout/requeue or
      a deadline expiry under a tight one — all value-preserving);
    * ``corrupt_reply`` — answer with garbage instead of a
      :class:`WorkerReport` (the scheduler detects the type violation and
      re-runs the shards in-process).

    Faults attach to one dispatch only: a requeued task is always sent
    clean, modelling an environmental failure at the original placement.
    """

    die_after_shards: int | None = None
    hang_seconds: float | None = None
    unpicklable_report: bool = False
    slow_seconds: float | None = None
    corrupt_reply: bool = False
