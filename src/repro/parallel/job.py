"""The picklable job/shard/report vocabulary of the sharded scheduler.

An :class:`ExplainJobSpec` is the complete, self-contained description of one
cell-Shapley job: the black box, the constraint set, the dirty table snapshot,
the cell of interest with its reference repaired value, the replacement
policy and the job seed.  It is pickled once in the parent and shipped to
every worker, which rebuilds a private oracle stack from it (own
``BinaryRepairOracle``, ``OracleCache``, statistics and repair-walk state) —
workers share nothing at runtime.  The evaluation engine travels
with the algorithm (:attr:`~repro.repair.base.RepairAlgorithm.engine`), so
every worker runs the parent's engine.

Shards and reports are the wire format in the other direction: a
:class:`ShardResult` carries one chunk's Welford accumulator back, and a
:class:`WorkerReport` bundles a worker's shard results with its oracle
counters and the *diff* of cache entries inserted since the worker's last
sync, which the parent merges (replaying the diff into its cache,
:meth:`~repro.repair.base.BinaryRepairOracle.absorb_statistics`).

:class:`WorkerFault` is the fault-injection vocabulary of the test harness:
a picklable directive executed *inside* a pool worker to simulate the
environmental failures (process death, hangs, unpicklable or corrupt
reports) the scheduler's fail-over must absorb without changing any value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.constraints.dc import DenialConstraint
from repro.dataset.table import CellRef, Table
from repro.repair.base import RepairAlgorithm
from repro.shapley.convergence import RunningMean


@dataclass
class ExplainJobSpec:
    """Everything a worker process needs to rebuild the oracle stack.

    ``target_value`` is mandatory so workers never re-run the reference
    repair; the parent's oracle already paid for it once.
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

    ``touched`` is the shard's provenance fingerprint: the bitmask over the
    sampler's cell vector of the base cells whose original values its
    sampled coalitions exposed (recorded by the sampler's ``touched``
    record, RNG-free).  The live session ORs them per cell to decide which
    estimates a later base-table update invalidates.
    """

    shard_id: int
    cell_position: int
    chunk_index: int
    accumulator: RunningMean
    touched: int = 0


@dataclass
class WorkerReport:
    """Everything one worker sends home after draining its shard list.

    ``statistics`` always carries *this report's delta* (counters are reset
    at task entry), so a long-lived warm worker reporting several rounds
    never double-counts.  ``cache_diff`` carries only the entries inserted
    since the worker's last sync (its high-water mark over
    :meth:`~repro.repair.cache.OracleCache.entries_since`).
    """

    worker_index: int
    shard_results: list[ShardResult] = field(default_factory=list)
    statistics: dict = field(default_factory=dict)
    #: cache diff: ``(key, value)`` entries inserted since the last
    #: sync, in insertion order
    cache_diff: list = field(default_factory=list)
    #: 1 when this task had to build the oracle stack from the job spec
    rebuilt: int = 0
    #: cache entries this report ships across the process boundary
    #: (``len(cache_diff)``; zero for in-process execution)
    entries_shipped: int = 0
    #: size of the worker's resident cache when the report was cut — what
    #: whole-cache shipping would have cost this round
    resident_cache_size: int = 0
    #: finished :class:`~repro.observability.trace.Span` records for this
    #: report's shards (empty unless the job spec asked for tracing); the
    #: parent adopts them into its tracer, where their coordinate-derived
    #: ids stitch them under the parent's cell spans
    spans: list = field(default_factory=list)


@dataclass(frozen=True)
class WorkerFault:
    """A test-only fault directive executed inside a pool worker.

    Exactly the failure modes the pool and scheduler distinguish:

    * ``die_after_shards`` — hard-exit the worker process after executing
      that many shards (a mid-task crash; the parent sees EOF on the pipe);
    * ``hang_seconds`` — sleep at task entry, tripping the parent's
      ``worker_timeout`` (the worker is killed);
    * ``unpicklable_report`` — poison the report so it cannot cross the pipe
      (the worker answers with an error);
    * ``slow_seconds`` — sleep *after* computing the report, before replying
      (a slow reply: harmless under a generous timeout, a timeout or a
      deadline expiry under a tight one — all value-preserving);
    * ``corrupt_reply`` — answer with garbage instead of a
      :class:`WorkerReport` (the scheduler detects the type violation).

    Each failure fails the assignment over: its shards run in-process and
    the pool is closed.  Faults attach to one dispatch only.
    """

    die_after_shards: int | None = None
    hang_seconds: float | None = None
    unpicklable_report: bool = False
    slow_seconds: float | None = None
    corrupt_reply: bool = False
