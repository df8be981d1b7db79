"""The sharded multi-process cell-Shapley scheduler.

``ShardedExplainScheduler`` turns one cell-Shapley job into a deterministic
plan of ``(cell, sample-chunk)`` shards, executes the plan on ``n_jobs``
worker processes (``n_jobs=1`` runs the identical plan in-process), and
merges everything back:

* **estimates** — each shard returns a Welford accumulator; per cell the
  chunk accumulators are merged in chunk order (a fixed merge tree), so the
  final mean/standard-error bits do not depend on worker count or completion
  order;
* **oracle counters** — every worker's ``oracle.statistics()`` delta is
  folded into the parent oracle via
  :meth:`~repro.repair.base.BinaryRepairOracle.absorb_statistics`, so reports
  and benchmarks read one aggregate;
* **caches** — each worker's new :class:`~repro.repair.cache.OracleCache`
  entries are replayed into the parent's, so answers computed in one run warm
  the next.

Execution is **warm**: one :class:`~repro.parallel.pool.WorkerPool`
is spawned per scheduler (context-manager lifecycle; workers are reused
across :meth:`run` calls and every :meth:`run_adaptive` round), each worker
keeps its oracle stack resident between rounds keyed by the job-spec
fingerprint (``worker_rebuilds`` counts how often a stack had to be built —
``n_jobs`` once, ever, on the healthy path), and reports ship only the cache
entries inserted since the worker's last sync (``cache_entries_shipped``)
plus counter deltas instead of the whole cache.  A worker that dies, times
out, answers with an error or replies with something that is not a
:class:`WorkerReport` **fails the round over**: the round's good reports are
kept, the failed assignments run in-process, the pool is closed and the rest
of the call runs in-process; the next call spawns a fresh pool
(``pool_failovers`` counts the failed assignments).  Results stay
bit-identical because every shard's draws are seeded by its coordinates
alone.  ``n_jobs=1`` runs the same plan on one in-process resident stack and
is the reference every ``n_jobs=k`` run is property-tested against.

:meth:`run` executes a fixed-sample plan; :meth:`run_adaptive` samples in
rounds of one chunk per unconverged cell, deciding convergence on the
*merged* cross-shard accumulator after every round — the stopping rule
consumes the same counts for every ``n_jobs``, so adaptive runs are as
worker-count-invariant as fixed ones.
"""

from __future__ import annotations

import hashlib
import pickle
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.config import DEFAULT_CELL_SAMPLES
from repro.dataset.table import CellRef
from repro.engine.storage import Fingerprint
from repro.observability import trace as otrace
from repro.observability.events import EventLog
from repro.observability.trace import coordinate_span_id
from repro.parallel.job import ExplainJobSpec, ExplainShard, ShardResult, WorkerReport
from repro.parallel.pool import PoolTask, TaskOutcome, WorkerPool
from repro.parallel.seeding import partition_samples
from repro.parallel.worker import run_base_update_worker, run_resident_worker
from repro.repair.cache import OracleCache, aggregate_oracle_statistics
from repro.shapley.cells import BATCH_CHUNK_SIZE, check_time_budgets
from repro.shapley.convergence import ConvergenceTracker, RunningMean
from repro.shapley.sampling import SampledShapleyEstimate

#: default shard granularity — the batched oracle's chunk size, so one shard
#: drains as exactly one ``query_pairs`` call
DEFAULT_SAMPLES_PER_SHARD = BATCH_CHUNK_SIZE

#: the resident-state key of in-process execution (one scheduler, one spec,
#: one private resident dict — the key only has to be stable)
_LOCAL_KEY = "local"

#: round-log counter keys summed into run statistics *and* absorbed into the
#: parent oracle's attributes of the same name
_POOL_COUNTERS = ("worker_rebuilds", "cache_entries_shipped", "pool_failovers")

#: round-log bookkeeping keys that stay per-round (not oracle counters)
_ROUND_ONLY_KEYS = ("cache_entries_resident", "shards_dropped")


@dataclass
class ParallelExplainResult:
    """The merged outcome of one scheduled run."""

    #: per-cell estimates, keyed by the explained cell
    estimates: dict[CellRef, SampledShapleyEstimate] = field(default_factory=dict)
    #: worker processes that actually ran (1 on the in-process path)
    n_workers: int = 1
    #: shards executed across all rounds
    n_shards: int = 0
    #: aggregated oracle counters across workers (plus the parallel counters)
    statistics: dict = field(default_factory=dict)
    #: the merged cache — the absorbing oracle's when ``absorb_into`` was
    #: given, otherwise a standalone merge of the worker caches
    cache: OracleCache | None = None
    #: ``False`` when the job's ``deadline_seconds`` expired before the plan
    #: finished: the estimates are the merged *partial* state (every cell's
    #: ``n_samples`` says how far it got) — never a hang, never a mid-merge
    #: exception
    completed: bool = True
    #: per-cell provenance: the bitmask of the base cells whose original
    #: values each cell's sampled coalitions exposed (the OR of its shards'
    #: recorded masks) — the live session tests these against base-table
    #: updates to invalidate selectively
    touched: dict = field(default_factory=dict)


def _same_content(fingerprint: Fingerprint, base: Fingerprint, same: dict) -> bool:
    """Whether ``fingerprint`` equals ``base``, decided once per object
    (the memo holds the object, so its id is not reused meanwhile)."""
    seen = same.get(id(fingerprint))
    if seen is None:
        seen = same[id(fingerprint)] = (fingerprint, fingerprint == base)
    return seen[1]


def _shared_base(key: tuple, base: Fingerprint, same: dict) -> tuple:
    """A replayed cache key whose table fingerprints name ``base`` by object.

    A worker's cache diff arrives unpickled, with its own copy of the base
    fingerprint inside every key.  A plain fingerprint equal to ``base`` is
    replaced by ``base``, and an overlay fingerprint over such a copy is
    re-pointed at ``base`` in place (the copy is private to this diff), so
    the parent cache holds one object per table state and its hits compare
    base fingerprints by identity.  ``same`` memoises the comparison per
    copy.
    """
    parts = None
    for position, part in enumerate(key):
        if type(part) is not Fingerprint or part is base:
            continue
        data = part.data
        if data[:1] == ("overlay",):
            if data[1] is not base and _same_content(data[1], base, same):
                part.data = (data[0], base, data[2])
        elif _same_content(part, base, same):
            if parts is None:
                parts = list(key)
            parts[position] = base
    return key if parts is None else tuple(parts)


class ShardedExplainScheduler:
    """Partition, execute and merge one cell-Shapley job.

    Parameters
    ----------
    spec:
        The picklable job description (see :class:`ExplainJobSpec`).
    n_jobs:
        Worker process count.  ``1`` executes the same shard plan in-process
        — no pool, no pickling — and is the bit-identical reference for any
        ``n_jobs=k``.
    samples_per_shard:
        Chunk granularity of the plan; part of the seed partition (changing
        it changes the draws), so hold it fixed when comparing runs.
    worker_timeout:
        Seconds (finite, ``> 0``) the warm pool waits for a worker's round
        report before declaring it hung and failing its shards over
        in-process (default: wait indefinitely; worker *death* is always
        detected immediately).
    fault_injector:
        Test-harness hook: ``fn(worker_index, round_index)`` returning a
        :class:`~repro.parallel.job.WorkerFault` (or ``None``) attached to
        that worker's dispatch (a :class:`~repro.parallel.chaos.FaultPlan`
        is one).  Production runs never set it.
    deadline_seconds:
        Wall-clock budget (finite, ``>= 0``) per :meth:`run` /
        :meth:`run_adaptive` call.  On expiry the scheduler stops at a round
        boundary (in-flight tasks past the deadline are dropped and the pool
        is closed), merges what every cell has so far and returns it with
        ``completed=False`` and a ``deadline_expired`` counter — it never
        hangs and never raises mid-merge.  ``None`` (default) runs to
        completion.

    Both budgets are validated here (:class:`~repro.errors.ExplanationError`).

    The scheduler is a context manager; :meth:`close` shuts the warm pool
    down (idle workers cost memory, not correctness — they are daemonic and
    die with the parent either way).  ``round_log`` records one dict per
    executed round (shard counts, rebuilds, shipped entries, fail-overs,
    drops) for tests and benchmarks.
    """

    def __init__(self, spec: ExplainJobSpec, n_jobs: int = 1,
                 samples_per_shard: int | None = None,
                 worker_timeout: float | None = None,
                 fault_injector: "Callable | None" = None,
                 deadline_seconds: float | None = None):
        if int(n_jobs) < 1:
            raise ValueError(f"n_jobs must be a positive integer, got {n_jobs}")
        if samples_per_shard is not None and int(samples_per_shard) < 1:
            raise ValueError(
                f"samples_per_shard must be a positive integer, got {samples_per_shard}"
            )
        check_time_budgets(deadline_seconds, worker_timeout)
        self.spec = spec
        self.n_jobs = int(n_jobs)
        self.samples_per_shard = (
            int(samples_per_shard) if samples_per_shard is not None
            else DEFAULT_SAMPLES_PER_SHARD
        )
        self.worker_timeout = worker_timeout
        self.fault_injector = fault_injector
        self.deadline_seconds = deadline_seconds
        self._spec_payload: bytes | None = None
        self._spec_key: str | None = None
        #: the in-process resident stack (n_jobs=1 and every degraded path),
        #: kept across rounds/runs — warm cache, no oracle rebuild per round
        self._local_resident: dict = {}
        self._pool: WorkerPool | None = None
        #: set when the pool cannot be spawned at all (for good) or a round
        #: failed over (until the current call ends) — either way the
        #: scheduler runs in-process instead of spawning a pool
        self._pool_broken = False
        self._failed_over = False
        #: the pool workers that confirmed a resident stack (an "ok" report)
        #: — those are sent shard lists only, not the job-spec payload
        self._resident: set[int] = set()
        self._round_index = 0
        self._job_index = 0
        #: one bookkeeping dict per executed round — what the soak test and
        #: the warm-pool benchmark read
        self.round_log: list[dict] = []
        #: the structured worker-health event log (always on — health events
        #: are rare); the pool appends its spawn/expiry records here and the
        #: scheduler its fail-over/update/deadline ones, each at the exact
        #: site the matching counter bumps
        self.events = EventLog()

    @classmethod
    def from_explainer(cls, explainer, n_jobs: int,
                       samples_per_shard: int | None = None,
                       worker_timeout: float | None = None,
                       fault_injector: "Callable | None" = None,
                       deadline_seconds: float | None = None,
                       ) -> "ShardedExplainScheduler":
        """Assemble the job spec from a live ``CellShapleyExplainer``."""
        oracle = explainer.oracle
        cache = oracle.cache
        spec = ExplainJobSpec(
            algorithm=oracle.algorithm,
            constraints=list(oracle.constraints),
            dirty_table=oracle.dirty_table,
            cell=oracle.cell,
            target_value=oracle.target_value,
            policy=explainer.policy.value,
            job_seed=explainer.job_seed(),
            use_cache=cache is not None,
            cache_size=cache.max_entries if cache is not None else None,
        )
        return cls(spec, n_jobs=n_jobs, samples_per_shard=samples_per_shard,
                   worker_timeout=worker_timeout,
                   fault_injector=fault_injector,
                   deadline_seconds=deadline_seconds)

    # -- lifecycle --------------------------------------------------------------------

    def __enter__(self) -> "ShardedExplainScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the warm pool down; safe to call repeatedly.

        The residency set is dropped with the pool: a later run respawns
        fresh worker processes, so stale entries would otherwise masquerade
        as resident stacks and starve the new workers of the spec payload.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._resident.clear()

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    # -- planning ---------------------------------------------------------------------

    def plan(self, cells: Sequence[CellRef], n_samples: int,
             positions: "Sequence[int] | None" = None) -> list[ExplainShard]:
        """The deterministic shard list for a fixed-sample job.

        Shards are emitted cell-major, chunk-minor; their seed coordinates
        are the cell's *position in this job* plus the chunk index, so the
        same (cells, n_samples, samples_per_shard, job_seed) quadruple always
        yields the same draws.  ``positions`` overrides the default
        enumeration — the live session's partial refresh passes each
        surviving cell's position in the *original* job, so a refreshed
        cell's shards draw from exactly the streams its first run used.
        """
        if positions is None:
            positions = range(len(cells))
        shards: list[ExplainShard] = []
        for position, cell in zip(positions, cells):
            for chunk_index, chunk in enumerate(
                partition_samples(n_samples, self.samples_per_shard)
            ):
                shards.append(
                    ExplainShard(len(shards), cell, position, chunk_index, chunk)
                )
        return shards

    # -- execution --------------------------------------------------------------------

    def _payload(self) -> bytes:
        """The job spec, pickled once and reused for every worker task.

        The spec's ``trace`` flag is stamped from the parent's live tracer
        state at pickling time, so workers know whether to record and ship
        spans.  Toggling tracing between runs re-pickles (and re-keys) the
        spec — workers then rebuild their resident stacks under the new key,
        which costs a warm-up round but never a value.
        """
        trace = otrace.current() is not None
        if self._spec_payload is None or trace != self.spec.trace:
            self.spec.trace = trace
            self._spec_payload = pickle.dumps(self.spec, protocol=pickle.HIGHEST_PROTOCOL)
            self._spec_key = None
            self._resident.clear()
        return self._spec_payload

    def _spec_fingerprint(self) -> str:
        """The resident-state key workers file this job's oracle stack under."""
        if self._spec_key is None:
            self._spec_key = hashlib.sha256(self._payload()).hexdigest()
        return self._spec_key

    # -- live base updates ------------------------------------------------------------

    def apply_base_update(self, delta, target_changed: bool = False) -> dict:
        """Patch every resident oracle stack for an already-applied update.

        The caller (the live session) has mutated the shared dirty table and
        finished its own oracle; this routine brings the scheduler's world in
        step without a single stack rebuild:

        * the job spec adopts the new target value and is re-pickled lazily
          (its fingerprint — the resident-state key — changes with the table
          content);
        * the in-process resident stack, which shares the session's table
          object, adopts the new target (its cache keeps every entry unless
          the target changed), drops its lazy view and invalidates its
          sampler overlay (its views derive their statistics from the
          mutated table);
        * every live resident *worker* receives one
          :func:`~repro.parallel.worker.run_base_update_worker` task carrying
          the picklable delta: the worker applies it to its private table
          copy and re-files its stack under the new key, so
          ``worker_rebuilds`` stays flat across updates.  A worker that
          fails its patch fails the pool over: the pool is closed and the
          next call spawns a fresh one, whose workers build their stacks
          from the post-update payload — same state, just slower.

        Returns a bookkeeping dict (``workers_patched``,
        ``cache_entries_dropped``, ``pool_failovers``) — the caller folds
        ``pool_failovers`` into its oracle, since no merge follows a patch
        round.
        """
        old_key = self._spec_key
        # capture residency before the re-pickle clears it — only workers
        # that acknowledge the patch get re-marked
        resident_before = set(self._resident)
        self.spec.target_value = delta.target_value
        self._spec_payload = None
        self._spec_key = None
        info = {"workers_patched": 0, "cache_entries_dropped": 0,
                "pool_failovers": 0}
        local = self._local_resident.get(_LOCAL_KEY)
        if local is not None:
            info["cache_entries_dropped"] += local.oracle.finish_base_update(
                delta.target_value, count=False
            )
            local.explainer.sampler.invalidate_overlay()
        pool = self._pool
        if pool is not None and old_key is not None and resident_before:
            new_key = self._spec_fingerprint()  # re-pickles; clears residency
            tasks = [PoolTask(run_base_update_worker,
                              (old_key, new_key, delta, worker))
                     for worker in range(pool.n_workers)]
            for worker, outcome in enumerate(pool.run_tasks(tasks)):
                if outcome.status == "ok" and isinstance(outcome.result, dict):
                    if outcome.result.get("patched"):
                        info["workers_patched"] += 1
                        self._resident.add(worker)
                else:
                    info["pool_failovers"] += 1
                    self._note_failover(worker, outcome, n_shards=0)
            if info["pool_failovers"]:
                self.close()
        self.events.emit("base_update", cells=len(delta),
                         workers_patched=info["workers_patched"],
                         target_changed=bool(target_changed))
        return info

    def _run_local(self, shards: Sequence[ExplainShard],
                   worker_index: int) -> WorkerReport:
        """Execute one assignment in-process against the local resident stack.

        Nothing crosses a process boundary here, so the report's
        ``entries_shipped`` is zeroed (its ``cache_diff`` still carries the
        new entries for the merge).
        """
        report = run_resident_worker(self.spec, _LOCAL_KEY, list(shards),
                                     worker_index, resident=self._local_resident)
        report.entries_shipped = 0
        return report

    def _ensure_pool(self) -> WorkerPool | None:
        """The warm pool, spawned on first use; ``None`` means in-process."""
        if self._pool is None and not (self._pool_broken or self._failed_over):
            try:
                self._pool = WorkerPool(self.n_jobs, timeout=self.worker_timeout,
                                        events=self.events)
            except OSError as error:  # pragma: no cover - sandbox-dependent
                self._pool_broken = True
                warnings.warn(
                    f"cannot spawn a warm worker pool ({error}); running "
                    "shards in-process — results are identical, only slower",
                    RuntimeWarning,
                    stacklevel=4,
                )
        return self._pool

    def _note_failover(self, worker: int, outcome: TaskOutcome,
                       n_shards: int) -> None:
        """Record one assignment the pool failed: the event (and a warning
        for the one failure the pool cannot see — a reply of the wrong type).
        """
        reason = "corrupt" if outcome.status == "ok" else outcome.status
        if reason == "corrupt":
            warnings.warn(
                f"pool worker {worker} replied with "
                f"{type(outcome.result).__name__} instead of a WorkerReport; "
                "finishing its work in-process — results are identical",
                RuntimeWarning,
                stacklevel=4,
            )
        self.events.emit("pool_failover", reason=reason, worker=worker,
                         n_shards=n_shards)

    def _execute(self, shards: Sequence[ExplainShard],
                 deadline: float | None = None) -> list[WorkerReport]:
        """Deal the shards to the workers and collect their reports.

        A shard goes to worker ``(cell_position + chunk_index) mod n_jobs``:
        the assignment depends on the shard's seed coordinates alone, so a
        partial refresh sends every shard to the worker that ran it before,
        whose resident cache holds its answers.  A worker dealt no shard
        gets no task; reports come back in worker order.  An unpicklable job
        spec (e.g. a custom repair algorithm holding a closure) degrades to
        in-process execution with a warning — the plan and therefore the
        values are unchanged.
        Past-``deadline`` tasks are dropped (``shards_dropped`` in the round
        log); the caller reads that as the signal to stop at this round
        boundary.
        """
        round_index = self._round_index
        self._round_index += 1
        log = {"round": round_index, "shards": len(shards),
               **{key: 0 for key in _ROUND_ONLY_KEYS},
               **{key: 0 for key in _POOL_COUNTERS}}
        assignments: list[list[ExplainShard]] = [[] for _ in range(self.n_jobs)]
        for shard in shards:
            assignments[(shard.cell_position + shard.chunk_index) % self.n_jobs].append(shard)
        pool = payload = None
        if self.n_jobs > 1 and shards:
            try:
                payload = self._payload()
            except Exception as error:
                warnings.warn(
                    f"job spec is not picklable ({error}); running shards "
                    "in-process — estimates are identical, only slower",
                    RuntimeWarning,
                    stacklevel=3,
                )
            else:
                pool = self._ensure_pool()
        if pool is None:
            reports = [self._run_local(assignment, worker)
                       for worker, assignment in enumerate(assignments) if assignment]
        else:
            reports = self._execute_warm(pool, payload, assignments,
                                         round_index, log, deadline)
        tracer = otrace.current()
        for report in reports:
            log["worker_rebuilds"] += report.rebuilt
            log["cache_entries_shipped"] += report.entries_shipped
            log["cache_entries_resident"] += report.resident_cache_size
            if report.spans:
                if tracer is not None:
                    tracer.adopt(report.spans, worker=report.worker_index)
                report.spans = []
        self.round_log.append(log)
        return reports

    def _execute_warm(self, pool: WorkerPool, payload: bytes,
                      assignments: Sequence[list], round_index: int, log: dict,
                      deadline: float | None = None) -> list[WorkerReport]:
        """One warm-pool round: resident tasks, fail-over on any failure.

        Workers that already confirmed a resident stack receive only their
        shard list — the job spec payload crosses each worker's pipe once
        per process lifetime, not once per round.

        Any failed assignment — a dead, hung or erroring worker, or a reply
        that is not a :class:`WorkerReport` (the type check is the last line
        of defence before the merge) — runs in-process against the local
        resident stack, and the pool is closed for the rest of this call;
        the round's good reports are kept.  A deadline expiry drops its
        shards and closes the pool too.
        """
        key = self._spec_fingerprint()
        tasks = [
            PoolTask(run_resident_worker,
                     (None if worker in self._resident else payload, key,
                      assignment, worker),
                     fault=(self.fault_injector(worker, round_index)
                            if self.fault_injector is not None else None))
            if assignment else None
            for worker, assignment in enumerate(assignments)
        ]
        reports: list[WorkerReport] = []
        for worker, outcome in enumerate(pool.run_tasks(tasks, deadline=deadline)):
            assignment = assignments[worker]
            if outcome is None:
                continue
            if outcome.status == "expired":
                log["shards_dropped"] += len(assignment)
            elif outcome.status == "ok" and isinstance(outcome.result, WorkerReport):
                self._resident.add(worker)
                reports.append(outcome.result)
            else:
                log["pool_failovers"] += 1
                self._note_failover(worker, outcome, n_shards=len(assignment))
                reports.append(self._run_local(assignment, worker))
        if log["pool_failovers"] or log["shards_dropped"]:
            self._failed_over = True
            self.close()
        return reports

    @staticmethod
    def _ordered_results(reports: Iterable[WorkerReport]) -> list[ShardResult]:
        """All shard results in plan order — the fixed merge order."""
        results = [result for report in reports for result in report.shard_results]
        results.sort(key=lambda result: (result.cell_position, result.chunk_index))
        return results

    def _deadline(self) -> float | None:
        """This run's absolute expiry instant (the budget starts now)."""
        if self.deadline_seconds is None:
            return None
        return time.monotonic() + float(self.deadline_seconds)

    # -- tracing ----------------------------------------------------------------------

    def _traced(self, kind: str, cells: Sequence[CellRef],
                positions: "Sequence[int] | None",
                execute: "Callable[[], ParallelExplainResult]"
                ) -> ParallelExplainResult:
        """Run ``execute()`` under the run-level ``explain_job`` span.

        Without a live tracer this is just ``execute()``.  With one, the
        span gets a deterministic id, the cell spans are stitched from the
        run's shard spans, and the health events this run emitted are copied
        onto the tracer.
        """
        tracer = otrace.current()
        if tracer is None:
            return execute()
        mark = len(tracer.spans)
        events_mark = len(self.events)
        self._job_index += 1
        job_span = tracer.start(
            "explain_job",
            span_id=coordinate_span_id(self.spec.job_seed, "job", kind,
                                       self._job_index),
            kind=kind, cells=len(cells), n_jobs=self.n_jobs,
        )
        try:
            result = execute()
            self._stitch_cell_spans(tracer, cells, job_span.span_id, mark,
                                    positions)
            return result
        finally:
            tracer.finish(job_span)
            tracer.events.extend(self.events.records[events_mark:])

    def _stitch_cell_spans(self, tracer, cells: Sequence[CellRef],
                           job_span_id: int, mark: int,
                           positions: "Sequence[int] | None" = None) -> None:
        """Synthesise one ``cell`` span per cell from its shard spans.

        Shard spans — the parent's own and the ones adopted from worker
        reports — already carry ``parent_id = coordinate_span_id(job_seed,
        "cell", position)``; this derives the same ids independently and
        files a finished cell span over each group's timeline extent, which
        is what stitches parent and worker spans into one tree without any
        cross-process coordination.
        """
        by_parent: dict[int, list] = {}
        for span in tracer.spans[mark:]:
            if span.name == "shard" and span.parent_id is not None:
                by_parent.setdefault(span.parent_id, []).append(span)
        if positions is None:
            positions = range(len(cells))
        for position, cell in zip(positions, cells):
            cell_id = coordinate_span_id(self.spec.job_seed, "cell", position)
            shard_spans = by_parent.get(cell_id)
            if not shard_spans:
                continue
            start = min(span.start for span in shard_spans)
            end = max(span.end for span in shard_spans)
            tracer.record("cell", cell_id, job_span_id, start, end - start,
                          cell=str(cell), shards=len(shard_spans))

    # -- fixed-sample runs ------------------------------------------------------------

    def run(self, cells: Iterable[CellRef], n_samples: int,
            absorb_into=None,
            positions: "Sequence[int] | None" = None) -> ParallelExplainResult:
        """Execute a fixed ``n_samples``-per-cell plan and merge the results.

        ``absorb_into`` names the parent :class:`BinaryRepairOracle` whose
        counters and cache should receive the workers' (usually the oracle
        the explainer was built on); without it the merged cache is returned
        standalone on the result.

        With a ``deadline_seconds`` budget the plan is executed in *waves*
        of one shard per worker, so the clock is consulted at every round
        boundary; a wave that straddles the expiry drops its unfinished
        tasks and the run returns the merged partial estimates with
        ``completed=False``.  Wave partitioning cannot change values — every
        shard's draws are seeded by its coordinates and the merge order is
        plan order — it only refines the granularity of the round log.
        """
        cells = list(cells)
        return self._traced("fixed", cells, positions, lambda: self._run_fixed(
            cells, n_samples, absorb_into, positions))

    def _run_fixed(self, cells: "list[CellRef]", n_samples: int,
                   absorb_into,
                   positions: "Sequence[int] | None" = None
                   ) -> ParallelExplainResult:
        self._failed_over = False  # a fail-over lasts one call
        positions = (list(positions) if positions is not None
                     else list(range(len(cells))))
        index_of = {position: index for index, position in enumerate(positions)}
        shards = self.plan(cells, n_samples, positions)
        trackers = [RunningMean() for _ in cells]
        reports: list[WorkerReport] = []
        round_start = len(self.round_log)
        deadline = self._deadline()
        completed = True
        n_workers = 1
        if shards:
            if deadline is None:
                waves = [shards]
            else:
                width = max(1, self.n_jobs)
                waves = [shards[start:start + width]
                         for start in range(0, len(shards), width)]
            for wave in waves:
                if deadline is not None and time.monotonic() >= deadline:
                    completed = False
                    break
                wave_reports = self._execute(wave, deadline=deadline)
                reports.extend(wave_reports)
                n_workers = max(n_workers, len(wave_reports))
                if self.round_log[-1]["shards_dropped"]:
                    completed = False
                    break
            for result in self._ordered_results(reports):
                trackers[index_of[result.cell_position]].merge(result.accumulator)
        return self._merge(cells, trackers, reports, absorb_into,
                           n_workers=n_workers,
                           rounds=self.round_log[round_start:],
                           completed=completed,
                           positions=positions)

    # -- adaptive runs ----------------------------------------------------------------

    def run_adaptive(self, cells: Iterable[CellRef], tolerance: float = 0.01,
                     min_samples: int = 30,
                     max_samples: int = DEFAULT_CELL_SAMPLES,
                     z: float = 1.96, absorb_into=None) -> ParallelExplainResult:
        """Sample in rounds of one chunk per unconverged cell until all stop.

        After each round every new shard accumulator is merged (in plan
        order) into the cell's :class:`ConvergenceTracker`, and only the
        merged tracker decides convergence — per-worker counts never reach
        ``min_samples`` and would stall or misjudge the rule, which is
        exactly the trap :meth:`ConvergenceTracker.merge` documents.  A
        cell's chunk indexes keep counting up across rounds, so the draws of
        round ``r`` are the same for every worker count.  On the warm path
        every round reuses the same resident worker stacks: after round one
        no worker rebuilds anything (``worker_rebuilds`` stays at the pool
        width) and each round ships only its new cache entries.

        A ``deadline_seconds`` budget is checked at every round boundary
        (and enforced inside a round by the pool): on expiry the loop stops,
        the converged-so-far state is merged and returned with
        ``completed=False`` — per-cell ``n_samples`` records how far each
        cell got.
        """
        cells = list(cells)
        return self._traced("adaptive", cells, None, lambda: self._run_adaptive(
            cells, tolerance, min_samples, max_samples, z, absorb_into))

    def _run_adaptive(self, cells: "list[CellRef]", tolerance: float,
                      min_samples: int, max_samples: int, z: float,
                      absorb_into) -> ParallelExplainResult:
        self._failed_over = False  # a fail-over lasts one call
        trackers = [
            ConvergenceTracker(tolerance=tolerance, z=z, min_samples=min_samples)
            for _ in cells
        ]
        next_chunk = [0] * len(cells)
        active = [position for position, _ in enumerate(cells) if max_samples > 0]
        reports: list[WorkerReport] = []
        n_workers = 1
        shard_id = 0
        round_start = len(self.round_log)
        deadline = self._deadline()
        completed = True
        while active:
            if deadline is not None and time.monotonic() >= deadline:
                completed = False
                break
            shards: list[ExplainShard] = []
            for position in active:
                chunk = min(self.samples_per_shard,
                            max_samples - trackers[position].accumulator.count)
                shards.append(ExplainShard(shard_id, cells[position], position,
                                           next_chunk[position], chunk))
                shard_id += 1
                next_chunk[position] += 1
            round_reports = self._execute(shards, deadline=deadline)
            n_workers = max(n_workers, len(round_reports))
            reports.extend(round_reports)
            for result in self._ordered_results(round_reports):
                trackers[result.cell_position].merge(result.accumulator)
            if self.round_log[-1]["shards_dropped"]:
                completed = False
                break
            active = [
                position for position in active
                if not trackers[position].converged()
                and trackers[position].accumulator.count < max_samples
            ]
        accumulators = [tracker.accumulator for tracker in trackers]
        return self._merge(cells, accumulators, reports, absorb_into,
                           n_workers=n_workers,
                           rounds=self.round_log[round_start:],
                           completed=completed)

    # -- merging ----------------------------------------------------------------------

    def _merge(self, cells: Sequence[CellRef], trackers: Sequence[RunningMean],
               reports: Sequence[WorkerReport], absorb_into,
               n_workers: int | None = None,
               rounds: Sequence[dict] = (),
               completed: bool = True,
               positions: "Sequence[int] | None" = None) -> ParallelExplainResult:
        # per-cell provenance: OR each cell's shard-recorded touched bitmasks
        # (shard results address cells by plan position)
        cell_at = dict(zip(positions if positions is not None
                           else range(len(cells)), cells))
        touched: dict[CellRef, int] = {}
        for report in reports:
            for result in report.shard_results:
                if result.touched:
                    cell = cell_at.get(result.cell_position)
                    if cell is not None:
                        touched[cell] = touched.get(cell, 0) | result.touched
        # SampledShapleyEstimate normalises the degenerate n < 2 case itself
        estimates = {
            cell: SampledShapleyEstimate(
                cell=cell,
                value=tracker.mean,
                standard_error=tracker.standard_error,
                n_samples=tracker.count,
            )
            for cell, tracker in zip(cells, trackers)
        }
        # shards actually executed (a deadline expiry can drop planned ones)
        n_shards = sum(len(report.shard_results) for report in reports)
        if n_workers is None:
            n_workers = max(1, len(reports))
        statistics = aggregate_oracle_statistics(
            report.statistics for report in reports
        )
        statistics["parallel_workers"] = max(
            statistics.get("parallel_workers", 0), n_workers
        )
        statistics["parallel_shards"] = statistics.get("parallel_shards", 0) + n_shards
        pool_counters = {
            key: sum(entry[key] for entry in rounds) for key in _POOL_COUNTERS
        }
        for key, value in pool_counters.items():
            statistics[key] = statistics.get(key, 0) + value
        if not completed:
            statistics["deadline_expired"] = statistics.get("deadline_expired", 0) + 1
            self.events.emit("deadline_expired",
                             budget_seconds=self.deadline_seconds,
                             n_shards=n_shards)
        # cache counters are absorbed from the per-report statistics
        # snapshots (see absorb_statistics); the reports contribute entries
        # only, as per-round diffs
        if absorb_into is not None:
            base = same = None
            for report in reports:
                absorb_into.absorb_statistics(report.statistics)
                if absorb_into.cache is not None and report.cache_diff:
                    if base is None:
                        base, same = absorb_into.dirty_table.fingerprint(), {}
                    for key, value in report.cache_diff:
                        absorb_into.cache.put(_shared_base(key, base, same), value)
            absorb_into.parallel_workers = max(absorb_into.parallel_workers, n_workers)
            absorb_into.parallel_shards += n_shards
            for key in _POOL_COUNTERS:
                setattr(absorb_into, key,
                        getattr(absorb_into, key) + pool_counters[key])
            if not completed:
                absorb_into.deadline_expired += 1
            cache = absorb_into.cache
        elif self.spec.use_cache:
            cache = (OracleCache(self.spec.cache_size)
                     if self.spec.cache_size is not None else OracleCache())
            for report in reports:
                for key, value in report.cache_diff:
                    cache.put(key, value)
            cache.hits += statistics.get("cache_hits", 0)
            cache.misses += statistics.get("cache_misses", 0)
            cache.evictions += statistics.get("cache_evictions", 0)
        else:
            cache = None
        return ParallelExplainResult(
            estimates=estimates,
            n_workers=n_workers,
            n_shards=n_shards,
            statistics=statistics,
            cache=cache,
            completed=completed,
            touched=touched,
        )
