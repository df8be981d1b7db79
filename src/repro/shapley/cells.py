"""Shapley values of table cells (Section 2.2, second adaptation).

The players are the cells of the dirty table and the constraint set stays
fixed; since a table has far too many cells for exact enumeration, the
estimator of Example 2.5 (permutation sampling with column-distribution
replacements, :mod:`repro.shapley.sampling`) is used.  An exact enumerator is
also provided for tiny tables so the estimator can be validated.

By default each sampled instance is evaluated on the incremental engine: the
coalition is a sparse copy-on-write delta on the dirty table and the
with/without pair a one-cell sub-delta, so the repair oracle's violation
detection is delta-maintained instead of rescanning (see
:mod:`repro.constraints.incremental`).  ``incremental=False`` restores the
materialised full-rescan reference path with bit-identical estimates (with a
``second_order=False`` repair algorithm behind the oracle).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.config import DEFAULT_CELL_SAMPLES, make_rng
from repro.constraints.dc import DenialConstraint
from repro.dataset.table import CellRef, Table
from repro.errors import ExplanationError
from repro.observability import trace as otrace
from repro.observability.trace import coordinate_span_id
from repro.repair.base import BinaryRepairOracle
from repro.shapley.convergence import RunningMean
from repro.shapley.game import ShapleyResult, shapley_weight
from repro.shapley.sampling import CellCoalitionSampler, ReplacementPolicy, SampledShapleyEstimate

#: pairs drained per :meth:`BinaryRepairOracle.query_pairs` scheduled pass —
#: bounds peak memory at O(chunk x n_cells) live coalition views while still
#: giving the scheduler a whole window to dedup and group over; also the
#: default shard granularity of the parallel scheduler, so one shard drains
#: as one scheduled pass
BATCH_CHUNK_SIZE = 128


def relevant_cells(table: Table, constraints: Sequence[DenialConstraint],
                   cell_of_interest: CellRef) -> list[CellRef]:
    """Cells that can plausibly influence the repair of ``cell_of_interest``.

    A cell is considered relevant when its attribute is mentioned by at least
    one constraint or when it belongs to the same tuple as the cell of
    interest (repair rules often condition on sibling attributes).  This is
    purely a cost-saving pre-filter for choosing *which* cells to explain; it
    never changes the value computed for an explained cell.
    """
    constrained_attributes: set[str] = set()
    for constraint in constraints:
        constrained_attributes |= constraint.attributes()
    chosen = [
        cell
        for cell in table.cells()
        if cell.attribute in constrained_attributes or cell.row == cell_of_interest.row
    ]
    return chosen


def check_sample_count(n_samples: int) -> None:
    """Reject a per-cell sample budget below one (it would estimate nothing)."""
    if n_samples < 1:
        raise ExplanationError(
            f"the number of samples per cell must be at least 1, got {n_samples}"
        )


class CellShapleyExplainer:
    """Estimate and rank the contribution of table cells to one cell's repair.

    Parameters
    ----------
    oracle:
        Binary repair oracle bound to the algorithm, constraint set, dirty
        table and cell of interest.
    policy:
        Replacement policy for out-of-coalition cells (default: the paper's
        column-distribution sampling).
    rng:
        Seed or generator; drives both the permutation and the replacement
        sampling.
    incremental:
        When ``True`` (default) every sampled coalition is evaluated as a
        sparse :class:`~repro.dataset.table.PerturbationView` delta on the
        dirty table, and the with/without pair as a one-cell sub-delta — the
        incremental engine's hot path.  ``False`` materialises full table
        copies instead.  Estimates are identical for a fixed seed; only the
        wall-clock differs.  Note this flag only governs the sampled
        instances built here; the oracle's own perturbations (cell-coalition
        and constraint-subset queries) follow the oracle's ``incremental``
        flag — construct the :class:`BinaryRepairOracle` with
        ``incremental=False`` and a ``second_order=False`` repair algorithm
        as well to force the reference path end to end.
    paired:
        When ``True`` (default) each Monte-Carlo sample's with/without pair
        is submitted as one :meth:`BinaryRepairOracle.query_table_pair` call,
        which shares a single repair walk between the two instances (the
        detection state is forked at the target cell) and memoises the pair
        result under a fingerprint-pair key.  Requires ``incremental``; with
        either flag false the pair degrades to two independent
        :meth:`~BinaryRepairOracle.query_table` calls.  The oracle's own
        ``paired`` flag must also be set for the walk to actually be shared.
        Estimates are bit-identical across all flag combinations for a fixed
        seed.
    shared_stats:
        When ``True`` (default) and the oracle carries a
        :class:`~repro.engine.stats.SharedStatistics` engine (its own
        ``shared_stats`` flag), every sampled coalition view travels with
        that engine, so the repair algorithms lease one explainer-lifetime
        statistics instance — moved onto each instance by its sparse delta —
        instead of rebuilding counts per Monte-Carlo sample.  ``False``
        forces the per-instance statistics path.  Estimates are bit-identical
        either way.
    batched_pairs:
        When ``True`` (default) :meth:`estimate_cell` enqueues all of a
        cell's with/without pair requests and drains them through one
        :meth:`BinaryRepairOracle.query_pairs` scheduled pass (pair-memo
        dedup up front, coalition-prefix grouping, one primed walk per
        group).  Requires ``paired`` and ``incremental``; ``False`` submits
        one pair query per sample, exactly as before.  Estimates are
        bit-identical either way.
    n_jobs:
        ``None`` (default) keeps the sequential path: one RNG stream drives
        every cell's draws in submission order, exactly as in earlier
        releases.  An integer routes :meth:`estimate_cell`/:meth:`explain`
        through the sharded scheduler (:mod:`repro.parallel`): the job is
        partitioned into ``(cell, sample-chunk)`` shards with seeds spawned
        per shard from the job seed, executed on ``n_jobs`` worker processes
        (``1`` runs the same plan in-process), and merged.  Estimates are
        **bit-identical for every** ``n_jobs >= 1`` — the coalition draws of
        a shard depend only on the job seed and the shard's position, never
        on which worker ran it — but differ from the ``n_jobs=None`` stream,
        whose draws are serially entangled across cells.
    samples_per_shard:
        Samples per shard on the ``n_jobs`` path (default: the scheduler's,
        which matches :data:`BATCH_CHUNK_SIZE`).  Changing it changes the
        seed partition and therefore the draws; it must be held fixed when
        comparing runs.
    warm_pool:
        When ``True`` (default) the ``n_jobs`` path keeps one
        :class:`~repro.parallel.pool.WorkerPool` with resident worker oracle
        stacks alive for the explainer's lifetime — spawned on the first
        parallel call, reused across every :meth:`estimate_cell` /
        :meth:`explain` call and every adaptive round, shipping only new
        cache entries home.  ``False`` forces the cold path: a transient
        pool and a full worker-stack rebuild per round.  Estimates are
        bit-identical either way.  The explainer is a context manager;
        :meth:`close` shuts the pool down.
    worker_timeout:
        Seconds the warm pool waits for a worker's round report before
        declaring it hung and requeueing its shards onto a live worker
        (default: wait indefinitely; worker death is detected immediately
        either way).
    retry_policy:
        A :class:`~repro.parallel.pool.RetryPolicy` bounding the pool's
        restart machinery on the ``n_jobs`` path (backoff between worker
        restarts, per-slot restart cap, per-shard quarantine cap); ``None``
        uses the scheduler's default policy.
    deadline_seconds:
        Wall-clock budget per :meth:`explain` / :meth:`estimate_cell` call
        on the ``n_jobs`` path.  On expiry the merged partial estimates come
        back with ``ShapleyResult.completed=False`` instead of hanging; the
        sequential path ignores it.
    """

    def __init__(
        self,
        oracle: BinaryRepairOracle,
        policy: ReplacementPolicy | str = ReplacementPolicy.SAMPLE,
        rng=None,
        incremental: bool = True,
        paired: bool = True,
        shared_stats: bool = True,
        batched_pairs: bool = True,
        n_jobs: int | None = None,
        samples_per_shard: int | None = None,
        warm_pool: bool = True,
        worker_timeout: float | None = None,
        retry_policy=None,
        deadline_seconds: float | None = None,
    ):
        self.oracle = oracle
        self.policy = ReplacementPolicy.from_name(policy)
        self.incremental = bool(incremental)
        self.paired = bool(paired)
        self.shared_stats = bool(shared_stats) and self.incremental
        self.batched_pairs = bool(batched_pairs)
        if n_jobs is not None and int(n_jobs) < 1:
            raise ValueError(f"n_jobs must be a positive integer or None, got {n_jobs}")
        self.n_jobs = int(n_jobs) if n_jobs is not None else None
        self.samples_per_shard = samples_per_shard
        self.warm_pool = bool(warm_pool)
        self.worker_timeout = worker_timeout
        self.retry_policy = retry_policy
        self.deadline_seconds = deadline_seconds
        #: schedulers by worker count, each owning one (lazily spawned) warm
        #: pool — cached so repeated estimates reuse resident worker state
        self._schedulers: dict[int, "object"] = {}
        #: the integer the sharded scheduler partitions into per-shard seeds;
        #: resolved immediately for int/None seeds, deferred for a live
        #: generator so purely sequential use never consumes an extra draw
        #: (see :meth:`job_seed`)
        self._job_seed: int | None = None
        if rng is None or isinstance(rng, (int, np.integer)):
            from repro.parallel.seeding import resolve_job_seed

            self._job_seed = resolve_job_seed(rng)
        self._rng = make_rng(rng)
        self.sampler = CellCoalitionSampler(
            oracle.dirty_table, policy=self.policy, rng=self._rng,
            materialize=not self.incremental,
            batched=self.paired and self.incremental,
            stats_engine=oracle.stats_engine if self.shared_stats else None,
        )

    # -- parallel plumbing ---------------------------------------------------------------

    def job_seed(self) -> int:
        """The seed the sharded scheduler partitions into per-shard streams.

        For integer (or default) seeds this is the seed itself; when the
        explainer was handed a live generator there is no integer to recover,
        so one is drawn from that generator — once, deterministically given
        the generator's state — and reused for every subsequent parallel run.
        The derivation rule itself lives in
        :func:`repro.parallel.seeding.resolve_job_seed`, shared with the
        permutation estimator.
        """
        if self._job_seed is None:
            from repro.parallel.seeding import resolve_job_seed

            self._job_seed = resolve_job_seed(self._rng)
        return self._job_seed

    def _scheduler(self, n_jobs: int):
        """The (cached) sharded scheduler for ``n_jobs`` workers.

        One scheduler — and therefore one warm pool with resident worker
        stacks — serves every parallel call of this explainer; the cold-pool
        mode caches the scheduler too (it keeps the in-process resident
        state that ``n_jobs=1`` always had).
        """
        scheduler = self._schedulers.get(n_jobs)
        if scheduler is None:
            from repro.parallel import ShardedExplainScheduler

            scheduler = ShardedExplainScheduler.from_explainer(
                self, n_jobs=n_jobs, samples_per_shard=self.samples_per_shard,
                warm_pool=self.warm_pool, worker_timeout=self.worker_timeout,
                retry_policy=self.retry_policy,
                deadline_seconds=self.deadline_seconds,
            )
            self._schedulers[n_jobs] = scheduler
        return scheduler

    def close(self) -> None:
        """Shut down any warm worker pools this explainer spawned.

        Safe to call repeatedly and never required for correctness — pool
        workers are daemonic and die with the parent — but long-lived
        processes explaining many tables should close explainers they are
        done with (or use them as context managers) to free the worker
        processes promptly.
        """
        for scheduler in self._schedulers.values():
            scheduler.close()
        self._schedulers.clear()

    def __enter__(self) -> "CellShapleyExplainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- single-cell estimate ------------------------------------------------------------

    def estimate_cell(self, cell: CellRef, n_samples: int = DEFAULT_CELL_SAMPLES) -> SampledShapleyEstimate:
        """Monte-Carlo Shapley estimate for one cell (Example 2.5's loop).

        On the batched path all of the cell's with/without pairs are enqueued
        and drained in one :meth:`BinaryRepairOracle.query_pairs` scheduled
        pass; on the paired path each sample's two instances go to the oracle
        as one pair query sharing a repair walk; otherwise they are two
        independent queries.  Either way the sample's contribution is the
        difference of the two binary answers, accumulated in sampling order.

        With ``n_jobs`` set the cell's samples are partitioned into seeded
        shards and estimated through the sharded scheduler instead (identical
        for every worker count, see the class docstring).
        """
        check_sample_count(n_samples)
        self.oracle.dirty_table.validate_cell(cell)
        if self.n_jobs is not None:
            outcome = self._scheduler(self.n_jobs).run(
                [cell], n_samples, absorb_into=self.oracle
            )
            return outcome.estimates[cell]
        tracker = RunningMean()
        self._accumulate_cell(cell, n_samples, tracker)
        return self._estimate_from(cell, tracker)

    def _accumulate_cell(self, cell: CellRef, n_samples: int, tracker: RunningMean) -> None:
        """Feed ``n_samples`` Monte-Carlo differences for ``cell`` into ``tracker``.

        The single evaluation core shared by the sequential path and the
        sharded scheduler's workers (which call it once per shard, after
        reseeding the sampler with the shard's stream).
        """
        use_pair = self.paired and self.incremental
        if use_pair and self.batched_pairs:
            remaining = n_samples
            while remaining > 0:
                chunk = min(remaining, BATCH_CHUNK_SIZE)
                remaining -= chunk
                pairs = [self.sampler.sample_pair(cell) for _ in range(chunk)]
                for value_with, value_without in self.oracle.query_pairs(pairs):
                    tracker.update(float(value_with - value_without))
        else:
            for _ in range(n_samples):
                with_cell, without_cell = self.sampler.sample_pair(cell)
                if use_pair:
                    value_with, value_without = self.oracle.query_table_pair(
                        with_cell, without_cell
                    )
                    difference = value_with - value_without
                else:
                    difference = self.oracle.query_table(with_cell) - self.oracle.query_table(without_cell)
                tracker.update(float(difference))

    @staticmethod
    def _estimate_from(cell: CellRef, tracker: RunningMean) -> SampledShapleyEstimate:
        # SampledShapleyEstimate normalises the degenerate n < 2 case itself
        return SampledShapleyEstimate(
            cell=cell,
            value=tracker.mean,
            standard_error=tracker.standard_error,
            n_samples=tracker.count,
        )

    def estimate_cell_converged(
        self,
        cell: CellRef,
        tolerance: float = 0.01,
        min_samples: int = 30,
        max_samples: int = DEFAULT_CELL_SAMPLES,
    ) -> SampledShapleyEstimate:
        """Adaptive estimate: sample in shard-sized rounds until converged.

        Runs the sharded scheduler (``n_jobs`` workers, or in-process when
        ``n_jobs`` is unset) in rounds of one seeded chunk per round and stops
        once the merged cross-shard accumulator satisfies the
        :class:`~repro.shapley.convergence.ConvergenceTracker` rule — the
        decision always consumes the merged sample count, never one worker's
        private count, so the stopping point (and the estimate) is identical
        for every worker count.
        """
        self.oracle.dirty_table.validate_cell(cell)
        outcome = self._scheduler(self.n_jobs or 1).run_adaptive(
            [cell], tolerance=tolerance, min_samples=min_samples,
            max_samples=max_samples, absorb_into=self.oracle,
        )
        return outcome.estimates[cell]

    # -- many cells ---------------------------------------------------------------------

    def explain(
        self,
        cells: Iterable[CellRef] | None = None,
        n_samples: int = DEFAULT_CELL_SAMPLES,
        exclude_cell_of_interest: bool = False,
    ) -> ShapleyResult:
        """Estimate Shapley values for ``cells`` (default: every cell of the table).

        Parameters
        ----------
        cells:
            The cells to explain; pass :func:`relevant_cells` output to save
            time on wide tables.
        n_samples:
            Permutation samples per cell (``m`` in the paper).
        exclude_cell_of_interest:
            Skip the cell being explained itself (its "contribution to its own
            repair" is usually not what a user wants ranked).
        """
        check_sample_count(n_samples)
        if cells is None:
            cells = list(self.oracle.dirty_table.cells())
        else:
            cells = list(cells)
        if exclude_cell_of_interest:
            cells = [cell for cell in cells if cell != self.oracle.cell]

        values: dict[CellRef, float] = {}
        errors: dict[CellRef, float] = {}
        total_samples = 0
        completed = True
        if self.n_jobs is not None and cells:
            # one sharded plan over the whole job: all (cell, chunk) shards
            # are scheduled together so the workers stay busy across cells
            outcome = self._scheduler(self.n_jobs).run(
                cells, n_samples, absorb_into=self.oracle
            )
            completed = outcome.completed
            for cell in cells:
                estimate = outcome.estimates[cell]
                values[cell] = estimate.value
                errors[cell] = estimate.standard_error
                total_samples += estimate.n_samples
        else:
            # the sequential path records the same explain_job → cell span
            # shape as the scheduler, with ids from the same coordinates
            tracer = otrace.current()
            seed = self.job_seed() if tracer is not None else 0
            job_span = None
            if tracer is not None:
                job_span = tracer.start(
                    "explain_job",
                    span_id=coordinate_span_id(seed, "job", "sequential"),
                    kind="sequential", cells=len(cells),
                )
            try:
                for position, cell in enumerate(cells):
                    if tracer is None:
                        estimate = self.estimate_cell(cell, n_samples=n_samples)
                    else:
                        with tracer.span(
                            "cell",
                            span_id=coordinate_span_id(seed, "cell", position),
                            cell=str(cell),
                        ):
                            estimate = self.estimate_cell(cell, n_samples=n_samples)
                    values[cell] = estimate.value
                    errors[cell] = estimate.standard_error
                    total_samples += estimate.n_samples
            finally:
                if job_span is not None:
                    tracer.finish(job_span)
        return ShapleyResult(
            values=values,
            standard_errors=errors,
            n_samples=total_samples,
            n_evaluations=self.oracle.calls,
            method=f"cell-sampling-{self.policy.value}",
            completed=completed,
        )

    # -- exact (tiny tables) ----------------------------------------------------------------

    def exact_cell_value(self, cell: CellRef) -> float:
        """Exact Shapley value of a cell under the NULL-coalition definition.

        Enumerates every coalition of the *other* cells (all non-coalition
        cells nulled out), so it is only usable on tiny tables; the test-suite
        uses it to validate the sampling estimator.
        """
        table = self.oracle.dirty_table
        all_cells = list(table.cells())
        others = [c for c in all_cells if c != cell]
        n = len(all_cells)
        sampler = CellCoalitionSampler(table, policy=ReplacementPolicy.NULL, rng=self._rng)
        coalitions = sampler.enumerate_coalitions(cell)
        total = 0.0
        for coalition in coalitions:
            weight = shapley_weight(len(coalition), n)
            with_cell = self.oracle.query_cell_coalition(set(coalition) | {cell})
            without_cell = self.oracle.query_cell_coalition(coalition)
            total += weight * (with_cell - without_cell)
        # `others` retained for clarity: the enumeration is over subsets of it.
        assert len(others) == n - 1
        return total
