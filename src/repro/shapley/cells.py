"""Shapley values of table cells (Section 2.2, second adaptation).

The players are the cells of the dirty table and the constraint set stays
fixed; since a table has far too many cells for exact enumeration, the
estimator of Example 2.5 (permutation sampling with column-distribution
replacements, :mod:`repro.shapley.sampling`) is used.  An exact enumerator is
also provided for tiny tables so the estimator can be validated.

The evaluation engine is the repair algorithm's (``engine="fast"`` or
``"reference"``), read through the oracle.  On ``"fast"`` each sampled
coalition is a sparse copy-on-write delta on the dirty table and the
with/without pair a one-cell sub-delta, so the repair oracle's violation
detection is delta-maintained instead of rescanning (see
:mod:`repro.constraints.incremental`), and a cell's pairs drain through one
:meth:`~repro.repair.base.BinaryRepairOracle.query_pairs` call per
chunk.  ``"reference"`` materialises both instances and queries them one at
a time, the paper's definitions executed literally; estimates are
bit-identical.
"""

from __future__ import annotations

import math
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

#: pairs drained per :meth:`BinaryRepairOracle.query_pairs` call — bounds
#: peak memory at O(chunk x n_cells) live coalition views while still giving
#: the oracle a whole window to dedup over; also the default shard
#: granularity of the parallel scheduler, so one shard drains as one call
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


def _finite_seconds(value) -> float:
    """``value`` as a float, or NaN (which fails every comparison) when it is
    not a finite number."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return math.nan
    return seconds if math.isfinite(seconds) else math.nan


def check_time_budgets(deadline_seconds: float | None,
                       worker_timeout: float | None) -> None:
    """Reject a deadline that is not a finite number >= 0 and a worker
    timeout that is not a finite number > 0 (``None`` is allowed for both).

    An infinite budget would overflow the pipe poll, a NaN one would expire
    every round, and a non-positive timeout would time every worker out.
    """
    if deadline_seconds is not None and not _finite_seconds(deadline_seconds) >= 0:
        raise ExplanationError(
            f"deadline_seconds must be a finite number >= 0, got {deadline_seconds!r}"
        )
    if worker_timeout is not None and not _finite_seconds(worker_timeout) > 0:
        raise ExplanationError(
            f"worker_timeout must be a finite number > 0, got {worker_timeout!r}"
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
        whose draws are serially entangled across cells.  The ``n_jobs``
        path keeps one :class:`~repro.parallel.pool.WorkerPool` with
        resident worker oracle stacks alive for the explainer's lifetime —
        spawned on the first parallel call, reused across every
        :meth:`estimate_cell` / :meth:`explain` call and every adaptive
        round, shipping only new cache entries home.  The explainer is a
        context manager; :meth:`close` shuts the pool down.
    samples_per_shard:
        Samples per shard on the ``n_jobs`` path (default: the scheduler's,
        which matches :data:`BATCH_CHUNK_SIZE`).  Changing it changes the
        seed partition and therefore the draws; it must be held fixed when
        comparing runs.
    worker_timeout:
        Seconds (finite, ``> 0``) the warm pool waits for a worker's round
        report before declaring it hung; its shards then finish in-process
        (default: wait indefinitely; worker death is detected immediately
        either way).
    deadline_seconds:
        Wall-clock budget (finite, ``>= 0``) per :meth:`explain` /
        :meth:`estimate_cell` call on the ``n_jobs`` path.  On expiry the
        merged partial estimates come back with
        ``ShapleyResult.completed=False`` instead of hanging; the sequential
        path ignores it.

    Both budgets are validated here (:class:`ExplanationError`), whatever
    ``n_jobs`` is.

    The evaluation engine is ``oracle.engine`` (the repair algorithm's, see
    the module docstring); estimates are bit-identical on both.
    """

    def __init__(
        self,
        oracle: BinaryRepairOracle,
        policy: ReplacementPolicy | str = ReplacementPolicy.SAMPLE,
        rng=None,
        n_jobs: int | None = None,
        samples_per_shard: int | None = None,
        worker_timeout: float | None = None,
        deadline_seconds: float | None = None,
    ):
        self.oracle = oracle
        self.policy = ReplacementPolicy.from_name(policy)
        if n_jobs is not None and int(n_jobs) < 1:
            raise ValueError(f"n_jobs must be a positive integer or None, got {n_jobs}")
        self.n_jobs = int(n_jobs) if n_jobs is not None else None
        check_time_budgets(deadline_seconds, worker_timeout)
        self.samples_per_shard = samples_per_shard
        self.worker_timeout = worker_timeout
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
            materialize=oracle.engine == "reference",
        )

    # -- parallel plumbing ---------------------------------------------------------------

    def job_seed(self) -> int:
        """The seed the sharded scheduler partitions into per-shard streams.

        For integer (or default) seeds this is the seed itself; when the
        explainer was handed a live generator there is no integer to recover,
        so one is drawn from that generator — once, deterministically given
        the generator's state — and reused for every subsequent parallel run.
        The derivation rule itself lives in
        :func:`repro.parallel.seeding.resolve_job_seed`.
        """
        if self._job_seed is None:
            from repro.parallel.seeding import resolve_job_seed

            self._job_seed = resolve_job_seed(self._rng)
        return self._job_seed

    def _scheduler(self, n_jobs: int):
        """The (cached) sharded scheduler for ``n_jobs`` workers.

        One scheduler — and therefore one warm pool with resident worker
        stacks — serves every parallel call of this explainer.
        """
        scheduler = self._schedulers.get(n_jobs)
        if scheduler is None:
            from repro.parallel import ShardedExplainScheduler

            scheduler = ShardedExplainScheduler.from_explainer(
                self, n_jobs=n_jobs, samples_per_shard=self.samples_per_shard,
                worker_timeout=self.worker_timeout,
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

        On the fast engine the cell's with/without pairs are enqueued and
        drained through :meth:`BinaryRepairOracle.query_pairs` calls; on the
        reference engine each sample's two instances are two independent
        queries.  Either way the sample's contribution is the
        difference of the two binary answers, accumulated in sampling order.

        With ``n_jobs`` set the cell's samples are partitioned into seeded
        shards and estimated through the sharded scheduler instead (identical
        for every worker count, see the class docstring).
        """
        check_sample_count(n_samples)
        cell = self.oracle.dirty_table.validate_cell(cell)
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
        if self.oracle.engine == "reference":
            for _ in range(n_samples):
                with_cell, without_cell = self.sampler.sample_pair(cell)
                difference = self.oracle.query_table(with_cell) - self.oracle.query_table(without_cell)
                tracker.update(float(difference))
            return
        remaining = n_samples
        while remaining > 0:
            chunk = min(remaining, BATCH_CHUNK_SIZE)
            remaining -= chunk
            pairs = [self.sampler.sample_pair(cell) for _ in range(chunk)]
            for value_with, value_without in self.oracle.query_pairs(pairs):
                tracker.update(float(value_with - value_without))

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
        cell = self.oracle.dirty_table.validate_cell(cell)
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
        n = table.n_cells
        sampler = CellCoalitionSampler(table, policy=ReplacementPolicy.NULL, rng=self._rng)
        coalitions = sampler.enumerate_coalitions(cell)
        total = 0.0
        for coalition in coalitions:
            weight = shapley_weight(len(coalition), n)
            with_cell = self.oracle.query_cell_coalition(set(coalition) | {cell})
            without_cell = self.oracle.query_cell_coalition(coalition)
            total += weight * (with_cell - without_cell)
        return total
