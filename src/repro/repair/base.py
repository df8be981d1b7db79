"""The black-box repair interface.

``RepairAlgorithm`` is the only thing T-REx assumes about a repairer: it maps
a set of denial constraints and a dirty table to a repaired table.  The
``BinaryRepairOracle`` turns that into the paper's binary function

    Alg|t[A] : (C, T^d) → {0, 1}

which returns 1 exactly when running the algorithm repairs the cell of
interest ``t[A]`` to the reference clean value ``t^c[A]`` (the value obtained
from the original, full repair).  The oracle also counts and memoises
black-box invocations, because Shapley evaluation re-queries the algorithm
thousands of times with perturbed inputs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.constraints.dc import DenialConstraint, constraint_set_names
from repro.constraints.incremental import detector_for, repair_walk_for
from repro.dataset.table import CellRef, PerturbationView, RepairDelta, Table
from repro.engine.stats import SharedStatistics
from repro.engine.storage import NULL
from repro.errors import RepairError
from repro.observability import trace as otrace
from repro.observability.metrics import (
    ORACLE_METRICS,
    MetricAttribute,
    MetricsRegistry,
)
from repro.repair.cache import OracleCache


@dataclass
class RepairResult:
    """Output of one repair run: the clean table plus bookkeeping."""

    dirty: Table
    clean: Table
    delta: RepairDelta
    iterations: int = 1
    metadata: dict = field(default_factory=dict)

    @property
    def repaired_cells(self) -> list[CellRef]:
        return self.delta.cells()

    def was_repaired(self, cell: CellRef) -> bool:
        return cell in self.delta


def _step_budget(name: str, value: Any) -> int:
    """Validate a repair step budget: a positive ``int`` or numpy integer.

    ``bool`` is rejected although it is an ``int`` subclass, and so is a
    float, which would otherwise construct fine and fail at the first repair.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise RepairError(
            f"{name} must be an integer, got {type(value).__name__} {value!r}"
        )
    if value <= 0:
        raise RepairError(f"{name} must be positive, got {value}")
    return int(value)


def _padded_differing_lists(
    differing_cells_lists: Sequence[Sequence[CellRef]], n_pairs: int
) -> Sequence[Sequence[CellRef]]:
    """Validate a group's per-pair differing-cells argument.

    An empty argument means "unknown" for every pair; anything else must
    match the without-instances one-to-one — silently ``zip``-truncating a
    group would drop repairs.
    """
    if not differing_cells_lists:
        return [()] * n_pairs
    if len(differing_cells_lists) != n_pairs:
        raise ValueError(
            f"repair_pair_group got {n_pairs} without-instances but "
            f"{len(differing_cells_lists)} differing-cells lists"
        )
    return differing_cells_lists


def _walk_repair_table(algorithm, constraints: Sequence[DenialConstraint],
                       table: Table) -> Table:
    """``repair_table`` of the walk-based repairers (simple and greedy).

    With ``second_order`` a plain input is repaired on a zero-delta view,
    like any view, and the result materialised, so a later in-place write to
    the input (``RepairSession.update``) cannot show through it.  The rescan
    reference needs ``second_order=False``: a plain input is then copied and
    every pass re-detects with ``find_violations``.
    """
    constraints = list(constraints)
    name = f"{table.name}_repaired"
    if not algorithm.second_order:
        return algorithm._repair_loop(constraints, table.mutable_snapshot(name=name), None)
    if isinstance(table, PerturbationView):
        current = table.mutable_snapshot(name=name)
    else:
        current = table.perturbed({}, name=name, trusted=True)
    walk = repair_walk_for(current, constraints)
    clean = algorithm._repair_loop(constraints, current, walk)
    return clean if isinstance(table, PerturbationView) else clean.copy()


class RepairAlgorithm(abc.ABC):
    """Abstract base class for repair algorithms (the black box).

    Subclasses implement :meth:`repair_table`, which must not mutate its
    inputs, and must be deterministic given (constraints, table) — the Shapley
    definitions assume the characteristic function is a function.
    """

    #: Human-readable algorithm name used in reports and benchmarks.
    name: str = "repair"

    #: lifetime count of :meth:`repair_pair` calls that actually shared one
    #: detection walk between the two instances.  The base implementation
    #: never shares, so it never increments; overrides increment it exactly
    #: when they fork state instead of running two independent repairs, which
    #: is how the oracle keeps its ``pair_walks`` statistic honest.
    shared_pair_walks: int = 0

    @abc.abstractmethod
    def repair_table(self, constraints: Sequence[DenialConstraint], table: Table) -> Table:
        """Return a repaired copy of ``table`` under ``constraints``."""

    def repair_pair(
        self,
        constraints: Sequence[DenialConstraint],
        with_table: Table,
        without_table: Table,
        differing_cells: Sequence[CellRef] = (),
    ) -> tuple[Table, Table]:
        """Repair two nearly identical instances (an oracle with/without pair).

        ``differing_cells`` names the cells whose contents may differ between
        the two instances (for the cell-Shapley sampling loop: exactly the
        target cell).  The base implementation runs two independent repairs;
        algorithms that walk an explicit detection state (the simple and
        greedy repairers) override it to prime the state once and fork it at
        the differing cells.  Overrides must return exactly what two
        independent :meth:`repair_table` calls would.
        """
        del differing_cells  # the independent fallback has nothing to share
        return (
            self.repair_table(list(constraints), with_table),
            self.repair_table(list(constraints), without_table),
        )

    def repair_pair_group(
        self,
        constraints: Sequence[DenialConstraint],
        with_table: Table,
        without_tables: Sequence[Table],
        differing_cells_lists: Sequence[Sequence[CellRef]] = (),
    ) -> tuple[Table, list[Table]]:
        """Repair one with-instance against several without-instances.

        The batch scheduler's entry point: all pairs of one group share the
        same with-instance *content* (a shared coalition prefix), so the
        detection state can be primed once and forked per without-instance.
        The base implementation degrades to :meth:`repair_pair` per pair (the
        with-instance is re-repaired each time — determinism makes the copies
        identical); walk-sharing algorithms override it to prime once.
        Overrides must return exactly what independent :meth:`repair_table`
        calls would.
        """
        constraints = list(constraints)
        differing_cells_lists = _padded_differing_lists(
            differing_cells_lists, len(without_tables)
        )
        clean_with: Table | None = None
        clean_withouts: list[Table] = []
        for without_table, differing in zip(without_tables, differing_cells_lists):
            clean_with, clean_without = self.repair_pair(
                constraints, with_table, without_table, differing
            )
            clean_withouts.append(clean_without)
        if clean_with is None:
            clean_with = self.repair_table(constraints, with_table)
        return clean_with, clean_withouts

    # -- convenience API ----------------------------------------------------------

    def repair(self, constraints: Sequence[DenialConstraint], table: Table) -> RepairResult:
        """Run the repair and package the result with its dirty→clean delta."""
        clean = self.repair_table(list(constraints), table)
        return RepairResult(dirty=table, clean=clean, delta=table.diff(clean))

    def __call__(self, constraints: Sequence[DenialConstraint], table: Table) -> Table:
        return self.repair_table(list(constraints), table)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


class FunctionRepairAlgorithm(RepairAlgorithm):
    """Adapter turning a plain function ``f(constraints, table) -> Table`` into
    a :class:`RepairAlgorithm`.

    Useful in tests and for wrapping third-party cleaners without subclassing.
    """

    def __init__(self, function: Callable[[Sequence[DenialConstraint], Table], Table],
                 name: str = "function-repair"):
        self._function = function
        self.name = name

    def repair_table(self, constraints: Sequence[DenialConstraint], table: Table) -> Table:
        return self._function(constraints, table)


class BinaryRepairOracle:
    """The paper's ``Alg|t[A]`` binary view of a repair algorithm.

    Parameters
    ----------
    algorithm:
        The black-box repair algorithm.
    constraints:
        The full constraint set ``C`` given by the user.
    dirty_table:
        The dirty table ``T^d``.
    cell:
        The cell of interest ``t[A]`` whose repair is being explained.
    target_value:
        The reference repaired value ``t^c[A]``.  When omitted it is obtained
        by running the full repair once.
    use_cache:
        Memoise oracle answers keyed by (constraint subset, table fingerprint).
    incremental:
        Route the oracle's own perturbations (constraint-subset queries, cell
        coalitions) through :class:`~repro.dataset.table.PerturbationView`
        overlays so the repair algorithms evaluate them with the incremental
        violation detector.  Results are identical either way (the benchmark
        ``bench_incremental_vs_full.py`` cross-checks this).  ``False`` hands
        the algorithm plain tables; a walk-based algorithm still repairs those
        on a zero-delta view, so the full-rescan reference path needs the
        algorithm built with ``second_order=False`` as well.
    paired:
        Allow :meth:`query_pair` to evaluate a with/without instance pair in
        one shared repair walk (:meth:`RepairAlgorithm.repair_pair`): the
        detection state is primed on the first instance and forked at the
        single differing cell for the second.  ``False`` forces every pair
        onto two independent repairs.  Answers are identical either way.
    shared_stats:
        Maintain one revertible :class:`~repro.engine.stats.SharedStatistics`
        instance for the oracle's whole lifetime and *move* it onto each
        perturbed instance by its sparse delta, instead of letting every
        repair rebuild (or fork) a statistics bundle per instance.  Requires
        ``incremental``; ``False`` forces the per-instance statistics path.
        Results are bit-identical either way.
    batched_pairs:
        Allow :meth:`query_pairs` to drain a queue of with/without pairs in
        one scheduled pass: pairs are deduplicated against the
        pair-fingerprint cache up front, grouped by shared coalition prefix
        (equal with-instance content), and each group runs on one primed
        repair walk (:meth:`RepairAlgorithm.repair_pair_group`).  ``False``
        degrades :meth:`query_pairs` to a plain :meth:`query_pair` loop.
        Answers are identical either way.
    cache_size:
        LRU bound for the oracle cache (defaults to
        :class:`~repro.repair.cache.OracleCache`'s generous built-in limit);
        ignored when ``use_cache`` is false.
    """

    # Every counter lives in ``self.metrics`` (one typed MetricsRegistry per
    # oracle — the single statistics sink); these descriptors keep the public
    # attribute spellings, including in-place ``+=`` and the scheduler's
    # ``setattr`` counter folds, proxying straight into the registry.
    calls = MetricAttribute("oracle_calls")          # oracle queries (cached or not)
    repair_runs = MetricAttribute("repair_runs")     # actual black-box repair invocations
    pair_walks = MetricAttribute("pair_walks")       # pairs evaluated in one shared walk
    batches = MetricAttribute("batches")             # query_pairs scheduled passes
    pairs_batched = MetricAttribute("pairs_batched")  # pairs submitted through those passes
    pairs_deduped = MetricAttribute("pairs_deduped")  # batched pairs answered without a repair
    max_batch_size = MetricAttribute("max_batch_size")
    # sharded-scheduler bookkeeping (absorbed from worker oracles by
    # repro.parallel; stays 0 on purely sequential oracles)
    parallel_workers = MetricAttribute("parallel_workers")  # widest worker fan-out
    parallel_shards = MetricAttribute("parallel_shards")    # shards absorbed
    # warm-pool bookkeeping (also absorbed from the scheduler): how often a
    # worker had to build its oracle stack from the job spec, how many cache
    # entries actually crossed a process boundary coming home, and the health
    # events of the pool — shards re-executed after a worker failure and
    # worker processes the pool had to replace
    worker_rebuilds = MetricAttribute("worker_rebuilds")
    cache_entries_shipped = MetricAttribute("cache_entries_shipped")
    shards_requeued = MetricAttribute("shards_requeued")
    workers_restarted = MetricAttribute("workers_restarted")
    # fault-tolerance bookkeeping (PR 7): rebuilds seeded from a parent cache
    # snapshot, entries those snapshots carried, shards quarantined to
    # in-process execution after repeated cross-worker failures, runs that hit
    # their wall-clock deadline, and seconds the pool spent backing off
    # between worker restarts
    warm_restarts = MetricAttribute("warm_restarts")
    cache_entries_seeded = MetricAttribute("cache_entries_seeded")
    shards_poisoned = MetricAttribute("shards_poisoned")
    deadline_expired = MetricAttribute("deadline_expired")
    restart_backoff_seconds = MetricAttribute("restart_backoff_seconds")
    # live base updates (PR 10): base-table writes applied through the
    # session's update path, Shapley estimates whose sampled coalitions
    # overlapped the changed cells, and memoised oracle answers dropped
    # because the content they were keyed on no longer exists
    base_updates_applied = MetricAttribute("base_updates_applied")
    estimates_invalidated = MetricAttribute("estimates_invalidated")
    cache_entries_invalidated = MetricAttribute("cache_entries_invalidated")

    def __init__(
        self,
        algorithm: RepairAlgorithm,
        constraints: Sequence[DenialConstraint],
        dirty_table: Table,
        cell: CellRef,
        target_value: Any = None,
        use_cache: bool = True,
        incremental: bool = True,
        paired: bool = True,
        shared_stats: bool = True,
        batched_pairs: bool = True,
        cache_size: int | None = None,
    ):
        self.algorithm = algorithm
        self.constraints = list(constraints)
        self.dirty_table = dirty_table
        self.cell = dirty_table.validate_cell(cell)
        self.incremental = incremental
        self.paired = paired
        self.shared_stats = bool(shared_stats) and bool(incremental)
        self.batched_pairs = bool(batched_pairs)
        #: the explainer-lifetime statistics instance, moved between coalition
        #: overlays instead of rebuilt per instance (None off the shared path)
        self.stats_engine: SharedStatistics | None = (
            SharedStatistics(dirty_table) if self.shared_stats else None
        )
        if use_cache:
            self._cache = OracleCache(cache_size) if cache_size is not None else OracleCache()
        else:
            self._cache = None
        self._dirty_view: PerturbationView | None = None
        #: the oracle's single counter sink; the class-level MetricAttribute
        #: descriptors above read and write through it
        self.metrics = MetricsRegistry(ORACLE_METRICS)

        if target_value is None:
            reference_clean = algorithm.repair_table(self.constraints, dirty_table)
            self.repair_runs += 1
            target_value = reference_clean[cell]
        self.target_value = target_value

    # -- core query ---------------------------------------------------------------

    def _evaluate(self, constraints: Sequence[DenialConstraint], table: Table) -> int:
        clean = self.algorithm.repair_table(list(constraints), table)
        self.repair_runs += 1
        return 1 if clean[self.cell] == self.target_value else 0

    def query(self, constraints: Sequence[DenialConstraint], table: Table | None = None) -> int:
        """``Alg|t[A](constraints, table)`` — 1 iff the cell is repaired to the target.

        ``table`` defaults to the original dirty table (the constraint-Shapley
        case, where only the constraint subset varies).
        """
        self.calls += 1
        table = table if table is not None else self.dirty_table
        if self._cache is None:
            return self._evaluate(constraints, table)
        key = (constraint_set_names(constraints), table.fingerprint())
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        value = self._evaluate(constraints, table)
        self._cache.put(key, value)
        return value

    # -- paired query --------------------------------------------------------------

    def query_pair(
        self,
        constraints: Sequence[DenialConstraint],
        with_table: Table,
        without_table: Table,
    ) -> tuple[int, int]:
        """Evaluate a with/without instance pair, sharing one repair walk.

        Answers are exactly those of two :meth:`query` calls on the same
        tables (property-tested); only the work is shared — the pair of
        nearly identical repairs runs as one primed walk plus a fork at the
        differing cell when the instances are sibling views and the ``paired``
        and ``incremental`` flags allow it.  Pair results are additionally
        memoised under a fingerprint-pair key so a recurring coalition costs
        one cache lookup.
        """
        constraints = list(constraints)
        self.calls += 2
        if self._cache is None:
            return self._evaluate_pair(constraints, with_table, without_table)
        names = constraint_set_names(constraints)
        fingerprint_with = with_table.fingerprint()
        pair_key, differing = self._pair_memo_key(
            names, with_table, without_table, fingerprint_with
        )
        pair = self._cache.get(pair_key)
        if pair is not None:
            return pair
        return self._query_pair_uncached(
            constraints, names, with_table, without_table,
            fingerprint_with, pair_key, differing,
        )

    def _pair_memo_key(self, names, with_table: Table, without_table: Table,
                       fingerprint_with) -> tuple[tuple, "list[CellRef] | None"]:
        """The pair-memo key for one with/without pair, plus the differing cells.

        Shareable pairs (sibling views) are keyed by the with-instance
        fingerprint plus the sub-delta separating the without-instance, which
        pins the pair's content without fingerprinting the without-instance;
        everything else falls back to the two-fingerprint key.  Both
        :meth:`query_pair` and :meth:`query_pairs` derive keys here, so
        answers memoised through either entry point serve the other.
        """
        if self._pair_is_shareable(with_table, without_table):
            differing = with_table.differing_cells(without_table)
            pair_key = ("paird", names, fingerprint_with, tuple(
                (cell.row, cell.attribute,
                 without_table.value(cell.row, cell.attribute))
                for cell in differing
            ))
            try:
                hash(pair_key)
            except TypeError:  # unhashable without-side cell value
                pair_key = ("pair", names, fingerprint_with,
                            without_table.fingerprint())
            return pair_key, differing
        return ("pair", names, fingerprint_with,
                without_table.fingerprint()), None

    def _query_pair_uncached(
        self,
        constraints: list[DenialConstraint],
        names,
        with_table: Table,
        without_table: Table,
        fingerprint_with,
        pair_key,
        differing,
    ) -> tuple[int, int]:
        """Evaluate one pair whose pair-memo lookup already missed.

        Consults the individual-answer cache (one half of the pair may have
        been answered by a plain :meth:`query`), evaluates whatever is
        missing, and records the individual and pair memo entries.  For
        shareable pairs the without-instance's *individual* entry is skipped
        both ways: its fingerprint is never needed elsewhere on the paired
        path, and the (entry-point-independent) pair memo already pins the
        answer.
        """
        key_with = (names, fingerprint_with)
        value_with = self._cache.get(key_with)
        if differing is not None:
            if value_with is None:
                value_with, value_without = self._evaluate_pair(
                    constraints, with_table, without_table, differing
                )
            else:
                value_without = self._evaluate(constraints, without_table)
            self._cache.put(key_with, value_with)
            self._cache.put(pair_key, (value_with, value_without))
            return value_with, value_without

        key_without = (names, without_table.fingerprint())
        value_without = self._cache.get(key_without)
        if value_with is None and value_without is None:
            value_with, value_without = self._evaluate_pair(
                constraints, with_table, without_table
            )
        else:
            if value_with is None:
                value_with = self._evaluate(constraints, with_table)
            if value_without is None:
                value_without = self._evaluate(constraints, without_table)

        self._cache.put(key_with, value_with)
        self._cache.put(key_without, value_without)
        self._cache.put(pair_key, (value_with, value_without))
        return value_with, value_without

    def _pair_is_shareable(self, with_table: Table, without_table: Table) -> bool:
        """Whether a pair can run as one primed walk plus a fork."""
        return (
            self.paired
            and self.incremental
            and isinstance(with_table, PerturbationView)
            and isinstance(without_table, PerturbationView)
            and with_table.base is without_table.base
        )

    def _evaluate_pair(
        self,
        constraints: Sequence[DenialConstraint],
        with_table: Table,
        without_table: Table,
        differing: Sequence[CellRef] | None = None,
    ) -> tuple[int, int]:
        if self._pair_is_shareable(with_table, without_table):
            if differing is None:
                differing = with_table.differing_cells(without_table)
            walks_before = self.algorithm.shared_pair_walks
            clean_with, clean_without = self.algorithm.repair_pair(
                constraints, with_table, without_table, differing
            )
            self.repair_runs += 2
            self.pair_walks += self.algorithm.shared_pair_walks - walks_before
            cell, target = self.cell, self.target_value
            return (
                1 if clean_with[cell] == target else 0,
                1 if clean_without[cell] == target else 0,
            )
        return (
            self._evaluate(constraints, with_table),
            self._evaluate(constraints, without_table),
        )

    # -- the multi-pair batch scheduler ----------------------------------------------

    def query_pairs(
        self, pairs: Sequence[tuple[Table, Table]]
    ) -> list[tuple[int, int]]:
        """Drain a queue of with/without pairs in one scheduled pass.

        Answers (and their order) are exactly those of one
        :meth:`query_table_pair` call per pair — only the work is scheduled:

        1. **dedup** — every pair is checked against the pair-fingerprint
           memo up front, and within-batch repeats of one fingerprint pair
           are evaluated once;
        2. **group** — remaining pairs are ordered by their coalition delta
           and pairs sharing a coalition prefix (equal with-instance content)
           form one group;
        3. **evaluate** — each group runs through
           :meth:`RepairAlgorithm.repair_pair_group`: the walk-sharing
           algorithms prime one :class:`~repro.constraints.incremental.RepairWalk`
           on the shared with-instance and fork it per without-instance, and
           the shared statistics instance moves along the scheduled order so
           consecutive instances pay only their delta difference.

        With ``batched_pairs=False`` the queue degrades to a plain
        :meth:`query_pair` loop (today's path, bit-identically).
        """
        pairs = list(pairs)
        if not pairs:
            return []
        if not self.batched_pairs:
            return [self.query_pair(self.constraints, with_table, without_table)
                    for with_table, without_table in pairs]
        tracer = otrace.current()
        if tracer is None:
            return self._query_pairs_batched(pairs)
        with tracer.span("pair_eval", pairs=len(pairs)):
            return self._query_pairs_batched(pairs)

    def _query_pairs_batched(
        self, pairs: "list[tuple[Table, Table]]"
    ) -> list[tuple[int, int]]:
        """One scheduled dedup → group → evaluate pass (query_pairs' body)."""
        constraints = self.constraints
        self.calls += 2 * len(pairs)
        self.batches += 1
        self.pairs_batched += len(pairs)
        if len(pairs) > self.max_batch_size:
            self.max_batch_size = len(pairs)
        names = constraint_set_names(constraints)
        results: list[tuple[int, int] | None] = [None] * len(pairs)

        # 1. dedup against the pair memo and within the batch.  Shareable
        # pairs are keyed by the with-instance fingerprint plus the one-cell
        # sub-delta separating the without-instance (see _pair_memo_key),
        # which pins the pair's content without ever fingerprinting the
        # without-instance.
        pending: list[tuple] = []   # (index, with, without, fp_with, key, differing)
        first_for_key: dict = {}    # pair_key -> indices awaiting that answer
        for index, (with_table, without_table) in enumerate(pairs):
            fingerprint_with = with_table.fingerprint()
            pair_key, differing = self._pair_memo_key(
                names, with_table, without_table, fingerprint_with
            )
            if self._cache is not None:
                cached = self._cache.get(pair_key)
                if cached is not None:
                    results[index] = cached
                    self.pairs_deduped += 1
                    continue
                followers = first_for_key.get(pair_key)
                if followers is not None:
                    followers.append(index)
                    self.pairs_deduped += 1
                    continue
                first_for_key[pair_key] = []
            pending.append((index, with_table, without_table,
                            fingerprint_with, pair_key, differing))

        # 2. order by coalition delta so shared prefixes become adjacent (and
        # the shared statistics instance moves the shortest distances)
        def schedule_key(entry):
            with_table = entry[1]
            if isinstance(with_table, PerturbationView):
                return (0, tuple(sorted(with_table._delta.keys())), entry[0])
            return (1, (), entry[0])

        pending.sort(key=schedule_key)

        # 3. evaluate, one group per run of equal with-instance fingerprints
        group_capable = (
            type(self.algorithm).repair_pair_group
            is not RepairAlgorithm.repair_pair_group
        )
        # the multi-coalition walk: build every distinct coalition view's
        # equality keys as one stacked code-matrix pass up front; the walks
        # primed below pop their group structures from the detector's cache
        # (keyed by view fingerprint) instead of re-deriving them one by one
        if (self.paired and self.incremental
                and getattr(self.algorithm, "second_order", False)):
            seen_fingerprints = set()
            batch_views = []
            for entry in pending:
                if entry[5] is None or entry[3] in seen_fingerprints:
                    continue
                seen_fingerprints.add(entry[3])
                batch_views.append((entry[1], entry[3]))
            if batch_views:
                detector_for(self.dirty_table).precompute_walk_indexes(
                    batch_views, constraints
                )
        answered: dict = {}
        cache = self._cache
        cell, target = self.cell, self.target_value
        position = 0
        while position < len(pending):
            group = [pending[position]]
            position += 1
            while (position < len(pending)
                   and pending[position][3] == group[0][3]):
                group.append(pending[position])
                position += 1
            shareable = all(entry[5] is not None
                            and entry[1].base is group[0][1].base
                            for entry in group)
            if len(group) > 1 and group_capable and shareable:
                # one primed walk for the whole group
                walks_before = self.algorithm.shared_pair_walks
                clean_with, clean_withouts = self.algorithm.repair_pair_group(
                    constraints, group[0][1],
                    [entry[2] for entry in group],
                    [entry[5] for entry in group],
                )
                self.repair_runs += 1 + len(group)
                self.pair_walks += self.algorithm.shared_pair_walks - walks_before
                value_with = 1 if clean_with[cell] == target else 0
                answers = [(value_with, 1 if clean_without[cell] == target else 0)
                           for clean_without in clean_withouts]
                if cache is not None:
                    cache.put((names, group[0][3]), value_with)
            else:
                answers = None
            for offset, entry in enumerate(group):
                index, with_table, without_table, fp_with, pair_key, differing = entry
                if answers is not None:
                    value = answers[offset]
                    if cache is not None:
                        cache.put(pair_key, value)
                elif cache is not None:
                    # the single-pair path: consults the individual-answer
                    # cache and records the same entries query_pair would
                    value = self._query_pair_uncached(
                        constraints, names, with_table, without_table,
                        fp_with, pair_key, differing,
                    )
                elif differing is not None:
                    walks_before = self.algorithm.shared_pair_walks
                    clean_with, clean_without = self.algorithm.repair_pair(
                        constraints, with_table, without_table, differing
                    )
                    self.repair_runs += 2
                    self.pair_walks += self.algorithm.shared_pair_walks - walks_before
                    value = (1 if clean_with[cell] == target else 0,
                             1 if clean_without[cell] == target else 0)
                else:
                    value = (self._evaluate(constraints, with_table),
                             self._evaluate(constraints, without_table))
                results[index] = value
                if cache is not None:
                    answered[pair_key] = value

        # resolve within-batch repeats from their evaluated first occurrence
        for pair_key, followers in first_for_key.items():
            if followers:
                answer = answered[pair_key]
                for index in followers:
                    results[index] = answer
        return results  # type: ignore[return-value]

    # -- convenience entry points ----------------------------------------------------

    def _dirty_as_view(self) -> PerturbationView:
        """The dirty table wrapped in an (empty-delta) copy-on-write view.

        Repairing a view routes the algorithms through the incremental
        violation detector: the first detection pass returns the dirty table's
        cached base violations, and every subsequent pass re-checks only the
        rows the repair has touched so far.
        """
        if self._dirty_view is None:
            self._dirty_view = self.dirty_table.perturbed({})
            if self.stats_engine is not None:
                self._dirty_view._stats_engine = self.stats_engine
        return self._dirty_view

    def query_constraint_subset(self, subset: Iterable[DenialConstraint]) -> int:
        """Vary the constraint set, keep the dirty table fixed (Section 2.2)."""
        table = self._dirty_as_view() if self.incremental else self.dirty_table
        return self.query(list(subset), table)

    def query_table(self, table: Table) -> int:
        """Vary the table (cell coalitions), keep the full constraint set fixed."""
        return self.query(self.constraints, table)

    def query_table_pair(self, with_table: Table, without_table: Table) -> tuple[int, int]:
        """Paired variant of :meth:`query_table` — one shared repair walk.

        This is the cell-Shapley sampling loop's entry point: the two
        instances of one Monte-Carlo sample differ in exactly the target cell.
        """
        return self.query_pair(self.constraints, with_table, without_table)

    def query_cell_coalition(self, coalition: Iterable[CellRef]) -> int:
        """Evaluate the oracle on the table restricted to ``coalition``.

        Cells outside the coalition are nulled, per the paper's definition of
        the cell characteristic function (``S ⊆ T^d`` means all other cells
        are null).  On the incremental path the restriction is a sparse
        null-overlay view instead of a materialised copy.
        """
        if self.incremental:
            keep = set(coalition)
            restricted = self.dirty_table.perturbed(
                {cell: NULL for cell in self.dirty_table.cells() if cell not in keep},
                trusted=True,
            )
            if self.stats_engine is not None:
                restricted._stats_engine = self.stats_engine
        else:
            restricted = self.dirty_table.restricted_to_coalition(coalition)
        return self.query(self.constraints, restricted)

    # -- live base updates ------------------------------------------------------------

    def apply_base_update(self, delta, *, count: bool = True) -> int:
        """Apply one :class:`~repro.repair.updates.BaseUpdateDelta` to this
        oracle's own table and patch every derived structure in place.

        The single-stack convenience used by resident workers (and any
        oracle that owns its table): statistics are synced onto the
        pre-update base, the table is mutated (delta-maintaining a live
        detector), statistics are moved by the same delta, and
        :meth:`finish_base_update` rebases the cache and adopts the new
        target.  Returns the number of cells actually written.  ``count``
        gates the update counters — worker stacks patch silently so the
        parent's absorb of their per-round deltas never double-counts.
        """
        from repro.repair.updates import apply_table_update, collect_changes

        changes = collect_changes(
            self.dirty_table,
            {update.cell: update.new_value for update in delta.updates},
        )
        if not changes:
            self.finish_base_update({}, self.dirty_table.fingerprint(),
                                    delta.target_value, count=count)
            return 0
        if self.stats_engine is not None:
            self.stats_engine.begin_base_update()
        old_fingerprint = apply_table_update(self.dirty_table, changes)
        if self.stats_engine is not None:
            self.stats_engine.complete_base_update(changes)
        self.finish_base_update(
            {(cell.row, cell.attribute): new for cell, (_old, new) in changes.items()},
            old_fingerprint, delta.target_value, count=count,
        )
        return len(changes)

    def finish_base_update(self, changes, old_fingerprint, target_value,
                           *, count: bool = True) -> int:
        """Adopt a base update whose table mutation has already happened.

        ``changes`` maps ``(row, attribute)`` to the post-update value;
        ``old_fingerprint`` is the pre-update table fingerprint (the rebase
        anchor).  The lazily built empty-delta view is dropped (its
        fingerprint embeds the old base), the memo cache is **rebased** —
        overlay-keyed entries that pin every changed cell survive under
        remapped keys, everything else is dropped — and the reference target
        value is replaced.  A target change invalidates the whole cache
        (every memoised 0/1 answer compared against the old target) without
        resetting its hit/miss counters.  Returns the number of cache
        entries dropped.
        """
        self._dirty_view = None
        dropped = 0
        if self._cache is not None and changes:
            from repro.engine.storage import values_differ

            if values_differ(self.target_value, target_value):
                dropped = self._cache.drop_entries()
            else:
                dropped = self._cache.rebase(
                    changes, old_fingerprint, self.dirty_table.fingerprint()
                )
        self.target_value = target_value
        if count:
            self.base_updates_applied += 1
            self.cache_entries_invalidated += dropped
        return dropped

    # -- bookkeeping ------------------------------------------------------------------

    @property
    def cache(self) -> OracleCache | None:
        """The memoisation cache (``None`` when built with ``use_cache=False``).

        Exposed so the sharded scheduler can export a worker oracle's cache
        contents and :meth:`OracleCache.merge` them into the parent's.
        """
        return self._cache

    def absorb_statistics(self, stats: dict) -> None:
        """Add another oracle's counter snapshot into this one.

        The sharded scheduler runs one oracle per worker process and folds
        their counters back here so reports and benchmarks see one aggregate.
        Cache hit/miss/eviction counters are absorbed from the snapshot too
        (into this oracle's cache object): the snapshot is the authoritative
        per-report delta, whereas a worker's live cache object may span
        several reports — which is why the scheduler pairs this call with
        an entries-only replay of each report's cache diff, never the
        counter-carrying :meth:`OracleCache.merge`.
        """
        # the registry folds every declared absorbable metric by its kind
        # (sums add, high-water marks take the max); the two topology marks
        # (parallel_workers / parallel_shards) are declared absorbed=False
        # because the scheduler's merge maintains them itself
        self.metrics.absorb(stats)
        if self._cache is not None:
            self._cache.hits += stats.get("cache_hits", 0)
            self._cache.misses += stats.get("cache_misses", 0)
            self._cache.evictions += stats.get("cache_evictions", 0)
        if self.stats_engine is not None:
            self.stats_engine.leases += stats.get("stats_leases", 0)
            self.stats_engine.cells_moved += stats.get("stats_cells_moved", 0)
        encoding_stats = stats.get("encoding")
        if encoding_stats:
            # a worker oracle's encode time and check counts fold into the
            # parent table's encoding; dictionary sizes merge as per-column
            # high-water marks (union of columns, max per column)
            self.dirty_table.store.encoding().absorb_counters(encoding_stats)

    @property
    def cache_hits(self) -> int:
        return self._cache.hits if self._cache is not None else 0

    @property
    def cache_misses(self) -> int:
        return self._cache.misses if self._cache is not None else 0

    @property
    def cache_evictions(self) -> int:
        return self._cache.evictions if self._cache is not None else 0

    def reset_counters(self) -> None:
        self.metrics.reset()
        if self._cache is not None:
            self._cache.reset_counters()
        if self.stats_engine is not None:
            self.stats_engine.leases = 0
            self.stats_engine.cells_moved = 0
        encoding = self.dirty_table.store._encoding
        if encoding is not None:
            encoding.reset_counters()

    def statistics(self) -> dict[str, int]:
        """One flat counter snapshot — a view over the metrics registry.

        The registry emits its metrics in declaration order; the cache's
        hit/miss/eviction counters (owned by the cache object, not the
        registry) are spliced in after ``pair_walks``, preserving the
        historical key order every report and test expects.
        """
        metric_values = self.metrics.as_dict()
        stats = {name: metric_values.pop(name)
                 for name in ("oracle_calls", "repair_runs", "pair_walks")}
        stats["cache_hits"] = self.cache_hits
        stats["cache_misses"] = self.cache_misses
        stats["cache_evictions"] = self.cache_evictions
        stats.update(metric_values)
        if self.stats_engine is not None:
            stats.update(self.stats_engine.statistics())
        encoding = self.dirty_table.store._encoding
        if encoding is not None:
            stats["encoding"] = encoding.telemetry()
        return stats
