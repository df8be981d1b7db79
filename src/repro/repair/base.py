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
from repro.constraints.incremental import repair_walk_for
from repro.dataset.table import CellRef, PerturbationView, RepairDelta, Table
from repro.engine.storage import NULL, values_differ
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


#: the two evaluation engines a repair algorithm can run on
ENGINES = ("fast", "reference")


def _engine_choice(value: Any) -> str:
    """Validate an ``engine=`` argument: ``"fast"`` or ``"reference"``."""
    if value not in ENGINES:
        raise RepairError(f"engine must be one of {ENGINES}, got {value!r}")
    return value


def _walk_repair_table(algorithm, constraints: Sequence[DenialConstraint],
                       table: Table) -> Table:
    """``repair_table`` of the walk-based repairers (simple and greedy).

    On the ``"fast"`` engine a plain input is repaired on a zero-delta view,
    like any view, and the result materialised, so a later in-place write to
    the input (``RepairSession.update``) cannot show through it.  On the
    ``"reference"`` engine the input is copied and every pass re-detects
    with ``find_violations``.
    """
    constraints = list(constraints)
    name = f"{table.name}_repaired"
    if algorithm.engine == "reference":
        return algorithm._repair_loop(constraints, table.mutable_snapshot(name=name), None)
    if isinstance(table, PerturbationView):
        current = table.mutable_snapshot(name=name)
    else:
        current = table.perturbed({}, name=name, trusted=True)
    walk = repair_walk_for(current, constraints)
    clean = algorithm._repair_loop(constraints, current, walk)
    return clean if isinstance(table, PerturbationView) else clean.copy()


def _walk_repair_pair(algorithm, constraints: Sequence[DenialConstraint],
                      with_table: Table, without_table: Table,
                      differing_cells: Sequence[CellRef]) -> tuple[Table, Table]:
    """``repair_pair`` of the walk-based repairers (simple and greedy).

    On the ``"fast"`` engine, for a with-instance that is a view, the
    with-instance's detection state is primed once and forked at the
    differing cells onto the without-instance, before either repair loop
    writes (as :meth:`~repro.constraints.incremental.RepairWalk.fork_onto`
    requires).  Each instance's statistics derive from the base by its own
    delta.  Otherwise the two instances are repaired independently.
    """
    constraints = list(constraints)
    if algorithm.engine == "reference" or not isinstance(with_table, PerturbationView):
        return (algorithm.repair_table(constraints, with_table),
                algorithm.repair_table(constraints, without_table))
    with_work = with_table.mutable_snapshot(name=f"{with_table.name}_repaired")
    walk_with = repair_walk_for(with_work, constraints)
    walk_with.prime()
    algorithm.shared_pair_walks += 1
    without_work = without_table.mutable_snapshot(name=f"{without_table.name}_repaired")
    walk_without = walk_with.fork_onto(without_work, differing_cells)
    return (algorithm._repair_loop(constraints, with_work, walk_with),
            algorithm._repair_loop(constraints, without_work, walk_without))


class RepairAlgorithm(abc.ABC):
    """Abstract base class for repair algorithms (the black box).

    Subclasses implement :meth:`repair_table`, which must not mutate its
    inputs, and must be deterministic given (constraints, table) — the Shapley
    definitions assume the characteristic function is a function.
    """

    #: Human-readable algorithm name used in reports and benchmarks.
    name: str = "repair"

    #: The evaluation engine the oracle stack runs this algorithm on.
    #: ``"fast"`` evaluates perturbed instances as copy-on-write views with
    #: delta-maintained detection, derived statistics and shared pair walks;
    #: ``"reference"`` materialises every instance and rescans it, which is
    #: the paper's definitions executed literally.  Both give the same
    #: results; the walk-based repairers take it as a constructor argument.
    engine: str = "fast"

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

    The evaluation engine is the algorithm's (:attr:`RepairAlgorithm.engine`,
    mirrored as :attr:`engine`).  On ``"fast"`` the oracle's own
    perturbations (constraint-subset queries, cell coalitions) are
    copy-on-write views, whose statistics derive from the base snapshot's
    counts by their encoded delta; :meth:`query_pair` shares one primed
    repair walk between the two instances of a pair; and
    :meth:`query_pairs` answers a whole queue of pairs.  On ``"reference"``
    every perturbation is a materialised table and the algorithm rescans
    it.  Answers are identical either way.
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
    batches = MetricAttribute("batches")             # query_pairs calls
    pairs_batched = MetricAttribute("pairs_batched")  # pairs submitted through those calls
    pairs_deduped = MetricAttribute("pairs_deduped")  # batched pairs answered without a repair
    max_batch_size = MetricAttribute("max_batch_size")
    # sharded-scheduler bookkeeping (absorbed from worker oracles by
    # repro.parallel; stays 0 on purely sequential oracles)
    parallel_workers = MetricAttribute("parallel_workers")  # widest worker fan-out
    parallel_shards = MetricAttribute("parallel_shards")    # shards absorbed
    # warm-pool bookkeeping (also absorbed from the scheduler): how often a
    # worker had to build its oracle stack from the job spec, how many cache
    # entries actually crossed a process boundary coming home, worker
    # assignments that failed over to in-process execution, and runs that
    # hit their wall-clock deadline
    worker_rebuilds = MetricAttribute("worker_rebuilds")
    cache_entries_shipped = MetricAttribute("cache_entries_shipped")
    pool_failovers = MetricAttribute("pool_failovers")
    deadline_expired = MetricAttribute("deadline_expired")
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
        cache_size: int | None = None,
    ):
        self.algorithm = algorithm
        self.constraints = list(constraints)
        self.dirty_table = dirty_table
        self.cell = dirty_table.validate_cell(cell)
        self.engine = algorithm.engine
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
        differing cell when the instances are sibling views and the
        algorithm's engine is ``"fast"``.  Pair results are additionally
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
        """Whether a pair can run as one primed walk plus a fork.

        Only views share walks, and only the ``"fast"`` engine builds them;
        a reference algorithm handed views still repairs each one alone.
        """
        return (
            isinstance(with_table, PerturbationView)
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

    # -- a queue of pairs ------------------------------------------------------------

    def query_pairs(
        self, pairs: Sequence[tuple[Table, Table]]
    ) -> list[tuple[int, int]]:
        """Answer a queue of with/without pairs.

        Answers (and their order) are exactly those of one
        :meth:`query_pair` call per pair.  Every pair is first checked
        against the pair memo, and within-batch repeats of one pair are
        evaluated once; each remaining pair is then evaluated in the order
        it was submitted, as :meth:`query_pair` would (on ``"fast"`` one
        primed repair walk forked at the differing cell).
        """
        pairs = list(pairs)
        if not pairs:
            return []
        tracer = otrace.current()
        if tracer is None:
            return self._query_pairs_batched(pairs)
        with tracer.span("pair_eval", pairs=len(pairs)):
            return self._query_pairs_batched(pairs)

    def _query_pairs_batched(
        self, pairs: "list[tuple[Table, Table]]"
    ) -> list[tuple[int, int]]:
        """One dedup → evaluate pass (query_pairs' body)."""
        constraints = self.constraints
        self.calls += 2 * len(pairs)
        self.batches += 1
        self.pairs_batched += len(pairs)
        if len(pairs) > self.max_batch_size:
            self.max_batch_size = len(pairs)
        names = constraint_set_names(constraints)
        cache = self._cache
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
            if cache is not None:
                cached = cache.get(pair_key)
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

        # 2. evaluate the rest in submission order, recording the same
        # memo entries query_pair would
        for index, with_table, without_table, fp_with, pair_key, differing in pending:
            if cache is None:
                results[index] = self._evaluate_pair(
                    constraints, with_table, without_table, differing
                )
                continue
            answer = results[index] = self._query_pair_uncached(
                constraints, names, with_table, without_table,
                fp_with, pair_key, differing,
            )
            for follower in first_for_key[pair_key]:
                results[follower] = answer
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
        return self._dirty_view

    def query_constraint_subset(self, subset: Iterable[DenialConstraint]) -> int:
        """Vary the constraint set, keep the dirty table fixed (Section 2.2)."""
        table = self._dirty_as_view() if self.engine == "fast" else self.dirty_table
        return self.query(list(subset), table)

    def query_table(self, table: Table) -> int:
        """Vary the table (cell coalitions), keep the full constraint set fixed."""
        return self.query(self.constraints, table)

    def query_cell_coalition(self, coalition: Iterable[CellRef]) -> int:
        """Evaluate the oracle on the table restricted to ``coalition``.

        Cells outside the coalition are nulled, per the paper's definition of
        the cell characteristic function (``S ⊆ T^d`` means all other cells
        are null).  On the fast engine the restriction is a sparse
        null-overlay view instead of a materialised copy.
        """
        if self.engine == "fast":
            keep = set(coalition)
            restricted = self.dirty_table.perturbed(
                {cell: NULL for cell in self.dirty_table.cells() if cell not in keep},
                trusted=True,
            )
        else:
            restricted = self.dirty_table.restricted_to_coalition(coalition)
        return self.query(self.constraints, restricted)

    # -- live base updates ------------------------------------------------------------

    def apply_base_update(self, delta, *, count: bool = True) -> int:
        """Apply one :class:`~repro.repair.updates.BaseUpdateDelta` to this
        oracle's own table and patch every derived structure in place.

        The single-stack convenience used by resident workers (and any
        oracle that owns its table): the table is mutated (delta-maintaining
        a live detector and the table's own statistics; views derive theirs
        from the new base), and :meth:`finish_base_update` adopts the new
        target.  Returns the number of cells actually written.  ``count``
        gates the update counters — worker stacks patch silently so the
        parent's absorb of their per-round deltas never double-counts.
        """
        from repro.repair.updates import apply_table_update, collect_changes

        changes = collect_changes(
            self.dirty_table,
            {update.cell: update.new_value for update in delta.updates},
        )
        if changes:
            apply_table_update(self.dirty_table, changes)
        self.finish_base_update(delta.target_value, count=count)
        return len(changes)

    def finish_base_update(self, target_value, *, count: bool = True) -> int:
        """Adopt a base update whose table mutation has already happened.

        The lazily built empty-delta view is dropped (its fingerprint embeds
        the old base) and the reference target value is replaced.  The memo
        cache keeps every entry: each key names the content it was computed
        on (:class:`~repro.repair.cache.OracleCache`), so it stays a correct
        memo whatever the base holds now, and lookups on the new base simply
        form new keys.  Only a target change drops the whole cache (every
        memoised 0/1 answer compared against the old target), without
        resetting its hit/miss counters.  Returns the number of cache
        entries dropped.
        """
        self._dirty_view = None
        dropped = 0
        if self._cache is not None and values_differ(self.target_value, target_value):
            dropped = self._cache.drop_entries()
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
        encoding = self.dirty_table.store._encoding
        if encoding is not None:
            stats["encoding"] = encoding.telemetry()
        return stats
