"""Live explanation state under base-table updates.

A :class:`~repro.explain.session.RepairSession` keeps one
:class:`LiveExplainState` per explained cell of interest: a persistent
:class:`~repro.repair.base.BinaryRepairOracle` and
:class:`~repro.shapley.cells.CellShapleyExplainer` whose warm worker pool is
*not* torn down between explains, the per-cell Shapley estimates, and — the
piece that makes selective refresh possible — each estimate's **touched-cell
fingerprint**: the union over its Monte-Carlo samples of the base cells whose
original values the sampled coalitions exposed (recorded RNG-free by the
sampler's ``touched_sink`` hook, shipped per shard on the parallel path).

:func:`apply_session_update` is the update orchestrator.  It applies a
base-table write *in place* and delta-maintains every derived structure —
the incremental violation detector and its persistent indexes, and the
table's own statistics (:func:`~repro.repair.updates.apply_table_update`;
views derive theirs from the new base), the oracle caches (every entry
kept: a key names the content it was computed on, so answers for earlier
table states stay correct and an undo finds them again), and the resident
worker stacks (patched through one
:meth:`~repro.parallel.ShardedExplainScheduler.apply_base_update` round —
``worker_rebuilds`` stays flat).  It then invalidates exactly the estimates
whose fingerprints overlap the changed cells; the next ``explain()``
refreshes only those.

The equivalence contract — property-tested in ``tests/test_base_updates.py``
and pinned by the golden fixture — is that ``update()`` followed by
``explain()`` is bit-identical to a fresh session built on the post-update
table, on both engines.  Three situations force full
(rather than selective) invalidation because a replacement draw or the
target itself changed, never silently skipped:

* the ``sample`` policy draws replacement values from column distributions,
  so *every* estimate's RNG stream depends on the updated columns;
* the ``mode`` policy's replacement values change when an updated column's
  most-common value changes;
* the reference repair of the cell of interest produced a different target
  value (the game itself changed).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.config import make_rng
from repro.dataset.table import CellRef
from repro.engine.storage import values_differ
from repro.observability import trace as otrace
from repro.repair.updates import (
    BaseCellUpdate,
    BaseUpdateDelta,
    apply_table_update,
    collect_changes,
)
from repro.shapley.cells import CellShapleyExplainer, check_sample_count, relevant_cells
from repro.shapley.convergence import RunningMean
from repro.shapley.game import ShapleyResult
from repro.shapley.sampling import ReplacementPolicy, SampledShapleyEstimate


class LiveExplainState:
    """The session's persistent cell-Shapley state for one cell of interest.

    Built lazily on the first ``explain()`` and kept across base updates;
    dropped (pool closed) whenever the cell of interest, the sample count,
    the seed, the policy or the parallel knobs change — a fresh state then
    reproduces the fresh-session stream exactly.
    """

    def __init__(self, session, cell: CellRef, n_samples: int):
        check_sample_count(n_samples)
        config = session.config
        self.cell = cell
        self.n_samples = int(n_samples)
        self.n_jobs = config.n_jobs
        self.policy = ReplacementPolicy.from_name(config.replacement_policy)
        self.seed = config.seed
        # the same oracle/explainer construction as
        # TRExExplainer.explain_cells, except the explainer outlives the call
        # so its warm pool and resident worker stacks survive updates
        self.oracle = session.explainer._oracle_for(cell)
        self.explainer = CellShapleyExplainer(
            self.oracle, policy=config.replacement_policy, rng=config.seed,
            n_jobs=config.n_jobs,
            deadline_seconds=config.deadline_seconds,
        )
        #: the explained cells in fresh-session submission order (the
        #: relevance pre-filter is content-independent: it reads constraint
        #: attributes and the row of the cell of interest, never cell values,
        #: so a base update cannot change this list)
        self.cells: list[CellRef] = relevant_cells(
            session.state.dirty_table, session.state.constraints, cell
        )
        self._position = {c: index for index, c in enumerate(self.cells)}
        self.estimates: dict[CellRef, SampledShapleyEstimate] = {}
        #: per-estimate touched-cell fingerprints (see module docstring)
        self.provenance: dict[CellRef, frozenset] = {}
        self.pending: set[CellRef] = set(self.cells)
        self.completed = True

    # -- lifecycle --------------------------------------------------------------------

    def matches(self, cell: CellRef, n_samples: int, config) -> bool:
        """Whether this state can serve an explain under the given knobs."""
        return (
            cell == self.cell
            and int(n_samples) == self.n_samples
            and config.n_jobs == self.n_jobs
            and ReplacementPolicy.from_name(config.replacement_policy) is self.policy
            and config.seed == self.seed
        )

    def close(self) -> None:
        """Shut down the persistent explainer's warm worker pools."""
        self.explainer.close()

    # -- invalidation -----------------------------------------------------------------

    def invalidate(self, changed: "set[CellRef]", everything: bool = False) -> int:
        """Mark estimates stale after a base update; return how many existing
        estimates were dropped.

        Selective mode keeps every estimate whose touched-cell fingerprint is
        disjoint from ``changed`` — its samples never looked at the updated
        cells, so replaying them on the new table would reproduce it bit for
        bit.  ``everything`` is the full-invalidation escape hatch for the
        policy/target situations listed in the module docstring.
        """
        invalid: set[CellRef] = set()
        for cell in self.cells:
            if everything:
                invalid.add(cell)
                continue
            fingerprint = self.provenance.get(cell)
            if fingerprint is None or fingerprint & changed:
                invalid.add(cell)
        dropped = sum(1 for cell in invalid if cell in self.estimates)
        for cell in invalid:
            self.estimates.pop(cell, None)
            self.provenance.pop(cell, None)
        self.pending |= invalid
        return dropped

    # -- estimation -------------------------------------------------------------------

    def result(self) -> ShapleyResult:
        """Refresh every pending estimate and assemble the merged result."""
        if self.pending:
            if self.n_jobs is not None:
                self._refresh_parallel()
            else:
                self._refresh_sequential()
            self.pending.clear()
        values = {cell: self.estimates[cell].value for cell in self.cells}
        errors = {cell: self.estimates[cell].standard_error for cell in self.cells}
        total = sum(self.estimates[cell].n_samples for cell in self.cells)
        return ShapleyResult(
            values=values,
            standard_errors=errors,
            n_samples=total,
            n_evaluations=self.oracle.calls,
            method=f"cell-sampling-{self.policy.value}",
            completed=self.completed,
        )

    def _refresh_sequential(self) -> None:
        """Replay the fresh-session sequential stream, re-estimating only
        pending cells.

        The sequential path drives every cell's draws off one serially
        entangled RNG stream, so a partial refresh must *replay* that stream
        from the seed: cells are walked in submission order, and a retained
        cell burns exactly the draws the fresh run would have spent on it —
        one permutation per sample.  That burn is only exact for the
        RNG-free replacement policies (``null``/``mode``); the ``sample``
        policy invalidates everything (see :func:`apply_session_update`), so
        a sample-policy refresh is always a full from-seed re-run and never
        reaches the burn branch.
        """
        explainer = self.explainer
        sampler = explainer.sampler
        sampler.reseed(make_rng(self.seed))
        for cell in self.cells:
            if cell not in self.pending:
                # retained estimate: burn this cell's permutation draws so
                # the stream position matches the fresh run for later cells
                for _ in range(self.n_samples):
                    sampler.sample_permutation()
                continue
            tracker = RunningMean()
            touched: set[CellRef] = set()
            sampler.touched_sink = touched
            try:
                explainer._accumulate_cell(cell, self.n_samples, tracker)
            finally:
                sampler.touched_sink = None
            self.estimates[cell] = explainer._estimate_from(cell, tracker)
            self.provenance[cell] = frozenset(touched)
        self.completed = True

    def _refresh_parallel(self) -> None:
        """Refresh pending cells through the sharded scheduler.

        Shard draws depend only on the job seed and the shard's
        ``(cell_position, chunk_index)`` coordinates, never on which other
        cells run alongside — so re-running just the invalid cells *at their
        original plan positions* reproduces exactly the estimates a fresh
        full run would compute for them.
        """
        cells = [cell for cell in self.cells if cell in self.pending]
        positions = [self._position[cell] for cell in cells]
        scheduler = self.explainer._scheduler(self.n_jobs)
        outcome = scheduler.run(
            cells, self.n_samples, absorb_into=self.oracle, positions=positions
        )
        for cell in cells:
            self.estimates[cell] = outcome.estimates[cell]
            self.provenance[cell] = frozenset(outcome.touched.get(cell, ()))
        self.completed = outcome.completed


def apply_session_update(session, values: Mapping[CellRef, Any]) -> dict:
    """Apply base-table writes to a live session, delta-maintaining everything.

    The update orchestration, in dependency order:

    1. normalise ``values`` into actual changes (no-op writes dropped);
    2. mutate the shared table (:func:`~repro.repair.updates.apply_table_update`
       delta-maintains the cached incremental violation detector and bumps
       the table version, invalidating fingerprints, null masks and lazily
       derived state; the writes move the dirty table's own statistics and
       drop the base counts of the written columns with their code arrays,
       so every view derives its statistics from the new base);
    3. re-run the reference repair on the post-update table — the repaired
       value of the cell of interest is the game's target and may change;
    4. finish the session oracle's update: its cache keeps every entry and
       drops them all only when the target changed (``base_updates_applied``
       and ``cache_entries_invalidated`` count on this oracle);
    5. patch every scheduler: local resident stack and one resident-worker
       patch round (no stack rebuilds; a failed patch fails the pool over,
       counted in ``pool_failovers``);
    6. drop the sampler's policy-precomputed replacement overlay and
       selectively invalidate estimates via their touched-cell fingerprints
       (full invalidation for the ``sample`` policy, a changed column mode
       under ``mode``, or a changed target).

    Returns a summary dict (``delta``, ``cells_written``,
    ``estimates_invalidated``, ``cache_entries_invalidated``,
    ``workers_patched``, ``target_changed``).
    """
    table = session.state.dirty_table
    changes = collect_changes(table, values)
    info = {
        "delta": None,
        "cells_written": len(changes),
        "estimates_invalidated": 0,
        "cache_entries_invalidated": 0,
        "workers_patched": 0,
        "target_changed": False,
    }
    if not changes:
        return info
    live = session._live
    tracer = otrace.current()
    span = tracer.start("base_update", cells=len(changes)) if tracer is not None else None
    try:
        updated_attributes = {cell.attribute for cell in changes}
        modes_before = None
        if live is not None and live.policy is ReplacementPolicy.MODE:
            modes_before = {
                attribute: table.stats.marginal(attribute).most_common()
                for attribute in updated_attributes
            }
        apply_table_update(table, changes)
        # the reference repair — and with it the target value of the game —
        # must come from the post-update table
        repair = session.explainer.repair(force=True)
        updates = tuple(
            BaseCellUpdate(cell=cell, old_value=old, new_value=new)
            for cell, (old, new) in changes.items()
        )
        if live is not None and live.cell not in repair.delta:
            # the update un-repaired the explained cell: a fresh session on
            # this table could not explain it either, so the live state has
            # nothing left to maintain
            live.close()
            session._live = None
            live = None
        if live is None:
            info["delta"] = BaseUpdateDelta(updates=updates)
            return info
        new_target = repair.clean[live.cell]
        target_changed = values_differ(live.oracle.target_value, new_target)
        info["target_changed"] = target_changed
        delta = BaseUpdateDelta(updates=updates, target_value=new_target)
        info["delta"] = delta
        info["cache_entries_invalidated"] = live.oracle.finish_base_update(
            new_target, count=True
        )
        for scheduler in live.explainer._schedulers.values():
            patched = scheduler.apply_base_update(delta, target_changed=target_changed)
            info["workers_patched"] += patched["workers_patched"]
            live.oracle.pool_failovers += patched["pool_failovers"]
        live.explainer.sampler.invalidate_overlay()
        everything = target_changed or live.policy is ReplacementPolicy.SAMPLE
        if not everything and modes_before is not None:
            everything = any(
                values_differ(
                    modes_before[attribute],
                    table.stats.marginal(attribute).most_common(),
                )
                for attribute in updated_attributes
            )
        invalidated = live.invalidate(set(changes), everything=everything)
        live.oracle.estimates_invalidated += invalidated
        info["estimates_invalidated"] = invalidated
        if span is not None:
            span.meta.update(
                estimates_invalidated=invalidated,
                target_changed=bool(target_changed),
            )
        return info
    finally:
        if span is not None:
            tracer.finish(span)
