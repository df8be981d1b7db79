"""Greedy holistic repair.

A violation-hypergraph repairer in the spirit of "Holistic data cleaning:
putting violations into context" (Chu et al., reference [3] of the paper):

1. detect all violations of all constraints on the current table;
2. pick the cell that participates in the largest number of violations
   (the highest-degree vertex of the violation hypergraph);
3. re-assign that cell the candidate value that minimises the number of
   violations the cell would participate in, preferring values that co-occur
   with the rest of its tuple;
4. repeat until the table is clean or a step budget is exhausted.

The algorithm is deterministic: ties are broken by cell address and by the
candidate value's textual representation.  It serves both as a second
black-box repairer for the algorithm-agnosticism experiments (E9) and as a
baseline showing T-REx is not tied to Algorithm 1 or HoloClean.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.constraints.dc import DenialConstraint
from repro.constraints.incremental import (
    RepairWalk,
    find_all_violations_auto,
    repair_walk_for,
)
from repro.dataset.table import CellRef, PerturbationView, Table
from repro.engine.storage import is_null
from repro.errors import RepairError
from repro.observability import trace as otrace
from repro.repair.base import RepairAlgorithm, _padded_differing_lists, _walk_repair_table


class GreedyHolisticRepair(RepairAlgorithm):
    """Greedy minimum-change repair over the violation hypergraph.

    Parameters
    ----------
    max_changes:
        Upper bound on the number of cell re-assignments (guards against
        oscillation on unsatisfiable constraint sets).
    max_candidates:
        At most this many candidate values (by descending frequency) are
        scored per repaired cell.
    second_order:
        Maintain violations across the greedy steps with a
        :class:`~repro.constraints.incremental.RepairWalk` (a plain input
        table is repaired on a zero-delta view): each step retracts and
        re-checks only the cell the previous step wrote, and candidate trials
        re-check a single row instead of re-deriving the whole delta.
        ``False`` restores first-order per-step detection — on a plain table,
        the full-rescan reference.  Results are identical either way.
    vectorized:
        Run the walk's builds over dictionary-encoded code arrays and score
        each cell's whole candidate pool in one batched pass
        (:meth:`~repro.constraints.incremental.RepairWalk.count_if_many` +
        batched co-occurrence scoring) instead of one ``count_if`` and one
        pair-table fetch per candidate.  Only effective with
        ``second_order=True``; results are bit-identical either way.
    """

    name = "greedy-holistic"

    def __init__(self, max_changes: int = 200, max_candidates: int = 20,
                 second_order: bool = True, vectorized: bool = True):
        if max_changes <= 0:
            raise RepairError(f"max_changes must be positive, got {max_changes}")
        if max_candidates <= 0:
            raise RepairError(f"max_candidates must be positive, got {max_candidates}")
        self.max_changes = max_changes
        self.max_candidates = max_candidates
        self.second_order = bool(second_order)
        self.vectorized = bool(vectorized)

    # -- candidate scoring ---------------------------------------------------------

    def _candidate_values(self, table: Table, cell: CellRef) -> list[Any]:
        """Candidate replacement values: frequent column values first."""
        return self._candidate_values_at(table, cell.row, cell.attribute)

    def _candidate_values_at(self, table: Table, row_id: int,
                             attribute: str) -> list[Any]:
        """:meth:`_candidate_values` addressed by ``(row, attribute)``."""
        stats = table.stats.marginal(attribute)
        ranked = sorted(stats.items(), key=lambda item: (-item[1], repr(item[0])))
        candidates = [value for value, _ in ranked[: self.max_candidates]]
        current = table.value(row_id, attribute)
        if not is_null(current) and current not in candidates:
            candidates.append(current)
        return candidates

    def _cooccurrence_score(self, table: Table, cell: CellRef, value: Any) -> float:
        """How well ``value`` agrees with the other cells of the same tuple."""
        score = 0.0
        for attribute in table.attributes:
            if attribute == cell.attribute:
                continue
            other_value = table.value(cell.row, attribute)
            if is_null(other_value):
                continue
            score += table.stats.cooccurrence.conditional_probability(
                cell.attribute, value, attribute, other_value
            )
        return score

    def _cooccurrence_scores(self, table: Table, cell: CellRef,
                             values: Sequence[Any]) -> list[float]:
        """Batched :meth:`_cooccurrence_score` over a whole candidate pool.

        One pair-table fetch (and one total) per sibling attribute serves
        every candidate; accumulation runs per attribute in the same order as
        the scalar method, so each candidate's score is the identical
        left-to-right float sum.
        """
        return self._cooccurrence_scores_at(table, cell.row, cell.attribute, values)

    def _cooccurrence_scores_at(self, table: Table, row_id: int, target: str,
                                values: Sequence[Any]) -> list[float]:
        """:meth:`_cooccurrence_scores` addressed by ``(row, attribute)``."""
        scores = [0.0] * len(values)
        if not values:
            return scores
        cooccurrence = table.stats.cooccurrence
        for attribute in table.attributes:
            if attribute == target:
                continue
            other_value = table.value(row_id, attribute)
            if is_null(other_value):
                continue
            probabilities = cooccurrence.conditional_probability_many(
                target, values, attribute, other_value
            )
            for i, probability in enumerate(probabilities):
                scores[i] += probability
        return scores

    def _total_violations_if(self, table: Table, constraints: Sequence[DenialConstraint],
                             cell: CellRef, value: Any) -> int:
        """Total number of violations in the table if ``cell`` were set to ``value``.

        The trial is a one-cell copy-on-write view, so the incremental
        detector only retracts and re-checks violations involving the one
        touched row instead of copying the table and rescanning it.
        """
        trial = table.perturbed({cell: value})
        return len(find_all_violations_auto(trial, constraints))

    # -- main loop --------------------------------------------------------------------

    def repair_table(self, constraints: Sequence[DenialConstraint], table: Table) -> Table:
        return _walk_repair_table(self, constraints, table)

    def repair_pair(
        self,
        constraints: Sequence[DenialConstraint],
        with_table: Table,
        without_table: Table,
        differing_cells: Sequence[CellRef] = (),
    ) -> tuple[Table, Table]:
        """Repair the with/without pair of an oracle query in one shared walk.

        Detection state is primed once on the first instance and forked at the
        differing cells for the second (see
        :meth:`~repro.constraints.incremental.RepairWalk.fork_onto`).  Outputs
        are identical to two independent :meth:`repair_table` calls.
        """
        clean_with, clean_withouts = self.repair_pair_group(
            constraints, with_table, [without_table], [differing_cells]
        )
        return clean_with, clean_withouts[0]

    def repair_pair_group(
        self,
        constraints: Sequence[DenialConstraint],
        with_table: Table,
        without_tables: Sequence[Table],
        differing_cells_lists: Sequence[Sequence[CellRef]] = (),
    ) -> tuple[Table, list[Table]]:
        """Repair one with-instance against several without-instances.

        The batch scheduler's grouped entry point: the shared with-instance
        is primed exactly once and the walk forked per without-instance
        (before any repair loop writes), exactly like :meth:`repair_pair`
        does for a single pair.
        """
        constraints = list(constraints)
        differing_cells_lists = _padded_differing_lists(
            differing_cells_lists, len(without_tables)
        )
        if not (self.second_order and isinstance(with_table, PerturbationView)):
            return (
                self.repair_table(constraints, with_table),
                [self.repair_table(constraints, without_table)
                 for without_table in without_tables],
            )
        with_work = with_table.mutable_snapshot(name=f"{with_table.name}_repaired")
        walk_with = repair_walk_for(with_work, constraints, vectorized=self.vectorized)
        walk_with.prime()
        self.shared_pair_walks += len(without_tables)
        forks = []
        for without_table, differing_cells in zip(without_tables, differing_cells_lists):
            without_work = without_table.mutable_snapshot(
                name=f"{without_table.name}_repaired"
            )
            forks.append((without_work, walk_with.fork_onto(without_work, differing_cells)))
        return (
            self._repair_loop(constraints, with_work, walk_with),
            [self._repair_loop(constraints, without_work, walk_without)
             for without_work, walk_without in forks],
        )

    def _repair_loop(self, constraints: list[DenialConstraint], current: Table,
                     walk: RepairWalk | None) -> Table:
        tracer = otrace.current()
        if tracer is None:
            return self._repair_passes(constraints, current, walk)
        with tracer.span("repair_pass", algorithm=self.name):
            return self._repair_passes(constraints, current, walk)

    def _repair_passes(self, constraints: list[DenialConstraint], current: Table,
                       walk: RepairWalk | None) -> Table:
        batched = walk is not None and self.vectorized
        for _ in range(self.max_changes):
            if batched:
                # degrees straight from the walk's class-partition counters,
                # as parallel (row, attr_code, count) arrays: no Violation or
                # CellRef objects are materialised on the hot path — only the
                # single chosen winner is ever built, at set_value time
                total_before, rows, attr_codes, counts, attrs = (
                    walk.cell_degrees_arrays())
                if not total_before:
                    break
                max_degree = counts.max()
                top = np.nonzero(counts == max_degree)[0]
                # the arrays ascend by (row, attr_code), and attr codes are
                # assigned in attribute-name order, so this *is* the object
                # path's (row, attribute) tie-break order
                top_cells = [(int(rows[i]), attrs[attr_codes[i]]) for i in top]
            else:
                if walk is not None:
                    violations = walk.all_violations()
                else:
                    violations = find_all_violations_auto(current, constraints)
                if not violations:
                    break
                total_before = len(violations)

                # Consider the cells with the highest violation degree (the
                # classic "most conflicting cell" heuristic); among those, pick
                # the single (cell, value) re-assignment that minimises the
                # table's total violation count, preferring values that
                # co-occur with the tuple.
                cells = violations.cells_involved()
                cells.sort(key=lambda c: (-violations.count_for_cell(c), c.row, c.attribute))
                max_degree = violations.count_for_cell(cells[0])
                top_cells = [c for c in cells if violations.count_for_cell(c) == max_degree]

            # best = (total, -cooccurrence, value repr, (row, attr), row, attr, value)
            best: tuple | None = None
            if batched:
                for row_id, attribute in top_cells:
                    current_value = current.value(row_id, attribute)
                    candidates = self._candidate_values_at(current, row_id, attribute)
                    pool = [value for value in candidates
                            if not value == current_value]
                    totals = walk.count_if_many_at(row_id, attribute, pool)
                    coocs = self._cooccurrence_scores_at(
                        current, row_id, attribute, pool)
                    for candidate, total, cooc in zip(pool, totals, coocs):
                        key = (
                            total,
                            -cooc,
                            repr(candidate),
                            (row_id, attribute),
                        )
                        if best is None or key < best[:4]:
                            best = (*key, row_id, attribute, candidate)
            else:
                for cell in top_cells:
                    current_value = current[cell]
                    candidates = self._candidate_values(current, cell)
                    for candidate in candidates:
                        if candidate == current_value:
                            continue
                        if walk is not None:
                            total = walk.count_if(cell, candidate)
                        else:
                            total = self._total_violations_if(current, constraints, cell, candidate)
                        key = (
                            total,
                            -self._cooccurrence_score(current, cell, candidate),
                            repr(candidate),
                            (cell.row, cell.attribute),
                        )
                        if best is None or key < best[:4]:
                            best = (*key, cell.row, cell.attribute, candidate)

            if best is None or best[0] >= total_before:
                # No single-cell change from the candidate pool reduces the
                # violation count: stop to guarantee termination.
                break
            _, _, _, _, chosen_row, chosen_attribute, chosen_value = best
            current.set_value(chosen_row, chosen_attribute, chosen_value)
        return current
