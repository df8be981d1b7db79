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

from repro.constraints.dc import DenialConstraint
from repro.constraints.incremental import RepairWalk, find_all_violations_auto
from repro.dataset.table import CellRef, Table
from repro.engine.storage import is_null
from repro.observability import trace as otrace
from repro.repair.base import (
    RepairAlgorithm,
    _engine_choice,
    _step_budget,
    _walk_repair_pair,
    _walk_repair_table,
)


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
    engine:
        ``"fast"`` (default) maintains violations across the greedy steps
        with a :class:`~repro.constraints.incremental.RepairWalk` (a plain
        input table is repaired on a zero-delta view): each step retracts and
        re-checks only the cell the previous step wrote, and candidate trials
        re-check a single row instead of re-deriving the whole delta.
        A step costs what the previous step's one-cell write touched: the
        write moves only the written column's FD partitions, by scalar slot
        updates, and adds their degree changes into the walk's maintained
        cell-degree grid, whose maximum is the step's top-degree cells
        (:meth:`~repro.constraints.incremental.RepairWalk.cell_degrees_arrays`).
        The step is then scored in two passes: first every top-degree cell's
        whole candidate pool gets its violation totals in one batched call
        (:meth:`~repro.constraints.incremental.RepairWalk.count_if_many_at`:
        the step's total once, plus each mentioning constraint's
        candidate-dependent term), giving the step minimum; then
        co-occurrence is scored (batched) only for the candidates whose total
        equals that minimum, and for none when a single candidate holds it.
        This is exact: the step key is ``(total, -cooccurrence, repr, cell)``,
        so a candidate above the minimum loses on the first element whatever
        its co-occurrence.  ``"reference"`` runs per-step full detection with one
        trial detection and one co-occurrence score per candidate, and makes
        the oracle stack above it materialise every instance.  Results are
        identical either way.
    """

    name = "greedy-holistic"

    def __init__(self, max_changes: int = 200, max_candidates: int = 20,
                 engine: str = "fast"):
        self.max_changes = _step_budget("max_changes", max_changes)
        self.max_candidates = _step_budget("max_candidates", max_candidates)
        self.engine = _engine_choice(engine)

    # -- candidate scoring ---------------------------------------------------------

    def _candidate_values(self, table: Table, attribute: str) -> Sequence[Any]:
        """Candidate replacement values: the ``max_candidates`` most frequent
        column values, ties by ``repr`` (a slice of the memoised
        :meth:`~repro.engine.stats.ColumnStatistics.ranking`)."""
        return table.stats.marginal(attribute).ranking()[: self.max_candidates]

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

    def _cooccurrence_scores(self, table: Table, row_id: int, target: str,
                             values: Sequence[Any]) -> list[float]:
        """Batched :meth:`_cooccurrence_score` over a whole candidate pool.

        One pair-table row (and its cached total) per sibling attribute
        serves every candidate; a sibling's null test reads the view's code
        array (code 0).  Accumulation runs per attribute in the same order
        as the scalar method, so each candidate's score is the identical
        left-to-right float sum.
        """
        scores = [0.0] * len(values)
        if not values:
            return scores
        cooccurrence = table.stats.cooccurrence
        store = table.store
        for attribute in table.attributes:
            if attribute == target:
                continue
            codes = store.codes(attribute)
            if codes is not None and not codes.item(row_id):
                continue  # a null sibling
            other_value = table.value(row_id, attribute)
            if codes is None and is_null(other_value):
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
        touched row instead of copying the table and rescanning it.  Only
        ``engine="reference"`` calls this, and its trials deliberately stay
        on the detector's base→view path rather than a literal rescan: the
        reference's per-pass detection is already a rescan, and the trials
        would dominate otherwise.  On the 50-row greedy reference rung of
        ``benchmarks/bench_incremental_vs_full.py`` (2-vCPU box, one run
        each) this path took 2.3 s, a fresh ``RepairWalk`` per trial 11.3 s
        and a ``find_all_violations`` rescan per trial 38.8 s.
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
        """Repair the with/without pair of an oracle query in one shared walk
        (primed once, forked at the differing cells); outputs are identical
        to two independent :meth:`repair_table` calls."""
        return _walk_repair_pair(self, constraints, with_table, without_table,
                                 differing_cells)

    def repair_pair_group(self, *args, **kwargs):
        """Retired stub (ROADMAP item 1): pairs are evaluated one at a time
        through :meth:`repair_pair`."""
        raise NotImplementedError("repair_pair_group is retired")

    def _repair_loop(self, constraints: list[DenialConstraint], current: Table,
                     walk: RepairWalk | None) -> Table:
        tracer = otrace.current()
        if tracer is None:
            return self._repair_passes(constraints, current, walk)
        with tracer.span("repair_pass", algorithm=self.name):
            return self._repair_passes(constraints, current, walk)

    def _repair_passes(self, constraints: list[DenialConstraint], current: Table,
                       walk: RepairWalk | None) -> Table:
        for _ in range(self.max_changes):
            # Consider the cells with the highest violation degree (the
            # classic "most conflicting cell" heuristic); among those, pick
            # the single (cell, value) re-assignment that minimises the
            # table's total violation count, preferring values that co-occur
            # with the tuple.
            # best = (total, -cooccurrence, value repr, (row, attr), row, attr, value)
            best: tuple | None = None
            if walk is not None:
                # the top-degree cells straight from the walk's degree grid,
                # as parallel (row, attr_code) arrays: no Violation or
                # CellRef objects are materialised on the hot path — only the
                # single chosen winner is ever built, at set_value time
                total_before, rows, attr_codes, _counts, attrs = (
                    walk.cell_degrees_arrays())
                if not total_before:
                    break
                # the arrays ascend by (row, attr_code), and attr codes are
                # assigned in attribute-name order, so this is the rescan
                # branch's (row, attribute) tie-break order.  Pass 1 takes
                # every top-degree cell's trial totals and the step minimum.
                trials = []
                for row_id, code in zip(rows.tolist(), attr_codes.tolist()):
                    attribute = attrs[code]
                    current_value = current.value(row_id, attribute)
                    pool = [value for value in self._candidate_values(current, attribute)
                            if not value == current_value]
                    totals = walk.count_if_many_at(row_id, attribute, pool)
                    if totals:
                        trials.append((row_id, attribute, pool, totals))
                if not trials:
                    break
                step_min = min(min(totals) for _, _, _, totals in trials)
                if step_min >= total_before:
                    break
                # Pass 2: a candidate above the minimum loses on the key's
                # first element, so only the tied ones are scored for
                # co-occurrence — the same winner as scoring them all.
                tied = [(row_id, attribute, [candidate for candidate, total
                                             in zip(pool, totals) if total == step_min])
                        for row_id, attribute, pool, totals in trials]
                tied = [entry for entry in tied if entry[2]]
                if len(tied) == 1 and len(tied[0][2]) == 1:
                    # a single tied candidate wins whatever its co-occurrence
                    (row_id, attribute, (candidate,)), = tied
                    best = (step_min, None, None, None, row_id, attribute, candidate)
                else:
                    for row_id, attribute, candidates in tied:
                        coocs = self._cooccurrence_scores(current, row_id, attribute,
                                                          candidates)
                        for candidate, cooc in zip(candidates, coocs):
                            key = (step_min, -cooc, repr(candidate), (row_id, attribute))
                            if best is None or key < best[:4]:
                                best = (*key, row_id, attribute, candidate)
            else:
                violations = find_all_violations_auto(current, constraints)
                if not violations:
                    break
                total_before = len(violations)
                cells = violations.cells_involved()
                cells.sort(key=lambda c: (-violations.count_for_cell(c), c.row, c.attribute))
                max_degree = violations.count_for_cell(cells[0])
                for cell in cells:
                    if violations.count_for_cell(cell) != max_degree:
                        break
                    current_value = current[cell]
                    for candidate in self._candidate_values(current, cell.attribute):
                        if candidate == current_value:
                            continue
                        total = self._total_violations_if(current, constraints,
                                                          cell, candidate)
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
