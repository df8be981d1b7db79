"""The T-REx explainer.

``TRExExplainer`` is the library's main entry point and mirrors the
architecture of Figure 4: it owns the black-box repair algorithm, the
constraint set and the dirty table, runs the repair, and — for a repaired
cell chosen by the user — computes the Shapley values of the constraints
(exactly) and of the table cells (by sampling), returning both as ranked
:class:`Explanation` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.config import DEFAULT_CELL_SAMPLES, TRexConfig
from repro.constraints.dc import DenialConstraint
from repro.dataset.table import CellRef, RepairDelta, Table
from repro.errors import ExplanationError, NotRepairedError
from repro.explain.ranking import Ranking
from repro.repair.base import BinaryRepairOracle, RepairAlgorithm, RepairResult
from repro.shapley.cells import CellShapleyExplainer, relevant_cells
from repro.shapley.constraints import ConstraintShapleyExplainer
from repro.shapley.game import ShapleyResult


@dataclass
class Explanation:
    """A ranked explanation of one repaired cell.

    Attributes
    ----------
    cell:
        The cell of interest ``t[A]``.
    old_value / new_value:
        The value before and after the repair.
    constraint_shapley / cell_shapley:
        Raw Shapley results (``None`` until the corresponding part is computed).
    constraint_ranking / cell_ranking:
        The same values as rankings (highest contribution first).
    oracle_statistics:
        Black-box query counters (repair runs, cache hits, ...).
    """

    cell: CellRef
    old_value: Any
    new_value: Any
    constraint_shapley: ShapleyResult | None = None
    cell_shapley: ShapleyResult | None = None
    oracle_statistics: dict = field(default_factory=dict)

    @property
    def constraint_ranking(self) -> Ranking | None:
        if self.constraint_shapley is None:
            return None
        return Ranking(self.constraint_shapley.values)

    @property
    def cell_ranking(self) -> Ranking | None:
        if self.cell_shapley is None:
            return None
        return Ranking(self.cell_shapley.values)

    def top_constraints(self, k: int = 3) -> list[str]:
        ranking = self.constraint_ranking
        return ranking.top(k) if ranking is not None else []

    def top_cells(self, k: int = 5) -> list[CellRef]:
        ranking = self.cell_ranking
        return ranking.top(k) if ranking is not None else []


class TRExExplainer:
    """Explain the repairs of a black-box algorithm through Shapley values.

    Parameters
    ----------
    algorithm:
        Any :class:`~repro.repair.base.RepairAlgorithm` — T-REx never looks
        inside it.
    constraints:
        The denial constraints handed to the algorithm.
    dirty_table:
        The dirty input table ``T^d``.
    config:
        Optional :class:`~repro.config.TRexConfig` carrying seeds and defaults.
    """

    def __init__(
        self,
        algorithm: RepairAlgorithm,
        constraints: Sequence[DenialConstraint],
        dirty_table: Table,
        config: TRexConfig | None = None,
    ):
        names = [constraint.name for constraint in constraints]
        if len(names) != len(set(names)):
            raise ExplanationError(f"constraint names must be unique, got {names}")
        self.algorithm = algorithm
        self.constraints = list(constraints)
        self.dirty_table = dirty_table
        self.config = config or TRexConfig()
        self._repair_result: RepairResult | None = None

    # -- step 1: repair (the "Repair" button of Figure 3b) -----------------------------

    def repair(self, force: bool = False) -> RepairResult:
        """Run the black-box repair once and cache the result."""
        if self._repair_result is None or force:
            self._repair_result = self.algorithm.repair(self.constraints, self.dirty_table)
        return self._repair_result

    @property
    def clean_table(self) -> Table:
        return self.repair().clean

    @property
    def delta(self) -> RepairDelta:
        return self.repair().delta

    def repaired_cells(self) -> list[CellRef]:
        """Cells whose value changed — the cells a user may ask to explain."""
        return self.repair().delta.cells()

    # -- step 2: explanations (the "Explain" button of Figure 3c) ------------------------

    def _oracle_for(self, cell: CellRef) -> BinaryRepairOracle:
        repair_result = self.repair()
        if cell not in repair_result.delta:
            raise NotRepairedError(cell)
        return BinaryRepairOracle(
            algorithm=self.algorithm,
            constraints=self.constraints,
            dirty_table=self.dirty_table,
            cell=cell,
            target_value=repair_result.clean[cell],
            use_cache=self.config.cache_oracle,
        )

    def explain_constraints(self, cell: CellRef, exact: bool = True,
                            n_permutations: int = 200) -> Explanation:
        """Shapley value of every constraint for the repair of ``cell``."""
        oracle = self._oracle_for(cell)
        explainer = ConstraintShapleyExplainer(oracle)
        if exact:
            result = explainer.explain()
        else:
            result = explainer.explain_sampled(
                n_permutations=n_permutations, rng=self.config.seed
            )
        return Explanation(
            cell=cell,
            old_value=self.dirty_table[cell],
            new_value=self.clean_table[cell],
            constraint_shapley=result,
            oracle_statistics=oracle.statistics(),
        )

    def explain_cells(
        self,
        cell: CellRef,
        n_samples: int | None = None,
        cells: Iterable[CellRef] | None = None,
        only_relevant: bool = True,
        exclude_cell_of_interest: bool = False,
    ) -> Explanation:
        """Sampled Shapley value of table cells for the repair of ``cell``.

        Parameters
        ----------
        n_samples:
            Permutation samples per explained cell (defaults to the config).
        cells:
            Explicit cells to explain; overrides ``only_relevant``.
        only_relevant:
            Restrict the explained cells to those whose attribute appears in a
            constraint or that share the tuple of the cell of interest.
        exclude_cell_of_interest:
            Drop the explained cell itself from the ranking.
        """
        oracle = self._oracle_for(cell)
        explainer = CellShapleyExplainer(
            oracle, policy=self.config.replacement_policy, rng=self.config.seed,
            n_jobs=self.config.n_jobs, warm_pool=self.config.warm_pool,
            retry_policy=self.config.retry_policy(),
            deadline_seconds=self.config.deadline_seconds,
        )
        if cells is None and only_relevant:
            cells = relevant_cells(self.dirty_table, self.constraints, cell)
        # one explanation = one explainer lifetime: close the warm worker
        # pool (if the n_jobs path spawned one) as soon as the sampling is done
        with explainer:
            result = explainer.explain(
                cells=cells,
                n_samples=(self.config.cell_samples if n_samples is None
                           else n_samples),
                exclude_cell_of_interest=exclude_cell_of_interest,
            )
        return Explanation(
            cell=cell,
            old_value=self.dirty_table[cell],
            new_value=self.clean_table[cell],
            cell_shapley=result,
            oracle_statistics=oracle.statistics(),
        )

    def explain(self, cell: CellRef, n_samples: int | None = None,
                only_relevant: bool = True) -> Explanation:
        """Full explanation: constraint Shapley (exact) + cell Shapley (sampled)."""
        constraint_part = self.explain_constraints(cell)
        cell_part = self.explain_cells(cell, n_samples=n_samples, only_relevant=only_relevant)
        statistics = {
            "constraints": constraint_part.oracle_statistics,
            "cells": cell_part.oracle_statistics,
        }
        return Explanation(
            cell=cell,
            old_value=self.dirty_table[cell],
            new_value=self.clean_table[cell],
            constraint_shapley=constraint_part.constraint_shapley,
            cell_shapley=cell_part.cell_shapley,
            oracle_statistics=statistics,
        )

    def explain_counterfactuals(self, cell: CellRef, max_constraint_sets: int | None = None,
                                max_cell_set_size: int = 2,
                                candidate_cells: Iterable[CellRef] | None = None) -> dict:
        """Counterfactual explanations for the repair of ``cell``.

        Returns a dictionary with the minimal constraint-removal sets and the
        minimal cell-nulling sets that undo the repair (see
        :mod:`repro.explain.counterfactual`).  Complements the Shapley ranking
        with directly actionable "what to change" answers.
        """
        from repro.explain.counterfactual import (
            minimal_cell_counterfactuals,
            minimal_constraint_counterfactuals,
        )

        oracle = self._oracle_for(cell)
        constraint_sets = minimal_constraint_counterfactuals(oracle, max_size=max_constraint_sets)
        cell_sets = minimal_cell_counterfactuals(
            oracle, candidate_cells=candidate_cells, max_size=max_cell_set_size
        )
        return {
            "cell": cell,
            "constraint_sets": constraint_sets,
            "cell_sets": cell_sets,
            "oracle_statistics": oracle.statistics(),
        }

    # -- iteration support (Section 4) -----------------------------------------------------

    def with_constraints(self, constraints: Sequence[DenialConstraint]) -> "TRExExplainer":
        """A new explainer with a modified constraint set (table unchanged)."""
        return TRExExplainer(self.algorithm, constraints, self.dirty_table, self.config)

    def with_table(self, dirty_table: Table) -> "TRExExplainer":
        """A new explainer with a modified dirty table (constraints unchanged)."""
        return TRExExplainer(self.algorithm, self.constraints, dirty_table, self.config)

    def with_algorithm(self, algorithm: RepairAlgorithm) -> "TRExExplainer":
        """A new explainer with a different black-box repair algorithm."""
        return TRExExplainer(algorithm, self.constraints, self.dirty_table, self.config)
