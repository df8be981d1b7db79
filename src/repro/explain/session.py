"""Interactive repair/explanation sessions.

Section 4 of the paper describes the demo loop: repair the table, explain a
cell of interest, act on the explanation (remove or change the highest-ranked
constraint, or fix influential cells), re-repair, and check whether the
repair of the cell improved.  :class:`RepairSession` scripts that loop —
every step is recorded so examples and benchmarks can replay and report it.

Sessions are additionally *live* under base-table updates:
:meth:`RepairSession.update` applies a write to the dirty table,
delta-maintains the whole session state in place (violation detector,
statistics, encodings, oracle caches, resident worker stacks) and
invalidates only the Shapley estimates whose sampled coalitions overlapped
the changed cells (see :mod:`repro.explain.live`).  ``update()`` followed by
``explain()`` is bit-identical to a fresh session built on the post-update
table, which is the reference the update path is tested against.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.config import TRexConfig
from repro.constraints.dc import DenialConstraint
from repro.dataset.table import CellRef, Table
from repro.errors import ExplanationError
from repro.explain.explainer import Explanation, TRExExplainer
from repro.repair.base import RepairAlgorithm, RepairResult
from repro.repair.updates import BaseUpdateDelta, BaseUpdateLog, collect_changes


@dataclass
class SessionStep:
    """One recorded step of an interactive session."""

    action: str
    detail: str
    repaired_cells: int
    cell_of_interest_value: Any = None
    explanation: Explanation | None = None


@dataclass
class SessionState:
    """The evolving inputs of the session."""

    constraints: list[DenialConstraint]
    dirty_table: Table


class RepairSession:
    """Drive the iterative repair → explain → edit workflow.

    Parameters
    ----------
    algorithm:
        The black-box repair algorithm.
    constraints, dirty_table:
        The initial inputs (the session keeps its own evolving copies).
    expected_value:
        Optional ground-truth value of the cell of interest; when provided the
        session can report whether an iteration improved the repair.
    config:
        Seeds and sampling defaults.
    """

    def __init__(
        self,
        algorithm: RepairAlgorithm,
        constraints: Sequence[DenialConstraint],
        dirty_table: Table,
        cell_of_interest: CellRef | None = None,
        expected_value: Any = None,
        config: TRexConfig | None = None,
    ):
        self.algorithm = algorithm
        self.state = SessionState(constraints=list(constraints), dirty_table=dirty_table)
        self.cell_of_interest = cell_of_interest
        self.expected_value = expected_value
        self.config = config or TRexConfig()
        self.steps: list[SessionStep] = []
        self._explainer: TRExExplainer | None = None
        #: applied base-update deltas, in order (see :meth:`update`)
        self.update_log = BaseUpdateLog()
        #: persistent cell-Shapley state
        #: (:class:`~repro.explain.live.LiveExplainState`); ``None`` until the
        #: first full explain
        self._live = None

    # -- plumbing -------------------------------------------------------------------

    def _drop_live(self) -> None:
        if self._live is not None:
            self._live.close()
            self._live = None

    def _fresh_explainer(self) -> TRExExplainer:
        self._drop_live()
        self._explainer = TRExExplainer(
            self.algorithm, self.state.constraints, self.state.dirty_table, self.config
        )
        return self._explainer

    @property
    def explainer(self) -> TRExExplainer:
        return self._explainer if self._explainer is not None else self._fresh_explainer()

    def _record(self, action: str, detail: str, repair: RepairResult,
                explanation: Explanation | None = None) -> SessionStep:
        value = None
        if self.cell_of_interest is not None:
            value = repair.clean[self.cell_of_interest]
        step = SessionStep(
            action=action,
            detail=detail,
            repaired_cells=len(repair.delta),
            cell_of_interest_value=value,
            explanation=explanation,
        )
        self.steps.append(step)
        return step

    # -- the user actions of the demo -----------------------------------------------------

    def run_repair(self) -> SessionStep:
        """Press the "Repair" button: run the algorithm on the current inputs."""
        explainer = self._fresh_explainer()
        repair = explainer.repair()
        return self._record("repair", f"{self.algorithm.name} repaired {len(repair.delta)} cells", repair)

    def choose_cell(self, cell: CellRef) -> None:
        """Mark a repaired cell as the cell of interest."""
        cell = self.state.dirty_table.validate_cell(cell)
        repair = self.explainer.repair()
        if cell not in repair.delta:
            raise ExplanationError(
                f"cell {cell} was not repaired; repaired cells: "
                f"{[str(c) for c in repair.delta.cells()]}"
            )
        self.cell_of_interest = cell

    def explain(self, n_samples: int | None = None, constraints_only: bool = False,
                n_jobs: int | None = None) -> Explanation:
        """Press the "Explain" button for the current cell of interest.

        ``n_jobs`` switches the session's cell-Shapley sampling onto the
        sharded multi-process scheduler (see :mod:`repro.parallel`) from this
        step on.  It updates the session config, so later explain steps keep
        the setting until it is changed again; a rejected value leaves the
        config untouched.
        """
        if self.cell_of_interest is None:
            raise ExplanationError("choose a cell of interest before asking for an explanation")
        if n_jobs is not None:
            if not isinstance(n_jobs, numbers.Integral) or n_jobs < 1:
                raise ExplanationError(
                    f"n_jobs must be a positive integer or None, got {n_jobs!r}"
                )
            self.config.n_jobs = n_jobs
        explainer = self.explainer
        live = self._live
        if constraints_only and live is not None and live.cell == self.cell_of_interest:
            explanation = self._explanation(
                constraint_shapley=live.constraint_result(),
                oracle_statistics=live.constraint_oracle.statistics(),
            )
        elif constraints_only:
            explanation = explainer.explain_constraints(self.cell_of_interest)
        else:
            explanation = self._explain_live(n_samples)
        self._record(
            "explain",
            f"explained {self.cell_of_interest}",
            explainer.repair(),
            explanation=explanation,
        )
        return explanation

    def _explain_live(self, n_samples: int | None) -> Explanation:
        """Serve the cell explanation from the live state.

        The live state's first run replicates the fresh explainer's sampling
        stream exactly (same construction, same submission order, same RNG),
        so without any intervening :meth:`update` the explanation is
        bit-identical to :meth:`TRExExplainer.explain`; after updates, only
        the invalidated estimates are re-sampled, and none on a table state
        the live state already explained (see :mod:`repro.explain.live`).
        """
        from repro.explain.live import LiveExplainState

        cell = self.cell_of_interest
        resolved = self.config.cell_samples if n_samples is None else n_samples
        if self._live is not None and not self._live.matches(cell, resolved, self.config):
            self._drop_live()
        if self._live is None:
            self._live = LiveExplainState(self, cell, resolved)
        live = self._live
        # same composition as TRExExplainer.explain: exact constraint Shapley
        # (RNG-free, on the live state's kept constraint oracle) plus the
        # sampled cell Shapley
        constraint_result = live.constraint_result()
        cell_result = live.result()
        return self._explanation(
            constraint_shapley=constraint_result,
            cell_shapley=cell_result,
            oracle_statistics={
                "constraints": live.constraint_oracle.statistics(),
                "cells": live.oracle.statistics(),
            },
        )

    def _explanation(self, **parts) -> Explanation:
        """An explanation of the cell of interest on the current tables."""
        cell = self.cell_of_interest
        return Explanation(cell=cell, old_value=self.state.dirty_table[cell],
                           new_value=self.explainer.clean_table[cell], **parts)

    # -- live base updates -----------------------------------------------------------

    def update(self, cell: CellRef, value: Any) -> SessionStep:
        """Apply one base-table write and keep the session state live.

        Unlike :meth:`edit_cell` — the demo's "act on the explanation" step,
        which deliberately rebuilds the explainer stack — ``update`` models
        the base table changing *under* an explanation session: every
        derived structure is delta-maintained in place and only the Shapley
        estimates whose sampled coalitions overlapped the write are
        re-sampled on the next :meth:`explain`.  The post-update explanation
        is bit-identical to a fresh session built on the post-update table.
        """
        return self.update_many({cell: value})

    def update_many(self, values: Mapping[CellRef, Any]) -> SessionStep:
        """Apply several base-table writes as one update (see :meth:`update`).

        Every write is validated before any is applied: an unknown cell or an
        unhashable value raises a :class:`~repro.errors.SchemaError` and
        leaves the table, the update log and the live state unchanged.
        """
        from repro.explain.live import apply_session_update

        info = apply_session_update(self, values)
        self.update_log.append(info["delta"] or BaseUpdateDelta(updates=()))
        repair = self.explainer.repair()
        return self._record(
            "update",
            f"updated {info['cells_written']} cells, "
            f"invalidated {info['estimates_invalidated']} estimates",
            repair,
        )

    def close(self) -> None:
        """Release the live state's persistent worker pools (if any)."""
        self._drop_live()

    def __enter__(self) -> "RepairSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def remove_constraint(self, name: str) -> SessionStep:
        """Remove a constraint (typically the top-ranked one) and re-repair."""
        remaining = [c for c in self.state.constraints if c.name != name]
        if len(remaining) == len(self.state.constraints):
            raise ExplanationError(f"no constraint named {name!r} in the current set")
        self.state.constraints = remaining
        explainer = self._fresh_explainer()
        repair = explainer.repair()
        return self._record("remove-constraint", f"removed {name}", repair)

    def replace_constraint(self, name: str, replacement: DenialConstraint) -> SessionStep:
        """Swap one constraint for a corrected version and re-repair."""
        names = [c.name for c in self.state.constraints]
        if name not in names:
            raise ExplanationError(f"no constraint named {name!r} in the current set")
        self.state.constraints = [
            replacement if c.name == name else c for c in self.state.constraints
        ]
        explainer = self._fresh_explainer()
        repair = explainer.repair()
        return self._record("replace-constraint", f"replaced {name} with {replacement.name}", repair)

    def edit_cell(self, cell: CellRef, value: Any) -> SessionStep:
        """Change a value of the dirty table (acting on a cell explanation) and re-repair."""
        cell = self.state.dirty_table.validate_cell(cell)
        collect_changes(self.state.dirty_table, {cell: value})  # validates the value
        self.state.dirty_table = self.state.dirty_table.with_values({cell: value})
        explainer = self._fresh_explainer()
        repair = explainer.repair()
        return self._record("edit-cell", f"set {cell} to {value!r}", repair)

    # -- progress measurement ---------------------------------------------------------------

    def cell_of_interest_is_correct(self) -> bool | None:
        """Whether the latest repair gives the expected value (None if unknown)."""
        if self.cell_of_interest is None or self.expected_value is None or not self.steps:
            return None
        return self.steps[-1].cell_of_interest_value == self.expected_value

    def history(self) -> list[SessionStep]:
        return list(self.steps)

    def summary(self) -> str:
        lines = ["Repair session summary", "----------------------"]
        for index, step in enumerate(self.steps, start=1):
            value_text = ""
            if step.cell_of_interest_value is not None:
                value_text = f" | cell of interest = {step.cell_of_interest_value!r}"
            lines.append(
                f"{index:2d}. [{step.action}] {step.detail} "
                f"({step.repaired_cells} repaired cells){value_text}"
            )
        if self.expected_value is not None and self.cell_of_interest is not None:
            verdict = self.cell_of_interest_is_correct()
            lines.append(
                f"Final value of {self.cell_of_interest} correct: {verdict}"
            )
        return "\n".join(lines)
