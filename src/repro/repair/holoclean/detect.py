"""Error detection stage of the HoloClean-style repairer.

Three detectors vote on which cells are *noisy* (potentially erroneous):

* **constraint detector** — every cell participating in a denial-constraint
  violation is noisy (the signal the original HoloClean calls "DC violations");
* **null detector** — empty cells are noisy and must be imputed;
* **outlier detector** — numeric cells more than ``z_threshold`` standard
  deviations from their column mean are noisy (a stand-in for the external
  detectors HoloClean can plug in).

The union of the flagged cells forms the noisy set; every other cell is
treated as clean evidence by the downstream learner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.constraints.dc import DenialConstraint
from repro.constraints.incremental import detector_for, find_all_violations_auto
from repro.dataset.table import CellRef, PerturbationView, Table
from repro.engine.storage import is_null


@dataclass
class DetectionResult:
    """Which cells each detector flagged, plus the combined noisy set."""

    constraint_cells: set[CellRef] = field(default_factory=set)
    null_cells: set[CellRef] = field(default_factory=set)
    outlier_cells: set[CellRef] = field(default_factory=set)

    @property
    def noisy_cells(self) -> set[CellRef]:
        return self.constraint_cells | self.null_cells | self.outlier_cells

    def is_noisy(self, cell: CellRef) -> bool:
        return cell in self.noisy_cells

    def clean_cells(self, table: Table) -> list[CellRef]:
        noisy = self.noisy_cells
        return [cell for cell in table.cells() if cell not in noisy]

    def summary(self) -> dict[str, int]:
        return {
            "constraint": len(self.constraint_cells),
            "null": len(self.null_cells),
            "outlier": len(self.outlier_cells),
            "total_noisy": len(self.noisy_cells),
        }


class ErrorDetector:
    """Combine the three detectors into one noisy-cell set.

    Parameters
    ----------
    use_nulls:
        Flag empty cells as noisy.
    use_outliers:
        Run the numeric z-score detector on numeric columns.
    z_threshold:
        Z-score above which a numeric value counts as an outlier.
    """

    def __init__(self, use_nulls: bool = True, use_outliers: bool = True, z_threshold: float = 3.0):
        self.use_nulls = use_nulls
        self.use_outliers = use_outliers
        self.z_threshold = z_threshold

    def _detect_constraint_cells(self, table: Table,
                                 constraints: Sequence[DenialConstraint]) -> set[CellRef]:
        # perturbation views are evaluated incrementally against their base,
        # a plain table reads its (cached) detector's base violations
        if isinstance(table, PerturbationView):
            violations = find_all_violations_auto(table, constraints)
        else:
            violations = detector_for(table).base_violations(constraints)
        return set(violations.cells_involved())

    def _detect_null_cells(self, table: Table) -> set[CellRef]:
        return {cell for cell in table.cells() if is_null(table[cell])}

    def _detect_outlier_cells(self, table: Table) -> set[CellRef]:
        outliers: set[CellRef] = set()
        for attribute in table.schema.numeric_attributes():
            values = []
            rows = []
            for row in range(table.n_rows):
                value = table.value(row, attribute)
                if is_null(value):
                    continue
                try:
                    values.append(float(value))
                    rows.append(row)
                except (TypeError, ValueError):
                    # a non-numeric value in a numeric column is itself suspicious
                    outliers.add(CellRef(row, attribute))
            if len(values) < 3:
                continue
            array = np.asarray(values, dtype=float)
            std = array.std()
            if std == 0:
                continue
            z_scores = np.abs(array - array.mean()) / std
            for row, z_score in zip(rows, z_scores):
                if z_score > self.z_threshold:
                    outliers.add(CellRef(row, attribute))
        return outliers

    def detect(self, table: Table, constraints: Sequence[DenialConstraint]) -> DetectionResult:
        """Run all enabled detectors on ``table``."""
        result = DetectionResult()
        result.constraint_cells = self._detect_constraint_cells(table, constraints)
        if self.use_nulls:
            result.null_cells = self._detect_null_cells(table)
        if self.use_outliers:
            result.outlier_cells = self._detect_outlier_cells(table)
        return result
