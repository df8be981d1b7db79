"""Featurization of (cell, candidate) pairs.

Each candidate value of each noisy cell is described by a small dense feature
vector; inference scores candidates by a weighted sum of these features.  The
features mirror the signal families of the original HoloClean:

``cooccurrence``
    Mean conditional probability of the candidate given the other attribute
    values of the tuple — the relational context signal.
``frequency``
    Marginal probability of the candidate in its column — a prior.
``violations``
    Fraction of constraints that the tuple would *violate* if the cell took
    the candidate value (negative evidence from the denial constraints).
``minimality``
    1.0 when the candidate equals the cell's current value — HoloClean's
    minimality prior that discourages gratuitous changes.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.constraints.dc import DenialConstraint
from repro.dataset.table import CellRef, Table
from repro.engine.storage import is_null
from repro.repair.holoclean.domain import CandidateDomain

#: Order of the feature dimensions produced by :class:`Featurizer`.
FEATURE_NAMES: tuple[str, ...] = ("cooccurrence", "frequency", "violations", "minimality")


class Featurizer:
    """Compute feature vectors for candidate repairs.

    The featurizer caches row dictionaries per table snapshot: the violations
    feature compares a trial row against every other row, and rebuilding the
    row dictionaries for each (cell, candidate) pair dominated the runtime of
    the HoloClean-style repairer on wider tables.  The co-occurrence and
    frequency features read ``table.stats`` — on a perturbed view, code-space
    counts built lazily per structure from the view's code arrays and the
    base snapshot's (:mod:`repro.engine.stats`), so no value is counted
    per instance on the Shapley hot path.
    """

    def __init__(self, constraints: Sequence[DenialConstraint]):
        self.constraints = list(constraints)
        self._row_cache: dict[int, list[dict]] = {}

    def _rows_of(self, table: Table) -> list[dict]:
        key = id(table)
        if key not in self._row_cache:
            self._row_cache[key] = [table.row(i) for i in range(table.n_rows)]
        return self._row_cache[key]

    # -- individual features -----------------------------------------------------

    def _cooccurrence(self, table: Table, cell: CellRef, candidate: Any) -> float:
        probabilities = []
        for attribute in table.attributes:
            if attribute == cell.attribute:
                continue
            context_value = table.value(cell.row, attribute)
            if is_null(context_value):
                continue
            probabilities.append(
                table.stats.cooccurrence.conditional_probability(
                    cell.attribute, candidate, attribute, context_value
                )
            )
        return float(np.mean(probabilities)) if probabilities else 0.0

    def _frequency(self, table: Table, cell: CellRef, candidate: Any) -> float:
        return table.stats.marginal(cell.attribute).frequency(candidate)

    def _violations(self, table: Table, cell: CellRef, candidate: Any) -> float:
        """Fraction of constraints violated by the tuple if the cell takes ``candidate``.

        Only constraints mentioning the cell's attribute are checked, and only
        the row of the cell is re-examined against all other rows — a local
        (and therefore cheap) approximation of the global violation count.
        """
        relevant = [c for c in self.constraints if cell.attribute in c.attributes()]
        if not relevant:
            return 0.0
        rows = self._rows_of(table)
        trial_row = dict(rows[cell.row])
        trial_row[cell.attribute] = candidate
        violated = 0
        for constraint in relevant:
            found = False
            if constraint.is_single_tuple:
                found = constraint.is_violated_by(trial_row)
            else:
                # only rows agreeing with the trial row on the constraint's
                # equality attributes can possibly violate it
                equality_attributes = constraint.equality_attributes()
                for other_row_id, other_row in enumerate(rows):
                    if other_row_id == cell.row:
                        continue
                    if any(
                        other_row.get(attribute) != trial_row.get(attribute)
                        for attribute in equality_attributes
                    ):
                        continue
                    if constraint.is_violated_by(trial_row, other_row) or \
                       constraint.is_violated_by(other_row, trial_row):
                        found = True
                        break
            if found:
                violated += 1
        return violated / len(relevant)

    def _minimality(self, table: Table, cell: CellRef, candidate: Any) -> float:
        current = table[cell]
        return 1.0 if (not is_null(current) and candidate == current) else 0.0

    # -- public API -----------------------------------------------------------------

    def features(self, table: Table, cell: CellRef, candidate: Any) -> np.ndarray:
        """Feature vector (ordered as :data:`FEATURE_NAMES`) for one candidate."""
        return np.array(
            [
                self._cooccurrence(table, cell, candidate),
                self._frequency(table, cell, candidate),
                self._violations(table, cell, candidate),
                self._minimality(table, cell, candidate),
            ],
            dtype=float,
        )

    def featurize_domain(self, table: Table, domain: CandidateDomain) -> np.ndarray:
        """Feature matrix (candidates × features) for one cell's domain."""
        if not len(domain):
            return np.zeros((0, len(FEATURE_NAMES)), dtype=float)
        return np.vstack([self.features(table, domain.cell, candidate) for candidate in domain])

    def featurize_all(
        self, table: Table, domains: Mapping[CellRef, CandidateDomain]
    ) -> dict[CellRef, np.ndarray]:
        """Feature matrices for every noisy cell."""
        return {cell: self.featurize_domain(table, domain) for cell, domain in domains.items()}
