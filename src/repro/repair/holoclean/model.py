"""The HoloClean-style repair algorithm.

Wires the four pipeline stages (detect → domain → featurize → infer) behind
the :class:`~repro.repair.base.RepairAlgorithm` interface so T-REx can treat
it as an opaque black box, exactly like the original demo treats HoloClean.

The algorithm is deterministic: weight fitting uses full-batch gradient
ascent from a fixed initialisation, candidate domains and tie-breaks are
ordered, and the (optional) second pass re-runs detection on the partially
repaired table rather than sampling.
"""

from __future__ import annotations

import logging
from typing import Sequence

from repro.constraints.dc import DenialConstraint
from repro.dataset.table import CellRef, Table
from repro.engine.storage import is_null
from repro.repair.base import RepairAlgorithm
from repro.repair.holoclean.detect import ErrorDetector
from repro.repair.holoclean.domain import DomainGenerator
from repro.repair.holoclean.featurize import Featurizer
from repro.repair.holoclean.infer import PseudoLikelihoodInference

logger = logging.getLogger(__name__)


class HoloCleanRepair(RepairAlgorithm):
    """Probabilistic, statistics-driven repair in the style of HoloClean.

    Parameters
    ----------
    max_domain_size:
        Candidate-domain cap per noisy cell.
    train_on_clean_cells:
        Number of clean cells sampled (deterministically, by address order)
        as weight-learning evidence.  ``0`` skips learning and uses the
        default feature weights.
    passes:
        Number of detect→repair passes (a second pass can fix violations that
        only become visible after the first round of repairs).
    use_outlier_detector:
        Whether numeric outlier detection participates in error detection.
    """

    name = "holoclean-lite"

    def __init__(
        self,
        max_domain_size: int = 12,
        train_on_clean_cells: int = 60,
        passes: int = 2,
        use_outlier_detector: bool = True,
    ):
        self.detector = ErrorDetector(use_outliers=use_outlier_detector)
        self.domain_generator = DomainGenerator(max_domain_size=max_domain_size)
        self.train_on_clean_cells = max(0, train_on_clean_cells)
        self.passes = max(1, passes)

    # -- training-data construction ---------------------------------------------------

    def _training_examples(self, table: Table, featurizer: Featurizer,
                           clean_cells: list[CellRef]):
        examples = []
        # deterministic, spread-out subsample of the clean cells
        if not clean_cells or self.train_on_clean_cells == 0:
            return examples
        step = max(1, len(clean_cells) // self.train_on_clean_cells)
        sampled = clean_cells[::step][: self.train_on_clean_cells]
        for cell in sampled:
            observed = table[cell]
            if is_null(observed):
                continue
            domain = self.domain_generator.domain_for(table, cell)
            if observed not in domain or len(domain) < 2:
                continue
            matrix = featurizer.featurize_domain(table, domain)
            observed_index = domain.candidates.index(observed)
            examples.append((matrix, observed_index))
        return examples

    # -- one pass -------------------------------------------------------------------------

    def _repair_pass(self, table: Table, constraints: Sequence[DenialConstraint]) -> tuple[Table, int]:
        detection = self.detector.detect(table, constraints)
        noisy_cells = sorted(detection.noisy_cells, key=lambda c: (c.row, c.attribute))
        if not noisy_cells:
            return table, 0

        featurizer = Featurizer(constraints)
        inference = PseudoLikelihoodInference()
        clean_cells = detection.clean_cells(table)
        inference.fit(self._training_examples(table, featurizer, clean_cells))

        domains = self.domain_generator.domains_for(table, noisy_cells)
        matrices = featurizer.featurize_all(table, domains)
        current_values = {cell: table[cell] for cell in noisy_cells}
        assignments = inference.assignments(domains, matrices, current_values)

        changes = {
            cell: value
            for cell, value in assignments.items()
            if value != current_values[cell] and not is_null(value)
        }
        if not changes:
            return table, 0
        return table.with_values(changes, name=table.name), len(changes)

    # -- RepairAlgorithm interface ----------------------------------------------------------

    #: process-wide one-shot flag for the pair-fallback warning below
    _pair_fallback_warned = False

    def repair_pair(
        self,
        constraints: Sequence[DenialConstraint],
        with_table: Table,
        without_table: Table,
        differing_cells: Sequence[CellRef] = (),
    ) -> tuple[Table, Table]:
        """Fall back to two independent repairs (and say so, once).

        The detect stage already runs on the incremental path and the
        domain/featurize stages read their counts from ``table.stats``
        (derived from the base snapshot's by each view's delta), but the
        pipeline's domain generation and weight fitting are not yet threaded
        through a shared :class:`~repro.constraints.incremental.RepairWalk`,
        so a with/without oracle pair costs two full pipeline runs.  A
        one-time warning makes the silent ROADMAP gap visible in explain runs.
        """
        if not HoloCleanRepair._pair_fallback_warned:
            HoloCleanRepair._pair_fallback_warned = True
            logger.warning(
                "HoloCleanRepair.repair_pair falls back to two independent "
                "pipeline runs per oracle pair (its domain/featurize stages "
                "are not walk-threaded yet); paired-oracle speedups do not "
                "apply to this black box."
            )
        return super().repair_pair(constraints, with_table, without_table,
                                   differing_cells)

    def repair_table(self, constraints: Sequence[DenialConstraint], table: Table) -> Table:
        # views stay views (with_values composes their delta), so detection in
        # every pass runs on the incremental path
        current = table.mutable_snapshot(name=f"{table.name}_repaired")
        constraints = list(constraints)
        if not constraints:
            return current
        for _ in range(self.passes):
            current, n_changes = self._repair_pass(current, constraints)
            if n_changes == 0:
                break
        return current
