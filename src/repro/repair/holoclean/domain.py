"""Candidate-domain generation for noisy cells.

For every noisy cell the repairer must choose among a small set of candidate
values.  Following HoloClean's domain-pruning recipe, the candidates for a
cell ``t[A]`` are:

* the cell's own current value (repairs should be minimal),
* values of ``A`` that strongly co-occur with the values of the *other*
  attributes of tuple ``t`` elsewhere in the table, and
* the globally most frequent values of ``A`` (a fallback for tuples whose
  context is itself dirty).

The domain size is capped so inference stays linear in the number of noisy
cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.dataset.table import CellRef, Table
from repro.engine.storage import is_null


@dataclass
class CandidateDomain:
    """The candidate values considered for one noisy cell."""

    cell: CellRef
    candidates: tuple[Any, ...]

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)

    def __contains__(self, value: Any) -> bool:
        return value in self.candidates


class DomainGenerator:
    """Generate pruned candidate domains for noisy cells.

    All counts are read through ``table.stats`` — on the Shapley hot path
    code-space counts built per structure from the perturbed instance's code
    arrays and the base snapshot's (:mod:`repro.engine.stats`), not rebuilt
    from values per repair.

    Parameters
    ----------
    max_domain_size:
        Maximum number of candidates per cell (the current value always
        counts toward the cap but is never pruned away).
    min_cooccurrence:
        Minimum conditional probability ``P[A = v | B = t[B]]`` for a value to
        be proposed through the co-occurrence channel.
    """

    def __init__(self, max_domain_size: int = 12, min_cooccurrence: float = 0.05):
        self.max_domain_size = max(2, max_domain_size)
        self.min_cooccurrence = min_cooccurrence

    def _cooccurrence_candidates(self, table: Table, cell: CellRef) -> list[tuple[float, Any]]:
        """Candidate values scored by co-occurrence with the rest of the tuple."""
        scored: dict[Any, float] = {}
        for attribute in table.attributes:
            if attribute == cell.attribute:
                continue
            context_value = table.value(cell.row, attribute)
            if is_null(context_value):
                continue
            marginal = table.stats.marginal(cell.attribute)
            for candidate in marginal.domain():
                probability = table.stats.cooccurrence.conditional_probability(
                    cell.attribute, candidate, attribute, context_value
                )
                if probability >= self.min_cooccurrence:
                    scored[candidate] = scored.get(candidate, 0.0) + probability
        return sorted(((score, value) for value, score in scored.items()),
                      key=lambda item: (-item[0], repr(item[1])))

    def _frequency_candidates(self, table: Table, cell: CellRef) -> list[Any]:
        marginal = table.stats.marginal(cell.attribute)
        ranked = sorted(marginal.items(), key=lambda item: (-item[1], repr(item[0])))
        return [value for value, _ in ranked]

    def domain_for(self, table: Table, cell: CellRef) -> CandidateDomain:
        """Build the candidate domain for one cell."""
        candidates: list[Any] = []
        current = table[cell]
        if not is_null(current):
            candidates.append(current)

        for _, value in self._cooccurrence_candidates(table, cell):
            if value not in candidates:
                candidates.append(value)
            if len(candidates) >= self.max_domain_size:
                break

        if len(candidates) < self.max_domain_size:
            for value in self._frequency_candidates(table, cell):
                if value not in candidates:
                    candidates.append(value)
                if len(candidates) >= self.max_domain_size:
                    break

        return CandidateDomain(cell=cell, candidates=tuple(candidates))

    def domains_for(self, table: Table, cells: Iterable[CellRef]) -> dict[CellRef, CandidateDomain]:
        """Candidate domains for every cell in ``cells``."""
        return {cell: self.domain_for(table, cell) for cell in cells}
