"""Constraint discovery.

The demo assumes users arrive with "an initial set of DCs".  To make the
examples and the ablation benches self-contained we provide a compact
discoverer in the spirit of the FD/DC discovery literature ([2] in the
paper):

* :func:`discover_fds` — exact discovery of minimal functional dependencies
  with left-hand sides up to a configurable size, using partition refinement
  (the core idea of TANE).
* :func:`discover_dcs` — evidence-set based discovery of two-tuple denial
  constraints over a restricted predicate space (equality / inequality on
  each attribute), following the FastDC recipe: build the predicate evidence
  of every tuple pair, then emit constraints whose predicate set is never
  jointly satisfied.

Both are intended for the laptop-scale tables used here (hundreds to a few
thousand rows), not for industrial workloads.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from repro.constraints.dc import DenialConstraint
from repro.constraints.fd import FunctionalDependency
from repro.constraints.predicates import Operator, Predicate
from repro.dataset.table import Table
from repro.engine.storage import is_null
from repro.errors import ConstraintError


def _partition(table: Table, attributes: Sequence[str]) -> dict[tuple, list[int]]:
    """Group row ids by their values on ``attributes`` (nulls grouped by None)."""
    groups: dict[tuple, list[int]] = {}
    for row_id in range(table.n_rows):
        key = tuple(table.value(row_id, attribute) for attribute in attributes)
        groups.setdefault(key, []).append(row_id)
    return groups


def _fd_holds(table: Table, lhs: Sequence[str], rhs: str) -> bool:
    """Check whether ``lhs -> rhs`` holds exactly on the table (nulls ignored)."""
    for key, rows in _partition(table, lhs).items():
        if any(is_null(part) for part in key):
            continue
        rhs_values = {
            table.value(row, rhs)
            for row in rows
            if not is_null(table.value(row, rhs))
        }
        if len(rhs_values) > 1:
            return False
    return True


def discover_fds(table: Table, max_lhs_size: int = 2) -> list[FunctionalDependency]:
    """Discover minimal functional dependencies holding exactly on ``table``.

    A dependency ``X → A`` is reported only if no proper subset of ``X`` also
    determines ``A`` (minimality), and trivial dependencies are skipped.
    ``max_lhs_size`` must be a positive ``int`` or numpy integer (``bool``
    is rejected); anything else raises :class:`~repro.errors.ConstraintError`.
    """
    if isinstance(max_lhs_size, bool) or not isinstance(max_lhs_size, (int, np.integer)):
        raise ConstraintError(
            f"max_lhs_size must be an integer, got "
            f"{type(max_lhs_size).__name__} {max_lhs_size!r}"
        )
    if max_lhs_size <= 0:
        raise ConstraintError(f"max_lhs_size must be positive, got {max_lhs_size}")
    attributes = list(table.attributes)
    discovered: list[FunctionalDependency] = []
    determined_by: dict[str, list[tuple[str, ...]]] = {a: [] for a in attributes}

    for rhs in attributes:
        candidates = [a for a in attributes if a != rhs]
        for size in range(1, max_lhs_size + 1):
            for lhs in combinations(candidates, size):
                if any(set(smaller) <= set(lhs) for smaller in determined_by[rhs]):
                    continue  # a subset already determines rhs: not minimal
                if _fd_holds(table, lhs, rhs):
                    determined_by[rhs].append(lhs)
                    discovered.append(FunctionalDependency(lhs, rhs))
    return discovered


def _predicate_space(attributes: Iterable[str]) -> list[Predicate]:
    """The restricted predicate space used for DC discovery: =, ≠ per attribute."""
    space: list[Predicate] = []
    for attribute in attributes:
        space.append(Predicate.between_tuples(attribute, Operator.EQ))
        space.append(Predicate.between_tuples(attribute, Operator.NE))
    return space


def _evidence(table: Table, space: Sequence[Predicate]) -> set[frozenset[int]]:
    """Evidence sets: for each ordered tuple pair, which predicates it satisfies."""
    evidence: set[frozenset[int]] = set()
    rows = [table.row(i) for i in range(table.n_rows)]
    for i, row_i in enumerate(rows):
        for j, row_j in enumerate(rows):
            if i == j:
                continue
            satisfied = frozenset(
                index for index, predicate in enumerate(space)
                if predicate.evaluate(row_i, row_j)
            )
            evidence.add(satisfied)
    return evidence


def discover_dcs(
    table: Table,
    max_predicates: int = 3,
    attributes: Sequence[str] | None = None,
    prefix: str = "D",
) -> list[DenialConstraint]:
    """Discover two-tuple denial constraints that hold exactly on ``table``.

    A candidate predicate set ``P`` (of size at most ``max_predicates``) forms
    a valid DC ``¬(∧ P)`` iff no tuple pair satisfies all of ``P`` — i.e. ``P``
    is not a subset of any evidence set.  Only minimal constraints (no valid
    proper subset) are returned; candidates mixing ``=`` and ``≠`` on the same
    attribute are skipped as tautologically valid but uninformative.
    """
    attributes = list(attributes or table.attributes)
    space = _predicate_space(attributes)
    evidence = _evidence(table, space)
    valid_sets: list[frozenset[int]] = []
    results: list[DenialConstraint] = []

    def is_minimal(candidate: frozenset[int]) -> bool:
        return not any(existing < candidate for existing in valid_sets)

    indexes = range(len(space))
    counter = 0
    for size in range(1, max_predicates + 1):
        for combo in combinations(indexes, size):
            candidate = frozenset(combo)
            touched = [space[i].left.attribute for i in combo]
            if len(set(touched)) != len(touched):
                continue  # two predicates on the same attribute: skip
            if not is_minimal(candidate):
                continue
            if any(candidate <= observed for observed in evidence):
                continue  # some pair satisfies all predicates: not a valid DC
            valid_sets.append(candidate)
            counter += 1
            predicates = [space[i] for i in sorted(combo)]
            results.append(
                DenialConstraint(
                    name=f"{prefix}{counter}",
                    predicates=predicates,
                    description="discovered from data",
                )
            )
    return results


def verify_constraints(table: Table, constraints: Sequence[DenialConstraint]) -> dict[str, bool]:
    """Map each constraint name to whether it holds (has no violations) on ``table``."""
    from repro.constraints.violations import find_violations

    return {
        constraint.name: not find_violations(table, constraint)
        for constraint in constraints
    }
