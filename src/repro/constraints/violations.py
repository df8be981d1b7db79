"""Violation detection engine — the full-rescan reference path.

Given a table and a set of denial constraints, find every violating tuple
(pair).  Two-tuple constraints with at least one ``t1.A == t2.A`` predicate
are evaluated with hash partitioning on those attributes (only rows sharing
the equality key can violate); other constraints fall back to a pair scan.

The detector is used by every repair algorithm and — indirectly, through the
black-box oracle — by every Shapley evaluation, so it is the hottest code
path of the library.  The Shapley hot path therefore runs on the *incremental*
engine instead (:mod:`repro.constraints.incremental`), which maintains
violations under sparse cell deltas; the functions here remain the
from-scratch reference implementation that the incremental path is
cross-checked against (a repair algorithm built with
``engine="reference"`` runs on them end to end).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.constraints.dc import DenialConstraint
from repro.dataset.table import CellRef, Table
from repro.engine.index import MultiColumnIndex


@dataclass(frozen=True)
class Violation:
    """One violation: a constraint plus the (ordered) rows that trigger it."""

    constraint: DenialConstraint
    rows: tuple[int, ...]

    @property
    def row1(self) -> int:
        return self.rows[0]

    @property
    def row2(self) -> int | None:
        return self.rows[1] if len(self.rows) > 1 else None

    def cells(self) -> list[CellRef]:
        """Cells referenced by the constraint's predicates for these rows."""
        return self.constraint.cells_involved(self.row1, self.row2)

    def __str__(self) -> str:
        row_text = ", ".join(f"t{r + 1}" for r in self.rows)
        return f"{self.constraint.name}({row_text})"


class ViolationSet:
    """All violations of a constraint set on one table snapshot.

    The per-constraint / per-row / per-cell lookup indexes are built lazily on
    first query: the hot path (incremental detection inside the Shapley
    sampling loop) only ever iterates and counts, so it never pays for them.
    """

    def __init__(self, violations: Iterable[Violation] = ()):
        self._violations: list[Violation] = list(violations)
        self._by_constraint: dict[str, list[Violation]] | None = None
        self._by_row: dict[int, list[Violation]] | None = None
        self._by_cell: dict[CellRef, list[Violation]] | None = None

    def _register(self, violation: Violation) -> None:
        self._by_constraint[violation.constraint.name].append(violation)
        for row in set(violation.rows):
            self._by_row[row].append(violation)
        for cell in violation.cells():
            self._by_cell[cell].append(violation)

    def _ensure_indexes(self) -> None:
        if self._by_constraint is None:
            self._by_constraint = defaultdict(list)
            self._by_row = defaultdict(list)
            self._by_cell = defaultdict(list)
            for violation in self._violations:
                self._register(violation)

    def add(self, violation: Violation) -> None:
        self._violations.append(violation)
        if self._by_constraint is not None:
            self._register(violation)

    # -- queries -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._violations)

    def __bool__(self) -> bool:
        return bool(self._violations)

    def __iter__(self) -> Iterator[Violation]:
        return iter(self._violations)

    def for_constraint(self, name: str) -> list[Violation]:
        self._ensure_indexes()
        return list(self._by_constraint.get(name, ()))

    def for_row(self, row: int) -> list[Violation]:
        self._ensure_indexes()
        return list(self._by_row.get(row, ()))

    def constraints_violated(self) -> list[str]:
        self._ensure_indexes()
        return sorted(self._by_constraint)

    def rows_involved(self) -> list[int]:
        self._ensure_indexes()
        return sorted(self._by_row)

    def cells_involved(self) -> list[CellRef]:
        self._ensure_indexes()
        return sorted(self._by_cell, key=lambda c: (c.row, c.attribute))

    def count_by_constraint(self) -> dict[str, int]:
        self._ensure_indexes()
        return {name: len(violations) for name, violations in self._by_constraint.items()}

    def count_for_cell(self, cell: CellRef) -> int:
        self._ensure_indexes()
        return len(self._by_cell.get(cell, ()))


def _violations_single_tuple(table: Table, constraint: DenialConstraint) -> Iterator[Violation]:
    for row_id in range(table.n_rows):
        row = table.row(row_id)
        if constraint.is_violated_by(row):
            yield Violation(constraint, (row_id,))


def lazy_row_reader(table: Table):
    """A memoised ``row_of(row_id) -> dict`` over ``table``.

    Row dicts are materialised lazily, on first use: equality-partitioned
    detection typically visits only the rows inside multi-row groups (and the
    incremental detector only the touched rows), so most rows never need a
    dict at all.
    """
    rows_cache: dict[int, dict] = {}
    table_row = table.row

    def row_of(row_id: int) -> dict:
        row = rows_cache.get(row_id)
        if row is None:
            row = rows_cache[row_id] = table_row(row_id)
        return row

    return row_of


def _violations_two_tuple(table: Table, constraint: DenialConstraint,
                          row_of=None) -> Iterator[Violation]:
    equality_attributes = constraint.equality_attributes()

    if equality_attributes:
        index = MultiColumnIndex(table.store, equality_attributes)
        groups = [rows for _, rows in index.groups() if len(rows) > 1]
    else:
        groups = [list(range(table.n_rows))]

    if row_of is None:
        row_of = lazy_row_reader(table)

    for group in groups:
        for position, row_i in enumerate(group):
            row_data_i = row_of(row_i)
            for row_j in group[position + 1 :]:
                row_data_j = row_of(row_j)
                if constraint.is_violated_by(row_data_i, row_data_j):
                    yield Violation(constraint, (row_i, row_j))
                if constraint.is_violated_by(row_data_j, row_data_i):
                    yield Violation(constraint, (row_j, row_i))


def find_violations(table: Table, constraint: DenialConstraint,
                    row_of=None) -> list[Violation]:
    """All violations of a single constraint on ``table``.

    For two-tuple constraints both orders of each violating pair are reported
    (the DC quantifies over ordered pairs); symmetric constraints therefore
    report each unordered pair twice, which keeps per-tuple violation counts
    consistent across constraint shapes.

    ``row_of`` optionally supplies a shared ``row_id -> dict`` reader so
    callers evaluating many near-identical instances (the paired oracle's
    with/without walks) can reuse one row cache instead of rebuilding it per
    instance; it must reflect the current contents of ``table``.
    """
    if constraint.is_single_tuple:
        return list(_violations_single_tuple(table, constraint))
    return list(_violations_two_tuple(table, constraint, row_of=row_of))


def find_all_violations(table: Table, constraints: Sequence[DenialConstraint]) -> ViolationSet:
    """Violations of every constraint in ``constraints`` on ``table``."""
    result = ViolationSet()
    for constraint in constraints:
        for violation in find_violations(table, constraint):
            result.add(violation)
    return result


def violating_rows(table: Table, constraints: Sequence[DenialConstraint]) -> set[int]:
    """Row ids participating in at least one violation."""
    return set(find_all_violations(table, constraints).rows_involved())


def cells_in_violations(table: Table, constraints: Sequence[DenialConstraint]) -> set[CellRef]:
    """Cell addresses participating in at least one violation."""
    return set(find_all_violations(table, constraints).cells_involved())


def is_clean(table: Table, constraints: Sequence[DenialConstraint]) -> bool:
    """True when the table satisfies every constraint."""
    for constraint in constraints:
        if find_violations(table, constraint):
            return False
    return True
