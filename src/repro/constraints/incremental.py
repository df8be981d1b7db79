"""Incremental violation detection under sparse cell deltas.

The Shapley hot path evaluates thousands of perturbed instances of one dirty
table, and every instance reaches the repair algorithms, which re-detect
denial-constraint violations from scratch — full index rebuilds and full pair
scans per instance.  This module replaces that with delta maintenance in the
style of incremental view maintenance: violations of a perturbed instance are
derived from the *base* table's violations by

1. **retract** — drop every base violation involving a row whose cells (on
   attributes the constraint mentions) were touched by the delta;
2. **re-index** — move only the touched row ids between the groups of a
   persistent per-constraint equality index
   (:meth:`~repro.engine.index.MultiColumnIndex.apply_delta` /
   ``revert_delta``);
3. **re-check** — test only the touched rows against their (updated) index
   groups, using a residual check that skips the equality predicates the
   index already guarantees.

Two-tuple constraints without an equality predicate fall back to the full
:func:`~repro.constraints.violations.find_violations` rescan on the view.

Steps 1 and 3 are one function, :func:`_retract_recheck`, with three
callers that differ only in the index it reads:

* base→view detection (:meth:`IncrementalViolationDetector.violations_for_view`)
  applies the view's key moves to the shared base index and reverts them
  after the re-check;
* base-table updates (:meth:`IncrementalViolationDetector.apply_base_update`)
  move the base index permanently;
* repair walks (:class:`RepairWalk`) fork the base index once, move the
  rows their view overrides and keep the fork synchronised with the view's
  writes.

All three move an index by one helper, :func:`_move_keys`: the rows whose
old and new keys differ change groups.

A walk keeps no violation list for an FD shape (eq-joins plus one
same-attribute ``!=``) whose columns the dictionary encoding codes: it keeps
one :class:`_FDPartition` of the rows in code space instead, moved once per
write batch by array operations.

:class:`IncrementalViolationDetector` holds the per-base-snapshot state (base
violations per constraint, persistent indexes, compiled residual checks);
:func:`detector_for` caches one detector per base table, invalidated by the
table's mutation :attr:`~repro.dataset.table.Table.version`.  The detector is
guaranteed to produce exactly the multiset of violations the reference
full-rescan path produces — the property-based test-suite and
``benchmarks/bench_incremental_vs_full.py`` cross-check this.
The greedy repairer's ``engine="reference"`` scores its candidate trials
through :meth:`~IncrementalViolationDetector.violations_for_view` as well
(see :meth:`~repro.repair.greedy.GreedyHolisticRepair._total_violations_if`).
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import nullcontext
from itertools import groupby
from operator import itemgetter
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.constraints.dc import DenialConstraint
from repro.constraints.predicates import Operator, Predicate, TUPLE_1
from repro.constraints.violations import (
    Violation,
    ViolationSet,
    find_all_violations,
    find_violations,
    lazy_row_reader,
)
from repro.dataset.table import CellRef, PerturbationView, Table
from repro.engine.index import MultiColumnIndex
from repro.engine.storage import is_null, values_differ
from repro.observability import trace as otrace

__all__ = [
    "IncrementalViolationDetector",
    "RepairWalk",
    "detector_for",
    "repair_walk_for",
    "find_violations_auto",
    "find_all_violations_auto",
]

#: Equivalence-class marker for null cells in ``!=`` partitioning: all nulls
#: form one class (``null != null`` is unsatisfied, ``null != value`` holds).
_NULL_CLASS = object()

#: shared empty row array (read-only)
_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_ROWS.flags.writeable = False


def _is_ne_join(predicate: Predicate) -> bool:
    """True for ``t1.A != t2.A`` style predicates (class-partitionable)."""
    return (
        predicate.op is Operator.NE
        and not predicate.left.is_constant
        and not predicate.right.is_constant
        and predicate.left.tuple_name != predicate.right.tuple_name
        and predicate.left.attribute == predicate.right.attribute
    )


def _compile_predicates(predicates: Sequence[Predicate]):
    """Compile predicates into one ``check(row1, row2) -> bool`` closure.

    Equivalent to ``all(p.evaluate(row1, row2) for p in predicates)`` but
    without building a tuple-assignment mapping per predicate per pair, which
    is most of the reference path's per-pair cost.
    """
    steps = []
    for predicate in predicates:
        left, right = predicate.left, predicate.right
        steps.append((
            predicate.op.evaluate,
            left.is_constant, left.tuple_name == TUPLE_1, left.attribute, left.constant,
            right.is_constant, right.tuple_name == TUPLE_1, right.attribute, right.constant,
        ))

    def check(row1: Mapping[str, Any], row2: Mapping[str, Any]) -> bool:
        for (op_evaluate,
             left_const, left_first, left_attr, left_value,
             right_const, right_first, right_attr, right_value) in steps:
            left = left_value if left_const else (row1 if left_first else row2)[left_attr]
            right = right_value if right_const else (row1 if right_first else row2)[right_attr]
            if not op_evaluate(left, right):
                return False
        return True

    return check


class _ConstraintPlan:
    """Static evaluation plan for one constraint (shape analysis, compiled once)."""

    __slots__ = ("constraint", "mentioned", "kind", "eq_attrs", "residual_check",
                 "single_ne_attr")

    def __init__(self, constraint: DenialConstraint):
        self.constraint = constraint
        self.mentioned = frozenset(constraint.attributes())
        self.eq_attrs: tuple[str, ...] = ()
        self.residual_check = None
        self.single_ne_attr: str | None = None
        if constraint.is_single_tuple:
            self.kind = "single"
            self.residual_check = _compile_predicates(constraint.predicates)
            return
        eq_attrs = constraint.equality_attributes()
        if not eq_attrs:
            self.kind = "pairs"  # no hash partition possible: full-rescan fallback
            return
        self.kind = "eq"
        self.eq_attrs = eq_attrs
        residual = [p for p in constraint.predicates if not p.is_equality_join]
        self.residual_check = _compile_predicates(residual)
        if len(residual) == 1 and _is_ne_join(residual[0]):
            # the FD shape (eq-join + one same-attribute !=): pairs violate
            # exactly when their null-aware equivalence classes differ, no
            # predicate machinery needed per pair
            self.single_ne_attr = residual[0].left.attribute


class _ConstraintState:
    """Per-(base snapshot, constraint) incremental state.

    ``base_violations`` is built on first read by ``build`` when one is given
    (FD shapes: a repair walk never needs the list, only the index).
    """

    __slots__ = ("plan", "index", "built", "_build")

    def __init__(self, plan: _ConstraintPlan, index: MultiColumnIndex | None,
                 base_violations: list[Violation] | None, build=None):
        self.plan = plan
        self.index = index
        self.built = base_violations
        self._build = build

    @property
    def base_violations(self) -> list[Violation]:
        if self.built is None:
            self.built = self._build()
        return self.built


# -- the retract-and-recheck step ---------------------------------------------------
#
# One step serves base→view detection, base-table updates and the repair walk;
# the callers differ only in where keys, groups, classes and rows are read.


def _rows_under(attributes: Iterable[str],
                rows_by_attribute: Mapping[str, Iterable[int]]) -> set[int]:
    """Rows whose cells on any of ``attributes`` changed."""
    rows: set[int] = set()
    for attribute in attributes:
        changed = rows_by_attribute.get(attribute)
        if changed:
            rows.update(changed)
    return rows


def _key_reader(sources: Sequence[tuple[Any, Mapping[int, Any] | None]]):
    """``key_of(row)`` over ``(column, overrides)`` sources, one per key column.

    A row's value is its override when it has one, its column value
    otherwise; the key is ``None`` on a null component (which can never
    satisfy the eq-join).
    """
    sources = [(column, {} if overrides is None else overrides)
               for column, overrides in sources]

    def key_of(row_id: int) -> tuple | None:
        key = []
        for column, overrides in sources:
            value = overrides[row_id] if row_id in overrides else column[row_id]
            if is_null(value):
                return None
            key.append(value)
        return tuple(key)

    return key_of


def _class_reader(column, overrides: Mapping[int, Any] | None):
    """``class_of(row)``: the row's null-aware ``!=`` class (see :func:`_key_reader`)."""
    if overrides is None:
        overrides = {}

    def class_of(row_id: int):
        value = overrides[row_id] if row_id in overrides else column[row_id]
        return _NULL_CLASS if is_null(value) else value

    return class_of


def _move_keys(index: MultiColumnIndex, rows: Iterable[int], old_key_of,
               new_key_of) -> dict[int, tuple[tuple | None, tuple | None]]:
    """Move the ``rows`` whose key changed between ``index``'s groups.

    Returns the moves ``{row: (old key, new key)}`` (what
    :meth:`~repro.engine.index.MultiColumnIndex.revert_delta` takes back).
    """
    moves: dict[int, tuple[tuple | None, tuple | None]] = {}
    for row_id in rows:
        old_key = old_key_of(row_id)
        new_key = new_key_of(row_id)
        if old_key != new_key:
            moves[row_id] = (old_key, new_key)
    if moves:
        index.apply_delta(moves)
    return moves


def _retract_recheck(plan: _ConstraintPlan, violations: list[Violation],
                     touched: set[int], table: Table, row_of,
                     key_of=None, groups=None, class_of=None) -> list[Violation]:
    """One constraint's violations after the ``touched`` rows changed.

    ``violations`` (left as is) holds the violations before the change and
    ``row_of`` reads rows of ``table`` after it.  Violations with no touched
    row are kept in order; what the touched rows take part in now is
    appended:

    * ``single`` — each touched row is re-tested, ascending;
    * ``pairs`` — no partition to retract from: the constraint is rescanned
      on ``table``;
    * ``eq`` — each touched row (ascending) is paired with its equality
      group ``groups[key_of(row)]``, read from an index that already holds
      the change; FD shapes compare ``class_of`` classes, other residuals run
      the compiled check in both orders.  A pair of two touched rows is
      emitted once, by its lower id.
    """
    constraint = plan.constraint
    if plan.kind == "pairs":
        return find_violations(table, constraint, row_of=row_of)
    check = plan.residual_check
    if plan.kind == "single":
        out = [v for v in violations if v.rows[0] not in touched]
        for row_id in sorted(touched):
            row = row_of(row_id)
            if check(row, row):
                out.append(Violation(constraint, (row_id,)))
        return out
    out = [v for v in violations
           if v.rows[0] not in touched and v.rows[1] not in touched]
    fd_shape = plan.single_ne_attr is not None
    for row_i in sorted(touched):
        key = key_of(row_i)
        if key is None:
            continue  # a null component can never satisfy the eq-join
        partners = groups.get(key)
        if partners is None or len(partners) <= 1:
            continue
        if fd_shape:
            class_i = class_of(row_i)
            for row_j in partners:
                if row_j == row_i or (row_j in touched and row_j < row_i):
                    continue  # touched pairs are handled by the lower id
                if class_i != class_of(row_j):
                    out.append(Violation(constraint, (row_i, row_j)))
                    out.append(Violation(constraint, (row_j, row_i)))
        else:
            row_data_i = row_of(row_i)
            for row_j in partners:
                if row_j == row_i or (row_j in touched and row_j < row_i):
                    continue
                row_data_j = row_of(row_j)
                if check(row_data_i, row_data_j):
                    out.append(Violation(constraint, (row_i, row_j)))
                if check(row_data_j, row_data_i):
                    out.append(Violation(constraint, (row_j, row_i)))
    return out


class IncrementalViolationDetector:
    """Delta-maintains denial-constraint violations over one base snapshot.

    Parameters
    ----------
    table:
        The base table (a plain :class:`~repro.dataset.table.Table`, usually
        the dirty table).  Per-constraint base violations are computed once,
        lazily: FD shapes off the equality index (:meth:`_fd_base_violations`),
        other shapes by :func:`~repro.constraints.violations.find_violations`.
    constraints:
        Optional constraints to pre-build state for; any constraint seen later
        through :meth:`violations_for_view` is planned on first use.
    """

    def __init__(self, table: Table, constraints: Iterable[DenialConstraint] = ()):
        self.table = table
        self.base_version = table.version
        self._states: dict[DenialConstraint, _ConstraintState] = {}
        self._indexes: dict[tuple[str, ...], MultiColumnIndex] = {}
        self._columns: dict[str, Any] = {}  # base column arrays, fetched once
        for constraint in constraints:
            self._state(constraint)

    # -- state construction ------------------------------------------------------

    def _column(self, attribute: str):
        column = self._columns.get(attribute)
        if column is None:
            column = self._columns[attribute] = self.table.store.column(attribute)
        return column

    def _index_for(self, eq_attrs: tuple[str, ...]) -> MultiColumnIndex:
        index = self._indexes.get(eq_attrs)
        if index is None:
            index = self._indexes[eq_attrs] = MultiColumnIndex(self.table.store, eq_attrs)
        return index

    def _state(self, constraint: DenialConstraint) -> _ConstraintState:
        state = self._states.get(constraint)
        if state is None:
            plan = _ConstraintPlan(constraint)
            index = self._index_for(plan.eq_attrs) if plan.kind == "eq" else None
            if plan.single_ne_attr is not None:
                state = _ConstraintState(
                    plan, index, None, lambda: self._fd_base_violations(plan, index))
            else:
                state = _ConstraintState(
                    plan, index, list(find_violations(self.table, constraint)))
            self._states[constraint] = state
        return state

    def _fd_base_violations(self, plan: _ConstraintPlan,
                            index: MultiColumnIndex) -> list[Violation]:
        """FD-shape base violations off the equality index, in O(n + output).

        Pairs violate when they share a group and their null-aware ``!=``
        classes differ, so single-class groups are skipped and pairs are built
        only in mixed groups, visited by smallest row: a fresh index's order,
        which reproduces :func:`~repro.constraints.violations.find_violations`
        exactly even after deltas moved the shared index.
        """
        constraint = plan.constraint
        ne_column = self._column(plan.single_ne_attr)
        mixed = []
        for rows in index._groups.values():  # read-only peek
            if len(rows) < 2:
                continue
            classes = [_NULL_CLASS if is_null(value) else value
                       for value in ne_column[rows].tolist()]
            if classes.count(classes[0]) != len(classes):
                mixed.append((rows, classes))
        mixed.sort(key=lambda group: group[0][0])
        out: list[Violation] = []
        for rows, classes in mixed:
            for i, row_i in enumerate(rows):
                class_i = classes[i]
                for j in range(i + 1, len(rows)):
                    if class_i != classes[j]:
                        out.append(Violation(constraint, (row_i, rows[j])))
                        out.append(Violation(constraint, (rows[j], row_i)))
        return out

    def precompute_walk_indexes(self, *args, **kwargs):
        """Retired stub (ROADMAP item 1): every walk forks its own index
        (:meth:`RepairWalk._windex`)."""
        raise NotImplementedError("precompute_walk_indexes is retired")

    # -- base-table update maintenance --------------------------------------------

    def apply_base_update(self, changes: "Mapping[CellRef, tuple[Any, Any]]") -> None:
        """Delta-maintain the base state after an in-place base-table write.

        ``changes`` maps each written cell to its ``(old, new)`` value pair;
        the table itself has already been mutated (the column views cached in
        ``_columns`` are views of the same buffers, so they read post-update
        values).  The moves are *permanent*: equality indexes move the
        touched rows and the build-time key snapshots are patched in place,
        and base violations take one :func:`_retract_recheck` step over the
        touched rows.  Finishing by advancing
        :attr:`base_version` keeps this detector (and everything sharing it
        through :func:`detector_for`) live instead of triggering the rebuild
        path.
        """
        if not changes:
            self.base_version = self.table.version
            return
        touched_by_attr: dict[str, set[int]] = {}
        for cell in changes:
            touched_by_attr.setdefault(cell.attribute, set()).add(cell.row)

        # 1. move every persistent equality index permanently; the build-time
        # key snapshot list is shared with forks, so patch it in place (no
        # repair walk is live across a base update — walks are transient)
        for eq_attrs, index in self._indexes.items():
            rows = _rows_under(eq_attrs, touched_by_attr)
            if not rows:
                continue
            live_key = _key_reader([(self._column(attribute), None)
                                    for attribute in eq_attrs])
            moves = _move_keys(index, rows, index.build_key_of, live_key)
            for row_id, (_, new_key) in moves.items():
                index._build_keys[row_id] = new_key

        # 2. retract + re-check base violations per constraint against the
        # moved index (a list not built yet is built from it on first read)
        row_of = lazy_row_reader(self.table)
        for state in self._states.values():
            plan = state.plan
            touched = _rows_under(plan.mentioned, touched_by_attr)
            if state.built is None or not touched:
                continue
            key_of = groups = class_of = None
            if plan.kind == "eq":
                key_of = state.index.build_key_of  # patched: the post-update key
                groups = state.index._groups
            if plan.single_ne_attr is not None:
                class_of = _class_reader(self._column(plan.single_ne_attr), None)
            state.built = _retract_recheck(plan, state.built, touched, self.table,
                                           row_of, key_of, groups, class_of)
        self.base_version = self.table.version

    # -- public queries ----------------------------------------------------------

    def base_violations(self, constraints: Sequence[DenialConstraint]) -> ViolationSet:
        """Violations of the unperturbed base snapshot (cached per constraint)."""
        result = ViolationSet()
        for constraint in constraints:
            for violation in self._state(constraint).base_violations:
                result.add(violation)
        return result

    def violations_for_delta(self, delta: Mapping[CellRef, Any],
                             constraints: Sequence[DenialConstraint]) -> ViolationSet:
        """Violations of the base perturbed by ``delta`` (convenience wrapper)."""
        return self.violations_for_view(self.table.perturbed(delta), constraints)

    def violations_for_view(self, view: PerturbationView,
                            constraints: Sequence[DenialConstraint]) -> ViolationSet:
        """Violations of ``view`` — retract + re-check touched rows only.

        Produces exactly the multiset :func:`find_all_violations` would on a
        materialised copy of the view.  Falls back to the full rescan when the
        view is not rooted on this detector's base snapshot.  An equality
        shape's key moves are applied to the shared index for the re-check
        and reverted after it.
        """
        if view.base is not self.table or self.base_version != self.table.version:
            return find_all_violations(view, constraints)
        # the delta grouped per column — the overlay's own cached structure,
        # no per-cell objects are built
        delta_columns = view.delta_by_column()
        row_of = lazy_row_reader(view)

        def source(attribute: str):
            return self._column(attribute), delta_columns.get(attribute)

        result = ViolationSet()
        for constraint in constraints:
            state = self._state(constraint)
            plan = state.plan
            violations = state.base_violations
            touched = _rows_under(plan.mentioned, delta_columns)
            if touched and plan.kind != "eq":
                violations = _retract_recheck(plan, violations, touched, view, row_of)
            elif touched:
                index = state.index
                key_of = _key_reader([source(attribute) for attribute in plan.eq_attrs])
                class_of = None
                if plan.single_ne_attr is not None:
                    class_of = _class_reader(*source(plan.single_ne_attr))
                # rows whose key may have moved: only those with an
                # overridden eq cell; base keys are the index's build keys
                moves = _move_keys(index, _rows_under(plan.eq_attrs, delta_columns),
                                   index.build_key_of, key_of)
                try:
                    violations = _retract_recheck(plan, violations, touched, view, row_of,
                                                  key_of, index._groups, class_of)
                finally:
                    if moves:
                        index.revert_delta(moves)
            for violation in violations:
                result.add(violation)
        return result


# -- second-order incrementality: view→view deltas along one repair walk ----------


class _WalkIndex:
    """A forked equality index kept synchronised with one repair walk's view."""

    __slots__ = ("index", "keys", "log_pos")

    def __init__(self, index: MultiColumnIndex, keys: dict[int, tuple | None],
                 log_pos: int):
        self.index = index
        #: current view key per row, for rows whose key may differ from the
        #: base build-time key (absent rows fall back to ``build_key_of``)
        self.keys = keys
        self.log_pos = log_pos

    def key_of(self, row_id: int) -> tuple | None:
        """The row's current view key."""
        keys = self.keys
        return keys[row_id] if row_id in keys else self.index.build_key_of(row_id)


def _distinct(pieces: list[np.ndarray]) -> np.ndarray:
    """The distinct row ids of the ``pieces`` (each of distinct rows)."""
    if len(pieces) < 2:
        return pieces[0] if pieces else _NO_ROWS
    return np.bincount(np.concatenate(pieces)).nonzero()[0]


def _ensure_slot(sizes: np.ndarray, slot: int) -> np.ndarray:
    """``sizes`` grown (doubling, zero-filled) until ``slot`` indexes it."""
    if slot < len(sizes):
        return sizes
    grown = np.zeros(max(2 * len(sizes), slot + 1), dtype=sizes.dtype)
    grown[:len(sizes)] = sizes
    return grown


#: a pair key is ``first << _PAIR_SHIFT | second``, or 0 when ``first`` is 0
#: (slots and codes fit in 31 bits)
_PAIR_SHIFT = 32


def _pair_keys(firsts: np.ndarray, seconds: np.ndarray) -> np.ndarray:
    return ((firsts << _PAIR_SHIFT) | seconds) * (firsts != 0)


class _PairSlots:
    """Dense slots ``1, 2, ...`` for ``(first, second)`` pairs of codes or slots.

    Built from pair arrays in one ``np.unique`` pass (slots in key order);
    later pairs are looked up, and new ones numbered on, through one dict
    of ``int64`` pair keys (:func:`_pair_keys`).
    """

    __slots__ = ("slot_of",)

    @classmethod
    def build(cls, firsts: np.ndarray, seconds: np.ndarray) -> "tuple[_PairSlots, np.ndarray]":
        """A table over the pairs and the slot of every pair."""
        table = cls.__new__(cls)
        distinct, inverse = np.unique(_pair_keys(firsts, seconds), return_inverse=True)
        table.slot_of = dict(zip(distinct.tolist(), range(1, len(distinct) + 1)))
        return table, inverse + 1

    def insert(self, firsts: list[int], seconds: list[int]) -> np.ndarray:
        """The slot of each pair, numbering the pairs not seen yet."""
        slot_of = self.slot_of
        keys = [first << _PAIR_SHIFT | second if first else 0
                for first, second in zip(firsts, seconds)]
        slots = [slot_of.get(key, 0) for key in keys]
        if 0 in slots:
            for i, slot in enumerate(slots):
                if not slot:
                    slots[i] = slot_of.setdefault(keys[i], len(slot_of) + 1)
        return np.array(slots, dtype=np.int64)

    def fork(self) -> "_PairSlots":
        clone = _PairSlots.__new__(_PairSlots)
        clone.slot_of = dict(self.slot_of)
        return clone


class _FDPartition:
    """One FD-shape constraint's rows, partitioned in code space on one walk.

    A pair of rows violates ``eq-join + one same-attribute !=`` exactly when
    the rows share a non-null equality key and carry different null-aware
    classes of the ``!=`` attribute.  So rows are partitioned twice: into
    *groups* by key and, inside a group, into *classes* by ``!=`` code
    (code 0, NULL, is the null class).  A one-column key's group is its
    code; each further key column pairs the group so far with its code
    through a :class:`_PairSlots` level.  A class is the slot of the pair
    ``(group, != code)``.  Group 0 holds the rows with a null key component
    as one class, so it never violates.

    ``row_group`` / ``row_class`` hold every row's slots and
    ``group_size`` / ``class_size`` every slot's size.  Then a row takes
    part in ``2·(group size − class size)`` ordered violations
    (``degrees``), it violates iff that is positive
    (:meth:`violating_rows`), and ``total`` (half the degrees' sum, i.e.
    ``Σ group size² − Σ class size²``) moves in O(1) with the slot sizes.
    A batch of written rows moves by a few array operations, one row by
    scalar slot reads and writes (:meth:`move`).  ``degrees`` is replaced,
    never written in place.
    """

    __slots__ = ("row_group", "row_class", "group_size", "class_size",
                 "levels", "classes", "degrees", "total", "_rows")

    def __init__(self, key_codes: Sequence[np.ndarray], codes: np.ndarray):
        """Partition every row by its key columns' and ``!=`` column's codes."""
        self.levels = []
        groups = key_codes[0].astype(np.int64)  # pair keys shift slots by 32 bits
        for key in key_codes[1:]:
            level, groups = _PairSlots.build(groups, key)
            self.levels.append(level)
        if self.levels:
            groups *= np.logical_and.reduce([key > 0 for key in key_codes])
        self.row_group = groups
        self.classes, self.row_class = _PairSlots.build(groups, codes)
        self.group_size = np.bincount(self.row_group)
        self.class_size = np.bincount(self.row_class)
        self._count()
        self.total = int(self.degrees.sum()) // 2

    def groups(self, key_codes: Sequence[np.ndarray]) -> np.ndarray:
        """The group of each row given its per-column key codes (0 on a null
        component); keys new to a level get new slots."""
        groups = key_codes[0].astype(np.int64)
        if self.levels:
            for level, codes in zip(self.levels, key_codes[1:]):
                groups = level.insert(groups.tolist(), codes.tolist())
            groups *= np.logical_and.reduce([codes > 0 for codes in key_codes])
        return groups

    def group_of(self, key: Sequence[int]) -> int:
        """The group of one key given by codes, 0 when a component is null
        or no row holds the key."""
        if min(key) <= 0:
            return 0
        group = key[0]
        for level, code in zip(self.levels, key[1:]):
            group = level.slot_of.get(group << _PAIR_SHIFT | code, 0)
        return group if group < len(self.group_size) else 0

    def move(self, rows: np.ndarray, codes: np.ndarray,
             key_columns: Sequence[np.ndarray] | None) -> None:
        """Re-place ``rows`` (distinct) after writes.

        ``codes`` is the ``!=`` column's current code array and
        ``key_columns`` the key columns' (``None`` when no key column was
        written: the rows keep their groups).  Slot sizes move by one
        ``np.subtract.at`` / ``np.add.at`` over the old and new slots; one
        row takes :meth:`_move_row` instead.
        """
        if len(rows) == 1:
            row = rows.item(0)
            self._move_row(row, codes.item(row), None if key_columns is None
                           else [column.item(row) for column in key_columns])
            return
        row_group, row_class = self.row_group, self.row_class
        if key_columns is None:
            groups = row_group[rows]
            group_list = groups.tolist()
        else:
            groups = self.groups([column[rows] for column in key_columns])
            group_list = groups.tolist()
            self.group_size = _ensure_slot(self.group_size, max(group_list))
            np.subtract.at(self.group_size, row_group[rows], 1)
            np.add.at(self.group_size, groups, 1)
            row_group[rows] = groups
        klass = self.classes.insert(group_list, codes[rows].tolist())
        self.class_size = _ensure_slot(self.class_size, len(self.classes.slot_of))
        np.subtract.at(self.class_size, row_class[rows], 1)
        np.add.at(self.class_size, klass, 1)
        row_class[rows] = klass
        self._count()
        self.total = int(self.degrees.sum()) // 2

    def _move_row(self, row: int, code: int, key: list[int] | None) -> None:
        """Re-place one row: scalar slot reads and writes, one dict operation
        for its class slot, ``total`` moved by the sizes it left and joined."""
        row_group, row_class = self.row_group, self.row_class
        group_size, class_size = self.group_size, self.class_size
        old_group = row_group.item(row)
        old_class = row_class.item(row)
        self.total -= 2 * (group_size.item(old_group) - class_size.item(old_class))
        if key is None:
            group = old_group
        else:
            group = key[0]
            for level, part in zip(self.levels, key[1:]):
                slot_of = level.slot_of
                group = slot_of.setdefault(group << _PAIR_SHIFT | part if group else 0,
                                           len(slot_of) + 1)
            if self.levels and not all(key):
                group = 0
            if group != old_group:
                if group >= len(group_size):
                    group_size = self.group_size = _ensure_slot(group_size, group)
                group_size[old_group] -= 1
                group_size[group] += 1
                row_group[row] = group
        slot_of = self.classes.slot_of
        klass = slot_of.setdefault(group << _PAIR_SHIFT | code if group else 0,
                                   len(slot_of) + 1)
        if klass != old_class:
            if klass >= len(class_size):
                class_size = self.class_size = _ensure_slot(class_size, klass)
            class_size[old_class] -= 1
            class_size[klass] += 1
            row_class[row] = klass
        self.total += 2 * (group_size.item(group) - class_size.item(klass))
        self._count()

    def _count(self) -> None:
        """Every row's ordered violation count."""
        degrees = self.group_size[self.row_group]
        degrees -= self.class_size[self.row_class]
        degrees *= 2
        self.degrees = degrees
        self._rows: list[int] | None = None

    def violating_rows(self) -> list[int]:
        """Ascending rows that take part in a violation (memoised)."""
        if self._rows is None:
            self._rows = self.degrees.nonzero()[0].tolist()
        return self._rows

    def violations(self, constraint: DenialConstraint) -> list[Violation]:
        """The violating ordered pairs, group by group (by smallest row)."""
        rows = self.violating_rows()
        members: dict[int, list[int]] = {}
        for row, group in zip(rows, self.row_group[rows].tolist()):
            members.setdefault(group, []).append(row)
        out = []
        for rows in members.values():
            classes = self.row_class[rows].tolist()
            for row_i, class_i in zip(rows, classes):
                for row_j, class_j in zip(rows, classes):
                    if class_i != class_j:
                        out.append(Violation(constraint, (row_i, row_j)))
        return out

    def fork(self) -> "_FDPartition":
        clone = _FDPartition.__new__(_FDPartition)
        clone.row_group = self.row_group.copy()
        clone.row_class = self.row_class.copy()
        clone.group_size = self.group_size.copy()
        clone.class_size = self.class_size.copy()
        clone.levels = [level.fork() for level in self.levels]
        clone.classes = self.classes.fork()
        clone.degrees, clone.total, clone._rows = self.degrees, self.total, self._rows
        return clone


class _WalkLayout:
    """What the greedy readers of a walk (and of its forks) look up and
    never write: the plans, the constraints mentioning each attribute, and
    the degree grid's columns."""

    __slots__ = ("plans", "mentioning", "attrs", "grid_columns")

    def __init__(self, detector: IncrementalViolationDetector,
                 constraints: list[DenialConstraint]):
        plans = self.plans = {constraint: detector._state(constraint).plan
                              for constraint in constraints}
        #: attribute -> the constraints mentioning it (in constraint order)
        self.mentioning: dict[str, list[DenialConstraint]] = {}
        for constraint in constraints:
            for attribute in plans[constraint].mentioned:
                self.mentioning.setdefault(attribute, []).append(constraint)
        #: the degree grid's columns: every mentioned attribute, sorted
        self.attrs = tuple(sorted(self.mentioning))
        #: constraint -> the grid columns a partition's degrees go to (a
        #: constraint listed twice counts twice, as in the rescan)
        self.grid_columns: dict[DenialConstraint, list[int]] = {}
        for constraint in constraints:
            plan = plans[constraint]
            columns = self.grid_columns.setdefault(constraint, [])
            if plan.single_ne_attr is not None:
                columns.extend(self.attrs.index(attribute)
                               for attribute in plan.eq_attrs + (plan.single_ne_attr,))


class _WalkConstraint:
    """Per-constraint violation state at one point of the walk's write log.

    Two storage modes:

    * **partition** (``part`` set) — an FD-shape constraint whose columns
      the dictionary encoding codes keeps an :class:`_FDPartition`;
      ``violations`` doubles as the materialised list cache (``None`` when
      stale);
    * **list** (``part is None``) — ``violations`` holds the explicit
      :class:`Violation` list, moved by :func:`_retract_recheck`: single-tuple
      constraints, no-equality fallbacks, equality constraints with a
      general residual and FD shapes over a column holding a value the
      encoding cannot code.
    """

    __slots__ = ("violations", "part", "log_pos")

    def __init__(self, violations: list[Violation] | None, log_pos: int,
                 part: _FDPartition | None = None):
        self.violations = violations
        self.part = part
        self.log_pos = log_pos


class RepairWalk:
    """Second-order incremental violation maintenance over one repair walk.

    The base→view path (:meth:`IncrementalViolationDetector.violations_for_view`)
    re-derives each detection from the base snapshot: per pass it recomputes
    the full delta's index moves, applies them, re-checks *every* touched row
    and reverts.  A repair loop calls detection once per constraint per pass
    on a view whose delta barely changes between passes, so almost all of that
    work repeats.

    ``RepairWalk`` instead maintains violations across the walk's own passes
    (view→view deltas read off the view's
    :attr:`~repro.engine.view.OverlayStore.change_log`):

    * FD-shape constraints keep an :class:`_FDPartition` over the view's
      current column codes (the view store's code arrays, which every write
      batch keeps current); a write batch moves each partition over the
      written column once, and a one-cell write (every greedy step) by
      scalar slot updates;
    * once :meth:`cell_degrees_arrays` is first read, the walk keeps a
      ``rows × attributes`` grid of the partitions' summed cell degrees: a
      partition that moves adds the difference of its degree vector into
      the grid columns of its attributes, so a step's readout is the
      grid's maximum, not a rebuild;
    * :meth:`count_if_many_at` starts every candidate from the step's
      violation total (computed once per log position) and adds only the
      candidate-dependent term of each constraint mentioning the attribute;
    * other constraints keep violation lists that a pass retracts and
      re-checks over the rows written since that constraint's last sync,
      against equality indexes *forked* once per walk and kept applied;
    * list-mode row dicts are cached across passes, and the *pristine*
      (unwritten) rows are shared with any walk forked off this one — the
      two instances of a with/without oracle pair differ in a single cell,
      so one row cache serves both.

    :meth:`fork_onto` is the paired-oracle entry point: it clones the primed
    state onto a sibling view that differs in a known set of cells and
    re-derives only those cells' rows, which is how the second instance of a
    pair starts mid-walk instead of from the base snapshot.

    The walk produces exactly the multiset of violations the reference
    full-rescan path produces at every point (property-tested); it never
    mutates the detector's shared per-base state.
    """

    __slots__ = ("view", "detector", "constraints", "_log",
                 "_cstates", "_windexes", "_dirty_rows", "_local_rows",
                 "_pristine_rows", "_row_log_pos",
                 "_runs", "_run_ends", "_parsed",
                 "_layout", "_grid", "_total", "_total_pos")

    def __init__(self, view: PerturbationView, constraints: Iterable[DenialConstraint],
                 detector: IncrementalViolationDetector):
        self.view = view
        self.detector = detector
        self.constraints = list(constraints)
        self._log = view.change_log
        self._cstates: dict[DenialConstraint, _WalkConstraint] = {}
        self._windexes: dict[tuple[str, ...], _WalkIndex] = {}
        #: rows written during this walk (or differing from the walk this one
        #: was forked off) — their row dicts live in the walk-local cache
        self._dirty_rows: set[int] = set()
        self._local_rows: dict[int, Mapping[str, Any]] = {}
        #: rows untouched by any walk of the pair — shared across forks
        self._pristine_rows: dict[int, Mapping[str, Any]] = {}
        self._row_log_pos = len(self._log)
        #: the log read once into runs of writes to one attribute:
        #: ``(attribute, distinct rows)`` ending at the log
        #: positions ``_run_ends``, up to ``_parsed``; every position a
        #: consumer keeps is a run boundary
        self._runs: list[tuple[str, np.ndarray]] = []
        self._run_ends: list[int] = []
        self._parsed = len(self._log)
        #: built by the first greedy reader (:meth:`_grid_layout`)
        self._layout: _WalkLayout | None = None
        #: ``rows × attrs`` summed partition degrees (None until first read)
        self._grid: np.ndarray | None = None
        #: the violation total at log position ``_total_pos``
        self._total = 0
        self._total_pos = -1

    # -- row cache (list mode) ------------------------------------------------------

    def _row_of(self, row_id: int) -> Mapping[str, Any]:
        if self._row_log_pos != len(self._log):
            self._consume_writes()
        if row_id in self._dirty_rows:
            row = self._local_rows.get(row_id)
            if row is None:
                row = self._local_rows[row_id] = self.view.row(row_id)
            return row
        row = self._pristine_rows.get(row_id)
        if row is None:
            row = self._pristine_rows[row_id] = self.view.row(row_id)
        return row

    def _consume_writes(self) -> None:
        """Mark rows written since the last call dirty and drop their cached dicts."""
        runs = self._runs_since(self._row_log_pos)
        self._row_log_pos = self._parsed
        for row in _distinct([rows for _attribute, rows in runs]).tolist():
            self._dirty_rows.add(row)
            self._local_rows.pop(row, None)

    # -- column codes (partition mode) ----------------------------------------------

    def _codes(self, attribute: str) -> np.ndarray | None:
        """The view's current codes of one column (``None``: a value the
        encoding cannot code).

        This is the view store's own code array
        (:meth:`~repro.engine.view.OverlayStore.codes`): each write batch
        scatters its codes into it, so it is current whatever the log
        position, and a forked walk's view shares it copy-on-write.
        """
        return self.view.store.codes(attribute)

    def _parse(self) -> int:
        """Cut the log's new entries into runs and return the log position
        read up to."""
        log = self._log
        at = self._parsed
        if at != len(log):
            for attribute, run in groupby(log[at:], key=itemgetter(1)):
                rows = [row for row, _attribute in run]
                at += len(rows)
                if len(set(rows)) != len(rows):  # a batch that wrote a row twice
                    rows = sorted(set(rows))
                self._runs.append((attribute, np.array(rows, dtype=np.int64)))
                self._run_ends.append(at)
            self._parsed = at
        return at

    def _runs_since(self, position: int) -> list[tuple[str, np.ndarray]]:
        """``(attribute, rows)`` per run of writes since log ``position``.

        Each log entry is read once (:meth:`_parse`); every consumer (column
        codes, constraint states, list-mode indexes and row cache) then takes
        the runs from its own position on.
        """
        self._parse()
        return self._runs[bisect_right(self._run_ends, position):]

    def _partition(self, plan: _ConstraintPlan) -> _FDPartition | None:
        """The FD-shape plan's partition of the current view, or ``None``
        when a column holds a value the encoding cannot code."""
        encoding = self.detector.table.store.encoding()
        columns = [self._codes(attribute)
                   for attribute in plan.eq_attrs + (plan.single_ne_attr,)]
        if any(codes is None for codes in columns):
            encoding.fallback_checks += 1
            return None
        encoding.vectorized_checks += 1
        return _FDPartition(columns[:-1], columns[-1])

    # -- index maintenance (list mode) ----------------------------------------------

    def _source(self, attribute: str):
        """``(base column, view overrides)`` of one attribute."""
        return (self.detector._column(attribute),
                self.view.delta_by_column().get(attribute))

    def _view_key_reader(self, eq_attrs: tuple[str, ...]):
        """A ``key_of(row)`` over the view's current equality keys."""
        return _key_reader([self._source(attribute) for attribute in eq_attrs])

    def _view_class_reader(self, plan: _ConstraintPlan):
        """A ``class_of(row)`` over the view for the plan's ``!=`` attribute."""
        return _class_reader(*self._source(plan.single_ne_attr))

    def _windex(self, eq_attrs: tuple[str, ...]) -> _WalkIndex:
        """The walk's index over ``eq_attrs``, synced to the view's writes.

        Built on first use as a fork of the detector's base index, with the
        rows whose equality cells the view overrides moved to their view
        keys (a base key that cannot be hashed has already raised in the
        base index's build, as the rescan does).
        """
        walk_index = self._windexes.get(eq_attrs)
        if walk_index is None:
            walk_index = _WalkIndex(self.detector._index_for(eq_attrs).fork(), {},
                                    self._parse())
            rows = _rows_under(eq_attrs, self.view.delta_by_column())
            if rows:
                self._move_index_rows(walk_index, eq_attrs, sorted(rows))
            self._windexes[eq_attrs] = walk_index
        else:
            self._sync_windex(walk_index, eq_attrs)
        return walk_index

    def _sync_windex(self, walk_index: _WalkIndex, eq_attrs: tuple[str, ...]) -> None:
        log = self._log
        if walk_index.log_pos == len(log):
            return
        rows = _distinct([rows for attribute, rows in self._runs_since(walk_index.log_pos)
                          if attribute in eq_attrs])
        walk_index.log_pos = self._parsed
        if rows.size:
            self._move_index_rows(walk_index, eq_attrs, rows.tolist())

    def _move_index_rows(self, walk_index: _WalkIndex, eq_attrs: tuple[str, ...],
                         rows: Iterable[int]) -> None:
        moves = _move_keys(walk_index.index, rows, walk_index.key_of,
                           self._view_key_reader(eq_attrs))
        for row_id, (_, new_key) in moves.items():
            walk_index.keys[row_id] = new_key

    # -- violation maintenance -------------------------------------------------------

    def _synced_state(self, constraint: DenialConstraint) -> _WalkConstraint:
        state = self._cstates.get(constraint)
        if state is None:
            return self._prime_constraint(constraint)
        if state.log_pos != len(self._log):
            self._sync_constraint(constraint, state)
            state = self._cstates[constraint]  # a sync may switch it to list mode
        return state

    def violations_for(self, constraint: DenialConstraint) -> list[Violation]:
        """Current violations of one constraint (synced to the view's writes)."""
        state = self._synced_state(constraint)
        if state.violations is None:
            state.violations = state.part.violations(constraint)
        return state.violations

    def violating_rows_for(self, constraint: DenialConstraint) -> list[int]:
        """Sorted rows participating in ≥1 violation of ``constraint``.

        What the rule-repair loop actually consumes; a partition reads them
        off its slot arrays (every row of a group with ≥ 2 classes), so no
        :class:`Violation` objects are materialised.
        """
        state = self._synced_state(constraint)
        if state.part is not None:
            return state.part.violating_rows()
        return sorted({row for violation in state.violations for row in violation.rows})

    def all_violations(self) -> ViolationSet:
        """Current violations of every constraint of the walk."""
        result = ViolationSet()
        for constraint in self.constraints:
            for violation in self.violations_for(constraint):
                result.add(violation)
        return result

    def prime(self) -> "RepairWalk":
        """Force state construction for every constraint (pre-fork hook)."""
        tracer = otrace.current()
        with (nullcontext() if tracer is None else
              tracer.span("walk_prime", constraints=len(self.constraints))):
            for constraint in self.constraints:
                self._synced_state(constraint)
        return self

    def _prime_constraint(self, constraint: DenialConstraint) -> _WalkConstraint:
        """First detection: base→view retract + re-check, walk-local.

        FD shapes build their partition from the view's codes directly.  For
        list mode the derivation is exactly one :func:`_retract_recheck` step
        seeded with the base snapshot's violations and the full delta's
        touched rows — the same step later passes run against the previous
        pass's state.  The walk's index is kept for later passes and the
        pair fork instead of being applied and reverted per detection
        (contrast :meth:`IncrementalViolationDetector.violations_for_view`).
        """
        plan = self.detector._state(constraint).plan
        part = self._partition(plan) if plan.single_ne_attr is not None else None
        if part is not None:
            state = _WalkConstraint(None, self._parse(), part)
        else:
            state = self._list_state(plan)
        self._cstates[constraint] = state
        return state

    def _list_state(self, plan: _ConstraintPlan) -> _WalkConstraint:
        """List-mode state of the current view, from the base violations."""
        state = _WalkConstraint(
            list(self.detector._state(plan.constraint).base_violations), self._parse())
        touched = _rows_under(plan.mentioned, self.view.delta_by_column())
        if touched:
            self._resync(plan, np.array(sorted(touched), dtype=np.int64), state)
        return state

    def _sync_constraint(self, constraint: DenialConstraint, state: _WalkConstraint) -> None:
        plan = self.detector._state(constraint).plan
        runs = self._runs_since(state.log_pos)
        state.log_pos = self._parsed
        changed = [rows for attribute, rows in runs if attribute in plan.mentioned]
        if changed:
            self._resync(plan, _distinct(changed), state,
                         any(attribute in plan.eq_attrs for attribute, _rows in runs))

    def _resync(self, plan: _ConstraintPlan, changed: np.ndarray,
                state: _WalkConstraint, keyed: bool = True) -> None:
        """Re-derive ``state``'s violations after the ``changed`` rows
        (distinct) moved (view→view).

        ``keyed`` is false when no equality column was written: a partition's
        rows then keep their groups.  A partition meeting a value the
        encoding cannot code hands the constraint over to list mode.  A
        partition's move adds the difference of its degrees into the grid.
        """
        part = state.part
        if part is not None:
            classes = self._codes(plan.single_ne_attr)
            columns = [self._codes(attribute) for attribute in plan.eq_attrs] \
                if keyed else []
            if classes is None or any(codes is None for codes in columns):
                self.detector.table.store.encoding().fallback_checks += 1
                self._grid_add(plan.constraint, -part.degrees)
                self._cstates[plan.constraint] = self._list_state(plan)
                return
            before = part.degrees
            part.move(changed, classes, columns if keyed else None)
            if self._grid is not None:
                self._grid_add(plan.constraint, part.degrees - before)
            state.violations = None  # the materialisation cache
            return
        key_of = groups = class_of = None
        if plan.kind == "eq":
            walk_index = self._windex(plan.eq_attrs)
            key_of, groups = walk_index.key_of, walk_index.index._groups
            if plan.single_ne_attr is not None:
                class_of = self._view_class_reader(plan)
        state.violations = _retract_recheck(plan, state.violations, set(changed.tolist()),
                                            self.view, self._row_of, key_of, groups,
                                            class_of)

    # -- one-cell trials (greedy candidate scoring) -----------------------------------

    def _count_row_if(self, plan: _ConstraintPlan, row_id: int, attribute: str,
                      value: Any) -> int:
        """Violations of one list-mode eq-kind constraint that ``row_id`` joins
        if ``(row_id, attribute)`` were set to ``value`` (partner scan)."""
        walk_index = self._windex(plan.eq_attrs)
        eq_attrs = plan.eq_attrs
        value_of = self.view.value
        if attribute in eq_attrs:
            parts: list | None = []
            for eq_attr in eq_attrs:
                part = value if eq_attr == attribute else value_of(row_id, eq_attr)
                if is_null(part):
                    parts = None
                    break
                parts.append(part)
            key = tuple(parts) if parts is not None else None
        else:
            key = walk_index.key_of(row_id)
        if key is None:
            return 0
        partners = walk_index.index._groups.get(key)
        if not partners:
            return 0
        count = 0
        check = plan.residual_check
        row_i = dict(self._row_of(row_id))
        row_i[attribute] = value
        for row_j in partners:
            if row_j == row_id:
                continue
            row_data_j = self._row_of(row_j)
            if check(row_i, row_data_j):
                count += 1
            if check(row_data_j, row_i):
                count += 1
        return count

    def _grid_layout(self) -> _WalkLayout:
        layout = self._layout
        if layout is None:
            layout = self._layout = _WalkLayout(self.detector, self.constraints)
        return layout

    def _sync_all(self) -> int:
        """Sync every constraint and return the current violation total
        (computed once per log position)."""
        log_len = len(self._log)
        if self._total_pos != log_len:
            if self._total_pos >= 0:
                # every state was synced at _total_pos: one the writes since
                # do not mention only advances its position
                written = {attribute for attribute, _rows
                           in self._runs_since(self._total_pos)}
                plans = self._grid_layout().plans
                for constraint, state in self._cstates.items():
                    if written.isdisjoint(plans[constraint].mentioned):
                        state.log_pos = log_len
            total = 0
            for constraint in self.constraints:
                state = self._synced_state(constraint)
                total += state.part.total if state.part is not None \
                    else len(state.violations)
            self._total, self._total_pos = total, log_len
        return self._total

    def count_if_many_at(self, row_id: int, attribute: str,
                         values: Sequence[Any]) -> list[int]:
        """Total violation count if ``(row_id, attribute)`` were set to each value.

        Element ``i`` equals ``len(find_all_violations(trial))`` for the
        materialised trial table with the cell set to ``values[i]``; the
        walk's state is untouched.  Greedy candidate scoring calls this once
        per top-degree cell, fed straight from :meth:`cell_degrees_arrays`
        coordinates.  One scoring pass: every candidate starts from the
        step's violation total (synced and summed once per log position),
        and only the constraints mentioning ``attribute`` add their
        candidate-dependent term — a partition's by a few slot lookups per
        candidate (:meth:`_count_part_if_many`).  No :class:`CellRef` is
        built unless a ``pairs``-kind constraint forces a per-candidate
        trial rescan.
        """
        totals = [self._sync_all()] * len(values)
        layout = self._grid_layout()
        encoding = self.detector.table.store.encoding()
        codes = None  # the candidates' codes: 0 for a null, -1 for an unseen value
        for constraint in layout.mentioning.get(attribute, ()):
            plan = layout.plans[constraint]
            state = self._cstates[constraint]
            if plan.kind == "pairs":
                encoding.fallback_checks += len(values)
                cell = CellRef(row_id, attribute)
                current = len(state.violations)
                for i, value in enumerate(values):
                    trial = self.view.perturbed({cell: value}, trusted=True)
                    totals[i] += len(find_violations(trial, constraint)) - current
                continue
            if state.part is not None:
                encoding.vectorized_checks += len(values)
                if codes is None:
                    code_of = encoding.dictionary(attribute)._code_of.get
                    codes = [code_of(value, -1) for value in values]
                    if -1 in codes:
                        codes = [0 if code < 0 and is_null(value) else code
                                 for code, value in zip(codes, values)]
                self._count_part_if_many(plan, state.part, row_id, attribute,
                                         codes, totals)
                continue
            # the row drops its current violations and joins the candidate's
            leave = -sum(1 for v in state.violations if row_id in v.rows)
            if plan.kind == "single":
                row = dict(self._row_of(row_id))
                check = plan.residual_check
                for i, value in enumerate(values):
                    row[attribute] = value
                    totals[i] += leave + (1 if check(row, row) else 0)
                continue
            # general residual: partner scans per candidate
            encoding.fallback_checks += len(values)
            for i, value in enumerate(values):
                totals[i] += leave + self._count_row_if(plan, row_id, attribute, value)
        return totals

    def _count_part_if_many(self, plan: _ConstraintPlan, part: _FDPartition,
                            row_id: int, attribute: str, codes: list[int],
                            totals: list[int]) -> None:
        """Fold one partition's candidate-dependent terms into ``totals``.

        The row leaves its group and class, dropping its
        ``2·(group size − class size)`` violations, and joins the ones the
        candidate (by its code; -1 for a value no row holds) gives it,
        adding ``2·(group size − class size)`` there, both without the row
        itself.  A candidate no class of the group holds joins an empty one.
        """
        group_size, class_size = part.group_size, part.class_size
        slot = part.classes.slot_of.get
        size_of = class_size.item
        own_group = part.row_group.item(row_id)
        own_class = part.row_class.item(row_id)
        own_size = group_size.item(own_group)
        leave = -2 * (own_size - size_of(own_class))
        if attribute not in plan.eq_attrs:
            # the row keeps its group; the candidate is its new != class
            if not own_group:
                return  # group 0 is one class: its rows never violate
            shifted = own_group << _PAIR_SHIFT
            joined = leave + 2 * (own_size - 1)
            for i, code in enumerate(codes):
                klass = slot(shifted | code, 0) if code >= 0 else 0
                if klass:
                    totals[i] += joined - 2 * (size_of(klass) - (klass == own_class))
                else:
                    totals[i] += joined
            return
        # the candidate changes the row's key
        key = [self._codes(eq_attr).item(row_id) for eq_attr in plan.eq_attrs]
        position = plan.eq_attrs.index(attribute)
        class_code = None if attribute == plan.single_ne_attr \
            else self._codes(plan.single_ne_attr).item(row_id)
        n_groups = len(group_size)
        for i, code in enumerate(codes):
            if code <= 0:  # a null or a value no row holds: no group
                totals[i] += leave
                continue
            if part.levels:
                key[position] = code
                group = part.group_of(key)
            else:  # a one-column key's group is its code
                group = code if code < n_groups else 0
            if not group:
                totals[i] += leave
                continue
            klass = slot(group << _PAIR_SHIFT | (code if class_code is None else class_code), 0)
            totals[i] += leave + 2 * (group_size.item(group) - (group == own_group)
                                      - size_of(klass) + (klass == own_class))

    def _grid_add(self, constraint: DenialConstraint, degrees: np.ndarray) -> None:
        """Add a partition's per-row ``degrees`` (or their change) into the
        grid columns of its attributes, once the grid exists."""
        grid = self._grid
        if grid is not None:
            for column in self._layout.grid_columns[constraint]:
                grid[:, column] += degrees

    def cell_degrees_arrays(self):
        """The violation total and the cells at the maximum degree, as
        parallel arrays, no objects.

        Returns ``(total, rows, attr_codes, counts, attrs)``: ``rows`` /
        ``attr_codes`` / ``counts`` are parallel ``int64`` arrays of every
        cell whose degree (``count_for_cell`` on :meth:`all_violations`) is
        the maximum, sorted by ``(row, attr_code)``; ``attrs`` is the sorted
        attribute tuple the codes index into, so ordering by
        ``(row, attr_code)`` equals ordering by ``(row, attribute)``.  All
        arrays are empty when nothing violates (property-tested against the
        rescan).

        The degrees live in a ``rows × attrs`` grid built on the first read
        (each partition's degree vector added once per attribute it
        mentions) and kept afterwards: every partition move adds the
        difference of its degree vector (:meth:`_resync`), so only the
        written column's partitions touch it.  List-mode constraints add
        their violations' cells to a copy at readout.  The readout is the
        grid's maximum and the cells equal to it; the single ranked winner
        is the only :class:`CellRef` a consumer ever needs to build.
        """
        total = self._sync_all()
        attrs = self._grid_layout().attrs
        grid = self._grid
        if grid is None:
            grid = self._grid = np.zeros((self.view.n_rows, len(attrs)), dtype=np.int64)
            for constraint, state in self._cstates.items():
                if state.part is not None:
                    self._grid_add(constraint, state.part.degrees)
        cells = [(cell.row, cell.attribute)
                 for constraint in self.constraints
                 if self._cstates[constraint].part is None
                 for violation in self._cstates[constraint].violations
                 for cell in violation.cells()]
        if cells:
            code_of = {attribute: code for code, attribute in enumerate(attrs)}
            grid = grid.copy()
            np.add.at(grid, ([row for row, _attr in cells],
                             [code_of[attr] for _row, attr in cells]), 1)
        top = grid.max() if grid.size else 0
        if not top:
            empty = np.empty(0, dtype=np.int64)
            return total, empty, empty, empty, attrs
        rows, attr_codes = np.nonzero(grid == top)  # row-major: (row, attr) order
        return total, rows, attr_codes, np.full(len(rows), top, dtype=np.int64), attrs

    # -- pair forking -------------------------------------------------------------------

    def fork_onto(self, view: PerturbationView,
                  differing_cells: Iterable[CellRef]) -> "RepairWalk":
        """Clone the primed state onto a sibling view differing in known cells.

        ``view`` must share this walk's base table and differ from this walk's
        *current* view content only at (a subset of) ``differing_cells`` —
        the with/without pair contract, where the fork is taken right after
        :meth:`prime`.  This walk is synced to its writes first.  Only the
        differing cells' rows are retracted and re-checked; everything else
        (partitions, violation lists, forked indexes, the pristine row
        cache, and the code arrays of the columns the views hold alike)
        carries over.
        """
        for constraint in self.constraints:  # also syncs the list-mode indexes
            self._synced_state(constraint)
        self._parse()
        if self._row_log_pos != len(self._log):
            self._consume_writes()
        clone = RepairWalk(view, self.constraints, self.detector)
        clone._pristine_rows = self._pristine_rows  # shared row cache (see class doc)
        # rows this walk wrote may have stale pre-write dicts in the shared cache
        clone._dirty_rows = set(self._dirty_rows)
        log_pos = len(clone._log)
        clone._cstates = {
            constraint: _WalkConstraint(
                # the materialisation cache is never mutated in place, so the
                # clone can share it; list-mode lists are copied (retraction
                # rebuilds them, but the parent keeps reading its own)
                state.violations if state.part is not None
                else list(state.violations),
                log_pos,
                state.part.fork() if state.part is not None else None,
            )
            for constraint, state in self._cstates.items()
        }
        clone._windexes = {
            eq_attrs: _WalkIndex(walk_index.index.fork(), dict(walk_index.keys), log_pos)
            for eq_attrs, walk_index in self._windexes.items()
        }
        clone._layout = self._layout
        if self._grid is not None:  # moved by the clone's resyncs below
            clone._grid = self._grid.copy()

        my_value = self.view.value
        other_value = view.value
        changed = [cell for cell in differing_cells
                   if values_differ(my_value(cell.row, cell.attribute),
                                    other_value(cell.row, cell.attribute))]
        # the columns the two views hold alike share their code arrays, the
        # others copy this walk's, patched at the differing cells
        view.store.share_codes(self.view.store,
                               [(cell.row, cell.attribute) for cell in changed])
        if not changed:
            return clone
        clone._dirty_rows.update(cell.row for cell in changed)

        def rows_under(attributes) -> np.ndarray:
            return np.array(sorted({cell.row for cell in changed
                                    if cell.attribute in attributes}), dtype=np.int64)

        for eq_attrs, walk_index in clone._windexes.items():
            rows = rows_under(eq_attrs)
            if rows.size:
                clone._move_index_rows(walk_index, eq_attrs, rows.tolist())
        for constraint, state in list(clone._cstates.items()):
            plan = clone.detector._state(constraint).plan
            rows = rows_under(plan.mentioned)
            if rows.size:
                clone._resync(plan, rows, state,
                              any(cell.attribute in plan.eq_attrs for cell in changed))
        return clone


def repair_walk_for(view: PerturbationView,
                    constraints: Sequence[DenialConstraint]) -> RepairWalk:
    """A :class:`RepairWalk` over a repair algorithm's working view.

    The walk reads its base state from the view's base table's cached
    detector.
    """
    return RepairWalk(view, constraints, detector_for(view.base))


# -- detector registry and dispatch helpers ---------------------------------------


def detector_for(table: Table) -> IncrementalViolationDetector:
    """The (cached) detector for a base table snapshot.

    One detector is attached per table instance and rebuilt whenever the
    table's mutation version moves, so callers never see stale base state.
    """
    detector = getattr(table, "_incremental_detector", None)
    if detector is None or detector.base_version != table.version:
        detector = IncrementalViolationDetector(table)
        table._incremental_detector = detector
    return detector


def find_all_violations_auto(table: Table,
                             constraints: Sequence[DenialConstraint]) -> ViolationSet:
    """Incremental detection for views, reference full rescan for plain tables.

    This is the dispatch the repair algorithms call on their working snapshot:
    a :class:`PerturbationView` (the Shapley hot path) is evaluated by delta
    maintenance against its base, everything else takes the reference path.
    """
    if isinstance(table, PerturbationView):
        return detector_for(table.base).violations_for_view(table, list(constraints))
    return find_all_violations(table, constraints)


def find_violations_auto(table: Table, constraint: DenialConstraint) -> list[Violation]:
    """Single-constraint variant of :func:`find_all_violations_auto`."""
    if isinstance(table, PerturbationView):
        return list(detector_for(table.base).violations_for_view(table, [constraint]))
    return find_violations(table, constraint)
