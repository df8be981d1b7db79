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

:class:`IncrementalViolationDetector` holds the per-base-snapshot state (base
violations per constraint, persistent indexes, compiled residual checks);
:func:`detector_for` caches one detector per base table, invalidated by the
table's mutation :attr:`~repro.dataset.table.Table.version`.  The detector is
guaranteed to produce exactly the multiset of violations the reference
full-rescan path produces — the property-based test-suite and
``benchmarks/bench_incremental_vs_full.py`` cross-check this.
"""

from __future__ import annotations

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


# -- vectorised (dictionary-encoded) key building ----------------------------------
#
# The vectorised engine paths evaluate equality keys over int32 code arrays
# from the base table's append-only dictionaries: per view, each equality
# column is the base's encoded column plus a sparse code-space delta, the
# per-column codes are packed into one int64 per row, and the group structure
# falls out of one ``np.unique`` pass instead of a per-row Python loop.  The
# decoded group keys are plain value tuples, so vectorised-built state is
# fully interoperable with the object-path maintenance that runs on top.


def _unpack_key(packed_value: int, multipliers: Sequence[int],
                decode_tables: Sequence[list]) -> tuple:
    """Decode one packed key back into its value tuple."""
    parts: list = [None] * len(decode_tables)
    for j in range(len(decode_tables) - 1, 0, -1):
        packed_value, code = divmod(packed_value, multipliers[j])
        parts[j] = decode_tables[j][code]
    parts[0] = decode_tables[0][packed_value]
    return tuple(parts)


def _groups_from_packed(packed, valid, multipliers: Sequence[int],
                        decode_tables: Sequence[list],
                        overridden: Iterable[int]):
    """Group rows by packed key — the vectorised twin of the walk-index build.

    Returns ``(groups, keys)`` exactly as the object path would produce them:
    group keys are decoded value tuples inserted in first-appearance order,
    row lists ascend, and ``keys`` records the (possibly ``None``) key of
    every row whose equality cells the view overrides.
    """
    groups: dict[tuple, list[int]] = {}
    valid_rows = np.nonzero(valid)[0]
    if valid_rows.size:
        unique_vals, first_idx, inverse = np.unique(
            packed[valid_rows], return_index=True, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        counts = np.bincount(inverse, minlength=len(unique_vals))
        starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        sorted_rows = valid_rows[order]
        for u in np.argsort(first_idx, kind="stable"):
            key = _unpack_key(int(unique_vals[u]), multipliers, decode_tables)
            groups[key] = sorted_rows[starts[u]:starts[u] + counts[u]].tolist()
    keys: dict[int, tuple | None] = {}
    for row_id in overridden:
        keys[row_id] = (
            _unpack_key(int(packed[row_id]), multipliers, decode_tables)
            if valid[row_id] else None
        )
    return groups, keys


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
        #: packed base-key arrays per equality shape (vectorised path),
        #: keyed by the dictionary sizes they were packed under
        self._packed_contexts: dict[tuple[str, ...], tuple] = {}
        #: multi-coalition prime results parked per (view fingerprint, shape);
        #: populated by :meth:`precompute_walk_indexes`, popped (exclusively)
        #: by each view's :class:`RepairWalk`
        self._prime_cache: dict[tuple, tuple] = {}
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

    # -- vectorised key building (dictionary-encoded path) -----------------------

    def _encoded_eq_base(self, eq_attrs: tuple[str, ...]):
        """Base code arrays + decode tables for one equality shape, or ``None``."""
        store = self.table.store
        encoding = store.encoding()
        code_columns = []
        decode_tables = []
        for attribute in eq_attrs:
            codes = encoding.codes(store, attribute)
            if codes is None:
                return None
            code_columns.append(codes)
            decode_tables.append(encoding.dictionary(attribute)._values)
        return code_columns, decode_tables

    def _packed_eq_base(self, eq_attrs: tuple[str, ...], code_columns,
                        decode_tables):
        """Packed base keys + validity for one shape (cached, read-only).

        Multi-column keys pack each component code with the current
        dictionary sizes as multipliers; the cache is invalidated when a
        dictionary outgrows the sizes it was packed under (callers encode
        view deltas *before* asking, so grown codes always fit).
        """
        if len(code_columns) == 1:
            sizes: tuple[int, ...] = ()  # single column: no packing, never stale
        else:
            sizes = tuple(len(table) for table in decode_tables)
        cached = self._packed_contexts.get(eq_attrs)
        if cached is not None and cached[0] == sizes:
            return cached[1], cached[2], cached[3]
        multipliers = list(sizes) if sizes else [1]
        packed = code_columns[0].astype(np.int64)
        valid = code_columns[0] != 0
        for j in range(1, len(code_columns)):
            packed *= multipliers[j]
            packed += code_columns[j]
            valid &= code_columns[j] != 0
        self._packed_contexts[eq_attrs] = (sizes, packed, valid, multipliers)
        return packed, valid, multipliers

    def _packed_view_keys(self, view_store, eq_attrs: tuple[str, ...]):
        """One view's equality keys as a packed code array, or ``None``.

        The base's packed keys are shared; the view contributes only a
        sparse code-space scatter.  Returns ``(packed, valid, multipliers,
        decode_tables, overridden)`` — ``packed``/``valid`` are read-only
        when the view has no equality overrides (they alias the base cache).
        """
        base = self._encoded_eq_base(eq_attrs)
        if base is None:
            return None
        code_columns, decode_tables = base
        override_arrays: list[tuple] = []
        any_overridden = False
        for attribute in eq_attrs:
            encoded = view_store.encoded_delta_arrays(attribute)
            if encoded is None:
                return None
            override_arrays.append(encoded)
            if len(encoded[0]):
                any_overridden = True
        packed, valid, multipliers = self._packed_eq_base(
            eq_attrs, code_columns, decode_tables)
        overridden: list[int] = []
        if any_overridden:
            packed = packed.copy()
            valid = valid.copy()
            overridden = self._scatter_packed_arrays(
                packed, valid, override_arrays, code_columns, multipliers)
        return packed, valid, multipliers, decode_tables, overridden

    @staticmethod
    def _scatter_packed(packed, valid, overridden, override_codes,
                        code_columns, multipliers) -> None:
        """Re-pack the overridden rows from their effective per-column codes.

        The per-row reference twin of :meth:`_scatter_packed_arrays`
        (property-tested equivalent); kept for the object-path comparison.
        """
        for row_id in overridden:
            value = 0
            parts_valid = True
            for j, codes in enumerate(code_columns):
                code = override_codes[j].get(row_id)
                if code is None:
                    code = int(codes[row_id])
                if code == 0:
                    parts_valid = False
                value = code if j == 0 else value * multipliers[j] + code
            packed[row_id] = value
            valid[row_id] = parts_valid

    @staticmethod
    def _scatter_packed_arrays(packed, valid, override_arrays,
                               code_columns, multipliers) -> list[int]:
        """Vectorised :meth:`_scatter_packed` fed by encoded-delta arrays.

        ``override_arrays`` holds one ``(rows, codes)`` pair per equality
        column (ascending rows).  All overridden rows are re-packed in one
        masked pass per column; returns the sorted overridden row ids as
        Python ints (walk-index ``keys`` dictionaries key on plain ints).
        """
        all_rows = np.unique(np.concatenate(
            [rows for rows, _ in override_arrays]))
        parts_valid = np.ones(all_rows.size, dtype=bool)
        value = None
        for j, codes in enumerate(code_columns):
            column = codes[all_rows].astype(np.int64)
            rows_j, codes_j = override_arrays[j]
            if len(rows_j):
                column[np.searchsorted(all_rows, rows_j)] = codes_j
            parts_valid &= column != 0
            value = column if j == 0 else value * multipliers[j] + column
        packed[all_rows] = value
        valid[all_rows] = parts_valid
        return all_rows.tolist()

    def precompute_walk_indexes(self, views_with_fingerprints,
                                constraints: Sequence[DenialConstraint]) -> int:
        """The multi-coalition walk: stacked key builds for a batch of views.

        The batch scheduler calls this with every distinct coalition view of
        one ``query_pairs`` pass.  For each equality shape the constraints
        partition on, all views' keys are evaluated as one stacked
        ``(n_views, n_rows)`` code matrix — the base's packed row broadcast
        once, each view contributing only its sparse code-space scatter —
        and the per-view group structures are parked under the view's
        fingerprint for its :class:`RepairWalk` to consume exclusively
        (:meth:`RepairWalk._build_windex_codes` pops them).  Unclaimed
        entries are dropped at the next precompute.  Returns the number of
        parked builds.
        """
        self._prime_cache.clear()
        shapes: list[tuple[str, ...]] = []
        for constraint in constraints:
            plan = self._state(constraint).plan
            if plan.kind == "eq" and plan.eq_attrs not in shapes:
                shapes.append(plan.eq_attrs)
        parked = 0
        encoding = self.table.store.encoding()
        for eq_attrs in shapes:
            base = self._encoded_eq_base(eq_attrs)
            if base is None:
                encoding.fallback_checks += len(views_with_fingerprints)
                continue
            code_columns, decode_tables = base
            # encode every view's delta first: the dictionaries may grow and
            # the packing multipliers must bound the grown code space
            usable = []
            for view, fingerprint in views_with_fingerprints:
                if getattr(view, "base", None) is not self.table:
                    continue  # foreign root: its codes live in another encoding
                override_arrays: list[tuple] | None = []
                any_overridden = False
                for attribute in eq_attrs:
                    encoded = view.store.encoded_delta_arrays(attribute)
                    if encoded is None:
                        override_arrays = None
                        break
                    override_arrays.append(encoded)
                    if len(encoded[0]):
                        any_overridden = True
                if override_arrays is None:
                    encoding.fallback_checks += 1
                    continue
                usable.append((fingerprint, override_arrays, any_overridden))
            if not usable:
                continue
            packed_base, valid_base, multipliers = self._packed_eq_base(
                eq_attrs, code_columns, decode_tables)
            matrix = np.tile(packed_base, (len(usable), 1))
            valid = np.tile(valid_base, (len(usable), 1))
            scattered: list[list[int]] = []
            for i, (_fingerprint, override_arrays, any_overridden) in enumerate(usable):
                if any_overridden:
                    scattered.append(self._scatter_packed_arrays(
                        matrix[i], valid[i], override_arrays, code_columns,
                        multipliers))
                else:
                    scattered.append([])
            for i, (fingerprint, _override_arrays, _any) in enumerate(usable):
                built = _groups_from_packed(matrix[i], valid[i], multipliers,
                                            decode_tables, scattered[i])
                self._prime_cache[(fingerprint, eq_attrs)] = built
                encoding.vectorized_checks += 1
                parked += 1
        return parked

    # -- base-table update maintenance --------------------------------------------

    def _live_key(self, eq_attrs: tuple[str, ...], row_id: int) -> tuple | None:
        """The row's equality key from the live (post-update) base columns."""
        key = []
        for attribute in eq_attrs:
            value = self._column(attribute)[row_id]
            if is_null(value):
                return None
            key.append(value)
        return tuple(key)

    def apply_base_update(self, changes: "Mapping[CellRef, tuple[Any, Any]]") -> None:
        """Delta-maintain the base state after an in-place base-table write.

        ``changes`` maps each written cell to its ``(old, new)`` value pair;
        the table itself has already been mutated (the column views cached in
        ``_columns`` are views of the same buffers, so they read post-update
        values).  The maintenance mirrors :meth:`_recheck_equality`, but the
        moves are *permanent*: equality indexes move the touched rows and the
        build-time key snapshots are patched in place, base violations are
        retracted and re-checked for touched rows only, and the packed-key /
        primed-walk caches derived from old base contents are dropped.
        Finishing by advancing :attr:`base_version` keeps this detector (and
        everything sharing it through :func:`detector_for`) live instead of
        triggering the rebuild path.
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
            rows: set[int] = set()
            for attribute in eq_attrs:
                rows.update(touched_by_attr.get(attribute, ()))
            if not rows:
                continue
            index_changes: dict[int, tuple[tuple | None, tuple | None]] = {}
            for row_id in rows:
                old_key = index.build_key_of(row_id)
                new_key = self._live_key(eq_attrs, row_id)
                if old_key != new_key:
                    index_changes[row_id] = (old_key, new_key)
            if index_changes:
                index.apply_delta(index_changes)
                for row_id, (_, new_key) in index_changes.items():
                    index._build_keys[row_id] = new_key

        # 2. retract + re-check base violations per constraint (a list not
        # built yet is built from the moved index on first read)
        for state in self._states.values():
            if state.built is None:
                continue
            plan = state.plan
            touched: set[int] = set()
            for attribute in plan.mentioned:
                touched.update(touched_by_attr.get(attribute, ()))
            if not touched:
                continue
            if plan.kind == "single":
                check = plan.residual_check
                out = [v for v in state.base_violations if v.rows[0] not in touched]
                row_of = lazy_row_reader(self.table)
                for row_id in sorted(touched):
                    row = row_of(row_id)
                    if check(row, row):
                        out.append(Violation(plan.constraint, (row_id,)))
                state.built = out
                continue
            if plan.kind == "pairs":
                # no equality partition to maintain: full rescan, same as build
                state.built = list(find_violations(self.table, plan.constraint))
                continue
            out = [
                violation
                for violation in state.base_violations
                if violation.rows[0] not in touched and violation.rows[1] not in touched
            ]
            self._recheck_base_equality(state, touched, out)
            state.built = out

        # 3. caches derived from the old base contents: the packed-key cache
        # validates only by dictionary *sizes* (a new value already present in
        # a dictionary would serve stale codes), and parked prime results are
        # keyed by fingerprints that no longer occur
        self._packed_contexts.clear()
        self._prime_cache.clear()
        self.base_version = self.table.version

    def _recheck_base_equality(self, state: _ConstraintState, touched: set[int],
                               out: list[Violation]) -> None:
        """Re-check touched rows against the (already moved) base index."""
        plan = state.plan
        index = state.index
        constraint = plan.constraint
        groups = index._groups  # read-only peek, as in _recheck_equality
        ne_attr = plan.single_ne_attr
        if ne_attr is not None:
            ne_column = self._column(ne_attr)

            def class_of(row_id: int):
                value = ne_column[row_id]
                return _NULL_CLASS if is_null(value) else value

        row_of = lazy_row_reader(self.table)
        for row_i in sorted(touched):
            key = index.build_key_of(row_i)  # patched: the post-update key
            if key is None:
                continue
            partners = groups.get(key)
            if partners is None or len(partners) <= 1:
                continue
            if ne_attr is not None:
                class_i = class_of(row_i)
                for row_j in partners:
                    if row_j == row_i or (row_j in touched and row_j < row_i):
                        continue
                    if class_i != class_of(row_j):
                        out.append(Violation(constraint, (row_i, row_j)))
                        out.append(Violation(constraint, (row_j, row_i)))
            else:
                check = plan.residual_check
                row_data_i = row_of(row_i)
                for row_j in partners:
                    if row_j == row_i or (row_j in touched and row_j < row_i):
                        continue
                    row_data_j = row_of(row_j)
                    if check(row_data_i, row_data_j):
                        out.append(Violation(constraint, (row_i, row_j)))
                    if check(row_data_j, row_data_i):
                        out.append(Violation(constraint, (row_j, row_i)))

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
        view is not rooted on this detector's base snapshot.
        """
        if view.base is not self.table or self.base_version != self.table.version:
            return find_all_violations(view, constraints)
        # the delta grouped per column — the overlay's own cached structure,
        # no per-cell objects are built
        delta_columns = view.delta_by_column()
        result = ViolationSet()
        for constraint in constraints:
            for violation in self.violations_for_view_constraint(
                view, constraint, delta_columns
            ):
                result.add(violation)
        return result

    def violations_for_view_constraint(
        self,
        view: PerturbationView,
        constraint: DenialConstraint,
        delta_columns: Mapping[str, Mapping[int, Any]] | None = None,
        row_of=None,
    ) -> list[Violation]:
        """Single-constraint base→view detection (the per-constraint core).

        ``row_of`` optionally supplies a shared row reader (see
        :func:`~repro.constraints.violations.find_violations`); a repair walk
        passes its persistent cache so the two instances of an oracle pair
        share one.  The view must be rooted on this detector's base snapshot.
        """
        if delta_columns is None:
            delta_columns = view.delta_by_column()
        state = self._state(constraint)
        plan = state.plan
        touched: set[int] = set()
        for attribute in plan.mentioned:
            overrides = delta_columns.get(attribute)
            if overrides:
                touched.update(overrides)
        if not touched:
            return list(state.base_violations)
        if plan.kind == "single":
            check = plan.residual_check
            out = [v for v in state.base_violations if v.rows[0] not in touched]
            if row_of is None:
                row_of = view.row
            for row_id in sorted(touched):
                row = row_of(row_id)
                if check(row, row):
                    out.append(Violation(constraint, (row_id,)))
            return out
        if plan.kind == "pairs":
            # no equality predicate to partition on: full rescan of this
            # constraint on the view
            return find_violations(view, constraint, row_of=row_of)
        out = [
            violation
            for violation in state.base_violations
            if violation.rows[0] not in touched and violation.rows[1] not in touched
        ]
        self._recheck_equality(view, state, touched, delta_columns, out, row_of=row_of)
        return out

    # -- the equality-partition re-check ------------------------------------------

    def _recheck_equality(self, view: PerturbationView, state: _ConstraintState,
                          touched: set[int],
                          delta_columns: Mapping[str, Mapping[int, Any]],
                          out: list[Violation], row_of=None) -> None:
        plan = state.plan
        index = state.index
        eq_attrs = plan.eq_attrs
        constraint = plan.constraint

        # equality-key columns: base arrays plus the view's per-column overrides
        eq_columns = [self._column(attribute) for attribute in eq_attrs]
        eq_overrides = [delta_columns.get(attribute) for attribute in eq_attrs]

        if len(eq_attrs) == 1:
            only_column, only_overrides = eq_columns[0], eq_overrides[0]

            def view_key_of(row_id: int) -> tuple | None:
                if only_overrides is not None and row_id in only_overrides:
                    value = only_overrides[row_id]
                else:
                    value = only_column[row_id]
                return None if is_null(value) else (value,)
        else:
            def view_key_of(row_id: int) -> tuple | None:
                """The row's equality key under the view (None on a null component)."""
                key = []
                for column, overrides in zip(eq_columns, eq_overrides):
                    if overrides is not None and row_id in overrides:
                        value = overrides[row_id]
                    else:
                        value = column[row_id]
                    if is_null(value):
                        return None
                    key.append(value)
                return tuple(key)

        # rows whose key may have moved: only those with an overridden eq cell.
        # Base keys are O(1) — the index retained them from build time.
        key_changed: set[int] = set()
        for overrides in eq_overrides:
            if overrides:
                key_changed.update(overrides)
        view_keys: dict[int, tuple | None] = {}
        index_changes: dict[int, tuple[tuple | None, tuple | None]] = {}
        for row_id in key_changed:
            old_key = index.build_key_of(row_id)
            new_key = view_keys[row_id] = view_key_of(row_id)
            if old_key != new_key:
                index_changes[row_id] = (old_key, new_key)

        ne_attr = plan.single_ne_attr
        if ne_attr is not None:
            ne_column = self._column(ne_attr)
            ne_overrides = delta_columns.get(ne_attr)

            def class_of(row_id: int):
                if ne_overrides is not None and row_id in ne_overrides:
                    value = ne_overrides[row_id]
                else:
                    value = ne_column[row_id]
                return _NULL_CLASS if is_null(value) else value

        if index_changes:
            index.apply_delta(index_changes)
        try:
            if row_of is None:
                row_of = lazy_row_reader(view)
            groups = index._groups  # read-only peek: skip the defensive copies

            for row_i in sorted(touched):
                if row_i in view_keys:
                    key = view_keys[row_i]
                else:
                    key = index.build_key_of(row_i)  # no eq cell touched
                if key is None:
                    continue  # a null component can never satisfy the eq-join
                partners = groups.get(key)
                if partners is None or len(partners) <= 1:
                    continue
                if ne_attr is not None:
                    class_i = class_of(row_i)
                    for row_j in partners:
                        if row_j == row_i or (row_j in touched and row_j < row_i):
                            continue  # touched pairs are handled by the lower id
                        if class_i != class_of(row_j):
                            out.append(Violation(constraint, (row_i, row_j)))
                            out.append(Violation(constraint, (row_j, row_i)))
                else:
                    check = plan.residual_check
                    row_data_i = row_of(row_i)
                    for row_j in partners:
                        if row_j == row_i or (row_j in touched and row_j < row_i):
                            continue
                        row_data_j = row_of(row_j)
                        if check(row_data_i, row_data_j):
                            out.append(Violation(constraint, (row_i, row_j)))
                        if check(row_data_j, row_data_i):
                            out.append(Violation(constraint, (row_j, row_i)))
        finally:
            if index_changes:
                index.revert_delta(index_changes)


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


class _FDClassState:
    """Class-partition accounting for one FD-shape constraint on one walk.

    For ``eq-join + one same-attribute !=`` constraints a pair of rows
    violates exactly when they share a (non-null) equality key and carry
    *different* null-aware classes of the ``!=`` attribute.  That makes
    per-pair bookkeeping unnecessary: per equality group it suffices to
    count rows per class —

    * a group violates iff it holds ≥ 2 distinct classes, and then **every**
      row of the group participates in a violation;
    * the group's ordered violation count is ``m² − Σ n_c²``;
    * one row changing key/class is an O(1) counter update (the walk's
      view→view delta unit), instead of a partner scan.

    ``groups`` maps each equality key to ``[class → count, m, contribution]``;
    ``mixed`` is the set of violating groups, ``total`` the ordered violation
    count over all groups, and ``assigned`` records each indexed row's
    current ``(key, class)`` so retraction never needs old cell values.
    """

    __slots__ = ("groups", "mixed", "total", "assigned", "rows_cache")

    def __init__(self):
        self.groups: dict[tuple, list] = {}
        self.mixed: set[tuple] = set()
        self.total = 0
        self.assigned: dict[int, tuple] = {}
        #: sorted violating-row list, cached until the next counter change
        self.rows_cache: list[int] | None = None

    def add(self, key: tuple, cls) -> None:
        state = self.groups.get(key)
        if state is None:
            state = self.groups[key] = [{cls: 1}, 1, 0]
            self.rows_cache = None
            return
        counter, m, contribution = state
        n = counter.get(cls, 0)
        delta = 2 * (m - n)
        counter[cls] = n + 1
        state[1] = m + 1
        state[2] = contribution + delta
        self.total += delta
        if contribution == 0 and delta:
            self.mixed.add(key)
        self.rows_cache = None

    def remove(self, key: tuple, cls) -> None:
        state = self.groups[key]
        counter, m, contribution = state
        n = counter[cls]
        delta = -2 * (m - n)
        if n == 1:
            del counter[cls]
        else:
            counter[cls] = n - 1
        state[1] = m - 1
        new_contribution = contribution + delta
        state[2] = new_contribution
        self.total += delta
        if new_contribution == 0:
            if contribution:
                self.mixed.discard(key)
            if state[1] == 0:
                del self.groups[key]
        self.rows_cache = None

    def row_violation_count(self, row: int) -> int:
        """Ordered violations the row currently participates in (O(1))."""
        assignment = self.assigned.get(row)
        if assignment is None:
            return 0
        key, cls = assignment
        counter, m, _contribution = self.groups[key]
        return 2 * (m - counter[cls])

    def fork(self) -> "_FDClassState":
        clone = _FDClassState.__new__(_FDClassState)
        clone.groups = {key: [dict(counter), m, contribution]
                        for key, (counter, m, contribution) in self.groups.items()}
        clone.mixed = set(self.mixed)
        clone.total = self.total
        clone.assigned = dict(self.assigned)
        clone.rows_cache = self.rows_cache  # never mutated in place
        return clone


class _WalkConstraint:
    """Per-constraint violation state at one point of the walk's write log.

    Two storage modes:

    * **list** (``fd is None``) — ``violations`` holds the explicit ordered
      :class:`Violation` list (single-tuple constraints, no-equality
      fallbacks and equality constraints with a general residual);
    * **class-partition** (``fd`` set) — FD-shape constraints keep a
      :class:`_FDClassState`; ``violations`` doubles as the lazily
      materialised list cache (``None`` when stale).
    """

    __slots__ = ("violations", "fd", "log_pos")

    def __init__(self, violations: list[Violation] | None, log_pos: int,
                 fd: _FDClassState | None = None):
        self.violations = violations
        self.fd = fd
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
    (view→view deltas):

    * equality indexes are *forked* once per walk
      (:meth:`~repro.engine.index.MultiColumnIndex.fork`) with the view's full
      delta applied and then kept applied — later passes only move the rows
      the repair wrote;
    * per-constraint violation lists carry over from the previous pass:
      a pass retracts and re-checks only the rows written since that
      constraint's last sync (read off the view's
      :attr:`~repro.engine.view.OverlayStore.change_log`);
    * row dicts are cached across passes, and the *pristine* (unwritten) rows
      are shared with any walk forked off this one — the two instances of a
      with/without oracle pair differ in a single cell, so one row cache
      serves both (rows a walk writes go to a walk-local cache instead).

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
                 "_pristine_rows", "_row_log_pos")

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

    # -- row cache ----------------------------------------------------------------

    def _row_of(self, row_id: int) -> Mapping[str, Any]:
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
        log = self._log
        position = self._row_log_pos
        if position == len(log):
            return
        for row, _attribute in log[position:]:
            self._dirty_rows.add(row)
            self._local_rows.pop(row, None)
        self._row_log_pos = len(log)

    # -- index maintenance ---------------------------------------------------------

    def _value_of(self, row_id: int, attribute: str):
        """Current view value via override dict + base column (no call chain)."""
        overrides = self.view.delta_by_column().get(attribute)
        if overrides is not None and row_id in overrides:
            return overrides[row_id]
        return self.detector._column(attribute)[row_id]

    def _view_key(self, eq_attrs: tuple[str, ...], row_id: int,
                  eq_overrides=None) -> tuple | None:
        if eq_overrides is None:
            delta_columns = self.view.delta_by_column()
            eq_overrides = [delta_columns.get(attribute) for attribute in eq_attrs]
        column_of = self.detector._column
        key = []
        for attribute, overrides in zip(eq_attrs, eq_overrides):
            if overrides is not None and row_id in overrides:
                value = overrides[row_id]
            else:
                value = column_of(attribute)[row_id]
            if is_null(value):
                return None
            key.append(value)
        return tuple(key)

    def _windex(self, eq_attrs: tuple[str, ...]) -> _WalkIndex:
        walk_index = self._windexes.get(eq_attrs)
        if walk_index is None:
            base_index = self.detector._index_for(eq_attrs)
            built = self._build_windex_codes(eq_attrs)
            if built is not None:
                groups, keys = built
            else:
                # Unencodable key columns: built in one ascending row pass
                # (groups come out sorted) instead of forking the base index
                # and replaying the full delta: on the heavily nulled
                # coalition views most rows just drop out of the index, so
                # per-row bisect moves would dominate.
                build_key_of = base_index.build_key_of
                delta_columns = self.view.delta_by_column()
                eq_overrides = [delta_columns.get(attribute) for attribute in eq_attrs]
                overridden: set[int] = set()
                for overrides in eq_overrides:
                    if overrides:
                        overridden.update(overrides)
                keys = {}
                groups = {}
                for row_id in range(self.view.n_rows):
                    if row_id in overridden:
                        key = keys[row_id] = self._view_key(eq_attrs, row_id, eq_overrides)
                    else:
                        key = build_key_of(row_id)
                    if key is None:
                        continue
                    rows = groups.get(key)
                    if rows is None:
                        groups[key] = [row_id]
                    else:
                        rows.append(row_id)
            index = MultiColumnIndex.__new__(MultiColumnIndex)
            index.attributes = base_index.attributes
            index._groups = groups
            index._build_keys = base_index._build_keys
            walk_index = self._windexes[eq_attrs] = _WalkIndex(index, keys, len(self._log))
        else:
            self._sync_windex(walk_index, eq_attrs)
        return walk_index

    def _build_windex_codes(self, eq_attrs: tuple[str, ...]):
        """``(groups, keys)`` via the code path, or ``None`` to fall back.

        Consumes a multi-coalition precomputed build when the batch
        scheduler parked one under this view's fingerprint
        (:meth:`IncrementalViolationDetector.precompute_walk_indexes`);
        otherwise the view's keys are packed and grouped standalone.
        """
        detector = self.detector
        encoding = detector.table.store.encoding()
        if detector._prime_cache and not self._log:
            built = detector._prime_cache.pop(
                (self.view.fingerprint(), eq_attrs), None)
            if built is not None:
                return built
        packed = detector._packed_view_keys(self.view.store, eq_attrs)
        if packed is None:
            encoding.fallback_checks += 1
            return None
        packed_arr, valid, multipliers, decode_tables, overridden = packed
        encoding.vectorized_checks += 1
        return _groups_from_packed(packed_arr, valid, multipliers,
                                   decode_tables, overridden)

    def _sync_windex(self, walk_index: _WalkIndex, eq_attrs: tuple[str, ...]) -> None:
        log = self._log
        if walk_index.log_pos == len(log):
            return
        rows = {row for row, attribute in log[walk_index.log_pos:]
                if attribute in eq_attrs}
        walk_index.log_pos = len(log)
        if rows:
            self._move_index_rows(walk_index, eq_attrs, rows)

    def _move_index_rows(self, walk_index: _WalkIndex, eq_attrs: tuple[str, ...],
                         rows: Iterable[int]) -> None:
        keys = walk_index.keys
        index = walk_index.index
        delta_columns = self.view.delta_by_column()
        eq_overrides = [delta_columns.get(attribute) for attribute in eq_attrs]
        changes: dict[int, tuple[tuple | None, tuple | None]] = {}
        for row_id in rows:
            old_key = keys[row_id] if row_id in keys else index.build_key_of(row_id)
            new_key = keys[row_id] = self._view_key(eq_attrs, row_id, eq_overrides)
            if old_key != new_key:
                changes[row_id] = (old_key, new_key)
        if changes:
            index.apply_delta(changes)

    # -- violation maintenance -------------------------------------------------------

    def _synced_state(self, constraint: DenialConstraint) -> _WalkConstraint:
        state = self._cstates.get(constraint)
        if state is not None:
            if state.log_pos == len(self._log):
                # already synced to the newest write — the common case inside
                # a repair pass; row-cache consumption can wait until a sync
                # actually has to re-check something
                return state
            self._consume_writes()
            self._sync_constraint(constraint, state)
        else:
            self._consume_writes()
            state = self._prime_constraint(constraint)
        return state

    def violations_for(self, constraint: DenialConstraint) -> list[Violation]:
        """Current violations of one constraint (synced to the view's writes)."""
        state = self._synced_state(constraint)
        fd = state.fd
        if fd is not None and state.violations is None:
            plan = self.detector._state(constraint).plan
            groups = self._windex(plan.eq_attrs).index._groups
            assigned = fd.assigned
            out = []
            for key in fd.mixed:
                rows = groups[key]
                for row_i in rows:
                    class_i = assigned[row_i][1]
                    for row_j in rows:
                        if row_j != row_i and assigned[row_j][1] != class_i:
                            out.append(Violation(constraint, (row_i, row_j)))
            state.violations = out
        return state.violations

    def violating_rows_for(self, constraint: DenialConstraint) -> list[int]:
        """Sorted rows participating in ≥1 violation of ``constraint``.

        What the rule-repair loop actually consumes; on the class-partition
        representation every row of a mixed group violates, so this is a
        concatenation of the mixed groups' (already sorted) row lists — no
        :class:`Violation` objects are materialised.
        """
        state = self._synced_state(constraint)
        fd = state.fd
        if fd is not None:
            rows = fd.rows_cache
            if rows is None:
                if not fd.mixed:
                    rows = []
                else:
                    plan = self.detector._state(constraint).plan
                    groups = self._windex(plan.eq_attrs).index._groups
                    # one concatenate+sort over the mixed groups' row lists
                    # (each already ascends) instead of a Python merge-sort;
                    # the repairers consume the resulting plain-int list
                    rows = np.sort(np.concatenate(
                        [np.asarray(groups[key], dtype=np.int64)
                         for key in fd.mixed])).tolist()
                fd.rows_cache = rows
            return rows
        return sorted({row for violation in state.violations for row in violation.rows})

    def has_violations(self, constraint: DenialConstraint) -> bool:
        """Whether the constraint currently has any violation (no materialising)."""
        state = self._synced_state(constraint)
        if state.fd is not None:
            return bool(state.fd.mixed)
        return bool(state.violations)

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
        if tracer is None:
            for constraint in self.constraints:
                self._synced_state(constraint)
            return self
        with tracer.span("walk_prime", constraints=len(self.constraints)):
            for constraint in self.constraints:
                self._synced_state(constraint)
        return self

    def _prime_constraint(self, constraint: DenialConstraint) -> _WalkConstraint:
        """First detection: base→view retract + re-check, walk-local.

        FD shapes build their class-partition state from the view directly.
        For other shapes the derivation is exactly one :meth:`_retract_recheck`
        step seeded with the base snapshot's violations and the full delta's
        touched rows — the same step later passes run against the previous
        pass's state.
        The walk's index is only built when some touched row actually keeps a
        non-null equality key; whatever *is* built is kept for later passes
        and the pair fork instead of being applied and reverted per
        detection (contrast
        :meth:`IncrementalViolationDetector.violations_for_view_constraint`).
        """
        detector_state = self.detector._state(constraint)
        plan = detector_state.plan
        delta_columns = self.view.delta_by_column()
        touched: set[int] = set()
        for attribute in plan.mentioned:
            overrides = delta_columns.get(attribute)
            if overrides:
                touched.update(overrides)
        if plan.single_ne_attr is not None:
            # FD shape: build the class-partition state in one pass over the
            # walk index; the base violation list is never materialised
            state = _WalkConstraint(None, len(self._log),
                                    self._build_fd_state(plan))
        else:
            state = _WalkConstraint(list(detector_state.base_violations), len(self._log))
            if touched:
                self._retract_recheck(constraint, plan, touched, state)
        self._cstates[constraint] = state
        return state

    def _class_reader(self, plan: _ConstraintPlan):
        """A ``class_of(row)`` closure for the plan's ``!=`` attribute."""
        ne_attr = plan.single_ne_attr
        ne_column = self.detector._column(ne_attr)
        ne_overrides = self.view.delta_by_column().get(ne_attr)

        def class_of(row_id: int):
            if ne_overrides is not None and row_id in ne_overrides:
                value = ne_overrides[row_id]
            else:
                value = ne_column[row_id]
            return _NULL_CLASS if is_null(value) else value

        return class_of

    def _class_values(self, plan: _ConstraintPlan) -> "list | None":
        """Per-row view classes of the ``!=`` attribute, decoded in one pass.

        The base column's code array is translated through the decode table
        (``_NULL_CLASS`` at code 0) as one list comprehension, then the view's
        sparse overrides are patched in.  ``None`` when the column is
        unencodable (the caller then reads classes per row through
        :meth:`_class_reader`).
        """
        ne_attr = plan.single_ne_attr
        store = self.detector.table.store
        encoding = store.encoding()
        codes = encoding.codes(store, ne_attr)
        if codes is None:
            encoding.fallback_checks += 1
            return None
        translate = list(encoding.dictionary(ne_attr)._values)
        translate[0] = _NULL_CLASS
        classes = [translate[code] for code in codes.tolist()]
        overrides = self.view.delta_by_column().get(ne_attr)
        if overrides:
            for row_id, value in overrides.items():
                classes[row_id] = _NULL_CLASS if is_null(value) else value
        encoding.vectorized_checks += 1
        return classes

    def _build_fd_state(self, plan: _ConstraintPlan) -> _FDClassState:
        """Class-partition state of the current view, one pass over the index."""
        walk_index = self._windex(plan.eq_attrs)
        classes = self._class_values(plan)
        class_of = classes.__getitem__ if classes is not None \
            else self._class_reader(plan)
        fd = _FDClassState()
        groups = fd.groups
        assigned = fd.assigned
        total = 0
        for key, rows in walk_index.index._groups.items():
            counter: dict = {}
            for row in rows:
                cls = class_of(row)
                counter[cls] = counter.get(cls, 0) + 1
                assigned[row] = (key, cls)
            m = len(rows)
            if len(counter) > 1:
                contribution = m * m
                for count in counter.values():
                    contribution -= count * count
                fd.mixed.add(key)
                total += contribution
            else:
                contribution = 0
            groups[key] = [counter, m, contribution]
        fd.total = total
        return fd

    def _sync_constraint(self, constraint: DenialConstraint, state: _WalkConstraint) -> None:
        log = self._log
        if state.log_pos == len(log):
            return
        plan = self.detector._state(constraint).plan
        mentioned = plan.mentioned
        changed = {row for row, attribute in log[state.log_pos:]
                   if attribute in mentioned}
        state.log_pos = len(log)
        if changed:
            self._retract_recheck(constraint, plan, changed, state)

    def _retract_recheck(self, constraint: DenialConstraint, plan: _ConstraintPlan,
                         changed: set[int], state: _WalkConstraint) -> None:
        """Re-derive ``state``'s violations after ``changed`` rows moved (view→view)."""
        if plan.kind == "pairs":
            state.violations = find_violations(self.view, constraint, row_of=self._row_of)
            return
        if plan.kind == "single":
            check = plan.residual_check
            kept = [v for v in state.violations if v.rows[0] not in changed]
            for row_id in sorted(changed):
                row = self._row_of(row_id)
                if check(row, row):
                    kept.append(Violation(constraint, (row_id,)))
            state.violations = kept
            return
        if plan.single_ne_attr is not None:
            fd = state.fd
            state.violations = None  # invalidate the materialisation cache
            walk_index = self._windex(plan.eq_attrs)  # sync key moves first
            keys = walk_index.keys
            build_key_of = walk_index.index.build_key_of
            class_of = self._class_reader(plan)
            assigned = fd.assigned
            for row in changed:
                assignment = assigned.pop(row, None)
                if assignment is not None:
                    fd.remove(assignment[0], assignment[1])
                key = keys[row] if row in keys else build_key_of(row)
                if key is not None:
                    cls = class_of(row)
                    fd.add(key, cls)
                    assigned[row] = (key, cls)
            return
        kept = [v for v in state.violations
                if v.rows[0] not in changed and v.rows[1] not in changed]
        self._recheck_rows(constraint, plan, changed, kept)
        state.violations = kept

    def _recheck_rows(self, constraint: DenialConstraint, plan: _ConstraintPlan,
                      touched: set[int], out: list[Violation]) -> None:
        """Append the violations the ``touched`` rows participate in (eq-kind).

        Mirrors :meth:`IncrementalViolationDetector._recheck_equality`, but
        against the walk's forked (already-applied) index and persistent row
        cache instead of apply/revert on the shared base index.
        """
        walk_index = self._windex(plan.eq_attrs)
        groups = walk_index.index._groups
        keys = walk_index.keys
        build_key_of = walk_index.index.build_key_of
        ne_attr = plan.single_ne_attr
        check = plan.residual_check
        row_of = self._row_of
        if ne_attr is not None:
            ne_column = self.detector._column(ne_attr)
            ne_overrides = self.view.delta_by_column().get(ne_attr)

            def class_of(row_id: int):
                if ne_overrides is not None and row_id in ne_overrides:
                    value = ne_overrides[row_id]
                else:
                    value = ne_column[row_id]
                return _NULL_CLASS if is_null(value) else value

        for row_i in sorted(touched):
            key = keys[row_i] if row_i in keys else build_key_of(row_i)
            if key is None:
                continue  # a null component can never satisfy the eq-join
            partners = groups.get(key)
            if partners is None or len(partners) <= 1:
                continue
            if ne_attr is not None:
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

    # -- one-cell trials (greedy candidate scoring) -----------------------------------

    def _count_row_if(self, plan: _ConstraintPlan, row_id: int, attribute: str,
                      value: Any) -> int:
        """Violations of one general eq-kind constraint that ``row_id`` joins
        if ``(row_id, attribute)`` were set to ``value`` (partner scan)."""
        walk_index = self._windex(plan.eq_attrs)
        eq_attrs = plan.eq_attrs
        value_of = self._value_of
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
            keys = walk_index.keys
            key = keys[row_id] if row_id in keys else walk_index.index.build_key_of(row_id)
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

    def count_if_many_at(self, row_id: int, attribute: str,
                         values: Sequence[Any]) -> list[int]:
        """Total violation count if ``(row_id, attribute)`` were set to each value.

        Element ``i`` equals ``len(find_all_violations(trial))`` for the
        materialised trial table with the cell set to ``values[i]``; the
        walk's state is untouched.  Greedy candidate scoring calls this once
        per top-degree cell, fed straight from :meth:`cell_degrees_arrays`
        coordinates: constraints are synced once, every candidate-independent
        term is computed once, and FD-shape constraints score each candidate
        with O(1) class-counter lookups.  No :class:`CellRef` is built unless
        a ``pairs``-kind constraint forces a per-candidate trial rescan.
        """
        self._consume_writes()
        n_values = len(values)
        totals = [0] * n_values
        encoding = self.detector.table.store.encoding()
        for constraint in self.constraints:
            plan = self.detector._state(constraint).plan
            if plan.kind == "pairs":
                if attribute not in plan.mentioned:
                    base = len(self.violations_for(constraint))
                    for i in range(n_values):
                        totals[i] += base
                else:
                    encoding.fallback_checks += n_values
                    cell = CellRef(row_id, attribute)
                    for i, value in enumerate(values):
                        trial = self.view.perturbed({cell: value}, trusted=True)
                        totals[i] += len(find_violations(trial, constraint))
                continue
            state = self._synced_state(constraint)
            fd = state.fd
            if fd is not None:
                if attribute not in plan.mentioned:
                    base = fd.total
                    for i in range(n_values):
                        totals[i] += base
                    continue
                base = fd.total - fd.row_violation_count(row_id)
            else:
                if attribute not in plan.mentioned:
                    base = len(state.violations)
                    for i in range(n_values):
                        totals[i] += base
                    continue
                base = sum(1 for v in state.violations if row_id not in v.rows)
            if plan.kind == "single":
                row = dict(self._row_of(row_id))
                check = plan.residual_check
                for i, value in enumerate(values):
                    row[attribute] = value
                    totals[i] += base + (1 if check(row, row) else 0)
                continue
            self._count_row_if_many(constraint, plan, row_id, attribute,
                                    values, base, totals, encoding)
        return totals

    def _count_row_if_many(self, constraint: DenialConstraint, plan: _ConstraintPlan,
                           row_id: int, attribute: str, values: Sequence[Any],
                           base: int, totals: list[int], encoding) -> None:
        """Fold one eq-kind constraint's per-candidate term into ``totals``."""
        ne_attr = plan.single_ne_attr
        n_values = len(values)
        if ne_attr is None:
            # general residual: partner scans per candidate, no hoisting
            encoding.fallback_checks += n_values
            for i, value in enumerate(values):
                totals[i] += base + self._count_row_if(plan, row_id, attribute, value)
            return
        walk_index = self._windex(plan.eq_attrs)
        eq_attrs = plan.eq_attrs
        fd = self._cstates[constraint].fd
        assignment = fd.assigned.get(row_id)
        encoding.vectorized_checks += n_values
        if attribute not in eq_attrs:
            # one fixed key (and group) for every candidate
            keys = walk_index.keys
            key = keys[row_id] if row_id in keys else walk_index.index.build_key_of(row_id)
            group = fd.groups.get(key) if key is not None else None
            if group is None:
                for i in range(n_values):
                    totals[i] += base
                return
            counter_get = group[0].get
            m = group[1]
            own_group = assignment is not None and assignment[0] == key
            if own_group:
                m -= 1  # exclude the row's own current occupancy
            own_class = assignment[1] if own_group else None
            if attribute == ne_attr:
                for i, value in enumerate(values):
                    class_i = _NULL_CLASS if is_null(value) else value
                    n = counter_get(class_i, 0)
                    if own_group and own_class == class_i:
                        n -= 1
                    totals[i] += base + 2 * (m - n)
            else:
                value_i = self._value_of(row_id, ne_attr)
                class_i = _NULL_CLASS if is_null(value_i) else value_i
                n = counter_get(class_i, 0)
                if own_group and own_class == class_i:
                    n -= 1
                count = 2 * (m - n)
                for i in range(n_values):
                    totals[i] += base + count
            return
        # the candidate feeds the equality key: rebuild it per candidate
        slot = eq_attrs.index(attribute)
        parts: list | None = []
        for eq_attr in eq_attrs:
            if eq_attr == attribute:
                parts.append(None)  # slot for the candidate
                continue
            part = self._value_of(row_id, eq_attr)
            if is_null(part):
                parts = None
                break
            parts.append(part)
        if parts is None:
            for i in range(n_values):
                totals[i] += base  # a null component never satisfies the eq-join
            return
        value_i = self._value_of(row_id, ne_attr)
        class_i = _NULL_CLASS if is_null(value_i) else value_i
        groups_get = fd.groups.get
        for i, value in enumerate(values):
            if is_null(value):
                totals[i] += base
                continue
            parts[slot] = value
            key = tuple(parts)
            group = groups_get(key)
            if group is None:
                totals[i] += base
                continue
            counter, m, _contribution = group
            n = counter.get(class_i, 0)
            if assignment is not None and assignment[0] == key:
                m -= 1
                if assignment[1] == class_i:
                    n -= 1
            totals[i] += base + 2 * (m - n)

    def cell_degrees_arrays(self):
        """Violation total and per-cell degrees as parallel arrays, no objects.

        Equivalent to materialising :meth:`all_violations` and reading
        ``count_for_cell`` for every involved cell (property-tested):
        returns ``(total, rows, attr_codes, counts, attrs)`` where ``rows``/
        ``attr_codes``/``counts`` are parallel ``int64`` arrays sorted by
        ``(row, attr_code)`` and ``attrs`` is the sorted attribute tuple the
        codes index into — so ordering by ``(row, attr_code)`` equals
        ordering by ``(row, attribute)``.  FD-shape constraints contribute
        whole ``rows × attrs`` blocks straight off their class-partition
        counters; only non-FD constraints still walk violation objects.
        The single ranked winner is the only :class:`CellRef` a consumer
        ever needs to build.
        """
        total = 0
        fd_parts: list[tuple[np.ndarray, np.ndarray, tuple[str, ...]]] = []
        cell_parts: list[tuple[int, str]] = []
        names: set[str] = set()
        for constraint in self.constraints:
            state = self._synced_state(constraint)
            plan = self.detector._state(constraint).plan
            fd = state.fd
            if fd is not None:
                total += fd.total
                if fd.total:
                    attrs = plan.eq_attrs + (plan.single_ne_attr,)
                    rows = self.violating_rows_for(constraint)
                    degrees = [fd.row_violation_count(row_id) for row_id in rows]
                    fd_parts.append((np.asarray(rows, dtype=np.int64),
                                     np.asarray(degrees, dtype=np.int64),
                                     attrs))
                    names.update(attrs)
                continue
            violations = self.violations_for(constraint)
            total += len(violations)
            for violation in violations:
                for cell in violation.cells():
                    cell_parts.append((cell.row, cell.attribute))
                    names.add(cell.attribute)
        attrs_tuple = tuple(sorted(names))
        if not attrs_tuple:
            empty = np.empty(0, dtype=np.int64)
            return total, empty, empty, empty, attrs_tuple
        code_of = {name: code for code, name in enumerate(attrs_tuple)}
        n_attrs = len(attrs_tuple)
        packed_parts: list[np.ndarray] = []
        count_parts: list[np.ndarray] = []
        for rows, degrees, attrs in fd_parts:
            codes = np.asarray([code_of[a] for a in attrs], dtype=np.int64)
            packed_parts.append((rows[:, None] * n_attrs + codes[None, :]).ravel())
            count_parts.append(np.repeat(degrees, len(attrs)))
        if cell_parts:
            packed_parts.append(np.asarray(
                [row * n_attrs + code_of[attr] for row, attr in cell_parts],
                dtype=np.int64))
            count_parts.append(np.ones(len(cell_parts), dtype=np.int64))
        packed = np.concatenate(packed_parts)
        keys, inverse = np.unique(packed, return_inverse=True)
        counts = np.bincount(
            inverse, weights=np.concatenate(count_parts),
            minlength=len(keys),
        ).astype(np.int64)
        return total, keys // n_attrs, keys % n_attrs, counts, attrs_tuple

    # -- pair forking -------------------------------------------------------------------

    def fork_onto(self, view: PerturbationView,
                  differing_cells: Iterable[CellRef]) -> "RepairWalk":
        """Clone the primed state onto a sibling view differing in known cells.

        ``view`` must share this walk's base table and differ from this walk's
        *current* view content only at (a subset of) ``differing_cells`` —
        which is exactly the with/without pair contract: call right after
        :meth:`prime`, before the owning repair loop writes anything.  Only
        the differing cells' rows are retracted and re-checked; everything
        else (violation lists, forked indexes, the pristine row cache) carries
        over.
        """
        clone = RepairWalk.__new__(RepairWalk)
        clone.view = view
        clone.detector = self.detector
        clone.constraints = list(self.constraints)
        clone._log = view.change_log
        clone._row_log_pos = len(clone._log)
        clone._pristine_rows = self._pristine_rows  # shared row cache (see class doc)
        clone._local_rows = {}
        clone._dirty_rows = set()
        log_pos = len(clone._log)
        clone._cstates = {
            constraint: _WalkConstraint(
                # the materialisation cache is never mutated in place, so the
                # clone can share it; list-mode lists are copied (retraction
                # rebuilds them, but the parent keeps reading its own)
                state.violations if state.fd is not None
                else list(state.violations),
                log_pos,
                state.fd.fork() if state.fd is not None else None,
            )
            for constraint, state in self._cstates.items()
        }
        clone._windexes = {
            eq_attrs: _WalkIndex(walk_index.index.fork(), dict(walk_index.keys), log_pos)
            for eq_attrs, walk_index in self._windexes.items()
        }

        my_value = self.view.value
        other_value = view.value
        changed = [cell for cell in differing_cells
                   if values_differ(my_value(cell.row, cell.attribute),
                                    other_value(cell.row, cell.attribute))]
        if not changed:
            return clone
        clone._dirty_rows.update(cell.row for cell in changed)
        for eq_attrs, walk_index in clone._windexes.items():
            rows = {cell.row for cell in changed if cell.attribute in eq_attrs}
            if rows:
                clone._move_index_rows(walk_index, eq_attrs, rows)
        for constraint, state in clone._cstates.items():
            plan = clone.detector._state(constraint).plan
            rows = {cell.row for cell in changed if cell.attribute in plan.mentioned}
            if rows:
                clone._retract_recheck(constraint, plan, rows, state)
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
