"""Hash indexes over column tuples, maintainable under sparse cell deltas.

Violation detection for denial constraints with equality predicates
(``t1[A] = t2[A]``) is driven by hash partitioning: rows are grouped by the
value of the equality attribute, and only rows inside a group can possibly
violate the constraint.  This turns the quadratic pair scan into work
proportional to the sum of squared group sizes, which is what makes the
Shapley sampling loop (thousands of repair invocations) tractable.

:class:`MultiColumnIndex` additionally supports *delta maintenance*
(:meth:`~MultiColumnIndex.apply_delta` /
:meth:`~MultiColumnIndex.revert_delta`): given the sparse cell delta of a
perturbed table instance, only the touched row ids are moved between groups,
so the incremental violation detector (:mod:`repro.constraints.incremental`)
can reuse one index across thousands of perturbations instead of rebuilding
it from scratch per instance.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from typing import Any, Iterable, Iterator, Mapping

from repro.engine.storage import is_null, null_mask


def _group_remove(groups: dict, key: Any, row: int) -> None:
    """Remove ``row`` from its (sorted) group, dropping the group if emptied."""
    rows = groups.get(key)
    if rows is None:
        return
    position = bisect_left(rows, row)
    if position < len(rows) and rows[position] == row:
        del rows[position]
    if not rows:
        del groups[key]


def _group_insert(groups: dict, key: Any, row: int) -> None:
    """Insert ``row`` into its group, keeping the row ids sorted."""
    rows = groups.get(key)
    if rows is None:
        groups[key] = [row]
    else:
        insort(rows, row)


class MultiColumnIndex:
    """Index on a tuple of columns, used by multi-equality constraints.

    Group row ids are kept sorted ascending — guaranteed at build time and
    preserved by :meth:`apply_delta` / :meth:`revert_delta` (insertions use
    binary search).

    Rows with a null in any indexed column are left out: a null never
    matches an equality predicate (this mirrors SQL semantics and is what
    the paper's cell-coalition definition needs — a nulled-out cell cannot
    create a violation).  One column is indexed as a one-element key.
    """

    __slots__ = ("attributes", "_groups", "_build_keys")

    def __init__(self, store, attributes: Iterable[str]):
        self.attributes = tuple(attributes)
        groups: dict[tuple, list[int]] = defaultdict(list)
        columns = [store.column(attr) for attr in self.attributes]
        build_keys: list[tuple | None] = []
        try:
            if not columns:
                raise TypeError("no indexed columns")
            invalid = null_mask(columns[0])
            for column in columns[1:]:
                invalid |= null_mask(column)
            invalid = invalid.tolist()
        except TypeError:  # exotic values where elementwise == misbehaves
            invalid = [any(is_null(column[row_id]) for column in columns)
                       for row_id in range(store.n_rows)]
        for row_id in range(store.n_rows):
            if invalid[row_id]:
                build_keys.append(None)
                continue
            key = tuple(column[row_id] for column in columns)
            build_keys.append(key)
            groups[key].append(row_id)
        self._groups = {key: sorted(rows) for key, rows in groups.items()}
        #: per-row key at construction time (None when a component was null);
        #: NOT updated by apply_delta — it records the base snapshot's keys
        self._build_keys = build_keys

    def build_key_of(self, row: int) -> tuple | None:
        """The row's key in the store the index was built over.

        Unaffected by :meth:`apply_delta` — the incremental detector uses this
        as an O(1) lookup of base-snapshot keys while a delta is applied.
        """
        return self._build_keys[row]

    def fork(self) -> "MultiColumnIndex":
        """An independent copy sharing the (immutable) build-time keys.

        A fork can have deltas applied and *kept* applied for the lifetime of
        a repair walk, while the original keeps serving the apply/revert
        pattern of per-instance detection.  Cost is O(groups + rows in
        groups); the ``_build_keys`` list is shared: only a base-table
        update patches it, and that moves the base snapshot every fork was
        taken from.
        """
        clone = MultiColumnIndex.__new__(MultiColumnIndex)
        clone.attributes = self.attributes
        clone._groups = {key: list(rows) for key, rows in self._groups.items()}
        clone._build_keys = self._build_keys
        return clone

    def rows_with_key(self, key: tuple) -> list[int]:
        if any(is_null(part) for part in key):
            return []
        return list(self._groups.get(tuple(key), ()))

    def groups(self) -> Iterator[tuple[tuple, list[int]]]:
        for key, rows in self._groups.items():
            yield key, list(rows)

    def __len__(self) -> int:
        return len(self._groups)

    # -- delta maintenance -----------------------------------------------------

    def apply_delta(self, changes: Mapping[int, tuple[tuple | None, tuple | None]]) -> None:
        """Move touched rows between groups for ``{row: (old_key, new_key)}``.

        ``None`` on either side means the row is absent from the index on that
        side (its key contains a null).  Only the rows in ``changes`` are
        touched.
        """
        groups = self._groups
        for row, (old_key, new_key) in changes.items():
            if old_key is not None:
                _group_remove(groups, old_key, row)
            if new_key is not None:
                _group_insert(groups, new_key, row)

    def revert_delta(self, changes: Mapping[int, tuple[tuple | None, tuple | None]]) -> None:
        """Undo a previous :meth:`apply_delta` with the same ``changes``."""
        groups = self._groups
        for row, (old_key, new_key) in changes.items():
            if new_key is not None:
                _group_remove(groups, new_key, row)
            if old_key is not None:
                _group_insert(groups, old_key, row)


class HashIndex:
    """Retired (ROADMAP item 1): a :class:`MultiColumnIndex` over one column
    does the same job."""

    def apply_delta(self, *args, **kwargs):
        """Retired stub (ROADMAP item 1)."""
        raise NotImplementedError("HashIndex is retired")

    def revert_delta(self, *args, **kwargs):
        """Retired stub (ROADMAP item 1)."""
        raise NotImplementedError("HashIndex is retired")
