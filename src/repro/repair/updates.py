"""The base-update vocabulary: deltas, the session log, table application.

A *base update* is a write to the dirty table itself — the user corrects a
source cell mid-session — as opposed to the hypothetical perturbations the
Shapley sampler materialises by the thousand.  The contract of this module
is the live-session invariant: applying a :class:`BaseUpdateDelta` through
:func:`apply_table_update` and then explaining must be bit-identical to
building a fresh session on the post-update table.

The pieces:

* :class:`BaseCellUpdate` — one cell write with both sides recorded, so
  every downstream maintainer (statistics, detector indexes) can patch by
  delta instead of rescanning;
* :class:`BaseUpdateDelta` — one atomic batch of writes plus the
  post-update reference target value, picklable so resident workers can be
  patched in place over the pool pipe (``worker_rebuilds`` stays flat);
* :class:`BaseUpdateLog` — the session's append-only record of applied
  deltas (the CLI's ``--update`` replay and the chaos harness's
  reconciliation read it);
* :func:`apply_table_update` — the one routine that mutates a live table:
  it writes the cells (``Table.set_value`` keeps built statistics in step
  and drops the cached fingerprint) and delta-maintains a live incremental
  detector instead of letting it fall back to a full rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.dataset.table import CellRef, Table
from repro.engine.storage import values_differ
from repro.errors import SchemaError


@dataclass(frozen=True)
class BaseCellUpdate:
    """One base-table cell write: the cell, what it held, what it holds now."""

    cell: CellRef
    old_value: Any
    new_value: Any


@dataclass(frozen=True)
class BaseUpdateDelta:
    """One atomic batch of base-table writes, as shipped to resident workers.

    ``target_value`` is the reference repaired value of the cell of interest
    *after* the update (the parent re-runs the repair once and ships the
    answer, exactly like :class:`~repro.parallel.job.ExplainJobSpec` does at
    job time — workers never re-run the reference repair).
    """

    updates: tuple[BaseCellUpdate, ...]
    target_value: Any = None

    def changes(self) -> dict[CellRef, tuple[Any, Any]]:
        """The batch as a ``{cell: (old, new)}`` mapping (maintainer input)."""
        return {u.cell: (u.old_value, u.new_value) for u in self.updates}

    def __len__(self) -> int:
        return len(self.updates)


@dataclass
class BaseUpdateLog:
    """The session's append-only record of applied base updates."""

    applied: list[BaseUpdateDelta] = field(default_factory=list)

    def append(self, delta: BaseUpdateDelta) -> None:
        self.applied.append(delta)

    def __len__(self) -> int:
        return len(self.applied)

    def __iter__(self) -> Iterator[BaseUpdateDelta]:
        return iter(self.applied)

    @property
    def cells_written(self) -> int:
        return sum(len(delta) for delta in self.applied)


def collect_changes(table: Table,
                    values: Mapping[CellRef, Any]) -> dict[CellRef, tuple[Any, Any]]:
    """Normalise requested writes against the live table.

    Validates every cell and value, reads the current value, and drops
    writes that do not change content (null-aware) — a no-op write must not
    invalidate anything, or the "update + explain ≡ fresh session" invariant
    would cost a pointless refresh.  A value must be hashable: the
    statistics, indexes and dictionary encoding all key on cell values, so
    an unhashable one raises :class:`~repro.errors.SchemaError` before any
    write is applied.
    """
    changes: dict[CellRef, tuple[Any, Any]] = {}
    for cell, new_value in values.items():
        cell = table.validate_cell(cell)
        try:
            hash(new_value)
        except TypeError:
            raise SchemaError(
                f"cannot write {new_value!r} to {cell}: cell values must be "
                f"hashable, got {type(new_value).__name__}"
            ) from None
        old_value = table[cell]
        if values_differ(old_value, new_value):
            changes[cell] = (old_value, new_value)
    return changes


def apply_table_update(table: Table,
                       changes: Mapping[CellRef, tuple[Any, Any]]) -> None:
    """Mutate a live table in place and keep its derived state in step.

    ``Table.set_value`` bumps the version, drops the cached fingerprint (the
    next lookup computes the new base's) and patches any built statistics
    per cell; a live incremental detector (one whose base state matches the
    pre-update version) is delta-maintained here instead of being left to
    fall back to a full rebuild on its next query.  Oracle caches need no
    anchor: their keys name content, not a base state.
    """
    pre_version = table.version
    detector = getattr(table, "_incremental_detector", None)
    for cell, (_old, new_value) in changes.items():
        table.set_value(cell.row, cell.attribute, new_value)
    if detector is not None and detector.base_version == pre_version:
        detector.apply_base_update(changes)
