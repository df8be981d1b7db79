"""The cell-addressable table model.

This module defines the three objects the rest of the library is written in
terms of:

* :class:`CellRef` — the address ``t_i[A]`` of a single cell,
* :class:`Table` — an immutable-by-convention table ``T`` with schema
  ``(A_1, ..., A_m)`` supporting cheap perturbed copies (cells nulled out or
  replaced), which is exactly what the black-box Shapley queries need, and
* :class:`RepairDelta` — the set of cell changes between a dirty table
  ``T^d`` and its repair ``T^c``.
"""

from __future__ import annotations

import re

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro.dataset.schema import AttributeSpec, Schema
from repro.engine.stats import TableStatistics
from repro.engine.storage import NULL, ColumnStore, Fingerprint, is_null, values_differ
from repro.engine.view import OverlayStore
from repro.errors import SchemaError, UnknownAttributeError, UnknownRowError

#: The paper's cell notation: ``t<row>[<attribute>]`` with a non-empty
#: attribute and nothing before or after.
_CELL_REF_PATTERN = re.compile(r"t(\d+)\[([^\[\]]+)\]\Z")

#: sentinel for "no delta entry — the cell carries the base value"
_BASE = object()


class CellRef(NamedTuple):
    """Address of one table cell, ``t_row[attribute]`` in the paper's notation."""

    row: int
    attribute: str

    def __str__(self) -> str:
        return f"t{self.row + 1}[{self.attribute}]"

    @classmethod
    def parse(cls, text: str) -> "CellRef":
        """Parse the paper's ``t5[Country]`` notation (1-based row index)."""
        text = text.strip()
        match = _CELL_REF_PATTERN.fullmatch(text)
        if match is None:
            if re.fullmatch(r"t\d+\[\]", text):
                raise SchemaError(
                    f"cell reference {text!r} has an empty attribute name"
                )
            if re.match(r"t\d+\[[^\[\]]+\]", text):
                raise SchemaError(
                    f"cell reference {text!r} has trailing characters after ']'"
                )
            raise SchemaError(
                f"cannot parse cell reference {text!r}: expected 't<row>[<attribute>]'"
            )
        row = int(match.group(1)) - 1
        if row < 0:
            raise SchemaError(f"cell reference {text!r} has a non-positive row index")
        return cls(row=row, attribute=match.group(2))


@dataclass(frozen=True)
class CellChange:
    """One repaired cell: its address, original value and repaired value."""

    cell: CellRef
    old_value: Any
    new_value: Any

    def __str__(self) -> str:
        return f"{self.cell}: {self.old_value!r} -> {self.new_value!r}"


class RepairDelta:
    """The difference between a dirty table and a repaired table."""

    def __init__(self, changes: Iterable[CellChange]):
        self._changes: dict[CellRef, CellChange] = {
            change.cell: change for change in changes
        }

    def __len__(self) -> int:
        return len(self._changes)

    def __bool__(self) -> bool:
        return bool(self._changes)

    def __contains__(self, cell: CellRef) -> bool:
        return cell in self._changes

    def __iter__(self) -> Iterator[CellChange]:
        return iter(sorted(self._changes.values(), key=lambda c: (c.cell.row, c.cell.attribute)))

    def __eq__(self, other: object) -> bool:
        """Value equality over the row-major changes (null-aware, like :meth:`Table.diff`)."""
        if not isinstance(other, RepairDelta):
            return NotImplemented
        return len(self) == len(other) and all(
            a.cell == b.cell and not values_differ(a.old_value, b.old_value)
            and not values_differ(a.new_value, b.new_value) for a, b in zip(self, other))

    def cells(self) -> list[CellRef]:
        """Addresses of all repaired cells (row-major order)."""
        return [change.cell for change in self]

    def change_for(self, cell: CellRef) -> CellChange | None:
        return self._changes.get(cell)

    def new_value(self, cell: CellRef) -> Any:
        change = self._changes.get(cell)
        return change.new_value if change is not None else None

    def to_dict(self) -> dict[CellRef, tuple[Any, Any]]:
        return {
            cell: (change.old_value, change.new_value)
            for cell, change in self._changes.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RepairDelta({len(self)} cells changed)"


class Table:
    """A relational table ``T`` with schema ``(A_1, ..., A_m)``.

    The table is mutable through :meth:`set_value`, but every transformation
    used by the explanation pipeline (:meth:`with_values`, :meth:`with_cells_nulled`,
    :meth:`copy`) returns a new instance, so shared tables are never modified
    behind a caller's back.
    """

    def __init__(self, schema: Schema | Sequence[str], rows: Iterable[Sequence[Any]], name: str = "T"):
        if not isinstance(schema, Schema):
            schema = Schema([AttributeSpec(str(a)) for a in schema])
        self.schema = schema
        self.name = name
        self._store = ColumnStore.from_rows(schema.attribute_names, rows)
        self._stats: TableStatistics | None = None
        self._version = 0

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_columns(cls, columns: Mapping[str, Sequence[Any]], name: str = "T") -> "Table":
        schema = Schema(list(columns.keys()))
        rows = zip(*columns.values()) if columns else []
        return cls(schema, rows, name=name)

    @classmethod
    def _from_store(cls, schema: Schema, store: ColumnStore, name: str) -> "Table":
        table = Table.__new__(Table)
        table.schema = schema
        table.name = name
        table._store = store
        table._stats = None
        table._version = 0
        return table

    # -- shape -----------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._store.n_rows

    @property
    def n_columns(self) -> int:
        return self._store.n_columns

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_columns

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.schema.attribute_names

    def __len__(self) -> int:
        return self.n_rows

    # -- access ----------------------------------------------------------------

    def value(self, row: int, attribute: str) -> Any:
        return self._store.value(row, attribute)

    def __getitem__(self, cell: CellRef) -> Any:
        return self._store.value(cell.row, cell.attribute)

    def row(self, row: int) -> dict[str, Any]:
        """The row as an attribute → value mapping."""
        values = self._store.row(row)
        return dict(zip(self.attributes, values))

    def row_tuple(self, row: int) -> tuple[Any, ...]:
        return self._store.row(row)

    def column(self, attribute: str):
        return self._store.column(attribute)

    def cells(self) -> Iterator[CellRef]:
        """Iterate over all cell addresses in row-major (vectorised) order.

        The order matches Example 2.5's vectorisation
        ``x_T = (t1[A_1], t1[A_2], ..., t2[A_1], ..., t_n[A_m])``.
        """
        for row in range(self.n_rows):
            for attribute in self.attributes:
                yield CellRef(row, attribute)

    def cell_values(self) -> dict[CellRef, Any]:
        return {cell: self[cell] for cell in self.cells()}

    def is_null(self, cell: CellRef) -> bool:
        return is_null(self[cell])

    # -- mutation / transformation ----------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumped once per cell written.

        Snapshot-derived caches (the incremental violation detector, for one)
        record the version they were built against and rebuild when it moves.
        """
        return self._version

    def set_value(self, row: int, attribute: str, value: Any) -> None:
        """In-place cell update (delta-maintains cached statistics)."""
        self.set_values(attribute, (row,), (value,))

    def set_values(self, attribute: str, rows: Sequence[int],
                   values: Sequence[Any]) -> None:
        """In-place update of many cells of one column, as one batch.

        The same as ``set_value(row, attribute, value)`` for each pair in
        order, except that caches are invalidated and the cached statistics
        are moved once for the whole batch.  ``version`` advances by the
        number of writes.
        """
        old_values = self._store.set_values(attribute, rows, values)
        self._version += len(old_values)
        if self._stats is not None and old_values:
            self._stats.apply_cell_updates(attribute, rows, old_values, values)

    def copy(self, name: str | None = None) -> "Table":
        return Table._from_store(self.schema, self._store.copy(), name or self.name)

    def mutable_snapshot(self, name: str | None = None) -> "Table":
        """An independent snapshot that is cheap to mutate.

        For a plain table this is a full :meth:`copy`; a
        :class:`PerturbationView` overrides it to fork only its sparse delta,
        which is what lets the repair algorithms scribble on perturbed
        instances without ever materialising them.
        """
        return self.copy(name=name)

    def with_values(self, assignments: Mapping[CellRef, Any], name: str | None = None) -> "Table":
        """A copy of the table with the given cells replaced."""
        clone = self.copy(name=name)
        for cell, value in assignments.items():
            clone.set_value(cell.row, cell.attribute, value)
        return clone

    def perturbed(self, assignments: Mapping[CellRef, Any], name: str | None = None,
                  trusted: bool = False, prenormalized: bool = False) -> "PerturbationView":
        """A copy-on-write view with the given cells replaced (no column copies).

        The view satisfies the full ``Table`` read interface; building it costs
        O(|assignments|) instead of O(cells).  ``trusted=True`` skips per-cell
        address validation (internal hot-path callers whose cells are known
        valid); ``prenormalized=True`` additionally adopts ``assignments`` as
        the view's delta verbatim — the caller guarantees it is already
        normalised (no entry equal to its base cell) and never mutated again.
        This is the entry point of the incremental evaluation engine — see
        :class:`PerturbationView`.
        """
        return PerturbationView(self, assignments, name=name, trusted=trusted,
                                prenormalized=prenormalized)

    def with_cells_nulled(self, cells: Iterable[CellRef], name: str | None = None) -> "Table":
        """A copy with the given cells set to null.

        This realises the paper's coalition semantics for cell Shapley values:
        ``S ⊆ T^d`` means every cell outside ``S`` is null.
        """
        return self.with_values({cell: NULL for cell in cells}, name=name)

    def restricted_to_coalition(self, coalition: Iterable[CellRef]) -> "Table":
        """A copy where every cell *not* in ``coalition`` is nulled out."""
        keep = set(coalition)
        to_null = [cell for cell in self.cells() if cell not in keep]
        return self.with_cells_nulled(to_null)

    # -- statistics --------------------------------------------------------------

    @property
    def stats(self) -> TableStatistics:
        """Column/co-occurrence statistics of the current snapshot (cached)."""
        if self._stats is None:
            self._stats = TableStatistics(self._store)
        return self._stats

    def adopt_statistics(self, stats: TableStatistics) -> None:
        """Install externally derived statistics for this snapshot.

        ``stats`` must describe exactly this table's current contents — e.g. a
        :meth:`~repro.engine.stats.TableStatistics.fork` of a sibling
        instance's statistics with the differing cells applied, which is how
        the paired oracle avoids re-scanning columns for the second instance
        of a pair.  Subsequent :meth:`set_value` calls keep them maintained.
        """
        self._stats = stats

    @property
    def store(self) -> ColumnStore:
        return self._store

    # -- pickling -----------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle contents only, never runtime caches.

        The incremental detector cached on a snapshot
        (``_incremental_detector``) holds compiled predicate closures that
        cannot cross a pickle boundary, and the statistics bundle /
        shared-statistics engine are content-derived and rebuilt lazily —
        shipping them would only bloat the sharded scheduler's job payloads.
        A worker that unpickles a table gets a clean snapshot and re-derives
        its own caches.
        """
        state = dict(self.__dict__)
        state.pop("_incremental_detector", None)
        state["_stats"] = None
        if "_stats_engine" in state:
            state["_stats_engine"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # -- comparison ---------------------------------------------------------------

    def equals(self, other: "Table") -> bool:
        return self.schema == other.schema and self._store.equals(other._store)

    def diff(self, other: "Table") -> RepairDelta:
        """Cells whose value differs between ``self`` (dirty) and ``other`` (clean)."""
        if self.schema != other.schema or self.n_rows != other.n_rows:
            raise SchemaError("cannot diff tables with different shapes or schemas")
        changes = []
        for cell in self.cells():
            old_value = self[cell]
            new_value = other[cell]
            if old_value != new_value and not (is_null(old_value) and is_null(new_value)):
                changes.append(CellChange(cell, old_value, new_value))
        return RepairDelta(changes)

    def fingerprint(self) -> Fingerprint:
        """Hashable snapshot used to memoise black-box repair calls.

        Cached until the next mutation; for a :class:`PerturbationView` the
        fingerprint is derived from the base's cached fingerprint plus the
        sparse delta, so perturbed instances hash in O(|delta|).
        """
        return self._store.fingerprint()

    # -- validation / rendering ----------------------------------------------------

    def validate_cell(self, cell: CellRef) -> CellRef:
        """Raise if ``cell`` does not address a cell of this table.

        Returns the cell with its row as a plain ``int``.  A row must be an
        ``int`` or a numpy integer — not a ``bool``, a float or a string,
        which would otherwise slip through the range check (``True`` and
        ``1.0`` compare like ``1``) and then index a column wrongly.
        """
        if cell.attribute not in self.schema:
            raise UnknownAttributeError(cell.attribute, self.attributes)
        row = cell.row
        if isinstance(row, bool) or not isinstance(row, (int, np.integer)):
            raise SchemaError(
                f"row index of {cell!r} must be an integer, "
                f"got {type(row).__name__}"
            )
        if not 0 <= row < self.n_rows:
            raise UnknownRowError(row, self.n_rows)
        if type(row) is not int:
            cell = CellRef(int(row), cell.attribute)
        return cell

    def to_records(self) -> list[dict[str, Any]]:
        return [self.row(i) for i in range(self.n_rows)]

    def to_text(self, highlight: Iterable[CellRef] = ()) -> str:
        """Render a fixed-width textual view (used by reports and examples).

        Cells listed in ``highlight`` are wrapped in ``*stars*`` — the textual
        stand-in for the coloured highlighting of the original web GUI.
        """
        highlight = set(highlight)
        header = ["#", *self.attributes]
        body: list[list[str]] = []
        for row in range(self.n_rows):
            rendered = [f"t{row + 1}"]
            for attribute in self.attributes:
                value = self.value(row, attribute)
                text = "" if is_null(value) else str(value)
                if CellRef(row, attribute) in highlight:
                    text = f"*{text}*"
                rendered.append(text)
            body.append(rendered)
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            "  ".join(header[i].ljust(widths[i]) for i in range(len(header))),
            "  ".join("-" * widths[i] for i in range(len(header))),
        ]
        for rendered in body:
            lines.append("  ".join(rendered[i].ljust(widths[i]) for i in range(len(header))))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Table({self.name!r}, {self.n_rows} rows x {self.n_columns} columns)"


class PerturbationView(Table):
    """A copy-on-write perturbation of a base table.

    The view layers a sparse ``{CellRef: value}`` delta over the base table's
    column store (:class:`~repro.engine.view.OverlayStore`) and satisfies the
    complete ``Table`` read interface — ``value``/``row``/``column``/``stats``/
    ``fingerprint``/``diff`` all see the perturbed contents — without copying
    a single column.  This is what the Shapley sampling loop builds per
    coalition instead of materialised table copies.

    Properties of the delta:

    * **normalised** — entries whose value equals the base cell (null-aware)
      are dropped, so equal contents always carry equal deltas and equal
      :meth:`~Table.fingerprint` keys;
    * **rooted** — building a view over another view re-roots onto the
      underlying plain table and merges the deltas, so ``view.base`` is always
      a plain :class:`Table` (the invariant the incremental violation detector
      keys its caches on);
    * **composable** — :meth:`with_values` (and therefore
      :meth:`~Table.with_cells_nulled`) returns a sibling view over the same
      base with a merged delta, and :meth:`mutable_snapshot` forks the delta so
      repair algorithms can scribble on an instance in O(|delta|).

    The base table must not be mutated while views over it are alive.
    """

    def __init__(self, base: Table, assignments: Mapping[CellRef, Any] = (),
                 name: str | None = None, trusted: bool = False,
                 prenormalized: bool = False):
        if isinstance(base, PerturbationView):
            root = base._base
            delta: dict[CellRef, Any] = dict(base._delta)
            prenormalized = False  # merging into an existing delta needs the loop
        else:
            root = base
            delta = {}
        self._base = root
        self.schema = root.schema
        self.name = name or root.name
        items = assignments.items() if isinstance(assignments, Mapping) else assignments
        inherited = base._store._encoded_cache if isinstance(base, PerturbationView) else None
        if inherited:
            items = list(items)  # the merge loop and the cache carry-over both read it
        root_value = root.value
        if prenormalized:
            # the caller built an already-normalised delta (e.g. the coalition
            # sampler's precomputed null/mode overlay); adopt it verbatim
            delta = dict(assignments)
        elif trusted:
            # fast path for internal callers whose cell addresses are known
            # valid (e.g. the coalition sampler, which enumerates table.cells())
            for cell, value in items:
                if values_differ(root_value(cell[0], cell[1]), value):
                    delta[cell] = value
                else:
                    delta.pop(cell, None)
        else:
            for cell, value in items:
                if not isinstance(cell, CellRef):
                    cell = CellRef(*cell)
                cell = root.validate_cell(cell)
                if values_differ(root_value(cell.row, cell.attribute), value):
                    delta[cell] = value
                else:
                    delta.pop(cell, None)
        self._delta = delta
        # the overlay shares (does not copy) the delta dict, so in-place
        # writes routed through Table.set_values stay visible here
        self._store = OverlayStore(root.store, delta)
        if inherited:
            # columns untouched by the merge keep the base view's encoded
            # delta arrays: their per-column override dicts are identical and
            # the dictionaries are append-only, so the codes stay valid
            touched = {cell[1] for cell, _ in items}
            cache = self._store._encoded_cache
            for column, entry in inherited.items():
                if column not in touched:
                    cache[column] = entry
        self._stats = None
        #: shared-statistics engine inherited along the view lineage (the
        #: oracle/sampler install it on the root views they build); see
        #: :attr:`stats`
        self._stats_engine = base._stats_engine if isinstance(base, PerturbationView) else None
        self._version = 0

    # -- view-specific introspection --------------------------------------------

    @property
    def base(self) -> Table:
        """The plain table this view perturbs (never another view)."""
        return self._base

    @property
    def delta(self) -> dict[CellRef, Any]:
        """The normalised sparse delta as a ``{CellRef: value}`` mapping."""
        return {CellRef(row, attribute): value
                for (row, attribute), value in self._delta.items()}

    def delta_by_column(self) -> dict[str, dict[int, Any]]:
        """The delta grouped per column, ``{attribute: {row: value}}`` (read-only).

        Cheaper than :attr:`delta` on the hot path: the grouping is cached by
        the overlay store and no :class:`CellRef` objects are built.
        """
        return self._store.delta_by_column()

    @property
    def change_log(self) -> list:
        """Append-only ``(row, attribute)`` log of every write to this view.

        Second-order violation maintenance
        (:class:`~repro.constraints.incremental.RepairWalk`) reads it to
        derive view→view deltas between a repair loop's passes.
        """
        return self._store.change_log

    def differing_cells(self, other: "PerturbationView") -> list[CellRef]:
        """Cells whose effective content differs between two sibling views.

        Both views must share the same base table.  Because both deltas are
        normalised over that base, a cell differs exactly when its delta
        *entry* differs (present in one view only, or present in both with
        different values) — one C-level symmetric difference over the delta
        items.  This is how the paired oracle derives the one-cell sub-delta
        separating a with/without instance pair without trusting the caller.
        """
        if not isinstance(other, PerturbationView) or other._base is not self._base:
            raise SchemaError(
                "differing_cells requires two views over the same base table"
            )
        try:
            changed = {cell for cell, _ in self._delta.items() ^ other._delta.items()}
        except TypeError:
            # unhashable cell values: fall back to a per-cell comparison
            changed = set()
            for cell in self._delta.keys() | other._delta.keys():
                mine = self._delta.get(cell, _BASE)
                theirs = other._delta.get(cell, _BASE)
                if mine is _BASE or theirs is _BASE or values_differ(mine, theirs):
                    changed.add(cell)
        cells = [cell if isinstance(cell, CellRef) else CellRef(*cell) for cell in changed]
        cells.sort(key=lambda cell: (cell.row, cell.attribute))
        return cells

    # -- statistics ---------------------------------------------------------------

    @property
    def stats(self) -> TableStatistics:
        """Statistics of the view's contents.

        When a :class:`~repro.engine.stats.SharedStatistics` engine travels
        with the view (installed by the oracle/sampler on the hot path and
        inherited through :meth:`mutable_snapshot`/:meth:`with_values`), the
        engine's single revertible instance is *leased*: moved onto this
        view's contents by its sparse delta instead of rebuilt from scratch.
        Without an engine a per-view bundle is built lazily, exactly as for a
        plain table.  Values are identical either way.
        """
        if self._stats is None:
            engine = self._stats_engine
            if engine is not None:
                self._stats = engine.lease(self)
            else:
                self._stats = TableStatistics(self._store)
        return self._stats

    # -- overridden transformations ---------------------------------------------

    def with_values(self, assignments: Mapping[CellRef, Any], name: str | None = None) -> "PerturbationView":
        """A sibling view over the same base with the assignments merged in."""
        return PerturbationView(self, assignments, name=name or self.name)

    def mutable_snapshot(self, name: str | None = None) -> "PerturbationView":
        """Fork the delta (O(|delta|)) instead of copying columns (O(cells))."""
        return PerturbationView(self, {}, name=name or self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PerturbationView({self.name!r}, {self.n_rows} rows x "
            f"{self.n_columns} columns, {len(self._delta)} perturbed cells)"
        )
