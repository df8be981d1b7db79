"""Copy-on-write overlay storage.

The Shapley sampling loop evaluates tens of thousands of *perturbed* table
instances, each differing from the dirty table in a sparse set of cells.
Materialising each instance as a full :class:`~repro.engine.storage.ColumnStore`
copy makes every oracle query pay O(cells) before any real work starts.

:class:`OverlayStore` removes that cost: it satisfies the ``ColumnStore`` read
interface while holding only a sparse ``{(row, attribute): value}`` delta on
top of a shared, immutable base store.  Reads consult the delta first and fall
through to the base; writes go into the delta (the base is never touched);
fingerprints — the repair oracle's memoisation keys — are derived from the
base's current fingerprint plus the sorted delta, so hashing a perturbed
instance is O(|delta|) instead of O(cells).

The delta dictionary is *shared* with the owning
:class:`~repro.dataset.table.PerturbationView` and is kept normalised: it
never contains an entry whose value equals the base cell (null-aware), which
makes equal contents produce equal fingerprints regardless of how the delta
was built.  It is the source of truth for values and fingerprints.

Next to it the overlay keeps the view's current *codes* of every column read
so far (:meth:`OverlayStore.codes`: the base's code array with the encoded
delta scattered in), shared copy-on-write with sibling overlays until a
column is written.  A write batch is encoded once, into those arrays: its
old codes are one gather, the delta is normalised by comparing codes with
the base's, and the batch's ``(old codes, new codes)`` go on to the
statistics, while the repair walk and the rule pass read the arrays.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterator, Sequence

import numpy as np

from repro.engine.encoding import scatter_codes
from repro.engine.storage import (
    NAN,
    ColumnStore,
    Fingerprint,
    checked_rows,
    is_nan,
    stores_equal,
    values_differ,
)
from repro.errors import UnknownAttributeError

_MISSING = object()

#: shared empty encoded-delta arrays for untouched columns (read-only)
_EMPTY_ROWS = np.empty(0, dtype=np.int64)
_EMPTY_ROWS.flags.writeable = False
_EMPTY_CODES = np.empty(0, dtype=np.int32)
_EMPTY_CODES.flags.writeable = False


class OverlayStore:
    """A sparse cell delta layered over a base :class:`ColumnStore`.

    Parameters
    ----------
    base:
        The shared base store.  It must not be mutated while overlays built on
        it are alive (the library's views are only ever built over frozen
        snapshots such as the dirty table).
    delta:
        Mapping ``(row, attribute) -> value`` of overridden cells.  The mapping
        is *shared*, not copied: the owning view normalises it on construction
        and :meth:`set_values` keeps it normalised afterwards.
    """

    __slots__ = ("_base", "_delta", "_by_column", "_materialized",
                 "_encoded_cache", "_codes", "_shared", "_fingerprint",
                 "change_log")

    def __init__(self, base: ColumnStore, delta: dict):
        self._base = base
        self._delta = delta
        self._by_column: dict[str, dict[int, Any]] | None = None
        self._materialized: dict[str, np.ndarray] = {}
        #: per-column encoded delta, ``name -> (rows, codes) | None``; filled
        #: lazily by :meth:`encoded_delta_arrays`, primed from outside by
        #: :meth:`adopt_encoded_delta`, invalidated per column on write
        self._encoded_cache: dict[str, Any] = {}
        #: the view's current codes per column read so far, ``name ->
        #: int32 array | None`` (see :meth:`codes`)
        self._codes: dict[str, np.ndarray | None] = {}
        #: columns whose code array another store (the base or a sibling)
        #: also holds: copied before this store writes it
        self._shared: set[str] = set()
        self._fingerprint: Fingerprint | None = None
        #: append-only ``(row, attribute)`` log of every write,
        #: including writes that restore the base value.  Second-order
        #: violation maintenance (:class:`~repro.constraints.incremental.RepairWalk`)
        #: reads it at independent positions to derive view→view deltas
        #: without ever snapshotting the delta dict.
        self.change_log: list[tuple[int, str]] = []

    # -- basic introspection ---------------------------------------------------

    @property
    def base(self) -> ColumnStore:
        return self._base

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._base.column_names

    @property
    def n_rows(self) -> int:
        return self._base.n_rows

    @property
    def n_columns(self) -> int:
        return self._base.n_columns

    def __len__(self) -> int:
        return self._base.n_rows

    def __contains__(self, name: str) -> bool:
        return name in self._base

    # -- delta bookkeeping ------------------------------------------------------

    def delta_by_column(self) -> dict[str, dict[int, Any]]:
        """The delta grouped per column: ``{attribute: {row: value}}``.

        Built lazily from the delta and dropped by the next write.  The
        returned mapping is the overlay's internal cache — callers must
        treat it as read-only.  This is the incremental detector's zero-copy
        window onto the delta (no per-cell objects are built).
        """
        if self._by_column is None:
            by_column: dict[str, dict[int, Any]] = {}
            for (row, name), value in self._delta.items():
                by_column.setdefault(name, {})[row] = value
            self._by_column = by_column
        return self._by_column

    def encoded_delta(self, name: str) -> "dict[int, int] | None":
        """One column's delta in code space: ``{row: int32 code}``.

        Codes come from the *base* store's append-only dictionaries, so they
        are directly comparable with the base's encoded column.  Returns
        ``None`` when the column (or a delta value) is unencodable.  The
        per-cell reference for :meth:`encoded_delta_arrays`.
        """
        overrides = self.delta_by_column().get(name)
        if not overrides:
            return {}
        encoding = self._base.encoding()
        encoded: dict[int, int] = {}
        for row, value in overrides.items():
            code = encoding.code_for(name, value)
            if code is None:
                return None
            encoded[row] = code
        return encoded

    def encoded_delta_arrays(self, name: str) -> "tuple[np.ndarray, np.ndarray] | None":
        """One column's delta in code space as parallel ``(rows, codes)`` arrays.

        The bulk sibling of :meth:`encoded_delta`: rows are ascending
        ``int64``, codes ``int32`` from the base dictionaries, cached per
        column.  Read off the column's code array when the overlay holds one
        (the rows whose code differs from the base's), else encoded from the
        overrides in one :meth:`~repro.engine.encoding.TableEncoding.encode_delta`
        pass.  ``None`` marks an unencodable column (object-path fallback),
        exactly when :meth:`encoded_delta` would return ``None``.
        """
        cached = self._encoded_cache.get(name, _MISSING)
        if cached is not _MISSING:
            return cached
        codes = self._codes.get(name)
        if codes is not None:
            base = self._base
            rows = np.flatnonzero(codes != base.encoding().codes(base, name))
            result = (rows, codes[rows])
            rows.flags.writeable = result[1].flags.writeable = False
        else:
            overrides = self.delta_by_column().get(name)
            if not overrides:
                result = (_EMPTY_ROWS, _EMPTY_CODES)
            else:
                result = self._base.encoding().encode_delta(name, overrides)
        self._encoded_cache[name] = result
        return result

    def adopt_encoded_delta(self, name: str, rows: np.ndarray,
                            codes: np.ndarray) -> None:
        """Install a precomputed encoded delta for ``name``.

        The coalition sampler's priming hook: deterministic-policy overlays
        are born in code space (one masked slice of a precomputed per-column
        encoding), so the view never re-encodes them.  The caller guarantees
        ``rows`` ascend and the pair matches the column's current delta
        contents under the base dictionaries.
        """
        self._encoded_cache[name] = (rows, codes)

    def codes(self, name: str) -> "np.ndarray | None":
        """The view's current column as ``int32`` codes of the base dictionaries.

        Built on first read: the base's code array (shared while the view
        does not override the column) with :meth:`encoded_delta_arrays`
        scattered into a copy.  Every :meth:`set_values` batch keeps it
        current.  Read-only for callers.  ``None`` when the column, or one
        of its overrides, cannot be coded.
        """
        codes = self._codes.get(name, _MISSING)
        if codes is _MISSING:
            base = self._base
            codes = base.encoding().codes(base, name)
            if codes is not None:
                encoded = self.encoded_delta_arrays(name)
                if encoded is None:
                    codes = None
                elif len(encoded[0]):
                    codes = codes.copy()
                    codes[encoded[0]] = encoded[1]
                else:
                    self._shared.add(name)  # the base's own array
            self._codes[name] = codes
        return codes

    def share_codes(self, source: "OverlayStore", cells=()) -> None:
        """Adopt ``source``'s code arrays.

        The two overlays must hold equal contents except at ``cells``
        (``(row, attribute)`` pairs).  A column without such a cell adopts
        ``source``'s array, shared copy-on-write: whichever overlay writes
        the column first copies it.  A column holding one gets a copy of
        ``source``'s array with those cells re-encoded from this overlay's
        values, so its encoded delta is never re-derived from the whole
        delta (the column is left to :meth:`codes` when a value cannot be
        coded).
        """
        mine = self._codes
        patches: dict[str, list[int]] = {}
        for row, name in cells:
            patches.setdefault(name, []).append(row)
        for name, codes in source._codes.items():
            if name in mine or codes is None:
                continue
            rows = patches.get(name)
            if rows is None:
                mine[name] = codes
                self._shared.add(name)
                source._shared.add(name)
                continue
            code_for = self._base.encoding().code_for
            patch = [code_for(name, self.value(row, name)) for row in rows]
            if None not in patch:
                codes = mine[name] = codes.copy()
                codes[rows] = patch

    # -- access ---------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """The column with the delta applied (read-only; cached per column)."""
        cached = self._materialized.get(name)
        if cached is not None:
            return cached
        overrides = self.delta_by_column().get(name)
        if not overrides:
            column = self._base.column(name)
        else:
            column = self._base.column(name).copy()
            for row, value in overrides.items():
                column[row] = value
            column.flags.writeable = False
        self._materialized[name] = column
        return column

    def value(self, row: int, name: str) -> Any:
        value = self._delta.get((row, name), _MISSING)
        if value is not _MISSING:
            return value
        return self._base.value(row, name)

    def row(self, row: int) -> tuple[Any, ...]:
        base_row = self._base.row(row)
        if not self._delta:
            return base_row
        override = self._delta.get
        return tuple(override((row, name), value)
                     for name, value in zip(self._base.column_names, base_row))

    def iter_rows(self) -> Iterator[tuple[Any, ...]]:
        for i in range(self.n_rows):
            yield self.row(i)

    # -- mutation --------------------------------------------------------------

    def set_value(self, row: int, name: str, value: Any) -> None:
        """Write one cell into the delta (see :meth:`set_values`)."""
        self.set_values(name, (row,), (value,))

    def set_values(self, name: str, rows: Sequence[int], values: Sequence[Any]):
        """Write ``values[i]`` into ``rows[i]`` of one column, in order.

        Writes go into the delta (the base store is never modified); writing
        a value equal to the base cell removes the delta entry, so the delta
        stays normalised and fingerprints of equal contents stay equal.
        Every write is appended to :attr:`change_log`, and the column's
        derived caches and the fingerprint are invalidated once per batch.

        The batch is encoded once (one dictionary probe per value) into the
        column's code array: the old codes are one gather, a cell differs
        from the base exactly when its code does, and the new codes are one
        scatter.  Returns the batch's ``(old codes, new codes)`` (a repeated
        row's old code is the earlier write's), or ``(None, None)`` when the
        column or a written value cannot be coded — such a batch takes the
        per-cell object path.
        """
        base = self._base
        if name not in base:
            raise UnknownAttributeError(name, base.column_names)
        rows = checked_rows(rows, values, base.n_rows)
        if not rows:
            return None, None
        codes = self.codes(name)  # the pre-batch codes, before the caches drop
        keys = list(zip(rows, repeat(name)))
        self.change_log.extend(keys)
        self._materialized.pop(name, None)
        self._encoded_cache.pop(name, None)
        self._by_column = None
        self._fingerprint = None
        new = None
        if codes is not None:
            new = base.encoding().dictionary(name).encode_list(values)
        if new is None:
            self._codes.pop(name, None)  # re-derived from the delta on read
            self._shared.discard(name)
            base_column = base.column(name)
            for key, value in zip(keys, values):
                if values_differ(base_column[key[0]], value):
                    self._delta[key] = value
                else:
                    self._delta.pop(key, None)
            return None, None
        if name in self._shared:
            codes = self._codes[name] = codes.copy()
            self._shared.discard(name)
        old, new = scatter_codes(codes, rows, new)
        base_codes = base.encoding().codes(base, name)
        delta = self._delta
        if len(rows) == 1:
            if new[0] != base_codes.item(rows[0]):
                delta[keys[0]] = values[0]
            else:
                delta.pop(keys[0], None)
            return old, new
        differs = new != base_codes[rows]
        if differs.all():
            delta.update(zip(keys, values))
        else:  # in order: a row written twice keeps its last write
            for key, value, differ in zip(keys, values, differs.tolist()):
                if differ:
                    delta[key] = value
                else:
                    delta.pop(key, None)
        return old, new

    def copy(self) -> ColumnStore:
        """Materialise the overlay into an independent plain :class:`ColumnStore`."""
        clone = ColumnStore.__new__(ColumnStore)
        clone._names = self._base.column_names
        clone._n_rows = self._base.n_rows
        clone._columns = {
            name: self.column(name).copy() for name in self._base.column_names
        }
        clone._fingerprint = None
        clone._recent = ()
        clone._encoding = None
        clone._null_masks = {}
        return clone

    # -- comparison / hashing helpers -------------------------------------------

    def fingerprint(self) -> Fingerprint:
        """Delta-derived memoisation key: O(|delta|) given a fingerprinted base.

        ``("overlay", base fingerprint, items)``, where ``items`` is the
        normalised delta flattened in ``(row, attribute)`` order into one
        tuple ``(row, attribute, value, row, …)`` (one tuple per key rather
        than one per cell: oracle caches keep their keys across base
        states), a NaN value held as :data:`~repro.engine.storage.NAN`.
        Two overlays over equal bases with equal effective contents produce
        equal fingerprints; an overlay never equals a plain store's
        fingerprint, which only costs the oracle a cache miss, never a wrong
        answer.  The cached key is rebuilt when the base's fingerprint
        object is no longer the one it embeds, i.e. after a write to the
        base: a key must always name the content it is read for.
        """
        base = self._base.fingerprint()
        fingerprint = self._fingerprint
        if fingerprint is None or fingerprint.data[1] is not base:
            delta = self._delta
            items: list = []
            extend = items.extend
            for key in sorted(delta):
                value = delta[key]
                if value != value and is_nan(value):
                    value = NAN
                extend((key[0], key[1], value))
            fingerprint = self._fingerprint = Fingerprint(
                ("overlay", base, tuple(items))
            )
        return fingerprint

    def equals(self, other) -> bool:
        """Content equality with any store exposing the read interface."""
        return stores_equal(self, other)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"OverlayStore({self.n_rows} rows x {self.n_columns} columns, "
            f"{len(self._delta)} overridden cells)"
        )
