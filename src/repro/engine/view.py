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
base's cached fingerprint plus the sorted delta, so hashing a perturbed
instance is O(|delta|) instead of O(cells).

The delta dictionary is *shared* with the owning
:class:`~repro.dataset.table.PerturbationView` and is kept normalised: it
never contains an entry whose value equals the base cell (null-aware), which
makes equal contents produce equal fingerprints regardless of how the delta
was built.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterator, Sequence

import numpy as np

from repro.engine.storage import (
    ColumnStore,
    Fingerprint,
    stores_equal,
    values_differ,
)
from repro.errors import UnknownAttributeError, UnknownRowError

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

    __slots__ = ("_base", "_delta", "_by_row", "_by_column", "_materialized",
                 "_encoded_cache", "_fingerprint", "change_log")

    def __init__(self, base: ColumnStore, delta: dict):
        self._base = base
        self._delta = delta
        self._by_row: dict[int, dict[str, Any]] | None = None
        self._by_column: dict[str, dict[int, Any]] | None = None
        self._materialized: dict[str, np.ndarray] = {}
        #: per-column encoded delta, ``name -> (rows, codes) | None``; filled
        #: lazily by :meth:`encoded_delta_arrays`, primed from outside by
        #: :meth:`adopt_encoded_delta`, invalidated per column on write
        self._encoded_cache: dict[str, Any] = {}
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

    def _grouped(self) -> tuple[dict[int, dict[str, Any]], dict[str, dict[int, Any]]]:
        """The delta split by row and by column (built lazily, rebuilt on write)."""
        if self._by_row is None:
            by_row: dict[int, dict[str, Any]] = {}
            by_column: dict[str, dict[int, Any]] = {}
            for (row, name), value in self._delta.items():
                by_row.setdefault(row, {})[name] = value
                by_column.setdefault(name, {})[row] = value
            self._by_row = by_row
            self._by_column = by_column
        return self._by_row, self._by_column

    def delta_by_column(self) -> dict[str, dict[int, Any]]:
        """The delta grouped per column: ``{attribute: {row: value}}``.

        The returned mapping is the overlay's internal cache — callers must
        treat it as read-only.  This is the incremental detector's zero-copy
        window onto the delta (no per-cell objects are built).
        """
        return self._grouped()[1]

    def encoded_delta(self, name: str) -> "dict[int, int] | None":
        """One column's delta in code space: ``{row: int32 code}``.

        Codes come from the *base* store's append-only dictionaries, so they
        are directly comparable with the base's encoded column — the
        vectorised engine paths overlay them onto the base code array instead
        of re-encoding whole columns per coalition.  Returns ``None`` when
        the column (or a delta value) is unencodable; callers fall back to
        the object path.
        """
        overrides = self._grouped()[1].get(name)
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
        ``int64``, codes ``int32`` from the base dictionaries, the whole
        override set encoded in one vectorised
        :meth:`~repro.engine.encoding.TableEncoding.encode_delta` pass and
        cached per column.  ``None`` marks an unencodable column (object-path
        fallback), exactly when :meth:`encoded_delta` would return ``None``.
        """
        cached = self._encoded_cache.get(name, _MISSING)
        if cached is not _MISSING:
            return cached
        overrides = self._grouped()[1].get(name)
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

    # -- access ---------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """The column with the delta applied (read-only; cached per column)."""
        cached = self._materialized.get(name)
        if cached is not None:
            return cached
        _, by_column = self._grouped()
        overrides = by_column.get(name)
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
        by_row, _ = self._grouped()
        overrides = by_row.get(row)
        if not overrides:
            return base_row
        return tuple(
            overrides.get(name, value)
            for name, value in zip(self._base.column_names, base_row)
        )

    def iter_rows(self) -> Iterator[tuple[Any, ...]]:
        for i in range(self.n_rows):
            yield self.row(i)

    # -- mutation --------------------------------------------------------------

    def set_value(self, row: int, name: str, value: Any) -> None:
        """Write one cell into the delta (see :meth:`set_values`)."""
        self.set_values(name, (row,), (value,))

    def set_values(self, name: str, rows: Sequence[int],
                   values: Sequence[Any]) -> list[Any]:
        """Write ``values[i]`` into ``rows[i]`` of one column, in order.

        Writes go into the delta (the base store is never modified); writing
        a value equal to the base cell removes the delta entry, so the delta
        stays normalised and fingerprints of equal contents stay equal.
        Every write is appended to :attr:`change_log`, and the column's
        materialised and encoded caches and the fingerprint are invalidated
        once per batch.  Returns each cell's value before its write (a
        repeated row sees the earlier write).
        """
        base = self._base
        if name not in base:
            raise UnknownAttributeError(name, base.column_names)
        n_rows = base.n_rows
        for row in rows:
            if not 0 <= row < n_rows:
                raise UnknownRowError(row, n_rows)
        if not rows:
            return []
        self.change_log.extend(zip(rows, repeat(name)))
        base_column = base.column(name)
        delta = self._delta
        by_row = self._by_row
        if by_row is not None:
            column_group = self._by_column.get(name)
            if column_group is None:
                column_group = self._by_column[name] = {}
        old_values = []
        for row, value in zip(rows, values):
            key = (row, name)
            base_value = base_column[row]
            old_values.append(delta.get(key, base_value))
            if values_differ(base_value, value):
                delta[key] = value
                if by_row is not None:
                    by_row.setdefault(row, {})[name] = value
                    column_group[row] = value
            else:
                delta.pop(key, None)
                if by_row is not None:
                    row_group = by_row.get(row)
                    if row_group is not None:
                        row_group.pop(name, None)
                        if not row_group:
                            del by_row[row]
                    column_group.pop(row, None)
        if by_row is not None and not column_group:
            del self._by_column[name]
        self._materialized.pop(name, None)
        self._encoded_cache.pop(name, None)
        self._fingerprint = None
        return old_values

    def copy(self) -> ColumnStore:
        """Materialise the overlay into an independent plain :class:`ColumnStore`."""
        clone = ColumnStore.__new__(ColumnStore)
        clone._names = self._base.column_names
        clone._n_rows = self._base.n_rows
        clone._columns = {
            name: self.column(name).copy() for name in self._base.column_names
        }
        clone._fingerprint = None
        clone._encoding = None
        return clone

    # -- comparison / hashing helpers -------------------------------------------

    def fingerprint(self) -> Fingerprint:
        """Delta-derived memoisation key: O(|delta|) given a fingerprinted base.

        Two overlays over equal bases with equal effective contents produce
        equal fingerprints (the delta is normalised); an overlay never equals a
        plain store's fingerprint, which only costs the oracle a cache miss,
        never a wrong answer.
        """
        if self._fingerprint is None:
            delta_items = tuple(
                (row, name, self._delta[(row, name)])
                for row, name in sorted(self._delta.keys())
            )
            self._fingerprint = Fingerprint(
                ("overlay", self._base.fingerprint(), delta_items)
            )
        return self._fingerprint

    def equals(self, other) -> bool:
        """Content equality with any store exposing the read interface."""
        return stores_equal(self, other)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"OverlayStore({self.n_rows} rows x {self.n_columns} columns, "
            f"{len(self._delta)} overridden cells)"
        )
