"""Columnar storage primitives.

The T-REx pipeline repeatedly materialises perturbed copies of the input
table (tens of thousands of copies during cell-Shapley sampling), so the
storage layer is designed around cheap copies: each column is an independent
``numpy`` object array and copies share nothing mutable.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import SchemaError, UnknownAttributeError, UnknownRowError

#: Sentinel used to represent a missing / nulled-out cell.  ``None`` is used
#: (rather than ``numpy.nan``) because columns hold arbitrary Python values.
NULL = None


def is_null(value: Any) -> bool:
    """Return ``True`` if ``value`` represents a missing cell."""
    if value is None:
        return True
    if isinstance(value, float) and np.isnan(value):
        return True
    return False


#: the one NaN object content fingerprints hold.  NaN never equals itself
#: and hashes by identity, so a key holding some NaN object would match only
#: keys holding that very object — never its own pickled copy, as a worker's
#: cache diff ships it.  Fingerprints carry every NaN as this object, and
#: content equality (:func:`stores_equal`) counts any two NaNs as equal.
NAN = float("nan")


def is_nan(value: Any) -> bool:
    """Whether ``value`` is a float NaN (any NaN object, not only :data:`NAN`)."""
    return isinstance(value, float) and value != value


def _nan_free(values: tuple) -> tuple:
    """``values`` with every NaN replaced by :data:`NAN` (itself if none)."""
    if not any(map(is_nan, values)):
        return values
    return tuple(NAN if is_nan(value) else value for value in values)


def values_differ(old: Any, new: Any) -> bool:
    """Null-aware cell inequality: two nulls never differ (``None`` vs ``nan``)."""
    if old is new:
        return False
    return old != new and not (is_null(old) and is_null(new))


def null_mask(column: np.ndarray) -> np.ndarray:
    """Boolean mask of null cells (``None`` / ``NaN``) in one pass.

    Equivalent to ``[is_null(v) for v in column]`` but the two elementwise
    comparisons run as C-level loops: ``column == None`` catches the ``None``
    sentinel and ``column != column`` catches ``NaN`` (the only value that
    compares unequal to itself).  Statistics builds and detector rebuild
    loops use this instead of one Python ``is_null`` call per cell.
    """
    mask = column == None  # noqa: E711 — elementwise on object arrays
    mask |= column != column
    return mask


def _is_row(row: Any, n_rows: int) -> bool:
    """Whether ``row`` addresses a row of an ``n_rows``-row table: an ``int``
    or a numpy integer in range, never a ``bool`` (numpy reads one as a mask)
    nor a float."""
    if type(row) is not int and (isinstance(row, bool)
                                 or not isinstance(row, (int, np.integer))):
        return False
    return 0 <= row < n_rows


def checked_rows(rows: Sequence[int], values: Sequence[Any], n_rows: int) -> list[int]:
    """A write batch's ``rows`` as plain ints, checked before any write.

    Raises :class:`~repro.errors.UnknownRowError` on a row that is not one
    (:func:`_is_row`) and :class:`~repro.errors.SchemaError` unless
    ``values`` holds one value per row.  A one-dimensional integer
    ``ndarray`` is checked with one dtype test and one ``min``/``max``
    bounds test over its listed rows (the rule pass hands its write rows
    over this way); any other sequence, and an array of another dtype, row
    by row.
    """
    if len(rows) != len(values):
        raise SchemaError(
            f"a write batch needs one value per row: got {len(rows)} rows "
            f"and {len(values)} values"
        )
    if isinstance(rows, np.ndarray) and rows.ndim == 1 and rows.dtype.kind in "iu":
        listed = rows.tolist()
        if listed and (min(listed) < 0 or max(listed) >= n_rows):
            raise UnknownRowError(next(row for row in listed
                                       if not 0 <= row < n_rows), n_rows)
        return listed
    checked = []
    for row in rows:
        if type(row) is not int or not 0 <= row < n_rows:
            if not _is_row(row, n_rows):
                raise UnknownRowError(row, n_rows)
            row = int(row)
        checked.append(row)
    return checked


class Fingerprint:
    """A hashable content snapshot with its hash computed exactly once.

    Fingerprints are dictionary keys in the repair oracle's memoisation cache,
    so the same fingerprint object is hashed on every lookup; caching the hash
    turns each lookup into an O(1) integer comparison (falling back to a full
    data comparison only on hash collision).
    """

    __slots__ = ("data", "_hash")

    def __init__(self, data: tuple):
        self.data = data
        self._hash = hash(data)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fingerprint):
            return self._hash == other._hash and self.data == other.data
        return NotImplemented

    def __getstate__(self) -> tuple:
        # the cached hash is process-local (string hashing is randomised per
        # interpreter), so only the data crosses a pickle boundary; without
        # this, fingerprints shipped back from a spawn-started worker would
        # never compare equal to parent-built ones and merged oracle caches
        # would silently stop matching
        return self.data

    def __setstate__(self, data: tuple) -> None:
        # a pickled NaN comes back as a new object: put the canonical one
        # back, or the key would never meet its unpickled twin again
        if data[:1] == ("overlay",):
            data = data[:2] + (_nan_free(data[2]),)
        else:
            data = tuple((name, _nan_free(values)) for name, values in data)
        self.data = data
        self._hash = hash(data)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Fingerprint(hash={self._hash})"


class ColumnStore:
    """A minimal columnar store: ordered named columns of equal length.

    The store is intentionally dumb — no types beyond "Python object", no
    persistence — because the repair and explanation layers only need cell
    addressing, column scans and cheap whole-table copies.
    """

    __slots__ = ("_columns", "_names", "_n_rows", "_fingerprint", "_encoding",
                 "_null_masks")

    def __init__(self, columns: Mapping[str, Sequence[Any]]):
        if not columns:
            raise SchemaError("a ColumnStore needs at least one column")
        self._names: tuple[str, ...] = tuple(columns.keys())
        lengths = {name: len(values) for name, values in columns.items()}
        unique_lengths = set(lengths.values())
        if len(unique_lengths) > 1:
            raise SchemaError(f"columns have inconsistent lengths: {lengths}")
        self._n_rows = unique_lengths.pop() if unique_lengths else 0
        # fromiter keeps every column 1-D: np.array would turn a column of
        # equal-length tuples or lists into a 2-D array
        self._columns: dict[str, np.ndarray] = {
            name: np.fromiter(values, dtype=object, count=self._n_rows)
            for name, values in columns.items()
        }
        self._fingerprint: Fingerprint | None = None
        self._encoding = None
        self._null_masks: dict[str, np.ndarray] = {}

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_rows(cls, names: Sequence[str], rows: Iterable[Sequence[Any]]) -> "ColumnStore":
        """Build a store from row tuples (each row ordered like ``names``)."""
        rows = [tuple(row) for row in rows]
        for row in rows:
            if len(row) != len(names):
                raise SchemaError(
                    f"row {row!r} has {len(row)} values but schema has {len(names)} attributes"
                )
        columns = {name: [row[i] for row in rows] for i, name in enumerate(names)}
        if not rows:
            columns = {name: [] for name in names}
        return cls(columns)

    # -- basic introspection ---------------------------------------------------

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_columns(self) -> int:
        return len(self._names)

    def __len__(self) -> int:
        return self._n_rows

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    # -- access ---------------------------------------------------------------

    def _check_column(self, name: str) -> None:
        if name not in self._columns:
            raise UnknownAttributeError(name, self._names)

    def _check_row(self, row: int) -> None:
        if (type(row) is not int or not 0 <= row < self._n_rows) \
                and not _is_row(row, self._n_rows):
            raise UnknownRowError(row, self._n_rows)

    def column(self, name: str) -> np.ndarray:
        """Return the column as a read-only numpy object array view."""
        self._check_column(name)
        view = self._columns[name].view()
        view.flags.writeable = False
        return view

    def value(self, row: int, name: str) -> Any:
        self._check_column(name)
        self._check_row(row)
        return self._columns[name][row]

    def row(self, row: int) -> tuple[Any, ...]:
        self._check_row(row)
        return tuple(self._columns[name][row] for name in self._names)

    def iter_rows(self) -> Iterator[tuple[Any, ...]]:
        for i in range(self._n_rows):
            yield self.row(i)

    # -- mutation --------------------------------------------------------------

    def set_value(self, row: int, name: str, value: Any) -> None:
        self.set_values(name, (row,), (value,))

    def set_values(self, name: str, rows: Sequence[int],
                   values: Sequence[Any]):
        """Write ``values[i]`` into ``rows[i]`` of one column, in order.

        Derived caches are invalidated once per batch; a cached code array
        is kept in step (:meth:`~repro.engine.encoding.TableEncoding.write`).
        Returns the batch's ``(old codes, new codes)`` (a repeated row's old
        code is the earlier write's), or ``(None, None)`` when the column has
        no cached codes or a value cannot be coded.
        """
        self._check_column(name)
        rows = checked_rows(rows, values, self._n_rows)
        if not rows:
            return None, None
        column = self._columns[name]
        for row, value in zip(rows, values):
            column[row] = value
        self._fingerprint = None
        # every derived per-column cache must drop with the content it
        # describes: a stale fingerprint would alias two different table
        # states under one oracle-cache key, and a stale null mask would
        # mis-classify the touched cell in statistics and detector scans
        self._null_masks.pop(name, None)
        if self._encoding is None:
            return None, None
        return self._encoding.write(name, rows, values)

    def codes(self, name: str) -> "np.ndarray | None":
        """The column as ``int32`` dictionary codes (read-only; ``None`` when
        it cannot be coded) — the code accessor views share
        (:meth:`~repro.engine.view.OverlayStore.codes`)."""
        return self.encoding().codes(self, name)

    def copy(self) -> "ColumnStore":
        """Return a deep-enough copy (fresh arrays, shared immutable values)."""
        clone = ColumnStore.__new__(ColumnStore)
        clone._names = self._names
        clone._n_rows = self._n_rows
        clone._columns = {name: col.copy() for name, col in self._columns.items()}
        clone._fingerprint = self._fingerprint  # same content, same fingerprint
        clone._encoding = None  # copies diverge; each lazily builds its own
        clone._null_masks = dict(self._null_masks)  # masks are frozen arrays
        return clone

    def null_mask(self, name: str) -> np.ndarray:
        """Cached boolean null mask for one column.

        Built lazily with the module-level :func:`null_mask` scan and kept
        (read-only) until the next :meth:`set_value` on the column, so
        statistics builds and detector rebuilds that consult the same
        column repeatedly pay for the two elementwise passes once.
        """
        self._check_column(name)
        mask = self._null_masks.get(name)
        if mask is None:
            mask = null_mask(self._columns[name])
            mask.flags.writeable = False
            self._null_masks[name] = mask
        return mask

    # -- dictionary encoding ----------------------------------------------------

    def encoding(self):
        """The store's :class:`~repro.engine.encoding.TableEncoding` (lazy).

        Built on first use and kept for the store's lifetime — dictionaries
        are append-only so overlay deltas never invalidate existing codes,
        and the bundle pickles with the store (a job spec ships it once).
        """
        if self._encoding is None:
            from repro.engine.encoding import TableEncoding

            self._encoding = TableEncoding()
        return self._encoding

    # -- comparison / hashing helpers -------------------------------------------

    def fingerprint(self) -> Fingerprint:
        """A hashable snapshot of the whole store, used for oracle memoisation.

        The fingerprint is computed lazily and cached until the next mutation,
        so repeated oracle queries against the same snapshot pay for the full
        column walk only once.  Every NaN cell is held as :data:`NAN`.
        """
        if self._fingerprint is None:
            columns = []
            for name in self._names:
                column = self._columns[name]
                values = column.tolist()
                # NaN is the one value unequal to itself
                for row in np.flatnonzero(column != column).tolist():
                    if is_nan(values[row]):
                        values[row] = NAN
                columns.append((name, tuple(values)))
            self._fingerprint = Fingerprint(tuple(columns))
        return self._fingerprint

    def equals(self, other) -> bool:
        """Content equality with any store exposing the read interface
        (:class:`ColumnStore` or :class:`~repro.engine.view.OverlayStore`)."""
        return stores_equal(self, other)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ColumnStore({self.n_rows} rows x {self.n_columns} columns)"


def stores_equal(left, right) -> bool:
    """Column-by-column content equality between any two stores exposing the
    read interface (``column_names``/``n_rows``/``column``); any two NaNs are
    equal, as in fingerprints (:data:`NAN`)."""
    names = tuple(left.column_names)
    if names != tuple(right.column_names) or left.n_rows != right.n_rows:
        return False
    for name in names:
        mine, theirs = left.column(name).tolist(), right.column(name).tolist()
        if mine != theirs and not all(
            a == b or (is_nan(a) and is_nan(b)) for a, b in zip(mine, theirs)
        ):
            return False
    return True
