"""Dictionary encoding: per-column value↔``int32``-code mappings.

The repair walk evaluates FD re-checks, mixed-group detection and greedy
candidate trials as comparisons over integer code arrays instead of
Python-object loops.  The encoding layer that makes this possible lives
here:

* :class:`ColumnDictionary` — one column's value↔code mapping.  Code ``0`` is
  reserved for NULL (``None`` / ``NaN``); real values get codes ``1..n`` in
  first-seen order.  The dictionary only ever *grows* (append-only), so codes
  assigned against the base table stay valid for every overlay delta built on
  top of it — a perturbed cell just appends a new code if its value is unseen.
* :class:`TableEncoding` — the per-table bundle: one dictionary per column,
  lazily-encoded base code arrays (read-only, replaced by an updated copy
  on a base write), and the encode/check telemetry surfaced through
  ``oracle.statistics()``.

Both classes are plain-data and pickle cleanly, so the encoding travels
inside ``ExplainJobSpec`` (the spec pickles the whole dirty table) and a warm
worker re-uses the parent's dictionaries for its resident lifetime instead of
re-encoding per shard.

Values that are unhashable cannot be dictionary keys; such a column is marked
non-encodable and every check touching it falls back to the object path (the
``fallback_checks`` counter keeps that visible).
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Sequence

import numpy as np

#: the reserved code for NULL cells (``None`` / ``NaN``)
NULL_CODE = 0


def scatter_codes(codes: np.ndarray, rows: list[int], new: list[int]):
    """Write ``new[i]`` into ``codes[rows[i]]`` in order, in place.

    Returns the batch's ``(old codes, new codes)``: each cell's code before
    its write (a repeated row sees the earlier write) and after it.  One
    cell's are tuples of ints; a batch's are ``int32`` arrays, moved with
    one gather and one scatter.
    """
    if len(rows) == 1:
        row = rows[0]
        old = codes.item(row)
        codes[row] = new[0]
        return (old,), (new[0],)
    new = np.array(new, dtype=np.int32)
    if len(set(rows)) == len(rows):
        old = codes[rows]
        codes[rows] = new
        return old, new
    old = np.empty(len(rows), dtype=np.int32)
    for i, row in enumerate(rows):  # a batch that writes a row twice
        old[i] = codes[row]
        codes[row] = new[i]
    return old, new


class ColumnDictionary:
    """Append-only value↔code mapping for one column.

    Codes are dense ``int32`` starting at 1 (0 is :data:`NULL_CODE`); the
    decode table keeps the *original* value objects, so decoding returns the
    identical objects the object path would see.
    """

    __slots__ = ("_code_of", "_values", "encodable", "_ranks")

    def __init__(self) -> None:
        self._code_of: dict[Any, int] = {}
        #: decode table; index 0 is the NULL sentinel
        self._values: list[Any] = [None]
        self.encodable = True
        self._ranks: np.ndarray | None = None

    def __len__(self) -> int:
        """Number of distinct non-null values seen so far."""
        return len(self._code_of)

    def code_for(self, value: Any, *, is_null) -> int:
        """The code of ``value``, appending a fresh one if unseen."""
        if is_null(value):
            return NULL_CODE
        code = self._code_of.get(value)
        if code is None:
            code = len(self._values)
            self._code_of[value] = code
            self._values.append(value)
        return code

    def decode(self, code: int) -> Any:
        return self._values[code]

    def encode_list(self, values: Sequence[Any]) -> "list[int] | None":
        """Codes of ``values`` by one dictionary probe each.

        Nulls and values new to the dictionary are coded in order afterwards,
        so novel codes are assigned in first-appearance order, exactly as the
        per-value loop would.  ``None`` (dictionary untouched) when a value
        is unhashable.
        """
        code_of = self._code_of
        try:
            codes = [code_of.get(value) for value in values]
        except TypeError:
            return None
        if None in codes:
            from repro.engine.storage import is_null

            for i, code in enumerate(codes):
                if code is None:
                    codes[i] = self.code_for(values[i], is_null=is_null)
        return codes

    def encode_bulk(self, values: np.ndarray, mask: np.ndarray,
                    out: np.ndarray) -> None:
        """Fill ``out`` with the codes of a whole base column (``mask``
        marks its nulls), by dictionary probes.

        Delegates to :meth:`encode_list` (one probe per cell; novel values
        coded in first-appearance order, exactly as a per-value
        :meth:`code_for` loop does).
        Probing hashes each value once, which is cheaper than sorting an
        object column; it also needs no ordering between the column's types.
        Raises ``TypeError``, the dictionary untouched, on an unhashable
        value.
        """
        codes = self.encode_list(values.tolist())
        if codes is None:
            raise TypeError("an unhashable value cannot be coded")
        out[:] = codes
        out[mask] = NULL_CODE

    def lookup(self, value: Any) -> int:
        """The code of ``value`` without growing the dictionary.

        :data:`NULL_CODE` for a null or unseen value, which is exactly the
        code no count is ever kept for.  An unhashable value is unseen: no
        coded column holds one.
        """
        try:
            return self._code_of.get(value, NULL_CODE)
        except TypeError:
            return NULL_CODE

    def decode_list(self, codes: Iterable[int]) -> list[Any]:
        values = self._values
        return [values[code] for code in codes]

    def repr_ranks(self) -> np.ndarray:
        """Each code's position in ``repr`` order of the decoded values.

        The statistics' deterministic tie-break (``min(..., key=repr)`` and
        ``sorted(..., key=repr)`` of the value-space definition) as one
        gather.  Equal ``repr`` strings rank by code, i.e. first appearance.
        Rebuilt only when the dictionary has grown since the last call.
        """
        ranks = self._ranks
        values = self._values
        if ranks is None or len(ranks) != len(values):
            order = sorted(range(1, len(values)), key=lambda code: repr(values[code]))
            ranks = np.zeros(len(values), dtype=np.int64)
            ranks[order] = np.arange(1, len(values), dtype=np.int64)
            self._ranks = ranks
        return ranks

    def __getstate__(self):
        # the rank memo is derived; only the mapping crosses a pickle boundary
        return (self._code_of, self._values, self.encodable)

    def __setstate__(self, state):
        self._code_of, self._values, self.encodable = state
        self._ranks = None


class TableEncoding:
    """Per-table dictionary bundle with cached base code arrays + telemetry.

    The encoding is attached to a :class:`~repro.engine.storage.ColumnStore`
    (one per base table), shared by every copy of that store, and invalidated
    per-column on base mutation.  Dictionaries are append-only, so deltas and
    overlays built while an encoding exists never invalidate existing codes.
    """

    __slots__ = ("_dicts", "_codes", "counts", "encode_seconds",
                 "vectorized_checks", "fallback_checks", "_absorbed_sizes")

    def __init__(self) -> None:
        self._dicts: dict[str, ColumnDictionary] = {}
        self._codes: dict[str, np.ndarray] = {}
        #: the base snapshot's statistics, keyed by attribute (marginal
        #: counts) or ``(given, target)`` (pair counts); built from the code
        #: arrays by :mod:`repro.engine.stats`, dropped with them, never pickled
        self.counts: dict[Any, Any] = {}
        #: wall-clock spent encoding base columns into code arrays
        self.encode_seconds = 0.0
        #: walk checks made over code arrays: FD partition builds and
        #: candidate trials scored from a partition
        self.vectorized_checks = 0
        #: partition builds and candidate trials that took the object path
        #: (a shape with no partition, a column the encoding cannot code)
        self.fallback_checks = 0
        #: per-column dictionary-size high-water marks absorbed from worker
        #: telemetry — a worker may have encoded columns this encoding never
        #: touched, and dropping them would understate the run
        self._absorbed_sizes: dict[str, int] = {}

    def dictionary(self, name: str) -> ColumnDictionary:
        dictionary = self._dicts.get(name)
        if dictionary is None:
            dictionary = self._dicts[name] = ColumnDictionary()
        return dictionary

    def write(self, name: str, rows: list[int], values: Sequence[Any]):
        """Keep ``name``'s cached code array in step with a base-store write.

        The array is replaced by an updated copy (holders of the old one keep
        their snapshot), and the statistics counted from the old contents are
        dropped.  Returns the batch's ``(old codes, new codes)``
        (:func:`scatter_codes`), or ``(None, None)`` when no array is cached
        or a written value cannot be coded (the array is then dropped and
        rebuilt from the column on its next read).
        """
        counts = self.counts
        for key in [key for key in counts
                    if key == name or (isinstance(key, tuple) and name in key)]:
            del counts[key]
        codes = self._codes.pop(name, None)
        if codes is None:
            return None, None
        new = self.dictionary(name).encode_list(values)
        if new is None:
            return None, None
        codes = codes.copy()
        moved = scatter_codes(codes, rows, new)
        codes.flags.writeable = False
        self._codes[name] = codes
        return moved

    def codes(self, store, name: str) -> np.ndarray | None:
        """The base store's column as an ``int32`` code array (cached).

        Returns ``None`` when the column holds unhashable values — callers
        must fall back to the object path (and count it).
        """
        codes = self._codes.get(name)
        if codes is not None:
            return codes
        dictionary = self.dictionary(name)
        if not dictionary.encodable:
            return None
        from repro.engine.storage import null_mask

        column = store.column(name)
        mask = null_mask(column)
        out = np.empty(len(column), dtype=np.int32)
        start = time.perf_counter()
        try:
            dictionary.encode_bulk(column, mask, out)
        except TypeError:
            # unhashable values in this column — permanently object-path
            dictionary.encodable = False
            return None
        finally:
            self.encode_seconds += time.perf_counter() - start
        # shared by every view of the store (copy-on-write); a base write
        # replaces it (see write)
        out.flags.writeable = False
        self._codes[name] = out
        return out

    def code_for(self, name: str, value: Any) -> int | None:
        """The code of one value in ``name``'s dictionary (grown on demand).

        ``None`` when the column is unencodable or the value unhashable.
        """
        from repro.engine.storage import is_null

        dictionary = self.dictionary(name)
        if not dictionary.encodable:
            return None
        try:
            return dictionary.code_for(value, is_null=is_null)
        except TypeError:
            return None

    def encode_delta(
        self, name: str, overrides: "dict[int, Any]"
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """Encode one column's override set ``{row: value}`` in one bulk pass.

        Returns parallel ``(rows int64, codes int32)`` arrays sorted by row,
        with novel values appended to ``name``'s dictionary in the same order
        the per-value :meth:`code_for` loop would produce (dict-insertion
        order of ``overrides``).  ``None`` when the column is unencodable or
        a value is unhashable — mirroring :meth:`code_for`, the column's
        ``encodable`` flag is *not* flipped: only base-column contents decide
        that.  Values are coded by dictionary probes
        (:meth:`ColumnDictionary.encode_list`): hashing a delta's values is
        cheaper than sorting them as objects.
        """
        dictionary = self.dictionary(name)
        if not dictionary.encodable:
            return None
        n = len(overrides)
        if n == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32))
        start = time.perf_counter()
        try:
            codes = dictionary.encode_list(list(overrides.values()))
        finally:
            self.encode_seconds += time.perf_counter() - start
        if codes is None:
            return None
        rows = np.fromiter(overrides.keys(), dtype=np.int64, count=n)
        codes = np.array(codes, dtype=np.int32)
        order = np.argsort(rows, kind="stable")
        rows, codes = rows[order], codes[order]
        # shared across sibling views (cache carry-over) — freeze them
        rows.flags.writeable = False
        codes.flags.writeable = False
        return rows, codes

    def dictionary_sizes(self) -> dict[str, int]:
        """Distinct non-null values per encoded column (telemetry).

        The union of this encoding's own dictionaries and the per-column
        high-water marks absorbed from worker telemetry — a column only one
        worker ever encoded still shows up, at that worker's size.
        """
        sizes = dict(self._absorbed_sizes)
        for name, dictionary in self._dicts.items():
            size = len(dictionary)
            if size > sizes.get(name, 0):
                sizes[name] = size
        return dict(sorted(sizes.items()))

    def telemetry(self) -> dict[str, Any]:
        return {
            "encode_seconds": round(self.encode_seconds, 6),
            "vectorized_checks": self.vectorized_checks,
            "fallback_checks": self.fallback_checks,
            "dictionary_sizes": self.dictionary_sizes(),
        }

    def absorb_counters(self, telemetry: dict) -> None:
        """Fold a worker's shipped telemetry into this encoding's counters.

        Check counts and encode time are additive; ``dictionary_sizes``
        merge as per-column high-water marks over the **union** of columns —
        a worker's dictionary for a column the parent never encoded must not
        be dropped.
        """
        self.encode_seconds += telemetry.get("encode_seconds", 0.0)
        self.vectorized_checks += telemetry.get("vectorized_checks", 0)
        self.fallback_checks += telemetry.get("fallback_checks", 0)
        for name, size in telemetry.get("dictionary_sizes", {}).items():
            if size > self._absorbed_sizes.get(name, 0):
                self._absorbed_sizes[name] = size

    def reset_counters(self) -> None:
        self.encode_seconds = 0.0
        self.vectorized_checks = 0
        self.fallback_checks = 0
        self._absorbed_sizes = {}

    def __getstate__(self):
        return (self._dicts, self._codes, self.encode_seconds,
                self.vectorized_checks, self.fallback_checks,
                self._absorbed_sizes)

    def __setstate__(self, state):
        if len(state) == 5:  # pickles from before absorbed-size tracking
            state = state + ({},)
        (self._dicts, self._codes, self.encode_seconds,
         self.vectorized_checks, self.fallback_checks,
         self._absorbed_sizes) = state
        self.counts = {}
