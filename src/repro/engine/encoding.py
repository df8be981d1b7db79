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
  lazily-encoded base code arrays, and the encode/check telemetry surfaced
  through ``oracle.statistics()``.

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
from typing import Any, Iterable

import numpy as np

#: the reserved code for NULL cells (``None`` / ``NaN``)
NULL_CODE = 0


class ColumnDictionary:
    """Append-only value↔code mapping for one column.

    Codes are dense ``int32`` starting at 1 (0 is :data:`NULL_CODE`); the
    decode table keeps the *original* value objects, so decoding returns the
    identical objects the object path would see.
    """

    __slots__ = ("_code_of", "_values", "encodable")

    def __init__(self) -> None:
        self._code_of: dict[Any, int] = {}
        #: decode table; index 0 is the NULL sentinel
        self._values: list[Any] = [None]
        self.encodable = True

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

    def encode_values(self, values: Iterable[Any], mask: np.ndarray,
                      out: np.ndarray) -> None:
        """Fill ``out`` with codes for ``values`` (``mask`` marks nulls)."""
        code_of = self._code_of
        decode = self._values
        for i, value in enumerate(values):
            if mask[i]:
                out[i] = NULL_CODE
                continue
            code = code_of.get(value)
            if code is None:
                code = len(decode)
                code_of[value] = code
                decode.append(value)
            out[i] = code

    def encode_bulk(self, values: np.ndarray, mask: np.ndarray,
                    out: np.ndarray) -> None:
        """Vectorised :meth:`encode_values`: one factorisation per call.

        ``np.unique`` collapses the column to its distinct values, one
        dictionary probe per *distinct* value builds an ``int32`` lookup
        array, and a single gather translates the whole column.  Novel values
        are appended to the decode table in first-appearance order — exactly
        the order the per-value loop would assign, so both paths grow the
        dictionary identically (property-tested).  Falls back to the
        per-value loop when the values do not sort (mixed-type columns);
        unhashable values raise ``TypeError`` either way, with the dictionary
        left consistent.
        """
        nonnull = np.nonzero(~mask)[0]
        out[mask] = NULL_CODE
        if nonnull.size == 0:
            return
        present = values[nonnull]
        try:
            uniq, first, inverse = np.unique(
                present, return_index=True, return_inverse=True
            )
        except TypeError:
            # unsortable mixed types — the hash-based loop handles them fine
            self.encode_values(values, mask, out)
            return
        code_of = self._code_of
        decode = self._values
        lookup = np.empty(len(uniq), dtype=np.int32)
        pending: list[Any] = []
        try:
            # visit distinct values in first-appearance order so novel codes
            # are assigned exactly as the per-value loop would
            for position in np.argsort(first, kind="stable"):
                value = uniq[position]
                code = code_of.get(value)
                if code is None:
                    code = len(decode) + len(pending)
                    code_of[value] = code
                    pending.append(value)
                lookup[position] = code
        finally:
            # one batched append; also runs on TypeError (unhashable value
            # mid-loop) so codes already handed out stay decodable
            if pending:
                decode.extend(pending)
        out[nonnull] = lookup[inverse]


class TableEncoding:
    """Per-table dictionary bundle with cached base code arrays + telemetry.

    The encoding is attached to a :class:`~repro.engine.storage.ColumnStore`
    (one per base table), shared by every copy of that store, and invalidated
    per-column on base mutation.  Dictionaries are append-only, so deltas and
    overlays built while an encoding exists never invalidate existing codes.
    """

    __slots__ = ("_dicts", "_codes", "encode_seconds", "vectorized_checks",
                 "fallback_checks", "_absorbed_sizes")

    def __init__(self) -> None:
        self._dicts: dict[str, ColumnDictionary] = {}
        self._codes: dict[str, np.ndarray] = {}
        #: wall-clock spent encoding base columns into code arrays
        self.encode_seconds = 0.0
        #: constraint checks evaluated over code arrays
        self.vectorized_checks = 0
        #: checks that fell back to the object path (non-equality DC
        #: predicates, unencodable columns)
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

    def invalidate(self, name: str) -> None:
        """Drop the cached code array after a base-store cell write.

        The dictionary itself survives — it is append-only, so existing codes
        stay correct; only the materialised base array is stale.
        """
        self._codes.pop(name, None)

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
        that.
        """
        dictionary = self.dictionary(name)
        if not dictionary.encodable:
            return None
        n = len(overrides)
        if n == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32))
        from repro.engine.storage import null_mask

        rows = np.fromiter(overrides.keys(), dtype=np.int64, count=n)
        values = np.fromiter(overrides.values(), dtype=object, count=n)
        codes = np.empty(n, dtype=np.int32)
        start = time.perf_counter()
        try:
            dictionary.encode_bulk(values, null_mask(values), codes)
        except TypeError:
            return None
        finally:
            self.encode_seconds += time.perf_counter() - start
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
