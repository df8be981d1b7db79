"""Memoisation of black-box repair queries.

Shapley evaluation queries the repair algorithm with many *repeated* inputs:
the exact constraint-Shapley formula evaluates every subset twice (once as
``S`` and once as ``S ∪ {C'}`` for another constraint), and permutation
sampling frequently revisits coalitions.  Caching oracle answers keyed on the
(constraint subset, table snapshot) pair removes that redundancy without
changing any result — the repairer is deterministic by contract.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from operator import itemgetter
from typing import Hashable

# the max-merged key sets come from the metric declarations, so the
# aggregate below can never disagree with the registry about a counter's
# merge rule
from repro.observability.metrics import (
    MAX_COUNTERS as _MAX_COUNTERS,
    MAX_GROUPS as _MAX_GROUPS,
)

#: the ``(row, attribute)`` cell of an overlay fingerprint item
_item_cell = itemgetter(0, 1)


class OracleCache:
    """A bounded LRU cache for binary oracle answers.

    The default bound (1 million entries) is far above anything the bundled
    experiments need; it exists so pathological workloads degrade gracefully
    instead of exhausting memory.
    """

    def __init__(self, max_entries: int = 1_000_000):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, int] = OrderedDict()
        #: per-key insertion sequence numbers (see :meth:`entries_since`);
        #: iteration order is ascending sequence — deletions never reorder a
        #: dict and re-inserted keys always receive a fresh, larger number
        self._sequence: dict[Hashable, int] = {}
        #: monotone insertion counter — never decremented, not even by
        #: :meth:`clear`, so high-water marks taken by a diff-shipping reader
        #: survive evictions and resets
        self._next_sequence = 0
        self.hits = 0
        self.misses = 0
        #: lifetime count of LRU evictions — a non-zero value on a bounded
        #: cache is the signal that million-sample runs are cycling the cache
        #: rather than growing it
        self.evictions = 0

    def get(self, key: Hashable) -> int | None:
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        return None

    def put(self, key: Hashable, value: int) -> None:
        if key not in self._entries:
            self._sequence[key] = self._next_sequence
            self._next_sequence += 1
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.max_entries:
            evicted, _ = self._entries.popitem(last=False)
            del self._sequence[evicted]
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def entries(self) -> list[tuple[Hashable, int]]:
        """All cached entries in LRU order (least recently used first).

        The order is what makes caches *mergeable*: replaying another cache's
        entries oldest-first into :meth:`put` reproduces its recency ranking
        inside the receiving cache, so a later eviction pass drops the same
        entries a single shared cache would have dropped.
        """
        return list(self._entries.items())

    def high_water_mark(self) -> int:
        """The insertion sequence a diff-shipping reader should remember.

        Entries inserted from now on satisfy ``sequence >= mark``; the mark is
        monotone for the cache's whole lifetime (evictions and :meth:`clear`
        never reuse sequence numbers), so a mark taken at any sync point stays
        a valid cut forever — the property the warm worker pool's per-worker
        cache diffs rest on.
        """
        return self._next_sequence

    def entries_since(self, mark: int) -> list[tuple[Hashable, int]]:
        """Entries inserted at or after ``mark``, in insertion order.

        The diff half of warm-pool cache shipping: a worker remembers
        :meth:`high_water_mark` at its last sync and ships only this slice
        home each round.  An entry evicted *and re-inserted* after the mark is
        included (its answer was recomputed, so it must travel again); an
        entry inserted before the mark never is, even if later refreshed by
        :meth:`get`/:meth:`put` — the receiving side already holds its answer
        and the oracle is deterministic.

        Cost is O(diff), not O(cache): ``_sequence`` iterates in ascending
        sequence order, so walking it backwards stops at the first entry
        older than the mark — a big resident cache shipping a small diff
        touches only the diff.
        """
        newer: list[tuple[Hashable, int]] = []
        for key in reversed(self._sequence):
            if self._sequence[key] < mark:
                break
            newer.append((key, self._entries[key]))
        newer.reverse()
        return newer

    def merge_entries(self, other: "OracleCache") -> "OracleCache":
        """Absorb another cache's *entries* (not its counters) into this one.

        Entries are replayed in ``other``'s LRU order, so they land *newer*
        than everything currently cached here while keeping their relative
        recency; a key present in both caches is refreshed (the oracle is
        deterministic, so both sides hold the same answer).  The bound of
        *this* cache governs: merging a larger cache into a smaller one
        evicts oldest-first exactly as if the entries had been inserted live
        (those evictions do count here).  The sharded scheduler uses this
        half of the merge — worker cache *counters* travel separately inside
        ``oracle.statistics()`` snapshots, which stay correct even when one
        long-lived worker cache reports several rounds of deltas.
        ``other`` is not modified.
        """
        for key, value in other.entries():
            self.put(key, value)
        return self

    def merge(self, other: "OracleCache") -> "OracleCache":
        """Absorb another cache's entries *and* counters into this one.

        Entry semantics are those of :meth:`merge_entries`; on top,
        ``other``'s hit/miss/eviction counters are added to this cache's, so
        the merged statistics describe the union of both workloads.
        ``other`` is not modified.
        """
        self.merge_entries(other)
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        return self

    def rebase(self, changes, old_base, new_base) -> int:
        """Re-key entries onto a mutated base table; returns entries dropped.

        A base-table update changes the base fingerprint every cached key is
        (directly or through an overlay) rooted at.  Entries whose overlay
        *pinned* every changed cell describe table contents that are
        unchanged by the update, so they stay valid — their keys are
        rewritten onto ``new_base``, dropping overlay items that no longer
        differ from the new base value (the overlay-normalisation rule the
        live fingerprints follow).  Every other entry — plain base-snapshot
        keys, overlays rooted elsewhere, overlays not covering a changed
        cell — is dropped; dropping is always sound here because the cache
        is pure memoisation of a deterministic oracle.

        ``changes`` maps ``(row, attribute)`` to the post-update value.
        Surviving entries keep their LRU rank and insertion-sequence
        numbers, so outstanding high-water marks stay valid cuts.

        Cost is O(entries · |changes| · log |overlay|) plus re-keying the
        survivors.  Each distinct fingerprint object gets one verdict per
        call (a ``paird`` key shares its with-side with the single-instance
        key, and one unpickled cache diff shares one base object), a base
        is matched by identity before falling back to ``==`` once per
        distinct base object, and each changed cell is one bisection of the
        overlay's items (sorted by ``(row, attribute)``, as
        :meth:`~repro.engine.view.OverlayStore.fingerprint` builds them), so
        a key missing any changed cell is dropped without reading its other
        items.
        """
        from repro.engine.storage import Fingerprint, values_differ

        if not changes:
            return 0
        changed = list(changes.items())
        rooted: dict[int, bool] = {}
        remapped_by_id: dict[int, object] = {}

        def remap_uncached(fingerprint):
            data = getattr(fingerprint, "data", None)
            if not (isinstance(data, tuple) and len(data) == 3
                    and data[0] == "overlay"):
                return None
            base = data[1]
            verdict = rooted.get(id(base))
            if verdict is None:
                verdict = rooted[id(base)] = base is old_base or base == old_base
            if not verdict:
                return None
            items = data[2]
            normalised = []
            for cell, value in changed:
                index = bisect_left(items, cell, key=_item_cell)
                if index == len(items) or _item_cell(items[index]) != cell:
                    return None
                if not values_differ(items[index][2], value):
                    normalised.append(index)
            if normalised:
                items = tuple(item for index, item in enumerate(items)
                              if index not in normalised)
            return Fingerprint(("overlay", new_base, items))

        def remap(fingerprint):
            # keyed by id: every fingerprint (and the base inside it) is held
            # alive by its entry's key for the whole call, so no id is reused
            identity = id(fingerprint)
            if identity in remapped_by_id:
                return remapped_by_id[identity]
            result = remapped_by_id[identity] = remap_uncached(fingerprint)
            return result

        def rebase_key(key):
            if not isinstance(key, tuple):
                return None
            if len(key) == 4 and key[0] == "paird":
                # the without-side is content-addressed (cell, replacement)
                # triples — base-independent, so only the with-side remaps
                fp_with = remap(key[2])
                if fp_with is None:
                    return None
                return ("paird", key[1], fp_with, key[3])
            if len(key) == 4 and key[0] == "pair":
                fp_with, fp_without = remap(key[2]), remap(key[3])
                if fp_with is None or fp_without is None:
                    return None
                return ("pair", key[1], fp_with, fp_without)
            if len(key) == 2:
                fingerprint = remap(key[1])
                if fingerprint is None:
                    return None
                return (key[0], fingerprint)
            return None

        remapped: OrderedDict[Hashable, int] = OrderedDict()
        sequence: dict[Hashable, int] = {}
        dropped = 0
        for key, value in self._entries.items():
            new_key = rebase_key(key)
            if new_key is None:
                dropped += 1
                continue
            if new_key in remapped:
                # two old keys normalising to the same content — the oracle
                # is deterministic, keep one entry with the newer sequence
                sequence[new_key] = max(sequence[new_key], self._sequence[key])
                dropped += 1
                continue
            remapped[new_key] = value
            sequence[new_key] = self._sequence[key]
        self._entries = remapped
        # _sequence must iterate in ascending sequence order (entries_since
        # walks it backwards) — collision handling can disturb it
        self._sequence = dict(sorted(sequence.items(), key=lambda item: item[1]))
        return dropped

    def drop_entries(self) -> int:
        """Drop every entry, keep every counter; returns entries dropped.

        The base-update invalidation path when the reference target value
        changed: every memoised 0/1 answer compared against the old target,
        so no entry can survive — but the hit/miss/eviction counters
        describe work already done and must keep reconciling across the
        update (:meth:`clear` resets them, which would corrupt the ledger).
        """
        dropped = len(self._entries)
        self._entries.clear()
        self._sequence.clear()
        return dropped

    def clear(self) -> None:
        # _next_sequence is deliberately NOT reset: outstanding high-water
        # marks must keep partitioning correctly across a clear
        self._entries.clear()
        self._sequence.clear()
        self.reset_counters()

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _merge_counter(merged: dict, key, value, max_all: bool = False) -> None:
    """Merge one counter into ``merged`` (recursing into nested groups)."""
    if isinstance(value, dict):
        group = merged.setdefault(key, {})
        group_max = max_all or key in _MAX_GROUPS
        for sub_key, sub_value in value.items():
            _merge_counter(group, sub_key, sub_value, max_all=group_max)
    elif max_all or key in _MAX_COUNTERS:
        merged[key] = max(merged.get(key, 0), value)
    else:
        merged[key] = merged.get(key, 0) + value


def aggregate_oracle_statistics(stats_dicts) -> dict[str, int]:
    """Fold per-worker ``oracle.statistics()`` dicts into one aggregate.

    Counters are summed across workers except the high-water marks
    (``max_batch_size``, ``parallel_workers``), which take the maximum.
    Nested groups (the ``encoding`` telemetry) merge recursively, with
    ``dictionary_sizes`` leaves taking the per-column maximum.  Used by the
    sharded scheduler to report one statistics dict for a whole parallel run,
    and usable standalone to combine any oracle counter dicts.
    """
    merged: dict[str, int] = {}
    for stats in stats_dicts:
        for key, value in stats.items():
            _merge_counter(merged, key, value)
    return merged


def memoised_oracle_stats(oracle) -> dict[str, float]:
    """Summary statistics of an oracle's cache behaviour (for bench output)."""
    stats = dict(oracle.statistics())
    total = stats["cache_hits"] + stats["cache_misses"]
    stats["cache_hit_rate"] = stats["cache_hits"] / total if total else 0.0
    if stats["oracle_calls"]:
        stats["repair_runs_per_call"] = stats["repair_runs"] / stats["oracle_calls"]
    else:
        stats["repair_runs_per_call"] = 0.0
    pairs_batched = stats.get("pairs_batched", 0)
    if pairs_batched:
        # fraction of batched pairs answered without a repair (pair-memo hits
        # up front plus within-batch repeats) — query_pairs' dedup
        stats["pairs_dedup_rate"] = stats.get("pairs_deduped", 0) / pairs_batched
        stats["mean_batch_size"] = pairs_batched / stats["batches"]
    else:
        stats["pairs_dedup_rate"] = 0.0
        stats["mean_batch_size"] = 0.0
    return stats
