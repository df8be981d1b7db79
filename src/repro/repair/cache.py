"""Memoisation of black-box repair queries.

Shapley evaluation queries the repair algorithm with many *repeated* inputs:
the exact constraint-Shapley formula evaluates every subset twice (once as
``S`` and once as ``S ∪ {C'}`` for another constraint), and permutation
sampling frequently revisits coalitions.  Caching oracle answers keyed on the
(constraint subset, table snapshot) pair removes that redundancy without
changing any result — the repairer is deterministic by contract.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

# the max-merged key sets come from the metric declarations, so the
# aggregate below can never disagree with the registry about a counter's
# merge rule
from repro.observability.metrics import (
    MAX_COUNTERS as _MAX_COUNTERS,
    MAX_GROUPS as _MAX_GROUPS,
)


class OracleCache:
    """A bounded LRU cache for binary oracle answers.

    Every key is content-derived: a plain table's fingerprint is its whole
    column content, and an overlay's is that plus its normalised delta.  So
    an entry stays a correct memo of the content it names after the live
    base table moves on, and a base update keeps every entry (only a change
    of the repair target drops them, :meth:`drop_entries`); a later update
    that returns to an earlier table state finds its answers again.

    The default bound (1 million entries) is far above anything the bundled
    experiments need; it exists so pathological workloads degrade gracefully
    instead of exhausting memory.  Because entries are kept across base
    states, the same bound also governs how much of earlier base states is
    kept: the least recently used entries, whatever state they name, go
    first.
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

        Replaying these entries oldest-first into another cache's
        :meth:`put` reproduces this recency ranking there, so a later
        eviction pass drops the same entries a single shared cache would
        have dropped (the scheduler replays worker diffs the same way).
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

    def rebase(self, changes, old_base, new_base) -> int:
        """Retired: a base update keeps every entry (see the class docstring).

        Kept only as a named stub because the benchmark tracer still wraps
        it; nothing calls it.
        """
        raise NotImplementedError(
            "OracleCache.rebase is retired: cache keys are content-derived, "
            "so entries stay valid across base updates"
        )

    def drop_entries(self) -> int:
        """Drop every entry, keep every counter; returns entries dropped.

        The one base-update invalidation, for a change of the reference
        target value: every memoised 0/1 answer compared against the old
        target, so no entry can survive — but the hit/miss/eviction counters
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
