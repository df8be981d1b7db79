"""Merging oracle caches by ``put`` replay, and counter aggregation.

The sharded scheduler merges each worker's cache diff into the parent
oracle's cache by replaying its entries, oldest first, through
:meth:`OracleCache.put`; worker counters travel separately, as statistics
snapshots folded by :func:`aggregate_oracle_statistics`.  These tests pin
what the replay guarantees — entries land in the receiver in the donor's
LRU order, the receiver's bound governs eviction, reading the donor leaves
it untouched — including replays between caches of different
``cache_size``s, and how the snapshots aggregate.
"""

from __future__ import annotations

import pytest

from repro.repair.cache import OracleCache, aggregate_oracle_statistics


def filled(max_entries, keys, hits=0, misses=0):
    cache = OracleCache(max_entries)
    for key in keys:
        cache.put(key, ord(key[-1]) if isinstance(key, str) else 0)
    cache.hits += hits
    cache.misses += misses
    return cache


def keys_of(cache):
    return [key for key, _ in cache.entries()]


def replay(receiver, donor):
    """Merge ``donor`` into ``receiver`` the way the scheduler merges a diff."""
    for key, value in donor.entries():
        receiver.put(key, value)


# ---------------------------------------------------------------------------
# entry order


def test_entries_lists_lru_order_oldest_first():
    cache = filled(10, ["a", "b", "c"])
    cache.get("a")  # refresh: a becomes most recent
    assert keys_of(cache) == ["b", "c", "a"]


def test_merge_preserves_donor_recency_order():
    receiver = filled(10, ["a", "b"])
    donor = filled(10, ["x", "y", "z"])
    replay(receiver, donor)
    # donor entries are newer than everything already cached, in donor order
    assert keys_of(receiver) == ["a", "b", "x", "y", "z"]


def test_merge_refreshes_overlapping_keys():
    receiver = filled(10, ["a", "b", "c"])
    donor = filled(10, ["b"])
    replay(receiver, donor)
    assert keys_of(receiver) == ["a", "c", "b"]
    assert len(receiver) == 3


# ---------------------------------------------------------------------------
# eviction order when bounds differ


def test_merge_larger_cache_into_smaller_evicts_oldest_first():
    receiver = filled(3, ["a", "b", "c"])
    donor = filled(5, ["v", "w", "x", "y", "z"])
    replay(receiver, donor)
    # the receiver's bound governs: only the donor's three newest survive,
    # exactly as if its entries had been inserted live
    assert keys_of(receiver) == ["x", "y", "z"]
    assert receiver.evictions == 5  # a, b, c, v, w fell out in age order


def test_merge_smaller_cache_into_larger_keeps_everything():
    receiver = filled(10, ["a", "b"])
    donor = filled(2, ["x", "y"])
    replay(receiver, donor)
    assert keys_of(receiver) == ["a", "b", "x", "y"]
    assert receiver.evictions == 0


@pytest.mark.parametrize("receiver_size,donor_size", [(2, 4), (3, 2), (4, 3)])
def test_merge_equals_live_insertion_across_bounds(receiver_size, donor_size):
    """A replay must reproduce the entry set of one shared live cache."""
    receiver_keys = ["a", "b", "c"][: receiver_size]
    donor_keys = ["w", "x", "y", "z"][: donor_size]
    receiver = filled(receiver_size, receiver_keys)
    donor = filled(donor_size, donor_keys)
    replay(receiver, donor)

    live = filled(receiver_size, receiver_keys)
    for key in donor_keys:
        live.put(key, ord(key))
    assert keys_of(receiver) == keys_of(live)


def test_merged_answers_are_retrievable():
    receiver = filled(10, ["a"])
    donor = OracleCache(10)
    donor.put(("pair", "k"), (1, 0))
    replay(receiver, donor)
    assert receiver.get(("pair", "k")) == (1, 0)


# ---------------------------------------------------------------------------
# counters


def test_merge_leaves_donor_untouched():
    receiver = filled(2, ["a", "b"])
    donor = filled(10, ["x", "y", "z"], hits=4)
    replay(receiver, donor)
    assert keys_of(donor) == ["x", "y", "z"]
    assert donor.hits == 4 and donor.evictions == 0


def test_aggregate_oracle_statistics_sums_and_maxes():
    aggregated = aggregate_oracle_statistics([
        {"oracle_calls": 10, "repair_runs": 4, "max_batch_size": 5,
         "parallel_workers": 1},
        {"oracle_calls": 7, "repair_runs": 2, "max_batch_size": 9,
         "parallel_workers": 2},
    ])
    assert aggregated["oracle_calls"] == 17
    assert aggregated["repair_runs"] == 6
    assert aggregated["max_batch_size"] == 9  # high-water mark, not a sum
    assert aggregated["parallel_workers"] == 2


def test_aggregate_oracle_statistics_empty():
    assert aggregate_oracle_statistics([]) == {}
