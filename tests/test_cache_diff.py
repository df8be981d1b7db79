"""Property suite for cache-diff shipping (warm-pool wire protocol).

The warm pool ships home only the :class:`~repro.repair.cache.OracleCache`
entries inserted since each worker's last sync, cut by a per-worker
high-water mark (:meth:`~repro.repair.cache.OracleCache.high_water_mark` /
:meth:`~repro.repair.cache.OracleCache.entries_since`).  For random entry
sequences, cache sizes and round partitions this must be indistinguishable
from shipping the whole cache:

* replaying the per-round diffs reconstructs exactly what replaying the
  whole worker cache reconstructs (same keys, same values), with each
  insertion travelling once — never lost, never duplicated;
* high-water marks survive evictions: a bounded cache that cycles entries
  still cuts every diff correctly, and an entry evicted *and recomputed*
  after a sync is shipped again (its re-insertion is new information);
* the scheduler's counter protocol (reset at round entry, ship the delta,
  sum at home) reproduces the whole-run hit/miss/eviction counters.

The oracle's determinism is simulated by deriving each value from its key,
mirroring the real contract (same key ⇒ same answer).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.repair.cache import OracleCache

#: a key universe small enough that puts collide and evictions re-cycle keys
keys = st.integers(min_value=0, max_value=23)

#: one simulated workload: a sequence of (key, is_put) operations
operations = st.lists(st.tuples(keys, st.booleans()), min_size=0, max_size=120)

#: where the round boundaries fall inside the workload
round_cuts = st.lists(st.integers(min_value=0, max_value=120),
                      min_size=0, max_size=6)


def value_of(key: int) -> int:
    """The deterministic 'oracle answer' for a key."""
    return key * 2 + 1


def run_rounds(cache: OracleCache, ops, cuts):
    """Drive ``ops`` through ``cache`` and ship a diff at every round cut.

    Returns the per-round diffs plus the per-round counter deltas, exactly
    as a warm worker produces them (mark at sync, reset counters at entry).
    """
    boundaries = sorted(set(min(cut, len(ops)) for cut in cuts)) + [len(ops)]
    diffs, counter_deltas = [], []
    mark = cache.high_water_mark()
    start = 0
    for boundary in boundaries:
        cache.reset_counters()
        for key, is_put in ops[start:boundary]:
            if is_put:
                cache.put(key, value_of(key))
            else:
                cache.get(key)
        diffs.append(cache.entries_since(mark))
        mark = cache.high_water_mark()
        counter_deltas.append({"hits": cache.hits, "misses": cache.misses,
                               "evictions": cache.evictions})
        start = boundary
    return diffs, counter_deltas


@settings(max_examples=200, deadline=None)
@given(ops=operations, cuts=round_cuts)
def test_diffs_reconstruct_exactly_the_whole_cache_merge(ops, cuts):
    """Diff-merging and whole-cache merging reach the same parent state."""
    worker = OracleCache()  # unbounded in practice (the 1M default)
    diffs, _ = run_rounds(worker, ops, cuts)

    parent_from_diffs = OracleCache()
    for diff in diffs:
        for key, value in diff:
            parent_from_diffs.put(key, value)
    parent_from_whole = OracleCache()
    for key, value in worker.entries():
        parent_from_whole.put(key, value)

    assert dict(parent_from_diffs.entries()) == dict(parent_from_whole.entries())
    assert dict(parent_from_diffs.entries()) == dict(worker.entries())
    # every insertion travelled exactly once: without evictions the diff
    # volume is exactly the number of *distinct* keys ever put
    put_keys = {key for key, is_put in ops if is_put}
    assert sum(len(diff) for diff in diffs) == len(put_keys)
    # and the diffs are pairwise disjoint — nothing ships twice
    shipped = [key for diff in diffs for key, _ in diff]
    assert len(shipped) == len(set(shipped))


@settings(max_examples=200, deadline=None)
@given(ops=operations, cuts=round_cuts,
       cache_size=st.integers(min_value=2, max_value=8))
def test_high_water_marks_survive_evictions(ops, cuts, cache_size):
    """Bounded worker caches cycle entries; the marks must keep cutting true."""
    worker = OracleCache(max_entries=cache_size)
    inserted_at: dict[int, int] = {}     # key -> round of latest insertion
    boundaries = sorted(set(min(cut, len(ops)) for cut in cuts)) + [len(ops)]
    mark = worker.high_water_mark()
    start = 0
    parent = OracleCache()
    for round_index, boundary in enumerate(boundaries):
        present_before = {key for key, _ in worker.entries()}
        for key, is_put in ops[start:boundary]:
            if is_put:
                if key not in worker:
                    inserted_at[key] = round_index
                worker.put(key, value_of(key))
            else:
                worker.get(key)
        diff = worker.entries_since(mark)
        mark = worker.high_water_mark()
        start = boundary
        diff_keys = {key for key, _ in diff}
        # a diff ships exactly the still-present entries whose latest
        # insertion happened this round: refreshed old entries never ship,
        # evicted-and-recomputed keys always do
        surviving = {key for key, _ in worker.entries()}
        expected = {key for key in surviving
                    if inserted_at.get(key) == round_index}
        assert diff_keys == expected
        # entries that were already resident before the round never re-ship
        assert not {key for key in diff_keys
                    if key in present_before
                    and inserted_at.get(key) != round_index}
        for key, value in diff:
            assert value == value_of(key)
            parent.put(key, value)
    # nothing the worker still holds was lost on the way home
    for key, value in worker.entries():
        assert key in parent
        assert dict(parent.entries())[key] == value


@settings(max_examples=150, deadline=None)
@given(ops=operations, cuts=round_cuts,
       cache_size=st.integers(min_value=2, max_value=8))
def test_round_counter_deltas_sum_to_the_whole_run(ops, cuts, cache_size):
    """Reset-at-entry deltas (what reports carry) add up to one long run."""
    per_round = OracleCache(max_entries=cache_size)
    _, deltas = run_rounds(per_round, ops, cuts)

    continuous = OracleCache(max_entries=cache_size)
    for key, is_put in ops:
        if is_put:
            continuous.put(key, value_of(key))
        else:
            continuous.get(key)

    assert sum(delta["hits"] for delta in deltas) == continuous.hits
    assert sum(delta["misses"] for delta in deltas) == continuous.misses
    assert sum(delta["evictions"] for delta in deltas) == continuous.evictions
    # the caches themselves evolved identically (counters never affect state)
    assert per_round.entries() == continuous.entries()


@settings(max_examples=100, deadline=None)
@given(ops=operations, cuts=round_cuts)
def test_marks_are_monotone_and_clear_safe(ops, cuts):
    """Marks never rewind — not across rounds, evictions, or clear()."""
    cache = OracleCache(max_entries=3)
    marks = [cache.high_water_mark()]
    boundaries = sorted(set(min(cut, len(ops)) for cut in cuts)) + [len(ops)]
    start = 0
    for boundary in boundaries:
        for key, is_put in ops[start:boundary]:
            if is_put:
                cache.put(key, value_of(key))
            else:
                cache.get(key)
        marks.append(cache.high_water_mark())
        start = boundary
    assert marks == sorted(marks)
    stale_mark = cache.high_water_mark()
    cache.clear()
    assert cache.high_water_mark() >= stale_mark
    cache.put(99, value_of(99))
    # the pre-clear mark still cuts correctly: only the new entry is newer
    assert [key for key, _ in cache.entries_since(stale_mark)] == [99]


def test_entries_since_orders_by_insertion():
    """Diffs replay in insertion order, not LRU order."""
    cache = OracleCache()
    mark = cache.high_water_mark()
    for key in (3, 1, 2):
        cache.put(key, value_of(key))
    cache.get(3)  # refresh 3's recency; its insertion position must not move
    assert [key for key, _ in cache.entries_since(mark)] == [3, 1, 2]
    assert [key for key, _ in cache.entries()] == [1, 2, 3]  # LRU order differs

