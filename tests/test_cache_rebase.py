"""Property suite for :meth:`OracleCache.rebase` (base-table updates).

``rebase`` re-keys the oracle memo cache onto a mutated base table: an entry
survives iff its overlay fingerprint is rooted at the old base and pins
*every* changed cell, and its key is rewritten onto the new base with the
overlay items that no longer differ from the new value dropped.  The fast
implementation memoises one verdict per fingerprint object and bisects the
sorted overlay items per changed cell; this suite checks it against
:func:`reference_rebase`, a direct set-based statement of the same rule,
on random caches:

* overlays over the old base, over an equal base that crossed a pickle
  boundary (a distinct object), and over an unrelated base;
* multi-cell changes, pinned and unpinned changed cells, and empty changes;
* pinned values equal to the new value (normalisation, nulls included),
  so two keys can normalise onto one;
* ``pair``, ``paird``, 2-tuple and foreign keys, with fingerprint objects
  shared between keys as the oracle shares them.

Entries and their LRU order, insertion sequences, the dropped count, the
high-water mark and every diff cut by a pre-rebase mark must all agree.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.engine.storage import Fingerprint, is_null, values_differ
from repro.repair.cache import OracleCache

NAN = float("nan")

#: a small cell universe so overlays often pin the changed cells
CELLS = [(row, attribute) for row in range(3) for attribute in ("A", "B")]

#: ``None`` and ``NAN`` are both null: a pinned null equals a null new value
VALUES = [0, 1, None, NAN]

NAMES = [("C1",), ("C1", "C2")]

OLD_DATA = (("A", (0, 1, 0)), ("B", (1, 1, 0)))
NEW_DATA = (("A", (1, 1, 0)), ("B", (1, 0, 0)))
OTHER_DATA = (("A", (2, 2, 2)), ("B", (2, 2, 2)))


def reference_rebase(cache: OracleCache, changes, old_base, new_base) -> int:
    """The rebase rule stated directly: one pinned-cell set per key."""

    def remap(fingerprint):
        data = getattr(fingerprint, "data", None)
        if not (isinstance(data, tuple) and len(data) == 3
                and data[0] == "overlay" and data[1] == old_base):
            return None
        items = data[2]
        pinned = {(row, name) for row, name, _ in items}
        if any(cell not in pinned for cell in changes):
            return None
        kept = tuple(
            item for item in items
            if (item[0], item[1]) not in changes
            or values_differ(item[2], changes[(item[0], item[1])])
        )
        return Fingerprint(("overlay", new_base, kept))

    def rebase_key(key):
        if not isinstance(key, tuple):
            return None
        if len(key) == 4 and key[0] == "paird":
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

    if not changes:
        return 0
    remapped: OrderedDict = OrderedDict()
    sequence: dict = {}
    dropped = 0
    for key, value in cache._entries.items():
        new_key = rebase_key(key)
        if new_key is None:
            dropped += 1
            continue
        if new_key in remapped:
            sequence[new_key] = max(sequence[new_key], cache._sequence[key])
            dropped += 1
            continue
        remapped[new_key] = value
        sequence[new_key] = cache._sequence[key]
    cache._entries = remapped
    cache._sequence = dict(sorted(sequence.items(), key=lambda item: item[1]))
    return dropped


def overlay(base, delta: dict) -> Fingerprint:
    """An overlay fingerprint the way ``OverlayStore.fingerprint`` builds it."""
    items = tuple((row, name, delta[(row, name)]) for row, name in sorted(delta))
    return Fingerprint(("overlay", base, items))


@st.composite
def scenarios(draw):
    old_base = Fingerprint(OLD_DATA)
    # one unpickled base per shipped message: equal to the old base, but a
    # distinct object shared by every key of that message
    clones = [pickle.loads(pickle.dumps(old_base)) for _ in range(2)]
    bases = [old_base, old_base, old_base, clones[0], clones[1],
             Fingerprint(OTHER_DATA)]
    changes = {}
    if draw(st.integers(min_value=0, max_value=7)):
        # nulls weigh double: a null new value is what lets twins collide
        changes = draw(st.dictionaries(
            st.sampled_from(CELLS), st.sampled_from(VALUES + [None, NAN]),
            min_size=1, max_size=3,
        ))
    values = st.sampled_from(VALUES)
    nulls = st.sampled_from([None, NAN])

    def delta():
        cells = {}
        if changes and draw(st.integers(min_value=0, max_value=3)):
            # pin every changed cell, sometimes at the new value itself
            for cell in changes:
                cells[cell] = draw(values)
        extra = draw(st.dictionaries(st.sampled_from(CELLS), values, max_size=3))
        for cell, value in extra.items():
            cells.setdefault(cell, value)
        return cells

    shared: list = []

    def twin(fingerprint):
        # the same overlay with every changed cell re-pinned at a value equal
        # to the new one; None and NAN are both null, so a twin can differ
        # from its original and still normalise onto the same key
        _, base, items = fingerprint.data
        delta = {(row, name): value for row, name, value in items}
        for cell, value in changes.items():
            delta[cell] = draw(nulls) if is_null(value) else value
        return overlay(base, delta)

    def fingerprint():
        kind = draw(st.integers(min_value=0, max_value=9))
        if shared and kind < 2:
            return draw(st.sampled_from(shared))
        if shared and kind < 4:
            made = twin(draw(st.sampled_from(shared)))
        elif kind == 9:
            return draw(st.sampled_from([
                old_base,  # a plain base-snapshot key
                "not-a-fingerprint",
                Fingerprint(("overlay", old_base)),
                Fingerprint(("other", old_base, ())),
                ("overlay", old_base, ()),
            ]))
        else:
            made = overlay(draw(st.sampled_from(bases)), delta())
        shared.append(made)
        return made

    def key():
        names = draw(st.sampled_from(NAMES))
        shape = draw(st.sampled_from(["single", "single", "pair", "paird", "foreign"]))
        if shape == "single":
            return (names, fingerprint())
        if shape == "pair":
            return ("pair", names, fingerprint(), fingerprint())
        if shape == "paird":
            cell = draw(st.sampled_from(CELLS))
            return ("paird", names, fingerprint(),
                    ((cell[0], cell[1], draw(values)),))
        return draw(st.sampled_from([
            "foreign", 42, ("a", "b", "c"), ("paird", names), (names,),
            ("x", "pair", fingerprint(), fingerprint()),
        ]))

    pool = [key() for _ in range(draw(st.integers(min_value=1, max_value=12)))]
    # every key is inserted once, then gets, re-puts and marks reorder the
    # LRU ranking against the insertion sequence
    index = st.integers(min_value=0, max_value=len(pool) - 1)
    operations = [("put", position, position % 2) for position in range(len(pool))]
    operations += draw(st.lists(st.one_of(
        st.tuples(st.just("put"), index, st.integers(min_value=0, max_value=1)),
        st.tuples(st.just("get"), index, st.just(0)),
        st.tuples(st.just("mark"), st.just(0), st.just(0)),
    ), max_size=20))
    operations = draw(st.permutations(operations))
    max_entries = draw(st.sampled_from([1_000_000, 6]))
    return pool, operations, max_entries, changes, old_base, Fingerprint(NEW_DATA)


def build(pool, operations, max_entries):
    cache = OracleCache(max_entries=max_entries)
    marks = [cache.high_water_mark()]
    for action, index, value in operations:
        if action == "put":
            cache.put(pool[index], value)
        elif action == "get":
            cache.get(pool[index])
        else:
            marks.append(cache.high_water_mark())
    return cache, marks


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_rebase_matches_set_based_reference(scenario):
    pool, operations, max_entries, changes, old_base, new_base = scenario
    cache, marks = build(pool, operations, max_entries)
    reference, _ = build(pool, operations, max_entries)

    dropped = cache.rebase(changes, old_base, new_base)
    expected_dropped = reference_rebase(reference, changes, old_base, new_base)

    assert dropped == expected_dropped
    assert cache.entries() == reference.entries()
    assert list(cache._sequence.items()) == list(reference._sequence.items())
    assert cache.high_water_mark() == reference.high_water_mark()
    for mark in marks:
        assert cache.entries_since(mark) == reference.entries_since(mark)
    # the rebased cache keeps working as a cache: every survivor is found
    for key, value in reference.entries():
        assert cache.get(key) == value


def test_two_keys_normalising_to_one_keep_the_newer_sequence():
    old_base, new_base = Fingerprint(OLD_DATA), Fingerprint(NEW_DATA)
    first = (NAMES[0], overlay(old_base, {(0, "A"): None, (1, "B"): 0}))
    second = (NAMES[0], overlay(old_base, {(0, "A"): NAN, (1, "B"): 0}))
    cache = OracleCache()
    cache.put(first, 1)
    cache.put(second, 1)

    assert cache.rebase({(0, "A"): None}, old_base, new_base) == 1

    merged = (NAMES[0], overlay(new_base, {(1, "B"): 0}))
    assert cache.entries() == [(merged, 1)]
    assert cache._sequence == {merged: 1}


def test_survivor_reuses_items_unless_a_pinned_value_normalises():
    old_base, new_base = Fingerprint(OLD_DATA), Fingerprint(NEW_DATA)
    kept = overlay(old_base, {(0, "A"): 0, (2, "B"): 1})
    normalised = overlay(old_base, {(0, "A"): 1, (2, "B"): 1})
    cache = OracleCache()
    cache.put((NAMES[0], kept), 0)
    cache.put((NAMES[1], normalised), 1)

    assert cache.rebase({(0, "A"): 1}, old_base, new_base) == 0

    (_, first), (_, second) = (key for key, _ in cache.entries())
    assert first.data[1] is new_base and second.data[1] is new_base
    assert first.data[2] is kept.data[2]
    assert second.data[2] == ((2, "B", 1),)


def test_shared_fingerprint_is_remapped_once():
    old_base, new_base = Fingerprint(OLD_DATA), Fingerprint(NEW_DATA)
    clone = pickle.loads(pickle.dumps(old_base))
    with_side = overlay(clone, {(1, "A"): 0})
    cache = OracleCache()
    cache.put((NAMES[0], with_side), 1)
    cache.put(("paird", NAMES[0], with_side, ((2, "A", 1),)), (1, 0))

    assert cache.rebase({(1, "A"): 0}, old_base, new_base) == 0

    (single, _), (paird, _) = cache.entries()
    assert single[1] is paird[2]
    assert single[1] == Fingerprint(("overlay", new_base, ()))


def test_empty_changes_leave_the_cache_untouched():
    old_base, new_base = Fingerprint(OLD_DATA), Fingerprint(NEW_DATA)
    key = (NAMES[0], old_base)
    cache = OracleCache()
    cache.put(key, 1)

    assert cache.rebase({}, old_base, new_base) == 0
    assert cache.entries() == [(key, 1)]
