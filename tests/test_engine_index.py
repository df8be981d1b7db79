"""Unit tests for hash indexes.

A one-column index is a :class:`MultiColumnIndex` over a one-element key;
the ``test_hash_index_*`` tests cover that case.
"""

from repro.engine.index import MultiColumnIndex
from repro.engine.storage import ColumnStore


def make_store():
    return ColumnStore(
        {
            "City": ["Madrid", "Madrid", "Barcelona", None, "Madrid"],
            "Country": ["Spain", "Spain", "Spain", "Spain", None],
        }
    )


def city_index():
    return MultiColumnIndex(make_store(), ["City"])


def test_hash_index_groups_rows_by_value():
    index = city_index()
    assert index.rows_with_key(("Madrid",)) == [0, 1, 4]
    assert index.rows_with_key(("Barcelona",)) == [2]
    assert index.rows_with_key(("Paris",)) == []


def test_hash_index_skips_nulls():
    index = city_index()
    assert index.rows_with_key((None,)) == []
    all_rows = {row for _, rows in index.groups() for row in rows}
    assert 3 not in all_rows
    assert len(index) == 2  # Madrid, Barcelona
    assert index.build_key_of(3) is None


def test_hash_index_values_listing():
    index = city_index()
    assert sorted(key for key, _ in index.groups()) == [("Barcelona",), ("Madrid",)]


def test_multi_column_index_groups_by_key():
    index = MultiColumnIndex(make_store(), ["City", "Country"])
    assert index.rows_with_key(("Madrid", "Spain")) == [0, 1]
    assert index.rows_with_key(("Barcelona", "Spain")) == [2]


def test_multi_column_index_skips_rows_with_any_null():
    index = MultiColumnIndex(make_store(), ["City", "Country"])
    keys = {key for key, _ in index.groups()}
    assert all(None not in key for key in keys)
    # rows 3 (null city) and 4 (null country) are excluded
    all_rows = {row for _, rows in index.groups() for row in rows}
    assert all_rows == {0, 1, 2}


def test_multi_column_index_null_key_lookup_is_empty():
    index = MultiColumnIndex(make_store(), ["City", "Country"])
    assert index.rows_with_key((None, "Spain")) == []


# -- sortedness + delta maintenance ------------------------------------------------


def assert_groups_sorted(index):
    for _, rows in index.groups():
        assert rows == sorted(rows)


def test_hash_index_groups_are_sorted_regression():
    # the docstring promises sorted row ids; build from a store whose
    # enumeration could tempt insertion order to diverge, then stress the
    # invariant through delta maintenance
    index = city_index()
    assert_groups_sorted(index)
    index.apply_delta({3: (None, ("Madrid",))})   # null cell gains a value
    assert index.rows_with_key(("Madrid",)) == [0, 1, 3, 4]
    assert_groups_sorted(index)
    index.revert_delta({3: (None, ("Madrid",))})
    assert index.rows_with_key(("Madrid",)) == [0, 1, 4]


def test_hash_index_apply_and_revert_delta_roundtrip():
    index = city_index()
    before = {key: rows for key, rows in index.groups()}
    changes = {
        0: (("Madrid",), ("Barcelona",)),   # move between groups
        2: (("Barcelona",), None),          # nulled out: leaves the index
        3: (None, ("Paris",)),              # new value: fresh group
    }
    index.apply_delta(changes)
    assert index.rows_with_key(("Madrid",)) == [1, 4]
    assert index.rows_with_key(("Barcelona",)) == [0]
    assert index.rows_with_key(("Paris",)) == [3]
    assert_groups_sorted(index)
    index.revert_delta(changes)
    assert {key: rows for key, rows in index.groups()} == before


def test_hash_index_delta_drops_empty_groups():
    index = city_index()
    index.apply_delta({2: (("Barcelona",), ("Madrid",))})
    assert index.rows_with_key(("Barcelona",)) == []
    assert ("Barcelona",) not in {key for key, _ in index.groups()}
    index.revert_delta({2: (("Barcelona",), ("Madrid",))})
    assert index.rows_with_key(("Barcelona",)) == [2]


def test_multi_column_index_apply_and_revert_delta():
    index = MultiColumnIndex(make_store(), ["City", "Country"])
    before = {key: rows for key, rows in index.groups()}
    changes = {
        1: (("Madrid", "Spain"), ("Barcelona", "Spain")),
        2: (("Barcelona", "Spain"), None),   # key gained a null component
        4: (None, ("Madrid", "Spain")),      # key became fully non-null
    }
    index.apply_delta(changes)
    assert index.rows_with_key(("Madrid", "Spain")) == [0, 4]
    assert index.rows_with_key(("Barcelona", "Spain")) == [1]
    assert_groups_sorted(index)
    index.revert_delta(changes)
    assert {key: rows for key, rows in index.groups()} == before


def test_multi_column_index_build_key_of():
    index = MultiColumnIndex(make_store(), ["City", "Country"])
    assert index.build_key_of(0) == ("Madrid", "Spain")
    assert index.build_key_of(3) is None   # null city
    assert index.build_key_of(4) is None   # null country
    # build keys record the base snapshot even while a delta is applied
    index.apply_delta({0: (("Madrid", "Spain"), None)})
    assert index.build_key_of(0) == ("Madrid", "Spain")
    index.revert_delta({0: (("Madrid", "Spain"), None)})
