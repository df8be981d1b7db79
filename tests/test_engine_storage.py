"""Unit tests for the columnar storage layer."""

import pytest

from repro.constraints.parser import parse_dcs
from repro.constraints.violations import find_all_violations
from repro.dataset.table import Table
from repro.engine.storage import NULL, ColumnStore, is_null
from repro.errors import SchemaError, UnknownAttributeError, UnknownRowError
from repro.repair.greedy import GreedyHolisticRepair
from repro.repair.simple import SimpleRuleRepair


def make_store():
    return ColumnStore({"a": [1, 2, 3], "b": ["x", "y", "z"]})


def test_basic_shape():
    store = make_store()
    assert store.n_rows == 3
    assert store.n_columns == 2
    assert len(store) == 3
    assert store.column_names == ("a", "b")
    assert "a" in store and "c" not in store


def test_from_rows_roundtrip():
    store = ColumnStore.from_rows(["a", "b"], [(1, "x"), (2, "y")])
    assert store.row(0) == (1, "x")
    assert store.row(1) == (2, "y")
    assert list(store.iter_rows()) == [(1, "x"), (2, "y")]


def test_from_rows_empty():
    store = ColumnStore.from_rows(["a", "b"], [])
    assert store.n_rows == 0
    assert store.column_names == ("a", "b")


def test_from_rows_wrong_width():
    with pytest.raises(SchemaError):
        ColumnStore.from_rows(["a", "b"], [(1, 2, 3)])


def test_inconsistent_column_lengths():
    with pytest.raises(SchemaError):
        ColumnStore({"a": [1, 2], "b": [1]})


def test_empty_columns_rejected():
    with pytest.raises(SchemaError):
        ColumnStore({})


def test_value_access_and_errors():
    store = make_store()
    assert store.value(1, "b") == "y"
    with pytest.raises(UnknownAttributeError):
        store.value(0, "nope")
    with pytest.raises(UnknownRowError):
        store.value(9, "a")
    with pytest.raises(UnknownRowError):
        store.value(-1, "a")


def test_set_value_mutates_only_target():
    store = make_store()
    store.set_value(0, "a", 99)
    assert store.value(0, "a") == 99
    assert store.value(1, "a") == 2


def test_copy_is_independent():
    store = make_store()
    clone = store.copy()
    clone.set_value(0, "a", 42)
    assert store.value(0, "a") == 1
    assert clone.value(0, "a") == 42
    assert store.equals(make_store())


def test_column_view_is_read_only():
    store = make_store()
    view = store.column("a")
    with pytest.raises(ValueError):
        view[0] = 10


def test_fingerprint_changes_with_content():
    store = make_store()
    before = store.fingerprint()
    assert before == make_store().fingerprint()
    store.set_value(2, "b", "w")
    assert store.fingerprint() != before
    assert hash(store.fingerprint())  # usable as a dict key


def test_equals_detects_differences():
    store = make_store()
    other = make_store()
    assert store.equals(other)
    other.set_value(0, "b", "q")
    assert not store.equals(other)


def test_is_null_semantics():
    assert is_null(None)
    assert is_null(float("nan"))
    assert not is_null(0)
    assert not is_null("")
    assert NULL is None


@pytest.mark.parametrize("values", [
    [(1, 2), (1, 2), (3, 4)],
    [[1, 2], [1, 2], [3, 4]],
])
def test_equal_length_sequence_values_stay_cells(values):
    store = ColumnStore({"a": values, "b": ["x", "y", "z"]})
    assert store.column("a").shape == (3,)
    assert [store.value(row, "a") for row in range(3)] == values


@pytest.mark.parametrize("algorithm_class", [SimpleRuleRepair, GreedyHolisticRepair])
def test_fd_on_a_tuple_column_repairs_like_the_rescan(algorithm_class):
    table = Table(["A", "B"], [[(1, 2), "x"], [(1, 2), "y"], [(1, 2), "x"],
                               [(3, 4), "z"]])
    assert table.value(0, "A") == (1, 2)
    constraints = parse_dcs(["not(t1.A == t2.A and t1.B != t2.B)"])
    walk = algorithm_class().repair(constraints, table).clean
    rescan = algorithm_class(second_order=False).repair(constraints, table).clean
    assert walk.to_records() == rescan.to_records()
    assert not find_all_violations(walk, constraints)
