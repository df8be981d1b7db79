"""A view's column code arrays against the values they encode.

:class:`~repro.engine.view.OverlayStore` keeps one code array per column it
has read (the base codes with the encoded delta scattered in), shares it
copy-on-write with sibling views, and moves it with every write batch.  The
definition it must match is the materialised column, coded value by value in
the base dictionaries; the ``{(row, attribute): value}`` delta must stay the
per-cell ``values_differ`` normalisation of the writes, holding each written
value object itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset.table import CellRef, Table
from repro.engine.storage import ColumnStore, values_differ
from repro.engine.view import OverlayStore
from repro.errors import SchemaError, UnknownRowError

NAN = float("nan")
ATTRIBUTES = ("A", "B")
N_ROWS = 6
_BASE_VALUES = st.sampled_from(["a", "b", 1, 2.5, None, NAN])
#: NULLs, values no base column holds, and equal values of different types
_WRITE_VALUES = st.sampled_from(["a", "b", "new", 1, 1.0, True, 2.5, None, NAN])


def _same(left, right) -> bool:
    """The same value object, or an equal value of the same type."""
    return left is right or (type(left) is type(right) and not values_differ(left, right))


def _assert_codes_match(view: Table, contents: dict, written: dict) -> None:
    """Every built code array, the encoded delta and the delta dict of one view."""
    store = view.store
    base = view.base
    encoding = base.store.encoding()
    for attribute in ATTRIBUTES:
        column = contents[attribute]
        assert all(_same(store.value(row, attribute), column[row]) for row in range(N_ROWS))
        built = store._codes.get(attribute)
        if built is not None:
            expected = [encoding.code_for(attribute, value) for value in column]
            assert built.tolist() == expected
        reference = store.encoded_delta(attribute)
        rows, codes = store.encoded_delta_arrays(attribute)
        assert dict(zip(rows.tolist(), codes.tolist())) == reference
        assert rows.tolist() == sorted(reference)
    expected_delta = {}
    for (row, attribute), value in written.items():
        if values_differ(base.value(row, attribute), value):
            expected_delta[(row, attribute)] = value
    assert view._delta.keys() == expected_delta.keys()
    assert all(_same(view._delta[key], value) for key, value in expected_delta.items())


@st.composite
def _scenarios(draw):
    base = [[draw(_BASE_VALUES) for _ in ATTRIBUTES] for _ in range(N_ROWS)]
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(["write", "write", "read", "fork"]))
        attribute = draw(st.sampled_from(ATTRIBUTES))
        # repeated rows inside one batch: the later write wins
        rows = draw(st.lists(st.integers(min_value=0, max_value=N_ROWS - 1),
                             min_size=1, max_size=8))
        back_to_base = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        values = [draw(_WRITE_VALUES) for _ in rows]
        on_fork = draw(st.booleans())
        steps.append((kind, attribute, rows, back_to_base, values, on_fork))
    perturbation = draw(st.dictionaries(
        st.tuples(st.integers(min_value=0, max_value=N_ROWS - 1), st.sampled_from(ATTRIBUTES)),
        _WRITE_VALUES, max_size=4))
    return base, perturbation, steps


@settings(max_examples=200, deadline=None)
@given(scenario=_scenarios())
def test_view_code_arrays_match_the_materialised_columns(scenario):
    base_rows, perturbation, steps = scenario
    table = Table(list(ATTRIBUTES), base_rows)
    view = table.perturbed({CellRef(row, attribute): value
                            for (row, attribute), value in perturbation.items()})
    views = [view.mutable_snapshot()]
    contents = [{attribute: [view.value(row, attribute) for row in range(N_ROWS)]
                 for attribute in ATTRIBUTES}]
    written = [{key: value for key, value in view._delta.items()}]
    for kind, attribute, rows, back_to_base, values, on_fork in steps:
        target = len(views) - 1 if on_fork else 0
        if kind == "read":
            views[target].store.codes(attribute)
        elif kind == "fork":
            # the fork shares every built code array until one side writes
            views.append(views[target].mutable_snapshot())
            contents.append({a: list(column) for a, column in contents[target].items()})
            written.append(dict(written[target]))
        else:
            batch = [table.value(row, attribute) if to_base else value
                     for row, to_base, value in zip(rows, back_to_base, values)]
            views[target].set_values(attribute, rows, batch)
            for row, value in zip(rows, batch):
                # a value equal to the base cell's (1.0 over 1) reads as the base's
                base_value = table.value(row, attribute)
                contents[target][attribute][row] = \
                    value if values_differ(base_value, value) else base_value
                written[target][(row, attribute)] = value
        for current, current_contents, current_written in zip(views, contents, written):
            _assert_codes_match(current, current_contents, current_written)


def test_write_batch_returns_old_and_new_codes():
    table = Table(["A"], [("x",), ("y",), ("x",)])
    view = table.perturbed({})
    encoding = table.store.encoding()
    code = lambda value: encoding.code_for("A", value)  # noqa: E731
    old, new = view.store.set_values("A", [0, 2, 0], ["y", "z", None])
    # the repeated row's old code is its earlier write's
    assert list(old) == [code("x"), code("x"), code("y")]
    assert list(new) == [code("y"), code("z"), 0]
    assert view.store.codes("A").tolist() == [0, code("y"), code("z")]


def test_uncodable_write_takes_the_object_path():
    table = Table(["A"], [("x",), ("y",)])
    view = table.perturbed({})
    view.store.codes("A")
    assert view.store.set_values("A", [0], [["a", "list"]]) == (None, None)
    assert view.value(0, "A") == ["a", "list"]
    assert view.store.codes("A") is None
    view.set_value(0, "A", "x")  # written back: codable again
    assert view.store.codes("A").tolist() == table.store.codes("A").tolist()


# -- malformed write batches ---------------------------------------------------------


def _plain_and_view():
    table = Table(["A", "B"], [("u", 1), ("v", 2), ("w", 3)])
    table.stats.marginal("A")
    view = table.perturbed({CellRef(0, "B"): 9})
    view.stats.marginal("A")
    return table, view


@pytest.mark.parametrize("row", [True, False, 1.5, 1.0, "1", None, -1, 3, np.bool_(True)])
@pytest.mark.parametrize("kind", ["plain", "view"])
def test_non_integral_or_outside_row_leaves_the_table_untouched(row, kind):
    plain, view = _plain_and_view()
    table = plain if kind == "plain" else view
    before = [table.value(i, "A") for i in range(3)]
    version = table.version
    fingerprint = table.fingerprint()
    with pytest.raises(UnknownRowError):
        table.set_value(row, "A", "w")
    with pytest.raises(UnknownRowError):
        table.set_values("A", [0, row], ["p", "q"])
    assert [table.value(i, "A") for i in range(3)] == before
    assert table.version == version
    assert table.fingerprint() == fingerprint
    assert dict(table.stats.marginal("A").items()) == {"u": 1, "v": 1, "w": 1}


@pytest.mark.parametrize("kind", ["plain", "view"])
def test_numpy_integer_rows_are_rows(kind):
    plain, view = _plain_and_view()
    table = plain if kind == "plain" else view
    table.set_values("A", [np.int64(1), np.int32(2)], ["p", "q"])
    assert [table.value(i, "A") for i in range(3)] == ["u", "p", "q"]
    assert dict(table.stats.marginal("A").items()) == {"u": 1, "p": 1, "q": 1}
    if kind == "view":
        assert all(type(row) is int for row, _attribute in table._delta)
        assert all(type(row) is int for row, _attribute in table.change_log)


@pytest.mark.parametrize("rows", [
    np.array([True, False]), np.array([0.0, 1.0]), np.array([0, -1]),
    np.array([0, 3]), np.array([[0], [1]]),
], ids=["bool", "float", "negative", "out-of-range", "two-dimensional"])
@pytest.mark.parametrize("kind", ["plain", "view"])
def test_bad_row_arrays_leave_the_table_untouched(rows, kind):
    plain, view = _plain_and_view()
    table = plain if kind == "plain" else view
    version = table.version
    fingerprint = table.fingerprint()
    with pytest.raises(UnknownRowError):
        table.set_values("A", rows, ["p", "q"])
    assert [table.value(i, "A") for i in range(3)] == ["u", "v", "w"]
    assert table.version == version
    assert table.fingerprint() == fingerprint
    assert dict(table.stats.marginal("A").items()) == {"u": 1, "v": 1, "w": 1}


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
@pytest.mark.parametrize("kind", ["plain", "view"])
def test_integer_row_arrays_are_rows(kind, dtype):
    plain, view = _plain_and_view()
    table = plain if kind == "plain" else view
    table.set_values("A", np.array([2, 1], dtype=dtype), ["p", "q"])
    assert [table.value(i, "A") for i in range(3)] == ["u", "q", "p"]
    assert dict(table.stats.marginal("A").items()) == {"u": 1, "p": 1, "q": 1}
    if kind == "view":
        assert all(type(row) is int for row, _attribute in table._delta)
        assert all(type(row) is int for row, _attribute in table.change_log)


@pytest.mark.parametrize("kind", ["plain", "view"])
@pytest.mark.parametrize("rows, values", [([0, 1], ["p"]), ([0], ["p", "q"]), ([], ["p"])])
def test_rows_and_values_of_different_lengths_raise_before_any_write(kind, rows, values):
    plain, view = _plain_and_view()
    table = plain if kind == "plain" else view
    version = table.version
    with pytest.raises(SchemaError, match="one value per row"):
        table.set_values("A", rows, values)
    assert [table.value(i, "A") for i in range(3)] == ["u", "v", "w"]
    assert table.version == version
    assert dict(table.stats.marginal("A").items()) == {"u": 1, "v": 1, "w": 1}
    if kind == "view":
        assert table.change_log == []


@pytest.mark.parametrize("store_kind", ["plain", "overlay"])
def test_store_level_row_checks(store_kind):
    base = ColumnStore({"A": ["u", "v", "w"]})
    store = base if store_kind == "plain" else OverlayStore(base, {})
    with pytest.raises(UnknownRowError):
        store.set_values("A", [True], ["x"])
    with pytest.raises(SchemaError):
        store.set_values("A", [0, 1], ["x"])
    assert list(store.column("A")) == ["u", "v", "w"]
