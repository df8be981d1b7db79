"""Unit tests for the Table / CellRef / RepairDelta data model."""

import numpy as np
import pytest

from repro.dataset.schema import Schema
from repro.dataset.table import CellRef, RepairDelta, Table
from repro.errors import SchemaError, UnknownAttributeError, UnknownRowError


def make_table():
    return Table(
        ["Team", "City"],
        [["Real", "Madrid"], ["Barca", "Barcelona"], ["Real", "Capital"]],
        name="demo",
    )


def test_shape_properties():
    table = make_table()
    assert table.n_rows == 3
    assert table.n_columns == 2
    assert table.n_cells == 6
    assert table.attributes == ("Team", "City")
    assert len(table) == 3


def test_cell_access_and_rows():
    table = make_table()
    assert table.value(0, "City") == "Madrid"
    assert table[CellRef(2, "City")] == "Capital"
    assert table.row(1) == {"Team": "Barca", "City": "Barcelona"}
    assert table.row_tuple(1) == ("Barca", "Barcelona")


def test_cells_iteration_is_row_major():
    table = make_table()
    cells = list(table.cells())
    assert cells[0] == CellRef(0, "Team")
    assert cells[1] == CellRef(0, "City")
    assert cells[2] == CellRef(1, "Team")
    assert len(cells) == 6


def test_from_columns_constructor():
    table = Table.from_columns({"A": [1, 2], "B": [3, 4]})
    assert table.n_rows == 2
    assert table.value(1, "B") == 4


def test_with_values_returns_independent_copy():
    table = make_table()
    updated = table.with_values({CellRef(2, "City"): "Madrid"})
    assert updated.value(2, "City") == "Madrid"
    assert table.value(2, "City") == "Capital"


def test_with_cells_nulled_and_is_null():
    table = make_table()
    nulled = table.with_cells_nulled([CellRef(0, "Team"), CellRef(1, "City")])
    assert nulled.is_null(CellRef(0, "Team"))
    assert nulled.is_null(CellRef(1, "City"))
    assert not nulled.is_null(CellRef(0, "City"))


def test_restricted_to_coalition_nulls_everything_else():
    table = make_table()
    coalition = {CellRef(0, "Team"), CellRef(2, "City")}
    restricted = table.restricted_to_coalition(coalition)
    for cell in restricted.cells():
        if cell in coalition:
            assert restricted[cell] == table[cell]
        else:
            assert restricted.is_null(cell)


def test_diff_produces_repair_delta():
    dirty = make_table()
    clean = dirty.with_values({CellRef(2, "City"): "Madrid"})
    delta = dirty.diff(clean)
    assert len(delta) == 1
    assert CellRef(2, "City") in delta
    change = delta.change_for(CellRef(2, "City"))
    assert change.old_value == "Capital"
    assert change.new_value == "Madrid"
    assert delta.new_value(CellRef(2, "City")) == "Madrid"
    assert delta.new_value(CellRef(0, "Team")) is None


def test_repair_delta_value_equality():
    dirty = make_table()
    repair = {CellRef(2, "City"): "Madrid", CellRef(1, "Team"): "Barcelona"}
    first = dirty.diff(dirty.with_values(repair))
    second = dirty.diff(dirty.perturbed(repair))
    assert first is not second
    assert first == second
    assert not first != second
    # changes listed in a different insertion order are still equal
    assert RepairDelta(reversed(list(first))) == first
    assert first != dirty.diff(dirty.with_values({CellRef(2, "City"): "Madrid"}))
    assert first != dirty.diff(dirty.with_values({**repair, CellRef(2, "City"): "Rome"}))
    assert first != list(first)
    # null-aware, like diff: None and NaN are the same missing value
    nulled = dirty.diff(dirty.with_values({CellRef(0, "Team"): None}))
    assert nulled == dirty.diff(dirty.with_values({CellRef(0, "Team"): float("nan")}))
    assert RepairDelta([]) == dirty.diff(dirty.copy())


def test_diff_requires_same_shape():
    table = make_table()
    other = Table(["Team", "City"], [["Real", "Madrid"]])
    with pytest.raises(SchemaError):
        table.diff(other)


def test_diff_ignores_null_to_null():
    dirty = make_table().with_cells_nulled([CellRef(0, "Team")])
    clean = make_table().with_cells_nulled([CellRef(0, "Team")])
    assert len(dirty.diff(clean)) == 0


def test_validate_cell():
    table = make_table()
    assert table.validate_cell(CellRef(0, "Team")) == CellRef(0, "Team")
    with pytest.raises(UnknownAttributeError):
        table.validate_cell(CellRef(0, "Stadium"))
    with pytest.raises(UnknownRowError):
        table.validate_cell(CellRef(10, "Team"))


@pytest.mark.parametrize("row", [True, False, 1.0, 1.5, "1", None])
def test_validate_cell_rejects_non_integer_rows(row):
    table = make_table()
    with pytest.raises(SchemaError, match="must be an integer"):
        table.validate_cell(CellRef(row, "Team"))
    with pytest.raises(SchemaError, match="must be an integer"):
        table.perturbed({CellRef(row, "Team"): "x"})


def test_validate_cell_normalises_numpy_rows():
    table = make_table()
    cell = table.validate_cell(CellRef(np.int64(1), "Team"))
    assert cell == CellRef(1, "Team") and type(cell.row) is int
    with pytest.raises(UnknownRowError):
        table.validate_cell(CellRef(np.int32(-1), "Team"))


def test_stats_cache_invalidated_on_set_value():
    table = make_table()
    # all three cities are distinct, so the tie is broken alphabetically
    assert table.stats.most_common("City") == "Barcelona"
    table.set_value(0, "City", "Madrid")
    table.set_value(2, "City", "Madrid")
    assert table.stats.most_common("City") == "Madrid"


def test_cellref_str_and_parse_roundtrip():
    cell = CellRef(4, "Country")
    assert str(cell) == "t5[Country]"
    assert CellRef.parse("t5[Country]") == cell
    assert CellRef.parse(" t1[City] ") == CellRef(0, "City")


def test_cellref_parse_rejects_garbage():
    with pytest.raises(SchemaError):
        CellRef.parse("row5.Country")
    with pytest.raises(SchemaError):
        CellRef.parse("t0[Country]")
    with pytest.raises(SchemaError):
        CellRef.parse("tX[Country]")
    # non-ASCII digits are not row numbers (``\d`` would read "t\uff11" as t1)
    for text in ("t\uff11[Country]", "t\u0661[Country]", "t1\u0662[Country]"):
        with pytest.raises(SchemaError):
            CellRef.parse(text)


@pytest.mark.parametrize("text", [None, 5, 4.0, b"t5[Country]", ["t5[Country]"],
                                  CellRef(4, "Country")])
def test_cellref_parse_rejects_non_string_input(text):
    with pytest.raises(SchemaError, match="must be a string"):
        CellRef.parse(text)


def test_cellref_parse_rejects_empty_attribute():
    with pytest.raises(SchemaError, match="empty attribute"):
        CellRef.parse("t5[]")


def test_cellref_parse_rejects_trailing_characters():
    with pytest.raises(SchemaError, match="trailing characters"):
        CellRef.parse("t5[A]extra")
    with pytest.raises(SchemaError, match="trailing characters"):
        CellRef.parse("t5[A][B]")


def test_cellref_parse_rejects_malformed_brackets():
    for text in ("t5[A", "t5A]", "t5[[A]]", "t[A]", "5[A]", "t5"):
        with pytest.raises(SchemaError):
            CellRef.parse(text)


def test_to_text_highlights_cells():
    table = make_table()
    text = table.to_text(highlight=[CellRef(2, "City")])
    assert "*Capital*" in text
    assert "Madrid" in text


def test_to_records_and_equals():
    table = make_table()
    assert table.to_records()[0] == {"Team": "Real", "City": "Madrid"}
    assert table.equals(make_table())
    assert not table.equals(make_table().with_values({CellRef(0, "Team"): "X"}))


def test_schema_object_accepted():
    schema = Schema(["A", "B"])
    table = Table(schema, [[1, 2]])
    assert table.schema is schema
