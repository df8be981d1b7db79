"""Unit tests for CSV / record IO."""

import pytest

from repro.dataset.io import read_csv, table_from_records, tables_equal_on_disk, write_csv
from repro.dataset.schema import AttributeSpec, INTEGER, Schema
from repro.dataset.table import CellRef, Table
from repro.errors import SchemaError


def make_table():
    return Table(
        Schema([AttributeSpec("Team"), AttributeSpec("Year", dtype=INTEGER)]),
        [["Real", 2019], ["Barca", 2018]],
        name="teams",
    )


def test_write_and_read_roundtrip(tmp_path):
    table = make_table()
    path = write_csv(table, tmp_path / "teams.csv")
    loaded = read_csv(path, schema=table.schema)
    assert loaded.equals(table)
    assert loaded.value(0, "Year") == 2019


def test_read_without_schema_keeps_strings(tmp_path):
    path = write_csv(make_table(), tmp_path / "teams.csv")
    loaded = read_csv(path)
    assert loaded.value(0, "Year") == "2019"


def test_nulls_roundtrip_as_empty_strings(tmp_path):
    table = make_table().with_cells_nulled([CellRef(1, "Team")])
    path = write_csv(table, tmp_path / "withnull.csv")
    loaded = read_csv(path, schema=table.schema)
    assert loaded.is_null(CellRef(1, "Team"))


def test_read_csv_header_mismatch(tmp_path):
    path = write_csv(make_table(), tmp_path / "teams.csv")
    wrong_schema = Schema(["A", "B"])
    with pytest.raises(SchemaError):
        read_csv(path, schema=wrong_schema)


def test_read_csv_empty_file(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SchemaError):
        read_csv(empty)


def test_read_csv_drops_a_utf8_byte_order_mark(tmp_path):
    # what a spreadsheet's "CSV UTF-8" export writes
    path = tmp_path / "bom.csv"
    path.write_bytes("A,B\r\nx,1\r\nx,2\r\n".encode("utf-8-sig"))
    table = read_csv(path)
    assert table.attributes == ("A", "B")
    assert table.value(0, "A") == "x"
    # a denial constraint on the first attribute resolves against the schema
    from repro.constraints.parser import parse_dc
    from repro.constraints.violations import find_violations
    assert len(find_violations(table, parse_dc("not(t1.A == t2.A and t1.B != t2.B)"))) == 2


def test_read_csv_ragged_row(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("A,B\n1,2\n3\n")
    with pytest.raises(SchemaError):
        read_csv(bad)


def test_tables_equal_on_disk(tmp_path):
    path_a = write_csv(make_table(), tmp_path / "a.csv")
    path_b = write_csv(make_table(), tmp_path / "b.csv")
    assert tables_equal_on_disk(path_a, path_b)


def test_table_from_records():
    records = [{"Team": "Real", "Year": 2019}, {"Team": "Barca", "Year": 2018}]
    table = table_from_records(records)
    assert table.n_rows == 2
    assert table.attributes == ("Team", "Year")


def test_table_from_records_missing_key():
    with pytest.raises(SchemaError):
        table_from_records([{"Team": "Real"}], schema=Schema(["Team", "Year"]))


def test_table_from_records_empty():
    with pytest.raises(SchemaError):
        table_from_records([])


@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
def test_read_csv_unreadable_file_raises_typed_error(tmp_path, kind):
    from repro.errors import InputFileError, TRexError

    path = tmp_path / "bad.csv"
    if kind == "directory":
        path.mkdir()
    elif kind == "non-utf8":
        path.write_bytes(b"A,B\n\xff,1\n")
    with pytest.raises(InputFileError) as info:
        read_csv(path)
    assert isinstance(info.value, TRexError)
    assert info.value.path == str(path)
    assert str(path) in str(info.value)
    if kind == "non-utf8":
        assert "not UTF-8" in str(info.value)
