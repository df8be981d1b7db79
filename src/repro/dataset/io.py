"""CSV and record-based table input / output.

The original demo loads tables through a web upload backed by PostgreSQL.
Here the equivalent entry points are plain CSV files and lists of dicts, so
the examples and the benchmark harness can persist intermediate tables.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.dataset.schema import AttributeSpec, Schema
from repro.dataset.table import Table
from repro.engine.storage import is_null
from repro.errors import InputFileError, SchemaError


def table_from_records(records: Sequence[Mapping[str, Any]], schema: Schema | None = None,
                       name: str = "T") -> Table:
    """Build a :class:`Table` from a list of dictionaries.

    When ``schema`` is omitted it is inferred from the keys of the first
    record; every record must then carry exactly those keys.
    """
    if not records:
        raise SchemaError("cannot infer a table from an empty record list")
    if schema is None:
        schema = Schema(list(records[0].keys()))
    rows = []
    for record in records:
        missing = [a for a in schema.attribute_names if a not in record]
        if missing:
            raise SchemaError(f"record {record!r} is missing attributes {missing}")
        rows.append([record[a] for a in schema.attribute_names])
    return Table(schema, rows, name=name)


def read_csv(path: str | Path, schema: Schema | None = None, name: str | None = None) -> Table:
    """Read a CSV file (header row required) into a :class:`Table`.

    Values are coerced using the schema's attribute types when a schema is
    provided; otherwise everything stays a string and empty strings become
    nulls.  A missing, directory or non-UTF-8 file raises
    :class:`~repro.errors.InputFileError`.
    """
    path = Path(path)
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports put in front
        # of the first header name
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration as exc:
                raise SchemaError(f"CSV file {path} is empty") from exc
            if schema is None:
                schema = Schema([AttributeSpec(column) for column in header])
            elif list(schema.attribute_names) != list(header):
                raise SchemaError(
                    f"CSV header {header} does not match schema "
                    f"{list(schema.attribute_names)}"
                )
            rows = []
            for raw_row in reader:
                if len(raw_row) != len(header):
                    raise SchemaError(
                        f"CSV row {raw_row!r} has {len(raw_row)} values, "
                        f"expected {len(header)}"
                    )
                rows.append([schema[column].coerce(value)
                             for column, value in zip(header, raw_row)])
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(path, exc) from exc
    return Table(schema, rows, name=name or path.stem)


def write_csv(table: Table, path: str | Path) -> Path:
    """Write a table to CSV (nulls become empty strings). Returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.attributes)
        for row_id in range(table.n_rows):
            writer.writerow(
                ["" if is_null(value) else value for value in table.row_tuple(row_id)]
            )
    return path


def tables_equal_on_disk(path_a: str | Path, path_b: str | Path) -> bool:
    """Convenience check used by round-trip tests."""
    return read_csv(path_a).equals(read_csv(path_b))
