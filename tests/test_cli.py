"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, load_constraints, main
from repro.dataset.examples import LA_LIGA_CONSTRAINT_TEXTS, la_liga_dirty_table
from repro.dataset.io import read_csv, write_csv
from repro.dataset.table import CellRef
from repro.errors import TRexError


@pytest.fixture
def table_csv(tmp_path):
    return str(write_csv(la_liga_dirty_table(), tmp_path / "dirty.csv"))


@pytest.fixture
def constraints_file(tmp_path):
    path = tmp_path / "constraints.txt"
    lines = ["# the four DCs of Figure 1", ""]
    lines += list(LA_LIGA_CONSTRAINT_TEXTS)
    path.write_text("\n".join(lines), encoding="utf-8")
    return str(path)


def test_load_constraints_skips_comments_and_blank_lines(constraints_file):
    constraints = load_constraints(constraints_file)
    assert [c.name for c in constraints] == ["C1", "C2", "C3", "C4"]


def test_load_constraints_empty_file_raises(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(TRexError):
        load_constraints(path)


def test_load_constraints_drops_a_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_text("\n".join(LA_LIGA_CONSTRAINT_TEXTS), encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    constraints = load_constraints(path)
    assert [c.name for c in constraints] == ["C1", "C2", "C3", "C4"]


def test_violations_command_reads_byte_order_marked_inputs(tmp_path, capsys):
    table = tmp_path / "dirty.csv"
    write_csv(la_liga_dirty_table(), table)
    table.write_bytes(b"\xef\xbb\xbf" + table.read_bytes())
    constraints = tmp_path / "constraints.txt"
    constraints.write_text("\n".join(LA_LIGA_CONSTRAINT_TEXTS), encoding="utf-8-sig")
    plain = tmp_path / "plain.csv"
    write_csv(la_liga_dirty_table(), plain)
    plain_constraints = tmp_path / "plain.txt"
    plain_constraints.write_text("\n".join(LA_LIGA_CONSTRAINT_TEXTS), encoding="utf-8")
    main(["violations", "--table", str(plain), "--constraints", str(plain_constraints)])
    expected = capsys.readouterr().out
    main(["violations", "--table", str(table), "--constraints", str(constraints)])
    assert capsys.readouterr().out == expected


def test_parser_requires_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_violations_command_reports_and_signals_dirty(table_csv, constraints_file, capsys):
    exit_code = main(["violations", "--table", table_csv, "--constraints", constraints_file])
    output = capsys.readouterr().out
    assert exit_code == 1  # violations present
    assert "violation(s)" in output
    assert "C1(" in output or "C3(" in output


LA_LIGA_VIOLATIONS = """\
12 violation(s) of 4 constraint(s) on 6 rows.
  C1(t3, t5): t3[Team], t5[Team], t3[City], t5[City]
  C1(t5, t3): t5[Team], t3[Team], t5[City], t3[City]
  C1(t5, t6): t5[Team], t6[Team], t5[City], t6[City]
  C1(t6, t5): t6[Team], t5[Team], t6[City], t5[City]
  C3(t1, t5): t1[League], t5[League], t1[Country], t5[Country]
  C3(t5, t1): t5[League], t1[League], t5[Country], t1[Country]
  C3(t2, t5): t2[League], t5[League], t2[Country], t5[Country]
  C3(t5, t2): t5[League], t2[League], t5[Country], t2[Country]
  C3(t3, t5): t3[League], t5[League], t3[Country], t5[Country]
  C3(t5, t3): t5[League], t3[League], t5[Country], t3[Country]
  C3(t5, t6): t5[League], t6[League], t5[Country], t6[Country]
  C3(t6, t5): t6[League], t5[League], t6[Country], t5[Country]
"""


def _reference_violations_text(table_path, constraints_path) -> str:
    """The ``violations`` report rendered from the full-rescan reference."""
    from repro.constraints.violations import find_all_violations

    table = read_csv(table_path)
    constraints = load_constraints(constraints_path)
    violations = find_all_violations(table, constraints)
    lines = [f"{len(violations)} violation(s) of {len(constraints)} constraint(s) "
             f"on {table.n_rows} rows."]
    lines += [f"  {v}: {', '.join(str(cell) for cell in v.cells())}" for v in violations]
    return "\n".join(lines) + "\n"


def test_violations_output_pinned_on_la_liga(table_csv, constraints_file, capsys):
    main(["violations", "--table", table_csv, "--constraints", constraints_file])
    output = capsys.readouterr().out
    assert output == LA_LIGA_VIOLATIONS
    assert output == _reference_violations_text(table_csv, constraints_file)


def test_violations_output_pinned_on_hospital(tmp_path, capsys):
    import hashlib

    from repro import HospitalGenerator, format_dc
    from repro.dataset.errors import inject_errors

    dataset = HospitalGenerator(seed=11).generate(300)
    dirty, _ = inject_errors(dataset.table, rate=0.02, seed=13)
    table_path = write_csv(dirty, tmp_path / "hospital.csv")
    constraints_path = tmp_path / "hospital_dcs.txt"
    constraints_path.write_text(
        "\n".join(format_dc(dc) for dc in dataset.constraints()) + "\n", encoding="utf-8")
    exit_code = main(["violations", "--table", str(table_path),
                      "--constraints", str(constraints_path)])
    output = capsys.readouterr().out
    assert exit_code == 1
    assert output.splitlines()[:3] == [
        "1270 violation(s) of 5 constraint(s) on 300 rows.",
        "  C1(t3, t155): t3[City], t155[City], t3[State], t155[State]",
        "  C1(t155, t3): t155[City], t3[City], t155[State], t3[State]",
    ]
    assert hashlib.sha256(output.encode()).hexdigest() == \
        "849aa3598dfbded51c30516d0db72d93e395d895c93c0f3bac56d92c2aef39a8"
    assert output == _reference_violations_text(table_path, constraints_path)


def test_violations_command_clean_table_returns_zero(tmp_path, constraints_file, capsys):
    from repro.dataset.examples import la_liga_clean_table

    clean_csv = str(write_csv(la_liga_clean_table(), tmp_path / "clean.csv"))
    exit_code = main(["violations", "--table", clean_csv, "--constraints", constraints_file])
    assert exit_code == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_repair_command_writes_output(table_csv, constraints_file, tmp_path, capsys):
    output_csv = str(tmp_path / "clean.csv")
    exit_code = main(
        ["repair", "--table", table_csv, "--constraints", constraints_file,
         "--algorithm", "simple", "--output", output_csv]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "2 cell(s) repaired." in out
    repaired = read_csv(output_csv)
    assert repaired.value(4, "Country") == "Spain"
    assert repaired.value(4, "City") == "Madrid"


def test_explain_command_constraints_only(table_csv, constraints_file, capsys):
    exit_code = main(
        ["explain", "--table", table_csv, "--constraints", constraints_file,
         "--cell", "t5[Country]", "--constraints-only"]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Constraint contributions" in out
    assert "C3" in out


def test_explain_command_with_cells_and_json(table_csv, constraints_file, tmp_path, capsys):
    json_path = tmp_path / "explanation.json"
    exit_code = main(
        ["explain", "--table", table_csv, "--constraints", constraints_file,
         "--cell", "t5[Country]", "--samples", "5", "--policy", "null",
         "--seed", "3", "--json", str(json_path)]
    )
    assert exit_code == 0
    assert "Cell contributions" in capsys.readouterr().out
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert payload["cell"] == {"row": 4, "attribute": "Country"}
    assert payload["constraint_shapley"]["values"]["name:C3"] == pytest.approx(2 / 3)


def test_repair_command_stats_json(table_csv, constraints_file, tmp_path, capsys):
    stats_path = tmp_path / "repair_stats.json"
    exit_code = main(
        ["repair", "--table", table_csv, "--constraints", constraints_file,
         "--stats-json", str(stats_path)]
    )
    assert exit_code == 0
    assert f"Statistics written to {stats_path}" in capsys.readouterr().out
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    assert stats["algorithm"] == "simple"
    assert stats["cells_repaired"] == 2
    assert len(stats["changes"]) == 2


def test_explain_command_stats_json(table_csv, constraints_file, tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    exit_code = main(
        ["explain", "--table", table_csv, "--constraints", constraints_file,
         "--cell", "t5[Country]", "--samples", "5", "--seed", "3",
         "--stats-json", str(stats_path)]
    )
    assert exit_code == 0
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    # explain() nests one counter scope per phase
    assert set(stats) == {"constraints", "cells"}
    assert stats["cells"]["oracle_calls"] > 0
    assert "dictionary_sizes" in stats["cells"]["encoding"]


def test_explain_command_trace_out(table_csv, constraints_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    exit_code = main(
        ["explain", "--table", table_csv, "--constraints", constraints_file,
         "--cell", "t5[Country]", "--samples", "5", "--seed", "3",
         "--trace-out", str(trace_path)]
    )
    assert exit_code == 0
    assert "Chrome trace" in capsys.readouterr().out
    payload = json.loads(trace_path.read_text(encoding="utf-8"))
    names = {event["name"] for event in payload["traceEvents"]}
    assert {"explain_job", "cell", "pair_eval"} <= names
    # tracing must be torn down after the command
    from repro.observability import trace as otrace
    assert otrace.current() is None


def test_explain_command_unrepaired_cell_fails(table_csv, constraints_file, capsys):
    exit_code = main(
        ["explain", "--table", table_csv, "--constraints", constraints_file,
         "--cell", "t1[Team]", "--constraints-only"]
    )
    assert exit_code == 1
    assert "was not repaired" in capsys.readouterr().out


def test_discover_command(tmp_path, capsys):
    from repro.dataset.examples import la_liga_clean_table

    clean_csv = str(write_csv(la_liga_clean_table(), tmp_path / "clean.csv"))
    exit_code = main(["discover", "--table", clean_csv, "--max-lhs", "1"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "functional dependencies" in out
    assert "not(" in out


def test_unknown_algorithm_is_rejected_by_argparse(table_csv, constraints_file):
    with pytest.raises(SystemExit):
        main(["repair", "--table", table_csv, "--constraints", constraints_file,
              "--algorithm", "quantum"])


def test_trex_error_is_reported_as_exit_code_2(tmp_path, capsys):
    missing_constraints = tmp_path / "only_comments.txt"
    missing_constraints.write_text("# no DCs\n", encoding="utf-8")
    table_path = write_csv(la_liga_dirty_table(), tmp_path / "t.csv")
    exit_code = main(
        ["violations", "--table", str(table_path), "--constraints", str(missing_constraints)]
    )
    assert exit_code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("option,message", [
    (["--samples", "0"], "samples per cell must be at least 1"),
    (["--samples", "-5"], "samples per cell must be at least 1"),
    (["--seed", "-1"], "--seed must be non-negative"),
    (["--top-cells", "-1"], "--top-cells must be non-negative"),
    (["--jobs", "2", "--deadline", "inf"], "deadline_seconds must be a finite number"),
    (["--jobs", "2", "--deadline", "nan"], "deadline_seconds must be a finite number"),
    (["--deadline", "-1"], "deadline_seconds must be a finite number"),
])
def test_explain_rejects_out_of_range_options(table_csv, constraints_file, option,
                                              message, capsys):
    exit_code = main(["explain", "--table", table_csv, "--constraints",
                      constraints_file, "--cell", "t5[Country]", *option])
    assert exit_code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert message in err


def test_explain_rejects_zero_samples_on_the_update_path(table_csv, constraints_file,
                                                         capsys):
    exit_code = main(["explain", "--table", table_csv, "--constraints",
                      constraints_file, "--cell", "t5[Country]", "--samples", "0",
                      "--update", "t1[Year]=2018"])
    assert exit_code == 2
    assert "samples per cell must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("update,policy", [
    ("t1[Year]=2018", "mode"),
    ("t1[Year]=2018", "sample"),
    # moves t4 into the Madrid group: under `sample` this changes the values
    ("t4[City]=Madrid", "sample"),
])
def test_explain_update_matches_running_on_the_edited_csv(table_csv, constraints_file,
                                                          tmp_path, update, policy,
                                                          capsys):
    """``--update CELL=VALUE`` explains exactly what the edited CSV does."""
    cell_text, _, value = update.partition("=")
    edited_csv = tmp_path / "edited.csv"
    write_csv(read_csv(table_csv).with_values({CellRef.parse(cell_text): value}),
              edited_csv)
    common = ["--constraints", constraints_file, "--cell", "t5[Country]",
              "--samples", "8", "--seed", "3", "--policy", policy]
    updated_json, edited_json = tmp_path / "updated.json", tmp_path / "edited.json"
    assert main(["explain", "--table", table_csv, *common,
                 "--update", update, "--json", str(updated_json)]) == 0
    assert "update: updated 1 cells" in capsys.readouterr().out
    assert main(["explain", "--table", str(edited_csv), *common,
                 "--json", str(edited_json)]) == 0
    updated = json.loads(updated_json.read_text(encoding="utf-8"))
    edited = json.loads(edited_json.read_text(encoding="utf-8"))
    assert updated["cell_shapley"]["values"]  # the cell game was sampled
    for part in ("cell_shapley", "constraint_shapley"):
        assert updated[part] == edited[part], part


@pytest.mark.parametrize("flag", ["--cold-pool", "--no-incremental-updates",
                                  "--max-worker-restarts", "--max-shard-attempts",
                                  "--restart-backoff"])
def test_explain_rejects_the_removed_lifecycle_flags(table_csv, constraints_file,
                                                     flag, capsys):
    with pytest.raises(SystemExit) as info:
        main(["explain", "--table", table_csv, "--constraints", constraints_file,
              "--cell", "t5[Country]", "--update", "t1[Year]=2018", flag])
    assert info.value.code == 2
    assert flag in capsys.readouterr().err


def _unreadable_input(tmp_path, kind, suffix):
    """A path that cannot be read as a UTF-8 input file, by ``kind``."""
    path = tmp_path / f"unreadable_{kind}{suffix}"
    if kind == "directory":
        path.mkdir()
    elif kind == "non-utf8":
        # a Latin-1 "é" is an invalid UTF-8 start byte
        path.write_bytes(b"Team,City\n\xe9quipe,Madrid\n")
    return path


_COMMAND_TAILS = {
    "violations": [],
    "repair": [],
    "explain": ["--cell", "t5[Country]", "--constraints-only"],
}


@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
@pytest.mark.parametrize("which", ["--table", "--constraints"])
@pytest.mark.parametrize("command", sorted(_COMMAND_TAILS))
def test_unreadable_input_file_exits_2(table_csv, constraints_file, tmp_path, capsys,
                                       command, which, kind):
    bad = _unreadable_input(tmp_path, kind, ".csv" if which == "--table" else ".txt")
    files = {"--table": table_csv, "--constraints": constraints_file, which: str(bad)}
    exit_code = main([command, "--table", files["--table"],
                      "--constraints", files["--constraints"], *_COMMAND_TAILS[command]])
    assert exit_code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(bad) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
def test_discover_unreadable_table_exits_2(tmp_path, capsys, kind):
    bad = _unreadable_input(tmp_path, kind, ".csv")
    assert main(["discover", "--table", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err


@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
def test_load_constraints_raises_typed_error_naming_the_path(tmp_path, kind):
    from repro.errors import InputFileError

    bad = _unreadable_input(tmp_path, kind, ".txt")
    with pytest.raises(InputFileError, match="cannot read") as info:
        load_constraints(bad)
    assert info.value.path == str(bad)


@pytest.mark.parametrize("max_lhs", ["0", "-1"])
def test_discover_rejects_non_positive_max_lhs(tmp_path, capsys, max_lhs):
    from repro.dataset.examples import la_liga_clean_table

    clean_csv = str(write_csv(la_liga_clean_table(), tmp_path / "clean.csv"))
    assert main(["discover", "--table", clean_csv, "--max-lhs", max_lhs]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "max_lhs_size must be positive" in captured.err
    assert "Discovered" not in captured.out
