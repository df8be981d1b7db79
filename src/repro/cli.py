"""Command-line interface.

The original T-REx is driven from a web GUI; this CLI is the library's
equivalent front end for scripted use:

``python -m repro.cli violations --table dirty.csv --constraints dcs.txt``
    List the denial-constraint violations of a table.

``python -m repro.cli repair --table dirty.csv --constraints dcs.txt --algorithm simple --output clean.csv``
    Repair a table with one of the bundled black-box algorithms and print the
    repair summary (optionally writing the clean table to a CSV).

``python -m repro.cli explain --table dirty.csv --constraints dcs.txt --cell "t5[Country]"``
    Repair, then explain the repair of one cell: constraint Shapley values
    (exact) and, unless ``--constraints-only`` is given, sampled cell Shapley
    values.  ``--jobs N`` runs the cell sampling on N warm worker processes
    (the sharded scheduler; results are identical for every worker count).
    ``--update 't3[City]=Lyon'`` applies a base-table write through the live
    session update path first; the result is the same as explaining the
    edited CSV.  ``--json out.json`` persists the explanation.

``python -m repro.cli discover --table clean.csv``
    Discover the functional dependencies holding on a table and print them as
    denial constraints (a starting point for the constraint file).

The constraints file contains one DC per line in the ASCII syntax of
:func:`repro.constraints.parser.parse_dc`; blank lines and ``#`` comments are
ignored.

Any :mod:`repro.errors` exception — for example an unparsable cell or
constraint, a ``--table`` or ``--constraints`` file that is missing, a
directory or not UTF-8 text, or an out-of-range option such as
``--samples 0``, ``--seed -1``, ``--top-cells -1``, ``--deadline inf`` or
``--max-lhs 0`` — prints one ``error:`` line to stderr and exits with code 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

import json as _json

from repro.config import TRexConfig
from repro.constraints.discovery import discover_fds
from repro.constraints.fd import fds_to_dcs
from repro.constraints.parser import format_dc, parse_dc
from repro.constraints.incremental import detector_for
from repro.dataset.io import read_csv, write_csv
from repro.dataset.table import CellRef
from repro.errors import InputFileError, TRexError
from repro.explain.explainer import TRExExplainer
from repro.explain.report import ExplanationReport, repair_summary
from repro.explain.serialize import save_explanation
from repro.observability import trace as otrace
from repro.repair.greedy import GreedyHolisticRepair
from repro.repair.holoclean import HoloCleanRepair
from repro.repair.simple import SimpleRuleRepair
from repro.shapley.cells import check_time_budgets

ALGORITHMS = {
    "simple": SimpleRuleRepair,
    "greedy": GreedyHolisticRepair,
    "holoclean": HoloCleanRepair,
}


def load_constraints(path: str | Path):
    """Parse a constraints file (one ASCII DC per line, ``#`` comments)."""
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(path, exc) from exc
    constraints = []
    for line in lines:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        constraints.append(parse_dc(text, name=f"C{len(constraints) + 1}"))
    if not constraints:
        raise TRexError(f"no constraints found in {path}")
    return constraints


def _build_algorithm(name: str):
    if name not in ALGORITHMS:
        raise TRexError(f"unknown algorithm {name!r}; expected one of {sorted(ALGORITHMS)}")
    return ALGORITHMS[name]()


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--table", required=True, help="CSV file with the (dirty) table")
    parser.add_argument("--constraints", required=True, help="text file with one DC per line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trex", description="T-REx: table repair explanations (reproduction CLI)"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    violations_parser = subparsers.add_parser("violations", help="list constraint violations")
    _add_common_arguments(violations_parser)

    repair_parser = subparsers.add_parser("repair", help="repair a table")
    _add_common_arguments(repair_parser)
    repair_parser.add_argument("--algorithm", default="simple", choices=sorted(ALGORITHMS))
    repair_parser.add_argument("--output", help="write the repaired table to this CSV file")
    repair_parser.add_argument("--stats-json", metavar="PATH",
                               help="write the repair statistics (cells repaired, "
                                    "changes, table shape) to this JSON file")

    explain_parser = subparsers.add_parser("explain", help="explain the repair of one cell")
    _add_common_arguments(explain_parser)
    explain_parser.add_argument("--algorithm", default="simple", choices=sorted(ALGORITHMS))
    explain_parser.add_argument("--cell", required=True,
                                help="cell of interest, e.g. 't5[Country]' (1-based row)")
    explain_parser.add_argument("--samples", type=int, default=100,
                                help="permutation samples per cell (default 100)")
    explain_parser.add_argument("--jobs", type=int, default=None,
                                help="worker processes for the cell-Shapley sampling "
                                     "(default: sequential; any value >= 1 uses the "
                                     "sharded scheduler, identical results for every "
                                     "worker count)")
    explain_parser.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                                help="with --jobs: wall-clock budget for the cell "
                                     "sampling; on expiry the partial estimates "
                                     "computed so far are reported (marked "
                                     "INCOMPLETE) instead of hanging")
    explain_parser.add_argument("--policy", default="sample", choices=["sample", "null", "mode"],
                                help="replacement policy for out-of-coalition cells")
    explain_parser.add_argument("--update", action="append", default=[],
                                metavar="CELL=VALUE",
                                help="apply a base-table write (e.g. 't3[City]=Lyon'; "
                                     "empty VALUE writes a null) before explaining; "
                                     "repeatable, applied in order through the live "
                                     "session update path — the explanation is "
                                     "identical to running on the updated CSV")
    explain_parser.add_argument("--constraints-only", action="store_true",
                                help="skip the (slower) cell-level explanation")
    explain_parser.add_argument("--seed", type=int, default=None, help="random seed")
    explain_parser.add_argument("--json", help="write the explanation to this JSON file")
    explain_parser.add_argument("--stats-json", metavar="PATH",
                                help="write the merged oracle statistics (the counters "
                                     "of the report's 'Oracle statistics' section) to "
                                     "this JSON file")
    explain_parser.add_argument("--trace-out", metavar="PATH",
                                help="record spans for the explain run (explain_job → "
                                     "cell → shard → repair phases) and write them as "
                                     "Chrome traceEvents JSON; load in chrome://tracing "
                                     "or Perfetto.  Results are bit-identical with or "
                                     "without tracing")
    explain_parser.add_argument("--top-cells", type=int, default=10,
                                help="number of cells shown in the report")

    discover_parser = subparsers.add_parser("discover", help="discover FDs from a table")
    discover_parser.add_argument("--table", required=True, help="CSV file with a (clean) table")
    discover_parser.add_argument("--max-lhs", type=int, default=1,
                                 help="maximum left-hand-side size (default 1)")
    return parser


def _command_violations(args) -> int:
    table = read_csv(args.table)
    constraints = load_constraints(args.constraints)
    violations = detector_for(table).base_violations(constraints)
    print(f"{len(violations)} violation(s) of {len(constraints)} constraint(s) "
          f"on {table.n_rows} rows.")
    for violation in violations:
        cells = ", ".join(str(cell) for cell in violation.cells())
        print(f"  {violation}: {cells}")
    return 0 if not violations else 1


def _write_stats_json(path: str, stats: dict) -> None:
    """Dump a statistics dict as pretty JSON (the ``--stats-json`` sink)."""
    Path(path).write_text(_json.dumps(stats, indent=2, sort_keys=False) + "\n",
                          encoding="utf-8")
    print(f"\nStatistics written to {path}")


def _command_repair(args) -> int:
    table = read_csv(args.table)
    constraints = load_constraints(args.constraints)
    algorithm = _build_algorithm(args.algorithm)
    result = algorithm.repair(constraints, table)
    print(repair_summary(table, result.clean))
    if args.output:
        write_csv(result.clean, args.output)
        print(f"\nRepaired table written to {args.output}")
    if args.stats_json:
        _write_stats_json(args.stats_json, {
            "algorithm": args.algorithm,
            "n_rows": table.n_rows,
            "n_constraints": len(constraints),
            "cells_repaired": len(result.delta),
            "changes": [str(change) for change in result.delta],
        })
    return 0


def _parse_update(text: str) -> "tuple[CellRef, object]":
    """Parse one ``--update`` operand: ``CELL=VALUE`` (empty VALUE = null)."""
    if "=" not in text:
        raise TRexError(f"--update expects CELL=VALUE, got {text!r}")
    cell_text, _, value = text.partition("=")
    return CellRef.parse(cell_text.strip()), (value if value != "" else None)


def _command_explain(args) -> int:
    table = read_csv(args.table)
    constraints = load_constraints(args.constraints)
    defaults = TRexConfig()
    algorithm = _build_algorithm(args.algorithm)
    cell = CellRef.parse(args.cell)
    if args.jobs is not None and args.jobs < 1:
        raise TRexError(f"--jobs must be a positive integer, got {args.jobs}")
    if args.seed is not None and args.seed < 0:
        raise TRexError(f"--seed must be non-negative, got {args.seed}")
    if args.top_cells < 0:
        raise TRexError(f"--top-cells must be non-negative, got {args.top_cells}")
    check_time_budgets(args.deadline, None)
    config = TRexConfig(
        seed=args.seed if args.seed is not None else defaults.seed,
        cell_samples=args.samples,
        replacement_policy=args.policy,
        n_jobs=args.jobs,
        deadline_seconds=args.deadline,
    )
    if args.update:
        # replay base-table writes through the live session update path, then
        # explain the post-update repair — identical to editing the CSV first
        from repro.explain.session import RepairSession

        updates = [_parse_update(text) for text in args.update]
        session = RepairSession(algorithm, constraints, table,
                                cell_of_interest=cell, config=config)
        with session:
            for update_cell, value in updates:
                step = session.update(update_cell, value)
                print(f"update: {step.detail}")
            explainer = session.explainer
            repaired_cells = explainer.repaired_cells()
            if cell not in explainer.delta:
                print(f"Cell {cell} was not repaired after the update(s). "
                      f"Repaired cells: "
                      f"{', '.join(str(c) for c in repaired_cells) or '(none)'}")
                return 1
            tracer = otrace.enable() if args.trace_out else None
            try:
                explanation = session.explain(constraints_only=args.constraints_only)
            finally:
                if tracer is not None:
                    otrace.disable()
    else:
        explainer = TRExExplainer(algorithm, constraints, table, config)
        repaired_cells = explainer.repaired_cells()
        if cell not in explainer.delta:
            print(f"Cell {cell} was not repaired. Repaired cells: "
                  f"{', '.join(str(c) for c in repaired_cells) or '(none)'}")
            return 1
        tracer = otrace.enable() if args.trace_out else None
        try:
            if args.constraints_only:
                explanation = explainer.explain_constraints(cell)
            else:
                explanation = explainer.explain(cell)
        finally:
            if tracer is not None:
                otrace.disable()
    report = ExplanationReport(explanation, constraints=constraints, dirty_table=table)
    print(report.to_text(top_k_cells=args.top_cells))
    if args.json:
        save_explanation(explanation, args.json)
        print(f"\nExplanation written to {args.json}")
    if args.stats_json:
        _write_stats_json(args.stats_json, explanation.oracle_statistics)
    if tracer is not None:
        tracer.write_chrome_trace(args.trace_out)
        print(f"\nChrome trace ({len(tracer.spans)} span(s)) written to {args.trace_out}")
    return 0


def _command_discover(args) -> int:
    table = read_csv(args.table)
    fds = discover_fds(table, max_lhs_size=args.max_lhs)
    constraints = fds_to_dcs(fds)
    print(f"Discovered {len(fds)} functional dependencies on {args.table}:")
    for fd, constraint in zip(fds, constraints):
        print(f"  # {fd}")
        print(f"  {format_dc(constraint)}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code (0 on success)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "violations": _command_violations,
        "repair": _command_repair,
        "explain": _command_explain,
        "discover": _command_discover,
    }
    try:
        return handlers[args.command](args)
    except TRexError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
