"""First repairs of plain tables run on the walk; the rescan stays the reference.

On the ``"fast"`` engine (the default) the simple and greedy repairers
repair a plain input table on a zero-delta view, so a first repair uses the
same :class:`~repro.constraints.incremental.RepairWalk` as every perturbed
instance, and FD-shape base violations come from one pass over the equality
index.  ``engine="reference"`` is the full-rescan reference: it must keep
calling :func:`~repro.constraints.violations.find_violations`, and its
outputs must equal the fast path's.
"""

from __future__ import annotations

import pytest

import repro.constraints.incremental as incremental_module
import repro.constraints.violations as violations_module
from repro import (
    BinaryRepairOracle,
    CellRef,
    ConstraintShapleyExplainer,
    GreedyHolisticRepair,
    HospitalGenerator,
    RepairSession,
    SimpleRuleRepair,
    SoccerLeagueGenerator,
    Table,
    TaxGenerator,
    find_all_violations,
)
from repro.dataset.errors import inject_errors
from repro.dataset.table import PerturbationView
from repro.repair.holoclean.detect import ErrorDetector

N_ROWS = 300

GENERATORS = {
    "hospital": HospitalGenerator,
    "soccer": SoccerLeagueGenerator,
    "tax": TaxGenerator,
}

ALGORITHMS = {
    "simple": lambda engine="fast": SimpleRuleRepair(engine=engine),
    "greedy": lambda engine="fast": GreedyHolisticRepair(engine=engine),
}


def dirty_dataset(name: str, n_rows: int = N_ROWS, seed: int = 5):
    dataset = GENERATORS[name](seed=seed).generate(n_rows)
    dirty, _ = inject_errors(dataset.table, rate=0.02, seed=seed + 1)
    return dirty, dataset.constraints()


@pytest.fixture
def rescan_calls(monkeypatch):
    """Count every ``find_violations`` call, whichever module it is reached through."""
    calls = []
    original = violations_module.find_violations

    def counting(*args, **kwargs):
        calls.append(args[1].name)
        return original(*args, **kwargs)

    monkeypatch.setattr(violations_module, "find_violations", counting)
    monkeypatch.setattr(incremental_module, "find_violations", counting)
    return calls


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_default_first_repair_never_rescans(algorithm, rescan_calls):
    dirty, constraints = dirty_dataset("hospital")
    clean = ALGORITHMS[algorithm]().repair_table(constraints, dirty)
    assert dirty.diff(clean)  # the repair did work
    assert rescan_calls == []


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_reference_row_still_rescans(algorithm, rescan_calls):
    """The golden ``full`` axis: ``engine="reference"``."""
    dirty, constraints = dirty_dataset("hospital", n_rows=40)
    oracle = BinaryRepairOracle(
        ALGORITHMS[algorithm](engine="reference"), constraints, dirty,
        dirty.diff(ALGORITHMS[algorithm]().repair_table(constraints, dirty)).cells()[0],
    )
    before = len(rescan_calls)
    ConstraintShapleyExplainer(oracle).explain()
    assert before > 0  # the reference repair in the oracle's constructor
    assert len(rescan_calls) > before


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("dataset", sorted(GENERATORS))
def test_plain_first_repair_equals_rescan_reference(dataset, algorithm):
    dirty, constraints = dirty_dataset(dataset)
    fast = ALGORITHMS[algorithm]().repair_table(constraints, dirty)
    reference = ALGORITHMS[algorithm](engine="reference").repair_table(constraints, dirty)
    assert type(fast) is Table and not isinstance(fast, PerturbationView)
    assert fast.name == reference.name
    assert fast.fingerprint() == reference.fingerprint()
    assert list(dirty.diff(fast)) == list(dirty.diff(reference))
    assert dirty.diff(fast) == dirty.diff(reference)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_session_update_leaves_earlier_repair_unchanged(algorithm):
    dirty, constraints = dirty_dataset("hospital", n_rows=60)
    session = RepairSession(ALGORITHMS[algorithm](), constraints, dirty)
    session.run_repair()
    repaired = session.explainer.clean_table
    records = repaired.to_records()
    fingerprint = repaired.fingerprint()
    repaired_cells = session.explainer.repaired_cells()
    session.choose_cell(repaired_cells[0])
    # an in-place write to the dirty table, on a row the repair left alone
    untouched = next(row for row in range(dirty.n_rows)
                     if all(cell.row != row for cell in repaired_cells))
    written = CellRef(untouched, repaired_cells[0].attribute)
    session.update(written, f"{dirty[written]}-updated")
    assert session.state.dirty_table[written] == f"{repaired[written]}-updated"
    assert repaired.to_records() == records
    assert repaired.fingerprint() == fingerprint


def test_holoclean_detection_reads_the_detector(rescan_calls):
    dirty, constraints = dirty_dataset("hospital")
    detected = ErrorDetector()._detect_constraint_cells(dirty, constraints)
    assert rescan_calls == []
    assert detected == set(find_all_violations(dirty, constraints).cells_involved())
