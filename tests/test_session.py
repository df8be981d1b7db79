"""Unit tests for the interactive repair session (the Section 4 demo loop)."""

import pytest

from repro.constraints.parser import parse_dc
from repro.dataset.table import CellRef
from repro.errors import ExplanationError, SchemaError
from repro.explain.session import RepairSession
from repro.config import TRexConfig


@pytest.fixture
def session(algorithm, constraints, dirty_table):
    return RepairSession(
        algorithm,
        constraints,
        dirty_table,
        cell_of_interest=CellRef(4, "Country"),
        expected_value="Spain",
        config=TRexConfig(seed=3, cell_samples=10),
    )


def test_run_repair_records_step(session):
    step = session.run_repair()
    assert step.action == "repair"
    assert step.repaired_cells == 2
    assert step.cell_of_interest_value == "Spain"
    assert session.cell_of_interest_is_correct() is True


def test_choose_cell_requires_repaired_cell(session):
    session.run_repair()
    with pytest.raises(ExplanationError):
        session.choose_cell(CellRef(0, "Team"))
    session.choose_cell(CellRef(4, "City"))
    assert session.cell_of_interest == CellRef(4, "City")


def test_explain_requires_cell_of_interest(algorithm, constraints, dirty_table):
    session = RepairSession(algorithm, constraints, dirty_table)
    session.run_repair()
    with pytest.raises(ExplanationError):
        session.explain()


def test_explain_records_explanation(session):
    session.run_repair()
    explanation = session.explain(constraints_only=True)
    assert explanation.constraint_ranking.items()[0] == "C3"
    assert session.steps[-1].action == "explain"
    assert session.steps[-1].explanation is explanation


def test_remove_constraint_and_re_repair(session):
    session.run_repair()
    step = session.remove_constraint("C3")
    assert step.action == "remove-constraint"
    assert [c.name for c in session.state.constraints] == ["C1", "C2", "C4"]
    # the repair still succeeds through the C1+C2 path
    assert step.cell_of_interest_value == "Spain"
    # removing the whole path breaks the repair
    step = session.remove_constraint("C2")
    assert step.cell_of_interest_value == "España"
    assert session.cell_of_interest_is_correct() is False


def test_remove_unknown_constraint_raises(session):
    session.run_repair()
    with pytest.raises(ExplanationError):
        session.remove_constraint("C99")


def test_replace_constraint(session):
    session.run_repair()
    replacement = parse_dc(
        "not(t1.League == t2.League and t1.Country != t2.Country)", name="C3fixed"
    )
    step = session.replace_constraint("C3", replacement)
    assert "C3fixed" in [c.name for c in session.state.constraints]
    assert step.cell_of_interest_value == "Spain"
    with pytest.raises(ExplanationError):
        session.replace_constraint("C3", replacement)  # C3 no longer present


def test_edit_cell_changes_future_repairs(session):
    session.run_repair()
    # fix the dirty cells manually: afterwards nothing is repaired any more
    session.edit_cell(CellRef(4, "City"), "Madrid")
    step = session.edit_cell(CellRef(4, "Country"), "Spain")
    assert step.action == "edit-cell"
    assert step.repaired_cells == 0
    assert step.cell_of_interest_value == "Spain"


def test_history_and_summary(session):
    session.run_repair()
    session.explain(constraints_only=True)
    session.remove_constraint("C4")
    history = session.history()
    assert [step.action for step in history] == ["repair", "explain", "remove-constraint"]
    summary = session.summary()
    assert "repair" in summary and "remove-constraint" in summary
    assert "correct: True" in summary


def test_unknown_correctness_without_expected_value(algorithm, constraints, dirty_table):
    session = RepairSession(algorithm, constraints, dirty_table)
    session.run_repair()
    assert session.cell_of_interest_is_correct() is None


@pytest.mark.parametrize("n_samples", [0, -5])
def test_live_explain_rejects_sample_counts_below_one(session, n_samples):
    session.run_repair()
    with pytest.raises(ExplanationError, match="at least 1"):
        session.explain(n_samples=n_samples)


def test_live_explain_rejects_zero_samples_from_the_config(algorithm, constraints,
                                                          dirty_table):
    session = RepairSession(algorithm, constraints, dirty_table,
                            cell_of_interest=CellRef(4, "Country"),
                            config=TRexConfig(cell_samples=0))
    session.run_repair()
    with pytest.raises(ExplanationError, match="at least 1"):
        session.explain()


def _explain_key(explanation):
    cells = explanation.cell_shapley
    return sorted((str(cell), value, cells.standard_errors[cell])
                  for cell, value in cells.values.items())


@pytest.mark.parametrize("value", [["a"], {"a": 1}, {"a"}])
def test_update_rejects_unhashable_values_before_writing(session, value):
    """An unhashable write is refused whole: table, log and explain unchanged."""
    first = _explain_key(session.explain(n_samples=2))
    cell = CellRef(0, "City")
    before = session.state.dirty_table[cell]
    with pytest.raises(SchemaError, match="hashable"):
        session.update(cell, value)
    with pytest.raises(SchemaError, match="hashable"):
        session.update_many({CellRef(1, "City"): "Seville", cell: value})
    assert session.state.dirty_table[cell] == before
    assert session.state.dirty_table[CellRef(1, "City")] == "Madrid"
    assert len(session.update_log) == 0
    assert _explain_key(session.explain(n_samples=2)) == first


def test_edit_cell_rejects_unhashable_values(session):
    session.run_repair()
    cell = CellRef(0, "City")
    before = session.state.dirty_table[cell]
    with pytest.raises(SchemaError, match="hashable"):
        session.edit_cell(cell, ["a"])
    assert session.state.dirty_table[cell] == before
    assert [step.action for step in session.history()] == ["repair"]


@pytest.mark.parametrize("n_jobs", [0, -1, 1.5, "2"])
def test_rejected_n_jobs_leaves_the_session_config_alone(session, n_jobs):
    """A bad ``n_jobs`` raises a typed error and is not stored in the config."""
    first = _explain_key(session.explain(n_samples=2))
    with pytest.raises(ExplanationError, match="n_jobs"):
        session.explain(n_samples=2, n_jobs=n_jobs)
    assert session.config.n_jobs is None
    assert _explain_key(session.explain(n_samples=2)) == first


@pytest.mark.parametrize("row", [True, 1.0, 1.5, "1", None])
def test_update_rejects_non_integer_rows_before_writing(session, row):
    """``True`` and ``1.0`` compare like row 1 but must not address it."""
    first = _explain_key(session.explain(n_samples=2))
    with pytest.raises(SchemaError, match="must be an integer"):
        session.update(CellRef(row, "City"), "Seville")
    assert session.state.dirty_table[CellRef(1, "City")] == "Madrid"
    assert len(session.update_log) == 0
    assert _explain_key(session.explain(n_samples=2)) == first


@pytest.mark.parametrize("row", [True, 1.0, "1"])
def test_edit_cell_rejects_non_integer_rows(session, row):
    session.run_repair()
    with pytest.raises(SchemaError, match="must be an integer"):
        session.edit_cell(CellRef(row, "City"), "Seville")
    assert session.state.dirty_table[CellRef(1, "City")] == "Madrid"
    assert [step.action for step in session.history()] == ["repair"]


@pytest.mark.parametrize("row", [True, 4.0])
def test_choose_cell_rejects_non_integer_rows(session, row):
    """Row 4 (and ``True`` == 1) hash like real rows, so the repaired-cell
    membership check alone would accept them."""
    session.run_repair()
    with pytest.raises(SchemaError, match="must be an integer"):
        session.choose_cell(CellRef(row, "City"))
    assert session.cell_of_interest == CellRef(4, "Country")


def test_numpy_integer_rows_are_normalised(session):
    import numpy as np

    session.run_repair()
    session.choose_cell(CellRef(np.int64(4), "City"))
    assert type(session.cell_of_interest.row) is int
    step = session.update(CellRef(np.int64(1), "City"), "Seville")
    assert step.action == "update"
    assert session.state.dirty_table[CellRef(1, "City")] == "Seville"
    (delta,) = session.update_log
    assert type(delta.updates[0].cell.row) is int
