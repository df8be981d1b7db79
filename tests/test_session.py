"""Unit tests for the interactive repair session (the Section 4 demo loop)."""

import pytest

from repro.constraints.parser import parse_dc
from repro.dataset.table import CellRef
from repro.errors import ExplanationError
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
