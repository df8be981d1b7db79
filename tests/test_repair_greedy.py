"""Unit tests for the greedy holistic repairer."""

import numpy as np
import pytest

from repro.constraints.parser import parse_dcs
from repro.constraints.violations import find_all_violations, is_clean
from repro.dataset.errors import inject_errors
from repro.dataset.generators import HospitalGenerator
from repro.dataset.table import CellRef, Table
from repro.errors import RepairError
from repro.repair.greedy import GreedyHolisticRepair


def test_parameter_validation():
    with pytest.raises(RepairError):
        GreedyHolisticRepair(max_changes=0)
    with pytest.raises(RepairError):
        GreedyHolisticRepair(max_candidates=0)


@pytest.mark.parametrize("kwargs", [
    {"max_changes": 1.5}, {"max_candidates": 2.5},
    {"max_changes": True}, {"max_candidates": True}, {"max_changes": "3"},
])
def test_step_budgets_must_be_integers(kwargs):
    # a float used to construct fine and raise a bare TypeError at the first
    # repair, and True was taken as a budget of 1
    with pytest.raises(RepairError):
        GreedyHolisticRepair(**kwargs)


def test_step_budgets_accept_numpy_integers():
    algorithm = GreedyHolisticRepair(max_changes=np.int64(5), max_candidates=np.int32(3))
    assert (algorithm.max_changes, algorithm.max_candidates) == (5, 3)


def test_repairs_single_fd_breach():
    table = Table(
        ["Code", "Name"],
        [["A1", "Aspirin"], ["A1", "Aspirin"], ["A1", "Asprin"], ["B2", "Beta"]],
    )
    constraints = parse_dcs(["not(t1.Code == t2.Code and t1.Name != t2.Name)"])
    repaired = GreedyHolisticRepair().repair_table(constraints, table)
    assert repaired.value(2, "Name") == "Aspirin"
    assert is_clean(repaired, constraints)


def test_repairs_la_liga_country(dirty_table, constraints):
    repaired = GreedyHolisticRepair().repair_table(constraints, dirty_table)
    assert repaired.value(4, "Country") == "Spain"
    violations_after = find_all_violations(repaired, constraints)
    violations_before = find_all_violations(dirty_table, constraints)
    assert len(violations_after) < len(violations_before)


def test_no_constraints_is_identity(dirty_table):
    repaired = GreedyHolisticRepair().repair_table([], dirty_table)
    assert repaired.equals(dirty_table)


def test_clean_table_is_left_untouched(clean_table, constraints):
    repaired = GreedyHolisticRepair().repair_table(constraints, clean_table)
    assert repaired.equals(clean_table)


def test_deterministic(dirty_table, constraints):
    first = GreedyHolisticRepair().repair_table(constraints, dirty_table)
    second = GreedyHolisticRepair().repair_table(constraints, dirty_table)
    assert first.equals(second)


def test_input_not_mutated(dirty_table, constraints):
    GreedyHolisticRepair().repair_table(constraints, dirty_table)
    assert dirty_table.value(4, "Country") == "España"


def test_max_changes_bounds_work():
    table = Table(
        ["Code", "Name"],
        [["A1", "x"], ["A1", "y"], ["B2", "p"], ["B2", "q"], ["C3", "r"], ["C3", "s"]],
    )
    constraints = parse_dcs(["not(t1.Code == t2.Code and t1.Name != t2.Name)"])
    limited = GreedyHolisticRepair(max_changes=1).repair_table(constraints, table)
    delta = table.diff(limited)
    assert len(delta) <= 1


def test_reduces_violations_on_injected_hospital_errors():
    dataset = HospitalGenerator(seed=6).generate(40)
    constraints = dataset.constraints()
    dirty, report = inject_errors(
        dataset.table, rate=0.03, error_types=["swap"], attributes=["State"], seed=6
    )
    assert report.injected, "the test needs at least one injected error"
    repaired = GreedyHolisticRepair().repair_table(constraints, dirty)
    assert len(find_all_violations(repaired, constraints)) <= len(
        find_all_violations(dirty, constraints)
    )


def test_null_cell_gets_filled_when_constrained():
    table = Table(
        ["Code", "Name"],
        [["A1", "Aspirin"], ["A1", "Aspirin"], ["A1", None]],
    )
    constraints = parse_dcs(["not(t1.Code == t2.Code and t1.Name != t2.Name)"])
    repaired = GreedyHolisticRepair().repair_table(constraints, table)
    assert repaired.value(2, "Name") == "Aspirin"


def test_cooccurrence_is_scored_only_for_step_minimum_candidates(monkeypatch):
    """Work guard: co-occurrence scoring sees at most a quarter of the
    candidates whose violation totals a 300-row hospital repair computes."""
    from repro.constraints.incremental import RepairWalk
    from repro.engine.stats import CooccurrenceStatistics

    trialled = []
    scored = {}  # id -> the candidate list, once per batch (kept alive)
    count_if_many_at = RepairWalk.count_if_many_at
    conditional_probability_many = CooccurrenceStatistics.conditional_probability_many

    def counting_trials(self, row_id, attribute, values):
        trialled.append(len(values))
        return count_if_many_at(self, row_id, attribute, values)

    def counting_scores(self, target, target_values, given, given_value):
        scored.setdefault(id(target_values), target_values)
        return conditional_probability_many(self, target, target_values, given,
                                            given_value)

    monkeypatch.setattr(RepairWalk, "count_if_many_at", counting_trials)
    monkeypatch.setattr(CooccurrenceStatistics, "conditional_probability_many",
                        counting_scores)
    dataset = HospitalGenerator(seed=3).generate(300)
    dirty, report = inject_errors(dataset.table, rate=0.05, seed=3)
    assert report.injected
    GreedyHolisticRepair().repair_table(dataset.constraints(), dirty)
    n_scored = sum(len(values) for values in scored.values())
    assert sum(trialled) > 0 and n_scored > 0
    assert 4 * n_scored <= sum(trialled)
