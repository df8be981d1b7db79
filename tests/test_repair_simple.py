"""Unit tests for Algorithm 1 (SimpleRuleRepair)."""

import numpy as np
import pytest

from repro.constraints.parser import parse_dc, parse_dcs
from repro.constraints.violations import is_clean
from repro.dataset.table import CellRef, Table
from repro.errors import RepairError
from repro.repair.simple import (
    CONDITIONAL,
    MOST_COMMON,
    RepairRule,
    SimpleRuleRepair,
    default_rules_for,
    paper_algorithm_1,
)


def test_repair_rule_validation():
    with pytest.raises(RepairError):
        RepairRule(target="City", strategy="magic")
    with pytest.raises(RepairError):
        RepairRule(target="City", strategy=CONDITIONAL)  # missing 'given'


def test_simple_repair_rejects_bad_iterations():
    with pytest.raises(RepairError):
        SimpleRuleRepair(max_iterations=0)


@pytest.mark.parametrize("budget", [2.5, True, False, "3", None])
def test_simple_repair_rejects_non_integer_iterations(budget):
    # a float used to construct fine and raise a bare TypeError at the first
    # repair, and True was taken as a budget of 1
    with pytest.raises(RepairError):
        SimpleRuleRepair(max_iterations=budget)


def test_simple_repair_accepts_numpy_integer_iterations():
    assert SimpleRuleRepair(max_iterations=np.int64(4)).max_iterations == 4


def test_paper_algorithm_repairs_figure2(dirty_table, clean_table, constraints):
    algorithm = paper_algorithm_1()
    repaired = algorithm.repair_table(constraints, dirty_table)
    assert repaired.equals(clean_table)
    assert repaired.value(4, "City") == "Madrid"
    assert repaired.value(4, "Country") == "Spain"


def test_paper_algorithm_makes_table_clean(dirty_table, constraints):
    repaired = paper_algorithm_1().repair_table(constraints, dirty_table)
    assert is_clean(repaired, constraints)


def test_input_table_is_not_mutated(dirty_table, constraints):
    paper_algorithm_1().repair_table(constraints, dirty_table)
    assert dirty_table.value(4, "City") == "Capital"
    assert dirty_table.value(4, "Country") == "España"


def test_subsets_of_constraints_change_the_outcome(dirty_table, constraints):
    algorithm = paper_algorithm_1()
    by_name = {c.name: c for c in constraints}
    only_c1 = algorithm.repair_table([by_name["C1"]], dirty_table)
    assert only_c1.value(4, "City") == "Madrid"
    assert only_c1.value(4, "Country") == "España"  # country untouched without C2/C3
    only_c2 = algorithm.repair_table([by_name["C2"]], dirty_table)
    assert only_c2.equals(dirty_table)  # "Capital" is unique, so C2 alone sees no violation
    only_c3 = algorithm.repair_table([by_name["C3"]], dirty_table)
    assert only_c3.value(4, "Country") == "Spain"
    assert only_c3.value(4, "City") == "Capital"


def test_no_constraints_is_identity(dirty_table):
    repaired = paper_algorithm_1().repair_table([], dirty_table)
    assert repaired.equals(dirty_table)


def test_most_common_rule_replacement_value():
    table = Table(["City"], [["Madrid"], ["Madrid"], ["Capital"]])
    rule = RepairRule(target="City", strategy=MOST_COMMON)
    assert rule.replacement_value(table, 2) == "Madrid"


def test_conditional_rule_replacement_value():
    table = Table(
        ["City", "Country"],
        [["Madrid", "Spain"], ["Madrid", "Spain"], ["Madrid", "España"]],
    )
    rule = RepairRule(target="Country", strategy=CONDITIONAL, given="City")
    assert rule.replacement_value(table, 2) == "Spain"


def test_conditional_rule_returns_none_when_given_is_null():
    table = Table(["City", "Country"], [["Madrid", "Spain"], [None, "España"]])
    rule = RepairRule(target="Country", strategy=CONDITIONAL, given="City")
    assert rule.replacement_value(table, 1) is None


def test_default_rules_for_fd_with_single_equality_is_conditional():
    dc = parse_dc("not(t1.City == t2.City and t1.Country != t2.Country)")
    rule = default_rules_for(dc)
    assert rule.target == "Country"
    assert rule.strategy == CONDITIONAL
    assert rule.given == "City"


def test_default_rules_for_multi_equality_is_most_common():
    dc = parse_dc(
        "not(t1.A == t2.A and t1.B == t2.B and t1.C != t2.C)"
    )
    rule = default_rules_for(dc)
    assert rule.target == "C"
    assert rule.strategy == MOST_COMMON


def test_default_rules_for_order_constraint_is_none():
    dc = parse_dc("not(t1.Salary > t2.Salary and t1.Rate < t2.Rate)")
    assert default_rules_for(dc) is None


def test_derived_rules_repair_generic_fd_dataset():
    table = Table(
        ["Code", "Name"],
        [["A1", "Aspirin"], ["A1", "Aspirin"], ["A1", "Asprin"], ["B2", "Beta"]],
    )
    constraints = parse_dcs(["not(t1.Code == t2.Code and t1.Name != t2.Name)"])
    repaired = SimpleRuleRepair().repair_table(constraints, table)
    assert repaired.value(2, "Name") == "Aspirin"
    assert is_clean(repaired, constraints)


def test_rules_without_matching_attribute_are_skipped():
    table = Table(["A"], [["x"], ["y"]])
    constraints = parse_dcs(["not(t1.A == t2.A and t1.A != t2.A)"])
    algorithm = SimpleRuleRepair(rules={"C1": RepairRule(target="Missing")}, derive_missing=False)
    repaired = algorithm.repair_table(constraints, table)
    assert repaired.equals(table)


def test_fixpoint_terminates_within_iteration_budget(dirty_table, constraints):
    algorithm = paper_algorithm_1(max_iterations=1)
    repaired = algorithm.repair_table(constraints, dirty_table)
    # One pass already fixes both cells because C1 precedes C2 in the rule order.
    assert repaired.value(4, "Country") == "Spain"
