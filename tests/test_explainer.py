"""Unit tests for the TRExExplainer facade."""

import pytest

from repro.dataset.table import CellRef
from repro.errors import ExplanationError, NotRepairedError
from repro.explain.explainer import TRExExplainer
from repro.repair.greedy import GreedyHolisticRepair


def test_repair_is_cached_and_refreshable(explainer):
    first = explainer.repair()
    second = explainer.repair()
    assert first is second
    third = explainer.repair(force=True)
    assert third is not first
    assert third.clean.equals(first.clean)


def test_repaired_cells_listing(explainer):
    assert set(explainer.repaired_cells()) == {CellRef(4, "City"), CellRef(4, "Country")}
    assert explainer.clean_table.value(4, "Country") == "Spain"
    assert len(explainer.delta) == 2


def test_duplicate_constraint_names_rejected(algorithm, constraints, dirty_table):
    duplicated = constraints + [constraints[0]]
    with pytest.raises(ExplanationError):
        TRExExplainer(algorithm, duplicated, dirty_table)


def test_explaining_unrepaired_cell_raises(explainer):
    with pytest.raises(NotRepairedError):
        explainer.explain_constraints(CellRef(0, "Team"))


def test_explain_constraints_returns_figure1_ranking(explainer, cell_of_interest):
    explanation = explainer.explain_constraints(cell_of_interest)
    assert explanation.old_value == "España"
    assert explanation.new_value == "Spain"
    ranking = explanation.constraint_ranking
    assert ranking.items()[0] == "C3"
    assert explanation.top_constraints(1) == ["C3"]
    assert explanation.cell_ranking is None
    assert explanation.oracle_statistics["repair_runs"] >= 1


def test_explain_constraints_sampled_mode(explainer, cell_of_interest):
    explanation = explainer.explain_constraints(cell_of_interest, exact=False, n_permutations=200)
    assert explanation.constraint_shapley.method.startswith("permutation")
    assert explanation.constraint_ranking.items()[0] == "C3"


def test_explain_cells_returns_ranking(explainer, cell_of_interest):
    explanation = explainer.explain_cells(cell_of_interest, n_samples=15)
    assert explanation.cell_shapley is not None
    assert explanation.constraint_shapley is None
    assert len(explanation.cell_ranking) > 0
    assert explanation.top_cells(3)


def test_explain_cells_with_explicit_cell_list(explainer, cell_of_interest):
    probes = [CellRef(4, "League"), CellRef(0, "Place")]
    explanation = explainer.explain_cells(cell_of_interest, n_samples=10, cells=probes)
    assert set(explanation.cell_shapley.values) == set(probes)


def test_full_explain_combines_both_parts(explainer, cell_of_interest):
    explanation = explainer.explain(cell_of_interest, n_samples=8)
    assert explanation.constraint_shapley is not None
    assert explanation.cell_shapley is not None
    assert set(explanation.oracle_statistics) == {"constraints", "cells"}


def test_with_constraints_builds_new_explainer(explainer, constraints, cell_of_interest):
    reduced = explainer.with_constraints(constraints[:2])
    assert reduced is not explainer
    assert len(reduced.constraints) == 2
    # with only C1 and C2 the country is still repaired (via the C1+C2 path)
    assert reduced.clean_table.value(4, "Country") == "Spain"


def test_with_table_and_with_algorithm(explainer, dirty_table, cell_of_interest):
    edited = dirty_table.with_values({CellRef(4, "League"): "Serie A"})
    updated = explainer.with_table(edited)
    assert updated.dirty_table is not explainer.dirty_table
    swapped = explainer.with_algorithm(GreedyHolisticRepair())
    assert swapped.algorithm is not explainer.algorithm
    assert swapped.constraints == explainer.constraints


def test_explain_counterfactuals_facade(explainer, cell_of_interest):
    result = explainer.explain_counterfactuals(
        cell_of_interest,
        candidate_cells=[CellRef(4, "League"), CellRef(4, "Team"), CellRef(2, "Team")],
    )
    assert result["cell"] == cell_of_interest
    assert frozenset({"C3", "C1"}) in result["constraint_sets"]
    assert frozenset({"C3", "C2"}) in result["constraint_sets"]
    assert result["oracle_statistics"]["repair_runs"] >= 1


def test_explanations_are_deterministic_given_config(explainer, cell_of_interest):
    first = explainer.explain_cells(cell_of_interest, n_samples=12)
    second = explainer.explain_cells(cell_of_interest, n_samples=12)
    assert first.cell_shapley.values == second.cell_shapley.values


def test_explicit_zero_samples_is_rejected_not_defaulted(explainer, cell_of_interest):
    with pytest.raises(ExplanationError, match="at least 1"):
        explainer.explain_cells(cell_of_interest, n_samples=0)
