"""Unit tests for cell-level Shapley explanations (Examples 1.1, 2.4, 2.5)."""

import pytest

from repro.constraints.parser import parse_dcs
from repro.dataset.table import CellRef, Table
from repro.errors import ExplanationError
from repro.repair.base import BinaryRepairOracle
from repro.repair.simple import SimpleRuleRepair, paper_algorithm_1
from repro.shapley.cells import CellShapleyExplainer, relevant_cells
from repro.shapley.sampling import ReplacementPolicy


@pytest.fixture
def oracle(algorithm, constraints, dirty_table, cell_of_interest):
    return BinaryRepairOracle(algorithm, constraints, dirty_table, cell_of_interest)


def test_relevant_cells_cover_constrained_attributes(dirty_table, constraints, cell_of_interest):
    cells = relevant_cells(dirty_table, constraints, cell_of_interest)
    attributes = {cell.attribute for cell in cells}
    # every attribute of the La Liga schema appears in some constraint
    assert attributes == set(dirty_table.attributes)
    assert len(cells) == dirty_table.n_cells


def test_relevant_cells_includes_same_row_even_if_unconstrained():
    table = Table(["A", "B", "Note"], [["x", 1, "n1"], ["x", 2, "n2"]])
    constraints = parse_dcs(["not(t1.A == t2.A and t1.B != t2.B)"])
    cells = relevant_cells(table, constraints, CellRef(1, "B"))
    assert CellRef(1, "Note") in cells  # same tuple as the cell of interest
    assert CellRef(0, "Note") not in cells  # different tuple, unconstrained attribute


def test_estimate_cell_is_deterministic_with_seed(oracle):
    first = CellShapleyExplainer(oracle, rng=5).estimate_cell(CellRef(4, "League"), n_samples=30)
    second = CellShapleyExplainer(oracle, rng=5).estimate_cell(CellRef(4, "League"), n_samples=30)
    assert first.value == pytest.approx(second.value)
    assert first.n_samples == 30


def test_league_cell_outranks_t6_city_and_t1_place(oracle):
    """Example 1.1 / 2.4: t5[League] is more influential than t6[City]; t1[Place] is inert."""
    explainer = CellShapleyExplainer(oracle, policy=ReplacementPolicy.NULL, rng=2)
    result = explainer.explain(
        cells=[CellRef(4, "League"), CellRef(5, "City"), CellRef(0, "Place")],
        n_samples=150,
    )
    assert result[CellRef(4, "League")] > result[CellRef(5, "City")]
    assert result[CellRef(0, "Place")] == pytest.approx(0.0, abs=1e-12)


def test_unrelated_place_cell_has_zero_value_under_sampling_policy(oracle):
    explainer = CellShapleyExplainer(oracle, policy=ReplacementPolicy.SAMPLE, rng=4)
    estimate = explainer.estimate_cell(CellRef(0, "Place"), n_samples=60)
    assert estimate.value == pytest.approx(0.0, abs=1e-12)


def test_explain_excludes_cell_of_interest_when_requested(oracle, cell_of_interest):
    explainer = CellShapleyExplainer(oracle, rng=1)
    result = explainer.explain(
        cells=[cell_of_interest, CellRef(4, "League")],
        n_samples=10,
        exclude_cell_of_interest=True,
    )
    assert cell_of_interest not in result.values
    assert CellRef(4, "League") in result.values


def test_explain_reports_sampling_metadata(oracle):
    explainer = CellShapleyExplainer(oracle, rng=1)
    result = explainer.explain(cells=[CellRef(4, "League"), CellRef(5, "City")], n_samples=12)
    assert result.n_samples == 24
    assert result.method.startswith("cell-sampling")
    assert set(result.standard_errors) == set(result.values)


def test_sampled_estimate_matches_exact_on_tiny_table():
    """Cross-check the Example 2.5 estimator against exact enumeration (NULL policy)."""
    table = Table(
        ["Code", "Name"],
        [["A1", "Aspirin"], ["A1", "Aspirin"], ["A1", "Asprin"]],
    )
    constraints = parse_dcs(["not(t1.Code == t2.Code and t1.Name != t2.Name)"])
    algorithm = SimpleRuleRepair()
    cell_of_interest = CellRef(2, "Name")
    oracle = BinaryRepairOracle(algorithm, constraints, table, cell_of_interest)
    assert oracle.target_value == "Aspirin"
    explainer = CellShapleyExplainer(oracle, policy=ReplacementPolicy.NULL, rng=8)

    probe_cells = [CellRef(0, "Name"), CellRef(0, "Code"), CellRef(1, "Name")]
    for probe in probe_cells:
        exact_value = explainer.exact_cell_value(probe)
        estimate = explainer.estimate_cell(probe, n_samples=700)
        assert estimate.value == pytest.approx(exact_value, abs=0.08), str(probe)


def test_exact_cell_value_symmetry_between_equivalent_rows():
    """Rows 0 and 1 are identical, so their cells must get equal exact values."""
    table = Table(
        ["Code", "Name"],
        [["A1", "Aspirin"], ["A1", "Aspirin"], ["A1", "Asprin"]],
    )
    constraints = parse_dcs(["not(t1.Code == t2.Code and t1.Name != t2.Name)"])
    oracle = BinaryRepairOracle(SimpleRuleRepair(), constraints, table, CellRef(2, "Name"))
    explainer = CellShapleyExplainer(oracle, policy=ReplacementPolicy.NULL, rng=0)
    assert explainer.exact_cell_value(CellRef(0, "Name")) == pytest.approx(
        explainer.exact_cell_value(CellRef(1, "Name"))
    )


@pytest.mark.parametrize("n_jobs", [None, 1])
@pytest.mark.parametrize("n_samples", [0, -5])
def test_sample_counts_below_one_are_rejected(oracle, n_samples, n_jobs):
    with CellShapleyExplainer(oracle, rng=5, n_jobs=n_jobs) as explainer:
        with pytest.raises(ExplanationError, match="at least 1"):
            explainer.estimate_cell(CellRef(4, "League"), n_samples=n_samples)
        with pytest.raises(ExplanationError, match="at least 1"):
            explainer.explain(cells=[CellRef(4, "League")], n_samples=n_samples)
