"""The Shapley explainers must be bit-identical on both evaluation engines.

The fast engine (copy-on-write views, delta-maintained violation detection,
derived view statistics, shared pair walks, batched pair queries) changes how
perturbed instances are represented and evaluated, but never what the
black-box oracle answers: for a fixed seed the cell and constraint explainers
produce exactly the same values, standard errors and rankings as the
``engine="reference"`` materialise-and-rescan path.
"""

from __future__ import annotations

import pytest

from repro import (
    BinaryRepairOracle,
    CellRef,
    CellShapleyExplainer,
    ConstraintShapleyExplainer,
    GreedyHolisticRepair,
    SimpleRuleRepair,
    la_liga_constraints,
    la_liga_dirty_table,
    paper_algorithm_1,
)

CELL_OF_INTEREST = CellRef(4, "Country")
ENGINES = ("reference", "fast")


def make_oracle(engine: str, algorithm=None):
    return BinaryRepairOracle(
        algorithm or paper_algorithm_1(engine=engine),
        la_liga_constraints(),
        la_liga_dirty_table(),
        CELL_OF_INTEREST,
    )


@pytest.mark.parametrize("policy", ["null", "sample", "mode"])
def test_cell_explainer_identical_across_paths(policy):
    probes = [CellRef(4, "City"), CellRef(0, "Country"), CellRef(2, "Team")]
    results = {}
    for engine in ENGINES:
        explainer = CellShapleyExplainer(make_oracle(engine), policy=policy, rng=23)
        results[engine] = explainer.explain(cells=probes, n_samples=25)
    reference, fast = results["reference"], results["fast"]
    assert fast.values == reference.values
    assert fast.standard_errors == reference.standard_errors
    assert fast.n_samples == reference.n_samples


def test_cell_estimates_identical_with_greedy_black_box():
    results = {}
    for engine in ENGINES:
        oracle = make_oracle(
            engine, algorithm=GreedyHolisticRepair(max_changes=20, engine=engine))
        explainer = CellShapleyExplainer(oracle, policy="null", rng=7)
        results[engine] = explainer.estimate_cell(CellRef(4, "City"), n_samples=15)
    assert results["fast"].value == results["reference"].value
    assert results["fast"].standard_error == results["reference"].standard_error


def test_constraint_explainer_identical_across_paths():
    results = {}
    for engine in ENGINES:
        results[engine] = ConstraintShapleyExplainer(make_oracle(engine)).explain()
    assert results["fast"].values == results["reference"].values
    assert results["fast"].ranking() == results["reference"].ranking()


def test_constraint_explainer_sampled_identical_across_paths():
    results = {}
    for engine in ENGINES:
        explainer = ConstraintShapleyExplainer(make_oracle(engine))
        results[engine] = explainer.explain_sampled(n_permutations=40, rng=11)
    assert results["fast"].values == results["reference"].values


def test_exact_cell_value_identical_across_paths():
    results = {}
    for engine in ENGINES:
        oracle = BinaryRepairOracle(
            SimpleRuleRepair(engine=engine),
            la_liga_constraints()[:2],
            la_liga_dirty_table(),
            CELL_OF_INTEREST,
        )
        explainer = CellShapleyExplainer(oracle, policy="null", rng=3)
        # tiny probe table is too wide for full enumeration, so restrict to a
        # 2x2 slice through the coalition API instead: compare raw coalition
        # queries on both paths
        coalition = [CellRef(4, "City"), CellRef(4, "Country"), CellRef(2, "City")]
        results[engine] = (
            oracle.query_cell_coalition(coalition),
            oracle.query_cell_coalition([]),
            oracle.query_constraint_subset(oracle.constraints),
            explainer.oracle.target_value,
        )
    assert results["fast"] == results["reference"]


@pytest.mark.parallel
@pytest.mark.parametrize("policy", ["null", "sample", "mode"])
@pytest.mark.parametrize("algorithm", ["simple", "greedy"])
def test_engines_agree_on_every_worker_count(algorithm, policy):
    """fast ≡ reference for n_jobs ∈ {None, 1, 2}: values, errors, counts."""
    probes = [CellRef(4, "City"), CellRef(0, "Country")]
    for n_jobs in (None, 1, 2):
        results = {}
        for engine in ENGINES:
            black_box = (SimpleRuleRepair(engine=engine) if algorithm == "simple"
                         else GreedyHolisticRepair(max_changes=20, engine=engine))
            with CellShapleyExplainer(make_oracle(engine, black_box), policy=policy,
                                      rng=13, n_jobs=n_jobs,
                                      samples_per_shard=3) as explainer:
                results[engine] = explainer.explain(cells=probes, n_samples=6)
        fast, reference = results["fast"], results["reference"]
        assert fast.values == reference.values, n_jobs
        assert fast.standard_errors == reference.standard_errors, n_jobs
        assert fast.n_samples == reference.n_samples, n_jobs
