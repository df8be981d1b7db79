"""The Shapley explainers must be bit-identical on both evaluation paths.

The incremental engine (copy-on-write views + delta-maintained violation
detection) changes how perturbed instances are represented and evaluated, but
never what the black-box oracle answers: for a fixed seed the cell and
constraint explainers produce exactly the same values, standard errors and
rankings as the materialise-and-rescan reference path.  The reference rows
(``incremental=False``) run a ``second_order=False`` algorithm: with the
default, a walk-based algorithm repairs plain tables on a zero-delta view too.
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


def rescan_unless(incremental: bool, algorithm):
    """``algorithm`` as is, or switched to the rescan reference (``second_order=False``)."""
    algorithm.second_order = algorithm.second_order and incremental
    return algorithm


def make_oracle(incremental: bool, algorithm=None, paired: bool = False,
                shared_stats: bool = False, batched_pairs: bool = False):
    return BinaryRepairOracle(
        rescan_unless(incremental, algorithm or paper_algorithm_1()),
        la_liga_constraints(),
        la_liga_dirty_table(),
        CELL_OF_INTEREST,
        incremental=incremental,
        paired=paired,
        shared_stats=shared_stats,
        batched_pairs=batched_pairs,
    )


#: (incremental, paired, shared_stats, batched_pairs) — the full engine grid,
#: from the materialise-and-rescan reference up to this PR's batched path
FLAG_GRID = [
    (False, False, False, False),
    (True, False, False, False),
    (True, True, False, False),
    (True, True, True, False),
    (True, True, False, True),
    (True, True, True, True),
]


@pytest.mark.parametrize("policy", ["null", "sample", "mode"])
def test_cell_explainer_identical_across_paths(policy):
    probes = [CellRef(4, "City"), CellRef(0, "Country"), CellRef(2, "Team")]
    results = {}
    for flags in FLAG_GRID:
        incremental, paired, shared_stats, batched_pairs = flags
        explainer = CellShapleyExplainer(
            make_oracle(incremental, paired=paired, shared_stats=shared_stats,
                        batched_pairs=batched_pairs),
            policy=policy, rng=23, incremental=incremental, paired=paired,
            shared_stats=shared_stats, batched_pairs=batched_pairs,
        )
        results[flags] = explainer.explain(cells=probes, n_samples=25)
    reference = results[FLAG_GRID[0]]
    for flags in FLAG_GRID[1:]:
        assert results[flags].values == reference.values, flags
        assert results[flags].standard_errors == reference.standard_errors, flags
        assert results[flags].n_samples == reference.n_samples, flags


def test_cell_estimates_identical_with_greedy_black_box():
    results = {}
    for incremental, paired in [(False, False), (True, False), (True, True)]:
        oracle = make_oracle(incremental, algorithm=GreedyHolisticRepair(max_changes=20),
                             paired=paired)
        explainer = CellShapleyExplainer(oracle, policy="null", rng=7,
                                         incremental=incremental, paired=paired)
        results[(incremental, paired)] = explainer.estimate_cell(
            CellRef(4, "City"), n_samples=15)
    reference = results[(False, False)]
    for key in [(True, False), (True, True)]:
        assert results[key].value == reference.value
        assert results[key].standard_error == reference.standard_error


def test_paired_flag_off_forces_independent_queries():
    oracle = make_oracle(True, paired=False)
    explainer = CellShapleyExplainer(oracle, policy="null", rng=5,
                                     incremental=True, paired=True)
    explainer.estimate_cell(CellRef(4, "City"), n_samples=5)
    # the explainer submitted pairs, but the oracle's paired=False forced
    # two independent repairs per pair — no shared walks
    assert oracle.pair_walks == 0

    shared = make_oracle(True, paired=True)
    explainer = CellShapleyExplainer(shared, policy="null", rng=5,
                                     incremental=True, paired=True)
    explainer.estimate_cell(CellRef(4, "City"), n_samples=5)
    assert shared.pair_walks > 0


def test_constraint_explainer_identical_across_paths():
    results = {}
    for incremental in (False, True):
        explainer = ConstraintShapleyExplainer(make_oracle(incremental))
        results[incremental] = explainer.explain()
    assert results[True].values == results[False].values
    assert results[True].ranking() == results[False].ranking()


def test_constraint_explainer_sampled_identical_across_paths():
    results = {}
    for incremental in (False, True):
        explainer = ConstraintShapleyExplainer(make_oracle(incremental))
        results[incremental] = explainer.explain_sampled(n_permutations=40, rng=11)
    assert results[True].values == results[False].values


def test_exact_cell_value_identical_across_paths():
    results = {}
    for incremental in (False, True):
        oracle = BinaryRepairOracle(
            SimpleRuleRepair(second_order=incremental),
            la_liga_constraints()[:2],
            la_liga_dirty_table(),
            CELL_OF_INTEREST,
            incremental=incremental,
        )
        explainer = CellShapleyExplainer(oracle, policy="null", rng=3,
                                         incremental=incremental)
        # tiny probe table is too wide for full enumeration, so restrict to a
        # 2x2 slice through the coalition API instead: compare raw coalition
        # queries on both paths
        coalition = [CellRef(4, "City"), CellRef(4, "Country"), CellRef(2, "City")]
        results[incremental] = (
            oracle.query_cell_coalition(coalition),
            oracle.query_cell_coalition([]),
            oracle.query_constraint_subset(oracle.constraints),
            explainer.oracle.target_value,
        )
    assert results[True] == results[False]
