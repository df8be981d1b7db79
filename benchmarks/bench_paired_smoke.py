"""CI smoke test: the paired oracle on the 20-row example vs. the reference path.

A fast, wall-clock-insensitive gate for shared CI runners: run the paired
second-order path and the materialise-and-rescan reference path on a small
instance of the scaling dataset and require bit-identical Shapley estimates
and sane oracle accounting.  The timing-sensitive floors live in
``bench_incremental_vs_full.py``; this job only guards correctness of the
paired machinery end to end.
"""

from __future__ import annotations

import pytest

from conftest import print_table
from repro import (
    BinaryRepairOracle,
    CellShapleyExplainer,
    GreedyHolisticRepair,
    SimpleRuleRepair,
    SoccerLeagueGenerator,
)
from repro.dataset.errors import inject_errors
from repro.shapley.cells import relevant_cells

N_ROWS = 20
N_SAMPLES = 12
N_PROBES = 4


def _setup():
    dataset = SoccerLeagueGenerator(seed=47).generate(N_ROWS)
    constraints = dataset.constraints()
    dirty, report = inject_errors(
        dataset.table, rate=0.0, n_errors=1, error_types=["domain"],
        attributes=["Country"], seed=47,
    )
    return constraints, dirty, report.cells()[0]


# the reference row builds its algorithm with second_order=False: the default
# repairs plain tables on a zero-delta view, which is the fast path, not a rescan
@pytest.mark.parametrize("algorithm_factory,label", [
    (SimpleRuleRepair, "simple-rules"),
    (lambda second_order: GreedyHolisticRepair(max_changes=25, second_order=second_order),
     "greedy-holistic"),
])
def test_paired_path_matches_reference_on_20_rows(algorithm_factory, label):
    constraints, dirty, cell = _setup()
    results = {}
    oracles = {}
    for path, (incremental, paired) in {
        "reference": (False, False),
        "paired": (True, True),
    }.items():
        oracle = BinaryRepairOracle(algorithm_factory(second_order=incremental),
                                    constraints, dirty, cell,
                                    incremental=incremental, paired=paired)
        explainer = CellShapleyExplainer(oracle, policy="null", rng=3,
                                         incremental=incremental, paired=paired)
        probes = relevant_cells(dirty, constraints, cell)[:N_PROBES]
        results[path] = explainer.explain(cells=probes, n_samples=N_SAMPLES)
        oracles[path] = oracle

    assert results["paired"].values == results["reference"].values
    assert results["paired"].standard_errors == results["reference"].standard_errors
    assert results["paired"].n_samples == results["reference"].n_samples
    # the paired oracle actually shared walks (not a silent fallback), and
    # issued exactly as many oracle queries as the reference path
    assert oracles["paired"].pair_walks > 0
    assert oracles["paired"].calls == oracles["reference"].calls

    print_table(
        f"paired smoke — {label}, {N_ROWS} rows, m={N_SAMPLES}",
        ["cell", "shapley"],
        [[str(cell_), f"{value:.4f}"]
         for cell_, value in sorted(results["paired"].values.items(),
                                    key=lambda item: -abs(item[1]))[:5]],
    )
