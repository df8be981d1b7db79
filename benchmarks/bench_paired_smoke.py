"""CI smoke test: the fast engine on the 20-row example vs. the reference.

A fast, wall-clock-insensitive gate for shared CI runners: run the
``engine="fast"`` stack (shared pair walks, batched pair queries) and the
``engine="reference"`` materialise-and-rescan stack on a small instance of
the scaling dataset and require bit-identical Shapley estimates and sane
oracle accounting.  The timing-sensitive floors live in
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


@pytest.mark.parametrize("algorithm_factory,label", [
    (SimpleRuleRepair, "simple-rules"),
    (lambda engine: GreedyHolisticRepair(max_changes=25, engine=engine),
     "greedy-holistic"),
])
def test_fast_engine_matches_reference_on_20_rows(algorithm_factory, label):
    constraints, dirty, cell = _setup()
    results = {}
    oracles = {}
    for path in ("reference", "fast"):
        oracle = BinaryRepairOracle(algorithm_factory(engine=path),
                                    constraints, dirty, cell)
        explainer = CellShapleyExplainer(oracle, policy="null", rng=3)
        probes = relevant_cells(dirty, constraints, cell)[:N_PROBES]
        results[path] = explainer.explain(cells=probes, n_samples=N_SAMPLES)
        oracles[path] = oracle

    assert results["fast"].values == results["reference"].values
    assert results["fast"].standard_errors == results["reference"].standard_errors
    assert results["fast"].n_samples == results["reference"].n_samples
    # the fast oracle actually shared walks (not a silent fallback), the
    # reference shared none, and both issued exactly as many oracle queries
    assert oracles["fast"].pair_walks > 0
    assert oracles["reference"].pair_walks == 0
    assert oracles["fast"].calls == oracles["reference"].calls

    print_table(
        f"paired smoke — {label}, {N_ROWS} rows, m={N_SAMPLES}",
        ["cell", "shapley"],
        [[str(cell_), f"{value:.4f}"]
         for cell_, value in sorted(results["fast"].values.items(),
                                    key=lambda item: -abs(item[1]))[:5]],
    )
