"""Warm-pool soak: 3 adaptive rounds on 2 workers, resident state asserted.

The CI soak job drives ``run_adaptive`` through exactly three rounds on two
real worker processes and pins the warm pool's whole contract at once:

* **zero stack rebuilds after round one** — ``worker_rebuilds`` hits the
  pool width in round one and never moves again (the resident oracle stacks
  really are reused, round after round and across whole ``run`` calls);
* **diff shipping** — from round two on, ``cache_entries_shipped`` is
  strictly below what whole-cache shipping would have cost
  (``cache_entries_resident``, the size of the workers' resident caches),
  because only entries inserted since the previous sync travel;
* **bit-identity** — the same adaptive job in-process (``n_jobs=1``)
  produces identical estimates and identical stopping points.
"""

from __future__ import annotations

import pytest

from repro import (
    BinaryRepairOracle,
    CellRef,
    CellShapleyExplainer,
    SimpleRuleRepair,
    la_liga_constraints,
    la_liga_dirty_table,
)

pytestmark = [pytest.mark.parallel, pytest.mark.slow]

CELL_OF_INTEREST = CellRef(4, "Country")
PROBES = [CellRef(4, "City"), CellRef(0, "Country")]
N_JOBS = 2
SAMPLES_PER_SHARD = 4
N_ROUNDS = 3
#: min == max == rounds x chunk forces exactly N_ROUNDS adaptive rounds
#: (the tracker cannot converge before min_samples, and max stops it there)
MAX_SAMPLES = N_ROUNDS * SAMPLES_PER_SHARD
ADAPTIVE = dict(tolerance=1e-12, min_samples=MAX_SAMPLES, max_samples=MAX_SAMPLES)


def run_soak(n_jobs):
    oracle = BinaryRepairOracle(
        SimpleRuleRepair(), la_liga_constraints(), la_liga_dirty_table(),
        CELL_OF_INTEREST,
    )
    explainer = CellShapleyExplainer(
        oracle, policy="sample", rng=11, n_jobs=n_jobs,
        samples_per_shard=SAMPLES_PER_SHARD,
    )
    scheduler = explainer._scheduler(n_jobs)
    with explainer:
        outcome = scheduler.run_adaptive(PROBES, **ADAPTIVE, absorb_into=oracle)
        rounds = list(scheduler.round_log)
        # a fourth round of work through the *same* scheduler: a fixed run()
        # — the residency contract spans run calls, not just adaptive rounds
        extra = scheduler.run(PROBES, SAMPLES_PER_SHARD, absorb_into=oracle)
        rounds_after_run = list(scheduler.round_log)
    return outcome, extra, oracle, rounds, rounds_after_run


@pytest.fixture(scope="module")
def soak():
    return {
        "warm": run_soak(N_JOBS),
        "inline": run_soak(1),
    }


def test_exactly_three_adaptive_rounds(soak):
    _, _, _, rounds, _ = soak["warm"]
    assert len(rounds) == N_ROUNDS
    assert all(entry["shards"] == len(PROBES) for entry in rounds)


def test_zero_rebuilds_after_round_one(soak):
    _, _, oracle, rounds, rounds_after_run = soak["warm"]
    assert rounds[0]["worker_rebuilds"] == N_JOBS
    for entry in rounds_after_run[1:]:
        assert entry["worker_rebuilds"] == 0, entry
    # …and the oracle-level counter agrees after any number of rounds
    assert oracle.statistics()["worker_rebuilds"] == N_JOBS


def test_rounds_after_the_first_ship_only_diffs(soak):
    _, _, oracle, _, rounds_after_run = soak["warm"]
    for entry in rounds_after_run[1:]:
        # strictly less than whole-cache shipping: the resident caches hold
        # every earlier round's entries, the wire carries only the new ones
        assert entry["cache_entries_shipped"] < entry["cache_entries_resident"], entry
    total_shipped = sum(e["cache_entries_shipped"] for e in rounds_after_run)
    assert oracle.statistics()["cache_entries_shipped"] == total_shipped


def test_soak_is_bit_identical_across_pool_modes_and_inline(soak):
    """The warm pool and the in-process plan: same estimates, same stops."""
    warm_outcome, warm_extra, _, _, _ = soak["warm"]
    outcome, extra, _, _, _ = soak["inline"]
    assert outcome.estimates == warm_outcome.estimates
    assert extra.estimates == warm_extra.estimates
    # identical stopping points, not just values
    for cell in PROBES:
        assert warm_outcome.estimates[cell].n_samples == MAX_SAMPLES


def test_soak_runs_on_the_vectorised_engine(soak):
    """The resident stacks run on code arrays and stay resident.

    ``ExplainJobSpec`` ships the dirty table's column dictionaries once per
    worker lifetime; the workers' code-array engines run against that
    shipped encoding for their whole residency — so the vectorised checks
    show up in the merged telemetry while ``worker_rebuilds`` still stops
    at the pool width (the encoding costs no extra rebuilds, and no worker
    ever silently fell back to the object build).
    """
    _, _, oracle, _, _ = soak["warm"]
    statistics = oracle.statistics()
    assert statistics["worker_rebuilds"] == N_JOBS
    encoding = statistics["encoding"]
    assert encoding["vectorized_checks"] > 0
    assert encoding["fallback_checks"] == 0


def test_no_health_events_during_a_clean_soak(soak):
    _, _, oracle, _, _ = soak["warm"]
    statistics = oracle.statistics()
    assert statistics["pool_failovers"] == 0
    assert statistics["parallel_workers"] == N_JOBS
