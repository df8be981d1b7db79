"""Chaos soak: seeded fault schedules replayed against pinned Shapley values.

The fault-injection suite (``test_parallel_faults.py``) proves each failure
mode in isolation; this soak turns them all loose at once.  A
:class:`~repro.parallel.chaos.FaultPlan` drawn from a fixed seed schedules
kills, hangs and corrupt replies across a workers × rounds grid, and the
runs underneath must not budge:

* **bit-identity under fire** — every chaos round's estimates equal the
  fault-free run's, and a golden-grid subset still matches the committed
  fixture values exactly while kill + hang + corrupt events are active;
* **coherent counters** — each call below is one round, so every scheduled
  fault fires and fails exactly one assignment over: ``pool_failovers``
  equals the number of scheduled events, and a pool is spawned only by a
  call whose predecessor failed over (never more than ``n_jobs`` workers
  per call);
* **reconciled event log** — the scheduler's structured
  :class:`~repro.observability.events.EventLog` carries one
  ``pool_failover`` record per failed assignment, with the reason of the
  fault that caused it.

Everything here is deterministic: the plans depend only on their seeds, the
shard draws only on their coordinates.
"""

from __future__ import annotations

import json
import warnings

import pytest

import test_golden_determinism as golden
from repro import (
    BinaryRepairOracle,
    CellRef,
    CellShapleyExplainer,
    SimpleRuleRepair,
    la_liga_constraints,
    la_liga_dirty_table,
)
from repro.parallel import FaultPlan, ShardedExplainScheduler

pytestmark = [pytest.mark.parallel, pytest.mark.slow]

CELL_OF_INTEREST = CellRef(4, "Country")
PROBES = [CellRef(4, "City"), CellRef(0, "Country")]
N_JOBS = 2
N_SAMPLES = 12
SAMPLES_PER_SHARD = 4
N_ROUNDS = 4
#: the hang fault sleeps well past this, so hung workers are detected fast
WORKER_TIMEOUT = 1.5
HANG_SECONDS = 6.0
#: chosen so the three plans together cover kill, hang and corrupt while
#: scheduling only one hang (each hang costs one WORKER_TIMEOUT wait)
CHAOS_SEEDS = (2, 3, 9)
#: the pool_failover reason each FaultPlan kind produces
FAILOVER_REASONS = {"kill": "dead", "hang": "timeout", "corrupt": "corrupt"}


def make_scheduler(fault_injector=None):
    oracle = BinaryRepairOracle(
        SimpleRuleRepair(), la_liga_constraints(), la_liga_dirty_table(),
        CELL_OF_INTEREST,
    )
    explainer = CellShapleyExplainer(oracle, policy="sample", rng=11)
    scheduler = ShardedExplainScheduler.from_explainer(
        explainer, n_jobs=N_JOBS, samples_per_shard=SAMPLES_PER_SHARD,
        worker_timeout=WORKER_TIMEOUT, fault_injector=fault_injector,
    )
    return scheduler, oracle


@pytest.fixture(scope="module")
def clean_rounds():
    """The fault-free per-round estimates every chaos replay must reproduce."""
    scheduler, _ = make_scheduler()
    with scheduler:
        return [scheduler.run(PROBES, N_SAMPLES).estimates
                for _ in range(N_ROUNDS)]


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_seeded_chaos_rounds_stay_bit_identical(seed, clean_rounds):
    plan = FaultPlan.seeded(seed, n_workers=N_JOBS, n_rounds=N_ROUNDS,
                            rate=0.4, hang_seconds=HANG_SECONDS)
    assert len(plan) > 0  # the schedule is live, not a vacuous pass
    scheduler, oracle = make_scheduler(fault_injector=plan)
    with scheduler, warnings.catch_warnings():
        # the health chatter (died / timed out / corrupt reply) is expected
        warnings.simplefilter("ignore", RuntimeWarning)
        outcomes = [scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
                    for _ in range(N_ROUNDS)]
    for outcome, clean in zip(outcomes, clean_rounds):
        assert outcome.estimates == clean
    statistics = oracle.statistics()
    events = scheduler.events
    # every run is one round on a pool, so every scheduled fault fires and
    # fails exactly one assignment over — on the counter and the log alike
    assert statistics["pool_failovers"] == events.count("pool_failover") \
        == len(plan)
    for kind, reason in FAILOVER_REASONS.items():
        assert events.count("pool_failover", reason=reason) == plan.count(kind)
    assert statistics["deadline_expired"] == 0
    assert events.count("deadline_expired") == 0
    # a pool is spawned by the first run and by every run after a failed
    # one — never more than N_JOBS workers per run
    failed_rounds = {event.round_index for event in plan.events()}
    respawns = len(failed_rounds & set(range(N_ROUNDS - 1)))
    assert events.count("worker_spawn") == N_JOBS * (1 + respawns)


#: golden-grid rows replayed under chaos, each with its own seeded plan;
#: the seeds together fire kill, hang and corrupt events (asserted below)
GOLDEN_CHAOS_ENTRIES = (
    ("simple", "full", 5),
    ("simple", "paired_batched", 8),
    ("greedy", "paired_batched", 10),
)


def golden_plan(seed: int) -> FaultPlan:
    return FaultPlan.seeded(seed, n_workers=N_JOBS, n_rounds=2, rate=0.6,
                            kinds=("kill", "hang", "corrupt"),
                            hang_seconds=HANG_SECONDS)


def test_golden_chaos_plans_cover_every_hard_fault_kind():
    plans = [golden_plan(seed) for _, _, seed in GOLDEN_CHAOS_ENTRIES]
    for kind in ("kill", "hang", "corrupt"):
        assert sum(plan.count(kind) for plan in plans) > 0, kind


@pytest.mark.parametrize("algorithm_name,path_name,seed", GOLDEN_CHAOS_ENTRIES)
def test_golden_grid_values_survive_seeded_chaos(algorithm_name, path_name,
                                                 seed):
    """Fixture-pinned values, recomputed under kill/hang/corrupt fire."""
    assert golden.FIXTURE.exists(), "golden fixture missing — regenerate it"
    fixture = json.loads(golden.FIXTURE.read_text())
    expected = fixture["values"][f"{algorithm_name}/{path_name}/njobs=2/warm"]

    oracle = BinaryRepairOracle(
        golden.ALGORITHMS[algorithm_name](golden.ENGINE_PATHS[path_name]),
        la_liga_constraints(), la_liga_dirty_table(), golden.CELL_OF_INTEREST,
    )
    explainer = CellShapleyExplainer(oracle, policy=golden.POLICY, rng=golden.SEED)
    scheduler = ShardedExplainScheduler.from_explainer(
        explainer, n_jobs=N_JOBS,
        samples_per_shard=golden.SAMPLES_PER_SHARD,
        worker_timeout=WORKER_TIMEOUT, fault_injector=golden_plan(seed),
    )
    with scheduler, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        # two rounds so the plan's round-1 coordinates fire too; each run is
        # independently pinned (same plan, same seeds, same values)
        for _ in range(2):
            outcome = scheduler.run(golden.PROBES, golden.N_SAMPLES,
                                    absorb_into=oracle)
            values = {str(cell): estimate.value
                      for cell, estimate in outcome.estimates.items()}
            assert values == expected


# -- base updates under fire -----------------------------------------------------------

#: the update cycle the interleaved soak walks: create a violation, resolve
#: it, write a novel value, restore — every explain between steps must match
#: a fresh session on the then-current table while the fault plan fires
UPDATE_SOAK_CYCLE = (
    (CellRef(0, "Country"), "Portugal"),
    (CellRef(0, "Country"), "Spain"),
    (CellRef(0, "City"), "Seville"),
    (CellRef(0, "City"), "Barcelona"),
)
#: seed chosen so rounds 1–4 (the post-attach rounds) schedule 2 kills and
#: 2 corrupt replies — asserted below, not trusted
UPDATE_CHAOS_SEED = 27


def test_update_interleaved_chaos_rounds_stay_bit_identical():
    """Base updates interleaved with kills and corrupt replies: every
    post-update explain is bit-identical to a fresh session on the
    then-current table (the failed-over rounds and the respawned pools
    alike), and the update/fail-over counters reconcile with the event
    log."""
    from repro import RepairSession, TRexConfig, paper_algorithm_1

    config = dict(seed=13, cell_samples=8, replacement_policy="sample",
                  n_jobs=N_JOBS)

    def session_key(explanation):
        cells = explanation.cell_shapley
        return sorted((str(cell), value, cells.standard_errors[cell])
                      for cell, value in cells.values.items())

    def fresh_key(table):
        session = RepairSession(paper_algorithm_1(), la_liga_constraints(),
                                table, cell_of_interest=CELL_OF_INTEREST,
                                config=TRexConfig(**config))
        with session:
            return session_key(session.explain())

    # the session scheduler has no worker timeout, so no hangs in this plan
    plan = FaultPlan.seeded(UPDATE_CHAOS_SEED, n_workers=N_JOBS,
                            n_rounds=len(UPDATE_SOAK_CYCLE) + 1, rate=0.5,
                            kinds=("kill", "corrupt"))
    # the injector attaches after round 0, so only rounds >= 1 can fire
    fired = [event for event in plan.events() if event.round_index >= 1]
    kills = sum(1 for event in fired
                if event.fault.die_after_shards is not None)
    corrupt = sum(1 for event in fired if event.fault.corrupt_reply)
    assert kills >= 1 and corrupt >= 1  # the schedule is live, not vacuous

    table = la_liga_dirty_table()
    session = RepairSession(paper_algorithm_1(), la_liga_constraints(),
                            table, cell_of_interest=CELL_OF_INTEREST,
                            config=TRexConfig(**config))
    with session, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        session.explain()  # round 0: warm the pool, build the live state
        live = session._live
        n_cells = len(live.cells)
        scheduler = live.explainer._scheduler(N_JOBS)
        scheduler.fault_injector = plan
        for cell, value in UPDATE_SOAK_CYCLE:
            session.update(cell, value)
            reference = fresh_key(table.copy())  # table mutates in place
            assert session_key(session.explain()) == reference

        oracle = live.oracle
        statistics = oracle.statistics()
        # update counters: one application per cycle step, full invalidation
        # each time (SAMPLE replacements are drawn from mutated statistics)
        assert oracle.base_updates_applied == len(UPDATE_SOAK_CYCLE)
        assert oracle.estimates_invalidated == len(UPDATE_SOAK_CYCLE) * n_cells
        # every post-attach fault fired once and failed one assignment over
        # (an explain after an update is one round) — the event log agrees
        events = scheduler.events
        assert statistics["pool_failovers"] == events.count("pool_failover") \
            == len(fired)
        assert events.count("pool_failover", reason="dead") == kills
        assert events.count("pool_failover", reason="corrupt") == corrupt
        assert events.count("base_update") == len(UPDATE_SOAK_CYCLE)
        assert all(record["cells"] == 1
                   for record in events.filter("base_update"))
        # the counter surface carries the update metrics end to end
        assert statistics["base_updates_applied"] == len(UPDATE_SOAK_CYCLE)
        assert statistics["estimates_invalidated"] == oracle.estimates_invalidated
        assert statistics["cache_entries_invalidated"] \
            == oracle.cache_entries_invalidated
