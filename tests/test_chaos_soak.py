"""Chaos soak: seeded fault schedules replayed against pinned Shapley values.

The fault-injection suite (``test_parallel_faults.py``) proves each failure
mode in isolation; this soak turns them all loose at once.  A
:class:`~repro.parallel.chaos.FaultPlan` drawn from a fixed seed schedules
kills, hangs, corrupt replies and slow replies across a workers × rounds
grid, and the runs underneath must not budge:

* **bit-identity under fire** — every chaos round's estimates equal the
  fault-free run's, and a golden-grid subset still matches the committed
  fixture values exactly while kill + hang + corrupt events are active;
* **coherent counters** — ``workers_restarted`` equals the number of
  scheduled kill + hang events (each costs exactly one restart, corrupt and
  slow replies none), warm restarts never exceed restarts, and every warm
  restart seeded at least one cache entry;
* **reconciled event log** — the scheduler's structured
  :class:`~repro.observability.events.EventLog` carries one record per
  health incident, and summing/counting those records reproduces the
  lifecycle counters exactly (the emission sites sit next to the bumps);
* **warm-restart acceptance** — after a mid-soak crash the replacement
  worker serves every remaining round from a snapshot-seeded stack: one
  rebuild, diffs-only shipping (never a full resident cache), zero rebuilds
  afterwards.

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
from repro.parallel import (
    FaultPlan,
    RetryPolicy,
    ShardedExplainScheduler,
    WorkerFault,
)

pytestmark = [pytest.mark.parallel, pytest.mark.slow]

CELL_OF_INTEREST = CellRef(4, "Country")
PROBES = [CellRef(4, "City"), CellRef(0, "Country")]
N_JOBS = 2
N_SAMPLES = 12
SAMPLES_PER_SHARD = 4
N_ROUNDS = 4
#: the hang fault sleeps well past this, so hung workers are replaced fast
WORKER_TIMEOUT = 1.5
HANG_SECONDS = 6.0
#: chosen so the three plans together cover kill, hang, corrupt and slow
#: while scheduling only one hang (each hang costs one WORKER_TIMEOUT wait)
CHAOS_SEEDS = (2, 3, 9)

#: restart/attempt caps lifted and backoff off: the soak wants the counter
#: arithmetic exact (every kill/hang = one restart, nothing quarantined)
UNBOUNDED = RetryPolicy(max_worker_restarts=None, max_shard_attempts=None,
                        backoff_base=0.0)


def make_scheduler(fault_injector=None, retry=UNBOUNDED):
    oracle = BinaryRepairOracle(
        SimpleRuleRepair(), la_liga_constraints(), la_liga_dirty_table(),
        CELL_OF_INTEREST,
    )
    explainer = CellShapleyExplainer(oracle, policy="sample", rng=11)
    scheduler = ShardedExplainScheduler.from_explainer(
        explainer, n_jobs=N_JOBS, samples_per_shard=SAMPLES_PER_SHARD,
        worker_timeout=WORKER_TIMEOUT, fault_injector=fault_injector,
        retry_policy=retry,
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
                            rate=0.4, hang_seconds=HANG_SECONDS,
                            slow_seconds=0.02)
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
    # every kill and every hang costs exactly one restart; corrupt and slow
    # replies cost none (the worker stays alive) — with caps lifted the
    # arithmetic is exact
    assert statistics["workers_restarted"] == (plan.count("kill")
                                               + plan.count("hang"))
    assert statistics["warm_restarts"] <= statistics["workers_restarted"]
    # a warm restart that fired seeded at least one entry from the snapshot
    assert statistics["cache_entries_seeded"] >= statistics["warm_restarts"]
    assert statistics["shards_poisoned"] == 0
    assert statistics["deadline_expired"] == 0
    # the structured event log reconciles exactly with the same counters:
    # one worker_restart record per restart, shard_requeued records whose
    # n_shards sum to the requeue counter, seeded-entry records summing to
    # the seed counter, and no poison/deadline records at all
    events = scheduler.events
    assert events.count("worker_restart") == statistics["workers_restarted"]
    assert sum(record["n_shards"] for record in events.filter("shard_requeued")) \
        == statistics["shards_requeued"]
    assert events.count("warm_restart") == statistics["warm_restarts"]
    assert sum(record["entries"] for record in events.filter("snapshot_seeded")) \
        == statistics["cache_entries_seeded"]
    assert events.count("shard_poisoned") == 0
    assert events.count("deadline_expired") == 0
    assert events.count("worker_spawn") == N_JOBS


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

    incremental, paired, second_order, shared_stats, batched_pairs = \
        golden.ENGINE_PATHS[path_name]
    oracle = BinaryRepairOracle(
        golden.ALGORITHMS[algorithm_name](second_order),
        la_liga_constraints(), la_liga_dirty_table(), golden.CELL_OF_INTEREST,
        incremental=incremental, paired=paired, shared_stats=shared_stats,
        batched_pairs=batched_pairs,
    )
    explainer = CellShapleyExplainer(
        oracle, policy=golden.POLICY, rng=golden.SEED,
        incremental=incremental, paired=paired, shared_stats=shared_stats,
        batched_pairs=batched_pairs,
    )
    scheduler = ShardedExplainScheduler.from_explainer(
        explainer, n_jobs=N_JOBS,
        samples_per_shard=golden.SAMPLES_PER_SHARD,
        worker_timeout=WORKER_TIMEOUT, fault_injector=golden_plan(seed),
        retry_policy=UNBOUNDED,
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


def test_warm_restart_soak_replacement_serves_from_snapshot_and_diffs():
    """Acceptance soak: a replaced worker serves every round after its crash
    warm — one snapshot-seeded rebuild, diffs-only shipping, no further
    rebuilds, and bit-identical estimates."""
    kill_round = 1

    def injector(worker_index, round_index):
        if worker_index == 0 and round_index == kill_round:
            return WorkerFault(die_after_shards=0)
        return None

    max_samples = N_ROUNDS * SAMPLES_PER_SHARD
    adaptive = dict(tolerance=1e-12, min_samples=max_samples,
                    max_samples=max_samples)
    clean_scheduler, _ = make_scheduler()
    with clean_scheduler:
        clean = clean_scheduler.run_adaptive(PROBES, **adaptive)
    scheduler, oracle = make_scheduler(fault_injector=injector)
    with scheduler, pytest.warns(RuntimeWarning, match="died mid-task"):
        outcome = scheduler.run_adaptive(PROBES, **adaptive,
                                         absorb_into=oracle)
    assert outcome.estimates == clean.estimates

    rounds = scheduler.round_log
    assert len(rounds) == N_ROUNDS
    assert rounds[0]["worker_rebuilds"] == N_JOBS
    # crash round: the survivor served the requeue from its resident stack
    assert rounds[kill_round]["worker_rebuilds"] == 0
    assert rounds[kill_round]["shards_requeued"] == 1
    # the replacement's first round: exactly one rebuild, seeded warm
    post = rounds[kill_round + 1]
    assert post["worker_rebuilds"] == 1
    assert post["warm_restarts"] == 1
    assert post["cache_entries_seeded"] > 0
    # every round from the crash on ships diffs only — strictly less than the
    # resident cache volume a full-cache ship would have cost
    for entry in rounds[kill_round:]:
        assert entry["cache_entries_shipped"] < entry["cache_entries_resident"], entry
    # and the replaced slot keeps serving: no rebuild in any later round
    for entry in rounds[kill_round + 2:]:
        assert entry["worker_rebuilds"] == 0, entry
    statistics = oracle.statistics()
    assert statistics["workers_restarted"] == 1
    assert statistics["warm_restarts"] == 1
    assert statistics["cache_entries_seeded"] == post["cache_entries_seeded"]
    # the event log tells the same story, record by record: the crash, the
    # requeue it caused, and the snapshot seed the replacement served from
    events = scheduler.events
    assert events.count("worker_restart", worker=0) == 1
    assert sum(record["n_shards"] for record in events.filter("shard_requeued")) \
        == statistics["shards_requeued"] == 1
    assert events.count("warm_restart", worker=0) == 1
    assert sum(record["entries"] for record in events.filter("snapshot_seeded")) \
        == statistics["cache_entries_seeded"]


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
#: seed chosen so rounds 1–4 (the post-attach rounds) schedule 2 kills,
#: 1 corrupt reply and 1 slow reply — asserted below, not trusted
UPDATE_CHAOS_SEED = 27


def test_update_interleaved_chaos_rounds_stay_bit_identical():
    """Base updates interleaved with kills/corrupt/slow replies: every
    post-update explain is bit-identical to a fresh session on the
    then-current table, replacement workers are re-seeded with post-update
    state, and the update/health counters reconcile with the event log."""
    from repro import RepairSession, TRexConfig, paper_algorithm_1

    config = dict(seed=13, cell_samples=8, replacement_policy="sample",
                  n_jobs=N_JOBS, warm_pool=True)

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
                            kinds=("kill", "corrupt", "slow"),
                            slow_seconds=0.02)
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
        # health counters: every kill cost exactly one restart; corrupt and
        # slow replies none — and the event log tells the same story
        assert statistics["workers_restarted"] == kills
        assert statistics["warm_restarts"] <= kills
        events = scheduler.events
        assert events.count("worker_restart") == kills
        assert events.count("base_update") == len(UPDATE_SOAK_CYCLE)
        assert all(record["cells"] == 1
                   for record in events.filter("base_update"))
        # the counter surface carries the update metrics end to end
        assert statistics["base_updates_applied"] == len(UPDATE_SOAK_CYCLE)
        assert statistics["estimates_invalidated"] == oracle.estimates_invalidated
        assert statistics["cache_entries_invalidated"] \
            == oracle.cache_entries_invalidated
