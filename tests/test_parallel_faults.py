"""Fault injection: the warm pool must absorb failures without changing bits.

Three environmental failures are injected into real worker processes via
:class:`~repro.parallel.job.WorkerFault`:

* a worker **killed mid-shard** (hard ``os._exit`` after one shard) — the
  parent sees EOF, restarts the worker and requeues its shards onto the
  surviving worker;
* a worker **hanging past the pool timeout** — the parent terminates and
  replaces it, then requeues;
* a worker whose report is **unpicklable** (a poisoned resident-state
  update) — the worker answers with an error and the shards degrade to an
  in-process run, which needs no pickling.

In every case the Shapley values, standard errors and sample counts must be
bit-identical to a fault-free run (shard draws are seeded by coordinates, so
re-execution lands on the same numbers wherever it happens), a
``RuntimeWarning`` must surface, and the health counters
(``shards_requeued``, ``workers_restarted``) must appear in
``oracle.statistics()``.
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
from repro.parallel import (
    PoolTask,
    RetryPolicy,
    ShardedExplainScheduler,
    WorkerFault,
    WorkerPool,
)

pytestmark = pytest.mark.parallel

CELL_OF_INTEREST = CellRef(4, "Country")
PROBES = [CellRef(4, "City"), CellRef(0, "Country")]
N_SAMPLES = 12
SAMPLES_PER_SHARD = 4

#: no backoff in tests — the delays only slow the suite down
FAST_RETRY = dict(backoff_base=0.0)


def make_scheduler(fault_injector=None, worker_timeout=None, n_jobs=2,
                   retry_policy=None, deadline_seconds=None):
    oracle = BinaryRepairOracle(
        SimpleRuleRepair(), la_liga_constraints(), la_liga_dirty_table(),
        CELL_OF_INTEREST,
    )
    explainer = CellShapleyExplainer(oracle, policy="null", rng=23)
    scheduler = ShardedExplainScheduler.from_explainer(
        explainer, n_jobs=n_jobs, samples_per_shard=SAMPLES_PER_SHARD,
        worker_timeout=worker_timeout, fault_injector=fault_injector,
        retry_policy=(retry_policy if retry_policy is not None
                      else RetryPolicy(**FAST_RETRY)),
        deadline_seconds=deadline_seconds,
    )
    return scheduler, oracle


@pytest.fixture(scope="module")
def reference():
    """The fault-free outcome every injected run must reproduce exactly."""
    scheduler, _ = make_scheduler()
    with scheduler:
        return scheduler.run(PROBES, N_SAMPLES)


def assert_bit_identical(outcome, reference) -> None:
    assert outcome.estimates == reference.estimates
    for cell in PROBES:
        assert outcome.estimates[cell].n_samples == reference.estimates[cell].n_samples


def test_worker_killed_mid_shard_requeues_bit_identically(reference):
    def injector(worker_index, round_index):
        if worker_index == 0 and round_index == 0:
            return WorkerFault(die_after_shards=1)
        return None

    scheduler, oracle = make_scheduler(fault_injector=injector)
    with scheduler, pytest.warns(RuntimeWarning, match="died mid-task"):
        outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    assert_bit_identical(outcome, reference)
    # worker 0 held half the 6-shard plan; all of it was re-executed
    assert outcome.statistics["shards_requeued"] == 3
    assert outcome.statistics["workers_restarted"] == 1
    # the counter surface reaches the parent oracle's statistics()
    statistics = oracle.statistics()
    assert statistics["shards_requeued"] == 3
    assert statistics["workers_restarted"] == 1


def test_worker_timeout_requeues_bit_identically(reference):
    def injector(worker_index, round_index):
        if worker_index == 1 and round_index == 0:
            return WorkerFault(hang_seconds=60.0)
        return None

    scheduler, oracle = make_scheduler(fault_injector=injector,
                                       worker_timeout=2.0)
    with scheduler, pytest.warns(RuntimeWarning, match="timed out"):
        outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    assert_bit_identical(outcome, reference)
    assert oracle.statistics()["shards_requeued"] == 3
    assert oracle.statistics()["workers_restarted"] == 1


def test_unpicklable_report_degrades_in_process_bit_identically(reference):
    def injector(worker_index, round_index):
        if worker_index == 0 and round_index == 0:
            return WorkerFault(unpicklable_report=True)
        return None

    scheduler, oracle = make_scheduler(fault_injector=injector)
    with scheduler, pytest.warns(RuntimeWarning, match="not picklable"):
        outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    assert_bit_identical(outcome, reference)
    statistics = oracle.statistics()
    assert statistics["shards_requeued"] == 3
    # the worker answered (it is alive and sane) — nothing was restarted,
    # the shards simply ran in the parent process instead
    assert statistics["workers_restarted"] == 0


def test_fault_free_runs_report_clean_counters(reference):
    scheduler, oracle = make_scheduler()
    with scheduler:
        outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    assert_bit_identical(outcome, reference)
    statistics = oracle.statistics()
    assert statistics["shards_requeued"] == 0
    assert statistics["workers_restarted"] == 0
    assert statistics["worker_rebuilds"] == 2


def test_fault_during_adaptive_round_keeps_stop_points(reference):
    """A round-1 crash must not move run_adaptive's stopping decisions."""
    def injector(worker_index, round_index):
        if worker_index == 0 and round_index == 1:
            return WorkerFault(die_after_shards=0)
        return None

    kwargs = dict(tolerance=1e-9, min_samples=8, max_samples=12)
    clean_scheduler, _ = make_scheduler()
    with clean_scheduler:
        clean = clean_scheduler.run_adaptive(PROBES, **kwargs)
    faulty_scheduler, oracle = make_scheduler(fault_injector=injector)
    with faulty_scheduler, pytest.warns(RuntimeWarning, match="died mid-task"):
        faulty = faulty_scheduler.run_adaptive(PROBES, **kwargs, absorb_into=oracle)
    assert faulty.estimates == clean.estimates
    assert oracle.statistics()["workers_restarted"] == 1
    assert oracle.statistics()["shards_requeued"] >= 1


def test_pool_requeues_onto_surviving_warm_worker():
    """The requeue target is the live worker, not a cold in-process run."""
    def injector(worker_index, round_index):
        if worker_index == 0 and round_index == 0:
            return WorkerFault(die_after_shards=0)
        return None

    scheduler, oracle = make_scheduler(fault_injector=injector)
    with scheduler, pytest.warns(RuntimeWarning, match="died mid-task"):
        scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
        # worker 1 ran its own task and the requeued one: its stack was built
        # once, the replacement for worker 0 never ran anything
        assert oracle.statistics()["worker_rebuilds"] == 1
        # the next round reuses the restarted worker 0, which rebuilds once
        scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    statistics = oracle.statistics()
    assert statistics["worker_rebuilds"] == 2
    assert statistics["workers_restarted"] == 1


def test_double_death_requeues_onto_the_surviving_warm_worker(reference):
    """With two of three workers dead, both requeues land on the survivor.

    Regression for the requeue candidate scan: an outcome produced *by* a
    requeue must not vouch for the (restarted, cold) slot it was originally
    assigned to — only a worker that itself answered is a valid target.
    """
    def injector(worker_index, round_index):
        if round_index == 1 and worker_index in (0, 1):
            return WorkerFault(die_after_shards=0)
        return None

    scheduler, oracle = make_scheduler(fault_injector=injector, n_jobs=3)
    with scheduler:
        scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)  # round 0: clean
        with pytest.warns(RuntimeWarning, match="died mid-task"):
            outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    assert_bit_identical(outcome, reference)
    statistics = oracle.statistics()
    assert statistics["workers_restarted"] == 2
    assert statistics["shards_requeued"] == 4  # both dead workers' 2-shard lists
    # the survivor's resident stack served every requeue: stacks were built
    # exactly once per original worker, in round 0, and never again
    assert statistics["worker_rebuilds"] == 3


def _boom(x):
    raise ValueError(f"bad input {x}")


def _die_in_child(x):
    import multiprocessing
    import os

    if x == 7 and multiprocessing.parent_process() is not None:
        os._exit(3)  # crash only inside pool workers, never in the parent
    return x * 2


def test_run_worker_tasks_degrades_a_crashing_task_in_process():
    """The transient pool requeues a dead worker's task; results keep order."""
    from repro.parallel import run_worker_tasks

    with pytest.warns(RuntimeWarning, match="died mid-task"):
        results = run_worker_tasks(_die_in_child, [(7,), (1,)], 2)
    # both the original worker and the requeue candidate died on x == 7: the
    # crashing task degraded to the parent process and still answered
    assert results == [14, 2]


def test_worker_pool_task_error_degrades_with_default_fallback():
    """A deterministic task exception surfaces in the parent, like inline."""
    from repro.parallel.pool import PoolTask

    with WorkerPool(2) as pool:
        with pytest.warns(RuntimeWarning, match="could not complete"):
            with pytest.raises(ValueError, match="bad input 7"):
                pool.run_tasks([PoolTask(_boom, (7,))])


# -- warm restarts from parent snapshots -----------------------------------------------


def test_replacement_worker_is_seeded_from_the_merged_cache(reference):
    """A crash replacement rebuilds *warm*: snapshot in, no full cache ship."""
    def injector(worker_index, round_index):
        if worker_index == 0 and round_index == 0:
            return WorkerFault(die_after_shards=0)
        return None

    scheduler, oracle = make_scheduler(fault_injector=injector)
    with scheduler:
        with pytest.warns(RuntimeWarning, match="died mid-task"):
            scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
        # round 0: the crash itself — no seed cache existed yet, the requeue
        # landed on the survivor, the replacement never ran anything
        assert scheduler.round_log[0]["warm_restarts"] == 0
        outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    assert_bit_identical(outcome, reference)
    # round 1: the replacement's first task carried the job payload plus a
    # snapshot of the scheduler's merged cache — it rebuilt, but warm
    round_one = scheduler.round_log[1]
    assert round_one["worker_rebuilds"] == 1
    assert round_one["warm_restarts"] == 1
    assert round_one["cache_entries_seeded"] > 0
    # seeded entries are accounted separately from diff shipping: the
    # replacement must not ship the seed back home as if it were new work
    assert round_one["cache_entries_shipped"] < round_one["cache_entries_seeded"]
    statistics = oracle.statistics()
    assert statistics["warm_restarts"] == 1
    assert statistics["cache_entries_seeded"] == round_one["cache_entries_seeded"]


def test_requeued_task_without_payload_lands_on_a_resident_worker(reference):
    """Resident-round requeues carry no payload; the target must hold the stack.

    Regression for the requeue-without-payload edge: from round one on, tasks
    to resident workers ship bare shard lists.  When such a worker dies, the
    requeue must land on a worker that answered ok this round (and therefore
    holds the resident stack) — never raise the missing-payload RuntimeError.
    """
    def injector(worker_index, round_index):
        if worker_index == 0 and round_index == 1:
            return WorkerFault(die_after_shards=0)
        return None

    scheduler, oracle = make_scheduler(fault_injector=injector)
    with scheduler:
        scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)  # round 0: clean
        with pytest.warns(RuntimeWarning, match="died mid-task"):
            outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    assert_bit_identical(outcome, reference)
    statistics = oracle.statistics()
    assert statistics["workers_restarted"] == 1
    assert statistics["shards_requeued"] == 3
    # the survivor served the requeue from its resident stack: no rebuild
    assert scheduler.round_log[1]["worker_rebuilds"] == 0


def test_resident_worker_without_payload_or_stack_raises():
    """The worker-side guard behind the requeue contract, tested directly."""
    from repro.parallel.worker import run_resident_worker

    with pytest.raises(RuntimeError, match="no resident oracle stack"):
        run_resident_worker(None, "some-job", [], 0, resident={})


# -- crash-loop containment ------------------------------------------------------------


def test_restart_cap_leaves_the_slot_dead(reference):
    """A slot that keeps dying is abandoned, its work requeued — not respawned."""
    def injector(worker_index, round_index):
        if worker_index == 0:
            return WorkerFault(die_after_shards=0)
        return None

    retry = RetryPolicy(max_worker_restarts=1, max_shard_attempts=None,
                        **FAST_RETRY)
    scheduler, oracle = make_scheduler(fault_injector=injector,
                                       retry_policy=retry)
    with scheduler:
        with pytest.warns(RuntimeWarning, match="died mid-task"):
            scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)  # restart 1
        # the second death emits both the death and the cap warning
        with pytest.warns(RuntimeWarning) as record:
            scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)  # slot dies
        assert any("exceeded its restart cap" in str(w.message) for w in record)
        # the slot is now permanently dead; later rounds requeue immediately
        # without warning about a fresh death
        outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    assert_bit_identical(outcome, reference)
    statistics = oracle.statistics()
    assert statistics["workers_restarted"] == 1  # the cap held
    assert statistics["shards_requeued"] == 9    # 3 shards x 3 runs


def test_backoff_is_applied_and_accounted():
    """Restarts sleep the policy's delay and sum it into the statistics."""
    def injector(worker_index, round_index):
        if worker_index == 0 and round_index == 0:
            return WorkerFault(die_after_shards=0)
        return None

    retry = RetryPolicy(backoff_base=0.01, backoff_factor=2.0, backoff_max=0.05)
    scheduler, oracle = make_scheduler(fault_injector=injector,
                                       retry_policy=retry)
    with scheduler, pytest.warns(RuntimeWarning, match="died mid-task"):
        scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    statistics = oracle.statistics()
    assert statistics["workers_restarted"] == 1
    assert statistics["restart_backoff_seconds"] == pytest.approx(0.01)


def test_poison_shards_are_quarantined_in_process(reference):
    """Shards that keep failing across workers stop being retried on workers."""
    def injector(worker_index, round_index):
        if worker_index == 0 and round_index < 2:
            return WorkerFault(die_after_shards=0)
        return None

    retry = RetryPolicy(max_shard_attempts=2, max_worker_restarts=None,
                        **FAST_RETRY)
    scheduler, oracle = make_scheduler(fault_injector=injector,
                                       retry_policy=retry)
    with scheduler:
        with pytest.warns(RuntimeWarning, match="died mid-task"):
            scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)  # attempts: 1
        # the second death emits both the death and the quarantine warning
        with pytest.warns(RuntimeWarning) as record:
            scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)  # attempts: 2
        assert any("quarantining" in str(w.message) for w in record)
        # worker 0's three shard coordinates are now poisoned: they run
        # in-process up front and never reach a worker again
        outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    assert_bit_identical(outcome, reference)
    final_round = scheduler.round_log[-1]
    assert final_round["shards_quarantined"] == 3
    statistics = oracle.statistics()
    assert statistics["shards_poisoned"] == 3
    # quarantine is an event counter: it fired once per coordinate, in run 2
    assert sum(entry["shards_poisoned"] for entry in scheduler.round_log) == 3


# -- deadline budgets ------------------------------------------------------------------


def test_zero_deadline_returns_empty_partial_result_immediately():
    """deadline_seconds=0 expires before any work: clean partial, no hang."""
    scheduler, oracle = make_scheduler(deadline_seconds=0.0)
    with scheduler:
        outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    assert outcome.completed is False
    for cell in PROBES:
        assert outcome.estimates[cell].n_samples == 0
    assert outcome.statistics["deadline_expired"] == 1
    assert oracle.statistics()["deadline_expired"] == 1
    # nothing executed, nothing requeued, no pool ever spawned
    assert scheduler.round_log == []
    assert scheduler._pool is None


def test_zero_deadline_adaptive_returns_partial_result():
    scheduler, oracle = make_scheduler(deadline_seconds=0.0)
    with scheduler:
        outcome = scheduler.run_adaptive(PROBES, max_samples=N_SAMPLES,
                                         absorb_into=oracle)
    assert outcome.completed is False
    assert oracle.statistics()["deadline_expired"] == 1


def test_hung_worker_past_the_deadline_yields_partial_estimates():
    """A deadline cuts through a hang: partial merged estimates, no waiting."""
    def injector(worker_index, round_index):
        if worker_index == 0 and round_index == 0:
            return WorkerFault(hang_seconds=60.0)
        return None

    scheduler, oracle = make_scheduler(fault_injector=injector,
                                       deadline_seconds=2.0)
    with scheduler, pytest.warns(RuntimeWarning, match="ran past the job deadline"):
        outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    assert outcome.completed is False
    # with a deadline the plan runs in waves of one shard per worker; the
    # hung worker's first shard was dropped, its wave-mate completed, and the
    # run stopped at that round boundary
    total = sum(outcome.estimates[cell].n_samples for cell in PROBES)
    assert 0 < total < len(PROBES) * N_SAMPLES
    statistics = oracle.statistics()
    assert statistics["deadline_expired"] == 1
    assert statistics["workers_restarted"] == 1  # the hung slot was replaced
    assert scheduler.round_log[-1]["shards_dropped"] == 1


def test_explainer_threads_the_deadline_to_its_result():
    """CellShapleyExplainer(deadline_seconds=0) surfaces completed=False."""
    oracle = BinaryRepairOracle(
        SimpleRuleRepair(), la_liga_constraints(), la_liga_dirty_table(),
        CELL_OF_INTEREST,
    )
    with CellShapleyExplainer(oracle, policy="null", rng=23, n_jobs=2,
                              samples_per_shard=SAMPLES_PER_SHARD,
                              deadline_seconds=0.0) as explainer:
        result = explainer.explain(cells=PROBES, n_samples=N_SAMPLES)
    assert result.completed is False
    assert result.n_samples == 0
    assert oracle.statistics()["deadline_expired"] == 1


# -- pool lifecycle hardening ----------------------------------------------------------


def test_pool_close_is_idempotent_and_refuses_new_work():
    pool = WorkerPool(2)
    pool.close()
    pool.close()  # second close is a no-op, not an error
    with pytest.raises(RuntimeError, match="closed"):
        pool.run_tasks([PoolTask(_boom, (1,))])
    assert pool.run_tasks([]) == []  # an empty round on a closed pool is fine


class _FailingContext:
    """A multiprocessing context whose N-th Process() raises (spawn quota)."""

    def __init__(self, inner, allowed: int):
        self._inner = inner
        self._allowed = allowed
        self.spawned = []

    def Pipe(self):
        return self._inner.Pipe()

    def Process(self, *args, **kwargs):
        if self._allowed <= 0:
            raise OSError("process quota exhausted")
        self._allowed -= 1
        process = self._inner.Process(*args, **kwargs)
        self.spawned.append(process)
        return process


def test_pool_construction_failure_cleans_up_spawned_workers():
    """A mid-construction OSError propagates, but no orphan worker survives."""
    from repro.parallel.pool import process_context

    context = _FailingContext(process_context(), allowed=1)
    with pytest.raises(OSError, match="quota"):
        WorkerPool(3, context=context)
    # the one worker that did spawn was shut down by the constructor's cleanup
    assert len(context.spawned) == 1
    context.spawned[0].join(timeout=2.0)
    assert not context.spawned[0].is_alive()


def test_scheduler_runs_again_after_close_with_a_fresh_warm_pool(reference):
    """close() drops pool and residency; the next run rebuilds seeded stacks."""
    scheduler, oracle = make_scheduler()
    with scheduler:
        scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    scheduler.close()  # also exercises double-close via __exit__ + explicit
    outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    scheduler.close()
    assert_bit_identical(outcome, reference)
    # the fresh pool's stacks were rebuilt — but warm, seeded from the merged
    # cache of the first run (a restart-from-snapshot, not a cold start)
    last = scheduler.round_log[-1]
    assert last["worker_rebuilds"] == 2
    assert last["warm_restarts"] == 2
    assert last["cache_entries_seeded"] > 0


# -- corrupt and slow replies ----------------------------------------------------------


def test_corrupt_reply_is_discarded_and_rerun_in_process(reference):
    """A reply that is not a WorkerReport never reaches the merge."""
    def injector(worker_index, round_index):
        if worker_index == 0 and round_index == 0:
            return WorkerFault(corrupt_reply=True)
        return None

    scheduler, oracle = make_scheduler(fault_injector=injector)
    with scheduler, pytest.warns(RuntimeWarning, match="instead of a WorkerReport"):
        outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    assert_bit_identical(outcome, reference)
    statistics = oracle.statistics()
    assert statistics["shards_requeued"] == 3
    # the worker is alive (it answered, just garbage) — nothing restarted
    assert statistics["workers_restarted"] == 0


def test_slow_reply_below_the_timeout_is_just_slow(reference):
    """A tardy-but-sane worker triggers no health machinery at all."""
    def injector(worker_index, round_index):
        if worker_index == 1 and round_index == 0:
            return WorkerFault(slow_seconds=0.2)
        return None

    scheduler, oracle = make_scheduler(fault_injector=injector,
                                       worker_timeout=10.0)
    with scheduler:
        outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    assert_bit_identical(outcome, reference)
    statistics = oracle.statistics()
    assert statistics["workers_restarted"] == 0
    assert statistics["shards_requeued"] == 0


# -- base updates under fire -----------------------------------------------------------


def _session_key(explanation):
    cells = explanation.cell_shapley
    return sorted((str(cell), value, cells.standard_errors[cell])
                  for cell, value in cells.values.items())


def test_worker_crash_after_base_update_reseeds_post_update_state():
    """A worker killed between a base update and the next round: the requeue
    lands post-update shards on the survivor, and the warm replacement is
    re-seeded from the *rebased* snapshot — never from pre-update answers."""
    from repro import RepairSession, TRexConfig, la_liga_constraints, \
        la_liga_dirty_table, paper_algorithm_1

    updates = [(CellRef(0, "City"), "Seville"),
               (CellRef(1, "Country"), "Portugal")]
    config = dict(seed=23, cell_samples=N_SAMPLES, replacement_policy="sample",
                  n_jobs=2)

    def fresh_key(n_updates):
        table = la_liga_dirty_table().with_values(dict(updates[:n_updates]))
        session = RepairSession(paper_algorithm_1(), la_liga_constraints(),
                                table, cell_of_interest=CELL_OF_INTEREST,
                                config=TRexConfig(**config))
        with session:
            return _session_key(session.explain())

    armed = {"fire": False}

    def injector(worker_index, round_index):
        if armed["fire"] and worker_index == 0:
            armed["fire"] = False
            return WorkerFault(die_after_shards=0)
        return None

    session = RepairSession(paper_algorithm_1(), la_liga_constraints(),
                            la_liga_dirty_table(),
                            cell_of_interest=CELL_OF_INTEREST,
                            config=TRexConfig(**config))
    with session:
        session.explain()
        live = session._live
        n_cells = len(live.cells)
        scheduler = live.explainer._scheduler(2)
        scheduler.fault_injector = injector
        oracle = live.oracle

        # update #1, then kill worker 0 at the start of the refresh round:
        # its post-update shards requeue onto the survivor, bit-identically
        session.update(*updates[0])
        assert oracle.base_updates_applied == 1
        assert oracle.estimates_invalidated == n_cells  # SAMPLE: everything
        armed["fire"] = True
        with pytest.warns(RuntimeWarning, match="died mid-task"):
            post = session.explain()
        assert _session_key(post) == fresh_key(1)
        statistics = oracle.statistics()
        assert statistics["workers_restarted"] == 1
        assert statistics["shards_requeued"] > 0

        # update #2 reaches the replacement worker too: it holds no resident
        # stack yet, so the next round seeds it from the rebased snapshot —
        # post-update state, asserted by bit-identity against a fresh session
        session.update(*updates[1])
        assert oracle.base_updates_applied == 2
        assert _session_key(session.explain()) == fresh_key(2)
        statistics = oracle.statistics()
        assert statistics["workers_restarted"] == 1  # no further casualties
        assert statistics["warm_restarts"] == 1
        assert statistics["cache_entries_seeded"] > 0

        # the event log reconciles with the update counters, record by record
        events = scheduler.events
        records = events.filter("base_update")
        assert len(records) == 2
        assert all(record["cells"] == 1 for record in records)
        # update #1 patched both residents; update #2 found the replacement
        # stackless (it patches nothing there — the seed cache covers it)
        assert records[0]["workers_patched"] == 2
        assert events.count("worker_restart") == statistics["workers_restarted"]
