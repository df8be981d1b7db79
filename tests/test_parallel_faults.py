"""Fault injection: the warm pool must fail over without changing bits.

Four environmental failures are injected into real worker processes via
:class:`~repro.parallel.job.WorkerFault`:

* a worker **killed mid-shard** (hard ``os._exit``) — the parent sees EOF;
* a worker **hanging past the pool timeout** — the parent kills it;
* a worker whose report is **unpicklable** — the worker answers with an
  error;
* a worker that replies with something that is **not a WorkerReport**.

Each one fails the round over: the round's good reports are kept, the failed
assignment runs in-process, the pool is closed and the rest of the call runs
in-process; the next call spawns a fresh pool.  In every case the Shapley
values, standard errors and sample counts must be bit-identical to a
fault-free run (shard draws are seeded by coordinates, so re-execution lands
on the same numbers wherever it happens), a ``RuntimeWarning`` must surface,
and ``pool_failovers`` must equal the number of ``pool_failover`` events.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro import (
    BinaryRepairOracle,
    CellRef,
    CellShapleyExplainer,
    SimpleRuleRepair,
    TRExExplainer,
    TRexConfig,
    la_liga_constraints,
    la_liga_dirty_table,
)
from repro.errors import ExplanationError
from repro.parallel import (
    FaultPlan,
    PoolTask,
    ShardedExplainScheduler,
    WorkerFault,
    WorkerPool,
)

pytestmark = pytest.mark.parallel

CELL_OF_INTEREST = CellRef(4, "Country")
PROBES = [CellRef(4, "City"), CellRef(0, "Country")]
N_JOBS = 2
N_SAMPLES = 12
SAMPLES_PER_SHARD = 4
#: three adaptive rounds of one chunk per cell (nothing converges at 1e-9)
ADAPTIVE = dict(tolerance=1e-9, min_samples=8, max_samples=12)


def make_scheduler(fault_injector=None, worker_timeout=None, n_jobs=N_JOBS,
                   deadline_seconds=None):
    oracle = BinaryRepairOracle(
        SimpleRuleRepair(), la_liga_constraints(), la_liga_dirty_table(),
        CELL_OF_INTEREST,
    )
    explainer = CellShapleyExplainer(oracle, policy="null", rng=23)
    scheduler = ShardedExplainScheduler.from_explainer(
        explainer, n_jobs=n_jobs, samples_per_shard=SAMPLES_PER_SHARD,
        worker_timeout=worker_timeout, fault_injector=fault_injector,
        deadline_seconds=deadline_seconds,
    )
    return scheduler, oracle


def call(scheduler, mode, oracle):
    """One fixed (``run``) or adaptive (``run_adaptive``) scheduler call."""
    if mode == "run":
        return scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    return scheduler.run_adaptive(PROBES, **ADAPTIVE, absorb_into=oracle)


@pytest.fixture(scope="module")
def reference():
    """The fault-free outcome every injected run must reproduce exactly."""
    scheduler, _ = make_scheduler()
    with scheduler:
        return scheduler.run(PROBES, N_SAMPLES)


@pytest.fixture(scope="module")
def in_process():
    """Fault-free ``n_jobs=1`` estimates of both call kinds."""
    scheduler, _ = make_scheduler(n_jobs=1)
    with scheduler:
        return {"run": scheduler.run(PROBES, N_SAMPLES).estimates,
                "run_adaptive": scheduler.run_adaptive(PROBES, **ADAPTIVE).estimates}


def assert_bit_identical(outcome, reference) -> None:
    assert outcome.estimates == reference.estimates
    for cell in PROBES:
        assert outcome.estimates[cell].n_samples == reference.estimates[cell].n_samples


def assert_one_failover(scheduler, oracle, reason: str) -> None:
    """One failed assignment, on the counter and the event log alike."""
    events = scheduler.events
    assert oracle.statistics()["pool_failovers"] == \
        events.count("pool_failover") == 1
    record = events.filter("pool_failover")[0]
    assert record["reason"] == reason
    # the pool is gone; only the first call's workers were ever spawned
    assert scheduler._pool is None
    assert events.count("worker_spawn") == N_JOBS


def test_worker_killed_mid_shard_requeues_bit_identically(reference):
    """A crash after one shard: the whole assignment reruns in-process."""
    def injector(worker_index, round_index):
        if worker_index == 0 and round_index == 0:
            return WorkerFault(die_after_shards=1)
        return None

    scheduler, oracle = make_scheduler(fault_injector=injector)
    with scheduler, pytest.warns(RuntimeWarning, match="died mid-task"):
        outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    assert_bit_identical(outcome, reference)
    assert outcome.statistics["pool_failovers"] == 1
    assert_one_failover(scheduler, oracle, "dead")
    # worker 0 held half the 6-shard plan; all of it ran in-process
    assert scheduler.events.filter("pool_failover")[0]["n_shards"] == 3


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
    assert_one_failover(scheduler, oracle, "timeout")
    assert scheduler.events.filter("pool_failover")[0]["worker"] == 1


def test_unpicklable_report_degrades_in_process_bit_identically(reference):
    def injector(worker_index, round_index):
        if worker_index == 0 and round_index == 0:
            return WorkerFault(unpicklable_report=True)
        return None

    scheduler, oracle = make_scheduler(fault_injector=injector)
    with scheduler, pytest.warns(RuntimeWarning, match="not picklable"):
        outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    assert_bit_identical(outcome, reference)
    assert_one_failover(scheduler, oracle, "error")


def test_fault_free_runs_report_clean_counters(reference):
    scheduler, oracle = make_scheduler()
    with scheduler:
        outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    assert_bit_identical(outcome, reference)
    statistics = oracle.statistics()
    assert statistics["pool_failovers"] == 0
    assert statistics["worker_rebuilds"] == 2


def test_fault_during_adaptive_round_keeps_stop_points(reference):
    """A round-1 crash must not move run_adaptive's stopping decisions."""
    def injector(worker_index, round_index):
        if worker_index == 0 and round_index == 1:
            return WorkerFault(die_after_shards=0)
        return None

    clean_scheduler, _ = make_scheduler()
    with clean_scheduler:
        clean = clean_scheduler.run_adaptive(PROBES, **ADAPTIVE)
    faulty_scheduler, oracle = make_scheduler(fault_injector=injector)
    with faulty_scheduler, pytest.warns(RuntimeWarning, match="died mid-task"):
        faulty = faulty_scheduler.run_adaptive(PROBES, **ADAPTIVE, absorb_into=oracle)
    assert faulty.estimates == clean.estimates
    assert_one_failover(faulty_scheduler, oracle, "dead")
    # round 0 ran on the pool, round 1 failed over, round 2 ran in-process
    assert [entry["pool_failovers"] for entry in faulty_scheduler.round_log] \
        == [0, 1, 0]


# -- the fail-over contract, per fault kind ---------------------------------------------

#: fault kind → (the injected fault, the pool timeout it needs, the reason
#: its pool_failover event carries)
FAILOVER_FAULTS = {
    "kill": (WorkerFault(die_after_shards=0), None, "dead"),
    "hang": (WorkerFault(hang_seconds=60.0), 2.0, "timeout"),
    "unpicklable": (WorkerFault(unpicklable_report=True), None, "error"),
    "corrupt": (WorkerFault(corrupt_reply=True), None, "corrupt"),
}


@pytest.mark.parametrize("mode", ["run", "run_adaptive"])
@pytest.mark.parametrize("kind", sorted(FAILOVER_FAULTS))
def test_each_fault_kind_fails_over_bit_identically(kind, mode, in_process):
    """One fault on the first round: the call finishes in-process with the
    n_jobs=1 bits, and the next call respawns a whole warm pool."""
    fault, timeout, reason = FAILOVER_FAULTS[kind]
    scheduler, oracle = make_scheduler(fault_injector=FaultPlan([(0, 0, fault)]),
                                       worker_timeout=timeout)
    with scheduler:
        with pytest.warns(RuntimeWarning):
            failed = call(scheduler, mode, oracle)
        assert failed.estimates == in_process[mode]
        assert failed.statistics["pool_failovers"] == 1
        assert_one_failover(scheduler, oracle, reason)
        again = call(scheduler, mode, oracle)
    assert again.estimates == in_process[mode]
    # a fresh pool: every worker built its stack once, nothing failed
    assert again.statistics["worker_rebuilds"] == N_JOBS
    assert again.statistics["pool_failovers"] == 0
    assert scheduler.events.count("worker_spawn") == 2 * N_JOBS
    assert oracle.statistics()["pool_failovers"] == \
        scheduler.events.count("pool_failover") == 1


@pytest.mark.parametrize("mode", ["run", "run_adaptive"])
def test_a_crash_loop_costs_one_failed_round_per_call(mode, in_process):
    """Every worker dies on every round: each call spawns one pool, loses
    its first round and finishes in-process — no respawn loop."""
    plan = FaultPlan([(worker, round_index, WorkerFault(die_after_shards=0))
                      for worker in range(N_JOBS) for round_index in range(20)])
    scheduler, oracle = make_scheduler(fault_injector=plan)
    with scheduler, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for calls in range(1, 4):
            outcome = call(scheduler, mode, oracle)
            assert outcome.estimates == in_process[mode]
            assert outcome.statistics["pool_failovers"] == N_JOBS
            assert scheduler.events.count("worker_spawn") == N_JOBS * calls
    assert oracle.statistics()["pool_failovers"] == \
        scheduler.events.count("pool_failover") == 3 * N_JOBS


def _boom(x, resident):
    raise ValueError(f"bad input {x}")


def test_worker_pool_task_error_degrades_with_default_fallback():
    """A task exception comes back from the pool as an "error" outcome
    carrying the worker's message; the pool only warns."""
    with WorkerPool(2) as pool:
        with pytest.warns(RuntimeWarning, match="could not complete"):
            [outcome] = pool.run_tasks([PoolTask(_boom, (7,))])
    assert outcome.status == "error"
    assert "bad input 7" in outcome.result


def test_resident_worker_without_payload_or_stack_raises():
    """The worker-side guard: a bare shard list needs a resident stack."""
    from repro.parallel.worker import run_resident_worker

    with pytest.raises(RuntimeError, match="no resident oracle stack"):
        run_resident_worker(None, "some-job", [], 0, resident={})


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
    # nothing executed, nothing failed over, no pool ever spawned
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
    assert scheduler.round_log[-1]["shards_dropped"] == 1
    # an expiry is not a fail-over, but it closes the pool all the same: the
    # hung worker was killed and nothing replaced it
    assert statistics["pool_failovers"] == 0
    assert scheduler._pool is None
    assert scheduler.events.count("worker_spawn") == N_JOBS


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
    """close() drops pool and residency; the next run rebuilds every stack."""
    scheduler, oracle = make_scheduler()
    with scheduler:
        scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    scheduler.close()  # also exercises double-close via __exit__ + explicit
    outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    scheduler.close()
    assert_bit_identical(outcome, reference)
    # the fresh pool's workers received the payload and built their stacks
    assert scheduler.round_log[-1]["worker_rebuilds"] == 2
    assert scheduler.events.count("worker_spawn") == 4


# -- corrupt and slow replies -----------------------------------------------------------


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
    assert_one_failover(scheduler, oracle, "corrupt")
    assert scheduler.events.filter("pool_failover")[0]["n_shards"] == 3


def test_slow_reply_below_the_timeout_is_just_slow(reference):
    """A tardy-but-sane worker triggers no fail-over at all."""
    def injector(worker_index, round_index):
        if worker_index == 1 and round_index == 0:
            return WorkerFault(slow_seconds=0.2)
        return None

    scheduler, oracle = make_scheduler(fault_injector=injector,
                                       worker_timeout=10.0)
    with scheduler:
        outcome = scheduler.run(PROBES, N_SAMPLES, absorb_into=oracle)
    assert_bit_identical(outcome, reference)
    assert oracle.statistics()["pool_failovers"] == 0
    assert scheduler.events.kinds() == {"worker_spawn": N_JOBS}


# -- base updates under fire -----------------------------------------------------------


def _session_key(explanation):
    cells = explanation.cell_shapley
    return sorted((str(cell), value, cells.standard_errors[cell])
                  for cell, value in cells.values.items())


def _fresh_session_key(updates, n_updates, config):
    from repro import RepairSession, paper_algorithm_1

    table = la_liga_dirty_table().with_values(dict(updates[:n_updates]))
    session = RepairSession(paper_algorithm_1(), la_liga_constraints(), table,
                            cell_of_interest=CELL_OF_INTEREST,
                            config=TRexConfig(**config))
    with session:
        return _session_key(session.explain())


UPDATES = [(CellRef(0, "City"), "Seville"), (CellRef(1, "Country"), "Portugal")]
SESSION_CONFIG = dict(seed=23, cell_samples=N_SAMPLES, replacement_policy="sample",
                      n_jobs=N_JOBS)


def _live_session():
    from repro import RepairSession, paper_algorithm_1

    return RepairSession(paper_algorithm_1(), la_liga_constraints(),
                         la_liga_dirty_table(), cell_of_interest=CELL_OF_INTEREST,
                         config=TRexConfig(**SESSION_CONFIG))


def test_worker_crash_after_base_update_reseeds_post_update_state():
    """A worker killed on the round after a base update: the failed
    assignment finishes in-process on the post-update stack, and the pool the
    next explain respawns builds its stacks from the post-update payload —
    both match a fresh session on the post-update table."""
    armed = {"fire": False}

    def injector(worker_index, round_index):
        if armed["fire"] and worker_index == 0:
            armed["fire"] = False
            return WorkerFault(die_after_shards=0)
        return None

    session = _live_session()
    with session:
        session.explain()
        live = session._live
        n_cells = len(live.cells)
        scheduler = live.explainer._scheduler(N_JOBS)
        scheduler.fault_injector = injector
        oracle = live.oracle
        events = scheduler.events

        # update #1 patches both resident workers; then worker 0 dies at the
        # start of the refresh round and its shards finish in-process
        session.update(*UPDATES[0])
        assert oracle.base_updates_applied == 1
        assert oracle.estimates_invalidated == n_cells  # SAMPLE: everything
        armed["fire"] = True
        with pytest.warns(RuntimeWarning, match="died mid-task"):
            post = session.explain()
        assert _session_key(post) == _fresh_session_key(UPDATES, 1, SESSION_CONFIG)
        assert oracle.statistics()["pool_failovers"] == \
            events.count("pool_failover") == 1
        assert scheduler._pool is None

        # update #2 finds no pool to patch; the next explain spawns a fresh
        # one whose workers build from the post-update payload
        session.update(*UPDATES[1])
        assert oracle.base_updates_applied == 2
        assert _session_key(session.explain()) == \
            _fresh_session_key(UPDATES, 2, SESSION_CONFIG)
        assert events.count("worker_spawn") == 2 * N_JOBS
        assert oracle.statistics()["pool_failovers"] == 1  # no further casualties

        # the event log reconciles with the update counters, record by record
        records = events.filter("base_update")
        assert [record["cells"] for record in records] == [1, 1]
        assert [record["workers_patched"] for record in records] == [N_JOBS, 0]


def test_failed_worker_patch_fails_the_pool_over():
    """A worker that dies before its base-update patch: the patch round fails
    over (the pool is closed), the live oracle counts it, and the next
    explain matches a fresh session on the post-update table."""
    session = _live_session()
    with session:
        session.explain()
        live = session._live
        scheduler = live.explainer._scheduler(N_JOBS)
        victim = scheduler._pool._workers[0].process
        victim.kill()
        victim.join(timeout=5.0)
        with pytest.warns(RuntimeWarning, match="died mid-task"):
            session.update(*UPDATES[0])
        assert scheduler._pool is None
        [record] = scheduler.events.filter("pool_failover")
        assert (record["reason"], record["worker"], record["n_shards"]) == ("dead", 0, 0)
        assert scheduler.events.filter("base_update")[0]["workers_patched"] == 1
        assert live.oracle.pool_failovers == 1
        assert _session_key(session.explain()) == \
            _fresh_session_key(UPDATES, 1, SESSION_CONFIG)
        assert live.oracle.statistics()["pool_failovers"] == 1


# -- time budget validation ------------------------------------------------------------


def _explainer(**budgets):
    oracle = BinaryRepairOracle(
        SimpleRuleRepair(), la_liga_constraints(), la_liga_dirty_table(),
        CELL_OF_INTEREST,
    )
    return CellShapleyExplainer(oracle, policy="null", rng=23, n_jobs=N_JOBS,
                                **budgets)


@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
def test_non_finite_or_negative_deadline_is_rejected(value):
    with pytest.raises(ExplanationError, match="deadline_seconds"):
        _explainer(deadline_seconds=value)
    with pytest.raises(ExplanationError, match="deadline_seconds"):
        ShardedExplainScheduler.from_explainer(_explainer(), n_jobs=N_JOBS,
                                               deadline_seconds=value)


@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, 0.0])
def test_non_finite_or_non_positive_worker_timeout_is_rejected(value):
    with pytest.raises(ExplanationError, match="worker_timeout"):
        _explainer(worker_timeout=value)
    with pytest.raises(ExplanationError, match="worker_timeout"):
        ShardedExplainScheduler.from_explainer(_explainer(), n_jobs=N_JOBS,
                                               worker_timeout=value)


def test_config_deadline_is_validated_on_explain():
    explainer = TRExExplainer(SimpleRuleRepair(), la_liga_constraints(),
                              la_liga_dirty_table(),
                              TRexConfig(n_jobs=N_JOBS, deadline_seconds=math.inf,
                                         cell_samples=N_SAMPLES))
    with pytest.raises(ExplanationError, match="deadline_seconds"):
        explainer.explain_cells(CELL_OF_INTEREST, cells=PROBES)

