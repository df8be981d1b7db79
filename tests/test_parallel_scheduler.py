"""The sharded scheduler must be invisible in the numbers.

Three contracts are pinned here:

* **worker-count invariance** — for a fixed job seed the per-cell coalition
  draws (and therefore the Shapley values, standard errors and sample counts)
  are bit-identical for ``n_jobs ∈ {1, 2, 4}``, across both bundled black
  boxes, all three replacement policies and both engines
  (property-based over seeds);
* **sequential-path preservation** — ``n_jobs=None`` runs the exact PR 3
  sequential engine (same values as before the subsystem existed);
* **merged early stopping** — adaptive runs decide convergence on the merged
  cross-shard accumulator, so the stopping point matches the in-process run
  for every worker count;
* **pool-lifecycle invariance** — the warm pool (resident worker stacks,
  cache-diff shipping) and the in-process plan produce bit-identical
  estimates on both engines and both black boxes (property-based over
  seeds), and a
  cached scheduler reusing its pool across calls changes counters only,
  never values.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    BinaryRepairOracle,
    CellRef,
    CellShapleyExplainer,
    GreedyHolisticRepair,
    ShardedExplainScheduler,
    SimpleRuleRepair,
    la_liga_constraints,
    la_liga_dirty_table,
)
from repro.parallel import partition_samples, shard_rng
from repro.shapley.convergence import ConvergenceTracker, RunningMean

pytestmark = pytest.mark.parallel

CELL_OF_INTEREST = CellRef(4, "Country")
PROBES = [CellRef(4, "City"), CellRef(0, "Country")]


def make_explainer(n_jobs, policy="sample", rng=23, algorithm=None,
                   samples_per_shard=4, engine="fast"):
    oracle = BinaryRepairOracle(
        algorithm or SimpleRuleRepair(engine=engine),
        la_liga_constraints(),
        la_liga_dirty_table(),
        CELL_OF_INTEREST,
    )
    explainer = CellShapleyExplainer(
        oracle, policy=policy, rng=rng,
        n_jobs=n_jobs, samples_per_shard=samples_per_shard,
    )
    return explainer, oracle


def explain_with(n_jobs, **kwargs):
    n_samples = kwargs.pop("n_samples", 10)
    explainer, oracle = make_explainer(n_jobs, **kwargs)
    return explainer.explain(cells=PROBES, n_samples=n_samples), oracle


# ---------------------------------------------------------------------------
# deterministic seed partitioning: n_jobs ∈ {1, 2, 4} bit-identical


@pytest.mark.parametrize("policy", ["null", "mode", "sample"])
@pytest.mark.parametrize("algorithm_factory,label", [
    (SimpleRuleRepair, "simple"),
    (lambda: GreedyHolisticRepair(max_changes=20), "greedy"),
])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_draws_identical_across_worker_counts(policy, algorithm_factory, label, seed):
    """Per-cell coalition draws must not depend on the worker count."""
    results = {}
    for n_jobs in (1, 2, 4):
        results[n_jobs], _ = explain_with(
            n_jobs, policy=policy, rng=seed, algorithm=algorithm_factory(),
            n_samples=8, samples_per_shard=3,
        )
    for n_jobs in (2, 4):
        assert results[n_jobs].values == results[1].values, (label, policy, n_jobs)
        assert results[n_jobs].standard_errors == results[1].standard_errors, \
            (label, policy, n_jobs)
        assert results[n_jobs].n_samples == results[1].n_samples, (label, policy, n_jobs)


#: the worker-count grid: each engine under each replacement policy, as
#: ``(engine, policy)`` pairs
FLAG_GRID = [(engine, policy) for engine in ("reference", "fast")
             for policy in ("null", "sample", "mode")]


@pytest.mark.parametrize("flags", FLAG_GRID)
def test_worker_count_invariance_across_flag_grid(flags):
    """n_jobs=2 equals n_jobs=1 on both engines under every policy."""
    engine, policy = flags
    sequentially_sharded, _ = explain_with(1, engine=engine, policy=policy)
    fanned_out, oracle = explain_with(2, engine=engine, policy=policy)
    assert fanned_out.values == sequentially_sharded.values, flags
    assert fanned_out.standard_errors == sequentially_sharded.standard_errors, flags
    assert fanned_out.n_samples == sequentially_sharded.n_samples, flags
    assert oracle.parallel_workers == 2
    assert oracle.parallel_shards > 0


def test_workers_run_the_algorithms_engine():
    """The engine travels with the algorithm into every worker stack."""
    counters = {}
    for engine in ("reference", "fast"):
        _, oracle = explain_with(2, engine=engine, policy="null")
        assert oracle.parallel_workers == 2
        counters[engine] = (oracle.pair_walks, oracle.batches)
    # reference workers query each instance alone: no shared walk, no batch
    assert counters["reference"] == (0, 0)
    assert counters["fast"][0] > 0 and counters["fast"][1] > 0


def test_estimate_cell_routes_through_scheduler():
    explainer, oracle = make_explainer(2, policy="null")
    estimate = explainer.estimate_cell(CellRef(4, "City"), n_samples=9)
    reference, _ = make_explainer(1, policy="null")
    assert estimate == reference.estimate_cell(CellRef(4, "City"), n_samples=9)
    assert estimate.n_samples == 9
    # the shard chunking (4+4+1) is invisible in the estimate
    assert oracle.parallel_shards == 3


def test_sequential_path_is_untouched_by_the_subsystem():
    """n_jobs=None must reproduce the pre-subsystem sequential stream."""
    modern, _ = explain_with(None, policy="sample", rng=23)
    explainer, _ = make_explainer(None, policy="sample", rng=23,
                                  samples_per_shard=None)
    # a second sequential run with the same seed is the strongest available
    # reference: the stream is serial across cells, so any accidental
    # rerouting through the scheduler would change the draws
    again = explainer.explain(cells=PROBES, n_samples=10)
    assert modern.values == again.values
    assert modern.standard_errors == again.standard_errors


def test_scheduler_counters_and_cache_are_absorbed():
    explainer, oracle = make_explainer(2, policy="null")
    explainer.explain(cells=PROBES, n_samples=10)
    statistics = oracle.statistics()
    # the parent oracle never ran a query itself (only the reference repair);
    # every counter below arrived through absorb_statistics / cache.merge
    assert statistics["oracle_calls"] == 2 * 10 * len(PROBES)
    assert statistics["parallel_workers"] == 2
    assert statistics["parallel_shards"] == 6
    assert oracle.cache is not None and len(oracle.cache) > 0
    assert statistics["cache_misses"] > 0


def test_standalone_scheduler_returns_merged_cache():
    explainer, oracle = make_explainer(1, policy="null")
    scheduler = ShardedExplainScheduler.from_explainer(explainer, n_jobs=2,
                                                       samples_per_shard=4)
    outcome = scheduler.run(PROBES, 8)
    assert set(outcome.estimates) == set(PROBES)
    assert outcome.n_shards == 4
    assert outcome.cache is not None and len(outcome.cache) > 0
    # nothing was absorbed: the parent oracle still only counts the reference repair
    assert oracle.calls == 0


# ---------------------------------------------------------------------------
# warm pool: resident worker state must be invisible in the numbers


#: the warm-pool grid: each engine on both bundled black boxes, as
#: ``(engine, algorithm class)`` pairs
POOL_GRID = [(engine, algorithm) for engine in ("reference", "fast")
             for algorithm in (SimpleRuleRepair, GreedyHolisticRepair)]


@pytest.mark.parametrize("flags", POOL_GRID)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_warm_pool_and_in_process_plan_bit_identical(flags, seed):
    """Resident worker stacks + diff shipping vs the in-process plan: same bits."""
    engine, algorithm = flags
    warm, warm_oracle = explain_with(2, algorithm=algorithm(engine=engine), rng=seed)
    inline, _ = explain_with(1, algorithm=algorithm(engine=engine), rng=seed)
    assert warm.values == inline.values, flags
    assert warm.standard_errors == inline.standard_errors
    assert warm_oracle.parallel_workers == 2


def test_cached_scheduler_reuses_warm_pool_across_calls():
    """One explainer = one pool; only the first round builds worker stacks."""
    explainer, oracle = make_explainer(2, policy="null")
    with explainer:
        first = explainer.estimate_cell(CellRef(4, "City"), n_samples=8)
        second = explainer.estimate_cell(CellRef(4, "City"), n_samples=8)
        scheduler = explainer._scheduler(2)
        assert explainer._scheduler(2) is scheduler  # cached, not rebuilt
    # identical chunk seeds -> identical repeat estimate, warm or not
    assert second == first
    assert len(scheduler.round_log) == 2
    assert scheduler.round_log[0]["worker_rebuilds"] == 2
    assert scheduler.round_log[1]["worker_rebuilds"] == 0
    assert oracle.statistics()["worker_rebuilds"] == 2
    # the second call hit the workers' resident caches: nothing new to ship
    assert (scheduler.round_log[1]["cache_entries_shipped"]
            < scheduler.round_log[1]["cache_entries_resident"])


def test_close_shuts_the_pool_down_and_the_next_call_respawns():
    explainer, _ = make_explainer(2, policy="null")
    first = explainer.estimate_cell(CellRef(4, "City"), n_samples=8)
    scheduler = explainer._scheduler(2)
    assert scheduler._pool is not None
    explainer.close()
    assert scheduler._pool is None
    # a fresh scheduler (and pool) serves later calls with identical values
    again = explainer.estimate_cell(CellRef(4, "City"), n_samples=8)
    assert again == first
    explainer.close()


def test_reusing_a_closed_scheduler_stays_parallel(recwarn):
    """close() must drop the residency map: fresh workers need the payload.

    A stale map would dispatch payload-free tasks to the respawned (empty)
    workers, failing every round over to in-process execution with a
    warning per worker — values would stay right, parallelism would not.
    """
    explainer, oracle = make_explainer(2, policy="null")
    scheduler = explainer._scheduler(2)
    first = scheduler.run(PROBES, 8, absorb_into=oracle)
    scheduler.close()
    again = scheduler.run(PROBES, 8, absorb_into=oracle)
    scheduler.close()
    assert again.estimates == first.estimates
    assert not [w for w in recwarn if "no resident oracle stack" in str(w.message)]
    statistics = oracle.statistics()
    assert statistics["pool_failovers"] == 0
    # both pool lifetimes rebuilt their two worker stacks, nothing degraded
    assert statistics["worker_rebuilds"] == 4


# ---------------------------------------------------------------------------
# adaptive early stopping: merged cross-shard counts


def adaptive_estimate(n_jobs, **kwargs):
    explainer, oracle = make_explainer(n_jobs, policy="sample", rng=11,
                                       samples_per_shard=4)
    estimate = explainer.estimate_cell_converged(
        CellRef(0, "Country"), tolerance=kwargs.get("tolerance", 0.15),
        min_samples=kwargs.get("min_samples", 10),
        max_samples=kwargs.get("max_samples", 40),
    )
    return estimate, oracle


def test_convergence_decisions_match_the_sequential_run():
    """Early stopping must consume merged counts: same stop point for every n_jobs."""
    sequential, _ = adaptive_estimate(1)
    for n_jobs in (2, 4):
        parallel, _ = adaptive_estimate(n_jobs)
        assert parallel.n_samples == sequential.n_samples, n_jobs
        assert parallel.value == sequential.value, n_jobs
        assert parallel.standard_error == sequential.standard_error, n_jobs


def test_convergence_waits_for_merged_min_samples():
    """A single 4-sample shard never satisfies min_samples=10 on its own."""
    estimate, _ = adaptive_estimate(2, min_samples=10)
    assert estimate.n_samples >= 10


def test_convergence_tracker_merge_matches_serial_feed():
    samples = [0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    serial = ConvergenceTracker(tolerance=0.5, min_samples=10)
    for sample in samples:
        serial.update(sample)
    merged = ConvergenceTracker(tolerance=0.5, min_samples=10)
    for start in range(0, len(samples), 4):
        block = RunningMean()
        for sample in samples[start:start + 4]:
            block.update(sample)
        merged.merge(block)
    assert merged.accumulator.count == serial.accumulator.count
    assert merged.converged() == serial.converged()
    assert merged.estimate == pytest.approx(serial.estimate)
    assert merged.half_width == pytest.approx(serial.half_width)


# ---------------------------------------------------------------------------
# plan plumbing


def test_partition_samples():
    assert partition_samples(10, 4) == [4, 4, 2]
    assert partition_samples(8, 4) == [4, 4]
    assert partition_samples(3, 8) == [3]
    assert partition_samples(0, 8) == []
    with pytest.raises(ValueError):
        partition_samples(10, 0)


def test_shard_rng_streams_are_reproducible_and_distinct():
    first = shard_rng(23, 0, 0).integers(0, 2**32, size=4)
    again = shard_rng(23, 0, 0).integers(0, 2**32, size=4)
    other_chunk = shard_rng(23, 0, 1).integers(0, 2**32, size=4)
    other_cell = shard_rng(23, 1, 0).integers(0, 2**32, size=4)
    assert list(first) == list(again)
    assert list(first) != list(other_chunk)
    assert list(first) != list(other_cell)


def test_n_jobs_validation():
    with pytest.raises(ValueError):
        make_explainer(0)
    explainer, _ = make_explainer(1)
    with pytest.raises(ValueError):
        ShardedExplainScheduler.from_explainer(explainer, n_jobs=0)
    with pytest.raises(ValueError):
        ShardedExplainScheduler.from_explainer(explainer, n_jobs=2,
                                               samples_per_shard=0)


def test_unpicklable_spec_degrades_in_process():
    """A closure-holding black box cannot fan out; the plan still runs."""
    from repro.repair.base import FunctionRepairAlgorithm

    def build(n_jobs):
        algorithm = FunctionRepairAlgorithm(
            lambda constraints, table: SimpleRuleRepair().repair_table(
                constraints, table),
            name="lambda-repair",
        )
        return make_explainer(n_jobs, policy="null", algorithm=algorithm)

    reference, _ = build(1)
    reference_result = reference.explain(cells=PROBES, n_samples=6)
    fanned, _ = build(2)
    with pytest.warns(RuntimeWarning, match="not picklable"):
        fallback_result = fanned.explain(cells=PROBES, n_samples=6)
    assert fallback_result.values == reference_result.values
    assert fallback_result.standard_errors == reference_result.standard_errors


def test_generator_seed_draws_one_job_seed():
    import numpy as np

    explainer, _ = make_explainer(2, rng=np.random.default_rng(5))
    seed = explainer.job_seed()
    assert explainer.job_seed() == seed  # stable across calls
    fresh, _ = make_explainer(2, rng=np.random.default_rng(5))
    assert fresh.job_seed() == seed  # deterministic in the generator state

