"""Fast engine vs. the full-rescan reference on the cell-Shapley loop.

Two end-to-end evaluation engines exist, chosen on the repair algorithm
(``engine=``):

* **reference** — materialised table copies, from-scratch violation
  detection per black-box repair, per-instance statistics and two
  independent repairs per with/without pair (the paper's definitions);
* **fast** — every coalition is a copy-on-write ``PerturbationView`` with
  delta-maintained violations; the explainer enqueues all of a cell's pairs
  into ``query_pairs`` calls (pair-memo dedup, then one primed walk per
  pair, forked at the differing cell); the walk maintains violations
  across its own passes, with FD-shape violations kept as one array
  partition per constraint; and every instance's statistics derive from
  the base snapshot's code-space counts by its encoded delta instead of
  per-sample rebuilds.

On top of the fast engine sits the **sharded scheduler** (``n_jobs``): the
job is cut into per-seeded ``(cell, chunk)`` shards executed on worker
processes, each owning a private copy of the whole stack above.  ``n_jobs=1``
runs the identical plan in-process and is the bit-identical baseline for the
``parallel_speedup`` ratio recorded below; the speedup floor is only asserted
on multi-core machines (a single-core box can time-slice, not parallelise).

The timed simple-rules loop uses the ``mode`` replacement policy: it is
deterministic (no RNG in replacement values, so timings are stable) and keeps
the equality groups populated — nulling out half the table (the ``null``
policy) deletes most rows from every equality index and makes detection
degenerate rather than representative.  The bit-identical cross-check runs
under both policies.

This benchmark does three things:

1. **cross-check** — both engines must produce *bit-identical* Shapley
   values for a fixed seed, for both bundled black boxes (Algorithm 1's rule
   repair and the greedy holistic repairer) and both replacement policies;
2. **speedup** — the fast engine must be ≥6x faster than the reference on
   the rule-repair loop and ≥2x on the greedy loop;
3. **record** — timings, speedups, batch-scheduler statistics and the
   configuration are written to ``BENCH_shapley.json`` (override with
   ``TREX_BENCH_JSON``) so the perf trajectory is tracked across PRs; CI
   uploads it as a workflow artifact.
"""

from __future__ import annotations

import json
import os
import time

from conftest import print_table
from repro import (
    BinaryRepairOracle,
    CellRef,
    CellShapleyExplainer,
    ConstraintShapleyExplainer,
    GreedyHolisticRepair,
    RepairSession,
    SimpleRuleRepair,
    SoccerLeagueGenerator,
    TRExExplainer,
    TRexConfig,
)
from repro.dataset.errors import inject_errors
from repro.dataset.generators import HospitalGenerator
from repro.observability import trace as otrace
from repro.shapley.cells import relevant_cells

#: largest table size exercised by bench_scaling_cells.py
N_ROWS = 50
N_SAMPLES = 30
N_PROBES = 5
#: the greedy loop is slower per repair; keep its wall-clock comparable
N_SAMPLES_GREEDY = 8
N_PROBES_GREEDY = 2
#: acceptance floors on a quiet machine; CI overrides these downward via the
#: environment because shared runners add wall-clock noise — the bit-identical
#: cross-check is the hard gate there, the ratios are telemetry.  The simple
#: floor is the product of the two rungs it replaced (incremental vs full 3.0,
#: paired vs incremental 2.0); the greedy reference is at least as slow as
#: the retired incremental rung, so its floor keeps 2.0
FAST_FLOOR_SIMPLE = float(os.environ.get("TREX_BENCH_FAST_FLOOR_SIMPLE", "6.0"))
FAST_FLOOR_GREEDY = float(os.environ.get("TREX_BENCH_FAST_FLOOR_GREEDY", "2.0"))
PARALLEL_FLOOR = float(os.environ.get("TREX_BENCH_PARALLEL_FLOOR", "1.5"))
BULK_DELTA_FLOOR = float(os.environ.get("TREX_BENCH_BULK_FLOOR", "2.0"))
UPDATE_REFRESH_FLOOR = float(os.environ.get("TREX_BENCH_UPDATE_FLOOR", "2.0"))
BENCH_JSON = os.environ.get("TREX_BENCH_JSON", "BENCH_shapley.json")

#: the live-update comparison: a long-lived session absorbs base-table
#: writes and is read back between them (the dashboard workload the live
#: subsystem exists for).  Each cycle is one write + ``UPDATE_READS_PER_WRITE``
#: explains; the delta-maintained session refreshes only the invalidated
#: estimates once and serves later reads from maintained state, while the
#: rebuild reference builds one fresh ``TRExExplainer`` on the post-write
#: table per write and re-samples from scratch on every read.  Both streams
#: are asserted bit-identical (values and standard errors) on every read
#: before timing is trusted.  The update cell is chosen mode- and repair-target-stable so
#: the write invalidates estimates without forcing the full-drop paths.
UPDATE_ROWS = 20
UPDATE_SAMPLES = 6
UPDATE_READS_PER_WRITE = 2
UPDATE_CYCLES = 3

#: the sharded-scheduler comparison (greedy black box, 2 workers); more
#: samples/probes than the greedy engine section so the per-worker setup cost
#: (fork + job unpickle + oracle build) is amortised into the measurement
PARALLEL_JOBS = 2
N_SAMPLES_PARALLEL = 16
N_PROBES_PARALLEL = 4

#: the bulk-delta microbenchmark: a 10^4-cell coalition delta (2500 override
#: cells in each of 4 columns, ~6% novel values growing the dictionaries),
#: encoded + primed into an overlay via the one-pass bulk encoder vs the
#: per-value ``code_for`` reference loop
BULK_DELTA_COLUMNS = 4
BULK_DELTA_CELLS_PER_COLUMN = 2500
BULK_DELTA_ROWS = 4000

#: the two engines, reference first
ENGINES = ("reference", "fast")


def _setup(n_rows: int = N_ROWS):
    dataset = SoccerLeagueGenerator(seed=47).generate(n_rows)
    constraints = dataset.constraints()
    dirty, report = inject_errors(
        dataset.table, rate=0.0, n_errors=1, error_types=["domain"],
        attributes=["Country"], seed=47,
    )
    return constraints, dirty, report.cells()[0]


def _make_algorithm(name: str, engine: str = "fast"):
    if name == "simple":
        return SimpleRuleRepair(engine=engine)
    return GreedyHolisticRepair(max_changes=30, engine=engine)


def _explain(constraints, dirty, cell, engine: str, algorithm: str = "simple",
             policy: str = "mode", n_samples: int = N_SAMPLES,
             n_probes: int = N_PROBES):
    oracle = BinaryRepairOracle(
        _make_algorithm(algorithm, engine), constraints, dirty, cell,
    )
    explainer = CellShapleyExplainer(oracle, policy=policy, rng=3)
    probes = relevant_cells(dirty, constraints, cell)[:n_probes]
    start = time.perf_counter()
    result = explainer.explain(cells=probes, n_samples=n_samples)
    return result, time.perf_counter() - start, oracle


def _bulk_delta_points(reps: int = 5):
    """A 10^4-cell coalition delta, encoded + primed: bulk vs per-value.

    Both paths translate the same per-column override sets into code space
    against the same pre-grown base dictionaries (novel values included, so
    the batched dictionary append is part of the measurement after the first
    warm-up rep) and install the result where the coalition pipeline reads
    it: the bulk path lands ``(rows, codes)`` arrays in a fresh overlay via
    ``adopt_encoded_delta``, the reference builds the ``{row: code}`` dict
    one ``code_for`` probe at a time — exactly the loop
    ``OverlayStore.encoded_delta`` runs.  Returns ``(per_value_seconds,
    bulk_seconds)`` as min over ``reps``, after asserting both paths agree
    code for code.
    """
    import numpy as np

    dataset = HospitalGenerator(seed=47).generate(BULK_DELTA_ROWS)
    table = dataset.table
    attributes = table.attributes[:BULK_DELTA_COLUMNS]
    rng = np.random.default_rng(3)
    deltas = {}
    for attribute in attributes:
        pool = [table.value(int(row), attribute)
                for row in rng.integers(0, table.n_rows, 40)]
        overrides = {}
        for row in rng.choice(table.n_rows, BULK_DELTA_CELLS_PER_COLUMN,
                              replace=False):
            value = pool[int(rng.integers(0, len(pool)))]
            if int(row) % 17 == 0:
                value = f"novel_{attribute}_{int(row)}"  # dictionary growth
            overrides[int(row)] = value
        deltas[attribute] = overrides
    encoding = table.store.encoding()
    for attribute in attributes:
        encoding.codes(table.store, attribute)

    def per_value():
        encoded_columns = {}
        for attribute in attributes:
            encoded = {}
            for row, value in deltas[attribute].items():
                encoded[row] = encoding.code_for(attribute, value)
            encoded_columns[attribute] = encoded
        return encoded_columns

    def bulk():
        store = table.perturbed({})._store
        arrays = {}
        for attribute in attributes:
            rows, codes = encoding.encode_delta(attribute, deltas[attribute])
            store.adopt_encoded_delta(attribute, rows, codes)
            arrays[attribute] = (rows, codes)
        return arrays

    # correctness cross-check (also warms the dictionaries with the novel
    # values, so the timed reps measure steady-state translation)
    reference, arrays = per_value(), bulk()
    for attribute in attributes:
        rows, codes = arrays[attribute]
        assert rows.tolist() == sorted(reference[attribute])
        assert codes.tolist() == \
            [reference[attribute][row] for row in rows.tolist()]

    def best_of(fn):
        best = None
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        return best

    return best_of(per_value), best_of(bulk)


def _cache_probe(constraints, dirty, cell):
    """Repeated-probe phase: the same probe set explained twice on one oracle.

    The deterministic ``mode`` policy with a fixed seed reproduces every
    coalition bit for bit, so the second pass must be answered from the
    oracle's memoised cache — this is the phase that exercises the hit-rate
    telemetry every one-shot section leaves at zero.  Returns the two pass
    timings and the oracle's statistics snapshot.
    """
    oracle = BinaryRepairOracle(
        _make_algorithm("simple"), constraints, dirty, cell,
    )
    probes = relevant_cells(dirty, constraints, cell)[:N_PROBES]
    timings = []
    for _ in range(2):
        explainer = CellShapleyExplainer(oracle, policy="mode", rng=3)
        start = time.perf_counter()
        explainer.explain(cells=probes, n_samples=N_SAMPLES)
        timings.append(time.perf_counter() - start)
    return timings, oracle.statistics()


def _explain_parallel(constraints, dirty, cell, n_jobs: int):
    """The greedy cell-Shapley loop on the sharded scheduler (fast engine)."""
    oracle = BinaryRepairOracle(
        _make_algorithm("greedy"), constraints, dirty, cell,
    )
    explainer = CellShapleyExplainer(oracle, policy="null", rng=3, n_jobs=n_jobs)
    probes = relevant_cells(dirty, constraints, cell)[:N_PROBES_PARALLEL]
    start = time.perf_counter()
    result = explainer.explain(cells=probes, n_samples=N_SAMPLES_PARALLEL)
    return result, time.perf_counter() - start, oracle


def _traced_explain(constraints, dirty, cell):
    """The sharded greedy loop once more, with span tracing on.

    Returns the result (asserted bit-identical to the untraced run by the
    caller), the wall time of the ``explain()`` call, the tracer's per-phase
    summary, the fraction of that wall time the ``explain_job`` span covers,
    and the worker indexes that shipped spans home.  ``TREX_TRACE_OUT=PATH``
    additionally writes the full Chrome ``traceEvents`` JSON (the same
    format the CLI's ``--trace-out`` emits).
    """
    with otrace.tracing() as tracer:
        result, elapsed, _ = _explain_parallel(constraints, dirty, cell,
                                               PARALLEL_JOBS)
        summary = tracer.summary()
        job_seconds = summary.get("explain_job", {}).get("total_seconds", 0.0)
        coverage = job_seconds / elapsed if elapsed else 0.0
        workers = sorted({span.worker for span in tracer.spans
                          if span.worker is not None})
        trace_out = os.environ.get("TREX_TRACE_OUT")
        if trace_out:
            tracer.write_chrome_trace(trace_out)
    return result, elapsed, summary, coverage, workers


def _pick_stable_update_cell(constraints, dirty, cell, algorithm):
    """A Country cell + alternate value whose write moves estimates without
    tripping the conservative full-drop paths.

    The returned write is *mode-stable* (the column's most-common value is
    unchanged, so the MODE replacement overlay keeps its values) and
    *target-stable* (the cell of interest stays repaired to the same value,
    so the oracle cache keeps its entries instead of dropping them all).  Both properties are
    re-verified here rather than hardcoded so the workload survives generator
    changes.
    """
    base_target = algorithm().repair(constraints, dirty).clean[cell]
    mode = dirty.stats.marginal("Country").most_common()
    countries = {str(dirty[CellRef(row, "Country")]) for row in range(dirty.n_rows)}
    for offset in range(1, dirty.n_rows):
        update_cell = CellRef((cell.row + offset) % dirty.n_rows, "Country")
        original = dirty[update_cell]
        if str(original) == str(mode):
            continue
        for alternate in sorted(countries - {str(original), str(mode)}):
            updated = dirty.copy().with_values({update_cell: alternate})
            if updated.stats.marginal("Country").most_common() != mode:
                continue
            repair = algorithm().repair(constraints, updated)
            if cell in repair.delta and repair.clean[cell] == base_target:
                return update_cell, original, alternate
    raise AssertionError("no mode- and target-stable update cell found")


def _update_refresh_points():
    """The live-update cycle, live session vs rebuild (see ``UPDATE_ROWS``).

    Returns ``(live_times, rebuild_times, identical, live_stats, held)``
    where each times list holds per-cycle wall-clock for one write plus
    ``UPDATE_READS_PER_WRITE`` explains, ``identical`` is the result of
    comparing every read pairwise across the two streams (values *and*
    standard errors) and ``held`` is the number of estimates the live state
    holds.  The rebuild stream builds one fresh
    ``TRExExplainer`` on the post-write table per write (its reference
    repair included) and calls ``explain(cell)`` per read.
    """
    constraints, dirty, cell = _setup(UPDATE_ROWS)
    algorithm = SimpleRuleRepair
    update_cell, original, alternate = _pick_stable_update_cell(
        constraints, dirty, cell, algorithm)
    config = dict(seed=3, cell_samples=UPDATE_SAMPLES,
                  replacement_policy="mode", n_jobs=None)
    live = RepairSession(algorithm(), constraints, dirty.copy(),
                         cell_of_interest=cell, config=TRexConfig(**config))
    rebuild_algorithm = algorithm()
    rebuild_table = dirty
    # alternate the write back and forth so every cycle is a real change
    values = [alternate if cycle % 2 == 0 else original
              for cycle in range(UPDATE_CYCLES)]
    live_times, rebuild_times, identical = [], [], True
    with live:
        live.explain()
        for value in values:
            start = time.perf_counter()
            live.update(update_cell, value)
            live_reads = [live.explain()
                          for _ in range(UPDATE_READS_PER_WRITE)]
            live_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            rebuild_table = rebuild_table.with_values({update_cell: value})
            rebuild = TRExExplainer(rebuild_algorithm, constraints,
                                    rebuild_table, TRexConfig(**config))
            rebuild.repair()
            rebuild_reads = [rebuild.explain(cell)
                             for _ in range(UPDATE_READS_PER_WRITE)]
            rebuild_times.append(time.perf_counter() - start)
            for live_read, rebuild_read in zip(live_reads, rebuild_reads):
                identical = (
                    identical
                    and live_read.cell_shapley.values
                    == rebuild_read.cell_shapley.values
                    and live_read.cell_shapley.standard_errors
                    == rebuild_read.cell_shapley.standard_errors
                )
        live_stats = live._live.oracle.statistics()
        held = len(live._live.cells)
    return live_times, rebuild_times, identical, live_stats, held


def _write_bench_json(payload: dict) -> None:
    payload = dict(payload)
    payload["benchmark"] = "cell_shapley_paired_oracle"
    payload["config"] = {
        "n_rows": N_ROWS,
        "n_samples": N_SAMPLES,
        "n_probes": N_PROBES,
        "n_samples_greedy": N_SAMPLES_GREEDY,
        "n_probes_greedy": N_PROBES_GREEDY,
        "policy_simple": "mode",
        "policy_greedy": "null",
        "seed": 3,
        "parallel_jobs": PARALLEL_JOBS,
        "n_samples_parallel": N_SAMPLES_PARALLEL,
        "n_probes_parallel": N_PROBES_PARALLEL,
        "cpu_count": os.cpu_count(),
        "bulk_delta_columns": BULK_DELTA_COLUMNS,
        "bulk_delta_cells_per_column": BULK_DELTA_CELLS_PER_COLUMN,
        "update_rows": UPDATE_ROWS,
        "update_samples": UPDATE_SAMPLES,
        "update_reads_per_write": UPDATE_READS_PER_WRITE,
        "update_cycles": UPDATE_CYCLES,
        "floors": {
            "fast_vs_reference_simple": FAST_FLOOR_SIMPLE,
            "fast_vs_reference_greedy": FAST_FLOOR_GREEDY,
            "parallel_speedup": PARALLEL_FLOOR,
            "bulk_delta_speedup": BULK_DELTA_FLOOR,
            "update_refresh_speedup": UPDATE_REFRESH_FLOOR,
        },
    }
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def test_engines_identical_and_fast_is_faster(benchmark):
    constraints, dirty, cell = _setup()

    # -- 1. bit-for-bit identical estimates, both engines x both policies ---------------
    # The ``mode`` cross-check is the timed loop's configuration, so its
    # reference run is also the reference rung's one timed sample: at ~25x
    # the fast rung's cost, more reference reps would only add CI time.
    simple_timings = {engine: [] for engine in ENGINES}
    for policy in ("null", "mode"):
        results = {}
        for engine in ENGINES:
            results[engine], elapsed, _ = _explain(constraints, dirty, cell, engine,
                                                   policy=policy)
            if policy == "mode" and engine == "reference":
                simple_timings[engine].append(elapsed)
        assert results["fast"].values == results["reference"].values, policy
        assert results["fast"].standard_errors == results["reference"].standard_errors, \
            policy

    # -- Algorithm 1 (rule repair): the fast engine, mode policy -------------------------
    batch_stats = {}
    for _ in range(3):
        _, elapsed, oracle = _explain(constraints, dirty, cell, "fast")
        simple_timings["fast"].append(elapsed)
        batch_stats = oracle.statistics()

    # -- greedy holistic repair: both engines (null policy) ------------------------------
    greedy_args = dict(algorithm="greedy", policy="null",
                       n_samples=N_SAMPLES_GREEDY, n_probes=N_PROBES_GREEDY)
    greedy_results = {}
    for engine in ENGINES:
        greedy_results[engine], _, _ = _explain(constraints, dirty, cell, engine,
                                                **greedy_args)
    assert greedy_results["fast"].values == greedy_results["reference"].values
    assert (greedy_results["fast"].standard_errors
            == greedy_results["reference"].standard_errors)
    greedy_timings = {engine: [] for engine in ENGINES}
    for _ in range(2):
        for engine in ENGINES:
            _, elapsed, _ = _explain(constraints, dirty, cell, engine, **greedy_args)
            greedy_timings[engine].append(elapsed)

    # -- bulk delta encoding: a 10^4-cell coalition delta, bulk vs per-value -------------
    bulk_per_value_seconds, bulk_seconds = _bulk_delta_points()

    # -- repeated probes: the second pass must hit the oracle cache ----------------------
    cache_probe_timings, cache_probe_stats = _cache_probe(constraints, dirty, cell)
    assert cache_probe_stats["cache_hits"] > 0, (
        "the repeated-probe phase recorded zero cache hits — the hit-rate "
        "telemetry is not being exercised"
    )

    # -- sharded scheduler: 2 workers vs the identical in-process plan -------------------
    parallel_results = {}
    parallel_timings = {n_jobs: [] for n_jobs in (1, PARALLEL_JOBS)}
    for repeat in range(2):
        for n_jobs in (1, PARALLEL_JOBS):
            result, elapsed, oracle = _explain_parallel(constraints, dirty, cell, n_jobs)
            parallel_timings[n_jobs].append(elapsed)
            if repeat == 0:
                parallel_results[n_jobs] = result
                if n_jobs == PARALLEL_JOBS:
                    parallel_stats = oracle.statistics()
    assert parallel_results[PARALLEL_JOBS].values == parallel_results[1].values
    assert (parallel_results[PARALLEL_JOBS].standard_errors
            == parallel_results[1].standard_errors)
    assert parallel_stats["parallel_workers"] == PARALLEL_JOBS

    # -- tracing on the same sharded loop: zero perturbation, ≥95% coverage --------------
    traced_result, traced_seconds, trace_summary, trace_coverage, trace_workers = \
        _traced_explain(constraints, dirty, cell)
    assert traced_result.values == parallel_results[1].values, (
        "tracing perturbed the sharded estimates — spans must observe, never feed"
    )
    assert trace_coverage >= 0.95, (
        f"the explain_job span covers only {trace_coverage:.1%} of the traced "
        f"explain wall time (floor: 95%)"
    )
    assert trace_workers, (
        "no worker spans were stitched into the parent trace — the "
        "WorkerReport span shipping is broken"
    )

    # -- live base updates: delta-maintained session vs rebuild-per-write ---------------
    (update_live_times, update_rebuild_times, update_identical, update_stats,
     update_held) = _update_refresh_points()
    assert update_identical, (
        "the delta-maintained session drifted from the rebuild-per-write "
        "reference — the live update path must be numerically invisible"
    )
    assert update_stats["base_updates_applied"] == UPDATE_CYCLES
    # every cycle's write must land on the selective-invalidation path: the
    # picked cell is mode- and target-stable, so neither full-drop branch
    # fires — no target-change cache drop, and not every held estimate
    # invalidated on every cycle, yet some were
    assert update_stats["cache_entries_invalidated"] == 0
    assert 0 < update_stats["estimates_invalidated"] < UPDATE_CYCLES * update_held

    best = {f"simple_{engine}": min(times) for engine, times in simple_timings.items()}
    best.update({f"greedy_{engine}": min(times)
                 for engine, times in greedy_timings.items()})
    best["greedy_sharded_1job"] = min(parallel_timings[1])
    best[f"greedy_sharded_{PARALLEL_JOBS}jobs"] = min(parallel_timings[PARALLEL_JOBS])
    best["session_update_live"] = min(update_live_times)
    best["session_update_rebuild"] = min(update_rebuild_times)
    speedups = {
        "fast_vs_reference_simple": best["simple_reference"] / best["simple_fast"],
        "fast_vs_reference_greedy": best["greedy_reference"] / best["greedy_fast"],
        "parallel_speedup": (best["greedy_sharded_1job"]
                             / best[f"greedy_sharded_{PARALLEL_JOBS}jobs"]),
        "bulk_delta_speedup": bulk_per_value_seconds / bulk_seconds,
        "repeat_probe_speedup": cache_probe_timings[0] / cache_probe_timings[1],
        "update_refresh_speedup": (best["session_update_rebuild"]
                                   / best["session_update_live"]),
    }
    print_table(
        f"evaluation paths — cell Shapley, {N_ROWS} rows (best-of runs)",
        ["black box", "path", "seconds", "vs reference"],
        [
            ["simple rules", "reference", f"{best['simple_reference']:.3f}", "1.00x"],
            ["simple rules", "fast", f"{best['simple_fast']:.3f}",
             f"{speedups['fast_vs_reference_simple']:.2f}x"],
            ["greedy holistic", "reference", f"{best['greedy_reference']:.3f}", "1.00x"],
            ["greedy holistic", "fast", f"{best['greedy_fast']:.3f}",
             f"{speedups['fast_vs_reference_greedy']:.2f}x"],
            ["greedy holistic", "sharded plan, 1 job", f"{best['greedy_sharded_1job']:.3f}",
             "(parallel baseline)"],
            ["greedy holistic", f"sharded, {PARALLEL_JOBS} workers",
             f"{best[f'greedy_sharded_{PARALLEL_JOBS}jobs']:.3f}",
             f"{speedups['parallel_speedup']:.2f}x vs 1 job"],
            ["(encoding)", "10^4-cell delta, per-value",
             f"{bulk_per_value_seconds:.4f}", "(bulk baseline)"],
            ["(encoding)", "10^4-cell delta, bulk",
             f"{bulk_seconds:.4f}",
             f"{speedups['bulk_delta_speedup']:.2f}x vs per-value"],
            ["simple rules", "repeated probes, 2nd pass",
             f"{cache_probe_timings[1]:.3f}",
             f"{cache_probe_stats['cache_hits']} cache hits"],
            ["simple rules",
             f"update cycle, rebuild ({UPDATE_READS_PER_WRITE} reads/write)",
             f"{best['session_update_rebuild']:.3f}", "(live-update baseline)"],
            ["simple rules",
             f"update cycle, live ({UPDATE_READS_PER_WRITE} reads/write)",
             f"{best['session_update_live']:.3f}",
             f"{speedups['update_refresh_speedup']:.2f}x vs rebuild"],
        ],
    )
    _write_bench_json({
        "seconds": {key: round(value, 4) for key, value in best.items()},
        "speedups": {key: round(value, 2) for key, value in speedups.items()},
        "bulk_delta": {
            "cells": BULK_DELTA_COLUMNS * BULK_DELTA_CELLS_PER_COLUMN,
            "columns": BULK_DELTA_COLUMNS,
            "per_value_seconds": round(bulk_per_value_seconds, 4),
            "bulk_seconds": round(bulk_seconds, 4),
        },
        "cache_probe": {
            "first_pass_seconds": round(cache_probe_timings[0], 4),
            "second_pass_seconds": round(cache_probe_timings[1], 4),
            "cache_hits": cache_probe_stats["cache_hits"],
            "cache_misses": cache_probe_stats["cache_misses"],
            "hit_rate": round(
                cache_probe_stats["cache_hits"]
                / max(1, cache_probe_stats["cache_hits"]
                      + cache_probe_stats["cache_misses"]), 4),
        },
        "batch_scheduler": {
            key: batch_stats.get(key, 0)
            for key in ("batches", "pairs_batched", "pairs_deduped",
                        "max_batch_size", "pair_walks", "repair_runs",
                        "cache_hits", "cache_misses", "cache_evictions")
        },
        "parallel_scheduler": {
            key: parallel_stats.get(key, 0)
            for key in ("parallel_workers", "parallel_shards", "oracle_calls",
                        "repair_runs", "batches", "pairs_batched",
                        "pairs_deduped", "cache_hits", "cache_misses",
                        "cache_evictions")
        },
        "trace": {
            "explain_seconds": round(traced_seconds, 4),
            "coverage": round(trace_coverage, 4),
            "workers": trace_workers,
            "per_phase": trace_summary,
        },
        "live_updates": {
            "n_rows": UPDATE_ROWS,
            "n_samples": UPDATE_SAMPLES,
            "reads_per_write": UPDATE_READS_PER_WRITE,
            "cycles": UPDATE_CYCLES,
            "live_seconds": round(min(update_live_times), 4),
            "rebuild_seconds": round(min(update_rebuild_times), 4),
            "base_updates_applied": update_stats["base_updates_applied"],
            "estimates_invalidated": update_stats["estimates_invalidated"],
            "cache_entries_invalidated":
                update_stats["cache_entries_invalidated"],
        },
    })
    for key, value in speedups.items():
        benchmark.extra_info[key] = round(value, 2)

    # 2. the acceptance floors
    assert speedups["fast_vs_reference_simple"] >= FAST_FLOOR_SIMPLE, (
        f"the fast engine is only {speedups['fast_vs_reference_simple']:.2f}x "
        f"faster than the reference on the rule-repair loop "
        f"(floor: {FAST_FLOOR_SIMPLE}x)"
    )
    assert speedups["fast_vs_reference_greedy"] >= FAST_FLOOR_GREEDY, (
        f"the fast engine is only {speedups['fast_vs_reference_greedy']:.2f}x "
        f"faster than the reference on the greedy loop (floor: {FAST_FLOOR_GREEDY}x)"
    )
    assert speedups["bulk_delta_speedup"] >= BULK_DELTA_FLOOR, (
        f"the bulk delta encoder is only {speedups['bulk_delta_speedup']:.2f}x "
        f"faster than the per-value code_for loop on the 10^4-cell coalition "
        f"delta (floor: {BULK_DELTA_FLOOR}x)"
    )
    # sequential path (n_jobs=None): no multicore gate — a one-CPU box must
    # still hold this floor
    assert speedups["update_refresh_speedup"] >= UPDATE_REFRESH_FLOOR, (
        f"the delta-maintained session is only "
        f"{speedups['update_refresh_speedup']:.2f}x faster than rebuilding "
        f"per write over {UPDATE_CYCLES} update cycles of "
        f"{UPDATE_READS_PER_WRITE} reads each (floor: {UPDATE_REFRESH_FLOOR}x)"
    )
    # the parallel floor needs real cores: a single-CPU box can only
    # time-slice two workers, so there the ratio is recorded as telemetry
    # (the bit-identical cross-check above remains the hard gate)
    if (os.cpu_count() or 1) >= PARALLEL_JOBS:
        assert speedups["parallel_speedup"] >= PARALLEL_FLOOR, (
            f"{PARALLEL_JOBS} workers are only {speedups['parallel_speedup']:.2f}x "
            f"faster than the in-process plan on the greedy loop "
            f"(floor: {PARALLEL_FLOOR}x)"
        )

    # time the fast loop under the benchmark harness for the record
    benchmark.pedantic(
        lambda: _explain(constraints, dirty, cell, "fast"),
        rounds=1, iterations=1,
    )


def test_constraint_shapley_identical_across_paths(benchmark):
    """Constraint-Shapley cross-check (exact enumeration, both paths)."""
    dataset = SoccerLeagueGenerator(seed=47).generate(12)
    constraints = dataset.constraints()
    dirty, report = inject_errors(
        dataset.table, rate=0.0, n_errors=1, error_types=["domain"],
        attributes=["Country"], seed=47,
    )
    cell = report.cells()[0]

    rankings = {}
    for engine in ENGINES:
        oracle = BinaryRepairOracle(SimpleRuleRepair(engine=engine),
                                    constraints, dirty, cell)
        rankings[engine] = ConstraintShapleyExplainer(oracle).explain()
    assert rankings["fast"].values == rankings["reference"].values

    def run_fast():
        oracle = BinaryRepairOracle(SimpleRuleRepair(), constraints, dirty, cell)
        return ConstraintShapleyExplainer(oracle).explain()

    result = benchmark(run_fast)
    print_table(
        "constraint Shapley — identical on both paths",
        ["constraint", "value"],
        [[name, f"{value:.4f}"] for name, value in result.ranking()],
    )
