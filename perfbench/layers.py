"""The traced run and the per-layer metrics it reports.

Every ``*_s`` metric is the summed *self* time of the spans of one
``(layer, key)`` in the traced part of the run (see :mod:`perfbench.tracing`),
except ``repair.update_rerepair_s``, the inclusive time of the reference
repair inside ``update`` ops.  ``*_calls`` and ``repair.pairs`` count
outermost calls.  The traced part is a fixed plan — one live set-up, one
fresh round, ``TRACE_CYCLES`` live cycles — so totals
compare across commits.  The same plan runs untraced first; the ratio of the
two op walls is ``trace.overhead``.
"""

from __future__ import annotations

import resource

from perfbench.tracing import Tracer, accounting, instrument, key_totals
from perfbench.workloads import Recorder, Scenario, Workload

TRACE_CYCLES = 4

#: metric -> (layer, key) for self-time metrics
SELF_TIME = {
    "dataset.read_csv_s": ("dataset", "read_csv"),
    "constraints.rescan_s": ("constraints", "rescan"),
    "constraints.detector_s": ("constraints", "detector"),
    "constraints.walk_s": ("constraints", "walk"),
    "constraints.walk_degrees_s": ("constraints", "walk_degrees"),
    "constraints.walk_trials_s": ("constraints", "walk_trials"),
    "constraints.detector_update_s": ("constraints", "detector_update"),
    "engine.stats_sample_s": ("engine", "stats_sample"),
    "engine.stats_query_s": ("engine", "stats_query"),
    "engine.stats_move_s": ("engine", "stats_move"),
    "engine.index_s": ("engine", "index"),
    "engine.view_write_s": ("engine", "view_write"),
    "engine.encode_s": ("engine", "encode"),
    "engine.stats_base_update_s": ("engine", "stats_base_update"),
    "repair.blackbox_s": ("repair", "blackbox"),
    "repair.pair_s": ("repair", "pair"),
    "repair.cache_rebase_s": ("repair", "cache_rebase"),
    "repair.table_update_s": ("repair", "table_update"),
    "shapley.sampler_s": ("shapley", "sampler"),
    "shapley.queue_s": ("shapley", "queue"),
    "shapley.constraint_game_s": ("shapley", "constraint_game"),
    "explain.refresh_s": ("explain", "refresh"),
    "parallel.run_tasks_s": ("parallel", "run_tasks"),
    "parallel.merge_s": ("parallel", "merge"),
    "parallel.patch_s": ("parallel", "patch"),
}

#: metric -> (layer, key) for outermost call counts
CALLS = {
    "constraints.rescan_calls": ("constraints", "rescan"),
    "constraints.walk_degrees_calls": ("constraints", "walk_degrees"),
    "engine.stats_sample_calls": ("engine", "stats_sample"),
    "repair.pairs": ("repair", "pair"),
}


#: every per-layer metric and its unit, in report order
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME},
    **{name: "count" for name in CALLS},
    "repair.update_rerepair_s": "s",
    "repair.runs_per_pair": "ratio",
    "repair.cache_hit_rate": "ratio",
    "repair.dedup_share": "ratio",
    "explain.invalidated_share": "ratio",
    "parallel.worker_rebuilds": "count",
    "parallel.cache_entries_shipped": "count",
    "parallel.worker_peak_rss_mb": "MB",
    "trace.unattributed_share": "ratio",
    "trace.overhead": "ratio",
}


def _oracle_counters(*statistics) -> dict[str, float]:
    keys = ("repair_runs", "pairs_batched", "pairs_deduped", "cache_hits", "cache_misses")
    return {key: sum(stats.get(key, 0) for stats in statistics) for key in keys}


def _plan(scenario: Scenario, cycles: int):
    """The fixed traced plan; returns the fresh round's explanations."""
    scenario.live_setup()
    result = scenario.fresh_round()
    if scenario.live is not None:
        for _ in range(cycles):
            scenario.live_cycle()
    return result


def run_traced(workload: Workload, directory, cycles: int = TRACE_CYCLES):
    """Run the plan untraced, then traced; return (recorder, metrics, tracer).

    ``metrics`` maps every per-layer metric name to ``(value, unit)``.
    """
    untraced = Recorder()
    scenario = Scenario(workload, directory, untraced)
    try:
        _plan(scenario, cycles)
    finally:
        scenario.close_live()

    tracer = Tracer()
    recorder = Recorder(tracer)
    scenario = Scenario(workload, directory, recorder)
    try:
        with instrument(tracer):
            result = _plan(scenario, cycles)
        live_stats = scenario.last_explanation.oracle_statistics["cells"] \
            if scenario.live is not None else {}
        invalidated_share = scenario.invalidated_share() if scenario.live is not None else 0.0
    finally:
        scenario.close_live()
    recorder.attempted += untraced.attempted
    recorder.failed += untraced.failed
    recorder.failures += untraced.failures

    ops = accounting(tracer)
    for op in ops:
        attributed = sum(op["layers"].values()) + op["unattributed"]
        recorder.check(abs(attributed - op["wall"]) <= 0.01 * op["wall"],
                       f"trace accounting: {op['op']} wall {op['wall']!r} != {attributed!r}")
    totals = key_totals(tracer)
    metrics: dict[str, tuple[float, str]] = {}
    for name, key in SELF_TIME.items():
        metrics[name] = (totals.get(key, {}).get("self", 0.0), "s")
    for name, key in CALLS.items():
        metrics[name] = (float(totals.get(key, {}).get("calls", 0)), "count")
    rerepair = totals.get(("repair", "reference"), {}).get("by_op", {}).get("update", 0.0)
    metrics["repair.update_rerepair_s"] = (rerepair, "s")

    fresh_stats = result["cells"].oracle_statistics if result else {}
    counters = _oracle_counters(fresh_stats, live_stats)
    lookups = counters["cache_hits"] + counters["cache_misses"]
    metrics["repair.runs_per_pair"] = (
        counters["repair_runs"] / max(1, counters["pairs_batched"]), "ratio")
    metrics["repair.cache_hit_rate"] = (counters["cache_hits"] / max(1, lookups), "ratio")
    metrics["repair.dedup_share"] = (
        counters["pairs_deduped"] / max(1, counters["pairs_batched"]), "ratio")
    metrics["explain.invalidated_share"] = (invalidated_share, "ratio")
    metrics["parallel.worker_rebuilds"] = (float(live_stats.get("worker_rebuilds", 0)), "count")
    metrics["parallel.cache_entries_shipped"] = (
        float(live_stats.get("cache_entries_shipped", 0)), "count")
    metrics["parallel.worker_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB")

    wall = sum(op["wall"] for op in ops)
    metrics["trace.unattributed_share"] = (
        sum(op["unattributed"] for op in ops) / max(wall, 1e-12), "ratio")
    # both walls in reference seconds, so a machine-speed swing between the
    # two passes does not read as tracing cost
    metrics["trace.overhead"] = (
        sum(recorder.scaled()) / max(sum(untraced.scaled()), 1e-12), "ratio")
    return recorder, metrics, tracer
