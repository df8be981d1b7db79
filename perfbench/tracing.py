"""Outside-in span tracing for the traced benchmark run.

The benchmark never edits the program to trace it.  Instead
:func:`instrument` temporarily replaces the public functions named in
:data:`TARGETS` with wrappers that record one :class:`Span` per call, and
restores the originals on exit.  Class methods are wrapped on the class that
defines them; module functions imported by name are wrapped at every
importing module, because callers resolve those names at call time there.

Every span belongs to one *layer* (``constraints``, ``engine``, ...) and one
*key* inside it (``rescan``, ``stats_sample``, ...).  The benchmark's own
operations (``repair``, ``update``, ...) are root spans of layer ``op``.  A
span's self time is its duration minus the durations of its direct children,
so for every op the self times of its descendants plus the op's own self time
(the *unattributed* time) add up to the op's wall time exactly.

Spans stay in memory and are written out once, when the run ends
(:meth:`Tracer.dump`).  Worker processes are not traced: the parallel layer is
seen from the parent side only.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: (layer, key, "module:Owner.attribute") for every wrapped function.  An owner
#: of ``-`` names a module-level function of the module itself.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("dataset", "read_csv", "repro.dataset.io:-.read_csv"),
    ("dataset", "read_csv", "repro:-.read_csv"),
    # the reference pair scan, at every module that calls it by name
    ("constraints", "rescan", "repro.constraints.violations:-.find_violations"),
    ("constraints", "rescan", "repro.constraints.violations:-.find_all_violations"),
    ("constraints", "rescan", "repro.constraints.incremental:-.find_violations"),
    ("constraints", "rescan", "repro.constraints.incremental:-.find_all_violations"),
    ("constraints", "detector", "repro.constraints.incremental:IncrementalViolationDetector.violations_for_view"),
    ("constraints", "detector", "repro.constraints.incremental:IncrementalViolationDetector.base_violations"),
    ("constraints", "detector", "repro.constraints.incremental:IncrementalViolationDetector.precompute_walk_indexes"),
    ("constraints", "detector_update", "repro.constraints.incremental:IncrementalViolationDetector.apply_base_update"),
    ("constraints", "walk", "repro.constraints.incremental:RepairWalk.prime"),
    ("constraints", "walk", "repro.constraints.incremental:RepairWalk.violating_rows_for"),
    ("constraints", "walk_degrees", "repro.constraints.incremental:RepairWalk.cell_degrees_arrays"),
    ("constraints", "walk_trials", "repro.constraints.incremental:RepairWalk.count_if_many_at"),
    ("engine", "stats_sample", "repro.engine.stats:ColumnStatistics.sample"),
    ("engine", "stats_query", "repro.engine.stats:TableStatistics.most_probable_given"),
    ("engine", "stats_query", "repro.engine.stats:CooccurrenceStatistics.conditional_probability_many"),
    ("engine", "stats_move", "repro.engine.stats:SharedStatistics.lease"),
    ("engine", "stats_move", "repro.engine.stats:SharedStatistics.release"),
    ("engine", "stats_move", "repro.engine.stats:TableStatistics.apply_delta"),
    ("engine", "stats_move", "repro.engine.stats:TableStatistics.revert_delta"),
    ("engine", "stats_move", "repro.engine.stats:TableStatistics.apply_cell_update"),
    ("engine", "stats_move", "repro.engine.stats:_LeasedTableStatistics.apply_cell_update"),
    ("engine", "stats_base_update", "repro.engine.stats:SharedStatistics.begin_base_update"),
    ("engine", "stats_base_update", "repro.engine.stats:SharedStatistics.complete_base_update"),
    ("engine", "index", "repro.engine.index:HashIndex.apply_delta"),
    ("engine", "index", "repro.engine.index:HashIndex.revert_delta"),
    ("engine", "index", "repro.engine.index:MultiColumnIndex.apply_delta"),
    ("engine", "index", "repro.engine.index:MultiColumnIndex.revert_delta"),
    ("engine", "view_write", "repro.engine.view:OverlayStore.set_value"),
    ("engine", "encode", "repro.engine.encoding:TableEncoding.codes"),
    ("engine", "encode", "repro.engine.encoding:TableEncoding.encode_delta"),
    ("repair", "blackbox", "repro.repair.simple:SimpleRuleRepair.repair_table"),
    ("repair", "blackbox", "repro.repair.greedy:GreedyHolisticRepair.repair_table"),
    ("repair", "pair", "repro.repair.simple:SimpleRuleRepair.repair_pair"),
    ("repair", "pair", "repro.repair.simple:SimpleRuleRepair.repair_pair_group"),
    ("repair", "pair", "repro.repair.greedy:GreedyHolisticRepair.repair_pair"),
    ("repair", "pair", "repro.repair.greedy:GreedyHolisticRepair.repair_pair_group"),
    ("repair", "reference", "repro.explain.explainer:TRExExplainer.repair"),
    ("repair", "cache_rebase", "repro.repair.cache:OracleCache.rebase"),
    ("repair", "table_update", "repro.repair.updates:-.apply_table_update"),
    ("repair", "table_update", "repro.explain.live:-.apply_table_update"),
    ("shapley", "sampler", "repro.shapley.sampling:CellCoalitionSampler.sample_pair"),
    ("shapley", "sampler", "repro.shapley.sampling:CellCoalitionSampler.build_instances"),
    ("shapley", "queue", "repro.repair.base:BinaryRepairOracle.query_pairs"),
    ("shapley", "constraint_game", "repro.shapley.constraints:ConstraintShapleyExplainer.explain"),
    ("explain", "refresh", "repro.explain.live:LiveExplainState.result"),
    ("parallel", "run_tasks", "repro.parallel.pool:WorkerPool.run_tasks"),
    ("parallel", "merge", "repro.parallel.scheduler:ShardedExplainScheduler.run"),
    ("parallel", "merge", "repro.parallel.scheduler:ShardedExplainScheduler.run_adaptive"),
    ("parallel", "patch", "repro.parallel.scheduler:ShardedExplainScheduler.apply_base_update"),
)


@dataclass(slots=True)
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    layer: str
    key: str
    start: float
    end: float = 0.0
    parent: int | None = None
    children_time: float = field(default=0.0, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_time


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, name: str, layer: str, key: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, key, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_time += span.duration

    @contextmanager
    def op(self, name: str):
        """A root span for one benchmark operation."""
        index = self.begin(name, "op", name)
        try:
            yield
        finally:
            self.end(index)

    def dump(self, path) -> None:
        """Write every span as one JSON line (name, layer, start, end, parent)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name, "layer": span.layer, "start": span.start,
                    "end": span.end, "parent": span.parent,
                }) + "\n")


def _resolve(spec: str):
    module_name, path = spec.split(":")
    owner_name, attribute = path.split(".")
    module = importlib.import_module(module_name)
    owner = module if owner_name == "-" else getattr(module, owner_name)
    if attribute not in vars(owner):
        raise AttributeError(f"{spec}: {attribute!r} is not defined on {owner_name}")
    return owner, attribute


def _wrap(tracer: Tracer, function, name: str, layer: str, key: str):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        index = tracer.begin(name, layer, key)
        try:
            return function(*args, **kwargs)
        finally:
            tracer.end(index)

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    originals = []
    try:
        for layer, key, spec in TARGETS:
            owner, attribute = _resolve(spec)
            function = vars(owner)[attribute]
            originals.append((owner, attribute, function))
            name = spec.split(":")[1].replace("-.", "")
            setattr(owner, attribute, _wrap(tracer, function, name, layer, key))
        yield
    finally:
        for owner, attribute, function in reversed(originals):
            setattr(owner, attribute, function)


def _op_indexes(tracer: Tracer) -> list[int | None]:
    """For each span, the index of its enclosing op (``None`` outside ops)."""
    op_of: list[int | None] = []
    for index, span in enumerate(tracer.spans):
        if span.parent is None:
            op_of.append(index if span.layer == "op" else None)
        else:
            op_of.append(op_of[span.parent])
    return op_of


def accounting(tracer: Tracer) -> list[dict]:
    """Per-op wall time split into per-layer self time plus unattributed time."""
    ops: dict[int, dict] = {}
    for index, (span, op) in enumerate(zip(tracer.spans, _op_indexes(tracer))):
        if op == index:
            ops[index] = {"op": span.name, "wall": span.duration,
                          "unattributed": span.self_time, "layers": {}}
        elif op is not None:
            layers = ops[op]["layers"]
            layers[span.layer] = layers.get(span.layer, 0.0) + span.self_time
    return list(ops.values())


def key_totals(tracer: Tracer) -> dict[tuple[str, str], dict]:
    """Per (layer, key) inside ops: self time, outermost call count, and the
    inclusive time of the outermost calls split by the name of their op.

    A call nested inside a call of the same key (``find_all_violations``
    calling ``find_violations``) adds its self time but is not counted again.
    """
    totals: dict[tuple[str, str], dict] = {}
    for span, op in zip(tracer.spans, _op_indexes(tracer)):
        if op is None or span.layer == "op":
            continue
        entry = totals.setdefault((span.layer, span.key),
                                  {"self": 0.0, "calls": 0, "by_op": {}})
        entry["self"] += span.self_time
        parent = tracer.spans[span.parent]
        if (parent.layer, parent.key) != (span.layer, span.key):
            entry["calls"] += 1
            name = tracer.spans[op].name
            entry["by_op"][name] = entry["by_op"].get(name, 0.0) + span.duration
    return totals
