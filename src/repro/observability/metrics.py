"""The typed metrics registry behind the oracle's statistics surface.

Every counter the explain stack reports — oracle calls, cache traffic,
pool health, live-update bookkeeping — is declared here once with
its *kind*, and the kind decides how values combine when per-worker
snapshots are folded into one aggregate:

* :data:`SUM` — additive workload counters (calls, repair runs, requeues);
* :data:`MAX` — high-water marks of one run (``max_batch_size``,
  ``parallel_workers``): the aggregate of several workers is the widest
  single observation, not a sum;
* :data:`TIMER` — additive wall-clock seconds (floats, e.g. the restart
  backoff total);
* :data:`HISTOGRAM` — power-of-two bucket counts merged bucket-wise.

``BinaryRepairOracle`` keeps one :class:`MetricsRegistry` as its single
counter sink; its public counter *attributes* (``oracle.calls``,
``oracle.workers_restarted``, …) are :class:`MetricAttribute` descriptors
proxying straight into the registry, so every existing read/write site —
including the scheduler's ``setattr`` counter folds — works unchanged.
``aggregate_oracle_statistics`` derives its max-merged key sets from the
declarations below instead of hard-coding them.

The registry observes the run; it never feeds it.  Estimates are
bit-identical whatever the registry records.
"""

from __future__ import annotations

from dataclasses import dataclass

#: metric kinds — see the module docstring for merge semantics
SUM = "sum"
MAX = "max"
TIMER = "timer"
HISTOGRAM = "histogram"

_KINDS = frozenset({SUM, MAX, TIMER, HISTOGRAM})


@dataclass(frozen=True)
class Metric:
    """One declared metric: its public name, kind and absorb behaviour.

    ``absorbed=False`` excludes a metric from
    :meth:`MetricsRegistry.absorb` — the two parallel-topology marks
    (``parallel_workers`` / ``parallel_shards``) are maintained by the
    scheduler's merge itself, never folded in from worker snapshots
    (a worker's own view of "how many workers" is meaningless).
    """

    name: str
    kind: str = SUM
    absorbed: bool = True


#: the oracle's counter declarations, in ``statistics()`` emission order
ORACLE_METRICS: tuple[Metric, ...] = (
    Metric("oracle_calls"),
    Metric("repair_runs"),
    Metric("pair_walks"),
    Metric("batches"),
    Metric("pairs_batched"),
    Metric("pairs_deduped"),
    Metric("max_batch_size", MAX),
    Metric("parallel_workers", MAX, absorbed=False),
    Metric("parallel_shards", absorbed=False),
    Metric("worker_rebuilds"),
    Metric("cache_entries_shipped"),
    Metric("shards_requeued"),
    Metric("workers_restarted"),
    Metric("warm_restarts"),
    Metric("cache_entries_seeded"),
    Metric("shards_poisoned"),
    Metric("deadline_expired"),
    Metric("restart_backoff_seconds", TIMER),
    Metric("base_updates_applied"),
    Metric("estimates_invalidated"),
    Metric("cache_entries_invalidated"),
)

#: counters that aggregate by maximum rather than by sum — derived from the
#: declarations so the registry and ``aggregate_oracle_statistics`` can
#: never disagree about a counter's merge rule
MAX_COUNTERS = frozenset(m.name for m in ORACLE_METRICS if m.kind == MAX)

#: nested counter groups whose *every* leaf aggregates by maximum — the
#: encoding telemetry's per-column dictionary sizes describe the largest
#: dictionary any worker held, not an additive count
MAX_GROUPS = frozenset({"dictionary_sizes"})


def _zero(kind: str):
    if kind == TIMER:
        return 0.0
    if kind == HISTOGRAM:
        return {}
    return 0


def histogram_bucket(value: float) -> int:
    """The power-of-two bucket upper bound holding ``value``.

    ``0`` maps to bucket 0; positive values to the smallest power of two
    at or above them (1, 2, 4, …) so observations of any scale land in a
    bounded number of buckets.
    """
    if value <= 0:
        return 0
    bucket = 1
    while bucket < value:
        bucket <<= 1
    return bucket


class MetricsRegistry:
    """The single sink for one component's typed metrics.

    Declaration order is preserved: :meth:`as_dict` emits metrics in the
    order they were declared, which is what keeps the oracle's
    ``statistics()`` dict stable across the registry refactor.
    """

    __slots__ = ("_kinds", "_values", "_absorbed")

    def __init__(self, metrics: "tuple[Metric, ...] | list[Metric]" = ()):
        self._kinds: dict[str, str] = {}
        self._values: dict[str, object] = {}
        self._absorbed: set[str] = set()
        for metric in metrics:
            self.declare(metric.name, metric.kind, absorbed=metric.absorbed)

    # -- declaration ------------------------------------------------------------------

    def declare(self, name: str, kind: str = SUM, absorbed: bool = True) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}; expected one of {sorted(_KINDS)}")
        if name in self._kinds:
            raise ValueError(f"metric {name!r} is already declared")
        self._kinds[name] = kind
        self._values[name] = _zero(kind)
        if absorbed:
            self._absorbed.add(name)

    def kind(self, name: str) -> str:
        return self._kinds[name]

    def __contains__(self, name: str) -> bool:
        return name in self._kinds

    def __len__(self) -> int:
        return len(self._kinds)

    # -- reads and writes -------------------------------------------------------------

    def get(self, name: str):
        return self._values[name]

    def set(self, name: str, value) -> None:
        """Overwrite one metric (the attribute-assignment path)."""
        if name not in self._kinds:
            raise KeyError(f"metric {name!r} is not declared")
        self._values[name] = value

    def add(self, name: str, delta=1) -> None:
        self._values[name] += delta

    def observe(self, name: str, value) -> None:
        """Record one observation according to the metric's kind.

        SUM/TIMER accumulate, MAX keeps the high-water mark, HISTOGRAM
        bumps the power-of-two bucket holding ``value``.
        """
        kind = self._kinds[name]
        if kind == MAX:
            if value > self._values[name]:
                self._values[name] = value
        elif kind == HISTOGRAM:
            bucket = histogram_bucket(value)
            histogram = self._values[name]
            histogram[bucket] = histogram.get(bucket, 0) + 1
        else:
            self._values[name] += value

    def merge_value(self, name: str, value) -> None:
        """Fold another registry's value for ``name`` into this one.

        SUM/TIMER add, MAX takes the maximum, HISTOGRAM sums per bucket —
        exactly the cross-worker aggregation rules of
        :func:`repro.repair.cache.aggregate_oracle_statistics`.
        """
        kind = self._kinds[name]
        if kind == MAX:
            if value > self._values[name]:
                self._values[name] = value
        elif kind == HISTOGRAM:
            histogram = self._values[name]
            for bucket, count in value.items():
                histogram[bucket] = histogram.get(bucket, 0) + count
        else:
            self._values[name] += value

    def absorb(self, stats: dict) -> None:
        """Fold a counter snapshot (another oracle's ``statistics()`` delta).

        Only declared, absorbable metrics present in ``stats`` are folded;
        everything else in the snapshot (cache counters, engine telemetry,
        unknown keys) is the caller's business.
        """
        for name in self._absorbed:
            if name in stats:
                self.merge_value(name, stats[name])

    # -- views ------------------------------------------------------------------------

    def as_dict(self) -> dict:
        """All metrics in declaration order (histograms are copied)."""
        return {
            name: (dict(value) if isinstance(value, dict) else value)
            for name, value in self._values.items()
        }

    def reset(self) -> None:
        for name, kind in self._kinds.items():
            self._values[name] = _zero(kind)


class NullMetricsRegistry:
    """A no-op registry for call sites whose telemetry is switched off.

    Mirrors the mutating half of :class:`MetricsRegistry` as no-ops and
    reads as empty, so optional instrumentation can hold one registry
    reference and never branch: ``registry.observe(...)`` costs one
    attribute lookup and a pass statement when disabled.
    """

    __slots__ = ()

    def declare(self, name, kind=SUM, absorbed=True) -> None:
        pass

    def __contains__(self, name) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def add(self, name, delta=1) -> None:
        pass

    def observe(self, name, value) -> None:
        pass

    def merge_value(self, name, value) -> None:
        pass

    def absorb(self, stats) -> None:
        pass

    def as_dict(self) -> dict:
        return {}

    def reset(self) -> None:
        pass


class MetricAttribute:
    """A class-level descriptor proxying one attribute into ``obj.metrics``.

    ``oracle.calls`` (attribute name) and ``"oracle_calls"`` (metric name)
    stay distinct, so public attribute spellings survive the registry
    refactor verbatim — including in-place ``+=`` and the scheduler's
    ``setattr`` counter folds.
    """

    __slots__ = ("metric",)

    def __init__(self, metric: str):
        self.metric = metric

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj.metrics.get(self.metric)

    def __set__(self, obj, value) -> None:
        obj.metrics.set(self.metric, value)
