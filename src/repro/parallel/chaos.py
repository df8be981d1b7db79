"""Seeded chaos schedules for the warm pool's fail-over.

PR 5's ``fault_injector`` hook is a bare callable — good for scripting one
targeted failure, clumsy for soak testing.  :class:`FaultPlan` generalises it
into a *deterministic schedule*: a set of :class:`FaultEvent` entries
addressed by ``(worker_index, round_index)``, each carrying the
:class:`~repro.parallel.job.WorkerFault` to inject at that coordinate.  A
plan is itself a valid ``fault_injector`` (it is callable with the same
signature), so it plugs straight into ``ShardedExplainScheduler``.

:meth:`FaultPlan.seeded` draws a randomized-but-reproducible schedule from a
``numpy`` generator: the same ``(seed, n_workers, n_rounds, rate)`` always
yields the same kill/hang/corrupt-reply sequence, which is what lets the
chaos soak replay the golden-determinism grid under fire and assert
bit-identical Shapley values — the repo's core invariant, tested under
every failure the pool fails over on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.parallel.job import WorkerFault

#: the fault vocabulary :meth:`FaultPlan.seeded` draws from, in draw order
#: (the order is part of the schedule's determinism contract)
FAULT_KINDS = ("kill", "hang", "corrupt")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: *this* worker, *this* round, *this* failure."""

    worker_index: int
    round_index: int
    fault: WorkerFault


class FaultPlan:
    """A deterministic schedule of worker faults, usable as a fault injector.

    At most one fault per ``(worker, round)`` coordinate — a later event for
    the same coordinate replaces the earlier one, mirroring how the pool
    delivers at most one fault per dispatch.  Coordinates beyond the plan's
    horizon simply return ``None``, so a plan built for ``n_rounds`` rounds
    is safe on jobs that run longer.
    """

    def __init__(self, events: "Iterable[FaultEvent | tuple]" = ()):
        self._events: dict[tuple[int, int], WorkerFault] = {}
        for event in events:
            if not isinstance(event, FaultEvent):
                event = FaultEvent(*event)
            self._events[(event.worker_index, event.round_index)] = event.fault

    def __call__(self, worker_index: int, round_index: int) -> WorkerFault | None:
        return self._events.get((worker_index, round_index))

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:  # an empty plan is still a valid injector
        return True

    def events(self) -> list[FaultEvent]:
        """All scheduled events, sorted by (round, worker) for reporting."""
        return [FaultEvent(worker, round_index, fault)
                for (worker, round_index), fault
                in sorted(self._events.items(), key=lambda item: item[0][::-1])]

    def count(self, kind: str) -> int:
        """How many scheduled events are of one :data:`FAULT_KINDS` kind."""
        predicate = {
            "kill": lambda fault: fault.die_after_shards is not None,
            "hang": lambda fault: fault.hang_seconds is not None,
            "corrupt": lambda fault: fault.corrupt_reply,
        }[kind]
        return sum(1 for fault in self._events.values() if predicate(fault))

    @classmethod
    def seeded(cls, seed: int, n_workers: int, n_rounds: int,
               rate: float = 0.25,
               kinds: Sequence[str] = FAULT_KINDS,
               hang_seconds: float = 30.0) -> "FaultPlan":
        """A reproducible random schedule over a ``workers × rounds`` grid.

        Each coordinate independently suffers a fault with probability
        ``rate``; the kind is drawn uniformly from ``kinds``.  ``kill``
        events die after 0 shards (so they fire even on one-shard
        assignments) and ``hang`` events sleep ``hang_seconds`` (pair the
        plan with a ``worker_timeout`` well below it).  The schedule depends
        only on the arguments — never on wall clock or global RNG state.
        """
        rng = np.random.default_rng(seed)
        faults = {
            "kill": lambda: WorkerFault(die_after_shards=0),
            "hang": lambda: WorkerFault(hang_seconds=hang_seconds),
            "corrupt": lambda: WorkerFault(corrupt_reply=True),
        }
        events = []
        for round_index in range(int(n_rounds)):
            for worker_index in range(int(n_workers)):
                if rng.random() < rate:
                    kind = kinds[int(rng.integers(len(kinds)))]
                    events.append(FaultEvent(worker_index, round_index,
                                             faults[kind]()))
        return cls(events)
