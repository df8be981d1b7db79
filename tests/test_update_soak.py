"""Update soak: 50 seeded update/explain cycles on a warm two-worker pool.

The acceptance bar for the live-update subsystem: a long-lived session
absorbing a stream of base-table writes must never rebuild a resident worker
stack after the first round — every update reaches the workers as an
in-place :func:`~repro.parallel.worker.run_base_update_worker` patch, so
``worker_rebuilds`` stays at exactly ``n_jobs`` (one build per worker,
ever) across all 50 cycles.  Spot rounds and the final state are checked
bit-identical against fresh sessions on the then-current table, and the
update counters must reconcile at the end.

The write stream is seeded: values are drawn from per-attribute pools with a
fixed generator, so every run walks the same 50-step trajectory.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CellRef,
    RepairSession,
    TRexConfig,
    la_liga_constraints,
    la_liga_dirty_table,
    paper_algorithm_1,
)

pytestmark = [pytest.mark.parallel, pytest.mark.slow]

CELL_OF_INTEREST = CellRef(4, "Country")
N_JOBS = 2
N_CYCLES = 50
N_SAMPLES = 4
SOAK_SEED = 4_2020

#: the soak writes only to rows/attributes that keep t5[Country] repaired,
#: so all 50 cycles exercise the refresh path (never the unrepair teardown)
WRITE_POOLS = {
    ("City", 0): ["Barcelona", "Seville", "Girona"],
    ("City", 1): ["Madrid", "Barcelona", "Toledo"],
    ("Country", 0): ["Spain", "Portugal"],
    ("Year", 3): [2019, 2018, 2016, None],
    ("Place", 2): [2, 4, 5],
}
#: cycles whose post-update explanation is compared against a fresh session
#: (every cycle would square the soak's cost; the ends and a midpoint do)
SPOT_CHECKS = frozenset({0, 24, N_CYCLES - 1})


def _key(explanation):
    cells = explanation.cell_shapley
    return sorted((str(cell), value, cells.standard_errors[cell])
                  for cell, value in cells.values.items())


def _config():
    return TRexConfig(seed=SOAK_SEED, cell_samples=N_SAMPLES,
                      replacement_policy="sample", n_jobs=N_JOBS)


def _fresh_key(table):
    session = RepairSession(paper_algorithm_1(), la_liga_constraints(), table,
                            cell_of_interest=CELL_OF_INTEREST,
                            config=_config())
    with session:
        return _key(session.explain())


def test_fifty_update_cycles_zero_rebuilds_after_round_one():
    rng = np.random.default_rng(SOAK_SEED)
    slots = sorted(WRITE_POOLS)
    table = la_liga_dirty_table()
    session = RepairSession(paper_algorithm_1(), la_liga_constraints(), table,
                            cell_of_interest=CELL_OF_INTEREST,
                            config=_config())
    with session:
        session.explain()  # round one: both workers build their stacks
        oracle = session._live.oracle
        assert oracle.statistics()["worker_rebuilds"] == N_JOBS
        for cycle in range(N_CYCLES):
            attribute, row = slots[int(rng.integers(len(slots)))]
            pool = WRITE_POOLS[(attribute, row)]
            value = pool[int(rng.integers(len(pool)))]
            session.update(CellRef(row, attribute), value)
            explanation = session.explain()
            if cycle in SPOT_CHECKS:
                assert _key(explanation) == _fresh_key(table.copy()), \
                    f"cycle {cycle} drifted from a fresh session"
        statistics = oracle.statistics()
    # the headline: zero stack rebuilds after round one — every one of the
    # 50 updates was absorbed by an in-place worker patch
    assert statistics["worker_rebuilds"] == N_JOBS
    assert statistics["pool_failovers"] == 0
    # counter reconciliation: no-op draws (value already in place) are
    # logged but not applied, so applied == cells actually written
    assert statistics["base_updates_applied"] == len(session.update_log) \
        - sum(1 for delta in session.update_log if len(delta) == 0)
    assert len(session.update_log) == N_CYCLES
    assert statistics["base_updates_applied"] > 0
    assert session.update_log.cells_written \
        == statistics["base_updates_applied"]
