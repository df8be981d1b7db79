"""Golden-determinism snapshot: cell-Shapley values pinned across the grid.

The evaluation engine (``engine="fast"`` against the ``"reference"``
rescan), the sharded scheduler and the warm worker pool are contractually
*invisible in the numbers*.  This test pins the actual numbers: the
cell-Shapley values of both bundled black boxes on both engines ×
``n_jobs`` ∈ {None, 1, 2 on the warm pool}, against a committed JSON fixture
(``tests/fixtures/golden_shapley.json``).  The fixture keys the engines by
their historical path names: ``full`` is the reference, ``paired_batched``
the fast engine.

Two invariants are asserted on top of the snapshot itself:

* ``n_jobs=1`` (in-process) ≡ ``n_jobs=2`` (warm pool), bit-for-bit (the
  sharded plan is worker-count- and pool-lifecycle-invariant);
* ``n_jobs=None`` is its own pinned stream (serial draws differ from the
  sharded partition by design — the fixture records both).

On failure the report names every drifted entry with its old and new value.
To regenerate after an *intentional* sampling change::

    PYTHONPATH=src python tests/test_golden_determinism.py --regenerate

(or set ``TREX_REGEN_GOLDEN=1`` for one pytest run).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from repro import (
    BinaryRepairOracle,
    CellRef,
    CellShapleyExplainer,
    GreedyHolisticRepair,
    RepairSession,
    SimpleRuleRepair,
    TRexConfig,
    la_liga_constraints,
    la_liga_dirty_table,
)

# the full grid spawns 2-worker pools for a third of its 30 entries: it runs in
# the dedicated CI soak job, not in every fast-set matrix job
pytestmark = [pytest.mark.parallel, pytest.mark.slow]

FIXTURE = Path(__file__).parent / "fixtures" / "golden_shapley.json"

CELL_OF_INTEREST = CellRef(4, "Country")
PROBES = [CellRef(4, "City"), CellRef(0, "Country")]
N_SAMPLES = 6
SAMPLES_PER_SHARD = 3
SEED = 23
POLICY = "mode"  # deterministic replacement values: drift means drift

#: fixture path name -> engine
ENGINE_PATHS = {
    "full": "reference",
    "paired_batched": "fast",
}

ALGORITHMS = {
    "simple": lambda engine: SimpleRuleRepair(engine=engine),
    "greedy": lambda engine: GreedyHolisticRepair(max_changes=20, engine=engine),
}

#: the scheduler/pool axis: mode name -> n_jobs
EXECUTION_MODES = {
    "njobs=None": None,
    "njobs=1": 1,
    "njobs=2/warm": 2,
}

#: the updated-session axis: a live session explains, takes this base-table
#: write mid-stream, and explains again — the post-update values are pinned
#: (and must equal a fresh session built on the post-update table)
UPDATE_CELL = CellRef(0, "City")
UPDATE_VALUE = "Seville"


def run_grid_entry(algorithm_name: str, path_name: str,
                   mode_name: str) -> dict[str, float]:
    oracle = BinaryRepairOracle(
        ALGORITHMS[algorithm_name](ENGINE_PATHS[path_name]),
        la_liga_constraints(), la_liga_dirty_table(), CELL_OF_INTEREST,
    )
    with CellShapleyExplainer(
        oracle, policy=POLICY, rng=SEED,
        n_jobs=EXECUTION_MODES[mode_name], samples_per_shard=SAMPLES_PER_SHARD,
    ) as explainer:
        result = explainer.explain(cells=PROBES, n_samples=N_SAMPLES)
    return {str(cell): value for cell, value in result.values.items()}


def run_updated_session_entry(algorithm_name: str, mode_name: str,
                              fresh: bool = False) -> dict[str, float]:
    """The updated-session axis: explain → base update → explain again.

    With ``fresh`` the session is built directly on the post-update table
    and explains once — the rebuild reference the live update path must
    reproduce bit for bit.
    """
    config = TRexConfig(seed=SEED, cell_samples=N_SAMPLES,
                        replacement_policy=POLICY,
                        n_jobs=EXECUTION_MODES[mode_name])
    table = la_liga_dirty_table()
    if fresh:
        table = table.with_values({UPDATE_CELL: UPDATE_VALUE})
    session = RepairSession(
        ALGORITHMS[algorithm_name]("fast"), la_liga_constraints(), table,
        cell_of_interest=CELL_OF_INTEREST, config=config,
    )
    with session:
        if not fresh:
            session.explain(n_samples=N_SAMPLES)
            session.update(UPDATE_CELL, UPDATE_VALUE)
        explanation = session.explain(n_samples=N_SAMPLES)
    values = explanation.cell_shapley.values
    return {str(cell): values[cell] for cell in PROBES}


def compute_grid() -> dict[str, dict[str, float]]:
    grid: dict[str, dict[str, float]] = {}
    for algorithm_name in ALGORITHMS:
        for path_name in ENGINE_PATHS:
            for mode_name in EXECUTION_MODES:
                key = f"{algorithm_name}/{path_name}/{mode_name}"
                grid[key] = run_grid_entry(algorithm_name, path_name, mode_name)
        for mode_name in EXECUTION_MODES:
            key = f"{algorithm_name}/updated_session/{mode_name}"
            grid[key] = run_updated_session_entry(algorithm_name, mode_name)
    return grid


def write_fixture(grid: dict) -> None:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "_comment": "Golden cell-Shapley values; regenerate with "
                    "`PYTHONPATH=src python tests/test_golden_determinism.py "
                    "--regenerate` after an intentional sampling change.",
        "config": {"probes": [str(cell) for cell in PROBES],
                   "n_samples": N_SAMPLES,
                   "samples_per_shard": SAMPLES_PER_SHARD,
                   "seed": SEED, "policy": POLICY},
        "values": grid,
    }
    FIXTURE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def grid():
    return compute_grid()


def test_worker_count_and_pool_lifecycle_are_invisible(grid):
    """njobs=1 (in-process) ≡ njobs=2 (warm pool), bit-for-bit, on every row."""
    for algorithm_name in ALGORITHMS:
        for path_name in ENGINE_PATHS:
            prefix = f"{algorithm_name}/{path_name}"
            assert grid[f"{prefix}/njobs=2/warm"] == grid[f"{prefix}/njobs=1"], \
                f"{prefix}/njobs=2/warm drifted from the in-process plan"


def test_updated_session_matches_fresh_rebuild(grid):
    """update() + explain() ≡ a fresh session on the post-update table.

    The live update path — delta-maintained detector/statistics/encoding,
    rebased caches, patched resident workers, selectively refreshed
    estimates — must be numerically invisible on every execution mode.
    """
    for algorithm_name in ALGORITHMS:
        for mode_name in EXECUTION_MODES:
            reference = run_updated_session_entry(
                algorithm_name, mode_name, fresh=True)
            key = f"{algorithm_name}/updated_session/{mode_name}"
            assert grid[key] == reference, \
                f"{key} drifted from the fresh post-update session"


def test_updated_session_worker_count_is_invisible(grid):
    """The updated-session axis obeys the njobs=1 ≡ njobs=2 invariant too."""
    for algorithm_name in ALGORITHMS:
        prefix = f"{algorithm_name}/updated_session"
        assert grid[f"{prefix}/njobs=2/warm"] == grid[f"{prefix}/njobs=1"], \
            f"{prefix}/njobs=2/warm drifted from the in-process plan"


def test_engine_paths_agree_per_execution_mode(grid):
    """Both engines yield the same values (per mode)."""
    for algorithm_name in ALGORITHMS:
        for mode_name in EXECUTION_MODES:
            suffix = f"{algorithm_name}/%s/{mode_name}"
            assert grid[suffix % "paired_batched"] == grid[suffix % "full"], \
                f"{suffix % 'paired_batched'} drifted from the full-rescan path"


def test_values_match_the_committed_golden_fixture(grid):
    if os.environ.get("TREX_REGEN_GOLDEN"):
        write_fixture(grid)
        pytest.skip(f"regenerated {FIXTURE}")
    assert FIXTURE.exists(), (
        f"golden fixture {FIXTURE} is missing — generate it with "
        "`PYTHONPATH=src python tests/test_golden_determinism.py --regenerate` "
        "and commit the file"
    )
    golden = json.loads(FIXTURE.read_text())["values"]
    drifted: list[str] = []
    for key in sorted(set(golden) | set(grid)):
        if key not in grid:
            drifted.append(f"  {key}: in fixture but no longer computed")
            continue
        if key not in golden:
            drifted.append(f"  {key}: computed but missing from fixture")
            continue
        for cell in sorted(set(golden[key]) | set(grid[key])):
            old = golden[key].get(cell)
            new = grid[key].get(cell)
            if old != new:
                drifted.append(f"  {key} :: {cell}: fixture={old!r} now={new!r}")
    assert not drifted, (
        "cell-Shapley values drifted from the golden fixture:\n"
        + "\n".join(drifted)
        + "\n\nIf this change is intentional, regenerate with\n"
        "  PYTHONPATH=src python tests/test_golden_determinism.py --regenerate\n"
        "and commit the updated fixture."
    )


def main(argv: "list[str]") -> int:
    if "--regenerate" not in argv:
        print(__doc__)
        return 2
    grid = compute_grid()
    write_fixture(grid)
    print(f"wrote {len(grid)} golden grid entries to {FIXTURE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
