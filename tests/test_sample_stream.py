"""The ``sample`` replacement stream, pinned draw for draw.

The golden fixture runs the deterministic ``mode`` policy only, so it cannot
see a change in how replacement values are drawn.  This module pins the
paper's own policy (Example 2.5: out-of-coalition cells are replaced with a
value sampled from their column distribution):

* repr-exact cell-Shapley values and standard errors under
  ``policy="sample"`` for both bundled black boxes, sequential
  (``n_jobs=None``) and sharded in-process (``n_jobs=1``), on La Liga and on
  La Liga with an extra all-null column (whose cells draw nothing);
* :meth:`ColumnStatistics.sample` against per-draw
  ``Generator.choice(k, p=w)`` over random count vectors, including after
  :meth:`~repro.dataset.table.Table.set_value` writes and on a view's
  marginal derived copy-on-write from the base's counts.

To print the pinned table after an *intentional* sampling change::

    PYTHONPATH=src python tests/test_sample_stream.py
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    BinaryRepairOracle,
    CellRef,
    CellShapleyExplainer,
    GreedyHolisticRepair,
    SimpleRuleRepair,
    Table,
    la_liga_constraints,
    la_liga_dirty_table,
)
from repro.engine.stats import ColumnStatistics

CELL_OF_INTEREST = CellRef(4, "Country")
PROBES = [CellRef(4, "City"), CellRef(0, "Country"), CellRef(5, "Team"),
          CellRef(2, "City")]
N_SAMPLES = 30
SAMPLES_PER_SHARD = 10
SEED = 11

ALGORITHMS = {
    "simple": SimpleRuleRepair,
    "greedy": lambda: GreedyHolisticRepair(max_changes=20),
}

TABLES = {
    "laliga": la_liga_dirty_table,
    # an extra column whose every cell is null: its replacements draw nothing
    "laliga+null": lambda: Table.from_columns({
        **{name: la_liga_dirty_table().column(name)
           for name in la_liga_dirty_table().attributes},
        "Coach": [None] * la_liga_dirty_table().n_rows,
    }),
}

N_JOBS = {"njobs=None": None, "njobs=1": 1}

#: key -> {cell: (value, standard_error)}, recorded with the per-cell
#: ``Generator.choice`` draws the sampler originally made
PINNED = {
    'laliga/simple/njobs=None': {
        't5[City]': (-6.0137080500529315e-18, 0.04794633014853841),
        't1[Country]': (0.13333333333333336, 0.06312427686319991),
        't6[Team]': (0.1666666666666667, 0.06920456654478331),
        't3[City]': (-0.03333333333333334, 0.03333333333333333),
    },
    'laliga/simple/njobs=1': {
        't5[City]': (0.0, 0.0),
        't1[Country]': (0.1, 0.05570860145311556),
        't6[Team]': (0.06666666666666667, 0.04632055558531008),
        't3[City]': (0.03333333333333334, 0.03333333333333334),
    },
    'laliga/greedy/njobs=None': {
        't5[City]': (-0.06666666666666667, 0.04632055558531008),
        't1[Country]': (0.0, 0.0),
        't6[Team]': (-0.03333333333333333, 0.03333333333333333),
        't3[City]': (0.033333333333333354, 0.05839487722243925),
    },
    'laliga/greedy/njobs=1': {
        't5[City]': (-0.06666666666666667, 0.04632055558531008),
        't1[Country]': (0.06666666666666668, 0.046320555585310084),
        't6[Team]': (0.0, 0.0),
        't3[City]': (0.0, 0.0),
    },
    'laliga+null/simple/njobs=None': {
        't5[City]': (-0.03333333333333333, 0.03333333333333333),
        't1[Country]': (0.06666666666666667, 0.04632055558531008),
        't6[Team]': (0.03333333333333335, 0.05839487722243925),
        't3[City]': (-0.03333333333333335, 0.05839487722243926),
    },
    'laliga+null/simple/njobs=1': {
        't5[City]': (0.03333333333333334, 0.03333333333333334),
        't1[Country]': (0.03333333333333333, 0.03333333333333333),
        't6[Team]': (0.0, 0.06780635036208103),
        't3[City]': (0.06666666666666667, 0.04632055558531008),
    },
    'laliga+null/greedy/njobs=None': {
        't5[City]': (-0.03333333333333334, 0.05839487722243925),
        't1[Country]': (0.0666666666666667, 0.04632055558531008),
        't6[Team]': (0.0, 0.0),
        't3[City]': (-0.033333333333333326, 0.05839487722243925),
    },
    'laliga+null/greedy/njobs=1': {
        't5[City]': (-0.06666666666666668, 0.0821175682735253),
        't1[Country]': (0.09999999999999999, 0.05570860145311556),
        't6[Team]': (-0.03333333333333334, 0.03333333333333334),
        't3[City]': (0.0, 0.0),
    },
}


def run_entry(table_name: str, algorithm_name: str, mode_name: str):
    oracle = BinaryRepairOracle(
        ALGORITHMS[algorithm_name](), la_liga_constraints(),
        TABLES[table_name](), CELL_OF_INTEREST,
    )
    with CellShapleyExplainer(
        oracle, policy="sample", rng=SEED, n_jobs=N_JOBS[mode_name],
        samples_per_shard=SAMPLES_PER_SHARD,
    ) as explainer:
        result = explainer.explain(cells=PROBES, n_samples=N_SAMPLES)
    return {str(cell): (result.values[cell], result.standard_errors[cell])
            for cell in PROBES}


ENTRIES = [(table_name, algorithm_name, mode_name)
           for table_name in TABLES for algorithm_name in ALGORITHMS
           for mode_name in N_JOBS]


@pytest.mark.parametrize("table_name,algorithm_name,mode_name", ENTRIES)
def test_sample_policy_values_are_pinned(table_name, algorithm_name, mode_name):
    key = f"{table_name}/{algorithm_name}/{mode_name}"
    assert run_entry(table_name, algorithm_name, mode_name) == PINNED[key]


# -- ColumnStatistics.sample ≡ per-draw Generator.choice (hypothesis) ---------------

def _statistics(counts: list[int]) -> ColumnStatistics:
    column = [f"v{i}" for i, count in enumerate(counts) for _ in range(count)]
    return ColumnStatistics(Table(["A"], [[value] for value in column]).store, "A")


def _choice_draws(stats: ColumnStatistics, seed: int, n: int) -> list:
    """The reference: one ``Generator.choice(k, p=w)`` per draw."""
    values = sorted((value for value, _ in stats.items()), key=repr)
    weights = np.array([stats.count(value) for value in values], dtype=float)
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    return [values[int(rng.choice(len(values), p=weights))] for _ in range(n)]


def _sample_draws(stats: ColumnStatistics, seed: int, n: int) -> list:
    return stats.sample(rng=np.random.default_rng(seed), size=n)


_counts = st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(counts=_counts, seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
def test_sample_draws_equal_per_draw_choice(counts, seed, n):
    stats = _statistics(counts)
    reference = _choice_draws(stats, seed, n)
    assert _sample_draws(stats, seed, n) == reference
    # one scalar draw per call consumes the same stream
    rng = np.random.default_rng(seed)
    assert [stats.sample(rng=rng) for _ in range(n)] == reference


@settings(max_examples=40, deadline=None)
@given(counts=_counts, seed=st.integers(0, 2**32 - 1),
       moves=st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=8))
def test_draws_after_update_and_fork_equal_a_fresh_build(counts, seed, moves):
    column = [f"v{i}" for i, count in enumerate(counts) for _ in range(count)]
    table = Table(["A"], [[value] for value in column])
    stats = table.stats.marginal("A")
    stats.sample(rng=0, size=3)  # whatever is cached must not outlive a move
    for old, new in moves:
        old_value = f"v{old}"
        if old_value not in column:
            continue
        row = column.index(old_value)
        column[row] = f"v{new}"
        table.set_value(row, "A", f"v{new}")
    fresh = ColumnStatistics(Table(["A"], [[value] for value in column]).store, "A")
    expected = _sample_draws(fresh, seed, 20)
    assert _sample_draws(stats, seed, 20) == expected
    # a view's marginal shares the base counts until it moves, and then
    # moves independently of them
    view = table.perturbed({})
    assert _sample_draws(view.stats.marginal("A"), seed, 20) == expected
    view.set_value(0, "A", "fresh-value")
    assert _sample_draws(ColumnStatistics(table.store, "A"), seed, 20) == expected


def test_sample_on_an_all_null_column_draws_nothing():
    stats = ColumnStatistics(Table(["A"], [[None], [None]]).store, "A")
    rng = np.random.default_rng(5)
    assert stats.sample(rng=rng) is None
    assert stats.sample(rng=rng, size=3) == [None] * 3
    assert rng.random() == np.random.default_rng(5).random()


if __name__ == "__main__":
    print("PINNED = {")
    for entry in ENTRIES:
        print(f"    {'/'.join(entry)!r}: {run_entry(*entry)!r},")
    print("}")
