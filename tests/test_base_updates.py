"""Live base-table updates: the update-path ≡ fresh-rebuild equivalence suite.

The contract of :meth:`repro.explain.session.RepairSession.update` is exact:
applying base-table writes to a live session — delta-maintained violation
detector, statistics, encodings, rebased oracle caches, patched
resident workers, selectively refreshed Shapley estimates — and then
explaining must be **bit-identical** to building a fresh session on the
post-update table.  This module property-tests that invariant over random
single- and multi-cell update sequences (values that create, resolve and
move violations between constraint groups, null writes, no-op writes) and
over both engines, and pins the satellite regressions: a base
mutation must invalidate the cached table fingerprint and the lazily-built
column null masks.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    BaseCellUpdate,
    BaseUpdateDelta,
    BinaryRepairOracle,
    CellRef,
    CellShapleyExplainer,
    NotRepairedError,
    RepairSession,
    SimpleRuleRepair,
    TRexConfig,
    la_liga_constraints,
    la_liga_dirty_table,
    paper_algorithm_1,
)
from repro.config import make_rng
from repro.shapley.convergence import RunningMean

CELL = CellRef(4, "Country")
N_SAMPLES = 8
SEED = 17

#: per-attribute value pools for random updates: existing column values (the
#: moves), values from other groups (the creates), novel values, and nulls
VALUE_POOLS = {
    "Team": ["FC Barcelona", "Real Madrid", "Liverpool", "Valencia CF", None],
    "City": ["Barcelona", "Madrid", "Liverpool", "Capital", "Seville", None],
    "Country": ["Spain", "England", "España", "Portugal", None],
    "League": ["La Liga", "Premier League", "Serie A", None],
    "Year": [2016, 2017, 2018, 2019, None],
    "Place": [1, 2, 3, 4, None],
}

ATTRIBUTES = list(VALUE_POOLS)
N_ROWS = 6

#: the engine axis of the grids below: "fast" runs views, the code-array
#: repair walk and derived view statistics; "reference" materialises every
#: instance and rescans it, under session.update() too
ENGINES = ["fast", "reference"]
#: the axis's test ids: the fast engine repairs on the code-array walk
#: ("vec"), the reference builds no code arrays ("novec")
ENGINE_IDS = ["vec", "novec"]


def _session(table, config, engine="fast"):
    return RepairSession(paper_algorithm_1(engine=engine), la_liga_constraints(),
                         table, cell_of_interest=CELL, config=config)


def _explain_key(explanation):
    """The equivalence contract: per-cell (value, stderr, n) + constraint part."""
    cells = explanation.cell_shapley
    return (
        sorted((str(cell), value, cells.standard_errors[cell])
               for cell, value in cells.values.items()),
        cells.n_samples,
        sorted((name, value)
               for name, value in explanation.constraint_shapley.values.items()),
    )


def _fresh_key(table, config, engine="fast"):
    """Explain on a fresh session over ``table``; None if the cell of
    interest is not repaired there."""
    session = _session(table, config, engine)
    with session:
        try:
            return _explain_key(session.explain(n_samples=N_SAMPLES))
        except NotRepairedError:
            return None


@st.composite
def update_batches(draw):
    """1–3 update batches of 1–2 cell writes each."""
    n_batches = draw(st.integers(min_value=1, max_value=3))
    batches = []
    for _ in range(n_batches):
        n_cells = draw(st.integers(min_value=1, max_value=2))
        batch = {}
        for _ in range(n_cells):
            attribute = draw(st.sampled_from(ATTRIBUTES))
            row = draw(st.integers(min_value=0, max_value=N_ROWS - 1))
            value = draw(st.sampled_from(VALUE_POOLS[attribute]))
            batch[CellRef(row, attribute)] = value
        batches.append(batch)
    return batches


@settings(max_examples=12, deadline=None)
@given(
    batches=update_batches(),
    policy=st.sampled_from(["sample", "null", "mode"]),
    n_jobs=st.sampled_from([None, 1]),
    engine=st.sampled_from(ENGINES),
    explain_between=st.booleans(),
)
def test_update_sequences_match_fresh_rebuild(batches, policy, n_jobs,
                                              engine, explain_between):
    """Random update sequences: live path ≡ fresh session on the final table.

    Covers updates that create violations (novel values against an FD
    group), resolve them (writing the clean value back), move rows between
    constraint groups (existing values from other groups), null writes and
    no-op writes — whatever the draw produces, the post-update explanation
    must be what a fresh session computes, or both sides must agree the cell
    of interest is no longer repaired.
    """
    config = TRexConfig(seed=SEED, cell_samples=N_SAMPLES,
                        replacement_policy=policy, n_jobs=n_jobs)
    live = _session(la_liga_dirty_table(), config, engine)
    final = la_liga_dirty_table()
    with live:
        live.explain(n_samples=N_SAMPLES)
        for batch in batches:
            live.update_many(batch)
            final = final.with_values(batch)
            if explain_between:
                try:
                    live.explain(n_samples=N_SAMPLES)
                except NotRepairedError:
                    pass
        try:
            live_key = _explain_key(live.explain(n_samples=N_SAMPLES))
        except NotRepairedError:
            live_key = None
    assert live_key == _fresh_key(final, config, engine)


# -- the n_jobs=2 warm-pool grid (one deterministic sequence) -------------------------

#: a sequence exercising violation creation (Portugal against the La Liga
#: C3 group), group moves (row 1 City Madrid → Barcelona) and a null write
POOL_SEQUENCE = [
    {CellRef(0, "Country"): "Portugal"},
    {CellRef(1, "City"): "Barcelona", CellRef(3, "Year"): None},
    {CellRef(0, "Country"): "Spain"},
]


@pytest.mark.parallel
@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_update_sequence_on_two_workers(engine):
    config = TRexConfig(seed=SEED, cell_samples=N_SAMPLES, n_jobs=2)
    live = _session(la_liga_dirty_table(), config, engine)
    final = la_liga_dirty_table()
    with live:
        live.explain(n_samples=N_SAMPLES)
        for batch in POOL_SEQUENCE:
            live.update_many(batch)
            final = final.with_values(batch)
        live_key = _explain_key(live.explain(n_samples=N_SAMPLES))
        oracle = live._live.oracle
        assert oracle.base_updates_applied == len(POOL_SEQUENCE)
    assert live_key == _fresh_key(final, config, engine)


@pytest.mark.parallel
def test_warm_workers_are_patched_not_rebuilt():
    """Across explain/update rounds each warm worker builds its stack once."""
    config = TRexConfig(seed=SEED, cell_samples=N_SAMPLES, n_jobs=2)
    live = _session(la_liga_dirty_table(), config)
    with live:
        live.explain(n_samples=N_SAMPLES)
        for batch in POOL_SEQUENCE:
            live.update_many(batch)
            live.explain(n_samples=N_SAMPLES)
        statistics = live._live.oracle.statistics()
    assert statistics["worker_rebuilds"] == 2  # one build per worker, ever


# -- the oracle-level engine grid ----------------------------------------------------

def _sequential_estimates(explainer, cells, n_samples, batched, paired):
    """Estimate ``cells`` by driving one oracle entry point on the sampler's
    draws: ``query_pairs`` over all of a cell's pairs (batched, paired), a
    ``query_pair`` loop (unbatched, paired), or ``query_table`` per instance
    (unpaired; batched queries every with-instance before the without-ones).
    Each memoises under its own key shape — pair-memo, fingerprint-pair and
    single-instance keys — so each exercises its own part of the rebase."""
    explainer.sampler.reseed(make_rng(SEED))
    oracle = explainer.oracle
    out = {}
    for cell in cells:
        pairs = [explainer.sampler.sample_pair(cell) for _ in range(n_samples)]
        if paired and batched:
            answers = oracle.query_pairs(pairs)
        elif paired:
            answers = [oracle.query_pair(oracle.constraints, with_cell, without_cell)
                       for with_cell, without_cell in pairs]
        elif batched:
            answers = list(zip([oracle.query_table(with_cell) for with_cell, _ in pairs],
                               [oracle.query_table(without_cell) for _, without_cell in pairs]))
        else:
            answers = [(oracle.query_table(with_cell), oracle.query_table(without_cell))
                       for with_cell, without_cell in pairs]
        tracker = RunningMean()
        for value_with, value_without in answers:
            tracker.update(float(value_with - value_without))
        out[cell] = (tracker.mean, tracker.standard_error, tracker.count)
    return out


@pytest.mark.parametrize("paired", [True, False], ids=["paired", "unpaired"])
@pytest.mark.parametrize("batched", [True, False], ids=["batched", "unbatched"])
@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_oracle_apply_base_update_across_flag_grid(paired, batched, engine):
    """``BinaryRepairOracle.apply_base_update`` preserves estimates across the
    engine × query-path grid (the cache-rebase key shapes differ per
    combination: pair-memo, fingerprint-pair and single-instance keys, over
    views on the fast engine and materialised tables on the reference)."""
    probes = [CellRef(4, "City"), CellRef(0, "Country"), CellRef(2, "City")]
    updates = {CellRef(0, "City"): "Seville", CellRef(1, "Country"): None}
    constraints = la_liga_constraints()
    algorithm = SimpleRuleRepair(engine=engine)
    updated = la_liga_dirty_table().with_values(updates)
    new_target = algorithm.repair(constraints, updated).clean[CELL]

    live_oracle = BinaryRepairOracle(algorithm, constraints, la_liga_dirty_table(), CELL)
    live = CellShapleyExplainer(live_oracle, policy="mode", rng=SEED)
    _sequential_estimates(live, probes, N_SAMPLES, batched, paired)  # warm the memo first
    table = live_oracle.dirty_table
    delta = BaseUpdateDelta(
        updates=tuple(BaseCellUpdate(cell=cell, old_value=table[cell],
                                     new_value=value)
                      for cell, value in updates.items()),
        target_value=new_target,
    )
    assert live_oracle.apply_base_update(delta) == len(updates)
    assert live_oracle.base_updates_applied == 1
    live.sampler.invalidate_overlay()
    after = _sequential_estimates(live, probes, N_SAMPLES, batched, paired)

    fresh_oracle = BinaryRepairOracle(algorithm, constraints, updated, CELL)
    fresh = CellShapleyExplainer(fresh_oracle, policy="mode", rng=SEED)
    assert after == _sequential_estimates(fresh, probes, N_SAMPLES, batched, paired)


# -- targeted violation lifecycle cases ----------------------------------------------

@pytest.mark.parametrize("updates", [
    {CellRef(0, "Country"): "Portugal"},            # creates C2/C3 violations
    {CellRef(1, "City"): "Barcelona"},              # moves row between C2 groups
    {CellRef(3, "League"): "La Liga"},              # merges C3/C4 groups
    {CellRef(4, "City"): "Madrid"},                 # resolves the C1 violation
    {CellRef(4, "City"): "Capital"},                # no-op write (same value)
], ids=["create", "move", "merge", "resolve", "noop"])
def test_violation_lifecycle_updates_match_fresh(updates):
    config = dict(seed=SEED, cell_samples=N_SAMPLES)
    live = _session(la_liga_dirty_table(), TRexConfig(**config))
    with live:
        live.explain(n_samples=N_SAMPLES)
        step = live.update_many(updates)
        try:
            live_key = _explain_key(live.explain(n_samples=N_SAMPLES))
        except NotRepairedError:
            live_key = None
    final = la_liga_dirty_table().with_values(updates)
    assert live_key == _fresh_key(final, TRexConfig(**config))
    assert step.action == "update"


def test_noop_update_invalidates_nothing():
    config = TRexConfig(seed=SEED, cell_samples=N_SAMPLES)
    live = _session(la_liga_dirty_table(), config)
    with live:
        first = live.explain(n_samples=N_SAMPLES)
        live.update(CellRef(4, "City"), "Capital")  # value already there
        oracle = live._live.oracle
        assert oracle.base_updates_applied == 0
        assert oracle.estimates_invalidated == 0
        assert not live._live.pending
        second = live.explain(n_samples=N_SAMPLES)
    assert _explain_key(first) == _explain_key(second)
    assert len(live.update_log) == 1 and live.update_log.cells_written == 0


def test_update_that_unrepairs_the_cell_of_interest():
    """Writing the clean values back un-repairs t5[Country]; the live session
    must then behave exactly like a fresh one: NotRepairedError on explain."""
    config = TRexConfig(seed=SEED, cell_samples=N_SAMPLES)
    live = _session(la_liga_dirty_table(), config)
    with live:
        live.explain(n_samples=N_SAMPLES)
        live.update_many({CellRef(4, "City"): "Madrid",
                          CellRef(4, "Country"): "Spain"})
        assert live._live is None  # the live state had nothing left to serve
        with pytest.raises(NotRepairedError):
            live.explain(n_samples=N_SAMPLES)


# -- satellite regressions: mutation must invalidate derived caches ------------------

def test_set_value_invalidates_cached_fingerprint():
    table = la_liga_dirty_table()
    before = table.fingerprint()
    table.set_value(0, "City", "Seville")
    after = table.fingerprint()
    assert before != after, "stale fingerprint survived a base mutation"
    rebuilt = la_liga_dirty_table().with_values({CellRef(0, "City"): "Seville"})
    assert after == rebuilt.fingerprint(), "fingerprint is content-addressed"
    # and a no-op roundtrip restores the original content fingerprint
    table.set_value(0, "City", "Barcelona")
    assert table.fingerprint() == la_liga_dirty_table().fingerprint()


def test_set_value_invalidates_cached_null_masks():
    table = la_liga_dirty_table()
    store = table._store
    mask = store.null_mask("City")
    assert not mask.any()
    table.set_value(2, "City", None)
    fresh_mask = store.null_mask("City")
    assert fresh_mask is not mask, "stale null mask survived a base mutation"
    assert fresh_mask[2] and fresh_mask.sum() == 1
    table.set_value(2, "City", "Madrid")
    assert not store.null_mask("City").any()
    # masks of untouched columns survive (no gratuitous rebuilds)
    country = store.null_mask("Country")
    table.set_value(2, "City", "Seville")
    assert store.null_mask("Country") is country
