"""Live base-table updates: the update-path ≡ fresh-rebuild equivalence suite.

The contract of :meth:`repro.explain.session.RepairSession.update` is exact:
applying base-table writes to a live session — delta-maintained violation
detector, statistics, encodings, oracle caches kept across updates,
patched resident workers, selectively refreshed Shapley estimates — and then
explaining must be **bit-identical** to building a fresh session on the
post-update table.  This module property-tests that invariant over random
single- and multi-cell update sequences (values that create, resolve and
move violations between constraint groups, null writes, no-op writes) and
over both engines, and pins the regressions the kept caches rest on: a
base mutation must invalidate the cached table fingerprint (of the table and
of every view over it) and the lazily-built column null masks, and a
fingerprint must name content, before and after a pickle round trip.
"""

from __future__ import annotations

import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    BaseCellUpdate,
    BaseUpdateDelta,
    BinaryRepairOracle,
    CellRef,
    CellShapleyExplainer,
    ErrorInjector,
    ErrorSpec,
    HospitalGenerator,
    NotRepairedError,
    RepairSession,
    SimpleRuleRepair,
    Table,
    TRExExplainer,
    TRexConfig,
    la_liga_constraints,
    la_liga_dirty_table,
    paper_algorithm_1,
    parse_dcs,
)
from repro.config import make_rng
from repro.engine.storage import Fingerprint, values_differ
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
    single-instance keys — and each must keep answering correctly with its
    pre-update entries still cached."""
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
    engine × query-path grid (the cache key shapes differ per combination:
    pair-memo, fingerprint-pair and single-instance keys, over views on the
    fast engine and materialised tables on the reference; the pre-update
    entries stay cached)."""
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


# -- kept caches: an undo finds its answers, a key always names its content ---------

@pytest.mark.parametrize("policy", ["sample", "mode"])
@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_undo_refresh_runs_no_repairs(engine, policy):
    """explain, write, explain, undo, explain: the last refresh re-derives the
    set-up explain's samples on the set-up table, whose answers the oracle
    cache kept through both updates — so it runs no repair and reproduces
    the set-up values and standard errors."""
    cell, value = CellRef(0, "City"), "Seville"
    config = TRexConfig(seed=SEED, cell_samples=N_SAMPLES, replacement_policy=policy)
    live = _session(la_liga_dirty_table(), config, engine)
    with live:
        first = live.explain(n_samples=N_SAMPLES)
        original = live.state.dirty_table[cell]
        live.update(cell, value)
        live.explain(n_samples=N_SAMPLES)
        live.update(cell, original)
        oracle, constraint_oracle = live._live.oracle, live._live.constraint_oracle
        assert oracle.statistics()["cache_entries_invalidated"] == 0
        assert live._live.pending, "the undo left nothing to refresh"
        runs = oracle.statistics()["repair_runs"]
        constraint_runs = constraint_oracle.repair_runs
        last = live.explain(n_samples=N_SAMPLES)
        assert oracle.statistics()["repair_runs"] == runs
        assert constraint_oracle.repair_runs == constraint_runs
        # an explain with no update in between repairs nothing in either game
        again = live.explain(n_samples=N_SAMPLES)
        assert oracle.repair_runs == runs
        assert constraint_oracle.repair_runs == constraint_runs
        assert again.oracle_statistics["constraints"]["repair_runs"] == constraint_runs
    assert last.cell_shapley.values == first.cell_shapley.values
    assert last.cell_shapley.standard_errors == first.cell_shapley.standard_errors
    assert last.constraint_shapley.values == first.constraint_shapley.values
    assert _explain_key(again) == _explain_key(last)


@pytest.mark.parallel
@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_undo_refresh_on_two_workers_runs_no_repairs(engine):
    """A partial undo refresh on the warm pool sends each shard back to the
    worker that ran it at set-up, whose resident cache holds its answers."""
    cell, value = CellRef(0, "City"), "Seville"
    config = TRexConfig(seed=SEED, cell_samples=1, replacement_policy="mode", n_jobs=2)
    live = _session(la_liga_dirty_table(), config, engine)
    with live:
        first = live.explain()
        original = live.state.dirty_table[cell]
        live.update(cell, value)
        live.explain()
        live.update(cell, original)
        pending = set(live._live.pending)
        assert pending and pending < set(live._live.cells)
        oracle = live._live.oracle
        runs = oracle.repair_runs
        last = live.explain()
        assert oracle.repair_runs == runs
        assert oracle.worker_rebuilds == 2
    assert _explain_key(last) == _explain_key(first)


# -- equal base fingerprints are one object ------------------------------------------

def test_an_undone_write_returns_the_earlier_fingerprint_object():
    table = la_liga_dirty_table()
    before = table.fingerprint()
    table.set_value(0, "City", "Seville")
    written = table.fingerprint()
    table.set_value(0, "City", "Barcelona")
    assert table.fingerprint() is before
    table.set_value(0, "City", "Seville")
    assert table.fingerprint() is written
    # a write undone with no lookup in between
    table.set_value(0, "City", "Madrid")
    table.set_value(0, "City", "Seville")
    assert table.fingerprint() is written
    table.set_value(1, "City", "Seville")
    assert table.fingerprint() not in (before, written)


@pytest.mark.parallel
def test_merged_worker_keys_share_the_parent_base_fingerprint():
    """Keys replayed from worker cache diffs name the parent's base
    fingerprint object, also for entries of a state an undo returned to."""
    cell = CellRef(0, "City")
    config = TRexConfig(seed=SEED, cell_samples=2, replacement_policy="mode", n_jobs=2)
    live = _session(la_liga_dirty_table(), config)
    with live:
        live.explain()
        original = live.state.dirty_table[cell]
        live.update(cell, "Seville")
        live.explain()
        live.update(cell, original)
        live.explain()
        base = live.state.dirty_table.fingerprint()
        named = 0
        for key, _ in live._live.oracle.cache.entries():
            for part in key:
                if isinstance(part, Fingerprint):
                    inner = part.data[1] if part.data[:1] == ("overlay",) else part
                    if inner == base:
                        assert inner is base
                        named += 1
    assert named > 0


# -- the kept constraint game -------------------------------------------------------

def _laliga(engine):
    return (paper_algorithm_1(engine=engine), la_liga_constraints(),
            la_liga_dirty_table(), CELL)


def _hospital(engine, rows=10):
    """A generated hospital table (10 rows by default) with injected errors."""
    dataset = HospitalGenerator(seed=3).generate(rows)
    dirty, _ = ErrorInjector(ErrorSpec(rate=0.1), seed=5).inject(dataset.table)
    constraints = parse_dcs(list(dataset.constraint_texts))
    algorithm = SimpleRuleRepair(engine=engine)
    return algorithm, constraints, dirty, algorithm.repair(constraints, dirty).delta.cells()[0]


FAMILIES = {"laliga": _laliga, "hospital": _hospital}
#: the revisit grid's families: a 6-row hospital table keeps its per-step
#: fresh sessions cheap (48 relevant cells instead of 80)
REVISIT_FAMILIES = {"laliga": _laliga, "hospital": lambda engine: _hospital(engine, rows=6)}


def _value_pools(table):
    """Per-attribute write pools over ``table``: its own values and a novel one."""
    return {attribute: sorted({repr(value): value for value in table.column(attribute)}
                              .values(), key=repr) + ["novel"]
            for attribute in table.attributes}


def _constraint_values(explain):
    try:
        return explain().constraint_shapley.values
    except NotRepairedError:
        return None


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=6, deadline=None)
@given(data=st.data(), engine=st.sampled_from(ENGINES),
       n_jobs=st.sampled_from([None, 2]))
def test_live_constraint_game_equals_a_fresh_one(family, data, engine, n_jobs):
    """Write/undo sequences: after every update the live session's constraint
    values equal a fresh explainer's on a copy of the current table."""
    algorithm, constraints, table, cell = FAMILIES[family](engine)
    config = TRexConfig(seed=SEED, cell_samples=1, replacement_policy="mode",
                        n_jobs=n_jobs)
    pools = _value_pools(table)
    undo: list = []
    session = RepairSession(algorithm, constraints, table, cell_of_interest=cell,
                            config=config)
    with session:
        session.explain()
        for _ in range(data.draw(st.integers(min_value=1, max_value=4), label="updates")):
            if undo and data.draw(st.booleans(), label="undo"):
                target, value = undo.pop()
            else:
                target = CellRef(
                    data.draw(st.integers(min_value=0, max_value=table.n_rows - 1)),
                    data.draw(st.sampled_from(table.attributes)))
                value = data.draw(st.sampled_from(pools[target.attribute]))
                undo.append((target, session.state.dirty_table[target]))
            session.update(target, value)
            fresh = TRExExplainer(FAMILIES[family](engine)[0], constraints,
                                  session.state.dirty_table.copy(), config)
            assert _constraint_values(session.explain) == _constraint_values(
                lambda: fresh.explain_constraints(cell))


# -- kept explanations: a revisited table state re-samples nothing ------------------

def _oracle_work(session):
    """Calls on both live oracles and scheduler rounds run so far."""
    live = session._live
    return (live.oracle.calls, live.constraint_oracle.calls,
            sum(len(scheduler.round_log)
                for scheduler in live.explainer._schedulers.values()))


@pytest.mark.parametrize("n_jobs", [None, pytest.param(2, marks=pytest.mark.parallel)],
                         ids=["sequential", "two-workers"])
@pytest.mark.parametrize("family", sorted(REVISIT_FAMILIES))
@settings(max_examples=4, deadline=None)
@given(data=st.data(), engine=st.sampled_from(ENGINES),
       policy=st.sampled_from(["null", "mode", "sample"]))
def test_revisited_states_sample_nothing_and_equal_fresh(family, n_jobs, data,
                                                         engine, policy):
    """Write/undo/redo sequences: after every update the live explanation
    equals a fresh session's on a copy of the current table, and on a state
    the live state already explained neither oracle is called and no
    scheduler round runs."""
    algorithm, constraints, table, cell = REVISIT_FAMILIES[family](engine)
    config = TRexConfig(seed=SEED, cell_samples=2, replacement_policy=policy,
                        n_jobs=n_jobs)

    def key(session):
        try:
            return _explain_key(session.explain())
        except NotRepairedError:
            return None

    pools = _value_pools(table)
    original = table.copy()
    undo: list = []
    redo: list = []
    session = RepairSession(algorithm, constraints, table, cell_of_interest=cell,
                            config=config)
    with session:
        session.explain()
        live, explained = session._live, {tuple(_content(table))}

        def update_and_check(writes):
            nonlocal live, explained
            session.update_many(writes)
            if session._live is not live:  # torn down: nothing is kept
                live, explained = session._live, set()
            revisit = live is not None and tuple(_content(table)) in explained
            before = _oracle_work(session) if revisit else None
            got = key(session)
            if revisit:
                assert _oracle_work(session) == before
            if got is not None:
                live = session._live
                explained.add(tuple(_content(table)))
            fresh = RepairSession(REVISIT_FAMILIES[family](engine)[0], constraints,
                                  table.copy(), cell_of_interest=cell, config=config)
            with fresh:
                assert got == key(fresh)

        for _ in range(data.draw(st.integers(min_value=2, max_value=4), label="updates")):
            step = data.draw(st.sampled_from(["write", "undo", "redo"]), label="step")
            if step == "undo" and undo:
                target, value = undo.pop()
                redo.append((target, table[target]))
            elif step == "redo" and redo:
                target, value = redo.pop()
                undo.append((target, table[target]))
            else:
                target = CellRef(
                    data.draw(st.integers(min_value=0, max_value=table.n_rows - 1)),
                    data.draw(st.sampled_from(table.attributes)))
                value = data.draw(st.sampled_from(pools[target.attribute]))
                undo.append((target, table[target]))
                redo.clear()
            update_and_check({target: value})
        # end on the set-up table, a state every sequence revisits
        update_and_check({cell_ref: original[cell_ref] for cell_ref in original.cells()
                          if values_differ(table[cell_ref], original[cell_ref])})


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_a_state_dropped_from_the_kept_states_resamples_and_equals_fresh(engine):
    """After more than ``KEPT_STATES`` distinct states the set-up state is no
    longer kept: returning to it re-samples, and still equals a fresh
    session, while a recent state is still filled from its kept entry."""
    from repro.explain.live import KEPT_STATES

    place = CellRef(0, "Place")
    config = TRexConfig(seed=SEED, cell_samples=N_SAMPLES, replacement_policy="null")
    live = _session(la_liga_dirty_table(), config, engine)
    with live:
        first = live.explain(n_samples=N_SAMPLES)
        original = live.state.dirty_table[place]
        for value in range(100, 100 + KEPT_STATES):
            live.update(place, value)
            live.explain(n_samples=N_SAMPLES)
        state = live._live
        assert len(state.kept) == KEPT_STATES
        live.update(place, 100)  # the oldest state still kept
        calls, restored = state.oracle.calls, state.oracle.estimates_restored
        live.explain(n_samples=N_SAMPLES)
        assert state.oracle.calls == calls
        assert state.oracle.estimates_restored > restored
        live.update(place, original)  # dropped: re-sampled
        restored = state.oracle.estimates_restored
        again = live.explain(n_samples=N_SAMPLES)
        assert state.oracle.calls > calls
        assert state.oracle.estimates_restored == restored
        assert live._live is state
    assert _explain_key(again) == _explain_key(first)
    assert _explain_key(again) == _fresh_key(la_liga_dirty_table(), config, engine)


def test_a_deadline_cut_refresh_stays_pending_until_it_completes():
    """A refresh the deadline cut short is neither final nor kept: once the
    budget is lifted, the next explain re-samples the short cells and the
    result is complete and equal to a fresh session's."""
    write = {CellRef(0, "City"): "Seville"}
    config = dict(seed=SEED, cell_samples=N_SAMPLES, replacement_policy="null",
                  n_jobs=1)
    live = _session(la_liga_dirty_table(), TRexConfig(deadline_seconds=0, **config))
    with live:
        cut = live.explain(n_samples=N_SAMPLES)
        state = live._live
        assert not cut.cell_shapley.completed
        assert state.pending == set(state.cells) and not state.kept
        state.explainer._scheduler(1).deadline_seconds = None
        live.update_many(write)
        refreshed = live.explain(n_samples=N_SAMPLES)
        assert live._live is state and not state.pending
    assert refreshed.cell_shapley.completed
    assert _explain_key(refreshed) == _fresh_key(
        la_liga_dirty_table().with_values(write), TRexConfig(**config))


def test_a_changed_deadline_rebuilds_the_live_state():
    """``deadline_seconds`` is read when the live state is built, so a changed
    session config must rebuild the state rather than be ignored."""
    live = _session(la_liga_dirty_table(), TRexConfig(seed=SEED, n_jobs=1))
    with live:
        assert live.explain(n_samples=N_SAMPLES).cell_shapley.completed
        state = live._live
        live.config.deadline_seconds = 0
        cut = live.explain(n_samples=N_SAMPLES)
        assert live._live is not state
    assert not cut.cell_shapley.completed


NAN = float("nan")
#: base and view write pools of the two-column table below: its own values,
#: values new to the dictionary, NULL and NaN
KEY_VALUES = {"A": ["u", "v", "w", "novel", None, NAN],
              "B": [1, 2, 3, 99, None, NAN]}
KEY_ROWS = 4


@st.composite
def _write(draw):
    """One ``(row, attribute, value)`` cell write over the key table."""
    attribute = draw(st.sampled_from(sorted(KEY_VALUES)))
    return (draw(st.integers(min_value=0, max_value=KEY_ROWS - 1)), attribute,
            draw(st.sampled_from(KEY_VALUES[attribute])))


_writes = st.lists(_write(), max_size=3)


def _content(table):
    return [table.value(row, attribute)
            for attribute in table.attributes for row in range(table.n_rows)]


def _assert_keys_name_content(views):
    """Two views' keys are equal iff their contents are, also when one of the
    keys crossed a pickle boundary, as a worker's cache diff ships it."""
    travelled = pickle.loads(pickle.dumps([view.fingerprint() for view in views]))
    for (i, left), right in itertools.product(enumerate(views), views):
        same = left.equals(right)
        assert (left.fingerprint() == right.fingerprint()) == same
        assert (travelled[i] == right.fingerprint()) == same


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_view_fingerprints_are_content_keys_across_base_writes(data):
    """Sibling views over the current base have equal fingerprints iff they
    have equal contents, also after a pickle round trip; a view read before
    and after a base write gets a new key unless the write left its content
    unchanged (base writes include undoing an earlier one, NULL, NaN and
    values new to the dictionary)."""
    table = Table(["A", "B"], [("u", 1), ("v", 2), ("w", 3), ("u", 2)])
    table.stats.marginal("A")  # built statistics and code arrays follow the writes
    original = {(row, attribute): table.value(row, attribute)
                for row in range(KEY_ROWS) for attribute in KEY_VALUES}
    live = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=4), label="rounds")):
        def assignments():
            return {CellRef(row, attribute): value
                    for row, attribute, value in data.draw(_writes)}

        views = [table.perturbed(assignments()) for _ in range(3)]
        views.append(views[0].with_values(assignments()))
        written = views[1].mutable_snapshot()
        for row, attribute, value in data.draw(_writes):
            written.set_values(attribute, [row], [value])
        views.append(written)
        views.append(table.perturbed({}))
        _assert_keys_name_content(views)
        live += views
        before = [(view.fingerprint(), _content(view)) for view in live]
        row, attribute, value = data.draw(_write(), label="base write")
        if data.draw(st.booleans(), label="undo"):
            value = original[(row, attribute)]
        table.set_value(row, attribute, value)
        for view, (key, content) in zip(live, before):
            if _content(view) != content:
                assert view.fingerprint() != key, "a stale key outlived a base write"
