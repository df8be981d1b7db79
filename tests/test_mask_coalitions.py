"""Mask coalitions: the sampler's array path equals its per-cell reference.

:meth:`CellCoalitionSampler.sample_pair` forms each coalition as a mask
over the cell vector from the drawn permutation's ranks and selects the
with-instance's delta and per-column encoding from arrays; it records
provenance as a bitmask.  These tests hold that path to the per-cell
reference — :meth:`~CellCoalitionSampler.coalition_before` plus
:meth:`~CellCoalitionSampler.build_instances`, and the ``materialize=True``
sampler — on random tables, policies, targets and seeds, and hold the
bitmask ``invalidate`` of the live session to the frozenset predicate it
replaced.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import CellRef, RepairSession, Table, TRexConfig, paper_algorithm_1
from repro import la_liga_constraints, la_liga_dirty_table
from repro.shapley.sampling import CellCoalitionSampler

#: a small pool per column, with repeats (so modes and draws have a choice)
#: and NULL
POOL = ["a", "b", "c", 1, 2, None]


@st.composite
def tables(draw):
    n_rows = draw(st.integers(min_value=1, max_value=6))
    n_columns = draw(st.integers(min_value=1, max_value=4))
    names = [f"A{index}" for index in range(n_columns)]
    rows = [[draw(st.sampled_from(POOL)) for _ in names] for _ in range(n_rows)]
    return Table(names, rows)


def _decoded(sampler, mask: int) -> set:
    return {cell for index, cell in enumerate(sampler.cells) if mask >> index & 1}


def _contents(table) -> list:
    return [table[cell] for cell in table.cells()]


def _encodings(view) -> dict:
    store = view._store
    return {name: tuple(array.tolist() for array in store.encoded_delta_arrays(name))
            for name in view.attributes
            if store.encoded_delta_arrays(name) is not None}


@settings(max_examples=120, deadline=None)
@given(table=tables(), policy=st.sampled_from(["null", "mode", "sample"]),
       seed=st.integers(min_value=0, max_value=2**32 - 1), data=st.data())
def test_sample_pair_equals_the_per_cell_reference(table, policy, seed, data):
    target = data.draw(st.sampled_from(list(table.cells())), label="target")
    masked = CellCoalitionSampler(table, policy=policy, rng=seed)
    reference = CellCoalitionSampler(table, policy=policy, rng=seed)
    materialized = CellCoalitionSampler(table, policy=policy, rng=seed,
                                        materialize=True)
    for _ in range(3):
        masked.touched = 0
        pair = masked.sample_pair(target)
        coalition = reference.coalition_before(target, reference.sample_permutation())
        expected = reference.build_instances(target, coalition)
        copies = materialized.sample_pair(target)
        assert _decoded(masked, masked.touched) == coalition | {target}
        for view, other, copy in zip(pair, expected, copies):
            assert list(view._delta.items()) == list(other._delta.items())
            assert view.fingerprint() == other.fingerprint()
            assert _encodings(view) == _encodings(other)
            # the adopted per-column encoding is the one the view derives
            # from its delta by itself
            assert _encodings(view) == _encodings(table.perturbed(dict(view._delta)))
            assert _contents(view) == _contents(copy)
    state = masked._rng.bit_generator.state
    assert state == reference._rng.bit_generator.state
    assert state == materialized._rng.bit_generator.state


def test_materialized_pairs_record_the_same_bitmask():
    table = la_liga_dirty_table()
    target = CellRef(4, "Country")
    views = CellCoalitionSampler(table, policy="mode", rng=5)
    copies = CellCoalitionSampler(table, policy="mode", rng=5, materialize=True)
    views.touched = copies.touched = 0
    for _ in range(4):
        views.sample_pair(target)
        copies.sample_pair(target)
    assert views.touched == copies.touched
    assert views.cell_mask(_decoded(views, views.touched)) == views.touched


# -- the live session's bitmask invalidation ------------------------------------------

_LIVE = {}


def _live_state():
    """One explained La Liga session (built once), sampled at one sample per
    estimate so that estimates touch different cell sets."""
    if not _LIVE:
        config = TRexConfig(seed=3, cell_samples=1, replacement_policy="mode")
        session = RepairSession(paper_algorithm_1(), la_liga_constraints(),
                                la_liga_dirty_table(), cell_of_interest=CellRef(4, "Country"),
                                config=config)
        session.explain()
        live = session._live
        live.close()
        _LIVE["state"] = live
        _LIVE["saved"] = (dict(live.estimates), dict(live.provenance))
    return _LIVE["state"], _LIVE["saved"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bitmask_invalidate_drops_what_the_frozenset_predicate_dropped(data):
    live, (estimates, provenance) = _live_state()
    sampler = live.explainer.sampler
    assert len({mask for mask in provenance.values()}) > 1
    changed = set(data.draw(st.lists(st.sampled_from(sampler.cells), max_size=4)))
    dropped_estimate = data.draw(st.sampled_from(live.cells))
    live.estimates = dict(estimates)
    live.provenance = dict(provenance)
    # an estimate with no provenance (never sampled) is always invalid
    del live.provenance[dropped_estimate]
    live.pending = set()
    sets = {cell: frozenset(_decoded(sampler, mask))
            for cell, mask in live.provenance.items()}
    expected = {cell for cell in live.cells
                if cell not in sets or sets[cell] & changed}
    dropped = live.invalidate(changed)
    assert live.pending == expected
    assert dropped == len(expected & set(estimates))
    assert set(live.provenance) == set(provenance) - expected


def test_touched_masks_are_proper_subsets_at_one_sample():
    """The invalidation test above draws from estimates that differ."""
    live, (_, provenance) = _live_state()
    full = (1 << len(live.explainer.sampler.cells)) - 1
    assert any(mask != full for mask in provenance.values())
    assert all(mask & ~full == 0 for mask in provenance.values())
