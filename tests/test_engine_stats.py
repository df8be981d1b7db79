"""Unit tests for column / co-occurrence statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.stats import ColumnStatistics, CooccurrenceStatistics, TableStatistics
from repro.engine.storage import ColumnStore


def make_store():
    return ColumnStore(
        {
            "City": ["Madrid", "Madrid", "Barcelona", "Madrid", None],
            "Country": ["Spain", "Spain", "Spain", "France", "Spain"],
        }
    )


def test_marginal_counts_and_frequency():
    stats = ColumnStatistics(make_store(), "City")
    assert stats.total == 4
    assert stats.count("Madrid") == 3
    assert stats.frequency("Madrid") == pytest.approx(0.75)
    assert stats.frequency("Paris") == 0.0


def test_most_common_and_domain():
    stats = ColumnStatistics(make_store(), "City")
    assert stats.most_common() == "Madrid"
    assert stats.domain() == ["Barcelona", "Madrid"]


def test_most_common_tie_is_deterministic():
    store = ColumnStore({"A": ["b", "a", "a", "b"]})
    stats = ColumnStatistics(store, "A")
    assert stats.most_common() == "a"  # ties broken by repr order


def test_most_common_on_all_null_column_returns_default():
    store = ColumnStore({"A": [None, None]})
    stats = ColumnStatistics(store, "A")
    assert stats.most_common(default="fallback") == "fallback"
    assert stats.frequency("x") == 0.0


def test_sampling_follows_column_distribution():
    stats = ColumnStatistics(make_store(), "City")
    rng = np.random.default_rng(3)
    samples = stats.sample(rng=rng, size=2000)
    assert set(samples) <= {"Madrid", "Barcelona"}
    madrid_share = samples.count("Madrid") / len(samples)
    assert 0.65 < madrid_share < 0.85  # true probability 0.75


def test_sampling_empty_column_returns_none():
    store = ColumnStore({"A": [None]})
    stats = ColumnStatistics(store, "A")
    assert stats.sample() is None
    assert stats.sample(size=3) == [None, None, None]


def test_entropy_zero_for_constant_column():
    store = ColumnStore({"A": ["x", "x", "x"]})
    assert ColumnStatistics(store, "A").entropy() == pytest.approx(0.0)


def test_entropy_positive_for_mixed_column():
    assert ColumnStatistics(make_store(), "City").entropy() > 0


def test_conditional_probability():
    stats = CooccurrenceStatistics(make_store())
    assert stats.conditional_probability("Country", "Spain", "City", "Madrid") == pytest.approx(2 / 3)
    assert stats.conditional_probability("Country", "France", "City", "Madrid") == pytest.approx(1 / 3)
    assert stats.conditional_probability("Country", "Spain", "City", "Unknown") == 0.0


def test_most_probable_given():
    stats = CooccurrenceStatistics(make_store())
    assert stats.most_probable("Country", "City", "Madrid") == "Spain"
    assert stats.most_probable("Country", "City", "Nowhere", default="?") == "?"


def test_cooccurrence_count():
    stats = CooccurrenceStatistics(make_store())
    assert stats.cooccurrence_count("City", "Madrid", "Country", "Spain") == 2
    assert stats.cooccurrence_count("City", "Barcelona", "Country", "France") == 0


def test_table_statistics_bundle():
    stats = TableStatistics(make_store())
    assert stats.most_common("City") == "Madrid"
    assert stats.most_probable_given("Country", "City", "Madrid") == "Spain"
    # marginal objects are cached per attribute
    assert stats.marginal("City") is stats.marginal("City")


def test_table_statistics_fork_equals_rebuild():
    """A fork moved to new contents by cell updates equals a fresh build."""
    store = make_store()
    stats = TableStatistics(store)
    stats.marginal("City")
    stats.cooccurrence.warm("City", "Country")

    # the "sibling" store differs in one cell; fork + apply the diff
    sibling = store.copy()
    old_value = sibling.value(3, "City")
    sibling.set_value(3, "City", "Barcelona")
    forked = stats.fork(sibling)
    forked.apply_cell_update(3, "City", old_value, "Barcelona")

    rebuilt = TableStatistics(sibling)
    for attribute in ("City", "Country"):
        assert dict(forked.marginal(attribute).items()) == \
            dict(rebuilt.marginal(attribute).items())
        assert forked.most_common(attribute) == rebuilt.most_common(attribute)
    for city in ("Madrid", "Barcelona"):
        assert forked.most_probable_given("Country", "City", city) == \
            rebuilt.most_probable_given("Country", "City", city)


def test_table_statistics_fork_is_independent():
    store = make_store()
    stats = TableStatistics(store)
    stats.marginal("City")
    forked = stats.fork(store.copy())
    forked.apply_cell_update(0, "City", "Madrid", "Paris")
    assert stats.most_common("City") == "Madrid"
    assert stats.marginal("City").count("Paris") == 0
    assert forked.marginal("City").count("Paris") == 1


# ---------------------------------------------------------------------------
# the revertible delta protocol (apply_delta / revert_delta)


def _stats_equal(left: TableStatistics, right: TableStatistics,
                 attributes, pairs) -> None:
    for attribute in attributes:
        assert dict(left.marginal(attribute).items()) == \
            dict(right.marginal(attribute).items())
    for given, target in pairs:
        left_counts = left.cooccurrence._counts_for(given, target)
        right_counts = right.cooccurrence._counts_for(given, target)
        assert {k: dict(v) for k, v in left_counts.items()} == \
            {k: dict(v) for k, v in right_counts.items()}


def test_column_statistics_apply_and_revert_delta_roundtrip():
    stats = ColumnStatistics(make_store(), "City")
    before = dict(stats._counts)
    updates = [("Madrid", "Barcelona"), ("Barcelona", None), (None, "Paris")]
    stats.apply_delta(updates)
    assert stats.count("Madrid") == 2
    assert stats.count("Paris") == 1
    stats.revert_delta(updates)
    assert dict(stats._counts) == before
    assert stats.most_common() == "Madrid"


def test_table_statistics_apply_delta_matches_fresh_build():
    from repro.engine.view import OverlayStore

    base = make_store()
    stats = TableStatistics(base)
    stats.marginal("City")
    stats.marginal("Country")
    stats.cooccurrence.warm("City", "Country")
    # a multi-cell delta touching both cells of one row (the case per-cell
    # sequential application cannot express)
    delta = {(0, "City"): "Paris", (0, "Country"): "France",
             (3, "Country"): None}
    changes = {cell: (base.value(cell[0], cell[1]), value)
               for cell, value in delta.items()}
    overlay = OverlayStore(base, dict(delta))
    stats.apply_delta(changes, overlay)
    fresh = TableStatistics(overlay)
    _stats_equal(stats, fresh, ["City", "Country"], [("City", "Country")])
    # argmax and mode memos answer from the moved counts
    assert stats.most_probable_given("Country", "City", "Madrid") == \
        fresh.most_probable_given("Country", "City", "Madrid")
    stats.revert_delta(changes, base)
    _stats_equal(stats, TableStatistics(base), ["City", "Country"],
                 [("City", "Country")])


def test_table_statistics_revert_covers_structures_built_under_delta():
    from repro.engine.view import OverlayStore

    base = make_store()
    stats = TableStatistics(base)
    delta = {(1, "Country"): "Italy"}
    changes = {cell: (base.value(cell[0], cell[1]), value)
               for cell, value in delta.items()}
    overlay = OverlayStore(base, dict(delta))
    stats.apply_delta(changes, overlay)
    # built while the delta is applied: describes the overlay contents
    assert stats.marginal("Country").count("Italy") == 1
    stats.cooccurrence.warm("City", "Country")
    stats.revert_delta(changes, base)
    _stats_equal(stats, TableStatistics(base), ["City", "Country"],
                 [("City", "Country")])


# ---------------------------------------------------------------------------
# the shared statistics engine


def _make_table():
    from repro.dataset.table import Table

    return Table(
        ["City", "Country", "Team"],
        [
            ("Madrid", "Spain", "RM"),
            ("Madrid", "Spain", "ATM"),
            ("Barcelona", "Spain", "FCB"),
            ("Madrid", "France", "PSG"),
            (None, "Spain", "RM"),
        ],
    )


def test_shared_statistics_lease_matches_fresh_build():
    from repro.dataset.table import CellRef
    from repro.engine.stats import SharedStatistics

    table = _make_table()
    engine = SharedStatistics(table)
    view_a = table.perturbed({CellRef(0, "City"): None, CellRef(2, "Country"): "France"})
    view_b = table.perturbed({CellRef(1, "Country"): None})

    leased = engine.lease(view_a)
    fresh = TableStatistics(view_a.store)
    _stats_equal(leased, fresh, ["City", "Country"], [("City", "Country")])

    # moving the same instance onto a sibling view re-derives it exactly
    leased = engine.lease(view_b)
    fresh = TableStatistics(view_b.store)
    _stats_equal(leased, fresh, ["City", "Country"], [("City", "Country")])
    assert engine.leases >= 2


def test_shared_statistics_threads_through_view_stats_and_writes():
    from repro.dataset.table import CellRef
    from repro.engine.stats import SharedStatistics

    table = _make_table()
    engine = SharedStatistics(table)
    view = table.perturbed({CellRef(0, "Country"): None})
    view._stats_engine = engine
    working = view.mutable_snapshot()  # inherits the engine
    assert working._stats_engine is engine

    stats = working.stats
    assert stats is engine.lease(working)  # transparently leased
    # in-place writes keep the leased instance maintained
    working.set_value(3, "Country", "Spain")
    assert dict(stats.marginal("Country").items()) == \
        dict(TableStatistics(working.store).marginal("Country").items())

    # leasing elsewhere invalidates the stale holder, which re-leases on use
    other = view.mutable_snapshot()
    other_stats = other.stats
    assert other_stats is stats  # the one shared instance moved over
    assert working._stats is None
    _stats_equal(working.stats, TableStatistics(working.store),
                 ["Country"], [])


def test_shared_statistics_release_returns_to_base():
    from repro.dataset.table import CellRef
    from repro.engine.stats import SharedStatistics

    table = _make_table()
    engine = SharedStatistics(table)
    view = table.perturbed({CellRef(0, "City"): None})
    leased = engine.lease(view)
    leased.marginal("City")
    engine.release()
    _stats_equal(engine._stats, TableStatistics(table.store), ["City"], [])


def test_shared_statistics_drops_structure_when_parked_view_is_written():
    from repro.dataset.table import CellRef
    from repro.engine.stats import SharedStatistics

    table = _make_table()
    engine = SharedStatistics(table)
    view_a = table.perturbed({CellRef(0, "City"): None})
    view_b = table.perturbed({})
    stats = engine.lease(view_a)
    stats.marginal("City")
    engine.lease(view_b)           # parks the City marginal on view_a
    view_a.set_value(1, "City", "Sevilla")  # the parked snapshot moves on
    # the exact diff is lost: the structure must be rebuilt, not moved
    assert dict(engine._stats.marginal("City").items()) == \
        dict(TableStatistics(view_b.store).marginal("City").items())


def test_shared_statistics_rebuilds_after_base_mutation():
    from repro.dataset.table import CellRef
    from repro.engine.stats import SharedStatistics

    table = _make_table()
    engine = SharedStatistics(table)
    view = table.perturbed({CellRef(0, "City"): None})
    engine.lease(view).marginal("City")
    table.set_value(0, "City", "Valencia")  # base mutated: version moved
    fresh_view = table.perturbed({})
    leased = engine.lease(fresh_view)
    assert dict(leased.marginal("City").items()) == \
        dict(TableStatistics(fresh_view.store).marginal("City").items())


# ---------------------------------------------------------------------------
# the memoised frequency ranking ≡ a from-scratch sort (hypothesis)

_RANK_VALUES = st.sampled_from(["a", "b", "c", 1, 2, None])


def _sorted_ranking(stats: ColumnStatistics) -> tuple:
    ranked = sorted(stats.items(), key=lambda item: (-item[1], repr(item[0])))
    return tuple(value for value, _ in ranked)


def _assert_ranking_fresh(stats: ColumnStatistics, column: list) -> None:
    assert stats.ranking() == _sorted_ranking(stats)
    assert stats.ranking() == ColumnStatistics(ColumnStore({"A": column}), "A").ranking()


@st.composite
def _column_edits(draw):
    column = draw(st.lists(_RANK_VALUES, min_size=1, max_size=10))
    edits = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["updates", "delta", "revert", "fork"]))
        rows = draw(st.lists(st.integers(min_value=0, max_value=len(column) - 1),
                             max_size=4, unique=True))
        edits.append((kind, [(row, draw(_RANK_VALUES)) for row in rows]))
    return column, edits


@settings(max_examples=150, deadline=None)
@given(data=_column_edits())
def test_ranking_memo_equals_sort_after_every_move(data):
    column, edits = data
    column = list(column)
    stats = ColumnStatistics(ColumnStore({"A": column}), "A")
    _assert_ranking_fresh(stats, column)
    for kind, writes in edits:
        stats.ranking()  # the memo is live before every move
        pairs = [(column[row], value) for row, value in writes]
        if kind == "fork":
            clone = stats.fork()
            _assert_ranking_fresh(clone, column)
            clone.apply_delta(pairs)  # the clone moves; the original must not
            _assert_ranking_fresh(stats, column)
            stats = clone
        elif kind == "updates":
            stats.apply_updates([old for old, _ in pairs], [new for _, new in pairs])
        elif kind == "delta":
            stats.apply_delta(pairs)
        else:
            stats.apply_delta(pairs)
            stats.ranking()
            stats.revert_delta(pairs)
            _assert_ranking_fresh(stats, column)
            stats.apply_delta(pairs)
        for row, value in writes:
            column[row] = value
        _assert_ranking_fresh(stats, column)


@settings(max_examples=60, deadline=None)
@given(column=st.lists(_RANK_VALUES, min_size=2, max_size=10),
       deltas=st.lists(st.lists(st.tuples(st.integers(min_value=0, max_value=9),
                                          _RANK_VALUES), max_size=6),
                       min_size=1, max_size=5),
       writes=st.lists(st.tuples(st.integers(min_value=0, max_value=9), _RANK_VALUES),
                       max_size=3))
def test_ranking_memo_through_shared_statistics_syncs(column, deltas, writes):
    """Lease moves (small diffs) and drops (large diffs, written parked views)
    all leave the leased marginal's ranking equal to a fresh build's."""
    from repro.dataset.table import CellRef, Table
    from repro.engine.stats import SharedStatistics

    n = len(column)
    table = Table(["A"], [(value,) for value in column])
    engine = SharedStatistics(table)
    views = []
    for delta in deltas:
        view = table.perturbed({CellRef(row % n, "A"): value for row, value in delta})
        view._stats_engine = engine
        views.append(view)
        leased = engine.lease(view)
        assert leased.marginal("A").ranking() == \
            TableStatistics(view.store).marginal("A").ranking()
    # writes on the owner reach the clean marginal through its write hook
    working = views[-1].mutable_snapshot()
    marginal = working.stats.marginal("A")
    marginal.ranking()
    for row, value in writes:
        working.set_value(row % n, "A", value)
        assert working.stats.marginal("A").ranking() == \
            TableStatistics(working.store).marginal("A").ranking()
    # a parked view written after the marginal left it forces a drop
    views[0].set_value(0, "A", "z")
    for view in views:
        assert engine.lease(view).marginal("A").ranking() == \
            TableStatistics(view.store).marginal("A").ranking()
    engine.release()
    assert engine._stats.marginal("A").ranking() == \
        TableStatistics(table.store).marginal("A").ranking()
