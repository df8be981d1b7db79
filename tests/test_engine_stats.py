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


# ---------------------------------------------------------------------------
# view statistics derived from the base counts


def _stats_equal(left: TableStatistics, right: TableStatistics,
                 attributes, pairs) -> None:
    for attribute in attributes:
        assert dict(left.marginal(attribute).items()) == \
            dict(right.marginal(attribute).items())
    for given, target in pairs:
        assert left.cooccurrence.counts(given, target) == \
            right.cooccurrence.counts(given, target)


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
    """Sibling views' statistics, derived from the shared base counts by
    each view's delta, equal fresh builds."""
    from repro.dataset.table import CellRef

    table = _make_table()
    view_a = table.perturbed({CellRef(0, "City"): None, CellRef(2, "Country"): "France"})
    view_b = table.perturbed({CellRef(1, "Country"): None})
    for view in (view_a, view_b):
        fresh = TableStatistics(view.store)
        _stats_equal(view.stats, fresh, ["City", "Country"], [("City", "Country")])


def test_shared_statistics_rebuilds_after_base_mutation():
    """A view built after a base write derives from the written base."""
    from repro.dataset.table import CellRef

    table = _make_table()
    table.perturbed({CellRef(0, "City"): None}).stats.marginal("City")
    table.set_value(0, "City", "Valencia")  # base mutated: version moved
    fresh_view = table.perturbed({})
    assert dict(fresh_view.stats.marginal("City").items()) == \
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
        kind = draw(st.sampled_from(["batch", "cells", "revert"]))
        rows = draw(st.lists(st.integers(min_value=0, max_value=len(column) - 1),
                             max_size=4, unique=True))
        edits.append((kind, [(row, draw(_RANK_VALUES)) for row in rows]))
    return column, edits


@settings(max_examples=150, deadline=None)
@given(data=_column_edits())
def test_ranking_memo_equals_sort_after_every_move(data):
    """A table's marginal moved by its writes (``Table.set_values`` batches
    and ``Table.set_value`` cells) ranks like a fresh sort after each."""
    from repro.dataset.table import Table

    column, edits = data
    column = list(column)
    table = Table(["A"], [(value,) for value in column])
    stats = table.stats.marginal("A")
    _assert_ranking_fresh(stats, column)
    for kind, writes in edits:
        stats.ranking()  # the memo is live before every move
        rows = [row for row, _ in writes]
        values = [value for _, value in writes]
        if kind == "batch":
            table.set_values("A", rows, values)
        elif kind == "cells":
            for row, value in writes:
                table.set_value(row, "A", value)
        else:
            table.set_values("A", rows, values)
            stats.ranking()
            table.set_values("A", rows, [column[row] for row in rows])
            _assert_ranking_fresh(stats, column)
            table.set_values("A", rows, values)
        for row, value in writes:
            column[row] = value
        assert table.stats.marginal("A") is stats
        _assert_ranking_fresh(stats, column)


@settings(max_examples=60, deadline=None)
@given(column=st.lists(_RANK_VALUES, min_size=2, max_size=10),
       deltas=st.lists(st.lists(st.tuples(st.integers(min_value=0, max_value=9),
                                          _RANK_VALUES), max_size=6),
                       min_size=1, max_size=5),
       writes=st.lists(st.tuples(st.integers(min_value=0, max_value=9), _RANK_VALUES),
                       max_size=3))
def test_ranking_memo_through_shared_statistics_syncs(column, deltas, writes):
    """Views' derived statistics, in-place writes on a view's snapshot and
    writes on a view after later views derived theirs all leave the
    marginal's ranking equal to a fresh build's."""
    from repro.dataset.table import CellRef, Table

    n = len(column)
    table = Table(["A"], [(value,) for value in column])
    views = []
    for delta in deltas:
        view = table.perturbed({CellRef(row % n, "A"): value for row, value in delta})
        views.append(view)
        assert view.stats.marginal("A").ranking() == \
            TableStatistics(view.store).marginal("A").ranking()
    # in-place writes move the snapshot's derived marginal
    working = views[-1].mutable_snapshot()
    marginal = working.stats.marginal("A")
    marginal.ranking()
    for row, value in writes:
        working.set_value(row % n, "A", value)
        assert working.stats.marginal("A").ranking() == \
            TableStatistics(working.store).marginal("A").ranking()
    # a view written after later views derived their statistics
    views[0].set_value(0, "A", "z")
    for view in views:
        assert view.stats.marginal("A").ranking() == \
            TableStatistics(view.store).marginal("A").ranking()
    assert table.perturbed({}).stats.marginal("A").ranking() == \
        TableStatistics(table.store).marginal("A").ranking()
