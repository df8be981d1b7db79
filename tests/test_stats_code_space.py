"""Code-space statistics against their value-space definition.

The definition is a :class:`collections.Counter` over the materialised
column (marginals) or over the materialised ``(given, target)`` cell pairs
(pair distributions), nulls excluded, with ties broken by ``repr``.  The
statistics under test count dictionary codes: a view's marginals are the
base's moved by the view's encoded delta, its pair distributions are counted
from its code arrays (or shared with the base over columns it does not
override), and write batches move or drop them; every query must answer
exactly what the definition answers.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.dc import DenialConstraint
from repro.constraints.predicates import Operator, Predicate
from repro.dataset.table import CellRef, Table
from repro.engine.stats import TableStatistics
from repro.engine.storage import is_null
from repro.errors import SchemaError
from repro.repair.simple import SimpleRuleRepair

NAN = float("nan")
ATTRIBUTES = ("A", "B")
_BASE_VALUES = st.sampled_from(["a", "b", "c", 1, 2, None, NAN])
#: includes values no base column holds, so writes grow the dictionaries
_WRITE_VALUES = st.sampled_from(["a", "b", "c", 1, 2, None, NAN, "new", 3])


# -- the definition ------------------------------------------------------------------


def _marginal(column) -> Counter:
    return Counter(value for value in column if not is_null(value))


def _pairs(given_column, target_column) -> Counter:
    return Counter((g, t) for g, t in zip(given_column, target_column)
                   if not is_null(g) and not is_null(t))


def _cdf(counts: Counter) -> tuple[list, np.ndarray]:
    values = sorted(counts, key=repr)
    weights = np.array([counts[value] for value in values], dtype=float)
    if values:
        weights /= weights.sum()
        weights = weights.cumsum()
        weights /= weights[-1]
    return values, weights


PROBES = ["a", "b", "c", 1, 2, "new", 3, "never"]
PAIRS = (("A", "B"), ("B", "A"), ("A", "A"))


def _assert_conditionals_match(table: Table, stats: TableStatistics) -> None:
    """``conditional_probability_many`` (whose row totals are cached per
    given) against the pair counter, for every pair and probe."""
    columns = {attribute: list(table.column(attribute)) for attribute in ATTRIBUTES}
    for given_attr, target in PAIRS:
        expected = _pairs(columns[given_attr], columns[target])
        for given_value in PROBES:
            row = {t: c for (g, t), c in expected.items() if g == given_value}
            total = sum(row.values())
            assert stats.cooccurrence.conditional_probability_many(
                target, PROBES, given_attr, given_value) == \
                [row.get(value, 0) / total if total else 0.0 for value in PROBES]


def _assert_pairs_match(table: Table, stats: TableStatistics) -> None:
    """Every pair query against the pair counter: conditionals, argmaxes,
    co-occurrence counts and the whole ``counts()`` table."""
    columns = {attribute: list(table.column(attribute)) for attribute in ATTRIBUTES}
    _assert_conditionals_match(table, stats)
    for given_attr, target in PAIRS:
        expected = _pairs(columns[given_attr], columns[target])
        cooccurrence = stats.cooccurrence
        assert cooccurrence.counts(given_attr, target) == dict(expected)
        for given_value in PROBES:
            row = {t: c for (g, t), c in expected.items() if g == given_value}
            total = sum(row.values())
            assert cooccurrence.conditional_probability(
                target, "a", given_attr, given_value) == \
                (row.get("a", 0) / total if total else 0.0)
            if row:
                best = max(row.values())
                winner = min((t for t, c in row.items() if c == best), key=repr)
            else:
                winner = "default"
            assert stats.most_probable_given(target, given_attr, given_value,
                                             "default") == winner
            for target_value in PROBES:
                assert cooccurrence.cooccurrence_count(
                    given_attr, given_value, target, target_value) == \
                    row.get(target_value, 0)


def _assert_matches_definition(table: Table, stats: TableStatistics) -> None:
    columns = {attribute: list(table.column(attribute)) for attribute in ATTRIBUTES}
    uniforms = np.linspace(0.0, 0.999, 7)
    for attribute in ATTRIBUTES:
        expected = _marginal(columns[attribute])
        marginal = stats.marginal(attribute)
        assert dict(marginal.items()) == dict(expected)
        assert marginal.total == sum(expected.values())
        if expected:
            best = max(expected.values())
            assert marginal.most_common() == min(
                (value for value, count in expected.items() if count == best), key=repr)
        else:
            assert marginal.most_common("default") == "default"
        assert marginal.ranking() == tuple(
            sorted(expected, key=lambda value: (-expected[value], repr(value))))
        values, cdf = _cdf(expected)
        assert marginal.domain() == values
        drawn = [values[i] for i in cdf.searchsorted(uniforms, side="right").tolist()] \
            if values else [None] * len(uniforms)
        assert marginal.sample(uniforms=uniforms) == drawn
    _assert_pairs_match(table, stats)


@st.composite
def _scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    rows = [[draw(_BASE_VALUES) for _ in ATTRIBUTES] for _ in range(n)]
    cells = st.tuples(st.integers(min_value=0, max_value=n - 1),
                      st.sampled_from(ATTRIBUTES), _WRITE_VALUES)
    delta = draw(st.lists(cells, max_size=10))
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        attribute = draw(st.sampled_from(ATTRIBUTES))
        writes = draw(st.lists(st.tuples(st.integers(min_value=0, max_value=n - 1),
                                         _WRITE_VALUES), min_size=1, max_size=5))
        batches.append((attribute, writes))
    update = draw(cells)
    return rows, delta, batches, update


@pytest.mark.parametrize("views_first", [False, True])
@settings(max_examples=80, deadline=None)
@given(scenario=_scenarios())
def test_statistics_match_counter_definition(views_first, scenario):
    """Views built over encoded deltas, written by multi-row and one-cell
    batches, and rebuilt after a live base update match the definition.

    With ``views_first`` no base statistics exist when the first view
    derives, so the view builds the base counts its encoding caches; the
    base's own statistics, queried afterwards, must read those same counts.
    """
    rows, delta, batches, (update_row, update_attribute, update_value) = scenario
    table = Table(list(ATTRIBUTES), rows)
    if not views_first:
        _assert_matches_definition(table, table.stats)

    # a sibling view built first, so the second reuses its derived marginals
    for _ in range(2):
        view = table.perturbed({CellRef(row, attribute): value
                                for row, attribute, value in delta}).mutable_snapshot()
        stats = view.stats
        _assert_matches_definition(view, stats)
    if views_first:
        _assert_matches_definition(table, table.stats)

    for attribute, writes in batches:
        view.set_values(attribute, [row for row, _ in writes],
                        [value for _, value in writes])
        _assert_matches_definition(view, stats)
        # the batch again as a run of one-cell writes, last write first: each
        # moves row totals that the query before it cached
        for row, value in reversed(writes):
            view.set_value(row, attribute, value)
            _assert_conditionals_match(view, stats)
        _assert_matches_definition(view, stats)

    # a live base update: the base table's own statistics move with the
    # write, and views built afterwards derive from the updated base
    table.set_value(update_row, update_attribute, update_value)
    _assert_matches_definition(table, table.stats)
    after = table.perturbed({CellRef(row, attribute): value
                             for row, attribute, value in delta})
    _assert_matches_definition(after, after.stats)


# -- writes on shared pair distributions ----------------------------------------------


#: a write of the base table's own value back into the cell
BACK = object()


@st.composite
def _interleaved(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    rows = [[draw(_BASE_VALUES) for _ in ATTRIBUTES] + [draw(_BASE_VALUES)]
            for _ in range(n)]
    values = st.one_of(_WRITE_VALUES, st.just(BACK))
    writes = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        size = draw(st.sampled_from([1, 1, 2, 3, 4]))
        batch = draw(st.lists(st.tuples(st.integers(min_value=0, max_value=n - 1),
                                        values), min_size=size, max_size=size))
        writes.append((draw(st.integers(min_value=0, max_value=1)),
                       draw(st.sampled_from(ATTRIBUTES)), batch))
    return rows, writes


@settings(max_examples=60, deadline=None)
@given(scenario=_interleaved())
def test_interleaved_writes_leave_shared_distributions_alone(scenario):
    """Two sibling views and their base share every built pair distribution
    over the columns the views do not override; multi-row batches and
    one-cell writes into either view, interleaved, keep every table's
    answers equal to the definition over its own contents."""
    rows, writes = scenario
    table = Table([*ATTRIBUTES, "C"], rows)
    n = len(rows)
    views = [table.perturbed({CellRef(0, "C"): "only-0"}).mutable_snapshot(),
             table.perturbed({CellRef(n - 1, "C"): "only-1"}).mutable_snapshot()]
    tables = [table, *views]
    for instance in tables:
        _assert_pairs_match(instance, instance.stats)
    for given_attr, target in PAIRS:
        shared = table.stats.cooccurrence.pair(given_attr, target)
        assert all(view.stats.cooccurrence.pair(given_attr, target) is shared
                   for view in views)
    for which, attribute, batch in writes:
        view = views[which]
        written = [table.value(row, attribute) if value is BACK else value
                   for row, value in batch]
        if len(batch) == 1:
            view.set_value(batch[0][0], attribute, written[0])
        else:
            view.set_values(attribute, [row for row, _ in batch], written)
        for instance in tables:
            _assert_pairs_match(instance, instance.stats)


# -- unhashable cell values ------------------------------------------------------------


def _unhashable_table() -> Table:
    return Table(["A", "B"], [("x", [1]), ("x", [2]), ("y", None)])


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_unhashable_column_raises_schema_error(engine):
    table = _unhashable_table()
    # the fast engine's repairs read a view's statistics, the reference
    # engine's a materialised instance's
    instance = table.perturbed({}) if engine == "fast" else table.copy()
    with pytest.raises(SchemaError, match="'B'"):
        instance.stats.marginal("B").most_common()
    with pytest.raises(SchemaError, match="'B'"):
        instance.stats.most_probable_given("B", "A", "x")
    # a conditional rule reading P[B | A] on the violating rows
    fd = DenialConstraint("fd", [Predicate.between_tuples("A", Operator.EQ),
                                 Predicate.between_tuples("B", Operator.NE)])
    with pytest.raises(SchemaError, match="'B'"):
        SimpleRuleRepair(engine=engine).repair_table([fd], table)


@pytest.mark.parametrize("view", [False, True])
def test_unhashable_probe_values_are_unseen(view):
    """No counted column holds an unhashable value, so probing with one
    answers like an unseen value: count 0, frequency 0.0, the default."""
    table = Table(["A", "B"], [("x", "1"), ("x", "2"), ("y", "1")])
    instance = table.perturbed({CellRef(2, "A"): "x"}) if view else table
    share = 2 / 3 if view else 1 / 2  # P[B = "1" | A = "x"]
    stats = instance.stats
    assert stats.marginal("A").count(["x"]) == 0
    assert stats.marginal("A").frequency(["x"]) == 0.0
    assert stats.most_probable_given("B", "A", ["x"], "default") == "default"
    cooccurrence = stats.cooccurrence
    assert cooccurrence.conditional_probability("B", "1", "A", {"x": 1}) == 0.0
    assert cooccurrence.conditional_probability_many(
        "B", ["1", ["1"]], "A", "x") == [share, 0.0]
    assert cooccurrence.cooccurrence_count("A", "x", "B", ["1"]) == 0
    assert cooccurrence.cooccurrence_count("A", ["x"], "B", "1") == 0
    assert stats.most_probable_given("B", "A", "x") == "1"


# -- sample-policy coalitions born in code space -------------------------------------


@pytest.mark.parametrize("perturb", [False, True])
def test_sampled_instances_match_the_materialised_reference(perturb):
    """The code-space ``SAMPLE`` build (drawn codes normalised against the
    base codes) yields the instances of the value-by-value reference."""
    from repro import la_liga_dirty_table
    from repro.shapley.sampling import CellCoalitionSampler

    table = la_liga_dirty_table()
    if perturb:
        table = table.perturbed({CellRef(0, table.attributes[0]): None})
    fast = CellCoalitionSampler(table, "sample", rng=3)
    reference = CellCoalitionSampler(table, "sample", rng=3, materialize=True)
    target = CellRef(4, table.attributes[1])
    for _ in range(6):
        pair = fast.sample_pair(target)
        expected = reference.sample_pair(target)
        assert [t.to_records() for t in pair] == [t.to_records() for t in expected]
