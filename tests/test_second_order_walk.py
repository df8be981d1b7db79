"""Second-order (view→view) violation maintenance must equal full re-detection.

A :class:`RepairWalk` maintains per-constraint violations *across* a repair
loop's own writes instead of re-deriving each pass from the base snapshot.
These tests drive walks through randomised write sequences — including the
pair fork used by the batched oracle — and cross-check every intermediate
state against the reference full rescan.  Every walk runs on the
dictionary-encoded code arrays; the tests also assert it never fell back to
the per-row object build.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CellRef,
    DenialConstraint,
    GreedyHolisticRepair,
    SimpleRuleRepair,
    Table,
    find_all_violations,
    la_liga_constraints,
    la_liga_dirty_table,
)
from repro.constraints.incremental import RepairWalk, repair_walk_for
from repro.constraints.predicates import Operator, Predicate
from repro.engine.storage import NULL


def violation_multiset(violations):
    return Counter((v.constraint.name, v.rows) for v in violations)


def assert_walk_matches_reference(walk, constraints):
    reference = find_all_violations(walk.view.copy(), constraints)
    assert violation_multiset(walk.all_violations()) == violation_multiset(reference)


def assert_on_code_arrays(walk):
    """The walk's index and class builds read code arrays, never the fallback."""
    encoding = walk.detector.table.store.encoding()
    assert encoding.vectorized_checks > 0
    assert encoding.fallback_checks == 0


def count_if(walk, cell, value):
    return walk.count_if_many_at(cell.row, cell.attribute, [value])[0]


# ---------------------------------------------------------------------------
# hand-built multi-pass walks on the paper's running example


def test_walk_empty_delta_matches_base():
    base = la_liga_dirty_table()
    constraints = la_liga_constraints()
    walk = repair_walk_for(base.perturbed({}), constraints)
    assert walk is not None
    assert_walk_matches_reference(walk, constraints)
    assert_on_code_arrays(walk)


def test_walk_tracks_multi_pass_writes():
    base = la_liga_dirty_table()
    constraints = la_liga_constraints()
    view = base.perturbed({CellRef(4, "City"): NULL}).mutable_snapshot()
    walk = repair_walk_for(view, constraints)
    assert_walk_matches_reference(walk, constraints)
    # a sequence of writes imitating repair passes, checked after each one
    writes = [
        (4, "Country", "Spain"),
        (0, "City", "Seville"),
        (0, "City", "Barcelona"),   # rewrite of the same cell
        (2, "Team", "Betis"),
        (4, "City", NULL),          # null in, then out again
        (4, "City", "Madrid"),
        (1, "Country", NULL),
    ]
    for row, attribute, value in writes:
        view.set_value(row, attribute, value)
        assert_walk_matches_reference(walk, constraints)
    assert_on_code_arrays(walk)


def test_walk_count_if_equals_full_recount():
    base = la_liga_dirty_table()
    constraints = la_liga_constraints()
    view = base.perturbed({CellRef(2, "Country"): NULL}).mutable_snapshot()
    walk = repair_walk_for(view, constraints)
    walk.prime()
    view.set_value(0, "Country", "France")
    for cell, value in [
        (CellRef(0, "City"), "Seville"),
        (CellRef(2, "Country"), "Spain"),
        (CellRef(4, "Team"), NULL),
        (CellRef(1, "Place"), "1"),
    ]:
        expected = len(find_all_violations(view.with_values({cell: value}).copy(),
                                           constraints))
        assert count_if(walk, cell, value) == expected
    # candidate trials must not disturb the maintained state
    assert_walk_matches_reference(walk, constraints)
    assert_on_code_arrays(walk)


def test_fork_onto_single_differing_cell():
    base = la_liga_dirty_table()
    constraints = la_liga_constraints()
    with_view = base.perturbed({CellRef(3, "City"): NULL}).mutable_snapshot()
    walk_with = repair_walk_for(with_view, constraints).prime()

    differing = CellRef(4, "Country")
    without_view = base.perturbed(
        {CellRef(3, "City"): NULL, differing: "France"}
    ).mutable_snapshot()
    walk_without = walk_with.fork_onto(without_view, [differing])

    assert_walk_matches_reference(walk_without, constraints)
    # the two walks then diverge independently
    with_view.set_value(0, "Country", "Italy")
    without_view.set_value(2, "City", "Seville")
    assert_walk_matches_reference(walk_with, constraints)
    assert_walk_matches_reference(walk_without, constraints)
    assert_on_code_arrays(walk_without)


def test_fork_onto_no_difference_is_state_copy():
    base = la_liga_dirty_table()
    constraints = la_liga_constraints()
    with_view = base.perturbed({}).mutable_snapshot()
    walk_with = repair_walk_for(with_view, constraints).prime()
    walk_without = walk_with.fork_onto(base.perturbed({}).mutable_snapshot(), [])
    assert_walk_matches_reference(walk_without, constraints)
    assert_on_code_arrays(walk_without)


# ---------------------------------------------------------------------------
# second-order deltas across a real multi-pass greedy repair


@pytest.mark.parametrize("delta", [
    {},
    {CellRef(4, "City"): NULL},
    {CellRef(1, "Country"): "France", CellRef(3, "Country"): "France"},
])
def test_greedy_multi_pass_second_order_matches_first_order(delta):
    base = la_liga_dirty_table()
    constraints = la_liga_constraints()
    second = GreedyHolisticRepair(max_changes=20, engine="fast")
    first = GreedyHolisticRepair(max_changes=20, engine="reference")
    clean_second = second.repair_table(constraints, base.perturbed(delta))
    clean_first = first.repair_table(constraints, base.perturbed(delta))
    assert clean_second.to_records() == clean_first.to_records()
    # and the final state satisfies full re-detection
    assert violation_multiset(find_all_violations(clean_second.copy(), constraints)) \
        == violation_multiset(find_all_violations(clean_first.copy(), constraints))


def test_simple_multi_pass_second_order_matches_first_order():
    base = la_liga_dirty_table()
    constraints = la_liga_constraints()
    delta = {CellRef(4, "City"): NULL, CellRef(0, "Country"): NULL}
    clean_second = SimpleRuleRepair(engine="fast").repair_table(
        constraints, base.perturbed(delta))
    clean_first = SimpleRuleRepair(engine="reference").repair_table(
        constraints, base.perturbed(delta))
    assert clean_second.to_records() == clean_first.to_records()


# ---------------------------------------------------------------------------
# hypothesis: random tables × constraint shapes × write sequences

ATTRS = ("A", "B", "C")
VALUES = st.sampled_from(["x", "y", "z", 1, 2, None])

CONSTRAINT_POOL = [
    DenialConstraint("fd", [Predicate.between_tuples("A", Operator.EQ),
                            Predicate.between_tuples("B", Operator.NE)]),
    DenialConstraint("fd2", [Predicate.between_tuples("A", Operator.EQ),
                             Predicate.between_tuples("C", Operator.EQ),
                             Predicate.between_tuples("B", Operator.NE)]),
    DenialConstraint("ord", [Predicate.between_tuples("B", Operator.EQ),
                             Predicate.between_tuples("C", Operator.LT)]),
    DenialConstraint("pairs", [Predicate.between_tuples("A", Operator.LT),
                               Predicate.between_tuples("B", Operator.GT)]),
    DenialConstraint("single", [Predicate.with_constant("t1", "A", Operator.EQ, 1),
                                Predicate.with_constant("t1", "B", Operator.NE, "y")]),
    DenialConstraint("pure", [Predicate.between_tuples("B", Operator.EQ)]),
]


@st.composite
def walk_scenario(draw):
    n_rows = draw(st.integers(min_value=1, max_value=6))
    rows = [tuple(draw(VALUES) for _ in ATTRS) for _ in range(n_rows)]
    table = Table(ATTRS, rows)
    delta = {}
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        row = draw(st.integers(min_value=0, max_value=n_rows - 1))
        attr = draw(st.sampled_from(ATTRS))
        delta[CellRef(row, attr)] = draw(VALUES)
    writes = [
        (draw(st.integers(min_value=0, max_value=n_rows - 1)),
         draw(st.sampled_from(ATTRS)), draw(VALUES))
        for _ in range(draw(st.integers(min_value=0, max_value=6)))
    ]
    return table, delta, writes


# low-cardinality domains with nulls: violation totals and co-occurrence
# scores tie often, which is where the walk's tie-only scoring could diverge
GREEDY_VALUES = st.sampled_from(["x", "y", 1, None])


@st.composite
def greedy_scenario(draw):
    n_rows = draw(st.integers(min_value=2, max_value=8))
    rows = [tuple(draw(GREEDY_VALUES) for _ in ATTRS) for _ in range(n_rows)]
    delta = {}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        cell = CellRef(draw(st.integers(min_value=0, max_value=n_rows - 1)),
                       draw(st.sampled_from(ATTRS)))
        delta[cell] = draw(GREEDY_VALUES)
    differing = CellRef(draw(st.integers(min_value=0, max_value=n_rows - 1)),
                        draw(st.sampled_from(ATTRS)))
    return Table(ATTRS, rows), delta, differing, draw(GREEDY_VALUES)


@settings(max_examples=80, deadline=None)
@given(data=greedy_scenario(),
       constraint_mask=st.integers(min_value=1, max_value=2 ** len(CONSTRAINT_POOL) - 1),
       max_candidates=st.sampled_from([1, 2, 3, 20]),
       max_changes=st.integers(min_value=1, max_value=4))
def test_greedy_walk_equals_rescan_reference_randomised(data, constraint_mask,
                                                        max_candidates, max_changes):
    table, delta, differing, value = data
    constraints = [c for i, c in enumerate(CONSTRAINT_POOL) if constraint_mask >> i & 1]
    walk, rescan = (GreedyHolisticRepair(max_changes=max_changes,
                                         max_candidates=max_candidates,
                                         engine=engine)
                    for engine in ("fast", "reference"))
    assert walk.repair_table(constraints, table).to_records() == \
        rescan.repair_table(constraints, table).to_records()

    with_view = table.perturbed(delta)
    without_view = table.perturbed({**delta, differing: value})
    walk_pair = walk.repair_pair(constraints, with_view, without_view, [differing])
    rescan_pair = rescan.repair_pair(constraints, with_view, without_view, [differing])
    assert [t.to_records() for t in walk_pair] == [t.to_records() for t in rescan_pair]


@settings(max_examples=100, deadline=None)
@given(data=walk_scenario(),
       constraint_mask=st.integers(min_value=1, max_value=2 ** len(CONSTRAINT_POOL) - 1))
def test_walk_equals_full_rescan_randomised(data, constraint_mask):
    table, delta, writes = data
    constraints = [c for i, c in enumerate(CONSTRAINT_POOL) if constraint_mask >> i & 1]
    view = table.perturbed(delta).mutable_snapshot()
    walk = repair_walk_for(view, constraints)
    assert_walk_matches_reference(walk, constraints)
    for row, attribute, value in writes:
        view.set_value(row, attribute, value)
        assert_walk_matches_reference(walk, constraints)
    # FD shapes always build their class partition; other shapes only build
    # an index when a write touches them
    if {"fd", "fd2"} & {constraint.name for constraint in constraints}:
        assert_on_code_arrays(walk)


@settings(max_examples=60, deadline=None)
@given(data=walk_scenario(), target_row=st.integers(min_value=0, max_value=5),
       target_attr=st.sampled_from(ATTRS), target_value=VALUES)
def test_fork_onto_equals_fresh_walk_randomised(data, target_row, target_attr,
                                                target_value):
    table, delta, writes = data
    constraints = CONSTRAINT_POOL
    target_row %= table.n_rows
    differing = CellRef(target_row, target_attr)

    with_view = table.perturbed(delta).mutable_snapshot()
    walk_with = repair_walk_for(with_view, constraints).prime()
    without_delta = dict(delta)
    without_delta[differing] = target_value
    without_view = table.perturbed(without_delta).mutable_snapshot()
    walk_without = walk_with.fork_onto(without_view, [differing])
    assert_walk_matches_reference(walk_without, constraints)
    for row, attribute, value in writes:
        without_view.set_value(row, attribute, value)
        assert_walk_matches_reference(walk_without, constraints)
    # forked state never leaks back into the source walk
    assert_walk_matches_reference(walk_with, constraints)
    assert_on_code_arrays(walk_with)


@settings(max_examples=60, deadline=None)
@given(data=walk_scenario(), trial_value=VALUES)
def test_count_if_equals_full_recount_randomised(data, trial_value):
    table, delta, writes = data
    constraints = CONSTRAINT_POOL
    view = table.perturbed(delta).mutable_snapshot()
    walk = repair_walk_for(view, constraints)
    for row, attribute, value in writes:
        view.set_value(row, attribute, value)
    walk.prime()
    # checked before the trials: trials against the pairs/order constraints
    # count as fallback checks by design (no class counters to read)
    assert_on_code_arrays(walk)
    for attribute in ATTRS:
        cell = CellRef(0, attribute)
        expected = len(find_all_violations(view.with_values({cell: trial_value}).copy(),
                                           constraints))
        assert count_if(walk, cell, trial_value) == expected
