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

import numpy as np
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
from repro.constraints.incremental import RepairWalk, _FDPartition, repair_walk_for
from repro.constraints.predicates import Operator, Predicate
from repro.engine.index import MultiColumnIndex
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
    # FD shapes always build their partition; other shapes only build
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


# ---------------------------------------------------------------------------
# multi-row write batches: the walk moves once per Table.set_values batch

#: base values plus writes the base dictionaries never saw
BATCH_VALUES = st.sampled_from(["x", "y", "z", 1, 2, None, float("nan"),
                                "new1", "new2"])
#: a one-cell write of the base table's own value (it restores the cell)
RESTORE = object()


def _reference_degrees(violations):
    """The rescan's maximum-degree cells and their degree."""
    degrees = {(cell.row, cell.attribute): violations.count_for_cell(cell)
               for cell in violations.cells_involved()}
    top = max(degrees.values(), default=0)
    return {cell: count for cell, count in degrees.items() if count == top}


def _walk_degrees(walk):
    total, rows, attr_codes, counts, attrs = walk.cell_degrees_arrays()
    return total, {(int(row), attrs[code]): int(count)
                   for row, code, count in zip(rows, attr_codes, counts)}


def assert_partitions_match_fresh(walk):
    """Each partition's slot sizes and total, and the walk's maintained
    degree grid, against fresh partitions built over the view's current codes.

    Slot numbers differ between a moved and a fresh partition, so sizes are
    compared per row, and every slot size must be non-negative and sum to
    the row count (a slot that keeps a row it lost fails there).
    """
    grid = None if walk._grid is None else np.zeros_like(walk._grid)
    for constraint, state in walk._cstates.items():
        part = state.part
        if part is None:
            continue
        plan = walk.detector._state(constraint).plan
        fresh = _FDPartition([walk._codes(attribute) for attribute in plan.eq_attrs],
                             walk._codes(plan.single_ne_attr))
        assert part.total == fresh.total
        assert part.degrees.tolist() == fresh.degrees.tolist()
        for sizes, slots, fresh_sizes, fresh_slots in (
                (part.group_size, part.row_group, fresh.group_size, fresh.row_group),
                (part.class_size, part.row_class, fresh.class_size, fresh.row_class)):
            assert sizes[slots].tolist() == fresh_sizes[fresh_slots].tolist()
            assert sizes.min() >= 0 and int(sizes.sum()) == walk.view.n_rows
        if grid is not None:
            for column in walk._layout.grid_columns[constraint]:
                grid[:, column] += fresh.degrees
    if grid is not None:
        assert walk._grid.tolist() == grid.tolist()


def assert_walk_state_matches_rescan(walk, constraints):
    """Every reader of the walk against a rescan of a materialised copy."""
    reference = find_all_violations(walk.view.copy(), constraints)
    assert violation_multiset(walk.all_violations()) == violation_multiset(reference)
    for constraint in constraints:
        expected = sorted({row for violation in reference
                           if violation.constraint is constraint
                           for row in violation.rows})
        assert walk.violating_rows_for(constraint) == expected
    assert _walk_degrees(walk) == (len(reference), _reference_degrees(reference))
    assert_partitions_match_fresh(walk)


def assert_trials_match_rescan(walk, constraints, cell, values):
    """Candidate trials at ``cell``, scored against the maintained state."""
    assert walk.count_if_many_at(cell.row, cell.attribute, values) == [
        len(find_all_violations(walk.view.with_values({cell: value}).copy(), constraints))
        for value in values]


@st.composite
def batch_scenario(draw):
    n_rows = draw(st.integers(min_value=2, max_value=7))
    rows = [tuple(draw(VALUES) for _ in ATTRS) for _ in range(n_rows)]
    table = Table(ATTRS, rows)
    delta = {CellRef(draw(st.integers(0, n_rows - 1)), draw(st.sampled_from(ATTRS))):
             draw(VALUES) for _ in range(draw(st.integers(0, 4)))}
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        attribute = draw(st.sampled_from(ATTRS))
        batch_rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=1,
                                   max_size=n_rows))
        if draw(st.booleans()):
            # one value for the whole batch: on a key column this moves the
            # rows into one group, creating it or emptying the groups they left
            value = draw(BATCH_VALUES)
            values = [value] * len(batch_rows)
        else:
            values = [draw(BATCH_VALUES) for _ in batch_rows]
        # then a run of one-cell writes, as greedy steps make them
        writes = draw(st.lists(st.tuples(st.integers(0, n_rows - 1), st.sampled_from(ATTRS),
                                         st.one_of(BATCH_VALUES, st.just(RESTORE))),
                               max_size=4))
        batches.append((attribute, batch_rows, values, writes))
    trial = (draw(st.integers(0, n_rows - 1)), draw(st.sampled_from(ATTRS)),
             draw(st.lists(BATCH_VALUES, min_size=1, max_size=4)))
    return table, delta, batches, trial


@settings(max_examples=120, deadline=None)
@given(data=batch_scenario(),
       constraint_mask=st.integers(min_value=1, max_value=2 ** len(CONSTRAINT_POOL) - 1))
def test_walk_follows_multi_row_batches_randomised(data, constraint_mask):
    table, delta, batches, (trial_row, trial_attr, trial_values) = data
    # the FD shapes with one and with two key columns always take part
    constraints = [c for i, c in enumerate(CONSTRAINT_POOL)
                   if constraint_mask >> i & 1 or c.name in ("fd", "fd2")]
    view = table.perturbed(delta).mutable_snapshot()
    walk = repair_walk_for(view, constraints).prime()
    assert_walk_state_matches_rescan(walk, constraints)
    cell = CellRef(trial_row, trial_attr)
    for attribute, rows, values, writes in batches:
        view.set_values(attribute, rows, values)
        assert_walk_state_matches_rescan(walk, constraints)
        # candidate trials, scored against the maintained partitions
        assert_trials_match_rescan(walk, constraints, cell, trial_values)
        # a clone forked off the synced walk, one cell apart, then written on
        sibling = table.perturbed({**view.delta, cell: trial_values[0]}).mutable_snapshot()
        clone = walk.fork_onto(sibling, [cell])
        assert_walk_state_matches_rescan(clone, constraints)
        sibling.set_values(attribute, rows, values[::-1])
        assert_walk_state_matches_rescan(clone, constraints)
        # greedy's traffic: one-cell writes to key and != columns (NULL, new
        # values, base-value restores), each followed by the degree readout
        # and candidate trials, on the walk and on its written clone
        for row, write_attr, value in writes:
            written = CellRef(row, write_attr)
            for walked in (walk, clone):
                walked.view.set_value(row, write_attr,
                                      table[written] if value is RESTORE else value)
                assert_walk_state_matches_rescan(walked, constraints)
                assert_trials_match_rescan(walked, constraints, written, trial_values)
                assert_trials_match_rescan(walked, constraints, cell, trial_values)
    assert_walk_state_matches_rescan(walk, constraints)


# ---------------------------------------------------------------------------
# list mode: the walk's forked equality index ≡ an index of the materialised view

#: the shapes a walk keeps violation lists for: an order, a constant and a
#: two-``!=`` residual, an empty residual, and a residual over a two-column key
LIST_MODE_POOL = [
    DenialConstraint("ord", [Predicate.between_tuples("B", Operator.EQ),
                             Predicate.between_tuples("C", Operator.LT)]),
    DenialConstraint("const", [Predicate.between_tuples("C", Operator.EQ),
                               Predicate.with_constant("t1", "A", Operator.EQ, "x")]),
    DenialConstraint("nene", [Predicate.between_tuples("A", Operator.EQ),
                              Predicate.between_tuples("B", Operator.NE),
                              Predicate.between_tuples("C", Operator.NE)]),
    DenialConstraint("pure", [Predicate.between_tuples("B", Operator.EQ)]),
    DenialConstraint("key2", [Predicate.between_tuples("A", Operator.EQ),
                              Predicate.between_tuples("C", Operator.EQ),
                              Predicate.between_tuples("B", Operator.LT)]),
]


def assert_walk_indexes_match_view(walk):
    """Every list-mode constraint's walk index against a fresh build over a
    materialised copy of the view: the same keys, the same ascending rows,
    and the same key per row."""
    copy = walk.view.copy()
    for constraint in walk.constraints:
        assert walk._cstates[constraint].part is None  # list mode
        eq_attrs = walk.detector._state(constraint).plan.eq_attrs
        walk_index = walk._windex(eq_attrs)
        fresh = MultiColumnIndex(copy.store, eq_attrs)
        assert dict(walk_index.index.groups()) == dict(fresh.groups())
        assert [walk_index.key_of(row) for row in range(copy.n_rows)] == \
            [fresh.build_key_of(row) for row in range(copy.n_rows)]


@settings(max_examples=100, deadline=None)
@given(data=batch_scenario(),
       constraint_mask=st.integers(min_value=1, max_value=2 ** len(LIST_MODE_POOL) - 1))
def test_list_mode_walk_index_equals_fresh_index_randomised(data, constraint_mask):
    table, delta, batches, (trial_row, trial_attr, trial_values) = data
    constraints = [c for i, c in enumerate(LIST_MODE_POOL) if constraint_mask >> i & 1]
    view = table.perturbed(delta).mutable_snapshot()
    walk = repair_walk_for(view, constraints).prime()
    assert_walk_indexes_match_view(walk)
    # a fork taken right after the prime, one cell apart
    cell = CellRef(trial_row, trial_attr)
    sibling = table.perturbed({**view.delta, cell: trial_values[0]}).mutable_snapshot()
    clone = walk.fork_onto(sibling, [cell])
    assert_walk_indexes_match_view(clone)
    for attribute, rows, values, writes in batches:
        for walked, batch_values in ((walk, values), (clone, values[::-1])):
            walked.view.set_values(attribute, rows, batch_values)
            assert_walk_indexes_match_view(walked)
            for row, write_attr, value in writes:
                walked.view.set_value(row, write_attr, table[CellRef(row, write_attr)]
                                      if value is RESTORE else value)
                assert_walk_indexes_match_view(walked)
        assert_walk_matches_reference(walk, constraints)
        assert_walk_matches_reference(clone, constraints)
    # the walks moved forks only: the detector's shared indexes are the base's
    for eq_attrs, index in walk.detector._indexes.items():
        fresh = MultiColumnIndex(table.store, eq_attrs)
        assert dict(index.groups()) == dict(fresh.groups())
        assert [index.build_key_of(row) for row in range(table.n_rows)] == \
            [fresh.build_key_of(row) for row in range(table.n_rows)]


# ---------------------------------------------------------------------------
# an FD over a column the encoding cannot code keeps a violation list


def _unencodable_scenario():
    """``fd_b`` (A → B) reads list-valued B cells; ``fd_a`` (C → A) has the
    violations, and repairing them moves rows between ``fd_b``'s groups.

    Every row the repairs score has a null B, so the statistics never hash a
    list.
    """
    fd_b = DenialConstraint("fd_b", [Predicate.between_tuples("A", Operator.EQ),
                                     Predicate.between_tuples("B", Operator.NE)])
    fd_a = DenialConstraint("fd_a", [Predicate.between_tuples("C", Operator.EQ),
                                     Predicate.between_tuples("A", Operator.NE)])
    table = Table(["A", "B", "C"], [
        ("a0", [1], "c0"),
        ("a1", [2], "c1"),
        ("a2", None, "k"),
        ("a3", None, "k"),
        ("a2", None, "k"),
        ("a4", None, "k"),
        ("a2", None, "k"),
    ])
    return table, [fd_b, fd_a]


@pytest.mark.parametrize("algorithm", [SimpleRuleRepair, GreedyHolisticRepair])
def test_unencodable_fd_column_takes_list_mode(algorithm):
    table, constraints = _unencodable_scenario()
    assert table.store.encoding().codes(table.store, "B") is None
    fast, reference = (algorithm(engine=engine) for engine in ("fast", "reference"))
    encoding = table.store.encoding()
    before = encoding.fallback_checks
    clean = fast.repair_table(constraints, table)
    assert encoding.fallback_checks > before  # the FD on B fell back to a list
    assert clean.to_records() == reference.repair_table(constraints, table).to_records()
    assert clean.to_records() != table.to_records()

    differing = CellRef(5, "A")
    with_view = table.perturbed({CellRef(3, "C"): None})
    without_view = table.perturbed({CellRef(3, "C"): None, differing: "a2"})
    pair = fast.repair_pair(constraints, with_view, without_view, [differing])
    assert [t.to_records() for t in pair] == [
        t.to_records()
        for t in reference.repair_pair(constraints, with_view, without_view, [differing])]

    walk = repair_walk_for(table.perturbed({}).mutable_snapshot(), constraints).prime()
    assert walk._cstates[constraints[0]].part is None  # list mode
    assert walk._cstates[constraints[1]].part is not None  # partition
    walk.view.set_values("A", [3, 5], ["a2", "a0"])  # moves rows into B's groups
    assert_walk_state_matches_rescan(walk, constraints)
