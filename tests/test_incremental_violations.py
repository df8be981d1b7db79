"""The incremental violation detector must agree with the full-rescan path.

Hand-built cases cover each constraint shape (equality-join FDs, constants,
order predicates, single-tuple constraints, constraints with no equality
join), and a hypothesis property test drives random tables × constraints ×
cell deltas through both paths.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CellRef,
    DenialConstraint,
    GreedyHolisticRepair,
    IncrementalViolationDetector,
    PerturbationView,
    RepairWalk,
    SimpleRuleRepair,
    Table,
    find_all_violations,
    find_violations,
    la_liga_constraints,
    la_liga_dirty_table,
)
from repro.constraints.incremental import (
    detector_for,
    find_all_violations_auto,
)
from repro.constraints.predicates import Operator, Predicate
from repro.engine.storage import NULL


def violation_multiset(violations):
    return Counter((v.constraint.name, v.rows) for v in violations)


def assert_paths_agree(base: Table, delta: dict, constraints):
    view = base.perturbed(delta)
    incremental = detector_for(base).violations_for_view(view, list(constraints))
    reference = find_all_violations(view.copy(), constraints)
    assert violation_multiset(incremental) == violation_multiset(reference)
    return incremental


# ---------------------------------------------------------------------------
# hand-built cases on the paper's running example


def test_empty_delta_returns_base_violations():
    base = la_liga_dirty_table()
    constraints = la_liga_constraints()
    incremental = assert_paths_agree(base, {}, constraints)
    reference = find_all_violations(base, constraints)
    assert violation_multiset(incremental) == violation_multiset(reference)


@pytest.mark.parametrize("delta", [
    {CellRef(4, "Country"): "Spain"},                  # repairs the injected error
    {CellRef(4, "City"): NULL},                        # null leaves the eq-group
    {CellRef(0, "City"): "Seville"},                   # moves a row between groups
    {CellRef(0, "Team"): "Betis", CellRef(2, "Team"): "Betis"},  # creates a group
    {CellRef(1, "Country"): "France", CellRef(3, "Country"): "France",
     CellRef(4, "City"): "Barcelona"},                 # multi-row, multi-attr
])
def test_la_liga_deltas(delta):
    assert_paths_agree(la_liga_dirty_table(), delta, la_liga_constraints())


def test_single_tuple_and_constant_constraints():
    base = Table(["A", "B"], [(1, "x"), (5, "y"), (9, "x"), (5, NULL)])
    constraints = [
        DenialConstraint("neg", [Predicate.with_constant("t1", "A", Operator.GT, 6)]),
        DenialConstraint("pair", [
            Predicate.between_tuples("B", Operator.EQ),
            Predicate.with_constant("t1", "A", Operator.LT, 5),
        ]),
    ]
    for delta in (
        {},
        {CellRef(0, "A"): 7},
        {CellRef(2, "A"): 2, CellRef(3, "B"): "x"},
        {CellRef(0, "B"): NULL},
    ):
        assert_paths_agree(base, delta, constraints)


def test_no_equality_join_falls_back_to_full_rescan():
    base = Table(["Rank", "Points"], [(1, 10), (2, 20), (3, 5)])
    order = DenialConstraint("C_ord", [
        Predicate.between_tuples("Rank", Operator.LT),
        Predicate.between_tuples("Points", Operator.LT),
    ])
    for delta in ({}, {CellRef(0, "Points"): 50}, {CellRef(2, "Rank"): NULL}):
        assert_paths_agree(base, delta, [order])


def test_detector_reuses_index_and_restores_it():
    base = la_liga_dirty_table()
    constraints = la_liga_constraints()
    detector = detector_for(base)
    first = detector.violations_for_view(base.perturbed({CellRef(0, "City"): NULL}),
                                         constraints)
    # after the delta run the indexes must be back to base state: an
    # empty-delta query returns exactly the base violations again
    second = detector.violations_for_view(base.perturbed({}), constraints)
    assert violation_multiset(second) == violation_multiset(find_all_violations(base, constraints))
    assert detector is detector_for(base)  # cached per snapshot
    assert first is not second


def test_detector_invalidated_by_base_mutation():
    base = la_liga_dirty_table()
    constraints = la_liga_constraints()
    before = detector_for(base)
    base.set_value(4, "Country", "Spain")
    after = detector_for(base)
    assert after is not before
    assert violation_multiset(after.base_violations(constraints)) == \
        violation_multiset(find_all_violations(base, constraints))


def test_find_all_violations_auto_dispatch():
    base = la_liga_dirty_table()
    constraints = la_liga_constraints()
    plain = find_all_violations_auto(base, constraints)
    view = find_all_violations_auto(base.perturbed({}), constraints)
    expected = violation_multiset(find_all_violations(base, constraints))
    for result in (plain, view):
        assert violation_multiset(result) == expected


def test_violations_for_delta_convenience():
    base = la_liga_dirty_table()
    constraints = la_liga_constraints()
    detector = IncrementalViolationDetector(base, constraints)
    delta = {CellRef(4, "City"): "Barcelona"}
    result = detector.violations_for_delta(delta, constraints)
    reference = find_all_violations(base.with_values(delta), constraints)
    assert violation_multiset(result) == violation_multiset(reference)


# ---------------------------------------------------------------------------
# repair algorithms must give identical repairs on views and on copies; the
# copy is repaired by the engine="reference" rescan (on the default engine a
# plain table is repaired on a zero-delta view as well)


def _repair_agrees(algorithm, reference, base, delta, constraints):
    view = base.perturbed(delta)
    materialized = base.with_values(delta)
    clean_view = algorithm.repair_table(constraints, view)
    clean_copy = reference.repair_table(constraints, materialized)
    assert clean_view.to_records() == clean_copy.to_records()


@pytest.mark.parametrize("delta", [
    {},
    {CellRef(4, "City"): NULL, CellRef(2, "Country"): NULL},
    {CellRef(0, "Country"): "France"},
])
def test_simple_repair_identical_on_views(delta):
    _repair_agrees(SimpleRuleRepair(), SimpleRuleRepair(engine="reference"),
                   la_liga_dirty_table(), delta, la_liga_constraints())


@pytest.mark.parametrize("delta", [
    {},
    {CellRef(4, "City"): NULL},
    {CellRef(1, "Country"): "France"},
])
def test_greedy_repair_identical_on_views(delta):
    _repair_agrees(GreedyHolisticRepair(max_changes=20),
                   GreedyHolisticRepair(max_changes=20, engine="reference"),
                   la_liga_dirty_table(), delta, la_liga_constraints())


# ---------------------------------------------------------------------------
# hypothesis: random tables × constraints × deltas

ATTRS = ("A", "B", "C")
VALUES = st.sampled_from(["x", "y", "z", 1, 2, None])


@st.composite
def table_and_delta(draw):
    n_rows = draw(st.integers(min_value=1, max_value=7))
    rows = [tuple(draw(VALUES) for _ in ATTRS) for _ in range(n_rows)]
    table = Table(ATTRS, rows)
    n_changes = draw(st.integers(min_value=0, max_value=6))
    delta = {}
    for _ in range(n_changes):
        row = draw(st.integers(min_value=0, max_value=n_rows - 1))
        attr = draw(st.sampled_from(ATTRS))
        delta[CellRef(row, attr)] = draw(VALUES)
    return table, delta


CONSTRAINT_POOL = [
    # FD shape: eq-join + same-attribute !=
    DenialConstraint("fd", [Predicate.between_tuples("A", Operator.EQ),
                            Predicate.between_tuples("B", Operator.NE)]),
    # two eq-joins + !=
    DenialConstraint("fd2", [Predicate.between_tuples("A", Operator.EQ),
                             Predicate.between_tuples("C", Operator.EQ),
                             Predicate.between_tuples("B", Operator.NE)]),
    # eq-join + order residual
    DenialConstraint("ord", [Predicate.between_tuples("B", Operator.EQ),
                             Predicate.between_tuples("C", Operator.LT)]),
    # eq-join + constant residual
    DenialConstraint("const", [Predicate.between_tuples("C", Operator.EQ),
                               Predicate.with_constant("t1", "A", Operator.EQ, "x")]),
    # eq-join + two != residuals (not the single-NE fast path)
    DenialConstraint("nene", [Predicate.between_tuples("A", Operator.EQ),
                              Predicate.between_tuples("B", Operator.NE),
                              Predicate.between_tuples("C", Operator.NE)]),
    # no equality join: fallback path
    DenialConstraint("pairs", [Predicate.between_tuples("A", Operator.LT),
                               Predicate.between_tuples("B", Operator.GT)]),
    # single tuple
    DenialConstraint("single", [Predicate.with_constant("t1", "A", Operator.EQ, 1),
                                Predicate.with_constant("t1", "B", Operator.NE, "y")]),
    # pure eq-join (empty residual: every same-key ordered pair violates)
    DenialConstraint("pure", [Predicate.between_tuples("B", Operator.EQ)]),
]


@settings(max_examples=120, deadline=None)
@given(data=table_and_delta(), constraint_mask=st.integers(min_value=1, max_value=2 ** len(CONSTRAINT_POOL) - 1))
def test_incremental_equals_full_rescan_randomised(data, constraint_mask):
    table, delta = data
    constraints = [c for i, c in enumerate(CONSTRAINT_POOL) if constraint_mask >> i & 1]
    view = table.perturbed(delta)
    incremental = detector_for(table).violations_for_view(view, constraints)
    reference = find_all_violations(view.copy(), constraints)
    assert violation_multiset(incremental) == violation_multiset(reference)


@settings(max_examples=60, deadline=None)
@given(data=table_and_delta())
def test_view_reads_equal_materialized_randomised(data):
    table, delta = data
    view = table.perturbed(delta)
    reference = table.with_values(delta)
    assert isinstance(view, PerturbationView)
    assert view.to_records() == reference.to_records()
    for row in range(table.n_rows):
        assert view.row_tuple(row) == reference.row_tuple(row)
    for attribute in table.attributes:
        assert list(view.column(attribute)) == list(reference.column(attribute))
    assert view.equals(reference)
    assert not view.diff(reference)
    # delta-updated statistics equal rebuilt statistics
    for attribute in table.attributes:
        assert dict(view.stats.marginal(attribute).items()) == \
            dict(reference.stats.marginal(attribute).items())


@settings(max_examples=40, deadline=None)
@given(data=table_and_delta())
def test_simple_repair_identical_on_views_randomised(data):
    table, delta = data
    constraints = [CONSTRAINT_POOL[0], CONSTRAINT_POOL[2]]
    algorithm = SimpleRuleRepair(max_iterations=4)
    reference = SimpleRuleRepair(max_iterations=4, engine="reference")
    view_clean = algorithm.repair_table(constraints, table.perturbed(delta))
    copy_clean = reference.repair_table(constraints, table.with_values(delta))
    assert view_clean.to_records() == copy_clean.to_records()


# ---------------------------------------------------------------------------
# FD-shape base detection: the hash-partition pass reproduces the reference
# rescan pair for pair and in order

FD_VALUES = st.sampled_from(["x", "y", "1", 1, 1.0, 2, 2.5, True, False, 0,
                             None, float("nan")])
FD_ATTRS = ("A", "B", "C")

FD_SHAPES = [
    # one-attribute key
    DenialConstraint("fd_a", [Predicate.between_tuples("A", Operator.EQ),
                              Predicate.between_tuples("B", Operator.NE)]),
    # two-attribute key, predicates listed != first and key out of order
    DenialConstraint("fd_ca", [Predicate.between_tuples("B", Operator.NE),
                               Predicate.between_tuples("C", Operator.EQ),
                               Predicate.between_tuples("A", Operator.EQ)]),
    # the != attribute is also part of the key: never violated
    DenialConstraint("fd_self", [Predicate.between_tuples("A", Operator.EQ),
                                 Predicate.between_tuples("A", Operator.NE)]),
    # key on B, classes of C
    DenialConstraint("fd_b", [Predicate.between_tuples("B", Operator.EQ),
                              Predicate.between_tuples("C", Operator.NE)]),
]


@st.composite
def fd_table(draw):
    n_rows = draw(st.integers(min_value=0, max_value=12))
    rows = [tuple(draw(FD_VALUES) for _ in FD_ATTRS) for _ in range(n_rows)]
    return Table(FD_ATTRS, rows)


@settings(max_examples=150, deadline=None)
@given(table=fd_table(), delta_rows=st.lists(st.integers(min_value=0, max_value=11),
                                             max_size=6))
def test_fd_base_violations_match_rescan_in_order(table, delta_rows):
    detector = IncrementalViolationDetector(table)
    # move the shared equality indexes with a view first (through non-FD
    # constraints on the same keys): a group emptied and refilled by
    # apply/revert lands at the end of the index's dict
    probe = {CellRef(row, attr): NULL for row in delta_rows if row < table.n_rows
             for attr in ("A", "B")}
    detector.violations_for_view(table.perturbed(probe), [
        DenialConstraint(f"ord_{'_'.join(key)}", [
            *(Predicate.between_tuples(attr, Operator.EQ) for attr in key),
            Predicate.between_tuples("C", Operator.LT)])
        for key in (("A",), ("A", "C"), ("B",))
    ])
    for constraint in FD_SHAPES:
        state = detector._state(constraint)
        assert state.plan.single_ne_attr is not None
        assert state.base_violations == find_violations(table, constraint)


def test_fd_base_violations_order_survives_index_moves():
    table = Table(["A", "B", "C"], [("x", 1, 0), ("x", 2, 0), ("y", 1, 0), ("y", 2, 0)])
    detector = IncrementalViolationDetector(table)
    general = DenialConstraint("ord", [Predicate.between_tuples("A", Operator.EQ),
                                       Predicate.between_tuples("C", Operator.LT)])
    # nulling both "x" rows empties that group; the revert re-inserts it
    # after "y" in the shared index
    detector.violations_for_view(
        table.perturbed({CellRef(0, "A"): NULL, CellRef(1, "A"): NULL}), [general])
    assert list(detector._index_for(("A",))._groups) == [("y",), ("x",)]
    fd = FD_SHAPES[0]
    assert detector._state(fd).base_violations == find_violations(table, fd)
    assert [v.rows for v in detector._state(fd).base_violations] == [
        (0, 1), (1, 0), (2, 3), (3, 2)]


# ---------------------------------------------------------------------------
# base-table updates: the detector moves its base state in place, and views
# and walks on the updated base still agree with a rescan


@settings(max_examples=80, deadline=None)
@given(data=table_and_delta(),
       writes=st.lists(st.tuples(st.integers(min_value=0, max_value=6),
                                 st.sampled_from(ATTRS), VALUES),
                       min_size=1, max_size=5))
def test_apply_base_update_matches_rescan_randomised(data, writes):
    table, delta = data
    detector = IncrementalViolationDetector(table, CONSTRAINT_POOL)
    detector.base_violations(CONSTRAINT_POOL)  # build every constraint's state
    for row, attribute, value in writes:
        cell = CellRef(row % table.n_rows, attribute)
        old = table.value(cell.row, attribute)
        table.set_value(cell.row, attribute, value)
        detector.apply_base_update({cell: (old, value)})
        assert detector.base_version == table.version  # live, not rebuilt
        assert violation_multiset(detector.base_violations(CONSTRAINT_POOL)) == \
            violation_multiset(find_all_violations(table, CONSTRAINT_POOL))
    view = table.perturbed(delta)
    reference = violation_multiset(find_all_violations(view.copy(), CONSTRAINT_POOL))
    assert violation_multiset(
        detector.violations_for_view(view, CONSTRAINT_POOL)) == reference
    walk = RepairWalk(view, CONSTRAINT_POOL, detector)
    assert violation_multiset(walk.all_violations()) == reference
