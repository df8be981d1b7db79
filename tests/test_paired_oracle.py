"""``query_pair`` must answer exactly like two independent ``query`` calls.

The paired oracle shares one repair walk (and one row cache, one statistics
fork) between the with/without instances of a Monte-Carlo sample; these tests
pin the contract that sharing is invisible in the answers, the call
accounting (modulo the shared walk itself) and the cache contents.  The
independent answers come from the same black box on the reference engine.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    BinaryRepairOracle,
    CellRef,
    FunctionRepairAlgorithm,
    GreedyHolisticRepair,
    SimpleRuleRepair,
    Table,
    la_liga_constraints,
    la_liga_dirty_table,
)
from repro.repair.cache import OracleCache
from repro.shapley.sampling import CellCoalitionSampler

CELL_OF_INTEREST = CellRef(4, "Country")


def make_oracle(algorithm=None, **kwargs):
    return BinaryRepairOracle(
        algorithm or SimpleRuleRepair(),
        la_liga_constraints(),
        la_liga_dirty_table(),
        CELL_OF_INTEREST,
        **kwargs,
    )


def sample_pairs(oracle, n_pairs, policy="null", rng=7):
    sampler = CellCoalitionSampler(oracle.dirty_table, policy=policy, rng=rng)
    return [sampler.sample_pair(CellRef(0, "City")) for _ in range(n_pairs)]


# ---------------------------------------------------------------------------
# answer equivalence


@pytest.mark.parametrize("algorithm_factory", [
    SimpleRuleRepair,
    lambda engine="fast": GreedyHolisticRepair(max_changes=20, engine=engine),
])
@pytest.mark.parametrize("use_cache", [True, False])
def test_query_pair_equals_two_queries(algorithm_factory, use_cache):
    paired = make_oracle(algorithm_factory(), use_cache=use_cache)
    unpaired = make_oracle(algorithm_factory(engine="reference"), use_cache=use_cache)
    for with_table, without_table in sample_pairs(paired, 8):
        pair = paired.query_pair(paired.constraints, with_table, without_table)
        independent = (
            unpaired.query_table(with_table),
            unpaired.query_table(without_table),
        )
        assert pair == independent


def test_query_pair_identical_under_sample_policy():
    paired = make_oracle()
    unpaired = make_oracle(SimpleRuleRepair(engine="reference"))
    for with_table, without_table in sample_pairs(paired, 6, policy="sample", rng=11):
        assert paired.query_pair(paired.constraints, with_table, without_table) == (
            unpaired.query_table(with_table),
            unpaired.query_table(without_table),
        )


def test_repair_pair_equals_two_repairs():
    constraints = la_liga_constraints()
    algorithm = SimpleRuleRepair()
    oracle = make_oracle(algorithm)
    for with_table, without_table in sample_pairs(oracle, 6):
        differing = with_table.differing_cells(without_table)
        clean_with, clean_without = algorithm.repair_pair(
            constraints, with_table, without_table, differing
        )
        assert clean_with.to_records() == \
            algorithm.repair_table(constraints, with_table).to_records()
        assert clean_without.to_records() == \
            algorithm.repair_table(constraints, without_table).to_records()


# ---------------------------------------------------------------------------
# accounting


def test_query_pair_accounting():
    oracle = make_oracle(use_cache=False)
    runs_before = oracle.repair_runs
    (with_table, without_table), = sample_pairs(oracle, 1)
    oracle.query_pair(oracle.constraints, with_table, without_table)
    assert oracle.calls == 2                       # one pair == two oracle queries
    assert oracle.repair_runs == runs_before + 2   # both instances were repaired
    assert oracle.pair_walks == 1                  # ...in one shared walk
    assert "pair_walks" in oracle.statistics()


def test_query_pair_falls_back_without_pairing():
    oracle = make_oracle(SimpleRuleRepair(engine="reference"), use_cache=False)
    (with_table, without_table), = sample_pairs(oracle, 1)
    oracle.query_pair(oracle.constraints, with_table, without_table)
    assert oracle.pair_walks == 0
    assert oracle.calls == 2


def test_pair_walks_not_counted_for_unshared_repairs():
    """An algorithm that cannot share a walk must not inflate pair_walks."""
    rescan = SimpleRuleRepair(engine="reference")
    oracle = make_oracle(FunctionRepairAlgorithm(rescan.repair_table), use_cache=False)
    assert oracle.engine == "fast"
    (with_table, without_table), = sample_pairs(oracle, 1)
    answers = oracle.query_pair(oracle.constraints, with_table, without_table)
    reference = make_oracle(rescan, use_cache=False)
    assert answers == (reference.query_table(with_table),
                       reference.query_table(without_table))
    assert oracle.pair_walks == 0
    assert oracle.repair_runs == 3  # reference repair + the two instances


def test_query_pair_memoises_pair_results():
    oracle = make_oracle()
    (with_table, without_table), = sample_pairs(oracle, 1)
    first = oracle.query_pair(oracle.constraints, with_table, without_table)
    runs = oracle.repair_runs
    second = oracle.query_pair(oracle.constraints, with_table, without_table)
    assert first == second
    assert oracle.repair_runs == runs  # served from the pair memo
    # the individual answers are also cached: a plain query costs no repair
    assert oracle.query_table(with_table) == first[0]
    assert oracle.repair_runs == runs


def test_query_pair_with_multi_cell_same_row_difference():
    """Pairs differing in several cells of one row must still match two repairs.

    Regression guard for the statistics fork: multi-cell same-row diffs
    cannot be applied as independent per-cell updates, so the pair path must
    fall back to fresh statistics there.
    """
    paired = make_oracle(use_cache=False)
    unpaired = make_oracle(SimpleRuleRepair(engine="reference"), use_cache=False)
    base_delta = {CellRef(0, "City"): None, CellRef(2, "Team"): None}
    with_view = paired.dirty_table.perturbed(base_delta, trusted=True)
    without_view = with_view.perturbed(
        {CellRef(1, "City"): "Seville", CellRef(1, "Country"): "France"}, trusted=True
    )
    assert paired.query_pair(paired.constraints, with_view, without_view) == (
        unpaired.query_table(with_view),
        unpaired.query_table(without_view),
    )


def test_query_pair_with_identical_instances():
    oracle = make_oracle(use_cache=False)
    view = oracle.dirty_table.perturbed({CellRef(0, "City"): None}, trusted=True)
    sibling = view.perturbed({}, trusted=True)
    value_with, value_without = oracle.query_pair(oracle.constraints, view, sibling)
    assert value_with == value_without


# ---------------------------------------------------------------------------
# cache bounds (satellite: LRU limit + eviction counter)


def test_oracle_cache_eviction_counter():
    cache = OracleCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 0)
    assert cache.evictions == 0
    cache.put("c", 1)
    cache.put("d", 0)
    assert cache.evictions == 2
    assert len(cache) == 2
    cache.reset_counters()
    assert cache.evictions == 0


def test_oracle_cache_size_is_configurable():
    oracle = make_oracle(cache_size=2)
    pairs = sample_pairs(oracle, 4)
    for with_table, without_table in pairs:
        oracle.query_pair(oracle.constraints, with_table, without_table)
    assert oracle.cache_evictions > 0
    assert oracle.statistics()["cache_evictions"] == oracle.cache_evictions


def test_oracle_cache_rejects_bad_bound():
    with pytest.raises(ValueError):
        OracleCache(max_entries=0)


# ---------------------------------------------------------------------------
# differing_cells (the pair sub-delta derivation)


def test_differing_cells_between_siblings():
    base = la_liga_dirty_table()
    with_view = base.perturbed({CellRef(0, "City"): None, CellRef(1, "Team"): "X"},
                               trusted=True)
    without_view = with_view.perturbed({CellRef(0, "Country"): "France"}, trusted=True)
    assert with_view.differing_cells(without_view) == [CellRef(0, "Country")]
    assert without_view.differing_cells(with_view) == [CellRef(0, "Country")]
    assert with_view.differing_cells(with_view.perturbed({}, trusted=True)) == []


def test_differing_cells_requires_shared_base():
    base = la_liga_dirty_table()
    other = la_liga_dirty_table()
    with pytest.raises(Exception):
        base.perturbed({}).differing_cells(other.perturbed({}))


# ---------------------------------------------------------------------------
# hypothesis: random tables, random coalitions, both black boxes

ATTRS = ("A", "B", "C")
VALUES = st.sampled_from(["x", "y", "z", 1, 2, None])


@st.composite
def pair_scenario(draw):
    n_rows = draw(st.integers(min_value=2, max_value=6))
    rows = [tuple(draw(VALUES) for _ in ATTRS) for _ in range(n_rows)]
    table = Table(ATTRS, rows)
    delta = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        row = draw(st.integers(min_value=0, max_value=n_rows - 1))
        attr = draw(st.sampled_from(ATTRS))
        delta[CellRef(row, attr)] = draw(VALUES)
    target = CellRef(draw(st.integers(min_value=0, max_value=n_rows - 1)),
                     draw(st.sampled_from(ATTRS)))
    target_value = draw(VALUES)
    return table, delta, target, target_value


@settings(max_examples=50, deadline=None)
@given(data=pair_scenario())
def test_query_pair_equals_two_queries_randomised(data):
    from repro.constraints.predicates import Operator, Predicate
    from repro.constraints.dc import DenialConstraint

    table, delta, target, target_value = data
    constraints = [
        DenialConstraint("fd", [Predicate.between_tuples("A", Operator.EQ),
                                Predicate.between_tuples("B", Operator.NE)]),
        DenialConstraint("ord", [Predicate.between_tuples("B", Operator.EQ),
                                 Predicate.between_tuples("C", Operator.LT)]),
    ]
    with_view = table.perturbed(delta)
    without_view = with_view.with_values({target: target_value})

    paired = BinaryRepairOracle(SimpleRuleRepair(), constraints, table,
                                CellRef(0, "B"), use_cache=False)
    unpaired = BinaryRepairOracle(SimpleRuleRepair(engine="reference"), constraints,
                                  table, CellRef(0, "B"), use_cache=False)
    assert paired.query_pair(constraints, with_view, without_view) == (
        unpaired.query(constraints, with_view),
        unpaired.query(constraints, without_view),
    )
