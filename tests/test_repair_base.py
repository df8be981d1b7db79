"""Unit tests for the black-box repair interface (oracle, cache, adapters)."""

import pytest

from repro.dataset.table import CellRef
from repro.engine.stats import TableStatistics
from repro.errors import RepairError
from repro.repair.base import BinaryRepairOracle, FunctionRepairAlgorithm
from repro.repair.cache import OracleCache, memoised_oracle_stats
from repro.repair.greedy import GreedyHolisticRepair
from repro.repair.simple import SimpleRuleRepair, paper_algorithm_1
from repro.shapley.cells import CellShapleyExplainer


def test_function_repair_algorithm_adapter(dirty_table, constraints):
    calls = []

    def fake_repair(cs, table):
        calls.append(len(cs))
        return table.copy()

    algorithm = FunctionRepairAlgorithm(fake_repair, name="identity")
    result = algorithm.repair(constraints, dirty_table)
    assert algorithm.name == "identity"
    assert len(result.delta) == 0
    assert calls == [4]
    assert result.clean.equals(dirty_table)


def test_repair_result_bookkeeping(dirty_table, constraints, algorithm):
    result = algorithm.repair(constraints, dirty_table)
    assert result.was_repaired(CellRef(4, "Country"))
    assert not result.was_repaired(CellRef(0, "Team"))
    assert set(result.repaired_cells) == {CellRef(4, "City"), CellRef(4, "Country")}


def test_oracle_target_value_derived_from_full_repair(dirty_table, constraints, algorithm):
    oracle = BinaryRepairOracle(algorithm, constraints, dirty_table, CellRef(4, "Country"))
    assert oracle.target_value == "Spain"
    assert oracle.repair_runs == 1  # the reference repair


def test_oracle_query_constraint_subsets_match_paper(dirty_table, constraints, algorithm, cell_of_interest):
    oracle = BinaryRepairOracle(algorithm, constraints, dirty_table, cell_of_interest)
    by_name = {c.name: c for c in constraints}
    # Example 2.2 / 2.3: the repair happens with {C3} or with {C1, C2}
    assert oracle.query_constraint_subset([by_name["C3"]]) == 1
    assert oracle.query_constraint_subset([by_name["C1"], by_name["C2"]]) == 1
    assert oracle.query_constraint_subset([by_name["C1"]]) == 0
    assert oracle.query_constraint_subset([by_name["C2"]]) == 0
    assert oracle.query_constraint_subset([by_name["C4"]]) == 0
    assert oracle.query_constraint_subset([]) == 0
    assert oracle.query_constraint_subset(constraints) == 1


def test_oracle_query_cell_coalition(dirty_table, constraints, algorithm, cell_of_interest):
    oracle = BinaryRepairOracle(algorithm, constraints, dirty_table, cell_of_interest)
    all_cells = set(dirty_table.cells())
    assert oracle.query_cell_coalition(all_cells) == 1
    assert oracle.query_cell_coalition(set()) == 0


def test_oracle_cache_avoids_repeated_repair_runs(dirty_table, constraints, algorithm, cell_of_interest):
    oracle = BinaryRepairOracle(algorithm, constraints, dirty_table, cell_of_interest)
    runs_after_init = oracle.repair_runs
    oracle.query_constraint_subset(constraints[:2])
    runs_after_first = oracle.repair_runs
    oracle.query_constraint_subset(constraints[:2])
    assert oracle.repair_runs == runs_after_first  # second query served from cache
    assert oracle.cache_hits == 1
    assert oracle.calls == 2
    assert runs_after_first == runs_after_init + 1


def test_oracle_without_cache_reruns_repairs(dirty_table, constraints, algorithm, cell_of_interest):
    oracle = BinaryRepairOracle(
        algorithm, constraints, dirty_table, cell_of_interest, use_cache=False
    )
    oracle.query_constraint_subset(constraints[:2])
    oracle.query_constraint_subset(constraints[:2])
    assert oracle.repair_runs >= 3  # reference + two uncached queries
    assert oracle.cache_hits == 0


def test_oracle_explicit_target_value(dirty_table, constraints, algorithm, cell_of_interest):
    oracle = BinaryRepairOracle(
        algorithm, constraints, dirty_table, cell_of_interest, target_value="France"
    )
    # Nothing repairs the cell to France, so every query answers 0.
    assert oracle.query_constraint_subset(constraints) == 0
    assert oracle.repair_runs == 1  # no reference repair was needed


def test_oracle_validates_cell(dirty_table, constraints, algorithm):
    with pytest.raises(Exception):
        BinaryRepairOracle(algorithm, constraints, dirty_table, CellRef(99, "Country"))


def test_oracle_reset_counters(dirty_table, constraints, algorithm, cell_of_interest):
    oracle = BinaryRepairOracle(algorithm, constraints, dirty_table, cell_of_interest)
    oracle.query_constraint_subset(constraints)
    oracle.reset_counters()
    stats = oracle.statistics()
    assert stats["oracle_calls"] == 0
    assert stats["repair_runs"] == 0
    assert stats["cache_hits"] == 0


def test_oracle_statistics_helper(dirty_table, constraints, algorithm, cell_of_interest):
    oracle = BinaryRepairOracle(algorithm, constraints, dirty_table, cell_of_interest)
    oracle.query_constraint_subset(constraints)
    oracle.query_constraint_subset(constraints)
    stats = memoised_oracle_stats(oracle)
    assert 0.0 <= stats["cache_hit_rate"] <= 1.0
    assert stats["repair_runs_per_call"] <= 1.0 + 1e-9


def test_oracle_cache_lru_eviction():
    cache = OracleCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 0)
    assert cache.get("a") == 1  # refresh 'a'
    cache.put("c", 1)  # evicts 'b'
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert len(cache) == 2


def test_oracle_cache_counters_and_clear():
    cache = OracleCache()
    assert cache.get("missing") is None
    cache.put("k", 1)
    assert cache.get("k") == 1
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate == pytest.approx(0.5)
    cache.clear()
    assert len(cache) == 0 and cache.hits == 0


def test_oracle_cache_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        OracleCache(max_entries=0)


def test_deterministic_algorithm_contract(dirty_table, constraints):
    algorithm = paper_algorithm_1()
    first = algorithm.repair_table(constraints, dirty_table)
    second = algorithm.repair_table(constraints, dirty_table)
    assert first.equals(second)
    # the input table is never mutated
    assert dirty_table.value(4, "Country") == "España"


@pytest.mark.parametrize("algorithm_class", [SimpleRuleRepair, GreedyHolisticRepair])
def test_engine_choice_is_validated(algorithm_class):
    assert algorithm_class().engine == "fast"
    assert algorithm_class(engine="reference").engine == "reference"
    for bad in ("turbo", "Fast", None, True):
        with pytest.raises(RepairError):
            algorithm_class(engine=bad)


@pytest.mark.parametrize("algorithm_class", [SimpleRuleRepair, GreedyHolisticRepair])
def test_second_order_argument_is_gone(algorithm_class):
    with pytest.raises(TypeError):
        algorithm_class(second_order=False)


def test_oracle_and_explainer_follow_the_algorithm_engine(dirty_table, constraints,
                                                          cell_of_interest):
    for engine in ("fast", "reference"):
        oracle = BinaryRepairOracle(paper_algorithm_1(engine=engine), constraints,
                                    dirty_table, cell_of_interest)
        explainer = CellShapleyExplainer(oracle, policy="null", rng=0)
        assert oracle.engine == engine
        if engine == "fast":
            # the fast engine's instances are views holding plain statistics
            # derived from the base counts
            assert type(oracle._dirty_as_view().stats) is TableStatistics
        assert explainer.sampler.materialize == (engine == "reference")
    # an algorithm without its own engine argument runs on the fast engine
    adapter = FunctionRepairAlgorithm(paper_algorithm_1().repair_table)
    assert BinaryRepairOracle(adapter, constraints, dirty_table,
                              cell_of_interest).engine == "fast"
