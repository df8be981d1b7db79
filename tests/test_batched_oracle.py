"""``query_pairs`` must answer exactly like a ``query_pair`` loop.

``query_pairs`` dedups a queue of with/without pairs against the
pair-fingerprint memo and within the batch, then evaluates each remaining
pair in submission order on one primed walk forked at the differing cell;
these tests pin the contract that none of that is visible in the answers —
only in the accounting — against an explicit ``query_pair`` loop, the
reference engine and both bundled black boxes.
"""

from __future__ import annotations

import logging

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    BinaryRepairOracle,
    CellRef,
    CellShapleyExplainer,
    GreedyHolisticRepair,
    SimpleRuleRepair,
    Table,
    la_liga_constraints,
    la_liga_dirty_table,
)
from repro.repair.cache import OracleCache
from repro.repair.holoclean import HoloCleanRepair
from repro.shapley.sampling import CellCoalitionSampler, SampledShapleyEstimate

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


def query_pair_loop(oracle, pairs):
    """The answers of one ``query_pair`` call per pair, in order."""
    return [oracle.query_pair(oracle.constraints, with_table, without_table)
            for with_table, without_table in pairs]


def reference_oracle(algorithm=None, **kwargs):
    """An oracle on the reference engine (materialised instances, no shared walks)."""
    return make_oracle(algorithm or SimpleRuleRepair(engine="reference"), **kwargs)


# ---------------------------------------------------------------------------
# answer equivalence


@pytest.mark.parametrize("algorithm_factory", [SimpleRuleRepair,
                                               lambda: GreedyHolisticRepair(max_changes=20)])
@pytest.mark.parametrize("use_cache", [True, False])
def test_query_pairs_equals_query_pair_loop(algorithm_factory, use_cache):
    batched = make_oracle(algorithm_factory(), use_cache=use_cache)
    looped = make_oracle(algorithm_factory(), use_cache=use_cache)
    pairs = sample_pairs(batched, 8)
    assert batched.query_pairs(pairs) == query_pair_loop(looped, pairs)
    assert batched.batches == 1
    assert looped.batches == 0


def test_query_pairs_identical_under_sample_policy():
    batched = make_oracle()
    pairs = sample_pairs(batched, 6, policy="sample", rng=11)
    assert batched.query_pairs(pairs) == query_pair_loop(reference_oracle(), pairs)


def test_query_pairs_empty_queue():
    oracle = make_oracle()
    assert oracle.query_pairs([]) == []
    assert oracle.batches == 0


# ---------------------------------------------------------------------------
# dedup + accounting


def test_query_pairs_dedups_within_batch_and_against_cache():
    oracle = make_oracle()
    (pair,) = sample_pairs(oracle, 1)
    runs_before = oracle.repair_runs
    answers = oracle.query_pairs([pair, pair, pair])
    assert answers[0] == answers[1] == answers[2]
    assert oracle.repair_runs == runs_before + 2  # one evaluation for three requests
    assert oracle.pairs_deduped == 2
    assert oracle.pairs_batched == 3
    assert oracle.max_batch_size == 3
    # a later batch hits the pair memo up front
    deduped_before = oracle.pairs_deduped
    assert oracle.query_pairs([pair]) == [answers[0]]
    assert oracle.repair_runs == runs_before + 2
    assert oracle.pairs_deduped == deduped_before + 1
    statistics = oracle.statistics()
    for key in ("batches", "pairs_batched", "pairs_deduped", "max_batch_size"):
        assert key in statistics


def test_query_pairs_groups_shared_coalition_prefix_on_one_walk():
    """Pairs over one coalition each run as one primed walk plus a fork."""
    oracle = make_oracle(use_cache=False)
    base = oracle.dirty_table
    with_view = base.perturbed({CellRef(0, "City"): None}, trusted=True)
    target = CellRef(2, "Team")
    pairs = [
        (with_view, with_view.perturbed({target: value}, trusted=True))
        for value in ("X", "Y", "Z")
    ]
    runs_before = oracle.repair_runs
    answers = oracle.query_pairs(pairs)
    # every pair is evaluated on its own: two repairs sharing one walk
    assert oracle.repair_runs == runs_before + 2 * 3
    assert oracle.pair_walks == 3
    assert answers == query_pair_loop(reference_oracle(use_cache=False), pairs)


def test_query_pairs_group_fallback_for_algorithms_without_group_support():
    """A repairer without a walk answers each pair by two independent repairs."""
    oracle = make_oracle(HoloCleanRepair(passes=1, train_on_clean_cells=0),
                         use_cache=False)
    base = oracle.dirty_table
    with_view = base.perturbed({CellRef(0, "City"): None}, trusted=True)
    target = CellRef(2, "Team")
    pairs = [
        (with_view, with_view.perturbed({target: value}, trusted=True))
        for value in ("X", "Y")
    ]
    answers = oracle.query_pairs(pairs)
    reference = make_oracle(HoloCleanRepair(passes=1, train_on_clean_cells=0),
                            use_cache=False)
    assert answers == query_pair_loop(reference, pairs)


# ---------------------------------------------------------------------------
# estimates bit-identical with views, shared pair walks and batched pairs (the
# fast engine) and without them (the reference engine), for a fixed seed


@pytest.mark.parametrize("algorithm_factory", [
    SimpleRuleRepair,
    lambda engine="fast": GreedyHolisticRepair(max_changes=20, engine=engine),
])
@pytest.mark.parametrize("policy", ["null", "mode"])
def test_estimates_identical_across_shared_and_batched_flags(algorithm_factory, policy):
    estimates = {}
    for engine in ("reference", "fast"):
        oracle = make_oracle(algorithm_factory(engine=engine))
        explainer = CellShapleyExplainer(oracle, policy=policy, rng=23)
        estimates[engine] = explainer.estimate_cell(CellRef(4, "City"), n_samples=12)
        assert (oracle.batches > 0) == (engine == "fast")
        assert (oracle.pair_walks > 0) == (engine == "fast")
    assert estimates["fast"] == estimates["reference"]


# ---------------------------------------------------------------------------
# hypothesis: random tables, random coalition batches


ATTRS = ("A", "B", "C")
VALUES = st.sampled_from(["x", "y", "z", 1, 2, None])


@st.composite
def batch_scenario(draw):
    """A table plus a batch of pair specs ``(with index, target, value)``
    over drawn with-deltas: a spec may reuse an earlier spec's with-delta
    (several pairs on one with-view) or repeat an earlier spec outright."""
    n_rows = draw(st.integers(min_value=2, max_value=5))
    rows = [tuple(draw(VALUES) for _ in ATTRS) for _ in range(n_rows)]
    table = Table(ATTRS, rows)
    cells = st.tuples(st.integers(min_value=0, max_value=n_rows - 1),
                      st.sampled_from(ATTRS))
    with_deltas = []
    specs = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["new", "shared", "repeat"])) if specs else "new"
        if kind == "repeat":
            specs.append(specs[draw(st.integers(0, len(specs) - 1))])
            continue
        if kind == "new":
            with_deltas.append({CellRef(*cell): draw(VALUES)
                                for cell in draw(st.lists(cells, max_size=4))})
            with_index = len(with_deltas) - 1
        else:
            with_index = draw(st.integers(0, len(with_deltas) - 1))
        specs.append((with_index, CellRef(*draw(cells)), draw(VALUES)))
    return table, with_deltas, specs


@settings(max_examples=40, deadline=None)
@given(data=batch_scenario())
def test_query_pairs_equals_loop_randomised(data):
    from repro.constraints.predicates import Operator, Predicate
    from repro.constraints.dc import DenialConstraint

    table, with_deltas, specs = data
    constraints = [
        DenialConstraint("fd", [Predicate.between_tuples("A", Operator.EQ),
                                Predicate.between_tuples("B", Operator.NE)]),
        DenialConstraint("ord", [Predicate.between_tuples("B", Operator.EQ),
                                 Predicate.between_tuples("C", Operator.LT)]),
    ]
    with_views = [table.perturbed(delta) for delta in with_deltas]
    pairs = [(with_views[index], with_views[index].with_values({target: value}))
             for index, target, value in specs]
    for black_box in (SimpleRuleRepair,
                      lambda **kwargs: GreedyHolisticRepair(max_changes=20, **kwargs)):
        reference = BinaryRepairOracle(black_box(engine="reference"), constraints,
                                       table, CellRef(0, "B"), use_cache=False)
        expected = [(reference.query(constraints, with_table),
                     reference.query(constraints, without_table))
                    for with_table, without_table in pairs]
        for use_cache in (True, False):
            batched = BinaryRepairOracle(black_box(), constraints, table,
                                         CellRef(0, "B"), use_cache=use_cache)
            assert batched.query_pairs(pairs) == expected


# ---------------------------------------------------------------------------
# OracleCache eviction with mixed instance- and pair-fingerprint keys
# (satellite: cache_size 2-4)


@pytest.mark.parametrize("cache_size", [2, 3, 4])
def test_oracle_cache_eviction_with_mixed_key_kinds(cache_size):
    cache = OracleCache(max_entries=cache_size)
    instance_keys = [("names", f"fp{i}") for i in range(3)]
    pair_keys = [("pair", "names", f"fp{i}", f"fp{i}'") for i in range(3)]
    interleaved = [key for pair in zip(instance_keys, pair_keys) for key in pair]
    for i, key in enumerate(interleaved):
        cache.put(key, i % 2)
    assert len(cache) == cache_size
    assert cache.evictions == len(interleaved) - cache_size
    # the newest entries survive regardless of key kind
    for key in interleaved[-cache_size:]:
        assert key in cache
    for key in interleaved[:-cache_size]:
        assert key not in cache


def test_oracle_recomputes_correctly_after_mixed_key_eviction():
    oracle = make_oracle(cache_size=3)
    pairs = sample_pairs(oracle, 4)
    first = oracle.query_pairs(pairs)
    assert oracle.cache_evictions > 0  # 4 pairs thrash a 3-entry cache
    # every answer is recomputed (or re-served) identically after eviction
    second = oracle.query_pairs(pairs)
    assert second == first
    assert first == query_pair_loop(make_oracle(use_cache=False), pairs)


@pytest.mark.parametrize("cache_size", [2, 4])
def test_query_pair_survives_pair_memo_eviction(cache_size):
    oracle = make_oracle(cache_size=cache_size)
    pairs = sample_pairs(oracle, 3)
    answers = [oracle.query_pair(oracle.constraints, w, wo) for w, wo in pairs]
    assert oracle.cache_evictions > 0
    # the evicted first pair is recomputed, not mis-served
    assert oracle.query_pair(oracle.constraints, *pairs[0]) == answers[0]


# ---------------------------------------------------------------------------
# satellites: the HoloClean fallback warning, degenerate estimates


def test_holoclean_repair_pair_warns_once(caplog):
    HoloCleanRepair._pair_fallback_warned = False
    algorithm = HoloCleanRepair(passes=1, train_on_clean_cells=0)
    oracle = make_oracle(algorithm, use_cache=False)
    (pair,) = sample_pairs(oracle, 1)
    with caplog.at_level(logging.WARNING, logger="repro.repair.holoclean.model"):
        oracle.query_pair(oracle.constraints, *pair)
        oracle.query_pair(oracle.constraints, *pair)
    warnings = [record for record in caplog.records
                if "falls back" in record.message]
    assert len(warnings) == 1  # one-time, not per pair
    assert oracle.pair_walks == 0  # the fallback shares nothing


def test_sampled_estimate_degenerate_sample_counts():
    # n_samples < 2: zero/NaN-safe standard error, degenerate interval
    estimate = SampledShapleyEstimate(CellRef(0, "A"), value=0.5,
                                      standard_error=float("inf"), n_samples=1)
    assert estimate.standard_error == 0.0
    assert estimate.confidence_interval() == (0.5, 0.5)
    nan = float("nan")
    estimate = SampledShapleyEstimate(CellRef(0, "A"), value=-1.0,
                                      standard_error=nan, n_samples=0)
    assert estimate.standard_error == 0.0
    assert estimate.confidence_interval() == (-1.0, -1.0)
    # a healthy estimate is untouched
    estimate = SampledShapleyEstimate(CellRef(0, "A"), value=0.5,
                                      standard_error=0.1, n_samples=100)
    low, high = estimate.confidence_interval()
    assert low == pytest.approx(0.5 - 1.96 * 0.1)
    assert high == pytest.approx(0.5 + 1.96 * 0.1)


def test_estimate_cell_with_one_sample_is_degenerate_but_finite():
    oracle = make_oracle()
    explainer = CellShapleyExplainer(oracle, policy="null", rng=5)
    estimate = explainer.estimate_cell(CellRef(0, "City"), n_samples=1)
    assert estimate.n_samples == 1
    assert estimate.standard_error == 0.0
    assert estimate.confidence_interval() == (estimate.value, estimate.value)
