"""The dictionary-encoded engine must be invisible in the numbers.

The repair walk evaluates FD re-checks, mixed-group detection, greedy
candidate trials and batched co-occurrence scoring over ``int32`` code
arrays.  The reference is the full rescan: :func:`find_all_violations` on a
materialised copy of the view, and the ``engine="reference"`` path at
explain level.  The contract is bit-identity, not approximation:

* walk-level (hypothesis): randomised perturbation deltas and post-prime
  write sequences must yield the rescan's violations, maximum-degree cells
  and candidate-trial counts;
* explain-level: full cell-Shapley runs — both bundled black boxes, all
  three replacement policies, both engines — must produce the value
  dictionaries of the cache-free full-rescan reference.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    BinaryRepairOracle,
    CellRef,
    CellShapleyExplainer,
    GreedyHolisticRepair,
    SimpleRuleRepair,
    SoccerLeagueGenerator,
    la_liga_constraints,
    la_liga_dirty_table,
)
from repro.constraints.incremental import repair_walk_for
from repro.constraints.violations import find_all_violations
from repro.engine.storage import NULL

# ---------------------------------------------------------------------------
# walk-level equivalence on randomised deltas (hypothesis)
# ---------------------------------------------------------------------------

_DATASET = SoccerLeagueGenerator(seed=47).generate(30)
_CONSTRAINTS = _DATASET.constraints()
_BASE = _DATASET.table
_ATTRS = _BASE.attributes
_POOLS = {
    attribute: sorted(
        {_BASE.value(row, attribute) for row in range(_BASE.n_rows)}, key=repr
    )
    for attribute in _ATTRS
}


def _violation_multiset(violations):
    return Counter((v.constraint.name, v.rows) for v in violations)


@st.composite
def _cell_writes(draw, max_size: int):
    """Up to ``max_size`` cell writes: same-column values, foreign values
    (exercising dictionary growth) and nulls."""
    writes = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_size))):
        row = draw(st.integers(min_value=0, max_value=_BASE.n_rows - 1))
        attribute = draw(st.sampled_from(_ATTRS))
        source = draw(st.sampled_from(_ATTRS))
        value = draw(st.one_of(st.just(NULL), st.sampled_from(_POOLS[source])))
        writes.append((row, attribute, value))
    return writes


def _rescan(view):
    return find_all_violations(view.copy(), _CONSTRAINTS)


def _assert_walk_matches_rescan(view, walk):
    violations = _rescan(view)
    assert _violation_multiset(walk.all_violations()) == \
        _violation_multiset(violations)
    total, rows, attr_codes, counts, attrs = walk.cell_degrees_arrays()
    assert total == len(violations)
    top = {CellRef(row, attrs[code]): count for row, code, count
           in zip(rows.tolist(), attr_codes.tolist(), counts.tolist())}
    degrees = {cell: violations.count_for_cell(cell)
               for cell in violations.cells_involved()}
    top_degree = max(degrees.values(), default=0)
    assert top == {cell: count for cell, count in degrees.items()
                   if count == top_degree}


@settings(max_examples=25, deadline=None)
@given(delta=_cell_writes(max_size=6), writes=_cell_writes(max_size=4),
       data=st.data())
def test_walk_matches_object_path_on_random_deltas(delta, writes, data):
    overrides = {CellRef(row, attribute): value for row, attribute, value in delta}
    view = _BASE.perturbed(overrides).mutable_snapshot()
    walk = repair_walk_for(view, _CONSTRAINTS)
    _assert_walk_matches_rescan(view, walk)
    # post-prime writes: the walk's own second-order maintenance
    for row, attribute, value in writes:
        view.set_value(row, attribute, value)
        _assert_walk_matches_rescan(view, walk)
    # candidate trials: the batched pass must equal one rescan per candidate
    row = data.draw(st.integers(min_value=0, max_value=_BASE.n_rows - 1))
    attribute = data.draw(st.sampled_from(_ATTRS))
    pool = _POOLS[attribute][:5]
    totals = walk.count_if_many_at(row, attribute, pool)
    assert totals == [
        len(_rescan(view.perturbed({CellRef(row, attribute): value})))
        for value in pool
    ]


# ---------------------------------------------------------------------------
# explain-level equivalence (cell Shapley, both black boxes, all policies)
# ---------------------------------------------------------------------------

_CELL_OF_INTEREST = CellRef(4, "Country")
_PROBES = [CellRef(4, "City"), CellRef(0, "Country")]

#: path label -> engine; the labels are the golden fixture's axis names
_ENGINE_PATHS = {"full": "reference", "paired_batched": "fast"}


def _make_algorithm(name: str, engine: str):
    if name == "simple":
        return SimpleRuleRepair(engine=engine)
    return GreedyHolisticRepair(max_changes=20, engine=engine)


def _explain(algorithm: str, policy: str, path: str, use_cache: bool = True):
    oracle = BinaryRepairOracle(
        _make_algorithm(algorithm, _ENGINE_PATHS[path]),
        la_liga_constraints(), la_liga_dirty_table(), _CELL_OF_INTEREST,
        use_cache=use_cache,
    )
    with CellShapleyExplainer(oracle, policy=policy, rng=11) as explainer:
        result = explainer.explain(cells=_PROBES, n_samples=8)
    return result.values, oracle.statistics()


def _reference(algorithm: str, policy: str):
    """The full-rescan reference without the oracle memo."""
    values, _ = _explain(algorithm, policy, "full", use_cache=False)
    return values


@pytest.mark.parametrize("policy", ["mode", "sample", "null"])
@pytest.mark.parametrize("algorithm", ["simple", "greedy"])
def test_explain_vectorized_bit_identical(algorithm, policy):
    values, stats = _explain(algorithm, policy, "paired_batched")
    assert values == _reference(algorithm, policy)
    # the code-array engine actually engaged (and never silently fell back)
    encoding = stats["encoding"]
    assert encoding["vectorized_checks"] > 0
    assert encoding["fallback_checks"] == 0
    assert set(encoding["dictionary_sizes"]) == set(
        la_liga_dirty_table().attributes
    )


@pytest.mark.parametrize("policy", ["mode", "sample", "null"])
@pytest.mark.parametrize("path", sorted(_ENGINE_PATHS))
@pytest.mark.parametrize("algorithm", ["simple", "greedy"])
def test_explain_vectorized_bit_identical_full_grid(algorithm, path, policy):
    values, _ = _explain(algorithm, policy, path)
    assert values == _reference(algorithm, policy)
