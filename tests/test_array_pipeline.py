"""The array-native coalition pipeline must be invisible in the numbers.

Each bulk layer is checked against a per-object reference, and the contract
is bit-identity, not approximation:

* **bulk delta encoding** (hypothesis) — :meth:`ColumnDictionary.encode_bulk`
  must translate any random value array exactly like a per-value
  :meth:`ColumnDictionary.code_for` loop *and* grow the dictionary identically (novel
  values appended mid-overlay in first-appearance order, NULL/NaN to code 0);
  :meth:`TableEncoding.encode_delta` must agree with the per-value
  :meth:`OverlayStore.encoded_delta` dict on random override sets;
* **zero-object degree ranking** (hypothesis) — the walk's
  :meth:`cell_degrees_arrays` parallel arrays must carry exactly the
  maximum-degree cells of a full :func:`find_all_violations` rescan of the
  materialised view, on random deltas and post-prime write sequences, in
  the rescan's (row, attribute) tie-break order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import CellRef, SoccerLeagueGenerator, la_liga_dirty_table
from repro.constraints.incremental import repair_walk_for
from repro.constraints.violations import find_all_violations
from repro.engine.encoding import NULL_CODE, ColumnDictionary
from repro.engine.storage import NULL, null_mask

# ---------------------------------------------------------------------------
# bulk delta encoding ≡ per-value encoding (hypothesis)
# ---------------------------------------------------------------------------

#: hashable, sortable-in-mixed-company candidate values plus both null forms
_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(["a", "b", "c", "ab"]),
    st.just(NULL),
    st.just(float("nan")),
)


def _seeded_dictionaries(preseed):
    """Two dictionaries grown identically through the per-value entry point."""
    reference, bulk = ColumnDictionary(), ColumnDictionary()
    for value in preseed:
        if not (value is None or value != value):
            reference.code_for(value, is_null=lambda v: False)
            bulk.code_for(value, is_null=lambda v: False)
    return reference, bulk


def _per_value_codes(dictionary, column, mask) -> list[int]:
    """The reference: one :meth:`ColumnDictionary.code_for` call per cell."""
    return [NULL_CODE if null else dictionary.code_for(value, is_null=lambda v: False)
            for value, null in zip(column, mask)]


@settings(max_examples=100, deadline=None)
@given(preseed=st.lists(_VALUES, max_size=5), values=st.lists(_VALUES, max_size=12))
def test_encode_bulk_matches_per_value_loop(preseed, values):
    reference, bulk = _seeded_dictionaries(preseed)
    column = np.empty(len(values), dtype=object)
    column[:] = values
    mask = null_mask(column)
    out_bulk = np.empty(len(values), dtype=np.int32)
    bulk.encode_bulk(column, mask, out_bulk)
    assert out_bulk.tolist() == _per_value_codes(reference, column, mask)
    # identical dictionary growth: same decode table (novel values appended
    # in first-appearance order) and same value→code map
    assert bulk._values == reference._values
    assert bulk._code_of == reference._code_of
    for value, code in zip(values, out_bulk.tolist()):
        if value is None or value != value:
            assert code == NULL_CODE


def test_encode_bulk_unsortable_mixed_types_fall_back():
    # ints and strings do not sort together; the hash loop must take over
    column = np.empty(4, dtype=object)
    column[:] = [1, "x", 1, NULL]
    reference, bulk = _seeded_dictionaries([])
    out_bulk = np.empty(4, dtype=np.int32)
    bulk.encode_bulk(column, null_mask(column), out_bulk)
    assert out_bulk.tolist() == _per_value_codes(reference, column, null_mask(column))
    assert bulk._values == reference._values


def test_encode_bulk_unhashable_leaves_dictionary_consistent():
    column = np.empty(3, dtype=object)
    column[:] = [[1], [2], [1]]
    dictionary = ColumnDictionary()
    out = np.empty(3, dtype=np.int32)
    with pytest.raises(TypeError):
        dictionary.encode_bulk(column, null_mask(column), out)
    # every code handed out before the failure must still decode
    assert len(dictionary._values) == 1 + len(dictionary._code_of)


@st.composite
def _override_sets(draw, table):
    overrides = {}
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        row = draw(st.integers(min_value=0, max_value=table.n_rows - 1))
        attribute = draw(st.sampled_from(table.attributes))
        overrides[CellRef(row, attribute)] = draw(_VALUES)
    return overrides


_TABLE = la_liga_dirty_table()


@settings(max_examples=50, deadline=None)
@given(overrides=_override_sets(_TABLE))
def test_encode_delta_matches_per_value_encoded_delta(overrides):
    # two fresh views over fresh bases: one asks the bulk array entry point,
    # the other the per-value dict reference — same rows, same codes
    view_bulk = la_liga_dirty_table().perturbed(overrides)
    view_reference = la_liga_dirty_table().perturbed(overrides)
    for attribute in _TABLE.attributes:
        arrays = view_bulk._store.encoded_delta_arrays(attribute)
        encoded = view_reference._store.encoded_delta(attribute)
        assert arrays is not None and encoded is not None
        rows, codes = arrays
        assert rows.tolist() == sorted(encoded)
        assert codes.tolist() == [encoded[row] for row in rows.tolist()]
        # and both dictionaries grew the same decode tables (lazily created,
        # so an untouched column is absent from both)
        bulk_dict = view_bulk._store._base.encoding()._dicts.get(attribute)
        ref_dict = view_reference._store._base.encoding()._dicts.get(attribute)
        assert (bulk_dict._values if bulk_dict else None) == \
            (ref_dict._values if ref_dict else None)


# ---------------------------------------------------------------------------
# zero-object degree ranking ≡ the full-rescan degree map (hypothesis)
# ---------------------------------------------------------------------------

_DATASET = SoccerLeagueGenerator(seed=83).generate(30)
_CONSTRAINTS = _DATASET.constraints()
_BASE = _DATASET.table
_ATTRS = _BASE.attributes
_POOLS = {
    attribute: sorted(
        {_BASE.value(row, attribute) for row in range(_BASE.n_rows)}, key=repr
    )
    for attribute in _ATTRS
}


@st.composite
def _cell_writes(draw, max_size: int):
    writes = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_size))):
        row = draw(st.integers(min_value=0, max_value=_BASE.n_rows - 1))
        attribute = draw(st.sampled_from(_ATTRS))
        source = draw(st.sampled_from(_ATTRS))
        value = draw(st.one_of(st.just(NULL), st.sampled_from(_POOLS[source])))
        writes.append((row, attribute, value))
    return writes


def _assert_degrees_agree(view, walk):
    violations = find_all_violations(view.copy(), _CONSTRAINTS)
    total, rows, attr_codes, counts, attrs = walk.cell_degrees_arrays()
    assert total == len(violations)
    cells = [CellRef(int(row), attrs[code])
             for row, code in zip(rows.tolist(), attr_codes.tolist())]
    degrees = {cell: violations.count_for_cell(cell)
               for cell in violations.cells_involved()}
    top = max(degrees.values(), default=0)
    assert dict(zip(cells, counts.tolist())) == {
        cell: count for cell, count in degrees.items() if count == top}
    # the arrays must already ascend in the greedy tie-break order
    assert cells == sorted(cells, key=lambda c: (c.row, c.attribute))


@settings(max_examples=25, deadline=None)
@given(delta=_cell_writes(max_size=6), fork_cells=_cell_writes(max_size=3),
       writes=_cell_writes(max_size=4),
       sides=st.lists(st.booleans(), min_size=4, max_size=4))
def test_degree_arrays_match_cell_dict_on_random_walks(delta, fork_cells, writes, sides):
    overrides = {CellRef(row, attribute): value for row, attribute, value in delta}
    view = _BASE.perturbed(overrides).mutable_snapshot()
    walk = repair_walk_for(view, _CONSTRAINTS).prime()
    # ranking first builds the per-row slot arrays, which the fork must copy
    _assert_degrees_agree(view, walk)
    differing = {CellRef(row, attribute): value for row, attribute, value in fork_cells}
    sibling = _BASE.perturbed({**overrides, **differing}).mutable_snapshot()
    fork = walk.fork_onto(sibling, list(differing))
    _assert_degrees_agree(sibling, fork)
    # writes land on either side; each side must still match its own rescan
    for (row, attribute, value), on_fork in zip(writes, sides):
        (sibling if on_fork else view).set_value(row, attribute, value)
        _assert_degrees_agree(view, walk)
        _assert_degrees_agree(sibling, fork)

