"""Unit tests for FD / DC discovery."""

import numpy as np
import pytest

from repro.constraints.discovery import discover_dcs, discover_fds, verify_constraints
from repro.constraints.parser import parse_dc
from repro.dataset.generators import HospitalGenerator
from repro.dataset.table import Table
from repro.errors import ConstraintError


def make_table():
    # City -> State holds; State -> City does not (TX has two cities).
    return Table(
        ["City", "State", "Pop"],
        [
            ["Austin", "TX", 1],
            ["Austin", "TX", 2],
            ["Dallas", "TX", 3],
            ["Boston", "MA", 4],
        ],
    )


def test_discover_fds_finds_city_to_state():
    fds = discover_fds(make_table(), max_lhs_size=1)
    found = {(fd.lhs, fd.rhs) for fd in fds}
    assert (("City",), "State") in found
    assert (("State",), "City") not in found


def test_discover_fds_minimality():
    fds = discover_fds(make_table(), max_lhs_size=2)
    # City -> State already holds, so (City, Pop) -> State must not be reported
    lhs_for_state = [fd.lhs for fd in fds if fd.rhs == "State"]
    assert ("City",) in lhs_for_state
    assert all(set(lhs) == {"City"} or "City" not in lhs for lhs in lhs_for_state)


def test_discovered_fds_hold_on_the_table():
    table = make_table()
    for fd in discover_fds(table, max_lhs_size=2):
        dc = fd.to_dc()
        assert verify_constraints(table, [dc])[dc.name]


def test_discover_fds_ignores_null_groups():
    table = Table(["A", "B"], [["x", 1], ["x", 1], [None, 2], [None, 3]])
    fds = discover_fds(table, max_lhs_size=1)
    assert (("A",), "B") in {(fd.lhs, fd.rhs) for fd in fds}


def test_discover_dcs_reports_valid_minimal_constraints():
    table = make_table()
    dcs = discover_dcs(table, max_predicates=2)
    assert dcs, "expected at least one discovered DC"
    # every reported DC must hold on the table
    results = verify_constraints(table, dcs)
    assert all(results.values())
    # the FD City -> State must appear in DC form
    shapes = {(dc.equality_attributes(), dc.inequality_attributes()) for dc in dcs}
    assert (("City",), ("State",)) in shapes


def test_discover_dcs_excludes_violated_candidates():
    table = make_table()
    dcs = discover_dcs(table, max_predicates=2)
    # State -> City is violated by the data, so its DC shape must be absent
    shapes = {(dc.equality_attributes(), dc.inequality_attributes()) for dc in dcs}
    assert (("State",), ("City",)) not in shapes


def test_discovery_scales_to_generated_dataset():
    dataset = HospitalGenerator(seed=3).generate(30)
    fds = discover_fds(dataset.table, max_lhs_size=1)
    found = {(fd.lhs, fd.rhs) for fd in fds}
    assert (("MeasureCode",), "MeasureName") in found


def test_verify_constraints_flags_violated_constraint():
    table = make_table()
    held = parse_dc("not(t1.City == t2.City and t1.State != t2.State)", name="good")
    broken = parse_dc("not(t1.State == t2.State and t1.City != t2.City)", name="bad")
    results = verify_constraints(table, [held, broken])
    assert results == {"good": True, "bad": False}


@pytest.mark.parametrize("value", [1.5, "2", None, True, False])
def test_discover_fds_rejects_non_integer_max_lhs(value):
    with pytest.raises(ConstraintError, match="must be an integer"):
        discover_fds(make_table(), max_lhs_size=value)


@pytest.mark.parametrize("value", [0, -1, np.int64(0)])
def test_discover_fds_rejects_non_positive_max_lhs(value):
    with pytest.raises(ConstraintError, match="must be positive"):
        discover_fds(make_table(), max_lhs_size=value)


def test_discover_fds_accepts_numpy_integer_max_lhs():
    assert discover_fds(make_table(), max_lhs_size=np.int64(2)) == \
        discover_fds(make_table(), max_lhs_size=2)
