"""Unit tests for the denial-constraint parser and formatter."""

import re

import pytest

from repro.constraints.parser import format_dc, parse_dc, parse_dcs
from repro.constraints.predicates import Operator
from repro.errors import ConstraintParseError


def test_parse_simple_fd_style_constraint():
    dc = parse_dc("not(t1.Team == t2.Team and t1.City != t2.City)", name="C1")
    assert dc.name == "C1"
    assert len(dc.predicates) == 2
    assert dc.predicates[0].op is Operator.EQ
    assert dc.predicates[1].op is Operator.NE
    assert dc.equality_attributes() == ("Team",)


def test_parse_accepts_single_equals_sign():
    dc = parse_dc("not(t1.City = t2.City and t1.Country != t2.Country)")
    assert dc.predicates[0].op is Operator.EQ


def test_parse_unicode_paper_notation():
    text = "∀t1, t2. ¬(t1[League] = t2[League] ∧ t1[Country] ≠ t2[Country])"
    dc = parse_dc(text, name="C3")
    assert dc.equality_attributes() == ("League",)
    assert dc.inequality_attributes() == ("Country",)


def test_parse_with_forall_prefix_and_ampersand():
    dc = parse_dc("forall t1, t2 . not(t1.A == t2.A & t1.B != t2.B)")
    assert len(dc.predicates) == 2


def test_parse_constant_predicates():
    dc = parse_dc("not(t1.Year >= 2020 and t1.Place == 1)")
    assert dc.is_single_tuple
    assert dc.predicates[0].right.constant == 2020
    assert dc.predicates[1].right.constant == 1


def test_parse_quoted_string_constant():
    dc = parse_dc("not(t1.City == 'Madrid' and t1.Country != 'Spain')")
    assert dc.predicates[0].right.constant == "Madrid"
    assert dc.predicates[1].right.constant == "Spain"


def test_parse_float_constant():
    dc = parse_dc("not(t1.Rate > 9.5)")
    assert dc.predicates[0].right.constant == pytest.approx(9.5)


def test_parse_order_constraint():
    dc = parse_dc("not(t1.Salary > t2.Salary and t1.Rate < t2.Rate)")
    assert dc.predicates[0].op is Operator.GT
    assert dc.predicates[1].op is Operator.LT


def test_parse_errors():
    with pytest.raises(ConstraintParseError):
        parse_dc("t1.A == t2.A")  # missing not(...)
    with pytest.raises(ConstraintParseError):
        parse_dc("not t1.A == t2.A")  # missing parentheses
    with pytest.raises(ConstraintParseError):
        parse_dc("not()")  # empty body
    with pytest.raises(ConstraintParseError):
        parse_dc("not(t1.A ~ t2.A)")  # unknown operator
    with pytest.raises(ConstraintParseError):
        parse_dc("not(1 == 2)")  # two constants


def test_parse_dcs_autonames():
    dcs = parse_dcs(
        [
            "not(t1.A == t2.A and t1.B != t2.B)",
            "not(t1.C == t2.C and t1.D != t2.D)",
        ]
    )
    assert [dc.name for dc in dcs] == ["C1", "C2"]


def test_format_roundtrip_ascii():
    text = "not(t1.Team == t2.Team and t1.City != t2.City)"
    dc = parse_dc(text, name="C1")
    formatted = format_dc(dc)
    reparsed = parse_dc(formatted, name="C1")
    assert reparsed == dc


def test_format_unicode_matches_paper_style():
    dc = parse_dc("not(t1.City == t2.City and t1.Country != t2.Country)", name="C2")
    rendered = format_dc(dc, unicode_symbols=True)
    assert rendered.startswith("∀t1, t2. ¬(")
    assert "t1[City] = t2[City]" in rendered
    assert "t1[Country] ≠ t2[Country]" in rendered


@pytest.mark.parametrize("text, operand", [
    # a third tuple variable is not a cell operand
    ("not(t1.A == t2.A and t3.B != t2.B)", "'t3.B'"),
    # the operator split leaves '= t2.A' on the right-hand side
    ("not(t1.A === t2.A)", "'= t2.A'"),
    # an unbalanced quote
    ("not(t1.A == 'x)", "\"'x\""),
    ("not(t1.A == x\")", "'x\"'"),
    # a bare word
    ("not(t1.A == Madrid)", "'Madrid'"),
])
def test_malformed_operands_are_rejected(text, operand):
    with pytest.raises(ConstraintParseError, match=f"operand {re.escape(operand)}"):
        parse_dc(text)


def test_every_constant_form_still_parses():
    dc = parse_dc("not(t1.A == 'x' and t1.B != \"y z\" and t1.C < -3 and t1.D >= 2.5e3)")
    assert [p.right.constant for p in dc.predicates] == ["x", "y z", -3, 2500.0]
