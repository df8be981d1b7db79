"""Textual denial-constraint syntax.

The parser accepts a small ASCII language mirroring the paper's notation:

    not(t1.Team == t2.Team and t1.City != t2.City)

Grammar (informal)::

    dc         := ["forall" quantifiers "."] "not" "(" predicate ("and" predicate)* ")"
    predicate  := operand op operand
    operand    := ("t1" | "t2") "." attribute | constant
    op         := "==" | "=" | "!=" | "<>" | "<=" | ">=" | "<" | ">"
    constant   := quoted string | integer | float

Unicode forms (``∀``, ``¬``, ``∧``, ``≠``, ``≤``, ``≥``) are normalised to the
ASCII equivalents before parsing, so constraints can be copied out of the
paper nearly verbatim.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Sequence

from repro.constraints.dc import DenialConstraint
from repro.constraints.predicates import Operand, Operator, Predicate
from repro.errors import ConstraintParseError

#: Replacements applied before tokenisation so the unicode notation of the
#: paper parses directly.
_NORMALISATIONS = (
    ("∀", "forall "),
    ("¬", "not"),
    ("∧", " and "),
    ("&&", " and "),
    ("&", " and "),
    ("≠", "!="),
    ("≤", "<="),
    ("≥", ">="),
    ("[", "."),
    ("]", ""),
)

_OPERATOR_PATTERN = re.compile(r"(==|!=|<>|<=|>=|=|<|>)")
_CELL_PATTERN = re.compile(r"^(t1|t2)\s*\.\s*([A-Za-z_][A-Za-z0-9_ ]*)$")
_QUANTIFIER_PATTERN = re.compile(r"^forall[^.]*\.\s*", re.IGNORECASE)


def _normalise(text: str) -> str:
    result = text.strip()
    for old, new in _NORMALISATIONS:
        result = result.replace(old, new)
    return re.sub(r"\s+", " ", result).strip()


def _parse_constant(token: str, source: str) -> Any:
    """A quoted string, an integer or a float; anything else is an error."""
    if len(token) >= 2 and token[0] == token[-1] and token[0] in ("'", '"'):
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    raise ConstraintParseError(
        source,
        f"operand {token!r} is not a t1/t2 cell, a quoted string or a number",
    )


def _parse_operand(token: str, source: str) -> Operand:
    token = token.strip()
    match = _CELL_PATTERN.match(token)
    if match:
        tuple_name, attribute = match.group(1), match.group(2).strip()
        return Operand.cell(tuple_name, attribute)
    if not token:
        raise ConstraintParseError(source, "empty operand")
    return Operand.const(_parse_constant(token, source))


def _parse_predicate(text: str, source: str) -> Predicate:
    parts = _OPERATOR_PATTERN.split(text, maxsplit=1)
    if len(parts) != 3:
        raise ConstraintParseError(source, f"cannot find a comparison operator in {text!r}")
    left_text, op_symbol, right_text = parts
    operator = Operator.from_symbol(op_symbol)
    left = _parse_operand(left_text, source)
    right = _parse_operand(right_text, source)
    if left.is_constant and right.is_constant:
        raise ConstraintParseError(source, f"predicate {text!r} compares two constants")
    return Predicate(left, operator, right)


def parse_dc(text: str, name: str = "DC", description: str = "") -> DenialConstraint:
    """Parse one denial constraint from its textual form.

    Parameters
    ----------
    text:
        The constraint, e.g. ``"not(t1.City == t2.City and t1.Country != t2.Country)"``
        or the unicode form used in the paper.
    name:
        Name given to the resulting constraint (``"C1"`` etc.).
    description:
        Optional human-readable description carried along.
    """
    original = text
    normalised = _normalise(text)
    normalised = _QUANTIFIER_PATTERN.sub("", normalised)
    lowered = normalised.lower()
    if not lowered.startswith("not"):
        raise ConstraintParseError(original, "a denial constraint must start with 'not(' or '¬('")
    body = normalised[3:].strip()
    if not body.startswith("(") or not body.endswith(")"):
        raise ConstraintParseError(original, "the negated conjunction must be parenthesised")
    body = body[1:-1].strip()
    if not body:
        raise ConstraintParseError(original, "empty conjunction")
    predicate_texts = re.split(r"\s+and\s+", body, flags=re.IGNORECASE)
    predicates = [_parse_predicate(part, original) for part in predicate_texts]
    return DenialConstraint(name=name, predicates=predicates, description=description)


def parse_dcs(texts: Sequence[str] | Iterable[str], prefix: str = "C") -> list[DenialConstraint]:
    """Parse several constraints, auto-naming them ``C1, C2, ...``."""
    return [parse_dc(text, name=f"{prefix}{index + 1}") for index, text in enumerate(texts)]


def format_dc(constraint: DenialConstraint, unicode_symbols: bool = False) -> str:
    """Render a constraint back to text.

    With ``unicode_symbols=True`` the output matches the paper's notation
    (``∀ t1, t2. ¬(t1[City] = t2[City] ∧ ...)``); the default ASCII output can
    be re-parsed by :func:`parse_dc`.
    """
    parts = []
    for predicate in constraint.predicates:
        left, op, right = str(predicate.left), predicate.op.value, str(predicate.right)
        if unicode_symbols:
            op = {"==": "=", "!=": "≠", "<=": "≤", ">=": "≥"}.get(op, op)
            left = re.sub(r"^(t[12])\.(.+)$", r"\1[\2]", left)
            right = re.sub(r"^(t[12])\.(.+)$", r"\1[\2]", right)
        parts.append(f"{left} {op} {right}")
    if unicode_symbols:
        quantified = "∀t1, t2. " if constraint.arity == 2 else "∀t1. "
        return f"{quantified}¬({' ∧ '.join(parts)})"
    return f"not({' and '.join(parts)})"
