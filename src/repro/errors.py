"""Exception hierarchy for the T-REx reproduction.

All library-specific errors derive from :class:`TRexError` so callers can
catch a single base class.  Specific subclasses signal which subsystem
rejected the input, which keeps error handling in the examples and the
interactive session precise.
"""

from __future__ import annotations


class TRexError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class SchemaError(TRexError):
    """A table, tuple or cell reference is inconsistent with the schema."""


class UnknownAttributeError(SchemaError):
    """An attribute name does not exist in the schema."""

    def __init__(self, attribute: str, known: tuple[str, ...] = ()):
        self.attribute = attribute
        self.known = tuple(known)
        message = f"unknown attribute {attribute!r}"
        if known:
            message += f" (schema attributes: {', '.join(known)})"
        super().__init__(message)


class UnknownRowError(SchemaError):
    """A row index is outside the table."""

    def __init__(self, row: int, n_rows: int):
        self.row = row
        self.n_rows = n_rows
        super().__init__(f"row {row} out of range for table with {n_rows} rows")


class InputFileError(TRexError):
    """An input file is missing, is a directory, or is not UTF-8 text."""

    def __init__(self, path, error: Exception):
        self.path = str(path)
        if isinstance(error, UnicodeDecodeError):
            reason = f"not UTF-8 text (invalid byte at offset {error.start})"
        else:
            reason = getattr(error, "strerror", None) or str(error)
        self.reason = reason
        super().__init__(f"cannot read {self.path}: {reason}")


class ConstraintError(TRexError):
    """A denial constraint is malformed."""


class ConstraintParseError(ConstraintError):
    """The textual DC representation could not be parsed."""

    def __init__(self, text: str, reason: str):
        self.text = text
        self.reason = reason
        super().__init__(f"cannot parse denial constraint {text!r}: {reason}")


class RepairError(TRexError):
    """A repair algorithm failed to produce a valid output table."""


class ExplanationError(TRexError):
    """The explanation engine was asked an impossible question."""


class NotRepairedError(ExplanationError):
    """The cell of interest was not changed by the repair, so there is
    nothing to explain."""

    def __init__(self, cell) -> None:
        self.cell = cell
        super().__init__(
            f"cell {cell} was not repaired by the algorithm; "
            "choose a cell whose value changed between the dirty and clean table"
        )

