"""Exception hierarchy shared across the package.

Every error raised while reading user-supplied input derives from
:class:`LexgramError` and can carry the offending file name and line number,
so the command line tool can print ``file:line: message`` diagnostics.
:class:`InternalInvariantError` is reserved for bugs: conditions the code
asserts about its own output (it maps to a distinct process exit code).
"""

from __future__ import annotations


class LexgramError(Exception):
    """Base class for all input-related errors."""

    def __init__(self, message: str, source: str | None = None, line: int | None = None):
        self.source = source
        self.line = line
        self.bare_message = message
        if source is not None and line is not None:
            message = f"{source}:{line}: {message}"
        elif source is not None:
            message = f"{source}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# --- table files ------------------------------------------------------------

class TableFormatError(LexgramError):
    pass


class RowArityMismatch(TableFormatError):
    pass


class UnknownCellToken(TableFormatError):
    pass


class DuplicateFeatureId(TableFormatError):
    pass


class UnknownSlotSymbol(TableFormatError):
    pass


# --- class matrix -----------------------------------------------------------

class MatrixFormatError(LexgramError):
    pass


class UnknownValueToken(MatrixFormatError):
    pass


class DuplicateClassId(MatrixFormatError):
    pass


class InconsistentMatrix(MatrixFormatError):
    pass


# --- extraction script ------------------------------------------------------

class ScriptSyntaxError(LexgramError):
    pass


class NestedAlternation(ScriptSyntaxError):
    pass


class UnterminatedGroup(ScriptSyntaxError):
    pass


class DuplicateRule(ScriptSyntaxError):
    pass


class MalformedPlaceholder(ScriptSyntaxError):
    pass


# --- realization ------------------------------------------------------------

class RealizationError(LexgramError):
    pass


class UnboundPlaceholder(RealizationError):
    pass


class UnknownSymbolicToken(RealizationError):
    pass


# --- statistics -------------------------------------------------------------

class ZeroInitial(LexgramError):
    pass


# --- serialization ----------------------------------------------------------

class SchemaViolation(LexgramError):
    pass


class UnknownFormatVersion(SchemaViolation):
    pass


# --- internal ---------------------------------------------------------------

class InternalInvariantError(Exception):
    """An invariant the pipeline asserts about its own output was violated."""
