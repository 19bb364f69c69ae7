"""Exception hierarchy shared across the package.

Every error raised while reading user-supplied input derives from
:class:`LexgramError` and can carry the offending file name and line number,
so the command line tool can print ``file:line: message`` diagnostics.
Each kind of input has one class: a ``.lgt`` table raises
:class:`TableFormatError`, a ``.lgm`` class matrix :class:`MatrixFormatError`,
a ``.lgs`` script :class:`ScriptSyntaxError`, a morpho-rule or symbol-policy
file :class:`RealizationError`, and a lexicon or record sidecar
:class:`SchemaViolation`.  An unknown component symbol raises
:class:`UnknownSlotSymbol` whichever input names it.  A subclass exists only
where code tells it apart from its kind.
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


class TableFormatError(LexgramError):
    pass


class MatrixFormatError(LexgramError):
    pass


class ScriptSyntaxError(LexgramError):
    pass


class UnknownSlotSymbol(LexgramError):
    """A component symbol outside the closed set, in a table header, a
    script's structure label or an imported lexicon's slot."""


class RealizationError(LexgramError):
    pass


class UnboundPlaceholder(RealizationError):
    pass


class UnknownSymbolicToken(RealizationError):
    pass


class SchemaViolation(LexgramError):
    pass


class UnknownFormatVersion(SchemaViolation):
    pass


class InternalInvariantError(Exception):
    """An invariant the pipeline asserts about its own output was violated."""
