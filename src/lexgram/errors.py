"""Exception hierarchy shared across the package.

Every error raised while reading user-supplied input derives from
:class:`LexgramError` and can carry the offending file name and line number,
so the command line tool can print ``file:line: message`` diagnostics.
:class:`InternalInvariantError` is reserved for bugs: conditions the code
asserts about its own output (it maps to a distinct process exit code).
:func:`read_chunks` is the one reader of user files: it decodes a file
about 1 MiB at a time, and bytes that are not UTF-8 raise a
:class:`SchemaViolation` naming the file and the byte's position in it.
:func:`read_text` joins its pieces, and :func:`parse_file` hands them to
a parser.
"""

from __future__ import annotations

import codecs
import io
from pathlib import Path
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")


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


# Input files are read this many bytes at a time.
_CHUNK_BYTES = 1 << 20


def read_chunks(path: str | Path) -> Iterator[str]:
    """The text of the UTF-8 file at ``path`` in pieces, each decoded from
    about ``_CHUNK_BYTES`` bytes, with ``\\r\\n`` and ``\\r`` translated to
    ``\\n`` as a text-mode read does.  No piece is empty.  A character or a
    ``\\r\\n`` split between two reads is decoded whole, in the later piece."""
    utf8 = codecs.getincrementaldecoder("utf-8")()
    decoder = io.IncrementalNewlineDecoder(utf8, translate=True)
    offset = 0  # bytes read before this chunk
    with open(path, "rb") as file:
        while True:
            data = file.read(_CHUNK_BYTES)
            final = not data
            # The decoder holds back the first bytes of a split character.
            start = offset - len(utf8.getstate()[0])
            offset += len(data)
            try:
                text = decoder.decode(data, final=final)
            except UnicodeDecodeError as err:
                raise _not_utf8(err, start, path) from None
            # Hold neither the bytes nor the text of this chunk while the
            # next one is read.
            del data
            if text:
                yield text
            if final:
                return
            del text


def _not_utf8(err: UnicodeDecodeError, start: int, path: str | Path) -> SchemaViolation:
    """The error a whole-file decode gives, for *err* raised decoding bytes
    that begin at position *start* of the file."""
    first, last = start + err.start, start + err.end - 1
    if first == last:
        where = f"byte 0x{err.object[err.start]:02x} in position {first}"
    else:
        where = f"bytes in position {first}-{last}"
    return SchemaViolation(
        f"not UTF-8 text: '{err.encoding}' codec can't decode {where}: {err.reason}", source=str(path),
    )


def read_text(path: str | Path) -> str:
    """The text of the UTF-8 file at ``path``, newlines translated."""
    return "".join(read_chunks(path))


def parse_file(path: str | Path, parse: Callable[[Iterator[str]], T]) -> T:
    """``parse`` over the pieces of the UTF-8 file at ``path``.  A byte that
    is not UTF-8 anywhere in the file is reported in place of a fault
    ``parse`` finds before it, as when the whole file is decoded first."""
    pieces = read_chunks(path)
    try:
        return parse(pieces)
    except SchemaViolation:
        for _ in pieces:
            pass
        raise


# --- internal ---------------------------------------------------------------

class InternalInvariantError(Exception):
    """An invariant the pipeline asserts about its own output was violated."""
