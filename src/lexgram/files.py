"""Reading and writing the files lexgram reads and writes.

:func:`read_chunks` is the one reader of user files: it decodes a file
about 256 KiB at a time, and bytes that are not UTF-8 raise a
:class:`~lexgram.errors.SchemaViolation` naming the file and the byte's
position in it.  :func:`read_text` joins its pieces, and :func:`parse_file`
hands them to a parser.  :func:`writing` is the one writer.
"""

from __future__ import annotations

import codecs
import contextlib
import io
import os
import stat
from pathlib import Path
from typing import Callable, Iterator, TextIO, TypeVar

from .errors import SchemaViolation

T = TypeVar("T")

# Input files are read this many bytes at a time.
_CHUNK_BYTES = 1 << 18


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
    ``parse`` finds before it, as when the whole file is decoded first.  A
    fault ``parse`` reports without a file is reported as the same error
    naming ``path``."""
    pieces = read_chunks(path)
    try:
        return parse(pieces)
    except SchemaViolation as err:
        for _ in pieces:
            pass
        if err.source is not None:
            raise
        raise type(err)(err.bare_message, str(path), err.line) from None


@contextlib.contextmanager
def writing(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text stream onto the file at *path*: the one writer of the
    files lexgram writes.

    A new file, or an existing regular file of the writer's own that it may
    write, that is not a symlink and has no other hard link, is written to
    a temporary file beside it, which replaces it, with its mode, once the
    block ends without an error; an error in the block deletes the
    temporary file and leaves *path* as it was.  Any other target (a
    symlink, a device such as /dev/null, a FIFO, a file in a directory that
    takes no new files) is written in place, as opening it for writing does.
    """
    path = Path(path)
    try:
        old = path.lstat()
    except FileNotFoundError:
        old = None
    replaceable = os.access(path.parent, os.W_OK | os.X_OK) and (old is None or (
        stat.S_ISREG(old.st_mode) and old.st_nlink == 1
        and old.st_uid == os.geteuid() and os.access(path, os.W_OK)
    ))
    if not replaceable:
        with open(path, "w", encoding="utf-8") as out:
            yield out
        return
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as out:
            yield out
        if old is not None:
            os.chmod(temporary, stat.S_IMODE(old.st_mode))
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
