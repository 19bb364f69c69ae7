"""Lexicon serialization: versioned text format, XML, and the record sidecar.

The text format (``.lgx``) is line-oriented and tab-separated.  A header
carries the format version, the source table ids, and the extraction script
itself (hash-guarded), so an exported lexicon is self-contained: extending
it later needs no access to the original script file.  Each entry block
ends with the three labeled sections (Lexical information, Arguments,
Constructions).  ``<E>`` stands for an empty value.

The XML format (``.lgx.xml``) carries the same content; importing either
format reproduces the document exactly.  XML export refuses a field holding
a character XML 1.0 cannot carry.
"""

from __future__ import annotations

import io
import itertools
import re
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO, TypeVar
from xml.parsers import expat

from .errors import SchemaViolation, UnknownFormatVersion
from .files import parse_file, writing
from .model import (
    EMPTY_CELLS,
    EMPTY_TOKEN,
    ENTRY_ID,
    PASS_TAGS,
    ArgumentSpec,
    Fields,
    LexEntry,
    Origin,
    Provenance,
    RecordRow,
    Selection,
    SurfaceForm,
    parse_entry_id,
)

# The header digest is taken with CPython's own SHA-256: importing hashlib
# loads OpenSSL's libcrypto, over 3 MiB of every command's resident set,
# only to hash a script of a few KiB.  An interpreter built without either
# module falls back to hashlib.
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

T = TypeVar("T")

TOOL_VERSION = "0.1.0"
GENERATOR = f"lexgram {TOOL_VERSION}"
FORMAT_VERSION = 1

SECTION_LEXICAL = "Lexical information"
SECTION_ARGUMENTS = "Arguments"
SECTION_CONSTRUCTIONS = "Constructions"


class LexiconDocument(Fields):
    __match_args__ = ("entries", "table_ids", "script_source", "generator")

    def __init__(
        self, entries: list[LexEntry], table_ids: tuple[str, ...], script_source: str, generator: str = GENERATOR,
    ):
        self.entries = entries
        self.table_ids = table_ids
        self.script_source = script_source
        self.generator = generator

    @property
    def script_sha256(self) -> str:
        return sha256(self.script_source.encode("utf-8")).hexdigest()


def _check_entry_ids(entries: list[LexEntry]) -> None:
    """Every id parses, names its entry's table and pass, and is unique.
    Every cross-ref is an entry id and none of the other ids and cross-refs:
    an entry removed as a duplicate is in no lexicon and has one survivor."""
    holder: dict[str, str] = {}  # each id and cross-ref -> the id of the entry holding it
    for entry in entries:
        entry_id = entry.entry_id
        try:
            table_id, _, tag, _ = parse_entry_id(entry_id)
        except ValueError as err:
            raise SchemaViolation(str(err)) from None
        if table_id != entry.table_id or tag != PASS_TAGS.get(entry.provenance.kind):
            raise SchemaViolation(
                f"entry id {entry_id!r} does not match its table {entry.table_id!r} "
                f"and provenance {entry.provenance.kind.value!r}"
            )
        if entry_id in holder:
            other = holder[entry_id]
            raise SchemaViolation(
                f"duplicate entry id {entry_id!r}" if other == entry_id
                else f"entry {other!r}: cross-ref {entry_id!r} names an entry of the lexicon"
            )
        holder[entry_id] = entry_id
        for ref in entry.cross_refs:
            other = holder.get(ref)
            if other is not None or ENTRY_ID.fullmatch(ref) is None:
                fault = "is not an entry id" if other is None else f"is a cross-ref of entry {other!r} too"
                if other == ref:
                    fault = "names an entry of the lexicon"
                raise SchemaViolation(f"entry {entry_id!r}: cross-ref {ref!r} {fault}")
            holder[ref] = entry_id


def _held_surface(parent: LexEntry, rendered: str, tokens: tuple[str, ...]) -> SurfaceForm | None:
    """A surface of *parent*'s lexical information equal to *rendered* and
    *tokens*, whichever field holds it, or None."""
    for own in parent.paraphrases + parent.intensified:
        if own.rendered == rendered and own.tokens == tokens:
            return own
    for _, own in parent.other_structures:
        if own.rendered == rendered and own.tokens == tokens:
            return own
    return None


def _parent_id(bases: dict[str, LexEntry], parent_id: str | None) -> str | None:
    """The parent's own id string if the parent was read, else *parent_id*."""
    parent = bases.get(parent_id)
    return parent_id if parent is None else parent.entry_id


def _entry(
    bases: dict[str, LexEntry],
    share: Callable[[T, T], T],
    entry_id: str,
    table_id: str,
    category: str,
    surface: SurfaceForm,
    components: dict[str, str],
    aux: dict[str, str],
    paraphrases: tuple[SurfaceForm, ...],
    other_structures: tuple[tuple[str, SurfaceForm], ...],
    intensified: tuple[SurfaceForm, ...],
    arguments: tuple[ArgumentSpec, ...],
    construction_ids: tuple[str, ...],
    internal_structures: tuple[str, ...],
    binary_features: dict[str, bool],
    provenance: Provenance,
    cross_refs: tuple[str, ...],
) -> LexEntry:
    """The entry a reader read, sharing what ``extend`` shares.

    *bases* indexes the base entries read so far by id, and a base entry
    joins it.  A variant whose parent is there takes, of what equals its
    parent's, the parent's own objects: its surface (any equal surface the
    parent's lexical information holds), binary features and kept
    component texts; the readers already gave its provenance the parent's
    id string.  *share* is the ``setdefault`` of the read's one table of
    names, through which the arguments and internal-structure tuples go
    too, so equal ones are one tuple; a variant's arguments equal to its
    parent's are the parent's without a lookup.  An entry with no
    component or aux cell holds EMPTY_CELLS.  The readers pass each token
    and cell text through a table of words that starts empty with each
    input piece, so equal words of the entries read from one piece are one
    string; an entry cut by a piece's end may hold a word twice.  Besides
    that table, *bases* and the table behind *share* are the only tables
    that span entries.
    """
    internal_structures = share(internal_structures, internal_structures)
    parent = bases.get(provenance.parent)
    if parent is None:
        arguments = share(arguments, arguments)
    else:
        surface = _held_surface(parent, surface.rendered, surface.tokens) or surface
        # in the same order too, so that the entry writes the same lines
        parent_features = parent.binary_features
        if binary_features == parent_features and list(binary_features) == list(parent_features):
            binary_features = parent_features
        arguments = parent.arguments if arguments == parent.arguments else share(arguments, arguments)
        if components:
            kept_texts = parent.components
            for slot, text in components.items():
                kept = kept_texts.get(slot)
                if kept == text:
                    components[slot] = kept
    entry = LexEntry(
        entry_id, table_id, category, surface, components or EMPTY_CELLS, aux or EMPTY_CELLS, paraphrases,
        other_structures, intensified, arguments, construction_ids, internal_structures, binary_features,
        provenance, cross_refs,
    )
    if provenance.parent is None:
        bases[entry_id] = entry
    return entry


# =============================================================================
# text format
# =============================================================================

def _unsent(text: str) -> str:
    return "" if text == EMPTY_TOKEN else text


class _Unreadable(Exception):
    """What an entry holds that the text reader would read back as another value."""


def _field(text: str) -> str:
    """A field where ``<E>`` stands for empty, so cannot be itself."""
    if not text:
        return EMPTY_TOKEN
    if text == EMPTY_TOKEN:
        raise _Unreadable(f"a field reading {EMPTY_TOKEN!r}")
    return text


def _name(text: str | None) -> str:
    """A provenance parent, feature or template, where ``<E>`` stands for
    none, so cannot be empty."""
    if text is None:
        return EMPTY_TOKEN
    if not text:
        raise _Unreadable("an empty provenance parent, feature or template")
    return _field(text)


def _surface_fields(surface: SurfaceForm) -> str:
    tokens = " ".join(surface.tokens)
    # The reader splits the token field at whitespace.  A tab, newline or
    # carriage return is left to the check of the whole block.
    if tokens.split() != list(surface.tokens) and not any(char in tokens for char in _TEXT_BREAKS):
        raise _Unreadable("a surface token that is empty or holds whitespace")
    return f"{_field(surface.rendered)}\t{_field(tokens)}"


# What no field can hold: tab and newline separate fields and lines, and a
# file read with newline translation turns a carriage return into a newline.
_TEXT_BREAKS = {"\t": "tab", "\n": "newline", "\r": "carriage return"}


def _unwritable(where: str, char: str) -> SchemaViolation:
    return SchemaViolation(f"{where} holds a {_TEXT_BREAKS[char]}, which the text format cannot carry")


class _Memo(dict):
    """A dict that makes the value of a missing key with *make*, once: the
    writers keep what they build from a name for the rest of one export."""

    def __init__(self, make: Callable[[str], object]):
        self.make = make

    def __missing__(self, key: str):
        value = self[key] = self.make(key)
        return value


def _entry_block(entry: LexEntry, feature_lines: _Memo) -> str:
    """The lines of *entry*, each after a newline; *feature_lines* holds the
    two ``feature`` lines of each feature id, value ``-`` then ``+``."""
    p = entry.provenance
    parts = [
        f"\nentry\t{entry.entry_id}\ntable\t{entry.table_id}"
        f"\nprovenance\t{p.kind.value}\t{_name(p.parent)}\t{_name(p.feature_id)}\t{_name(p.template)}"
        f"\nsurface\t{_surface_fields(entry.surface)}"
    ]
    for fid, value in entry.binary_features.items():
        parts.append(feature_lines[fid][1 if value else 0])
    for ref in entry.cross_refs:
        parts.append(f"\ncross-ref\t{ref}")
    parts.append(f"\n{SECTION_LEXICAL}\ncategory\t{entry.category}")
    for slot, text in entry.components.items():
        parts.append(f"\ncomponent\t{slot}\t{_field(text)}")
    for column, text in entry.aux.items():
        parts.append(f"\naux\t{column}\t{_field(text)}")
    for surface in entry.paraphrases:
        parts.append(f"\nparaphrase\t{_surface_fields(surface)}")
    for label, surface in entry.other_structures:
        parts.append(f"\nother-structure\t{label}\t{_surface_fields(surface)}")
    for surface in entry.intensified:
        parts.append(f"\nintensified\t{_surface_fields(surface)}")
    parts.append(f"\n{SECTION_ARGUMENTS}")
    for a in entry.arguments:
        parts.append(f"\nargument\t{a.slot}\t{a.selection.value}")
    parts.append(f"\n{SECTION_CONSTRUCTIONS}")
    for cid in entry.construction_ids:
        parts.append(f"\nconstruction\t{cid}")
    for label in entry.internal_structures:
        parts.append(f"\ninternal-structure\t{label}")
    block = "".join(parts)
    # The separators the layout writes: 8 lines and 9 tabs on the entry,
    # table, provenance, surface, section and category lines, and one line
    # with 1, 2 or 3 tabs for each repeated value.  A field holding a tab or
    # a newline adds one.
    ones = len(entry.cross_refs) + len(entry.construction_ids) + len(entry.internal_structures)
    twos = (
        len(entry.binary_features) + len(entry.components) + len(entry.aux)
        + len(entry.paraphrases) + len(entry.intensified) + len(entry.arguments)
    )
    threes = len(entry.other_structures)
    if "\r" in block:
        raise _unwritable(f"entry {entry.entry_id!r}", "\r")
    if block.count("\n") != 8 + ones + twos + threes:
        raise _unwritable(f"entry {entry.entry_id!r}", "\n")
    if block.count("\t") != 9 + ones + 2 * twos + 3 * threes:
        raise _unwritable(f"entry {entry.entry_id!r}", "\t")
    return block


def export_text(doc: LexiconDocument, out: TextIO) -> None:
    """Write *doc* to *out*, the header and then one block per entry.
    Raises SchemaViolation, naming the entry, for a field holding a tab, a
    newline or a carriage return, and for what would read back as
    something else: a field reading ``<E>`` where that stands for empty, an
    empty provenance parent, feature or template, a surface token that is
    empty or holds whitespace, and an empty table id.  The embedded script
    and the generator may hold tabs, and the script newlines."""
    if "\r" in doc.script_source:
        raise _unwritable("the embedded script", "\r")
    for char in "\n\r":
        if char in doc.generator:
            raise _unwritable("the generator", char)
    for table_id in doc.table_ids:
        if not table_id:
            raise SchemaViolation("table id '' is empty, which the text format cannot carry")
        for char in _TEXT_BREAKS:
            if char in table_id:
                raise _unwritable(f"table id {table_id!r}", char)
    lines = [
        f"#lgx\t{FORMAT_VERSION}",
        f"#generator\t{doc.generator}",
        "#tables\t" + "\t".join(doc.table_ids),
        f"#script-sha256\t{doc.script_sha256}",
        "#script-begin",
    ]
    lines.extend(f"#|{line}" for line in doc.script_source.split("\n"))
    lines.append("#script-end")
    lines.append(f"#entries\t{len(doc.entries)}")
    out.write("\n".join(lines))
    feature_lines = _Memo(lambda fid: (f"\nfeature\t{fid}\t-", f"\nfeature\t{fid}\t+"))
    for entry in doc.entries:
        try:
            block = _entry_block(entry, feature_lines)
        except _Unreadable as err:
            raise SchemaViolation(
                f"entry {entry.entry_id!r} holds {err}, which the text format cannot carry"
            ) from None
        out.write("\n" + block)
    out.write("\n")


_ORIGINS = {origin.value: origin for origin in Origin}
_SELECTIONS = {selection.value: selection for selection in Selection}
_FEATURE_VALUES = {"+": True, "-": False}
_SECTIONS = frozenset((SECTION_LEXICAL, SECTION_ARGUMENTS, SECTION_CONSTRUCTIONS))

# What a line does that the text reader memoizes, and the code of each
# keyword whose lines hold one name.
_FEATURE, _ARGUMENT, _PROVENANCE, _SECTION, _INTERNAL, _CONSTRUCTION, _TABLE, _CATEGORY = range(8)
_ONE_NAME_LINES = {
    "internal-structure": _INTERNAL, "construction": _CONSTRUCTION, "table": _TABLE, "category": _CATEGORY,
}


def _malformed(line: str) -> SchemaViolation:
    return SchemaViolation(f"malformed line: {line!r}")


def _entry_count(text: str) -> int:
    """A header's entry count: ``0``, or ASCII digits without a leading zero."""
    if not re.fullmatch("0|[1-9][0-9]*", text):
        raise SchemaViolation(f"bad entry count {text!r}")
    return int(text)


def _repeated(what: str, entry_id: str | None) -> SchemaViolation:
    """A second line or element of a field that an entry holds once."""
    if entry_id is None:
        return SchemaViolation(f"repeated {what}")
    return SchemaViolation(f"entry {entry_id!r}: repeated {what}")


def _read_surface(fields: list[str], words: Callable[[str, str], str]) -> SurfaceForm:
    """The surface on a line split at tabs: keyword or label, rendered form,
    tokens; each token goes through *words*, the piece's table of words."""
    if len(fields) != 3:
        raise SchemaViolation(f"malformed surface fields: {fields[1:]!r}")
    rendered, text = fields[1], fields[2]
    tokens = [] if text == EMPTY_TOKEN else text.split()
    return SurfaceForm(tuple(map(words, tokens, tokens)), "" if rendered == EMPTY_TOKEN else rendered)


def _read_provenance(
    fields: list[str], share: Callable[[str, str], str], bases: dict[str, LexEntry],
) -> Provenance:
    if len(fields) != 5:
        raise SchemaViolation(f"malformed provenance fields: {fields[1:]!r}")
    kind = _ORIGINS.get(fields[1])
    if kind is None:
        raise SchemaViolation(f"unknown provenance kind {fields[1]!r}")
    feature_id, template = _unsent(fields[3]), _unsent(fields[4])
    try:
        return Provenance(
            kind, _parent_id(bases, _unsent(fields[2]) or None),
            share(feature_id, feature_id) if feature_id else None,
            share(template, template) if template else None,
        )
    except ValueError as err:
        raise SchemaViolation(str(err)) from None


def _read_entries(lines: Iterable[str], words: Callable[[str, str], str]) -> list[LexEntry]:
    """The entries of a text lexicon's body, read in one pass.

    A blank or whitespace-only line ends the open block, so *lines* must
    end with one.  A repeated single-valued line (entry, table,
    provenance, surface, category) is refused; of repeated feature,
    component and aux keys, the last wins.

    A line that holds only names (a section header, or a feature, table,
    category, internal-structure, construction, argument or base
    provenance line) means the same wherever it stands: once read without
    error, its result is kept with the line as key.  Every other line is
    split and dispatched on its keyword each time.

    Every name (feature id, slot, column, label, construction id, table id,
    category) goes through one table, so equal names across entries are
    one string.  Each entry is built by :func:`_entry` with that table,
    and its tokens and cell texts go through *words*, the
    ``setdefault`` of a table of words that the caller empties at the end
    of each input piece (see :func:`_emptying`), so equal words of the
    entries of a piece are one string.  The provenance of a variant
    whose parent came first holds the parent's own id string.  A
    variant's surface line that reads as any of its parent's surfaces,
    when the provenance line came first, is that surface: the reader builds
    no new one and looks up none of its tokens.
    """
    share = {}.setdefault
    bases: dict[str, LexEntry] = {}
    memo: dict[str, tuple] = {}
    entries: list[LexEntry] = []
    in_block = False
    entry_id = table_id = category = provenance = surface = None
    components: dict[str, str] = {}
    aux: dict[str, str] = {}
    features: dict[str, bool] = {}
    paraphrases: list[SurfaceForm] = []
    other_structures: list[tuple[str, SurfaceForm]] = []
    intensified: list[SurfaceForm] = []
    arguments: list[ArgumentSpec] = []
    constructions: list[str] = []
    internal: list[str] = []
    cross_refs: list[str] = []
    for line in lines:
        hit = memo.get(line)
        if hit is None:
            if not line or line.isspace():
                if not in_block:
                    continue
                if entry_id is None or table_id is None or category is None or provenance is None or surface is None:
                    missing = [
                        name for name, value in (
                            ("entry", entry_id), ("table", table_id), ("category", category),
                            ("provenance", provenance), ("surface", surface),
                        ) if value is None
                    ]
                    raise SchemaViolation(f"entry block missing {', '.join(missing)}")
                entries.append(_entry(
                    bases, share, entry_id, table_id, category, surface, components, aux, tuple(paraphrases),
                    tuple(other_structures), tuple(intensified), tuple(arguments), tuple(constructions),
                    tuple(internal), features, provenance, tuple(cross_refs),
                ))
                in_block = False
                entry_id = table_id = category = provenance = surface = None
                components, aux, features = {}, {}, {}
                paraphrases, other_structures, intensified, arguments = [], [], [], []
                constructions, internal, cross_refs = [], [], []
                continue
            fields = line.split("\t")
            keyword = fields[0]
            if keyword == "component":
                if len(fields) != 3:
                    raise _malformed(line)
                text = fields[2]
                components[share(fields[1], fields[1])] = "" if text == EMPTY_TOKEN else words(text, text)
            elif keyword == "entry":
                if len(fields) != 2:
                    raise _malformed(line)
                if entry_id is not None:
                    raise _repeated("'entry' line", entry_id)
                entry_id = fields[1]
            elif keyword == "provenance":
                if provenance is not None:
                    raise _repeated("'provenance' line", entry_id)
                provenance = _read_provenance(fields, share, bases)
                if provenance.parent is None:
                    memo[line] = _PROVENANCE, None, provenance
            elif keyword == "surface":
                if surface is not None:
                    raise _repeated("'surface' line", entry_id)
                parent = None if provenance is None else bases.get(provenance.parent)
                if parent is not None and len(fields) == 3:
                    # the fields as _read_surface reads them, less the table of words
                    text = fields[2]
                    tokens = () if text == EMPTY_TOKEN else tuple(text.split())
                    surface = _held_surface(parent, _unsent(fields[1]), tokens)
                if surface is None:
                    surface = _read_surface(fields, words)
            elif keyword == "paraphrase":
                paraphrases.append(_read_surface(fields, words))
            elif keyword == "other-structure":
                if len(fields) != 4:
                    raise _malformed(line)
                other_structures.append((share(fields[1], fields[1]), _read_surface(fields[1:], words)))
            elif keyword == "aux":
                if len(fields) != 3:
                    raise _malformed(line)
                text = fields[2]
                aux[share(fields[1], fields[1])] = "" if text == EMPTY_TOKEN else words(text, text)
            elif keyword == "intensified":
                intensified.append(_read_surface(fields, words))
            elif keyword == "cross-ref":
                if len(fields) != 2:
                    raise _malformed(line)
                cross_refs.append(fields[1])
            elif keyword in _ONE_NAME_LINES:
                if len(fields) != 2:
                    raise _malformed(line)
                hit = memo[line] = _ONE_NAME_LINES[keyword], share(fields[1], fields[1]), None
            elif keyword == "feature":
                if len(fields) != 3:
                    raise _malformed(line)
                value = _FEATURE_VALUES.get(fields[2])
                if value is None:
                    raise SchemaViolation(f"malformed feature line: {line!r}")
                hit = memo[line] = _FEATURE, share(fields[1], fields[1]), value
            elif keyword == "argument":
                if len(fields) != 3:
                    raise _malformed(line)
                selection = _SELECTIONS.get(fields[2])
                if selection is None:
                    raise SchemaViolation(f"malformed argument line: {line!r}")
                hit = memo[line] = _ARGUMENT, None, ArgumentSpec(share(fields[1], fields[1]), selection)
            elif line in _SECTIONS:
                hit = memo[line] = _SECTION, None, None
            else:
                raise SchemaViolation(f"unknown line keyword {keyword!r}")
            if hit is None:
                in_block = True
                continue
        # the codes in the order of how many lines of a lexicon hold them
        code, name, value = hit
        if code == _FEATURE:
            features[name] = value
        elif code == _SECTION:
            pass
        elif code == _TABLE:
            if table_id is not None:
                raise _repeated("'table' line", entry_id)
            table_id = name
        elif code == _CATEGORY:
            if category is not None:
                raise _repeated("'category' line", entry_id)
            category = name
        elif code == _INTERNAL:
            internal.append(name)
        elif code == _CONSTRUCTION:
            constructions.append(name)
        elif code == _PROVENANCE:
            if provenance is not None:
                raise _repeated("'provenance' line", entry_id)
            provenance = value
        elif code == _ARGUMENT:
            arguments.append(value)
        in_block = True
    return entries


def _pieces(source: str | Iterable[str]) -> Iterable[str]:
    """*source* if it is an iterable of pieces; a whole text is one piece."""
    return (source,) if isinstance(source, str) else source


def _line_chunks(pieces: Iterable[str]) -> Iterator[list[str]]:
    """``"".join(pieces).split("\\n")``, one piece's lines at a time: the
    partial last line of a piece is carried over into the next."""
    tail = ""
    for piece in pieces:
        lines = piece.split("\n")
        del piece
        lines[0] = tail + lines[0]
        tail = lines.pop()
        yield lines
        del lines
    yield [tail]


def _emptying(pieces: Iterable[T], table: dict[str, str]) -> Iterator[T]:
    """*pieces*, emptying *table* once each is read and holding none when
    the next is asked for: a reader that passes the words of each piece
    through *table* shares equal words within a piece, and the table never
    holds more than one piece's words."""
    for piece in pieces:
        yield piece
        del piece
        table.clear()


def import_text(source: str | Iterable[str]) -> LexiconDocument:
    """Parse an ``.lgx`` document, given whole or as an iterable of its
    pieces; raises SchemaViolation (or its subclass UnknownFormatVersion)
    for any document it cannot read."""
    word_table: dict[str, str] = {}
    lines = itertools.chain.from_iterable(_emptying(_line_chunks(_pieces(source)), word_table))
    first = next(lines)
    if not first.startswith("#lgx\t"):
        raise SchemaViolation("not a lexicon text file (missing #lgx header)")
    version_field = first.split("\t", 1)[1]
    if version_field != str(FORMAT_VERSION):
        raise UnknownFormatVersion(f"unsupported format version {version_field!r}")

    generator = GENERATOR
    table_ids: tuple[str, ...] = ()
    declared_sha = None
    declared_count = None
    script_lines: list[str] | None = None
    in_script = False
    body: tuple[str, ...] = ()
    for line in lines:
        if in_script:
            if line == "#script-end":
                in_script = False
            elif line.startswith("#|"):
                script_lines.append(line[2:])
            else:
                raise SchemaViolation(f"unexpected line inside script block: {line!r}")
            continue
        if not line.startswith("#"):
            body = (line,)
            break
        keyword, _, value = line.partition("\t")
        if keyword == "#generator":
            generator = value
        elif keyword == "#tables":
            table_ids = tuple(f for f in value.split("\t") if f)
        elif keyword == "#script-sha256":
            declared_sha = value
        elif keyword == "#script-begin":
            script_lines = []
            in_script = True
        elif keyword == "#entries":
            declared_count = _entry_count(value)
        else:
            raise SchemaViolation(f"unknown header line {keyword!r}")
    if in_script:
        raise SchemaViolation("unterminated script block (truncated file?)")
    if script_lines is None or declared_sha is None or declared_count is None:
        raise SchemaViolation("incomplete header (script, hash or entry count missing)")

    # The closing blank line ends a last block that no blank line follows.
    entries = _read_entries(itertools.chain(body, lines, ("",)), word_table.setdefault)
    doc = LexiconDocument(entries, table_ids, "\n".join(script_lines), generator)
    if doc.script_sha256 != declared_sha:
        raise SchemaViolation("script hash mismatch (file edited or corrupted)")
    if len(entries) != declared_count:
        raise SchemaViolation(
            f"entry count mismatch: header says {declared_count}, found {len(entries)} "
            "(truncated file?)"
        )
    _check_entry_ids(entries)
    return doc


# =============================================================================
# XML format
# =============================================================================
#
# The writer lays the document out one element per line, indented two
# spaces per level, with ``<tag attrs />`` for an element that has neither
# children nor text: the layout of ElementTree's ``indent``, so that a
# lexicon keeps the bytes earlier releases wrote.  Each entry's lines are
# f-strings joined once.  Names repeat across entries, so each export
# escapes each name (slot, column, label, feature id, category, table id,
# provenance feature and template) once and builds the two ``<feature>``
# lines of a feature id once; values are escaped where they stand.  Each
# name and value is checked for what XML cannot carry where it is escaped,
# in the order the block lays them out, so the character named is the
# block's first; the markup is the writer's own and needs no check.  The
# reader is a single expat pass that builds no tree: its handlers are those
# of the element whose children it reads, each start handler installs those
# of the element it opens and each end restores those of the one around.

_XML_DECLARATION = "<?xml version='1.0' encoding='utf-8'?>"

# Characters outside XML 1.0's Char production: no escape can carry them.
_XML_UNWRITABLE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


class _NotXml(Exception):
    """The first character of a field that no XML escape can carry."""


def _xml_text(text: str) -> str:
    """Escape element text; a raw ``\\r`` would be read back as ``\\n``.
    Raises _NotXml for a character XML 1.0 cannot carry: every such
    character is one that ``str.isprintable`` refuses."""
    if not text.isprintable():
        bad = _XML_UNWRITABLE.search(text)
        if bad is not None:
            raise _NotXml(bad.group())
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    return text


def _xml_attr(text: str) -> str:
    """Escape an attribute value; raw whitespace other than spaces would be
    read back as spaces."""
    text = _xml_text(text)
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


def _add_xml_surface(parts: list[str], indent: str, tag: str, surface: SurfaceForm, attrs: str = "") -> None:
    """Append the lines of the surface element *tag*."""
    head = f'{indent}<{tag}{attrs} rendered="{_xml_attr(surface.rendered)}"'
    if not surface.tokens:
        parts.append(head + " />")
        return
    parts.append(head + ">")
    for token in surface.tokens:
        parts.append(f"{indent}  <token>{_xml_text(token)}</token>" if token else f"{indent}  <token />")
    parts.append(f"{indent}</{tag}>")


def _xml_entry(entry: LexEntry, names: _Memo, feature_lines: _Memo) -> str:
    """The lines of *entry*, each ending with a newline; *names* holds the
    escaped form of each name, *feature_lines* the two ``<feature>`` lines
    of each feature id."""
    head = f'    <entry id="{_xml_attr(entry.entry_id)}" table="{names[entry.table_id]}">'
    p = entry.provenance
    provenance = f'      <provenance kind="{p.kind.value}"'
    if p.parent is not None:
        provenance += f' parent="{_xml_attr(p.parent)}"'
    if p.feature_id is not None:
        provenance += f' feature="{names[p.feature_id]}"'
    if p.template is not None:
        provenance += f' template="{names[p.template]}"'
    parts = [head, provenance + " />"]
    _add_xml_surface(parts, "      ", "surface", entry.surface)
    lexical = f'      <lexical-information category="{names[entry.category]}"'
    if entry.components or entry.aux or entry.paraphrases or entry.other_structures or entry.intensified:
        parts.append(lexical + ">")
        for slot, text in entry.components.items():
            slot = names[slot]
            parts.append(f'        <component slot="{slot}">{_xml_text(text)}</component>' if text
                         else f'        <component slot="{slot}" />')
        for column, text in entry.aux.items():
            column = names[column]
            parts.append(f'        <aux column="{column}">{_xml_text(text)}</aux>' if text
                         else f'        <aux column="{column}" />')
        for surface in entry.paraphrases:
            _add_xml_surface(parts, "        ", "paraphrase", surface)
        for label, surface in entry.other_structures:
            _add_xml_surface(parts, "        ", "other-structure", surface, f' label="{names[label]}"')
        for surface in entry.intensified:
            _add_xml_surface(parts, "        ", "intensified", surface)
        parts.append("      </lexical-information>")
    else:
        parts.append(lexical + " />")
    if entry.arguments:
        parts.append("      <arguments>")
        for a in entry.arguments:
            parts.append(f'        <argument slot="{names[a.slot]}" selection="{a.selection.value}" />')
        parts.append("      </arguments>")
    else:
        parts.append("      <arguments />")
    if entry.construction_ids or entry.internal_structures:
        parts.append("      <constructions>")
        for cid in entry.construction_ids:
            parts.append(f"        <construction>{_xml_text(cid)}</construction>" if cid else "        <construction />")
        for label in entry.internal_structures:
            parts.append(f"        <internal-structure>{_xml_text(label)}</internal-structure>" if label
                         else "        <internal-structure />")
        parts.append("      </constructions>")
    else:
        parts.append("      <constructions />")
    if entry.binary_features:
        parts.append("      <features>")
        for fid, value in entry.binary_features.items():
            parts.append(feature_lines[fid][1 if value else 0])
        parts.append("      </features>")
    else:
        parts.append("      <features />")
    if entry.cross_refs:
        parts.append("      <cross-refs>")
        for ref in entry.cross_refs:
            parts.append(f"        <cross-ref>{_xml_text(ref)}</cross-ref>" if ref else "        <cross-ref />")
        parts.append("      </cross-refs>\n    </entry>\n")
    else:
        parts.append("      <cross-refs />\n    </entry>\n")
    return "\n".join(parts)


def _xml_unwritable(where: str, err: _NotXml) -> SchemaViolation:
    return SchemaViolation(f"{where} holds U+{ord(err.args[0]):04X}, which XML 1.0 cannot carry")


def export_xml(doc: LexiconDocument, out: TextIO) -> None:
    """Write *doc* to *out*, the header and then one entry at a time.
    Raises SchemaViolation, naming the entry, for a character XML 1.0
    cannot carry: a control character other than tab, newline and carriage
    return, a lone surrogate, U+FFFE or U+FFFF."""
    try:
        script = _xml_text(doc.script_source)
    except _NotXml as err:
        raise _xml_unwritable("the embedded script", err) from None
    try:
        generator = _xml_attr(doc.generator)
        tables = [f'    <table id="{_xml_attr(t)}" />' for t in doc.table_ids]
    except _NotXml as err:
        raise _xml_unwritable("the document header", err) from None
    head = [
        _XML_DECLARATION,
        f'<lexicon version="{FORMAT_VERSION}" generator="{generator}" script-sha256="{doc.script_sha256}">',
        *(["  <tables>", *tables, "  </tables>"] if tables else ["  <tables />"]),
        f"  <script>{script}</script>" if script else "  <script />",
        f'  <entries count="{len(doc.entries)}">\n' if doc.entries else '  <entries count="0" />\n</lexicon>\n',
    ]
    out.write("\n".join(head))
    names = _Memo(_xml_attr)
    feature_lines = _Memo(lambda fid: (
        f'        <feature id="{names[fid]}" value="-" />', f'        <feature id="{names[fid]}" value="+" />',
    ))
    for entry in doc.entries:
        try:
            block = _xml_entry(entry, names, feature_lines)
        except _NotXml as err:
            raise _xml_unwritable(f"entry {entry.entry_id!r}", err) from None
        out.write(block)
    if doc.entries:
        out.write("  </entries>\n</lexicon>\n")


def _skipped_entity(name: str, is_parameter_entity: bool) -> None:
    raise SchemaViolation(f"undefined entity &{name};")


def _lacks(entry_id: str, tag: str, name: str) -> SchemaViolation:
    return SchemaViolation(f"entry {entry_id!r}: <{tag}> element lacks the {name!r} attribute")


def _clark(tag: str) -> str:
    """*tag* as expat names it, ``}`` after a namespace, in Clark notation."""
    return "{" + tag if "}" in tag else tag


def _unexpected(entry_id: str, tag: str, parent: str) -> SchemaViolation:
    return SchemaViolation(f"entry {entry_id!r}: unexpected <{_clark(tag)}> element in <{parent}>")


# A base entry's ``<provenance>`` element; every one read shares one object.
_BASE_ATTRS = {"kind": Origin.BASE.value}
_BASE_PROVENANCE = Provenance(Origin.BASE)

# An entry's sections, and the surfaces its lexical information holds.
_XML_SECTIONS = frozenset(("features", "lexical-information", "constructions", "arguments", "cross-refs"))
_XML_CELL_SURFACES = frozenset(("paraphrase", "other-structure", "intensified"))


def import_xml(source: str | Iterable[str]) -> LexiconDocument:
    """Parse an ``.lgx.xml`` document, given whole or as an iterable of its
    pieces; raises SchemaViolation (or its subclass UnknownFormatVersion)
    for any document it cannot read.

    Outside the entries, one handler pair counts the depth, reads the
    header and skips the elements off the schema with their contents.  An
    ``<entry>`` in a root-level ``<entries>`` installs the entry's start
    handler; each start handler in the entry reads its element into the
    locals below and installs the start handler of the section or surface
    it opens, and the entry's end handler restores the one around.  An
    element the schema does not place in the entry is refused where it
    opens, and the entry is built when it closes.  Text is kept only in the
    elements whose text is read: what precedes the first child.  Entries
    come from every root-level ``<entries>``, the count from the first.
    Expat takes each piece as it comes; a whole text is one piece, so the
    position an encoding error names is then the text's own.  Names and
    the argument and internal-structure tuples go through one table for
    the whole read, and tokens and cell texts through a table of words
    emptied after each piece (see
    :func:`_emptying`), so equal words of the entries of a piece are one
    string.
    """
    entries: list[LexEntry] = []
    share = {}.setdefault
    bases: dict[str, LexEntry] = {}
    root_attrs: dict[str, str] = {}
    table_ids: list[str] = []
    declared_count = script = top = None  # top: the open child of the root
    depth = 0  # of the open elements outside the entries
    text: list[str] = []  # the chunks of the open text element
    add_text = text.append
    # The open entry; the text elements its open section or surface holds,
    # and that element's tag; the open surface, cell key, and leaf or text element.
    entry_id = table_id = category = provenance = surface = components = aux = features = None
    paraphrases = other_structures = intensified = arguments = constructions = internal = cross_refs = None
    texts = holder = rendered = label = tokens = cell_key = open_tag = None
    word_table: dict[str, str] = {}
    words = word_table.setdefault
    parser = expat.ParserCreate(namespace_separator="}")
    parser.buffer_text = True

    def outer(tag: str, attrs: dict[str, str]) -> None:  # an element outside the entries
        nonlocal depth, top, root_attrs, declared_count, entry_id, table_id, category, provenance, surface
        nonlocal components, aux, features, paraphrases, other_structures, intensified, arguments
        nonlocal constructions, internal, cross_refs
        depth += 1
        if depth == 3:
            if top == "entries" and tag == "entry":
                entry_id, table_id = attrs.get("id"), attrs.get("table")
                if entry_id is None or table_id is None:
                    name = "id" if entry_id is None else "table"
                    raise SchemaViolation(f"<entry> element lacks the {name!r} attribute")
                category = provenance = surface = None
                components, aux, features, paraphrases, other_structures = {}, {}, {}, [], []
                intensified, arguments, constructions, internal, cross_refs = [], [], [], [], []
                parser.StartElementHandler, parser.EndElementHandler = section, end
            elif top == "tables" and tag == "table":
                if "id" not in attrs:
                    raise SchemaViolation("<table> element lacks the 'id' attribute")
                table_ids.append(attrs["id"])
            elif top == "script":  # its first child ends its text
                parser.CharacterDataHandler = None
        elif depth == 2:
            top = tag
            if tag == "entries" and declared_count is None:
                if "count" not in attrs:
                    raise SchemaViolation("<entries> element lacks the 'count' attribute")
                declared_count = _entry_count(attrs["count"])
            elif tag == "script" and script is None:
                parser.CharacterDataHandler = add_text
        elif depth == 1:
            if tag != "lexicon":
                raise SchemaViolation(f"unexpected root element <{_clark(tag)}>")
            version = attrs.get("version")
            if version != str(FORMAT_VERSION):
                raise UnknownFormatVersion(f"unsupported format version {version!r}")
            if "script-sha256" not in attrs:
                raise SchemaViolation("<lexicon> element lacks the 'script-sha256' attribute")
            root_attrs = attrs

    def outer_end(tag: str) -> None:
        nonlocal depth, script
        depth -= 1
        if depth == 1 and top == "script" and script is None:
            parser.CharacterDataHandler = None
            script = "".join(text)
            text.clear()

    def section(tag: str, attrs: dict[str, str]) -> None:  # a child of <entry>
        nonlocal open_tag, category, provenance, texts, holder
        if open_tag:
            raise _unexpected(entry_id, tag, open_tag)
        if tag == "features":
            parser.StartElementHandler = feature
        elif tag == "lexical-information":
            if category is not None:
                raise _repeated("<lexical-information> element", entry_id)
            category = attrs.get("category", "")
            category = share(category, category)
            parser.StartElementHandler = cell
        elif tag == "constructions":
            texts, holder = ("construction", "internal-structure"), tag
            parser.StartElementHandler = text_element
        elif tag == "surface":
            if surface is not None:
                raise _repeated("<surface> element", entry_id)
            surface_start(tag, attrs)
        elif tag == "provenance":
            if provenance is not None:
                raise _repeated("<provenance> element", entry_id)
            open_tag = tag
            if attrs == _BASE_ATTRS:
                provenance = _BASE_PROVENANCE
                return
            feature_id, template = attrs.get("feature"), attrs.get("template")
            try:
                provenance = Provenance(
                    _ORIGINS.get(attrs.get("kind")) or Origin(attrs["kind"]),
                    _parent_id(bases, attrs.get("parent")),
                    None if feature_id is None else share(feature_id, feature_id),
                    None if template is None else share(template, template),
                )
            except (KeyError, ValueError) as err:
                raise SchemaViolation(f"bad provenance: {err}") from None
        elif tag == "arguments":
            parser.StartElementHandler = argument
        elif tag == "cross-refs":
            texts, holder = ("cross-ref",), tag
            parser.StartElementHandler = text_element
        else:
            raise _unexpected(entry_id, tag, "entry")

    def feature(tag: str, attrs: dict[str, str]) -> None:  # a child of <features>
        nonlocal open_tag
        if open_tag or tag != "feature":
            raise _unexpected(entry_id, tag, open_tag or "features")
        open_tag = tag
        feature_id, value = attrs.get("id"), _FEATURE_VALUES.get(attrs.get("value"))
        if feature_id is None or value is None:
            if feature_id is None or "value" not in attrs:
                raise _lacks(entry_id, tag, "id" if feature_id is None else "value")
            raise SchemaViolation(f"entry {entry_id!r}: feature value {attrs['value']!r} is not '+' or '-'")
        features[share(feature_id, feature_id)] = value

    def argument(tag: str, attrs: dict[str, str]) -> None:  # a child of <arguments>
        nonlocal open_tag
        if open_tag or tag != "argument":
            raise _unexpected(entry_id, tag, open_tag or "arguments")
        open_tag = tag
        try:
            slot = attrs["slot"]
            selection = _SELECTIONS.get(attrs.get("selection")) or Selection(attrs["selection"])
        except (KeyError, ValueError) as err:
            raise SchemaViolation(f"bad argument: {err}") from None
        arguments.append(ArgumentSpec(share(slot, slot), selection))

    def cell(tag: str, attrs: dict[str, str]) -> None:  # a child of <lexical-information>
        nonlocal open_tag, cell_key
        if open_tag:
            raise _unexpected(entry_id, tag, open_tag)
        if tag == "component" or tag == "aux":
            name = "slot" if tag == "component" else "column"
            cell_key = attrs.get(name)
            if cell_key is None:
                raise _lacks(entry_id, tag, name)
            cell_key = share(cell_key, cell_key)
            open_tag = tag
            parser.CharacterDataHandler = add_text
        elif tag in _XML_CELL_SURFACES:
            surface_start(tag, attrs)
        else:
            raise _unexpected(entry_id, tag, "lexical-information")

    def surface_start(tag: str, attrs: dict[str, str]) -> None:
        nonlocal texts, holder, rendered, label, tokens
        if tag == "other-structure":
            label = attrs.get("label")
            if label is None:
                raise _lacks(entry_id, tag, "label")
            label = share(label, label)
        rendered = attrs.get("rendered")
        if rendered is None:
            raise _lacks(entry_id, tag, "rendered")
        texts, holder, tokens = ("token",), tag, []
        parser.StartElementHandler = text_element

    def text_element(tag: str, attrs: dict[str, str]) -> None:  # in a surface, <constructions> or <cross-refs>
        nonlocal open_tag
        if open_tag or tag not in texts:
            raise _unexpected(entry_id, tag, open_tag or holder)
        open_tag = tag
        parser.CharacterDataHandler = add_text

    def end(tag: str) -> None:  # an end inside an entry
        nonlocal open_tag, surface, depth
        if open_tag:  # of a leaf or text element
            open_tag = None
            if tag == "feature" or tag == "argument" or tag == "provenance":
                return
            parser.CharacterDataHandler = None
            value = "".join(text)
            text.clear()
            if tag == "token":
                tokens.append(words(value, value))
            elif tag == "component":
                components[cell_key] = words(value, value)
            elif tag == "internal-structure":
                internal.append(share(value, value))
            elif tag == "construction":
                constructions.append(share(value, value))
            elif tag == "aux":
                aux[cell_key] = words(value, value)
            else:
                cross_refs.append(value)
        elif tag in _XML_SECTIONS:
            parser.StartElementHandler = section
        elif tag == "surface":
            surface = SurfaceForm(tuple(tokens), rendered)
            parser.StartElementHandler = section
        elif tag == "entry":
            if provenance is None or surface is None or category is None:
                raise SchemaViolation(f"entry {entry_id!r} is missing a required element")
            entries.append(_entry(
                bases, share, entry_id, share(table_id, table_id), category, surface, components, aux,
                tuple(paraphrases), tuple(other_structures), tuple(intensified), tuple(arguments),
                tuple(constructions), tuple(internal), features, provenance, tuple(cross_refs),
            ))
            depth -= 1
            parser.StartElementHandler, parser.EndElementHandler = outer, outer_end
        else:  # a surface in <lexical-information>
            form = SurfaceForm(tuple(tokens), rendered)
            if tag == "paraphrase":
                paraphrases.append(form)
            elif tag == "other-structure":
                other_structures.append((label, form))
            else:
                intensified.append(form)
            parser.StartElementHandler = cell

    parser.StartElementHandler, parser.EndElementHandler = outer, outer_end
    parser.SkippedEntityHandler = _skipped_entity
    try:
        for piece in _emptying(_pieces(source), word_table):
            parser.Parse(piece, False)
            del piece
        parser.Parse("", True)
    except expat.ExpatError as err:
        raise SchemaViolation(f"not well-formed XML: {err}") from None
    except UnicodeEncodeError as err:  # a lone surrogate in the text
        raise SchemaViolation(f"not well-formed XML: {err}") from None
    finally:
        # The handlers refer to the parser and to one another; unsetting
        # them ends the cycles, so reference counting frees them all.
        parser.StartElementHandler = parser.EndElementHandler = parser.CharacterDataHandler = None
        outer = outer_end = section = feature = argument = cell = surface_start = text_element = end = None

    if declared_count is None:
        raise SchemaViolation("document has no <entries count> (truncated file?)")
    if declared_count != len(entries):
        raise SchemaViolation(f"entry count mismatch: document says {declared_count}, found {len(entries)}")
    doc = LexiconDocument(entries, tuple(table_ids), script or "", root_attrs.get("generator", GENERATOR))
    if doc.script_sha256 != root_attrs["script-sha256"]:
        raise SchemaViolation("script hash mismatch (document edited or corrupted)")
    _check_entry_ids(entries)
    return doc


# =============================================================================
# front door
# =============================================================================

def _exporter(format: str) -> Callable[[LexiconDocument, TextIO], None]:
    """The exporter of *format*, ``"text"`` or ``"xml"``."""
    if format == "text":
        return export_text
    if format == "xml":
        return export_xml
    raise ValueError(f"unknown format {format!r}")


def export_lexicon(doc: LexiconDocument, format: str = "text") -> str:
    """The text of *doc* in *format*, ``"text"`` or ``"xml"``."""
    out = io.StringIO()
    _exporter(format)(doc, out)
    return out.getvalue()


def _handed_on(head: list[str], pieces: Iterator[str]) -> Iterator[str]:
    """The pieces of *head*, each dropped from it as it is handed on, then
    those of *pieces*: no piece read ahead is held once the parser is past it."""
    head.reverse()
    while head:
        yield head.pop()
    yield from pieces


def import_lexicon(source: str | Iterable[str]) -> LexiconDocument:
    """Parse either format, given whole or as an iterable of its pieces: a
    document whose first non-whitespace character is ``<`` is XML, any
    other is text."""
    pieces, head, first = iter(_pieces(source)), [], ""
    for first in pieces:
        head.append(first)
        if not first.isspace():
            break
    is_xml = first.lstrip().startswith("<")
    del first
    source = _handed_on(head, pieces)
    if is_xml:
        return import_xml(source)
    return import_text(source)


def load_lexicon(path: str | Path) -> LexiconDocument:
    """Read the lexicon file at *path* a chunk at a time, in the format
    :func:`import_lexicon` takes from its first non-whitespace character."""
    return parse_file(path, import_lexicon)


def save_lexicon(doc: LexiconDocument, path: str | Path, format: str | None = None) -> None:
    """Write *doc* to *path* through :func:`writing`, entry by entry, as
    *format*, by default XML for a ``.xml`` suffix and text otherwise."""
    if format is None:
        format = "xml" if Path(path).suffix == ".xml" else "text"
    export = _exporter(format)
    with writing(path) as out:
        export(doc, out)


# =============================================================================
# expansion record sidecar
# =============================================================================

RECORD_COLUMNS = ("entry", "parent", "pass", "feature", "template", "surface", "status", "duplicate-of")
RECORD_STATUSES = ("kept", "duplicate")


def export_records(rows: Iterable[RecordRow], out: TextIO) -> None:
    """Write the record sidecar to *out*: the header line, then one line per
    row.  Raises SchemaViolation, naming the entry, for a field holding a
    tab, a newline or a carriage return, and for a field reading ``<E>``,
    which stands for empty."""
    out.write("\t".join(RECORD_COLUMNS) + "\n")
    for row in rows:
        try:
            fields = (
                row.entry_id,
                _field(row.parent_id),
                row.kind.value,
                _field(row.feature_id),
                _field(row.template),
                _field(row.surface),
                row.status,
                _field(row.duplicate_of),
            )
            line = "\t".join(fields)
            if line.count("\t") != 7 or "\n" in line or "\r" in line:
                breaks = [name for char, name in _TEXT_BREAKS.items() if char in "".join(fields)]
                raise _Unreadable(f"a {breaks[0]}")
        except _Unreadable as err:
            raise SchemaViolation(f"record of entry {row.entry_id!r} holds {err}, which the sidecar cannot carry") from None
        out.write(line + "\n")


def parse_records(source: str | Iterable[str]) -> list[RecordRow]:
    """The rows of a record sidecar, given whole or as an iterable of its
    pieces; blank lines are skipped.  The repeated names (parent, feature,
    template, status, duplicate-of) go through one table, so equal ones are
    one string.  Each row's field count, pass and status are checked here,
    the rows against a lexicon by :func:`~lexgram.stats.recompute_stats`."""
    lines = (line for line in itertools.chain.from_iterable(_line_chunks(_pieces(source))) if line)
    if next(lines, None) != "\t".join(RECORD_COLUMNS):
        raise SchemaViolation("not a record sidecar (bad or missing header line)")
    share = {EMPTY_TOKEN: ""}.setdefault  # where "<E>" reads as empty
    rows = []
    for line in lines:
        fields = line.split("\t")
        if len(fields) != len(RECORD_COLUMNS):
            raise SchemaViolation(f"malformed record line: {line!r}")
        entry_id, parent, pass_name, feature_id, template, surface, status, duplicate_of = fields
        kind = _ORIGINS.get(pass_name)
        if kind is None:
            raise SchemaViolation(f"unknown pass kind {pass_name!r}")
        if status not in RECORD_STATUSES:
            raise SchemaViolation(f"unknown record status {status!r}")
        rows.append(RecordRow(
            entry_id, share(parent, parent), kind, share(feature_id, feature_id), share(template, template),
            _unsent(surface), share(status, status), share(duplicate_of, duplicate_of),
        ))
    return rows
