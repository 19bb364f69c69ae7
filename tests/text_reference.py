"""The block-by-block text importer and the line-list text exporter, kept
as test oracles.

``lexgram.formats.import_text`` reads ``.lgx`` in one pass: it memoizes the
lines that hold only names and splits and dispatches each other line on
its keyword.  ``import_text`` here is the reader it replaced: it cuts the
body into blank-line separated blocks and parses each block with a chain
of keyword tests in file order.  ``lexgram.formats.export_text`` builds each
entry block with one join of parts that start with a newline, and builds
the two ``feature`` lines of each feature id once; ``export_text`` here is
the writer it replaced, which builds a list of lines per entry.  The
differential tests in ``test_formats.py`` check that both readers return
equal documents, or raise ``LexgramError`` with the same message, and that
both writers write the same text, or raise ``SchemaViolation`` with the
same message.
"""

from __future__ import annotations

from typing import TextIO

from lexgram.errors import SchemaViolation, UnknownFormatVersion
from lexgram.formats import (
    FORMAT_VERSION,
    GENERATOR,
    SECTION_ARGUMENTS,
    SECTION_CONSTRUCTIONS,
    SECTION_LEXICAL,
    LexiconDocument,
    _check_entry_ids,
    _unsent,
)
from lexgram.model import EMPTY_TOKEN, ArgumentSpec, LexEntry, Origin, Provenance, Selection, SurfaceForm


# =============================================================================
# reader
# =============================================================================

def _read_surface(fields: list[str]) -> SurfaceForm:
    if len(fields) != 2:
        raise SchemaViolation(f"malformed surface fields: {fields!r}")
    return SurfaceForm(tuple(_unsent(fields[1]).split()), _unsent(fields[0]))


def _parse_provenance(fields: list[str]) -> Provenance:
    if len(fields) != 4:
        raise SchemaViolation(f"malformed provenance fields: {fields!r}")
    try:
        kind = Origin(fields[0])
    except ValueError:
        raise SchemaViolation(f"unknown provenance kind {fields[0]!r}") from None
    parent, feature_id, template = (_unsent(f) or None for f in fields[1:])
    try:
        return Provenance(kind, parent, feature_id, template)
    except ValueError as err:
        raise SchemaViolation(str(err)) from None


def _parse_entry_block(block: list[str]) -> LexEntry:
    values: dict[str, object] = {
        "entry": None, "table": None, "category": None, "provenance": None, "surface": None,
    }
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

    def need(fields: list[str], count: int, line: str) -> list[str]:
        if len(fields) != count:
            raise SchemaViolation(f"malformed line: {line!r}")
        return fields

    for line in block:
        if line in (SECTION_LEXICAL, SECTION_ARGUMENTS, SECTION_CONSTRUCTIONS):
            continue
        keyword, *fields = line.split("\t")
        if keyword in ("entry", "table", "category"):
            values[keyword] = need(fields, 1, line)[0]
        elif keyword == "provenance":
            values[keyword] = _parse_provenance(fields)
        elif keyword == "surface":
            values[keyword] = _read_surface(fields)
        elif keyword == "feature":
            need(fields, 2, line)
            if fields[1] not in ("+", "-"):
                raise SchemaViolation(f"malformed feature line: {line!r}")
            features[fields[0]] = fields[1] == "+"
        elif keyword == "component":
            need(fields, 2, line)
            components[fields[0]] = _unsent(fields[1])
        elif keyword == "aux":
            need(fields, 2, line)
            aux[fields[0]] = _unsent(fields[1])
        elif keyword == "paraphrase":
            paraphrases.append(_read_surface(fields))
        elif keyword == "other-structure":
            need(fields, 3, line)
            other_structures.append((fields[0], _read_surface(fields[1:])))
        elif keyword == "intensified":
            intensified.append(_read_surface(fields))
        elif keyword == "argument":
            need(fields, 2, line)
            try:
                arguments.append(ArgumentSpec(fields[0], Selection(fields[1])))
            except ValueError:
                raise SchemaViolation(f"malformed argument line: {line!r}") from None
        elif keyword == "construction":
            constructions.append(need(fields, 1, line)[0])
        elif keyword == "internal-structure":
            internal.append(need(fields, 1, line)[0])
        elif keyword == "cross-ref":
            cross_refs.append(need(fields, 1, line)[0])
        else:
            raise SchemaViolation(f"unknown line keyword {keyword!r}")

    missing = [k for k, v in values.items() if v is None]
    if missing:
        raise SchemaViolation(f"entry block missing {', '.join(missing)}")
    return LexEntry(
        entry_id=values["entry"],
        table_id=values["table"],
        category=values["category"],
        surface=values["surface"],
        components=components,
        aux=aux,
        paraphrases=tuple(paraphrases),
        other_structures=tuple(other_structures),
        intensified=tuple(intensified),
        arguments=tuple(arguments),
        construction_ids=tuple(constructions),
        internal_structures=tuple(internal),
        binary_features=features,
        provenance=values["provenance"],
        cross_refs=tuple(cross_refs),
    )


def import_text(text: str) -> LexiconDocument:
    lines = text.split("\n")
    if not lines or not lines[0].startswith("#lgx\t"):
        raise SchemaViolation("not a lexicon text file (missing #lgx header)")
    version_field = lines[0].split("\t", 1)[1]
    if version_field != str(FORMAT_VERSION):
        raise UnknownFormatVersion(f"unsupported format version {version_field!r}")

    generator = GENERATOR
    table_ids: tuple[str, ...] = ()
    declared_sha = None
    declared_count = None
    script_lines: list[str] | None = None
    in_script = False
    i = 1
    while i < len(lines):
        line = lines[i]
        if in_script:
            if line == "#script-end":
                in_script = False
            elif line.startswith("#|"):
                script_lines.append(line[2:])
            else:
                raise SchemaViolation(f"unexpected line inside script block: {line!r}")
            i += 1
            continue
        if not line.startswith("#"):
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
            try:
                declared_count = int(value)
            except ValueError:
                raise SchemaViolation(f"bad entry count {value!r}") from None
        else:
            raise SchemaViolation(f"unknown header line {keyword!r}")
        i += 1
    if in_script:
        raise SchemaViolation("unterminated script block (truncated file?)")
    if script_lines is None or declared_sha is None or declared_count is None:
        raise SchemaViolation("incomplete header (script, hash or entry count missing)")

    script_source = "\n".join(script_lines)
    entries: list[LexEntry] = []
    block: list[str] = []
    for line in lines[i:]:
        if line.strip():
            block.append(line)
        elif block:
            entries.append(_parse_entry_block(block))
            block = []
    if block:
        entries.append(_parse_entry_block(block))

    doc = LexiconDocument(entries, table_ids, script_source, generator)
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
# writer
# =============================================================================

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


def _entry_block(entry: LexEntry) -> str:
    p = entry.provenance
    lines = [
        f"entry\t{entry.entry_id}",
        f"table\t{entry.table_id}",
        "provenance\t{}\t{}\t{}\t{}".format(
            p.kind.value, _name(p.parent), _name(p.feature_id), _name(p.template),
        ),
        f"surface\t{_surface_fields(entry.surface)}",
    ]
    lines.extend(f"feature\t{fid}\t{'+' if value else '-'}" for fid, value in entry.binary_features.items())
    lines.extend(f"cross-ref\t{ref}" for ref in entry.cross_refs)
    lines.append(SECTION_LEXICAL)
    lines.append(f"category\t{entry.category}")
    lines.extend(f"component\t{slot}\t{_field(text)}" for slot, text in entry.components.items())
    lines.extend(f"aux\t{column}\t{_field(text)}" for column, text in entry.aux.items())
    lines.extend(f"paraphrase\t{_surface_fields(s)}" for s in entry.paraphrases)
    lines.extend(
        f"other-structure\t{label}\t{_surface_fields(s)}" for label, s in entry.other_structures
    )
    lines.extend(f"intensified\t{_surface_fields(s)}" for s in entry.intensified)
    lines.append(SECTION_ARGUMENTS)
    lines.extend(f"argument\t{a.slot}\t{a.selection.value}" for a in entry.arguments)
    lines.append(SECTION_CONSTRUCTIONS)
    lines.extend(f"construction\t{cid}" for cid in entry.construction_ids)
    lines.extend(f"internal-structure\t{label}" for label in entry.internal_structures)
    block = "\n".join(lines)
    # The separators the layout writes: 9 on the entry, table, provenance,
    # surface and category lines, and 1, 2 or 3 on each repeated line.  A
    # field holding a tab or a newline adds one.
    tabs = 9 + (
        len(entry.cross_refs) + len(entry.construction_ids) + len(entry.internal_structures)
        + 2 * (len(entry.binary_features) + len(entry.components) + len(entry.aux)
               + len(entry.paraphrases) + len(entry.intensified) + len(entry.arguments))
        + 3 * len(entry.other_structures)
    )
    if "\r" in block:
        raise _unwritable(f"entry {entry.entry_id!r}", "\r")
    if block.count("\n") != len(lines) - 1:
        raise _unwritable(f"entry {entry.entry_id!r}", "\n")
    if block.count("\t") != tabs:
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
    for entry in doc.entries:
        try:
            block = _entry_block(entry)
        except _Unreadable as err:
            raise SchemaViolation(
                f"entry {entry.entry_id!r} holds {err}, which the text format cannot carry"
            ) from None
        out.write("\n\n" + block)
    out.write("\n")
