"""The block-by-block text importer, kept as a test oracle.

``lexgram.formats.import_text`` reads ``.lgx`` in one pass that dispatches
each line by keyword, most frequent keywords first.  This module is the
reader it replaced: it cuts the body into blank-line separated blocks and
parses each block with a chain of keyword tests in file order.  The
differential tests in ``test_formats.py`` check that both readers return
equal documents, or raise ``LexgramError`` with the same message.
"""

from __future__ import annotations

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
from lexgram.lexicon import ArgumentSpec, LexEntry, Origin, Provenance, Selection
from lexgram.realizer import SurfaceForm


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
