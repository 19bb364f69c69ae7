"""Lexicon serialization: versioned text format, XML, and the record sidecar.

The text format (``.lgx``) is line-oriented and tab-separated.  A header
carries the format version, the source table ids, and the extraction script
itself (hash-guarded), so an exported lexicon is self-contained: extending
it later needs no access to the original script file.  Each entry block
ends with the three labeled sections (Lexical information, Arguments,
Constructions).  ``<E>`` stands for an empty value.

The XML format (``.lgx.xml``) carries the same content; importing either
format reproduces the document exactly.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import SchemaViolation, UnknownFormatVersion
from .expansion import ExpansionRecord
from .lexicon import PASS_TAGS, ArgumentSpec, LexEntry, Origin, Provenance, Selection, parse_entry_id
from .realizer import SurfaceForm
from .script import ExtractionScript, parse_script
from .tables import EMPTY_TOKEN

TOOL_VERSION = "0.1.0"
GENERATOR = f"lexgram {TOOL_VERSION}"
FORMAT_VERSION = 1

SECTION_LEXICAL = "Lexical information"
SECTION_ARGUMENTS = "Arguments"
SECTION_CONSTRUCTIONS = "Constructions"


@dataclass
class LexiconDocument:
    entries: list[LexEntry]
    table_ids: tuple[str, ...]
    script_source: str
    version: int = FORMAT_VERSION
    generator: str = GENERATOR

    @property
    def script_sha256(self) -> str:
        return hashlib.sha256(self.script_source.encode("utf-8")).hexdigest()

    def script(self) -> ExtractionScript:
        return parse_script(self.script_source, source="<embedded script>")


def _check_entry_ids(entries: list[LexEntry]) -> None:
    """Every id parses, names its entry's table and pass, and is unique."""
    seen: set[str] = set()
    for entry in entries:
        try:
            table_id, _, tag, _ = parse_entry_id(entry.entry_id)
        except ValueError as err:
            raise SchemaViolation(str(err)) from None
        if table_id != entry.table_id or tag != PASS_TAGS.get(entry.provenance.kind):
            raise SchemaViolation(
                f"entry id {entry.entry_id!r} does not match its table {entry.table_id!r} "
                f"and provenance {entry.provenance.kind.value!r}"
            )
        if entry.entry_id in seen:
            raise SchemaViolation(f"duplicate entry id {entry.entry_id!r}")
        seen.add(entry.entry_id)


# =============================================================================
# text format
# =============================================================================

def _sent(text: str) -> str:
    return text if text else EMPTY_TOKEN


def _unsent(text: str) -> str:
    return "" if text == EMPTY_TOKEN else text


def _surface_fields(surface: SurfaceForm) -> str:
    return f"{_sent(surface.rendered)}\t{_sent(' '.join(surface.tokens))}"


def _read_surface(fields: list[str]) -> SurfaceForm:
    if len(fields) != 2:
        raise SchemaViolation(f"malformed surface fields: {fields!r}")
    return SurfaceForm(tuple(_unsent(fields[1]).split()), _unsent(fields[0]))


def _entry_block(entry: LexEntry) -> list[str]:
    p = entry.provenance
    lines = [
        f"entry\t{entry.entry_id}",
        f"table\t{entry.table_id}",
        "provenance\t{}\t{}\t{}\t{}".format(
            p.kind.value, _sent(p.parent or ""), _sent(p.feature_id or ""), _sent(p.template or ""),
        ),
        f"surface\t{_surface_fields(entry.surface)}",
    ]
    lines.extend(f"feature\t{fid}\t{'+' if value else '-'}" for fid, value in entry.binary_features.items())
    lines.extend(f"cross-ref\t{ref}" for ref in entry.cross_refs)
    lines.append(SECTION_LEXICAL)
    lines.append(f"category\t{entry.category}")
    lines.extend(f"component\t{slot}\t{_sent(text)}" for slot, text in entry.components.items())
    lines.extend(f"aux\t{column}\t{_sent(text)}" for column, text in entry.aux.items())
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
    return lines


def export_text(doc: LexiconDocument) -> str:
    lines = [
        f"#lgx\t{doc.version}",
        f"#generator\t{doc.generator}",
        "#tables\t" + "\t".join(doc.table_ids),
        f"#script-sha256\t{doc.script_sha256}",
        "#script-begin",
    ]
    lines.extend(f"#|{line}" for line in doc.script_source.split("\n"))
    lines.append("#script-end")
    lines.append(f"#entries\t{len(doc.entries)}")
    for entry in doc.entries:
        lines.append("")
        lines.extend(_entry_block(entry))
    return "\n".join(lines) + "\n"


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
        paraphrases=paraphrases,
        other_structures=other_structures,
        intensified=intensified,
        arguments=arguments,
        construction_ids=constructions,
        internal_structures=internal,
        binary_features=features,
        provenance=values["provenance"],
        cross_refs=cross_refs,
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

    doc = LexiconDocument(entries, table_ids, script_source, FORMAT_VERSION, generator)
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

def _surface_element(parent: ET.Element, tag: str, surface: SurfaceForm, **attrs: str) -> ET.Element:
    element = ET.SubElement(parent, tag, {**attrs, "rendered": surface.rendered})
    for token in surface.tokens:
        ET.SubElement(element, "token").text = token
    return element


def _element_surface(element: ET.Element) -> SurfaceForm:
    if "rendered" not in element.attrib:
        raise SchemaViolation(f"<{element.tag}> element lacks a rendered attribute")
    tokens = tuple(token.text or "" for token in element.findall("token"))
    return SurfaceForm(tokens, element.attrib["rendered"])


def export_xml(doc: LexiconDocument) -> str:
    root = ET.Element("lexicon", {
        "version": str(doc.version),
        "generator": doc.generator,
        "script-sha256": doc.script_sha256,
    })
    tables = ET.SubElement(root, "tables")
    for table_id in doc.table_ids:
        ET.SubElement(tables, "table", {"id": table_id})
    ET.SubElement(root, "script").text = doc.script_source
    entries = ET.SubElement(root, "entries", {"count": str(len(doc.entries))})
    for entry in doc.entries:
        node = ET.SubElement(entries, "entry", {"id": entry.entry_id, "table": entry.table_id})
        p = entry.provenance
        prov_attrs = {"kind": p.kind.value}
        if p.parent is not None:
            prov_attrs["parent"] = p.parent
        if p.feature_id is not None:
            prov_attrs["feature"] = p.feature_id
        if p.template is not None:
            prov_attrs["template"] = p.template
        ET.SubElement(node, "provenance", prov_attrs)
        _surface_element(node, "surface", entry.surface)
        lexical = ET.SubElement(node, "lexical-information", {"category": entry.category})
        for slot, text in entry.components.items():
            ET.SubElement(lexical, "component", {"slot": slot}).text = text
        for column, text in entry.aux.items():
            ET.SubElement(lexical, "aux", {"column": column}).text = text
        for surface in entry.paraphrases:
            _surface_element(lexical, "paraphrase", surface)
        for label, surface in entry.other_structures:
            _surface_element(lexical, "other-structure", surface, label=label)
        for surface in entry.intensified:
            _surface_element(lexical, "intensified", surface)
        arguments = ET.SubElement(node, "arguments")
        for spec in entry.arguments:
            ET.SubElement(arguments, "argument", {"slot": spec.slot, "selection": spec.selection.value})
        constructions = ET.SubElement(node, "constructions")
        for cid in entry.construction_ids:
            ET.SubElement(constructions, "construction").text = cid
        for label in entry.internal_structures:
            ET.SubElement(constructions, "internal-structure").text = label
        features = ET.SubElement(node, "features")
        for fid, value in entry.binary_features.items():
            ET.SubElement(features, "feature", {"id": fid, "value": "+" if value else "-"})
        refs = ET.SubElement(node, "cross-refs")
        for ref in entry.cross_refs:
            ET.SubElement(refs, "cross-ref").text = ref
    tree = ET.ElementTree(root)
    ET.indent(tree)
    return ET.tostring(root, encoding="unicode", xml_declaration=True) + "\n"


_FEATURE_VALUES = {"+": True, "-": False}


def _xml_entry(node: ET.Element) -> LexEntry:
    for attr in ("id", "table"):
        if attr not in node.attrib:
            raise SchemaViolation(f"<entry> element lacks the {attr!r} attribute")
    entry_id = node.attrib["id"]
    prov_node = node.find("provenance")
    surface_node = node.find("surface")
    lexical = node.find("lexical-information")
    if prov_node is None or surface_node is None or lexical is None:
        raise SchemaViolation(f"entry {entry_id!r} is missing a required element")
    try:
        provenance = Provenance(
            Origin(prov_node.attrib["kind"]),
            prov_node.attrib.get("parent"),
            prov_node.attrib.get("feature"),
            prov_node.attrib.get("template"),
        )
    except (KeyError, ValueError) as err:
        raise SchemaViolation(f"bad provenance: {err}") from None
    try:
        arguments = [
            ArgumentSpec(a.attrib["slot"], Selection(a.attrib["selection"]))
            for a in node.findall("arguments/argument")
        ]
    except (KeyError, ValueError) as err:
        raise SchemaViolation(f"bad argument: {err}") from None
    try:
        components = {c.attrib["slot"]: c.text or "" for c in lexical.findall("component")}
        aux = {c.attrib["column"]: c.text or "" for c in lexical.findall("aux")}
        other_structures = [
            (s.attrib["label"], _element_surface(s)) for s in lexical.findall("other-structure")
        ]
        features = {
            f.attrib["id"]: _FEATURE_VALUES[f.attrib["value"]]
            for f in node.findall("features/feature")
        }
    except KeyError as err:
        raise SchemaViolation(
            f"entry {entry_id!r}: missing attribute or feature value not '+'/'-': {err}"
        ) from None
    return LexEntry(
        entry_id=entry_id,
        table_id=node.attrib["table"],
        category=lexical.attrib.get("category", ""),
        surface=_element_surface(surface_node),
        components=components,
        aux=aux,
        paraphrases=[_element_surface(s) for s in lexical.findall("paraphrase")],
        other_structures=other_structures,
        intensified=[_element_surface(s) for s in lexical.findall("intensified")],
        arguments=arguments,
        construction_ids=[c.text or "" for c in node.findall("constructions/construction")],
        internal_structures=[c.text or "" for c in node.findall("constructions/internal-structure")],
        binary_features=features,
        provenance=provenance,
        cross_refs=[r.text or "" for r in node.findall("cross-refs/cross-ref")],
    )


def import_xml(text: str) -> LexiconDocument:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as err:
        raise SchemaViolation(f"not well-formed XML: {err}") from None
    if root.tag != "lexicon":
        raise SchemaViolation(f"unexpected root element <{root.tag}>")
    version = root.attrib.get("version")
    if version != str(FORMAT_VERSION):
        raise UnknownFormatVersion(f"unsupported format version {version!r}")
    script_node = root.find("script")
    script_source = script_node.text or "" if script_node is not None else ""
    declared_sha = root.attrib.get("script-sha256")
    try:
        table_ids = tuple(t.attrib["id"] for t in root.findall("tables/table"))
    except KeyError:
        raise SchemaViolation("<table> element lacks the 'id' attribute") from None
    entries = [_xml_entry(node) for node in root.findall("entries/entry")]
    entries_node = root.find("entries")
    if entries_node is not None and "count" in entries_node.attrib:
        try:
            declared = int(entries_node.attrib["count"])
        except ValueError:
            raise SchemaViolation(f"bad entry count {entries_node.attrib['count']!r}") from None
        if declared != len(entries):
            raise SchemaViolation(
                f"entry count mismatch: document says {declared}, found {len(entries)}"
            )
    doc = LexiconDocument(
        entries, table_ids, script_source, FORMAT_VERSION, root.attrib.get("generator", GENERATOR),
    )
    if declared_sha is not None and doc.script_sha256 != declared_sha:
        raise SchemaViolation("script hash mismatch (document edited or corrupted)")
    _check_entry_ids(entries)
    return doc


# =============================================================================
# front door
# =============================================================================

def export_lexicon(doc: LexiconDocument, format: str = "text") -> str:
    if format == "text":
        return export_text(doc)
    if format == "xml":
        return export_xml(doc)
    raise ValueError(f"unknown format {format!r}")


def import_lexicon(text: str, format: str | None = None) -> LexiconDocument:
    """Parse either format; sniffs the first line when format is None."""
    if format is None:
        head = text.lstrip()[:64]
        format = "xml" if head.startswith("<") else "text"
    if format == "xml":
        return import_xml(text)
    if format == "text":
        return import_text(text)
    raise ValueError(f"unknown format {format!r}")


def load_lexicon(path: str | Path) -> LexiconDocument:
    return import_lexicon(Path(path).read_text(encoding="utf-8"))


def save_lexicon(doc: LexiconDocument, path: str | Path, format: str | None = None) -> None:
    path = Path(path)
    if format is None:
        format = "xml" if path.suffix == ".xml" else "text"
    path.write_text(export_lexicon(doc, format), encoding="utf-8")


# =============================================================================
# expansion record sidecar
# =============================================================================

RECORD_COLUMNS = ("entry", "parent", "pass", "feature", "template", "surface", "status", "duplicate-of")


@dataclass(frozen=True)
class RecordRow:
    """One parsed sidecar line; enough to recompute statistics."""

    entry_id: str
    parent_id: str
    kind: Origin
    feature_id: str
    template: str
    surface: str
    status: str
    duplicate_of: str


def export_records(records: Iterable[ExpansionRecord]) -> str:
    lines = ["\t".join(RECORD_COLUMNS)]
    for record in records:
        lines.append("\t".join((
            record.entry.entry_id,
            _sent(record.parent_id),
            record.kind.value,
            _sent(record.feature_id),
            _sent(record.template),
            _sent(record.entry.surface.rendered),
            record.status,
            _sent(record.duplicate_of or ""),
        )))
    return "\n".join(lines) + "\n"


def parse_records(text: str) -> list[RecordRow]:
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != "\t".join(RECORD_COLUMNS):
        raise SchemaViolation("not a record sidecar (bad or missing header line)")
    rows = []
    for line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != len(RECORD_COLUMNS):
            raise SchemaViolation(f"malformed record line: {line!r}")
        try:
            kind = Origin(fields[2])
        except ValueError:
            raise SchemaViolation(f"unknown pass kind {fields[2]!r}") from None
        rows.append(RecordRow(
            fields[0], _unsent(fields[1]), kind, _unsent(fields[3]),
            _unsent(fields[4]), _unsent(fields[5]), fields[6], _unsent(fields[7]),
        ))
    return rows
