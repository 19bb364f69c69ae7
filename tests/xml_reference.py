"""The ElementTree XML exporter and importer, kept as a test oracle.

``lexgram.formats`` writes and reads ``.lgx.xml`` in one streaming pass.
This module is the tree-building implementation it replaced: it builds a
full ``ElementTree``, lays it out with ``ET.indent`` and queries it with
``find``/``findall``.  The differential tests in ``test_formats.py`` check
that the streaming code writes the same bytes and reads the same document.

It keeps the checks the tree-based importer had.  Entry count and script
hash are optional here, and ``\\r`` in element text is written raw: the
streaming code requires the first two and escapes the third.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from lexgram.errors import SchemaViolation, UnknownFormatVersion
from lexgram.formats import FORMAT_VERSION, GENERATOR, LexiconDocument, _check_entry_ids
from lexgram.model import ArgumentSpec, LexEntry, Origin, Provenance, Selection, SurfaceForm


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
        "version": str(FORMAT_VERSION),
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
        paraphrases=tuple(_element_surface(s) for s in lexical.findall("paraphrase")),
        other_structures=tuple(other_structures),
        intensified=tuple(_element_surface(s) for s in lexical.findall("intensified")),
        arguments=tuple(arguments),
        construction_ids=tuple(c.text or "" for c in node.findall("constructions/construction")),
        internal_structures=tuple(c.text or "" for c in node.findall("constructions/internal-structure")),
        binary_features=features,
        provenance=provenance,
        cross_refs=tuple(r.text or "" for r in node.findall("cross-refs/cross-ref")),
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
        entries, table_ids, script_source, root.attrib.get("generator", GENERATOR),
    )
    if declared_sha is not None and doc.script_sha256 != declared_sha:
        raise SchemaViolation("script hash mismatch (document edited or corrupted)")
    _check_entry_ids(entries)
    return doc
