from __future__ import annotations

import pytest

from conftest import compile_corpus, load_fixture_morpho, load_fixture_script
from lexgram.errors import SchemaViolation, UnknownFormatVersion
from lexgram.expansion import run_pipeline
from lexgram.formats import (
    RECORD_COLUMNS,
    SECTION_ARGUMENTS,
    SECTION_CONSTRUCTIONS,
    SECTION_LEXICAL,
    LexiconDocument,
    export_lexicon,
    export_records,
    export_text,
    export_xml,
    import_lexicon,
    import_text,
    import_xml,
    load_lexicon,
    parse_records,
    save_lexicon,
)


def _extended_corpus():
    doc = compile_corpus()
    result = run_pipeline(doc.entries, load_fixture_script(), rules=load_fixture_morpho())
    extended = LexiconDocument(result.entries, doc.table_ids, doc.script_source)
    return extended, result


def _docs_equal(a: LexiconDocument, b: LexiconDocument) -> bool:
    return (
        a.entries == b.entries
        and a.table_ids == b.table_ids
        and a.script_source == b.script_source
    )


# =============================================================================
# text format
# =============================================================================

def test_text_round_trip_preserves_document(corpus_doc):
    text = export_text(corpus_doc)
    assert _docs_equal(import_text(text), corpus_doc)


def test_text_round_trip_extended_document():
    extended, _ = _extended_corpus()
    text = export_text(extended)
    again = import_text(text)
    assert _docs_equal(again, extended)
    assert export_text(again) == text


def test_text_header_layout(corpus_doc):
    lines = export_text(corpus_doc).split("\n")
    assert lines[0] == "#lgx\t1"
    assert lines[1].startswith("#generator\tlexgram ")
    assert lines[2] == "#tables\t" + "\t".join(corpus_doc.table_ids)
    assert lines[3] == f"#script-sha256\t{corpus_doc.script_sha256}"
    assert lines[4] == "#script-begin"
    assert "#script-end" in lines
    assert f"#entries\t{len(corpus_doc.entries)}" in lines
    body = [l for l in lines[5:] if not l.startswith("#")]
    assert SECTION_LEXICAL in body and SECTION_ARGUMENTS in body and SECTION_CONSTRUCTIONS in body


def test_text_empty_values_use_sentinel(corpus_doc):
    pac2 = next(e for e in corpus_doc.entries if e.entry_id == "PAC#2")
    assert pac2.components["Prép1"] == ""
    text = export_text(corpus_doc)
    assert "component\tPrép1\t<E>" in text
    again = import_text(text)
    restored = next(e for e in again.entries if e.entry_id == "PAC#2")
    assert restored.components["Prép1"] == ""


def test_text_rejects_missing_magic():
    with pytest.raises(SchemaViolation):
        import_text("entries\t0\n")


def test_text_rejects_future_version(corpus_doc):
    text = export_text(corpus_doc).replace("#lgx\t1", "#lgx\t2", 1)
    with pytest.raises(UnknownFormatVersion):
        import_text(text)


def test_text_rejects_tampered_script(corpus_doc):
    text = export_text(corpus_doc)
    tampered = text.replace("#|#", "#|# edited", 1)
    assert tampered != text
    with pytest.raises(SchemaViolation) as err:
        import_text(tampered)
    assert "hash" in str(err.value)


def test_text_rejects_truncation(corpus_doc):
    text = export_text(corpus_doc)
    blocks = text.split("\n\n")
    with pytest.raises(SchemaViolation) as err:
        import_text("\n\n".join(blocks[:-1]) + "\n")
    assert "count mismatch" in str(err.value)


def test_text_rejects_bad_entry_count(corpus_doc):
    text = export_text(corpus_doc)
    bad = text.replace(f"#entries\t{len(corpus_doc.entries)}", "#entries\tmany", 1)
    with pytest.raises(SchemaViolation):
        import_text(bad)


def test_text_rejects_unterminated_script(corpus_doc):
    text = export_text(corpus_doc)
    head = text.split("#script-end")[0]
    with pytest.raises(SchemaViolation):
        import_text(head)


def test_text_rejects_unknown_keywords(corpus_doc):
    text = export_text(corpus_doc)
    with pytest.raises(SchemaViolation):
        import_text(text.replace("#generator", "#creator", 1))
    with pytest.raises(SchemaViolation):
        import_text(text.replace("\ntable\t", "\ntabel\t", 1))


def test_text_rejects_malformed_feature_value(corpus_doc):
    text = export_text(corpus_doc)
    bad = text.replace("feature\tN0 V Adv W\t+", "feature\tN0 V Adv W\t?", 1)
    with pytest.raises(SchemaViolation):
        import_text(bad)


# =============================================================================
# XML format
# =============================================================================

def test_xml_round_trip_preserves_document():
    extended, _ = _extended_corpus()
    text = export_xml(extended)
    again = import_xml(text)
    assert _docs_equal(again, extended)
    assert export_xml(again) == text


def test_xml_declaration_and_root(corpus_doc):
    text = export_xml(corpus_doc)
    assert text.startswith("<?xml")
    assert "<lexicon " in text


def test_xml_rejects_malformed_input():
    with pytest.raises(SchemaViolation):
        import_xml("<lexicon version='1'")


def test_xml_rejects_wrong_root():
    with pytest.raises(SchemaViolation):
        import_xml("<catalogue version='1'/>")


def test_xml_rejects_future_version():
    with pytest.raises(UnknownFormatVersion):
        import_xml("<lexicon version='9'><entries count='0'/></lexicon>")


def test_xml_rejects_count_mismatch(corpus_doc):
    text = export_xml(corpus_doc)
    bad = text.replace(f'count="{len(corpus_doc.entries)}"', 'count="3"', 1)
    with pytest.raises(SchemaViolation):
        import_xml(bad)


def test_xml_rejects_tampered_script(corpus_doc):
    text = export_xml(corpus_doc)
    bad = text.replace("construction", "konstruction", 1)
    with pytest.raises(SchemaViolation):
        import_xml(bad)


@pytest.mark.parametrize("old, new", [
    ("<component slot=", "<component sloth="),
    ("<aux column=", "<aux col="),
    ("<feature id=", "<feature name="),
    (' value="+"', ' val="+"'),
    (' value="+"', ' value="x"'),
    ("<table id=", "<table name="),
    ("<other-structure label=", "<other-structure lab="),
    ('<entry id="PAC#2"', '<entry id="weird"'),
    ('<entry id="ADVPS#2"', '<entry id="ADVPS#1"'),
    ('<entry id="ADVMS#2#para#1"', '<entry id="ADVMS#2#int#9"'),
])
def test_xml_rejects_missing_attributes_and_bad_values(old, new):
    text = export_xml(_extended_corpus()[0])
    assert old in text
    with pytest.raises(SchemaViolation):
        import_xml(text.replace(old, new, 1))


# =============================================================================
# front door and file helpers
# =============================================================================

def test_sniffing_dispatches_by_leading_character(corpus_doc):
    assert _docs_equal(import_lexicon(export_text(corpus_doc)), corpus_doc)
    assert _docs_equal(import_lexicon(export_xml(corpus_doc)), corpus_doc)


def test_export_unknown_format_rejected(corpus_doc):
    with pytest.raises(ValueError):
        export_lexicon(corpus_doc, format="yaml")
    with pytest.raises(ValueError):
        import_lexicon("#lgx\t1\n", format="yaml")


def test_save_load_infers_format_from_suffix(tmp_path, corpus_doc):
    text_path = tmp_path / "base.lgx"
    xml_path = tmp_path / "base.lgx.xml"
    save_lexicon(corpus_doc, text_path)
    save_lexicon(corpus_doc, xml_path)
    assert text_path.read_text(encoding="utf-8").startswith("#lgx")
    assert xml_path.read_text(encoding="utf-8").startswith("<?xml")
    assert _docs_equal(load_lexicon(text_path), corpus_doc)
    assert _docs_equal(load_lexicon(xml_path), corpus_doc)


# =============================================================================
# expansion record sidecar
# =============================================================================

def test_records_round_trip():
    _, result = _extended_corpus()
    text = export_records(result.records)
    rows = parse_records(text)
    assert len(rows) == len(result.records)
    by_id = {row.entry_id: row for row in rows}
    for record in result.records:
        row = by_id[record.entry.entry_id]
        assert row.parent_id == record.parent_id
        assert row.kind is record.kind
        assert row.surface == record.entry.surface.rendered
        assert row.status == record.status
        assert row.duplicate_of == (record.duplicate_of or "")


def test_records_header_line():
    _, result = _extended_corpus()
    first = export_records(result.records).split("\n", 1)[0]
    assert first == "\t".join(RECORD_COLUMNS)


def test_records_reject_bad_header():
    with pytest.raises(SchemaViolation):
        parse_records("entry\tsurface\nA#1\tfoo\n")


def test_records_reject_short_line():
    _, result = _extended_corpus()
    text = export_records(result.records)
    lines = text.rstrip("\n").split("\n")
    lines[1] = lines[1].rsplit("\t", 1)[0]
    with pytest.raises(SchemaViolation):
        parse_records("\n".join(lines) + "\n")


def test_records_reject_unknown_pass():
    header = "\t".join(RECORD_COLUMNS)
    line = "A#1#del#1\tA#1\tteleportation\tf\tt\tsurface\tkept\t<E>"
    with pytest.raises(SchemaViolation):
        parse_records(f"{header}\n{line}\n")
