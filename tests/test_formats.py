from __future__ import annotations

import ast
import gc
import hashlib
import io
import os
import random
import re
import stat
import tempfile
import tracemalloc
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import corpusgen
import text_reference
import xml_reference
from conftest import TABLE_IDS, compile_corpus, load_fixture_morpho, load_fixture_script, written
from lexgram import files, formats
from lexgram.errors import LexgramError, SchemaViolation, UnknownFormatVersion
from lexgram.files import parse_file, read_chunks, read_text, writing
from lexgram.expansion import run_pipeline
from lexgram.formats import (
    RECORD_COLUMNS,
    RECORD_STATUSES,
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
from lexgram.model import (
    EMPTY_CELLS,
    EMPTY_TOKEN,
    PASS_TAGS,
    ArgumentSpec,
    LexEntry,
    Origin,
    Provenance,
    RecordRow,
    Selection,
    SurfaceForm,
    entry_id,
    variant_id,
)
from lexgram.script import parse_script


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
# pinned bytes
# =============================================================================

@pytest.mark.parametrize("build, xml_sha256, text_sha256", [
    pytest.param(
        compile_corpus,
        "d935beff5a9288a0922a14caf3a5803045955c594f3752034fce337e9ae31541",
        "85f37939ca0138abf0111a43ee1750dceffe3a153d8f2468ab65df5da8dffcaf",
        id="base",
    ),
    pytest.param(
        lambda: _extended_corpus()[0],
        "aed0b04abdd23db09627549d08b51b5cf1b3737a3bce865beb55224ac67f3616",
        "546753791d64794f78f34f6c04c5cdd75882b48b3dd2ff99c2519d98977f76ef",
        id="extended",
    ),
])
def test_export_bytes_are_pinned(build, xml_sha256, text_sha256):
    doc = build()
    assert hashlib.sha256(export_lexicon(doc, "xml").encode("utf-8")).hexdigest() == xml_sha256
    assert hashlib.sha256(export_lexicon(doc).encode("utf-8")).hexdigest() == text_sha256


@pytest.mark.parametrize("copies, sha256", [
    pytest.param(0, "56b04afb037fb8670d871fb59651a6abec8f06ae9d1f810b95482dc9f33adc38", id="fixture"),
    # one more base row, a copy of ADVMP#1: its record is a removed base entry
    pytest.param(1, "5496c4f68a22cf47104624bab4e43d63e288fca80661e3d5cfcdc8784f674f82", id="duplicate-base"),
])
def test_record_bytes_are_pinned(copies, sha256):
    entries = compile_corpus().entries
    entries += [entries[0].replace(entry_id="ADVMP#99")] * copies
    result = run_pipeline(entries, load_fixture_script(), rules=load_fixture_morpho())
    assert hashlib.sha256(written(export_records, result.records).encode("utf-8")).hexdigest() == sha256


# =============================================================================
# generated documents
# =============================================================================

# Field text for the XML properties.  The safe alphabet holds the
# characters either escape function treats apart (markup, quotes,
# whitespace) and letters of one, two, three and four UTF-8 bytes.  The
# others add what XML cannot carry raw: a carriage return, which a parser
# reads back as a newline, and characters outside XML 1.0's Char production.
_XML_SAFE = "&<>\"' \t\n#;aZé€𝄞"
_XML_SAFE_TEXT = st.text(st.sampled_from(_XML_SAFE), max_size=5)
_XML_CR_TEXT = st.text(st.sampled_from(_XML_SAFE + "\r"), max_size=5)
_XML_ANY_TEXT = st.text(st.sampled_from(_XML_SAFE + "\r\x00\x0b\x0c\x1f\ud800\ufffe\uffff"), max_size=5)


@st.composite
def _documents(draw, text, token=None, name=None):
    """Documents whose fields are drawn from *text*, surface tokens from
    *token* and optional provenance fields and the header's table ids from
    *name* (both *text* unless given).  A variant's parent is the base id
    its own id spells, so it holds the drawn table id."""
    token = text if token is None else token
    name = text if name is None else name
    surfaces = st.builds(SurfaceForm, st.lists(token, max_size=3).map(tuple), text)
    arguments = st.builds(ArgumentSpec, text, st.sampled_from(Selection))
    entries = []
    for row in range(1, draw(st.integers(0, 4)) + 1):
        table_id = draw(text).replace("#", "") or "T"
        kind = draw(st.sampled_from(Origin))
        base = entry_id(table_id, row)
        eid, parent = (base, None) if kind is Origin.BASE else (variant_id(base, kind, 1), base)
        entries.append(LexEntry(
            entry_id=eid,
            table_id=table_id,
            category=draw(text),
            surface=draw(surfaces),
            components=draw(st.dictionaries(text, text, max_size=3)),
            aux=draw(st.dictionaries(text, text, max_size=2)),
            paraphrases=draw(st.lists(surfaces, max_size=2).map(tuple)),
            other_structures=draw(st.lists(st.tuples(text, surfaces), max_size=2).map(tuple)),
            intensified=draw(st.lists(surfaces, max_size=1).map(tuple)),
            arguments=draw(st.lists(arguments, max_size=2).map(tuple)),
            construction_ids=draw(st.lists(text, max_size=2).map(tuple)),
            internal_structures=draw(st.lists(text, max_size=2).map(tuple)),
            binary_features=draw(st.dictionaries(text, st.booleans(), max_size=3)),
            provenance=Provenance(kind, parent, draw(st.none() | name), draw(st.none() | name)),
            # ids of removed entries: of the entry's table and row, and of no entry
            cross_refs=tuple(variant_id(base, Origin.INTENSIFICATION, n) for n in range(2, 2 + draw(st.integers(0, 2)))),
        ))
    return LexiconDocument(
        entries, tuple(draw(st.lists(name, max_size=3))), draw(text), generator=draw(text),
    )


# The small alphabet makes names repeat across entries, so that the
# writer's per-export name caches are hit.
@given(st.one_of(_documents(_XML_SAFE_TEXT), _documents(st.text(st.sampled_from('a&"\t'), max_size=2))))
def test_xml_matches_the_elementtree_reference(doc):
    text = export_lexicon(doc, "xml")
    assert text == xml_reference.export_xml(doc)
    assert import_xml(text) == xml_reference.import_xml(text)


@given(st.one_of(_documents(_XML_CR_TEXT), _documents(_XML_ANY_TEXT)))
def test_xml_export_round_trips_or_refuses(doc):
    try:
        text = export_lexicon(doc, "xml")
    except LexgramError:
        return
    assert import_xml(text) == doc


# =============================================================================
# text format
# =============================================================================

def test_text_round_trip_preserves_document(corpus_doc):
    text = export_lexicon(corpus_doc)
    assert _docs_equal(import_text(text), corpus_doc)


def test_text_round_trip_extended_document():
    extended, _ = _extended_corpus()
    text = export_lexicon(extended)
    again = import_text(text)
    assert _docs_equal(again, extended)
    assert export_lexicon(again) == text


def test_text_header_layout(corpus_doc):
    lines = export_lexicon(corpus_doc).split("\n")
    assert lines[0] == "#lgx\t1"
    assert lines[1].startswith("#generator\tlexgram ")
    assert lines[2] == "#tables\t" + "\t".join(corpus_doc.table_ids)
    assert lines[3] == f"#script-sha256\t{corpus_doc.script_sha256}"
    assert lines[4] == "#script-begin"
    assert "#script-end" in lines
    assert f"#entries\t{len(corpus_doc.entries)}" in lines
    body = [l for l in lines[5:] if not l.startswith("#")]
    assert SECTION_LEXICAL in body and SECTION_ARGUMENTS in body and SECTION_CONSTRUCTIONS in body


@given(st.text())
@example("")
@example("* : \"é\" => construction # œuvre 😀")
def test_script_digest_is_hashlibs(script):
    doc = LexiconDocument([], TABLE_IDS, script)
    assert doc.script_sha256 == hashlib.sha256(script.encode("utf-8")).hexdigest()


def test_text_empty_values_use_sentinel(corpus_doc):
    pac2 = next(e for e in corpus_doc.entries if e.entry_id == "PAC#2")
    assert pac2.components["Prép1"] == ""
    text = export_lexicon(corpus_doc)
    assert "component\tPrép1\t<E>" in text
    again = import_text(text)
    restored = next(e for e in again.entries if e.entry_id == "PAC#2")
    assert restored.components["Prép1"] == ""


def test_text_rejects_missing_magic():
    with pytest.raises(SchemaViolation):
        import_text("entries\t0\n")


def test_text_rejects_future_version(corpus_doc):
    text = export_lexicon(corpus_doc).replace("#lgx\t1", "#lgx\t2", 1)
    with pytest.raises(UnknownFormatVersion):
        import_text(text)


def test_text_rejects_tampered_script(corpus_doc):
    text = export_lexicon(corpus_doc)
    tampered = text.replace("#|#", "#|# edited", 1)
    assert tampered != text
    with pytest.raises(SchemaViolation) as err:
        import_text(tampered)
    assert "hash" in str(err.value)


def test_text_rejects_truncation(corpus_doc):
    text = export_lexicon(corpus_doc)
    blocks = text.split("\n\n")
    with pytest.raises(SchemaViolation) as err:
        import_text("\n\n".join(blocks[:-1]) + "\n")
    assert "count mismatch" in str(err.value)


def test_text_rejects_bad_entry_count(corpus_doc):
    text = export_lexicon(corpus_doc)
    bad = text.replace(f"#entries\t{len(corpus_doc.entries)}", "#entries\tmany", 1)
    with pytest.raises(SchemaViolation):
        import_text(bad)


# An entry count is 0 or ASCII digits without a leading zero; the reference
# readers, like int(), read each of these as 31.
@pytest.mark.parametrize("spelling", [" 31 ", "3_1", "+31", "\u0663\u0661", "031"])
@pytest.mark.parametrize("fmt, header, reference", [
    ("text", "#entries\t{}", text_reference.import_text), ("xml", 'count="{}"', xml_reference.import_xml),
])
def test_import_refuses_an_entry_count_in_another_spelling(corpus_doc, fmt, header, reference, spelling):
    text = export_lexicon(corpus_doc, fmt)
    count = header.format(len(corpus_doc.entries))
    assert count in text
    edited = text.replace(count, header.format(spelling), 1)
    with pytest.raises(SchemaViolation) as err:
        import_lexicon(edited)
    assert str(err.value) == f"bad entry count {spelling!r}"
    assert reference(edited) == corpus_doc
    if fmt == "text":
        _assert_text_reads_as_the_reference(edited)


def test_text_rejects_unterminated_script(corpus_doc):
    text = export_lexicon(corpus_doc)
    head = text.split("#script-end")[0]
    with pytest.raises(SchemaViolation):
        import_text(head)


def test_text_rejects_unknown_keywords(corpus_doc):
    text = export_lexicon(corpus_doc)
    with pytest.raises(SchemaViolation):
        import_text(text.replace("#generator", "#creator", 1))
    with pytest.raises(SchemaViolation):
        import_text(text.replace("\ntable\t", "\ntabel\t", 1))


def test_text_rejects_malformed_feature_value(corpus_doc):
    text = export_lexicon(corpus_doc)
    bad = text.replace("feature\tN0 V Adv W\t+", "feature\tN0 V Adv W\t?", 1)
    with pytest.raises(SchemaViolation):
        import_text(bad)


def _set_component(entry, text):
    entry.components["C1"] = text


def _set_token(entry, text):
    entry.surface = SurfaceForm((*entry.surface.tokens, text), entry.surface.rendered)


def _set_feature(entry, text):
    entry.binary_features[text] = True


def _set_template(entry, text):
    entry.provenance = Provenance(Origin.DELETION, "PCA#1", "f", text)


@pytest.mark.parametrize("edit", [_set_component, _set_token, _set_feature, _set_template])
@pytest.mark.parametrize("char, name", [("\t", "tab"), ("\n", "newline"), ("\r", "carriage return")])
def test_text_export_refuses_field_breaks(corpus_doc, edit, char, name):
    entry = next(e for e in corpus_doc.entries if "C1" in e.components)
    edit(entry, f"a{char}b")
    with pytest.raises(SchemaViolation) as err:
        export_lexicon(corpus_doc)
    assert str(err.value) == f"entry {entry.entry_id!r} holds a {name}, which the text format cannot carry"


@pytest.mark.parametrize("field, value, message", [
    ("table_ids", ("PAC", "P\tC"), "table id 'P\\tC' holds a tab"),
    ("table_ids", ("P\rAC",), "table id 'P\\rAC' holds a carriage return"),
    ("generator", "lexgram\n0", "the generator holds a newline"),
    ("script_source", "* : \"f\" => construction\r\n", "the embedded script holds a carriage return"),
    ("table_ids", ("PAC", ""), "table id '' is empty, which the text format cannot carry"),
])
def test_text_export_refuses_header_breaks(corpus_doc, field, value, message):
    setattr(corpus_doc, field, value)
    with pytest.raises(SchemaViolation, match=re.escape(message)):
        export_lexicon(corpus_doc)


def _set_rendered(entry, text):
    entry.surface = SurfaceForm(entry.surface.tokens, text)


def _set_parent(entry, text):
    entry.provenance = Provenance(Origin.DELETION, text, "f", "t")


_EMPTY_NAME = "an empty provenance parent, feature or template"
_SPLIT_TOKEN = "a surface token that is empty or holds whitespace"


@pytest.mark.parametrize("edit, text, what", [
    (_set_component, "<E>", "a field reading '<E>'"),
    (_set_rendered, "<E>", "a field reading '<E>'"),
    (_set_template, "<E>", "a field reading '<E>'"),
    (_set_parent, "", _EMPTY_NAME),
    (_set_template, "", _EMPTY_NAME),
    (_set_token, "", _SPLIT_TOKEN),
    (_set_token, "a b", _SPLIT_TOKEN),
    (_set_token, "a\x0bb", _SPLIT_TOKEN),
])
def test_text_export_refuses_what_reads_back_as_another(corpus_doc, edit, text, what):
    entry = next(e for e in corpus_doc.entries if "C1" in e.components)
    edit(entry, text)
    with pytest.raises(SchemaViolation) as err:
        export_lexicon(corpus_doc)
    assert str(err.value) == f"entry {entry.entry_id!r} holds {what}, which the text format cannot carry"


def test_text_export_keeps_a_sentinel_token_among_others(corpus_doc):
    entry = next(e for e in corpus_doc.entries if "C1" in e.components)
    _set_token(entry, EMPTY_TOKEN)
    assert import_text(export_lexicon(corpus_doc)) == corpus_doc


def test_text_export_keeps_tabs_in_generator_and_script(corpus_doc):
    corpus_doc.generator = "lexgram\t0"
    corpus_doc.script_source = "# a\tb\n" + corpus_doc.script_source
    assert import_text(export_lexicon(corpus_doc)) == corpus_doc


# Field text for the text-format properties.  ``_TEXT_SAFE`` holds
# whitespace other than the refused tab, newline and carriage return, the
# sentinel ``<E>``'s characters, and letters of one to four UTF-8 bytes.
_TEXT_SAFE = "<>E#+- \x0baé€𝄞"
_TEXT_SAFE_TEXT = st.text(st.sampled_from(_TEXT_SAFE), max_size=5).filter(lambda text: text != EMPTY_TOKEN)

# Documents the text format carries: no field reads ``<E>``, no provenance
# name or table id is empty, and surface tokens are neither empty nor hold
# whitespace.
_READABLE_DOCUMENTS = _documents(
    _TEXT_SAFE_TEXT,
    token=st.text(st.sampled_from(_TEXT_SAFE.replace(" ", "").replace("\x0b", "")), min_size=1, max_size=5)
    .filter(lambda text: text != EMPTY_TOKEN),
    name=_TEXT_SAFE_TEXT.filter(bool),
)


def _read_outcome(reader, text: str):
    """The document *reader* returns for *text*, or its error's class and message."""
    try:
        return reader(text)
    except LexgramError as err:
        return type(err), str(err)


_REPEATED_LINE = re.compile(r"(?:entry '.*': )?repeated '(entry|table|provenance|surface|category)' line", re.S)


def _holds_a_repeated_line(text: str, keyword: str) -> bool:
    """Whether an entry block of *text* has two lines of *keyword*."""
    count = 0
    for line in text.split("\n"):
        if not line or line.isspace():
            count = 0
        elif line.split("\t", 1)[0] == keyword:
            count += 1
            if count == 2:
                return True
    return False


_BAD_COUNT = re.compile(r"bad entry count (.*)", re.S)


def _assert_text_reads_as_the_reference(text: str) -> None:
    """``import_text`` reads *text* as the reference reader does, or refuses
    what the reference reads, the two deliberate differences between them:
    a repeated single-valued line, of which the reference reads the last,
    and an entry count other than 0 or ASCII digits without a leading zero,
    which the reference reads with ``int()``."""
    got = _read_outcome(import_text, text)
    refusal = got[1] if isinstance(got, tuple) and got[0] is SchemaViolation else ""
    repeat = _REPEATED_LINE.fullmatch(refusal)
    count = _BAD_COUNT.fullmatch(refusal)
    expected = _read_outcome(text_reference.import_text, text)
    if repeat:
        assert _holds_a_repeated_line(text, repeat[1]), got
    elif count and got != expected:
        spelling = ast.literal_eval(count[1])
        int(spelling)  # which the reference reads
        assert not re.fullmatch("0|[1-9][0-9]*", spelling), got
    else:
        assert got == expected


@given(_READABLE_DOCUMENTS)
def test_text_import_matches_the_reference(doc):
    text = export_lexicon(doc)
    assert _read_outcome(import_text, text) == _read_outcome(text_reference.import_text, text)


# The text format reads four spellings as others: a field reading ``<E>``
# as an empty one, an empty provenance parent, feature or template as an
# absent one, surface tokens that are empty or hold whitespace as their
# whitespace-split join, and an empty table id as none.  The documents here
# hold all four, and characters the format refuses, in every field.
_TEXT_PLAIN = "<>#+-Eaé€𝄞 \x0b"
_TEXT_BREAKS = "\t\n\r"


def _text_documents(alphabet):
    return _documents(st.text(st.sampled_from(alphabet), max_size=5) | st.just(EMPTY_TOKEN))


@given(st.one_of(
    _READABLE_DOCUMENTS, _text_documents(_TEXT_PLAIN), _text_documents(_TEXT_PLAIN + _TEXT_BREAKS),
))
def test_text_export_round_trips_or_refuses(doc):
    try:
        text = export_lexicon(doc)
    except LexgramError as err:
        assert "which the text format cannot carry" in str(err)
        return
    assert import_text(text) == doc


def _write_outcome(export, doc: LexiconDocument):
    """The text *export* writes for *doc*, or its error's class and message."""
    out = io.StringIO()
    try:
        export(doc, out)
    except SchemaViolation as err:
        return SchemaViolation, str(err)
    return out.getvalue()


# The last alphabet is small, so that feature ids, labels and cell texts
# repeat across entries, with and without a separator in them.
@given(st.one_of(
    _READABLE_DOCUMENTS, _text_documents(_TEXT_PLAIN), _text_documents(_TEXT_PLAIN + _TEXT_BREAKS),
    _text_documents("a<" + _TEXT_BREAKS),
))
def test_text_export_matches_the_reference(doc):
    assert _write_outcome(export_text, doc) == _write_outcome(text_reference.export_text, doc)


# =============================================================================
# XML format
# =============================================================================

def test_xml_round_trip_preserves_document():
    extended, _ = _extended_corpus()
    text = export_lexicon(extended, "xml")
    again = import_xml(text)
    assert _docs_equal(again, extended)
    assert export_lexicon(again, "xml") == text


def test_xml_declaration_and_root(corpus_doc):
    text = export_lexicon(corpus_doc, "xml")
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


def test_xml_rejects_undefined_entities(corpus_doc):
    # With an external DTD, expat leaves an undeclared entity to the
    # reader instead of failing the parse.
    text = export_lexicon(corpus_doc, "xml").replace(
        "<lexicon ", '<!DOCTYPE lexicon SYSTEM "lexicon.dtd">\n<lexicon ', 1,
    ).replace("<tables>", "<tables><note>&undeclared;</note>", 1)
    with pytest.raises(SchemaViolation) as err:
        import_xml(text)
    assert "undeclared" in str(err.value)
    with pytest.raises(SchemaViolation):
        xml_reference.import_xml(text)


def test_xml_rejects_count_mismatch(corpus_doc):
    text = export_lexicon(corpus_doc, "xml")
    bad = text.replace(f'count="{len(corpus_doc.entries)}"', 'count="3"', 1)
    with pytest.raises(SchemaViolation):
        import_xml(bad)


def test_xml_rejects_tampered_script(corpus_doc):
    text = export_lexicon(corpus_doc, "xml")
    bad = text.replace("construction", "konstruction", 1)
    with pytest.raises(SchemaViolation):
        import_xml(bad)


_XML_DEFECTS = [
    ("<component slot=", "<component sloth=", "entry 'ADVMP#1': <component> element lacks the 'slot' attribute"),
    ("<aux column=", "<aux col=", "entry 'ADVMP#1': <aux> element lacks the 'column' attribute"),
    ("<feature id=", "<feature name=", "entry 'ADVMP#1': <feature> element lacks the 'id' attribute"),
    (' value="+"', ' val="+"', "entry 'ADVMP#1': <feature> element lacks the 'value' attribute"),
    (' value="+"', ' value="x"', "entry 'ADVMP#1': feature value 'x' is not '+' or '-'"),
    ("<table id=", "<table name=", "<table> element lacks the 'id' attribute"),
    ("<other-structure label=", "<other-structure lab=",
     "entry 'PCA#3': <other-structure> element lacks the 'label' attribute"),
    ('<entry id="PAC#2"', '<entry id="weird"',
     "malformed entry id 'weird' (expected TABLE#row or TABLE#row#tag#ordinal)"),
    ('<entry id="ADVPS#2"', '<entry id="ADVPS#1"', "duplicate entry id 'ADVPS#1'"),
    ('<entry id="ADVMS#2#para#1"', '<entry id="ADVMS#2#int#9"',
     "entry id 'ADVMS#2#int#9' does not match its table 'ADVMS' and provenance 'paraphrase-direct'"),
    ('<argument slot="N0" selection="any"', '<argument slot="N0" selection="most"',
     "bad argument: 'most' is not a valid Selection"),
    ('<provenance kind="base" />', '<provenance kind="base" parent="ADVMP#2" />',
     "bad provenance: base entries have no parent; variants require one"),
    # two defects in one element: the first check made names its defect
    ('<entry id="ADVMP#1" table="ADVMP">', "<entry>", "<entry> element lacks the 'id' attribute"),
    ('<feature id="N0 =: Nhum" value="+"', '<feature value="x"', "entry 'ADVMP#1': <feature> element lacks the 'id' attribute"),
    ('<argument slot="N0" selection="any"', '<argument selection="most"', "bad argument: 'slot'"),
    ('<provenance kind="base" />', '<provenance parent="ADVMP#2" />', "bad provenance: 'kind'"),
    ('<provenance kind="base" />', '<provenance kind="based" parent="ADVMP#2" />',
     "bad provenance: 'based' is not a valid Origin"),
    ('<surface rendered="linguistiquement">', "<surface>",
     "entry 'ADVMP#1': <surface> element lacks the 'rendered' attribute"),
]


@pytest.mark.parametrize("old, new, message", _XML_DEFECTS, ids=[f"{old}-{new}" for old, new, _ in _XML_DEFECTS])
def test_xml_rejects_missing_attributes_and_bad_values(old, new, message):
    text = export_lexicon(_extended_corpus()[0], "xml")
    assert old in text
    with pytest.raises(SchemaViolation) as err:
        import_xml(text.replace(old, new, 1))
    assert str(err.value) == message


# Every character the writer escapes.
_ESCAPED = '&<>"\t\n\r'


def _escaped_names_document(name: str, row: int = 1) -> LexiconDocument:
    """Two entries with *name* in every name's place: feature id, component
    slot, aux column, other-structure label, category, table id, provenance
    feature and template, construction id and internal-structure label.
    The first is the base entry of *row*, the second a variant of it."""
    surface = SurfaceForm(("a", "b"), "a b")
    base = entry_id(name, row)
    entries = [
        LexEntry(
            eid, name, name, surface, {name: "x"}, {name: ""}, (), ((name, surface),), (),
            (ArgumentSpec(name, Selection.ANY),), (name,), (name,), {name: value}, provenance, (),
        )
        for eid, value, provenance in (
            (base, True, Provenance(Origin.BASE)),
            (variant_id(base, Origin.DELETION, 1), False, Provenance(Origin.DELETION, base, name, name)),
        )
    ]
    return LexiconDocument(entries, (name,), "* : \"f\" => construction")


def test_xml_escapes_every_name_as_the_reference_does():
    doc = _escaped_names_document(_ESCAPED)
    text = export_lexicon(doc, "xml")
    # The reference leaves a carriage return in element text raw.
    assert text == xml_reference.export_xml(doc).replace("\r", "&#13;")
    assert import_xml(text) == doc


def test_xml_name_caches_live_for_one_export(monkeypatch):
    escaped = []
    escape = formats._xml_attr
    monkeypatch.setattr(formats, "_xml_attr", lambda text: escaped.append(text) or escape(text))
    # The first and last documents share every name but not every value.
    docs = [_escaped_names_document(_ESCAPED), _escaped_names_document("f"), _escaped_names_document(_ESCAPED, 2)]
    for doc in docs:
        escaped.clear()
        assert export_lexicon(doc, "xml") == xml_reference.export_xml(doc).replace("\r", "&#13;")
        # once as a name in this export, once as the table id in the header
        assert escaped.count(doc.entries[0].table_id) == 2


@pytest.mark.parametrize("char", ["\x00", "\x0c", "\x1f", "\ud800", "\uffff"])
def test_xml_export_refuses_characters_xml_cannot_carry(corpus_doc, char):
    corpus_doc.entries[3].components["C1"] = f"a{char}b"
    with pytest.raises(SchemaViolation) as err:
        export_lexicon(corpus_doc, "xml")
    assert repr(corpus_doc.entries[3].entry_id) in str(err.value)


# The writer checks each name when it first escapes it and each value where
# it escapes it; the character it names is the first of the entry's block,
# whichever of the two comes first.
@pytest.mark.parametrize("name_char, value_char, first", [
    pytest.param("\x0b", "\x0c", "\x0c", id="value-first"),
    pytest.param("\x01", "\x02", "\x01", id="name-first"),
])
def test_xml_export_names_an_entrys_first_character_xml_cannot_carry(corpus_doc, name_char, value_char, first):
    entry = corpus_doc.entries[3]
    if first == value_char:  # a component text, then a feature id
        entry = entry.replace(
            components={**entry.components, "C1": f"a{value_char}"},
            binary_features={**entry.binary_features, f"f{name_char}": True},
        )
    else:  # the category, then a cross-reference
        entry = entry.replace(category=f"adverb{name_char}", cross_refs=(f"r{value_char}",))
    corpus_doc.entries[3] = entry
    message = f"entry {entry.entry_id!r} holds U+{ord(first):04X}, which XML 1.0 cannot carry"
    with pytest.raises(SchemaViolation, match=f"^{re.escape(message)}$"):
        export_lexicon(corpus_doc, "xml")


@given(_documents(_XML_ANY_TEXT))
def test_xml_export_names_what_a_search_of_the_written_text_finds(doc):
    """The script is checked first; otherwise the refusal names the first
    character XML cannot carry in the text the reference writer lays out,
    and the header or the entry whose block holds it."""
    bad = formats._XML_UNWRITABLE.search(doc.script_source)
    where = "the embedded script"
    if bad is None:
        text = xml_reference.export_xml(doc)
        bad = formats._XML_UNWRITABLE.search(text)
        # markup is escaped in every field, so each entry's block starts here
        blocks = text.count("\n    <entry ", 0, bad.start()) if bad else 0
        where = f"entry {doc.entries[blocks - 1].entry_id!r}" if blocks else "the document header"
    try:
        export_lexicon(doc, "xml")
    except SchemaViolation as err:
        assert bad is not None
        assert str(err) == f"{where} holds U+{ord(bad.group()):04X}, which XML 1.0 cannot carry"
    else:
        assert bad is None


def test_xml_keeps_carriage_returns(corpus_doc):
    corpus_doc.entries[3].components["C1"] = "a\rb\r\n"
    entry = corpus_doc.entries[3]
    corpus_doc.entries[3] = entry.replace(cross_refs=entry.cross_refs + ("A\r#1",))
    text = export_lexicon(corpus_doc, "xml")
    assert "a&#13;b&#13;\n" in text
    assert import_xml(text) == corpus_doc


@pytest.mark.parametrize("pattern, replacement, message", [
    (r' count="\d+"', "", "<entries> element lacks the 'count' attribute"),
    (r' script-sha256="[0-9a-f]+"', "", "<lexicon> element lacks the 'script-sha256' attribute"),
    (r' script-sha256="[0-9a-f]+"', ' script-sha256=""', "script hash mismatch (document edited or corrupted)"),
    (r"  <entries count=\"0\" />\n", "", "document has no <entries count> (truncated file?)"),
], ids=["count", "hash", "empty-hash", "entries-element"])
def test_xml_requires_count_and_hash(pattern, replacement, message):
    doc = LexiconDocument([], ("T",), "# empty script")
    text = export_lexicon(doc, "xml")
    assert import_xml(text) == doc
    stripped, replaced = re.subn(pattern, replacement, text, count=1)
    assert replaced == 1
    with pytest.raises(SchemaViolation) as err:
        import_xml(stripped)
    assert str(err.value) == message


@pytest.mark.parametrize("start, end, tag", [
    ("<lexicons ", "</lexicons>", "lexicons"),
    ('<x:lexicon xmlns:x="urn:x" ', "</x:lexicon>", "{urn:x}lexicon"),
    ('<lexicon xmlns="urn:x" ', "</lexicon>", "{urn:x}lexicon"),
], ids=["other-name", "prefixed", "default-namespace"])
def test_xml_import_names_an_unexpected_root_element(start, end, tag):
    text = export_lexicon(LexiconDocument([], ("T",), "# empty script"), "xml")
    assert text.count("<lexicon ") == text.count("</lexicon>") == 1
    with pytest.raises(SchemaViolation) as err:
        import_xml(text.replace("<lexicon ", start).replace("</lexicon>", end))
    assert str(err.value) == f"unexpected root element <{tag}>"


@pytest.mark.parametrize("old, new", [
    # text is what precedes an element's first child
    ("</script>", "<b>x</b>tail</script>"),
    # the first script counts
    ("</script>", '</script>\n  <script>other</script>'),
    # outside the entries, elements off the schema's paths are skipped with their contents
    ('<entries count="31">', '<note><entries count="1"><entry id="Z#1" table="Z" /></entries></note><entries count="31">'),
    ('<entries count="31">', '<entries count="31"><note><entry id="Z#1" table="Z" /></note>'),
    ('<table id="ADVMP" />', '<table id="ADVMP"><table id="Z" /></table><note><table id="Y" /></note>'),
    # entries are read from every <entries>, the count from the first
    ('    <entry id="ADVMP#2"', '  </entries>\n  <entries count="9">\n    <entry id="ADVMP#2"'),
])
def test_xml_reads_the_paths_the_reference_reads(corpus_doc, old, new):
    text = export_lexicon(corpus_doc, "xml")
    assert old in text
    edited = text.replace(old, new, 1)
    assert import_xml(edited) == xml_reference.import_xml(edited) == corpus_doc


# Inside an entry an element the schema does not place there is refused,
# one case per element whose children are read.  The reference reader skips
# it: a deliberate difference, as is the refusal of a repeated element below.
@pytest.mark.parametrize("old, new, tag, parent", [
    ("<cross-refs />", '<cross-refs /><component slot="C9">z</component>', "component", "entry"),
    ("<cross-refs />", "<cross-refs /><note>z</note>", "note", "entry"),
    ('<provenance kind="base" />', '<provenance kind="base"><note /></provenance>', "note", "provenance"),
    ("<token>linguistiquement</token>", '<token>linguistiquement</token><x:token xmlns:x="urn:x">z</x:token>',
     "{urn:x}token", "surface"),
    ("<token>linguistiquement</token>", '<token>linguistiquement</token><token xmlns="urn:x">z</token>',
     "{urn:x}token", "surface"),
    ("<token>linguistiquement</token>", "<token>linguistiquement<b>x</b>tail</token>", "b", "token"),
    ('<aux column="Adj-n">linguistique</aux>', '<aux column="Adj-n">linguistique</aux><token>z</token>',
     "token", "lexical-information"),
    ('<component slot="Adv">linguistiquement</component>',
     '<component slot="Adv">linguistiquement<aux column="Z">z</aux></component>', "aux", "component"),
    ('<argument slot="N0" selection="any" />',
     '<argument slot="N0" selection="any" /><feature id="f" value="+" />', "feature", "arguments"),
    ('<argument slot="N0" selection="any" />',
     '<argument slot="N0" selection="any"><argument slot="N1" selection="any" /></argument>', "argument", "argument"),
    ("<internal-structure>Adv</internal-structure>",
     "<internal-structure>Adv</internal-structure><cross-ref>z</cross-ref>", "cross-ref", "constructions"),
    ("<construction>Adv parlant, P</construction>",
     "<construction>Adv parlant, P<construction>z</construction></construction>", "construction", "construction"),
    ('<feature id="N0 =: Nhum" value="+" />',
     '<feature id="N0 =: Nhum" value="+" /><argument slot="N1" selection="any" />', "argument", "features"),
    ('<feature id="N0 =: Nhum" value="+" />',
     '<feature id="N0 =: Nhum" value="+"><feature id="x" value="-" /></feature>', "feature", "feature"),
    ("<cross-refs />", "<cross-refs><note /></cross-refs>", "note", "cross-refs"),
])
def test_xml_import_refuses_an_element_off_the_schema_in_an_entry(corpus_doc, old, new, tag, parent):
    text = export_lexicon(corpus_doc, "xml")
    assert old in text
    edited = text.replace(old, new, 1)
    with pytest.raises(SchemaViolation) as err:
        import_xml(edited)
    assert str(err.value) == f"entry 'ADVMP#1': unexpected <{tag}> element in <{parent}>"
    assert xml_reference.import_xml(edited) == corpus_doc


# An entry holds one of each of these elements; a second one is refused.
# The reference reader reads the first: a deliberate difference.
@pytest.mark.parametrize("old, new, tag", [
    ('<provenance kind="base" />', '<provenance kind="base" />\n<provenance kind="deletion" parent="X" />',
     "provenance"),
    ("      </surface>", '      </surface>\n<surface rendered="zz"><token>zz</token></surface>', "surface"),
    ("      </lexical-information>",
     '      </lexical-information>\n<lexical-information category="z"><aux column="Z">z</aux></lexical-information>',
     "lexical-information"),
], ids=["provenance", "surface", "lexical-information"])
def test_xml_import_refuses_a_repeated_single_valued_element(corpus_doc, old, new, tag):
    text = export_lexicon(corpus_doc, "xml")
    assert old in text
    edited = text.replace(old, new, 1)
    with pytest.raises(SchemaViolation) as err:
        import_xml(edited)
    assert str(err.value) == f"entry 'ADVMP#1': repeated <{tag}> element"
    assert xml_reference.import_xml(edited) == corpus_doc


def test_xml_applies_attribute_defaults_as_the_reference_does(corpus_doc):
    text = export_lexicon(corpus_doc, "xml").replace(
        "<lexicon ", '<!DOCTYPE lexicon [<!ATTLIST provenance template CDATA "T">]>\n<lexicon ', 1,
    )
    doc = import_xml(text)
    assert doc == xml_reference.import_xml(text)
    assert {entry.provenance.template for entry in doc.entries} == {"T"}


_FIXTURE_XML = export_lexicon(compile_corpus(), "xml").encode("utf-8")

# Bytes a mutation writes: markup and entity characters, two control
# characters and any printable ASCII byte.
_MUTATION_BYTES = b"<>&;#\"'/=+- \n\x00\x0c" + bytes(range(32, 127))


def mutate(data, rng: random.Random, alphabet=_MUTATION_BYTES):
    """Delete, replace or insert one to four bytes (or characters) of *data*
    at positions drawn from *rng*, writing ones drawn from *alphabet*."""
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(data) + 1)
        op = rng.choice(("delete", "replace", "insert"))
        k = rng.randrange(len(alphabet))
        piece = alphabet[k:k + 1]
        if op == "delete":
            data = data[:i] + data[i + 1:]
        elif op == "replace":
            data = data[:i] + piece + data[i + 1:]
        else:
            data = data[:i] + piece + data[i:]
    return data


# A seed, not hypothesis's own random, drives the mutations: hypothesis
# favours small integers, which would put most edits in the header.
@given(st.integers(0, 2**32))
def test_xml_import_of_mutated_bytes_reads_or_raises_schema_errors(seed):
    text = mutate(_FIXTURE_XML, random.Random(seed)).decode("utf-8", errors="surrogateescape")
    try:
        doc = import_xml(text)
    except LexgramError:
        return
    assert doc == xml_reference.import_xml(text)


_FIXTURE_TEXT = export_lexicon(_extended_corpus()[0])

# Characters a text mutation writes: the separators, other whitespace, the
# header and sentinel characters, and any printable ASCII character.
_TEXT_MUTATIONS = "\t\n\r\x0b#|<>E+-" + "".join(map(chr, range(32, 127)))


@given(st.integers(0, 2**32))
def test_text_import_of_mutated_text_matches_the_reference(seed):
    text = mutate(_FIXTURE_TEXT, random.Random(seed), _TEXT_MUTATIONS)
    _assert_text_reads_as_the_reference(text)


# Edits one- to four-character mutations rarely make.
@pytest.mark.parametrize("old, new, count", [
    pytest.param("\n\nentry\t", "\n \x0b\nentry\t", 1, id="whitespace-separator"),
    pytest.param("\n\nentry\t", "\n\t\nentry\t", 1, id="tab-separator"),
    pytest.param("\n\nentry\t", "\n\n\n\nentry\t", -1, id="blank-runs"),
    pytest.param("\n\nentry\t", "\nentry\t", 1, id="merged-blocks"),
    pytest.param("\nentry\t", "\n entry\t", 1, id="indented-keyword"),
    pytest.param("\nArguments\n", "\nArguments\t\n", 1, id="section-with-field"),
    pytest.param("\nArguments\n", "\nArguments\n\nConstructions\n\n", 1, id="section-only-block"),
    pytest.param("\tN0 V Adv W\t+\n", "\tN0 V Adv W\t+\nfeature\tN0 V Adv W\t-\n", 1, id="repeated-feature"),
    pytest.param("\tC1\tavenir\n", "\tC1\tavenir\ncomponent\tC1\t<E>\n", 1, id="repeated-component"),
    pytest.param("\ncategory\tadverb\n", "\ncategory\tadverb\ncategory\tx\n", 1, id="repeated-category"),
    pytest.param("\nsurface\t", "\nsurface\tx\t<E>\nsurface\t", 1, id="repeated-surface"),
    pytest.param("\nprovenance\tbase\t", "\nprovenance\tdeletion\t", 1, id="base-without-parent"),
    pytest.param("\nargument\tN0\t", "\nargument\tN0\t\t", 1, id="argument-arity"),
    pytest.param("\n", "", -1, id="one-line"),
    # The reader memoizes the lines that hold only names: an edited copy of
    # a line read before, or a copy in another place, is read as the
    # reference reads it.
    pytest.param("\nConstructions\n", "\nConstructions\t\n", "last", id="last-section-with-field"),
    pytest.param("\nfeature\tConjonction\t-\n", "\nfeature\tConjonction\t+\n", "last", id="later-feature-value"),
    pytest.param(
        "\nprovenance\tdeletion\t", "\nprovenance\tbase\t<E>\t<E>\t<E>\nprovenance\tdeletion\t", 1,
        id="base-provenance-in-variant",
    ),
    pytest.param(
        "\nsurface\tà cette heure-\t", "\nprovenance\tbase\t<E>\t<E>\t<E>\nsurface\tà cette heure-\t", 1,
        id="base-provenance-last-in-variant",
    ),
    pytest.param("\ntable\tPCDN\n", "\ntable\tPCDN\tx\n", "last", id="later-table-with-field"),
])
def test_text_import_matches_the_reference_on_edited_text(old, new, count):
    assert old in _FIXTURE_TEXT
    if count == "last":
        before, _, after = _FIXTURE_TEXT.rpartition(old)
        text = before + new + after
    else:
        text = _FIXTURE_TEXT.replace(old, new, count)
    _assert_text_reads_as_the_reference(text)


def test_text_import_reads_the_last_of_repeated_lines():
    text = _FIXTURE_TEXT.replace("\tN0 V Adv W\t+\n", "\tN0 V Adv W\t+\nfeature\tN0 V Adv W\t-\n", 1)
    text = text.replace("\ncomponent\tAdv\t", "\ncomponent\tAdv\tx\ncomponent\tAdv\t", 1)
    text = text.replace("\naux\tAdj\t", "\naux\tAdj\tx\naux\tAdj\t", 1)
    entry = import_text(text).entries[0]
    assert entry.binary_features["N0 V Adv W"] is False
    assert entry.components["Adv"] == "linguistiquement"
    assert entry.aux["Adj"] == "linguistique"


# An entry holds one of each of these lines; a second one is refused, and
# the message names the entry once its line has been read.
@pytest.mark.parametrize("old, new, message", [
    pytest.param("\nentry\tADVMP#1\n", "\nentry\tADVMP#1" * 2 + "\n", "entry 'ADVMP#1': repeated 'entry' line",
                 id="entry"),
    pytest.param("\nentry\tADVMP#1\n", "\ntable\tADVMP" * 2 + "\nentry\tADVMP#1\n", "repeated 'table' line",
                 id="table"),
    pytest.param("\nprovenance\tbase\t<E>\t<E>\t<E>\n", "\nprovenance\tbase\t<E>\t<E>\t<E>" * 2 + "\n",
                 "entry 'ADVMP#1': repeated 'provenance' line", id="base-provenance"),
    pytest.param("\nprovenance\tdeletion\t", "\nprovenance\tdeletion\tX#1\tf\t<E>\nprovenance\tdeletion\t",
                 "entry 'PCA#8#del#1': repeated 'provenance' line", id="variant-provenance"),
    pytest.param("\nsurface\t", "\nsurface\tx\tx\nsurface\t", "entry 'ADVMP#1': repeated 'surface' line",
                 id="surface"),
    pytest.param("\ncategory\tadverb\n", "\ncategory\tadverb\ncategory\tx\n",
                 "entry 'ADVMP#1': repeated 'category' line", id="category"),
])
def test_text_import_refuses_a_repeated_single_valued_line(old, new, message):
    assert old in _FIXTURE_TEXT
    text = _FIXTURE_TEXT.replace(old, new, 1)
    with pytest.raises(SchemaViolation) as err:
        import_text(text)
    assert str(err.value) == message
    # the reference reader reads the last of them
    text_reference.import_text(text)


def test_xml_import_rejects_unencodable_text():
    with pytest.raises(SchemaViolation):
        import_xml(_FIXTURE_XML.decode("utf-8").replace("<tables>", "<tables>\udc80", 1))


# The reader's handlers refer to the parser and to one another; a read that
# fails midway must leave no cycle among them for the collector to find.
@pytest.mark.parametrize("old, new, message", [
    (' value="+"', ' value="x"', "feature value 'x' is not '+' or '-'"),
    ("<token>", "<token><", "not well-formed XML: not well-formed (invalid token)"),
], ids=["bad-feature-value", "malformed"])
def test_a_failed_xml_read_leaves_no_reference_cycle(large_doc, old, new, message):
    text = export_lexicon(large_doc, "xml")
    start = -1
    for _ in range(500):
        start = text.index("\n    <entry ", start + 1)
    at = text.index(old, start, text.index("</entry>", start))
    bad = text[:at] + new + text[at + len(old):]
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        try:
            import_xml(bad)
        except SchemaViolation as err:
            assert message in str(err)
        else:
            pytest.fail("the document was read")
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


# =============================================================================
# chunked reading and shared names
# =============================================================================

_CHUNK_SIZES = (1, 2, 17, 4096)


def _pieces(text: str, size: int) -> Iterator[str]:
    """*text* in pieces of *size* characters, each cut when it is asked for."""
    return (text[start:start + size] for start in range(0, len(text), size))


def _chunk_edge_texts(fmt: str = "text") -> list[str]:
    header_only = LexiconDocument([], TABLE_IDS, "* : \"f\" => construction")
    texts = [export_lexicon(doc, fmt) for doc in (compile_corpus(), _extended_corpus()[0], header_only)]
    return [*texts, *(text[:-1] for text in texts), ""]


def _sidecar_edge_texts() -> list[str]:
    text = written(export_records, _extended_corpus()[1].records)
    return [text, text[:-1], "\n" + text.replace("\n", "\n\n"), text.replace("\tkept\t", "\tkeep\t", 1), ""]


@pytest.mark.parametrize("chunk", _CHUNK_SIZES)
def test_text_import_reads_across_chunk_boundaries(chunk):
    for text in _chunk_edge_texts():
        assert _read_outcome(import_text, _pieces(text, chunk)) == _read_outcome(text_reference.import_text, text)


@given(_READABLE_DOCUMENTS)
def test_text_import_matches_the_reference_at_any_chunk_size(doc):
    text = export_lexicon(doc)
    expected = _read_outcome(text_reference.import_text, text)
    for chunk in _CHUNK_SIZES:
        assert _read_outcome(import_text, _pieces(text, chunk)) == expected


# A whole text is one piece: each reader reads it as it reads the same
# text in pieces.
@pytest.mark.parametrize("chunk", _CHUNK_SIZES)
@pytest.mark.parametrize("reader, texts", [
    pytest.param(import_text, _chunk_edge_texts, id="text"),
    pytest.param(import_xml, lambda: _chunk_edge_texts("xml"), id="xml"),
    pytest.param(
        import_lexicon,
        lambda: [prefix + text for fmt in ("text", "xml") for text in _chunk_edge_texts(fmt) for prefix in ("", " \n\t")],
        id="lexicon",
    ),
    pytest.param(parse_records, _sidecar_edge_texts, id="records"),
])
def test_readers_read_pieces_as_the_whole_text(reader, texts, chunk):
    for text in texts():
        assert _read_outcome(reader, _pieces(text, chunk)) == _read_outcome(reader, text)


# import_lexicon reads a document as XML where ``lstrip()`` leaves it
# starting with ``<``, as ``re.match(r"\s*<", ...)`` does for a whitespace
# prefix of any code point.  A code point that neither str.isspace nor the
# ``\s`` of re takes is kept by both, so only those that either takes, and
# ``<`` and another, need a check.
def test_import_lexicon_sniffs_xml_as_the_whitespace_pattern(monkeypatch):
    monkeypatch.setattr(formats, "import_xml", lambda source: True)
    monkeypatch.setattr(formats, "import_text", lambda source: False)
    code_points = "".join(map(chr, range(0x110000)))
    spaces = {char for char in code_points if char.isspace()} | set(re.findall(r"\s", code_points))
    assert len(spaces) > 20
    for char in sorted(spaces | {"<", "x"}):
        for text in (char + "<", char * 3 + "<lexicon", char + "#lgx"):
            expected = re.match(r"\s*<", text) is not None
            assert import_lexicon(text) == expected, hex(ord(char))
            assert import_lexicon(iter(text)) == expected, hex(ord(char))


def _names(entry: LexEntry) -> list[str]:
    """The names an entry holds, which readers share across entries."""
    p = entry.provenance
    return [
        entry.table_id, entry.category, *entry.binary_features, *entry.components, *entry.aux,
        *entry.construction_ids, *entry.internal_structures,
        *(label for label, _ in entry.other_structures), *(a.slot for a in entry.arguments),
        *(name for name in (p.feature_id, p.template) if name is not None),
    ]


def _words(entry: LexEntry) -> list[str]:
    """The token and cell texts an entry holds, which readers share across
    the entries of an input piece."""
    return [
        *(token for surface in _surfaces(entry) for token in surface.tokens),
        *entry.components.values(), *entry.aux.values(),
    ]


# A whole text is one input piece in either format, so the fixture
# lexicon's equal words, like its equal names, are each one string.
@pytest.mark.parametrize("fmt, reader", [
    pytest.param("text", import_text, id="text"),
    pytest.param("xml", import_xml, id="xml"),
])
def test_readers_share_equal_names(fmt, reader):
    doc = reader(export_lexicon(_extended_corpus()[0], fmt))
    for held, least in ((_names, 10 * len(doc.entries)), (_words, len(doc.entries))):
        first: dict[str, str] = {}
        repeats = 0
        for entry in doc.entries:
            for name in held(entry):
                repeats += name in first
                assert first.setdefault(name, name) is name, (entry.entry_id, name)
        assert repeats > least


def _surfaces(entry: LexEntry) -> list[SurfaceForm]:
    return [
        entry.surface, *entry.paraphrases, *(surface for _, surface in entry.other_structures), *entry.intensified,
    ]


_LOADS = [
    pytest.param("text", import_text, text_reference.import_text, id="text"),
    pytest.param("xml", import_xml, xml_reference.import_xml, id="xml"),
]


@pytest.mark.parametrize("fmt, reader, reference", _LOADS)
def test_loaded_variants_share_their_parents_objects(fmt, reader, reference):
    source = export_lexicon(_extended_corpus()[0], fmt)
    doc = reader(source)
    assert doc == reference(source)
    by_id = {entry.entry_id: entry for entry in doc.entries}
    shared = 0
    for entry in doc.entries:
        parent = by_id.get(entry.provenance.parent)
        if parent is None:
            continue
        shared += 1
        assert any(entry.surface is surface for surface in _surfaces(parent)[1:]), entry.entry_id
        assert entry.binary_features is parent.binary_features
        assert entry.arguments is parent.arguments
        for slot, text in entry.components.items():
            assert text is parent.components.get(slot, ""), (entry.entry_id, slot)
    assert shared > len(doc.entries) / 3


# The text reader matches a variant's surface line against its parent's
# surfaces when the provenance line came first; otherwise ``_entry`` finds
# the equal surface.
@pytest.mark.parametrize("edit", [
    pytest.param(lambda block: re.sub(r"(provenance\t[^\n]*\n)(surface\t[^\n]*\n)", r"\2\1", block), id="surface-first"),
    pytest.param(lambda block: re.sub(r"(surface\t[^\n]*\t)([^\n]*)\n", r"\1 \2 \n", block), id="spaced-tokens"),
])
def test_a_variant_surface_the_line_match_misses_is_its_parents(edit):
    extended = _extended_corpus()[0]
    text = export_lexicon(extended)
    blocks = text.split("\n\n")
    variants = [i for i, block in enumerate(blocks) if "\nprovenance\tbase\t" not in block and "\nprovenance\t" in block]
    blocks = [edit(block) if i in variants else block for i, block in enumerate(blocks)]
    doc = import_text("\n\n".join(blocks))
    assert doc == extended
    by_id = {entry.entry_id: entry for entry in doc.entries}
    for entry in doc.entries:
        parent = by_id.get(entry.provenance.parent)
        if parent is not None:
            assert any(entry.surface is surface for surface in _surfaces(parent)[1:]), entry.entry_id


@st.composite
def _families(draw, documents):
    """*documents* whose entries are, as drawn, base entries or variants of
    an earlier base entry that take, where drawn, one of the surfaces of
    its lexical information, its features in some order, its arguments
    and some of its component texts.  A variant is of its parent's table,
    and its ordinal the first that makes its id no other id or cross-ref."""
    doc = draw(documents)
    bases, entries = [], []
    for row, entry in enumerate(doc.entries, 1):
        if not bases or draw(st.booleans()):
            entry = entry.replace(entry_id=entry_id(entry.table_id, row), provenance=Provenance(Origin.BASE))
            bases.append(entry)
            entries.append(entry)
            continue
        parent = draw(st.sampled_from(bases))
        kind = draw(st.sampled_from(list(PASS_TAGS)))
        owns = _surfaces(parent)[1:]
        if owns and draw(st.booleans()):
            entry = entry.replace(surface=draw(st.sampled_from(owns)))
        if draw(st.booleans()):
            entry = entry.replace(binary_features=dict(draw(st.permutations(list(parent.binary_features.items())))))
        if draw(st.booleans()):
            entry = entry.replace(arguments=parent.arguments)
        if draw(st.booleans()):
            entry = entry.replace(components={
                slot: text for slot, text in parent.components.items() if draw(st.booleans())
            })
        ordinal, taken = 1, {*parent.cross_refs, *(other.entry_id for other in entries)}
        while variant_id(parent.entry_id, kind, ordinal) in taken:
            ordinal += 1
        p = entry.provenance
        entries.append(entry.replace(
            entry_id=variant_id(parent.entry_id, kind, ordinal), table_id=parent.table_id,
            provenance=Provenance(kind, parent.entry_id, p.feature_id, p.template),
        ))
    return doc.replace(entries=entries)


@given(st.one_of(
    _families(_READABLE_DOCUMENTS).map(lambda doc: ("text", doc)),
    _families(_documents(_XML_SAFE_TEXT)).map(lambda doc: ("xml", doc)),
))
def test_a_document_with_shared_reads_writes_what_was_read(case):
    fmt, doc = case
    text = export_lexicon(doc, fmt)
    again = import_lexicon(text)
    assert again == doc
    assert export_lexicon(again, fmt) == text


@pytest.mark.parametrize("fmt", ["text", "xml"])
def test_loaded_entries_hold_each_word_once(fmt):
    repeats = 0
    for entry in import_lexicon(export_lexicon(_extended_corpus()[0], fmt)).entries:
        words: dict[str, str] = {}
        for text in _words(entry):
            repeats += text in words
            assert words.setdefault(text, text) is text, (entry.entry_id, text)
    assert repeats > 100


@pytest.mark.parametrize("fmt", ["text", "xml"])
def test_loaded_entries_without_cells_hold_the_shared_empty_mapping(fmt):
    doc = import_lexicon(export_lexicon(_extended_corpus()[0], fmt))
    empty = [cells for entry in doc.entries for cells in (entry.components, entry.aux) if not cells]
    assert len(empty) > len(doc.entries) / 2
    assert all(cells is EMPTY_CELLS for cells in empty)


@pytest.mark.parametrize("fmt", ["text", "xml"])
def test_loaded_variants_hold_their_parents_id(fmt):
    doc = import_lexicon(export_lexicon(_extended_corpus()[0], fmt))
    by_id = {entry.entry_id: entry for entry in doc.entries}
    shared = 0
    for entry in doc.entries:
        parent = by_id.get(entry.provenance.parent)
        if parent is not None:
            shared += 1
            assert entry.provenance.parent is parent.entry_id, entry.entry_id
    assert shared > len(doc.entries) / 3


@pytest.mark.parametrize("fmt", ["text", "xml"])
def test_loaded_base_entries_share_one_provenance(fmt):
    extended = _extended_corpus()[0]
    doc = import_lexicon(export_lexicon(extended, fmt))
    assert doc == import_text(export_lexicon(extended))
    bases = [entry.provenance for entry in doc.entries if entry.provenance.kind is Origin.BASE]
    assert len(bases) > 10
    assert all(provenance is bases[0] for provenance in bases)


# A base lexicon's entries of one table have equal internal structures, so
# there they share one tuple.
@pytest.mark.parametrize("extend", [False, True], ids=["base", "extended"])
@pytest.mark.parametrize("fmt", ["text", "xml"])
def test_loaded_entries_share_equal_arguments_and_internal_structures(fmt, extend):
    doc = compile_corpus()
    # equal arguments everywhere, and a tuple of its own for each entry
    arguments = [ArgumentSpec("N0", Selection.HUMAN), ArgumentSpec("N1", Selection.ANY)]
    entries = [
        entry.replace(arguments=tuple(arguments), internal_structures=tuple(list(entry.internal_structures)))
        for entry in doc.entries
    ]
    if extend:
        entries = run_pipeline(entries, load_fixture_script(), rules=load_fixture_morpho()).entries
    loaded = import_lexicon(export_lexicon(LexiconDocument(entries, doc.table_ids, doc.script_source), fmt))
    assert loaded.entries == entries
    for field in ("arguments", "internal_structures"):
        first: dict[tuple, tuple] = {}
        for entry in loaded.entries:
            value = getattr(entry, field)
            assert first.setdefault(value, value) is value, (entry.entry_id, field)
        assert len(first) < len(loaded.entries) / 2


def _retained_bytes(read, source) -> int:
    """What the document ``read(source)`` returns holds, after a first read
    has made what the first call of a reader makes once."""
    read(source)
    gc.collect()
    tracemalloc.start()
    try:
        doc = read(source)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert doc.entries
    return retained


# Without the sharing both readers retain about 0.7 of what the reference
# readers do, which share names only.
@pytest.mark.parametrize("fmt, reader, reference", _LOADS)
def test_a_loaded_document_holds_less_than_the_reference_readers(fmt, reader, reference):
    source = export_lexicon(_extended_corpus()[0], fmt)
    assert _retained_bytes(reader, source) <= 0.6 * _retained_bytes(reference, source)


def _corpus_doc(directory, rows: int) -> LexiconDocument:
    directory.mkdir()
    files = corpusgen.generate(7, (rows, rows))
    for name, content in files.items():
        (directory / name).write_text(content, encoding="utf-8")
    table_ids = tuple(sorted(name[:-4] for name in files if name.endswith(".lgt")))
    return compile_corpus(directory, table_ids)


def _corpus_text(directory, rows: int) -> str:
    return export_lexicon(_corpus_doc(directory, rows))


def _transient_bytes(source, read=import_text) -> int:
    """What ``read(source)`` allocates at its peak beyond the document it keeps."""
    gc.collect()
    tracemalloc.start()
    try:
        doc = read(source)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert doc.entries
    return peak - retained


# The memory tests below read pieces of this many characters.
_PIECE = 1 << 16


def test_text_import_transient_memory_does_not_grow_with_the_document(tmp_path):
    small = _corpus_text(tmp_path / "small", 75)
    large = _corpus_text(tmp_path / "large", 800)
    assert len(small) < _PIECE < len(large) // 8
    assert _transient_bytes(_pieces(large, _PIECE)) < 2 * _transient_bytes(_pieces(small, _PIECE))


def _own_texts(doc: LexiconDocument) -> LexiconDocument:
    """*doc* with long texts no other entry holds on every entry: its
    surface, component and aux texts, a cross-ref and, on every second one,
    the provenance of a variant, whose parent is the base id its id spells."""
    entries = []
    for i, entry in enumerate(doc.entries, 1):
        own = f"{i:0100}"
        entry = entry.replace(
            surface=SurfaceForm((*entry.surface.tokens, own), f"{entry.surface.rendered} {own}"),
            components={slot: text + own for slot, text in entry.components.items()},
            aux={column: text + own for column, text in entry.aux.items()},
            cross_refs=(f"{own}#1",),
        )
        if i % 2 == 0:
            parent = entry_id(entry.table_id, i)
            entry = entry.replace(
                entry_id=variant_id(parent, Origin.DELETION, 1),
                provenance=Provenance(Origin.DELETION, parent, "f", own),
            )
        entries.append(entry)
    return doc.replace(entries=entries)


# The reader memoizes the lines that hold only names, which real tables
# repeat from row to row.  A memo of the lines that differ from entry to
# entry would grow with the document.
def test_text_import_memoizes_no_line_an_entry_holds_alone(tmp_path):
    doc = _corpus_doc(tmp_path / "corpus", 800)
    shared = _transient_bytes(_pieces(export_lexicon(doc), _PIECE))
    own = _transient_bytes(_pieces(export_lexicon(_own_texts(doc)), _PIECE))
    assert own < shared + _PIECE // 4


# The two tests above compare reads with each other, so a reader that held
# two pieces' lines at once would pass both.  This one bounds the transient
# memory in pieces: with 64 Ki-character pieces, the reader takes 3.9 to 4.6
# pieces on CPython 3.10 to 3.13, and one that kept the last piece's lines
# while it split the next took 6.0 to 6.9.
def test_text_import_transient_memory_is_a_few_pieces(tmp_path):
    text = _corpus_text(tmp_path / "corpus", 800)
    assert len(text) > 8 * _PIECE
    assert _transient_bytes(_pieces(text, _PIECE)) < 5.25 * _PIECE


# Each entry holds words of its own here, so a table of words that spanned
# the read would grow with the document.
def test_xml_import_transient_memory_does_not_grow_with_the_document(tmp_path, monkeypatch):
    monkeypatch.setattr(files, "_CHUNK_BYTES", 1 << 16)
    small, large = tmp_path / "small.lgx.xml", tmp_path / "large.lgx.xml"
    small.write_text(export_lexicon(_own_texts(_corpus_doc(tmp_path / "small", 10)), "xml"), encoding="utf-8")
    large.write_text(export_lexicon(_own_texts(_corpus_doc(tmp_path / "large", 800)), "xml"), encoding="utf-8")
    assert small.stat().st_size < files._CHUNK_BYTES < large.stat().st_size // 8
    assert _transient_bytes(large, load_lexicon) < 2 * _transient_bytes(small, load_lexicon)


# =============================================================================
# reading from the file
# =============================================================================

_FIXTURE_FILES = {
    "base.lgx": export_lexicon(compile_corpus()),
    "full.lgx": _FIXTURE_TEXT,
    "full-crlf.lgx": _FIXTURE_TEXT.replace("\n", "\r\n"),
    "base.lgx.xml": _FIXTURE_XML.decode("utf-8"),
    "full.lgx.xml": export_lexicon(_extended_corpus()[0], "xml"),
}


@pytest.mark.parametrize("chunk", (1, 5, 4096))
@pytest.mark.parametrize("name", sorted(_FIXTURE_FILES))
def test_load_lexicon_reads_what_the_whole_text_reads(tmp_path, monkeypatch, name, chunk):
    path = tmp_path / name
    path.write_text(_FIXTURE_FILES[name], encoding="utf-8")
    monkeypatch.setattr(files, "_CHUNK_BYTES", chunk)
    assert load_lexicon(path) == import_lexicon(read_text(path))


@pytest.mark.parametrize("chunk", (1, 2, 3, 4096))
@pytest.mark.parametrize("data", [
    pytest.param(b"a\r\nb\rc\n\r\n\r", id="newlines"),
    pytest.param("é€𝄞\r\n".encode("utf-8") * 3, id="multibyte"),
    pytest.param(b"\r" * 5 + b"\n" * 3, id="runs"),
    pytest.param(b"", id="empty"),
])
def test_read_chunks_reads_what_a_text_mode_read_reads(tmp_path, monkeypatch, data, chunk):
    path = tmp_path / "input"
    path.write_bytes(data)
    monkeypatch.setattr(files, "_CHUNK_BYTES", chunk)
    pieces = list(read_chunks(path))
    assert "" not in pieces
    assert "".join(pieces) == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("chunk", (1, 3, 4))
@pytest.mark.parametrize("data", [
    pytest.param(b"abcdefgh\xffij", id="invalid-byte"),
    pytest.param(b"abcdefg\xe2\x82z", id="cut-sequence"),
    pytest.param(b"abcdefghi\xf0\x9d", id="truncated-end"),
    pytest.param("é€".encode("utf-8") + b"\xed\xa0\x80", id="surrogate"),
])
def test_a_byte_that_is_not_utf8_is_named_at_the_position_a_whole_decode_names(tmp_path, monkeypatch, data, chunk):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    monkeypatch.setattr(files, "_CHUNK_BYTES", chunk)
    with pytest.raises(SchemaViolation) as err:
        load_lexicon(path)
    assert str(err.value) == f"{path}: not UTF-8 text: {whole.value}"


@pytest.mark.parametrize("read, text", [
    pytest.param(load_lexicon, _FIXTURE_TEXT.replace("#lgx", "#lgy", 1), id="text"),
    pytest.param(load_lexicon, _FIXTURE_XML.decode("utf-8").replace("<lexicon ", "<lexikon ", 1), id="xml"),
    pytest.param(lambda path: parse_file(path, parse_records), "entry\tsurface\n" * 100, id="records"),
])
def test_a_byte_that_is_not_utf8_is_reported_before_an_earlier_fault(tmp_path, monkeypatch, read, text):
    path = tmp_path / "input"
    path.write_bytes(text.encode("utf-8") + b"\xff")
    monkeypatch.setattr(files, "_CHUNK_BYTES", 64)
    with pytest.raises(SchemaViolation, match="not UTF-8 text: .* in position"):
        read(path)


_XML_BODY = _FIXTURE_XML.decode("utf-8").split("\n", 1)[1]


def _of_file(outcome, path):
    """The outcome of reading the file at *path*, given *outcome*, that of
    reading its text: a refusal names the file."""
    if isinstance(outcome, tuple):
        kind, message = outcome
        return kind, f"{path}: {message}"
    return outcome


@pytest.mark.parametrize("text", [
    pytest.param(" \n\t" * 6 + _FIXTURE_XML.decode("utf-8"), id="declaration-after-whitespace"),
    pytest.param(" \n\t" * 6 + _XML_BODY, id="xml-after-whitespace"),
    pytest.param("\r\n" * 6 + _FIXTURE_TEXT, id="text-after-whitespace"),
    pytest.param("", id="empty"),
    pytest.param(" \n\t\r\n " * 6, id="whitespace-only"),
])
def test_load_lexicon_sniffs_past_chunks_of_whitespace(tmp_path, monkeypatch, text):
    path = tmp_path / "lexicon"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(files, "_CHUNK_BYTES", 4)
    assert _read_outcome(load_lexicon, path) == _of_file(_read_outcome(import_lexicon, read_text(path)), path)


def test_load_lexicon_reports_what_import_xml_reports_on_mutated_xml(tmp_path, monkeypatch):
    monkeypatch.setattr(files, "_CHUNK_BYTES", 64)
    path = tmp_path / "base.lgx.xml"
    messages = []
    for seed in range(40):
        text = mutate(_FIXTURE_XML.decode("utf-8"), random.Random(seed), _MUTATION_BYTES.decode("ascii"))
        path.write_text(text, encoding="utf-8")
        outcome = _read_outcome(load_lexicon, path)
        assert outcome == _of_file(_read_outcome(import_lexicon, text), path)
        messages.append(outcome[1] if isinstance(outcome, tuple) else "")
    assert sum(message.startswith(f"{path}: not well-formed XML: ") for message in messages) >= 10


def test_parse_records_shares_repeated_names():
    rows = parse_records(written(export_records, _extended_corpus()[1].records))
    first: dict[str, str] = {}
    repeats = 0
    for row in rows:
        for name in (row.parent_id, row.feature_id, row.template, row.status, row.duplicate_of):
            repeats += name in first
            assert first.setdefault(name, name) is name, name
    assert repeats > len(rows)


@pytest.fixture(scope="module")
def large_doc(tmp_path_factory) -> LexiconDocument:
    return _corpus_doc(tmp_path_factory.mktemp("large") / "corpus", 800)


@pytest.mark.parametrize("name, reader", [
    pytest.param("large.lgx", import_text, id="large.lgx"),
    pytest.param("large.lgx.xml", import_xml, id="large.lgx.xml"),
])
def test_loading_from_disk_holds_a_few_chunks_beyond_the_document(tmp_path, monkeypatch, large_doc, name, reader):
    monkeypatch.setattr(files, "_CHUNK_BYTES", 1 << 16)
    path = tmp_path / name
    save_lexicon(large_doc, path)
    assert path.stat().st_size > 10 * files._CHUNK_BYTES
    assert load_lexicon(path) == large_doc
    transient = _transient_bytes(path, load_lexicon)
    # A chunk's lines take about three times its bytes, and expat's buffer
    # up to twice a chunk.
    assert transient < 8 * files._CHUNK_BYTES
    # Sniffing the format holds no piece it read ahead through the parse.
    assert transient <= _transient_bytes(path, lambda path: parse_file(path, reader)) + files._CHUNK_BYTES // 4


# =============================================================================
# front door and file helpers
# =============================================================================

def test_sniffing_dispatches_by_leading_character(corpus_doc):
    assert _docs_equal(import_lexicon(export_lexicon(corpus_doc)), corpus_doc)
    assert _docs_equal(import_lexicon(export_lexicon(corpus_doc, "xml")), corpus_doc)


def test_export_unknown_format_rejected(tmp_path, corpus_doc):
    with pytest.raises(ValueError):
        export_lexicon(corpus_doc, format="yaml")
    with pytest.raises(ValueError):
        save_lexicon(corpus_doc, tmp_path / "out.lgx", format="yaml")
    assert list(tmp_path.iterdir()) == []


def test_save_load_infers_format_from_suffix(tmp_path, corpus_doc):
    text_path = tmp_path / "base.lgx"
    xml_path = tmp_path / "base.lgx.xml"
    save_lexicon(corpus_doc, text_path)
    save_lexicon(corpus_doc, xml_path)
    assert text_path.read_text(encoding="utf-8").startswith("#lgx")
    assert xml_path.read_text(encoding="utf-8").startswith("<?xml")
    assert _docs_equal(load_lexicon(text_path), corpus_doc)
    assert _docs_equal(load_lexicon(xml_path), corpus_doc)


@pytest.mark.parametrize("fmt, name, export", [
    ("text", "full.lgx", export_text), ("xml", "full.lgx.xml", export_xml),
])
def test_save_lexicon_writes_the_export_bytes(tmp_path, fmt, name, export):
    doc = _extended_corpus()[0]
    text = export_lexicon(doc, fmt)
    buffer = io.StringIO()
    assert export(doc, buffer) is None
    assert buffer.getvalue() == text
    save_lexicon(doc, tmp_path / name)
    assert (tmp_path / name).read_bytes() == text.encode("utf-8")
    assert [path.name for path in tmp_path.iterdir()] == [name]


def _write_with_writing(doc, path):
    with writing(path) as out:
        export_text(doc, out)


_WRITERS = [pytest.param(save_lexicon, id="save_lexicon"), pytest.param(_write_with_writing, id="writing")]


@pytest.mark.parametrize("write", _WRITERS)
def test_save_lexicon_keeps_the_mode_of_a_replaced_file(tmp_path, corpus_doc, write):
    target = tmp_path / "out.lgx"
    target.write_bytes(b"old lexicon\n")
    target.chmod(0o600)
    write(corpus_doc, target)
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert target.read_text(encoding="utf-8") == export_lexicon(corpus_doc)


@pytest.mark.parametrize("write", _WRITERS)
@pytest.mark.parametrize("link", [os.symlink, os.link], ids=["symlink", "hard-link"])
def test_save_lexicon_writes_through_a_link(tmp_path, corpus_doc, link, write):
    real = tmp_path / "real.lgx"
    real.write_bytes(b"old lexicon\n")
    alias = tmp_path / "alias.lgx"
    link(real, alias)
    write(corpus_doc, alias)
    assert alias.is_symlink() == (link is os.symlink)
    assert real.read_text(encoding="utf-8") == export_lexicon(corpus_doc)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["alias.lgx", "real.lgx"]


def test_writing_deletes_its_temporary_file_on_an_error(tmp_path):
    target = tmp_path / "records.tsv"
    target.write_bytes(b"old sidecar\n")
    with pytest.raises(OSError, match="disk full"):
        with writing(target) as out:
            out.write("entry\n")
            raise OSError("disk full")
    assert target.read_bytes() == b"old sidecar\n"
    assert [path.name for path in tmp_path.iterdir()] == ["records.tsv"]


# =============================================================================
# expansion record sidecar
# =============================================================================

@pytest.mark.parametrize("corpus", ["fixture", "corpusgen"])
def test_records_round_trip(tmp_path, corpus):
    if corpus == "fixture":
        rows = _extended_corpus()[1].records
    else:
        doc = _corpus_doc(tmp_path / "corpus", 20)
        script = parse_script(doc.script_source, source="<embedded script>")
        rows = run_pipeline(doc.entries, script, rules=load_fixture_morpho()).records
    assert any(row.status == "duplicate" for row in rows)
    assert parse_records(written(export_records, rows)) == rows


# Record fields: letters, the sentinel ``<E>``'s characters and whitespace
# other than the sidecar's separators; in one example in four, also one
# separator, or the sentinel itself, which the sidecar cannot carry.
_RECORD_SAFE = "<>E#a é\x0b"
_RECORD_SAFE_TEXT = st.text(st.sampled_from(_RECORD_SAFE), max_size=5).filter(lambda text: text != EMPTY_TOKEN)
_RECORD_EXTRAS = ("",) * 12 + ("\t", "\n", "\r", EMPTY_TOKEN)


def _record_rows(extra: str):
    """Up to four rows, whose texts are drawn with the *extra* character or
    sentinel.  The reader checks only each row's pass and status."""
    if extra == EMPTY_TOKEN:
        text = _RECORD_SAFE_TEXT | st.just(EMPTY_TOKEN)
    else:
        text = st.text(st.sampled_from(_RECORD_SAFE + extra), max_size=5)
    statuses = st.sampled_from(RECORD_STATUSES)
    return st.lists(st.builds(RecordRow, text, text, st.sampled_from(Origin), text, text, text, statuses, text), max_size=4)


@given(st.sampled_from(_RECORD_EXTRAS).flatmap(_record_rows))
def test_records_round_trip_or_refuse(rows):
    # Through a file, as stats reads what extend writes: the reader takes a
    # carriage return for a newline.
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "records.tsv"
        try:
            with writing(path) as out:
                export_records(rows, out)
        except SchemaViolation as err:
            assert "which the sidecar cannot carry" in str(err)
            return
        assert parse_file(path, parse_records) == rows


@pytest.mark.parametrize("field", ["parent_id", "feature_id", "template", "surface", "duplicate_of"])
def test_records_refuse_a_field_reading_the_sentinel(field):
    row = _extended_corpus()[1].records[0].replace(**{field: EMPTY_TOKEN})
    message = f"record of entry {row.entry_id!r} holds a field reading '<E>', which the sidecar cannot carry"
    with pytest.raises(SchemaViolation, match=re.escape(message)):
        written(export_records, [row])


def test_writing_a_large_sidecar_holds_no_whole_text(tmp_path):
    records = _extended_corpus()[1].records * 2000
    path = tmp_path / "records.tsv"
    gc.collect()
    tracemalloc.start()
    try:
        with writing(path) as out:
            export_records(records, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == written(export_records, records)
    assert path.stat().st_size > 4 << 20
    # The stream's buffer and one line, not the file's text or its lines.
    assert peak < 64 << 10


def test_records_header_line():
    _, result = _extended_corpus()
    first = written(export_records, result.records).split("\n", 1)[0]
    assert first == "\t".join(RECORD_COLUMNS)


def test_records_reject_bad_header():
    with pytest.raises(SchemaViolation):
        parse_records("entry\tsurface\nA#1\tfoo\n")


def test_records_reject_short_line():
    _, result = _extended_corpus()
    text = written(export_records, result.records)
    lines = text.rstrip("\n").split("\n")
    lines[1] = lines[1].rsplit("\t", 1)[0]
    with pytest.raises(SchemaViolation):
        parse_records("\n".join(lines) + "\n")


def test_records_reject_unknown_pass():
    header = "\t".join(RECORD_COLUMNS)
    line = "A#1#del#1\tA#1\tteleportation\tf\tt\tsurface\tkept\t<E>"
    with pytest.raises(SchemaViolation):
        parse_records(f"{header}\n{line}\n")


def test_records_reject_unknown_status():
    header = "\t".join(RECORD_COLUMNS)
    line = "A#1#del#1\tA#1\tdeletion\tf\tt\tsurface\tdupe\tA#2"
    with pytest.raises(SchemaViolation, match="unknown record status 'dupe'"):
        parse_records(f"{header}\n{line}\n")
