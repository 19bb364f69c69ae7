from __future__ import annotations

import re
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import compile_corpus, fields, load_fixture_morpho, load_fixture_script
from lexgram import script as script_module
from lexgram.curation import dedup
from lexgram.errors import LexgramError
from lexgram.expansion import build_plan, expand_entry, run_pipeline
from lexgram.formats import LexiconDocument, export_lexicon, import_text, import_xml
from lexgram.lexicon import check_script_bindings, derive_arguments, generate_base, structure_template
from lexgram.model import (
    PASS_ORDER, PASS_TAGS, LexEntry, Origin, Provenance, Selection, SurfaceForm, check_entry_id, entry_id,
    split_entry_id, variant_id,
)
from lexgram.script import parse_script
from lexgram.tables import parse_table


def test_entry_id_formats():
    assert entry_id("PCA", 3) == "PCA#3"
    assert variant_id("PCA#3", Origin.PERMUTATION, 1) == "PCA#3#perm#1"


_ENTRY_ID_RE = re.compile(r"([^#]+)#([1-9][0-9]*)(?:#(para|parac|del|perm|trans|int)#([1-9][0-9]*))?")


def _regex_parse_entry_id(text: str):
    """The id grammar as first written, as a regular expression."""
    m = _ENTRY_ID_RE.fullmatch(text)
    if m is None:
        return None
    table_id, row, tag, ordinal = m.groups()
    return table_id, int(row), tag, None if ordinal is None else int(ordinal)


# Fields that are ids' parts, or nearly: empty, leading zeros, non-ASCII
# digits (Arabic-Indic, fullwidth, superscript), unknown or mis-cased tags,
# whitespace around a number.
_ID_FIELDS = st.sampled_from((
    "", "T", "PCA", "1", "12", "0", "07", "٣", "１", "²", "1²", " 1", "1\n",
    "para", "parac", "del", "perm", "trans", "int", "PARA", "shuffle",
)) | st.text(st.sampled_from("019٣A#"), max_size=3)


# The id rule against the regular expression: an id says the table and tag
# the regular expression reads and, for a variant, its prefix up to the row
# as its parent.  An entry's id is accepted exactly when the regular
# expression matches it with the entry's table and pass's tag and, for a
# variant, with the entry's parent as that prefix, and an accepted entry
# ranks by the row and ordinal the regular expression reads.  The entry's
# table and parent are the id's own unless drawn.
@example("PCA#3#perm#12", Origin.PERMUTATION, None, None)
@example("ADVMP#1#para#1", Origin.PARAPHRASE_DIRECT, None, "PC#2")
@example("ADVMP#1#para#1", Origin.PARAPHRASE_DIRECT, None, "ADVMP#2")
@example("ADVMP#1#para#1", Origin.PARAPHRASE_DIRECT, "PC", None)
@example("PCA#3", Origin.DELETION, None, None)
@example("T#٣", Origin.BASE, None, None)
@example("T#１", Origin.BASE, None, None)
@example("T#1#del#²", Origin.DELETION, None, None)
@example("T#07", Origin.BASE, None, None)
@example("#1", Origin.BASE, None, None)
@example("T#1#PARA#1", Origin.PARAPHRASE_DIRECT, None, None)
@example("PCA#3#shuffle#1", Origin.DELETION, None, None)
@example("PCA#3 ", Origin.BASE, None, None)
@example("A#B#1", Origin.BASE, None, None)
@given(
    st.lists(_ID_FIELDS, min_size=1, max_size=5).map("#".join),
    st.sampled_from(Origin),
    st.none() | _ID_FIELDS,
    st.none() | st.lists(_ID_FIELDS, min_size=1, max_size=3).map("#".join),
)
def test_the_id_rule_is_the_regex_form(text, kind, table_id, parent):
    fields = text.split("#")
    table_id = fields[0] if table_id is None else table_id
    if kind is Origin.BASE:
        parent = None
    elif parent is None:
        parent = "#".join(fields[:2])
    m = _ENTRY_ID_RE.fullmatch(text)
    try:
        said = split_entry_id(text)
    except ValueError:
        assert m is None
    else:
        assert said == (m[1], m[3], m[3] and text[:m.end(2)])
    entry = LexEntry(text, table_id, "adverb", SurfaceForm((), ""), {}, {}, provenance=Provenance(kind, parent))
    try:
        check_entry_id(entry)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == (
        m is not None and m[1] == table_id and m[3] == PASS_TAGS.get(kind)
        and (kind is Origin.BASE or text[:m.end(2)] == parent)
    )
    if accepted:
        _, _, row, _, ordinal = entry.sort_rank()
        _, regex_row, _, regex_ordinal = _regex_parse_entry_id(text)
        assert (row, ordinal) == (regex_row, regex_ordinal or 0)


def test_provenance_guards_parent_consistency():
    with pytest.raises(ValueError):
        Provenance(Origin.BASE, parent="PCA#1")
    with pytest.raises(ValueError):
        Provenance(Origin.DELETION)


def test_pass_order_is_fixed():
    assert [o.value for o in PASS_ORDER] == [
        "paraphrase-direct",
        "paraphrase-construction",
        "deletion",
        "permutation",
        "transformation",
        "intensification",
    ]


def test_derive_arguments_selection_matrix():
    specs = derive_arguments({
        "N0 =: Nhum": True, "N0 =: N-hum": True,
        "N2 =: Nhum": True, "N2 =: N-hum": False,
        "Poss2 =: Nhum": False, "Poss2 =: N-hum": True,
        "N1 =: Nhum": False, "N1 =: N-hum": False,
    })
    by_slot = {s.slot: s.selection for s in specs}
    assert by_slot == {
        "N0": Selection.ANY,
        "N1": Selection.UNSPECIFIED,
        "N2": Selection.HUMAN,
        "Poss2": Selection.NON_HUMAN,
    }
    # slots are reported in canonical order, not feature order
    assert [s.slot for s in specs] == ["N0", "N1", "N2", "Poss2"]


def test_derive_arguments_ignores_other_features():
    assert derive_arguments({"Conjonction": True}) == ()


TABLE = (
    "<ENT>Prép1\t<ENT>Det1\t<ENT>C1\tPpv\tfeat p\tfeat q\n"
    "à\tle\tcas\til arrive\t+\t-\n"
    "de\t<E>\tnuit\t<E>\t-\t+\n"
)

SCRIPT = (
    'T : "feat p" => construction "@<ENT>Prép1@ @<ENT>C1@"\n'
    'T : "feat q" => paraphrase "en @Ppv@"\n'
)


def _base_entries():
    table = parse_table(TABLE, "T")
    script = parse_script(SCRIPT)
    return generate_base(table, script)


def test_generate_base_one_entry_per_row():
    entries = _base_entries()
    assert [e.entry_id for e in entries] == ["T#1", "T#2"]
    assert all(e.is_base and e.table_id == "T" and e.category == "adverb" for e in entries)


def test_generate_base_realizes_the_structure():
    first, second = _base_entries()
    assert first.surface.rendered == "au cas"
    assert first.surface.tokens == ("à", "le", "cas")
    assert second.surface.rendered == "de nuit"


def test_generate_base_splits_columns():
    first, _ = _base_entries()
    assert first.components == {"Prép1": "à", "Det1": "le", "C1": "cas"}
    assert first.aux == {"Ppv": "il arrive"}
    assert first.binary_features == {"feat p": True, "feat q": False}


def test_generate_base_collects_plus_valued_constructions():
    first, second = _base_entries()
    assert first.construction_ids == ("feat p",)
    assert second.construction_ids == ()


def test_generate_base_refuses_a_table_id_holding_a_hash():
    with pytest.raises(LexgramError, match="table id 'A#B' contains '#', which entry ids reserve"):
        generate_base(parse_table(TABLE, "A#B"), parse_script(SCRIPT))


def test_base_entries_of_a_table_share_one_string_per_key():
    entries = [e for e in compile_corpus().entries if e.table_id == "PCA"]
    assert len(entries) > 1 and entries[0].components
    for name in ("components", "aux", "binary_features"):
        key_objects = {tuple(map(id, getattr(entry, name))) for entry in entries}
        assert len(key_objects) == 1, name


def test_generate_base_keeps_class_label():
    first, _ = _base_entries()
    assert first.internal_structures == ("Prép1 Det1 C1",)


def test_structure_template_lists_component_refs():
    table = parse_table(TABLE, "T")
    template = structure_template(table)
    assert template.text == "@<ENT>Prép1@ @<ENT>Det1@ @<ENT>C1@"


def test_check_script_bindings_rejects_unknown_column():
    table = parse_table(TABLE, "T")
    script = parse_script('T : "feat p" => construction "@manque@"\n')
    with pytest.raises(LexgramError):
        check_script_bindings(table, script)


def test_check_script_bindings_component_refs_check_slots_only():
    table = parse_table(TABLE, "T")
    script = parse_script('T : "feat p" => construction "@<ENT>Ppv@"\n')
    with pytest.raises(LexgramError):
        check_script_bindings(table, script)


def test_a_wildcard_rule_is_flattened_once_for_every_table(monkeypatch):
    # Compile checks each table's bindings and extend builds each table's
    # plan; both read the template's flat templates, worked out once.  The
    # calls are counted wherever a module binds the function, as the
    # benchmark's tracer counts them.
    calls = []
    flatten = script_module.expand_alternation
    for name, module in list(sys.modules.items()):
        if name.startswith("lexgram") and getattr(module, "expand_alternation", None) is flatten:
            monkeypatch.setattr(module, "expand_alternation", lambda t: calls.append(t) or flatten(t))
    script = parse_script('* : "F" => paraphrase "(de + à) @<ENT>C1@", "en @<ENT>C1@"\n')
    tables = [parse_table("<ENT>C1\tF\nnuit\t+\n", f"T{i}") for i in range(5)]
    entries = [entry for table in tables for entry in generate_base(table, script)]
    result = run_pipeline(entries, script)
    assert len(calls) == 2
    variants = [r.surface for r in result.records if r.kind is Origin.PARAPHRASE_DIRECT]
    assert sorted(variants) == sorted(["de nuit", "à nuit", "en nuit"] * 5)


def test_sort_rank_orders_base_before_variants():
    doc = compile_corpus()
    base = doc.entries[0]
    assert base.sort_rank()[0] == 0
    script = load_fixture_script()
    entry = doc.entries[5]  # ADVPF#1 has one paraphrase
    _, variants = expand_entry(entry, build_plan(script, entry.table_id, tuple(entry.components)))
    assert variants
    variant = variants[0]
    assert variant.sort_rank()[0] == 1
    assert base.sort_rank() < variant.sort_rank()


def test_empty_surface_rows_are_still_emitted():
    table = parse_table("<ENT>Prép1\t<ENT>C1\n<E>\t<E>\nde\tnuit\n", "T")
    entries = generate_base(table, parse_script(""))
    assert entries[0].surface.rendered == ""
    assert entries[1].surface.rendered == "de nuit"


def test_sequence_fields_are_tuples_wherever_entries_are_built():
    sequences = [f.name for f in fields(LexEntry) if f.default == ()]
    assert len(sequences) == 7
    base = compile_corpus()
    result = run_pipeline(base.entries, load_fixture_script(), rules=load_fixture_morpho())
    extended = LexiconDocument(result.entries, base.table_ids, base.script_source)
    built = {
        "generate_base": base.entries,
        "run_pipeline": result.entries,
        "import_text": import_text(export_lexicon(extended)).entries,
        "import_xml": import_xml(export_lexicon(extended, "xml")).entries,
    }
    for where, entries in built.items():
        for entry in entries:
            for name in sequences:
                assert type(getattr(entry, name)) is tuple, (where, entry.entry_id, name)
    # the extended lexicon fills every one of them somewhere
    assert all(any(getattr(e, name) for e in result.entries) for name in sequences)


def test_parents_and_survivors_carry_every_field_they_do_not_extend():
    # expand_entry and dedup rebuild an entry with ``replace``; every field
    # neither reads holds a fresh object here, so a field the rebuild drops
    # or replaces shows
    entry = compile_corpus().entries[0]
    plan = build_plan(load_fixture_script(), entry.table_id, tuple(entry.components))
    read_by_expand = {"entry_id", "table_id", "provenance", "binary_features", "components", "aux",
                      "paraphrases", "other_structures", "intensified", "internal_structures"}
    read_by_dedup = {"entry_id", "table_id", "provenance", "surface", "cross_refs"}
    for read, extended, build in (
        (read_by_expand, {"paraphrases", "other_structures", "intensified", "internal_structures"},
         lambda e: expand_entry(e, plan)[0]),
        (read_by_dedup, {"cross_refs"}, lambda e: dedup([e, e.replace(entry_id="ADVMP#99")])[0][0]),
    ):
        marked = entry.replace(**{name: object() for name in LexEntry.__match_args__ if name not in read})
        built = build(marked)
        assert built is not marked
        for name in LexEntry.__match_args__:
            if name not in extended:
                assert getattr(built, name) is getattr(marked, name), name
