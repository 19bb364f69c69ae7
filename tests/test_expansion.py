from __future__ import annotations

import collections

import pytest

from conftest import compile_corpus, load_fixture_morpho, load_fixture_script, replace, written
from lexgram.errors import LexgramError
from lexgram.expansion import PassConfig, build_plan, expand_entry, run_pipeline
from lexgram.formats import LexiconDocument, export_lexicon, export_records
from lexgram.lexicon import generate_base
from lexgram.model import EMPTY_CELLS, Origin
from lexgram.script import parse_script
from lexgram.tables import parse_table


def _by_id(entries):
    return {e.entry_id: e for e in entries}


def _expand(entry):
    """Expand one entry through its own plan; returns (parent, variants)."""
    plan = build_plan(load_fixture_script(), entry.table_id, tuple(entry.components))
    return expand_entry(entry, plan, rules=load_fixture_morpho())


def _fixture_pipeline(config=PassConfig()):
    doc = compile_corpus()
    return run_pipeline(doc.entries, load_fixture_script(), config=config, rules=load_fixture_morpho())


def test_pass_config_parse_accepts_names_and_tags():
    config = PassConfig.parse("deletion, int")
    assert config.enabled == frozenset({Origin.DELETION, Origin.INTENSIFICATION})


def test_pass_config_parse_rejects_unknown_names():
    with pytest.raises(LexgramError):
        PassConfig.parse("deletion, shuffle")


def test_expand_entry_orders_by_pass_then_rule():
    doc = compile_corpus()
    particulierement = _by_id(doc.entries)["ADVMS#2"]
    _, variants = _expand(particulierement)
    got = [(v.entry_id, v.surface.rendered) for v in variants]
    assert got == [
        ("ADVMS#2#para#1", "en particulier"),
        ("ADVMS#2#int#1", "tout particulièrement"),
        ("ADVMS#2#int#2", "plus particulièrement"),
        ("ADVMS#2#int#3", "moins particulièrement"),
    ]


def test_expand_entry_mirrors_records_to_parent():
    doc = compile_corpus()
    base = _by_id(doc.entries)["PCDC#1"]
    internal_before = base.internal_structures
    parent, variants = _expand(base)
    assert [v.provenance.kind for v in variants] == [Origin.DELETION]
    label, surface = parent.other_structures[0]
    assert label == "Prép1 Det1 C1"
    assert surface.rendered == "jusqu'à la fin"
    assert "Prép1 Det1 C1" in parent.internal_structures
    # the input entry is left as it was
    assert base.other_structures == () and base.paraphrases == () and base.intensified == ()
    assert base.internal_structures == internal_before


def test_expand_entry_refuses_generated_input():
    doc = compile_corpus()
    _, variants = _expand(doc.entries[0])
    with pytest.raises(LexgramError):
        _expand(variants[0])


def test_variants_inherit_category_arguments_and_features():
    doc = compile_corpus()
    sincerement = _by_id(doc.entries)["ADVMP#2"]
    _, variants = _expand(sincerement)
    for variant in variants:
        assert variant.category == sincerement.category
        assert variant.arguments == sincerement.arguments
        assert variant.binary_features == sincerement.binary_features
        assert variant.provenance.parent == "ADVMP#2"


def test_variants_share_what_they_inherit():
    doc = compile_corpus()
    sincerement = _by_id(doc.entries)["ADVMP#2"]
    _, variants = _expand(sincerement)
    assert variants
    for variant in variants:
        assert variant.arguments is sincerement.arguments
        assert variant.binary_features is sincerement.binary_features


def test_variants_without_cells_hold_the_shared_empty_mapping():
    kinds = set()
    for entry in compile_corpus().entries:
        for variant in _expand(entry)[1]:
            kinds.add(variant.provenance.kind)
            assert variant.aux is EMPTY_CELLS
            if variant.provenance.kind in (Origin.DELETION, Origin.PERMUTATION):
                assert variant.components
            else:
                assert variant.components is EMPTY_CELLS
    assert {Origin.PARAPHRASE_DIRECT, Origin.DELETION, Origin.INTENSIFICATION} <= kinds
    with pytest.raises(TypeError):
        EMPTY_CELLS["C1"] = "x"
    assert EMPTY_CELLS == {}


def test_expand_entry_returns_an_entry_that_gains_nothing_unchanged():
    entry = compile_corpus().entries[0]
    parent, variants = expand_entry(entry, ())
    assert parent is entry and variants == []


def test_deletion_tokens_are_a_subsequence_of_the_base():
    doc = compile_corpus()
    parent = _by_id(doc.entries)["PCDC#1"]
    _, variants = _expand(parent)
    base_tokens = list(parent.surface.tokens)
    variant_tokens = list(variants[0].surface.tokens)
    it = iter(base_tokens)
    assert all(any(tok == other for other in it) for tok in variant_tokens)


def test_permutation_keeps_the_token_multiset():
    doc = compile_corpus()
    parent = _by_id(doc.entries)["PCA#7"]
    _, variants = _expand(parent)
    variant = variants[0]
    assert collections.Counter(variant.surface.tokens) == collections.Counter(parent.surface.tokens)
    assert variant.surface.rendered == "ces derniers temps"


def test_intensification_prefixes_the_base():
    doc = compile_corpus()
    base = _by_id(doc.entries)["ADVMS#3"]
    parent, variants = _expand(base)
    intensified = [v for v in variants if v.provenance.kind is Origin.INTENSIFICATION]
    assert len(intensified) == 1
    assert intensified[0].surface.tokens[1:] == base.surface.tokens
    assert parent.intensified and parent.intensified[0].rendered == "tout doucement"
    assert base.intensified == () and base.paraphrases == ()


def test_run_pipeline_fixture_counts():
    result = _fixture_pipeline()
    assert result.stats.initial == 31
    added = {kind: count for kind, (count, _) in result.stats.per_pass.items()}
    assert added == {
        Origin.PARAPHRASE_DIRECT: 9,
        Origin.PARAPHRASE_CONSTRUCTION: 6,
        Origin.DELETION: 7,
        Origin.PERMUTATION: 3,
        Origin.TRANSFORMATION: 3,
        Origin.INTENSIFICATION: 4,
    }
    assert result.stats.duplicates_removed == 5
    assert result.stats.final == len(result.entries) == 58


def test_run_pipeline_keeps_bases_first_in_input_order():
    result = _fixture_pipeline()
    bases = [e for e in result.entries if e.is_base]
    assert [e.entry_id for e in bases] == [e.entry_id for e in result.entries[:31]]


def test_run_pipeline_refuses_extended_input():
    result = _fixture_pipeline()
    with pytest.raises(LexgramError):
        run_pipeline(result.entries, load_fixture_script())


def test_run_pipeline_refuses_repeated_ids():
    # The records, and so the report counted from them, name entries by id.
    entries = compile_corpus().entries
    with pytest.raises(LexgramError, match="duplicate entry id 'ADVMP#1'"):
        run_pipeline(entries + [entries[0]], load_fixture_script(), rules=load_fixture_morpho())


def test_run_pipeline_single_pass_still_dedups():
    result = _fixture_pipeline(config=PassConfig.parse("para"))
    added = {kind: count for kind, (count, _) in result.stats.per_pass.items()}
    assert added[Origin.PARAPHRASE_DIRECT] == 9
    assert all(count == 0 for kind, count in added.items() if kind is not Origin.PARAPHRASE_DIRECT)
    # the paraphrase duplicate of "en pratique" is still removed
    assert result.stats.duplicates_removed == 1
    assert result.stats.final == 31 + 9 - 1


def test_run_pipeline_duplicate_records_mark_the_survivor():
    result = _fixture_pipeline()
    statuses = {r.entry_id: (r.status, r.duplicate_of) for r in result.records}
    assert statuses["PCA#7#perm#1"] == ("duplicate", "PAC#2")
    assert statuses["PCDC#2#del#1"] == ("duplicate", "PCDN#3")
    assert statuses["PCDC#3#del#1"] == ("duplicate", "PCDN#3")
    assert statuses["PCDC#5#del#1"] == ("duplicate", "PCDC#4#del#1")
    assert statuses["ADVPS#2#para#1"] == ("duplicate", "PC#2")
    kept = [r for r in result.records if r.status == "kept"]
    assert len(kept) == 32 - 5


def test_run_pipeline_is_pure():
    doc = compile_corpus()
    before = export_lexicon(doc)
    script, morpho = load_fixture_script(), load_fixture_morpho()

    def extended_text():
        result = run_pipeline(doc.entries, script, rules=morpho)
        text = export_lexicon(LexiconDocument(result.entries, doc.table_ids, doc.script_source))
        return text, written(export_records, result.records)

    first = extended_text()
    assert extended_text() == first
    assert len(first[0]) == 30867
    assert export_lexicon(doc) == before


def test_plan_is_per_table_and_component_slots():
    # One table id, two component slot orders: "C1 Adj" keeps the order of
    # "Prép1 C1 Adj" (a deletion) but reorders "Prép1 Adj C1" (a permutation).
    script = parse_script('T : "F" => substructure(C1 Adj) "@<ENT>C1@ @<ENT>Adj@"\n')
    in_order = parse_table("<ENT>Prép1\t<ENT>C1\t<ENT>Adj\tF\nà\tfin\tbon\t+\n", "T")
    reordered = parse_table("<ENT>Prép1\t<ENT>Adj\t<ENT>C1\tF\nen\tplein\tjour\t+\n", "T")
    second = replace(generate_base(reordered, script)[0], entry_id="T#2")
    result = run_pipeline(generate_base(in_order, script) + [second], script)
    got = {r.parent_id: (r.kind, r.surface) for r in result.records}
    assert got == {"T#1": (Origin.DELETION, "fin bon"), "T#2": (Origin.PERMUTATION, "jour plein")}
