from __future__ import annotations

import collections
import gc
import re
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import compile_corpus, load_fixture_morpho, load_fixture_script, written
from lexgram.curation import dedup
from lexgram.errors import LexgramError
from lexgram.expansion import ALL_PASSES, build_plan, expand_entry, parse_passes, run_pipeline
from lexgram.formats import LexiconDocument, export_lexicon, export_records
from lexgram.lexicon import generate_base
from lexgram.model import EMPTY_CELLS, PASS_ORDER, Origin, RecordRow, entry_id
from lexgram.script import parse_script
from lexgram.stats import compute_stats
from lexgram.tables import parse_table


def _by_id(entries):
    return {e.entry_id: e for e in entries}


def _expand(entry):
    """Expand one entry through its own plan; returns (parent, variants)."""
    plan = build_plan(load_fixture_script(), entry.table_id, tuple(entry.components))
    return expand_entry(entry, plan, rules=load_fixture_morpho())


def _fixture_pipeline(passes=ALL_PASSES):
    doc = compile_corpus()
    return run_pipeline(doc.entries, load_fixture_script(), passes=passes, rules=load_fixture_morpho())


def test_parse_passes_accepts_names_and_tags():
    assert parse_passes("deletion, int") == frozenset({Origin.DELETION, Origin.INTENSIFICATION})
    assert ALL_PASSES == parse_passes(",".join(origin.value for origin in Origin if origin is not Origin.BASE))


def test_parse_passes_rejects_unknown_names():
    with pytest.raises(LexgramError):
        parse_passes("deletion, shuffle")


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


# A base entry holding cross-refs has been through dedup: its removed
# entries would reach the output with no record row.
def test_run_pipeline_refuses_input_holding_cross_refs():
    entries = compile_corpus().entries
    entries[1] = entries[1].replace(cross_refs=("ADVMP#9",))
    message = f"input lexicon is already extended ({entries[1].entry_id!r} holds cross-refs)"
    with pytest.raises(LexgramError, match=f"^{re.escape(message)}$"):
        run_pipeline(entries, load_fixture_script(), rules=load_fixture_morpho())


def test_run_pipeline_refuses_repeated_ids():
    # The records, and the cross-refs the report is counted from, name entries by id.
    entries = compile_corpus().entries
    with pytest.raises(LexgramError, match="duplicate entry id 'ADVMP#1'"):
        run_pipeline(entries + [entries[0]], load_fixture_script(), rules=load_fixture_morpho())


# An id ranks its entry in dedup and names it once it is removed, so an input
# entry's id must be a base id of its own table: ``T#row``.  Ids that are not
# would raise from the rank (two entries of one surface), or be filed under a
# pass on removal.
@pytest.mark.parametrize("first, second", [
    pytest.param("x", "y", id="not-an-id"),
    pytest.param("ADVMP#1#del#1", "ADVMP#2", id="variant-id"),
    pytest.param("PC#1", "ADVMP#2", id="other-table"),
])
def test_run_pipeline_refuses_an_id_that_is_not_a_base_id_of_its_table(first, second):
    entry = compile_corpus().entries[0]  # ADVMP#1
    entries = [entry.replace(entry_id=first), entry.replace(entry_id=second)]  # one table, one surface
    message = f"entry id {first!r} in the input lexicon is not a base id of its table"
    with pytest.raises(LexgramError, match=f"^{re.escape(message)}$"):
        run_pipeline(entries, load_fixture_script(), rules=load_fixture_morpho())


def test_run_pipeline_single_pass_still_dedups():
    result = _fixture_pipeline(passes=parse_passes("para"))
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


def _expand_then_dedup(entries, script, morpho):
    """What run_pipeline returns, by its definition: every base expanded,
    then one dedup of the parents followed by every variant, then a record
    per variant and per removed base, and the report counted from them."""
    parents, variants = [], []
    for entry in entries:
        plan = build_plan(script, entry.table_id, tuple(entry.components))
        parent, produced = expand_entry(entry, plan, rules=morpho)
        parents.append(parent)
        variants.extend(produced)
    survivors, duplicates = dedup(parents + variants)
    kept_for = {removed_id: dup.kept for dup in duplicates for removed_id in dup.removed}

    def record(entry):
        p = entry.provenance
        kept = kept_for.get(entry.entry_id, "")
        return RecordRow(
            entry.entry_id, p.parent or "", p.kind, p.feature_id or "", p.template or "",
            entry.surface.rendered, "duplicate" if kept else "kept", kept,
        )

    by_id = {parent.entry_id: parent for parent in parents}
    records = [record(variant) for variant in variants]
    records += [record(by_id[removed_id]) for removed_id in kept_for if removed_id in by_id]
    per_kind = collections.Counter(row.kind for row in records)
    removed = sum(row.status == "duplicate" for row in records)
    added = {origin: per_kind[origin] for origin in PASS_ORDER}
    return survivors, records, compute_stats(len(entries), added, duplicates_removed=removed)


def _further_down(entry):
    """*entry* moved 100 rows down its table: it repeats the surfaces of the
    entry and of its variants, and ranks after both."""
    table_id, row = entry.entry_id.split("#")
    return entry.replace(entry_id=entry_id(table_id, int(row) + 100))


_SCRIPT, _MORPHO = load_fixture_script(), load_fixture_morpho()
_BASES = compile_corpus().entries
_DRAWN = [*_BASES, *map(_further_down, _BASES)]


# Lists drawn in any order: an entry held for its key is removed when one
# that ranks before it comes later (in the example, each copy before its
# entry, and PCDC#5#del#1 before PCDC#4#del#1).
@example(_DRAWN[::-1])
@given(st.lists(st.sampled_from(_DRAWN), unique_by=lambda entry: entry.entry_id, max_size=16))
def test_run_pipeline_is_expand_entry_then_dedup(entries):
    result = run_pipeline(entries, _SCRIPT, rules=_MORPHO)
    assert (result.entries, result.records, result.stats) == _expand_then_dedup(entries, _SCRIPT, _MORPHO)


def _pipeline_transient(templates: int) -> tuple[int, int]:
    """What run_pipeline allocates at its peak beyond the result it returns
    (tracemalloc), and the variants it removes, on 300 base entries whose
    one paraphrase rule has *templates* fixed texts: every text repeats on
    every entry, so all but *templates* of the variants are removed."""
    script = parse_script('T : "F" => paraphrase ' + ", ".join(f'"sans cesse {i}"' for i in range(templates)) + "\n")
    table = parse_table("<ENT>C1\tF\n" + "".join(f"mot{i}\t+\n" for i in range(300)), "T")
    entries = generate_base(table, script)
    gc.collect()
    tracemalloc.start()
    try:
        result = run_pipeline(entries, script)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - retained, result.stats.duplicates_removed


# A pipeline that held every variant until one dedup at the end would
# peak about 250 B higher for each removed variant here.  What a removal
# adds is its id in the dedup index and in the map from removed id to
# survivor: 33 to 55 B on CPython 3.10 to 3.13.
def test_run_pipeline_holds_no_removed_variant():
    few, few_removed = _pipeline_transient(1)
    many, many_removed = _pipeline_transient(27)
    assert many_removed - few_removed > 7000
    assert many - few < 96 * (many_removed - few_removed)


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
    second = generate_base(reordered, script)[0].replace(entry_id="T#2")
    result = run_pipeline(generate_base(in_order, script) + [second], script)
    got = {r.parent_id: (r.kind, r.surface) for r in result.records}
    assert got == {"T#1": (Origin.DELETION, "fin bon"), "T#2": (Origin.PERMUTATION, "jour plein")}
