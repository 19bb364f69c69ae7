from __future__ import annotations

import re
import unicodedata

from hypothesis import example, given
from hypothesis import strategies as st

from conftest import compile_corpus
from lexgram.curation import (
    DuplicateRecord,
    canonical_key,
    curate,
    dedup,
    duplicate_issues,
    flag_suspicious,
    review_report,
)
from lexgram.formats import LexiconDocument, export_lexicon
from lexgram.model import PASS_TAGS, IssueKind, LexEntry, Origin, Provenance, SurfaceForm


def _entry(entry_id: str, text: str, kind: Origin = Origin.BASE, parent: str | None = None) -> LexEntry:
    table = entry_id.split("#", 1)[0]
    provenance = Provenance(kind) if kind is Origin.BASE else Provenance(kind, parent=parent)
    return LexEntry(
        entry_id=entry_id,
        table_id=table,
        category="adverb",
        surface=SurfaceForm(tuple(text.split()), text),
        components={},
        aux={},
        provenance=provenance,
    )


def test_canonical_key_normalizations():
    assert canonical_key("En  Fait ") == "en fait"
    assert canonical_key("jusqu’à la fin") == "jusqu'à la fin"
    # NFC: a decomposed e + combining acute equals the precomposed form
    assert canonical_key("état") == canonical_key("état")
    assert canonical_key("\tde  nuit\n") == "de nuit"


def _regex_canonical_key(text: str) -> str:
    """The key as first defined: NFC, apostrophe, a regular expression over
    whitespace runs, strip, case fold."""
    text = unicodedata.normalize("NFC", text).replace("’", "'")
    return re.sub(r"\s+", " ", text).strip().casefold()


# ASCII and Unicode whitespace, both apostrophes, letters that NFC composes
# with the combining marks, and ones that case folding changes.
_KEY_ALPHABET = " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2009\u202f\u2028\u3000’'aeEÉé\u0301\u0327\u0308çßΣ"


@example("E\u0301\u3000\x1cjusqu’à\x85")
@example("\u1100\u1161")
@given(st.text(st.sampled_from(_KEY_ALPHABET), max_size=8) | st.text(max_size=8))
def test_canonical_key_matches_the_regex_form(text):
    assert canonical_key(text) == _regex_canonical_key(text)
    assert canonical_key(SurfaceForm((), text)) == _regex_canonical_key(text)


def test_dedup_base_survives_over_variant():
    base = _entry("PAC#2", "ces derniers temps")
    variant = _entry("PCA#7#perm#1", "ces derniers temps", Origin.PERMUTATION, "PCA#7")
    survivors, duplicates = dedup([variant, base])
    assert [e.entry_id for e in survivors] == ["PAC#2"]
    assert len(duplicates) == 1
    record = duplicates[0]
    assert record.kept == "PAC#2"
    assert record.removed == ("PCA#7#perm#1",)
    assert record.key == "ces derniers temps"
    assert survivors[0].cross_refs == ("PCA#7#perm#1",)
    assert base.cross_refs == ()


def test_curate_leaves_its_input_unchanged():
    corpus = compile_corpus()
    copy = corpus.entries[0].replace(entry_id="ADVMP#99")
    doc = LexiconDocument(corpus.entries + [copy], corpus.table_ids, corpus.script_source)
    before = export_lexicon(doc)
    first = curate(doc.entries)
    second = curate(doc.entries)
    assert first == second
    assert review_report(first[2], first[1]) == review_report(second[2], second[1])
    assert first[0][0].cross_refs == ("ADVMP#99",)
    assert export_lexicon(doc) == before


def test_dedup_earlier_input_position_breaks_ties():
    a = _entry("T#1#del#1", "en fait", Origin.DELETION, "T#1")
    b = _entry("T#2#del#1", "en fait", Origin.DELETION, "T#2")
    survivors, duplicates = dedup([a, b])
    assert [e.entry_id for e in survivors] == ["T#1#del#1"]
    assert duplicates[0].removed == ("T#2#del#1",)


def test_dedup_preserves_input_order_of_survivors():
    entries = [_entry("A#1", "en fait"), _entry("B#1", "de nuit"), _entry("C#1", "au cas")]
    survivors, duplicates = dedup(entries)
    assert survivors == entries
    assert duplicates == []


def test_dedup_conserves_entry_count():
    entries = [
        _entry("A#1", "en fait"),
        _entry("B#1", "En fait"),
        _entry("C#1", "de nuit"),
        _entry("D#1", "en  fait"),
    ]
    survivors, duplicates = dedup(entries)
    removed = sum(len(d.removed) for d in duplicates)
    assert len(survivors) + removed == len(entries)
    assert survivors[0].cross_refs == ("B#1", "D#1")


def test_dedup_keeps_the_survivor_of_a_repeated_id():
    # removal goes by entry, not by id: a survivor sharing its id with an
    # entry it removed stays
    entries = [_entry("A#1", "en fait"), _entry("A#1", "en fait"), _entry("B#1", "de nuit")]
    survivors, duplicates = dedup(entries)
    assert [e.entry_id for e in survivors] == ["A#1", "B#1"]
    assert duplicates[0].removed == ("A#1",)


def test_dedup_never_merges_empty_surfaces():
    a = _entry("A#1", "")
    b = _entry("B#1", "")
    survivors, duplicates = dedup([a, b])
    assert len(survivors) == 2
    assert duplicates == []


def _brute_force_dedup(entries: list[LexEntry]) -> tuple[list[LexEntry], list[DuplicateRecord]]:
    """dedup by its definition: each entry with a non-empty key is grouped
    with every entry of that key, and the minimum of (sort_rank(), position)
    of a group survives, its cross_refs extended by the others' ids."""
    keys = [canonical_key(entry.surface) for entry in entries]

    def group(position: int) -> list[int]:
        key = keys[position]
        return [other for other, other_key in enumerate(keys) if other_key == key] if key else [position]

    def rank(position: int) -> tuple:
        return entries[position].sort_rank(), position

    survivors, duplicates = [], []
    for position, entry in enumerate(entries):
        members = group(position)
        kept = min(members, key=rank)
        removed = tuple(entries[other].entry_id for other in members if other != kept)
        if kept == position:
            survivors.append(entry.replace(cross_refs=entry.cross_refs + removed) if removed else entry)
        if removed and position == members[0]:
            duplicates.append(DuplicateRecord(entries[kept].entry_id, removed, keys[position]))
    return survivors, duplicates


# Surfaces that collide, or differ only in case, spacing or apostrophe, or
# are empty or whitespace only.
_WORDS = st.sampled_from(["en", "En", "EN", "fait", "jusqu'à", "jusqu’à", "nuit"])
_SPACES = st.sampled_from([" ", "  ", "\t", "\u00a0"])
_SURFACES = st.one_of(
    st.sampled_from(["", " ", "\t \n"]),
    st.builds(
        lambda lead, words, space, trail: lead + space.join(words) + trail,
        st.sampled_from(["", " "]), st.lists(_WORDS, min_size=1, max_size=3), _SPACES, st.sampled_from(["", "\t"]),
    ),
)


@st.composite
def _dedup_entries(draw) -> LexEntry:
    """A base entry or a variant, from few enough ids that ids repeat."""
    table = draw(st.sampled_from(["A", "B"]))
    row = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(list(Origin)))
    text = draw(_SURFACES)
    if kind is Origin.BASE:
        entry = _entry(f"{table}#{row}", text)
    else:
        entry = _entry(f"{table}#{row}#{PASS_TAGS[kind]}#{draw(st.integers(1, 2))}", text, kind, f"{table}#{row}")
    return entry.replace(cross_refs=draw(st.sampled_from([(), ("C#9",)])))


@given(st.lists(_dedup_entries(), max_size=12).flatmap(st.permutations))
def test_dedup_matches_the_brute_force_definition(entries):
    assert dedup(entries) == _brute_force_dedup(entries)


def test_duplicate_issue_kinds():
    base_a = _entry("PAC#2", "ces derniers temps")
    cross = _entry("PCA#7#perm#1", "ces derniers temps", Origin.PERMUTATION, "PCA#7")
    base_b = _entry("T#1", "de nuit")
    same_table = _entry("T#2#del#1", "de nuit", Origin.DELETION, "T#2")
    var_a = _entry("U#1#del#1", "au cas", Origin.DELETION, "U#1")
    var_b = _entry("U#2#del#1", "au cas", Origin.DELETION, "U#2")
    entries = [base_a, cross, base_b, same_table, var_a, var_b]
    by_id = {e.entry_id: e for e in entries}
    _, duplicates = dedup(entries)
    issues = duplicate_issues(duplicates, by_id)
    kinds = [(i.kind, i.entry_id) for i in issues]
    assert (IssueKind.CROSS_TABLE_DUPLICATE, "PAC#2") in kinds
    assert (IssueKind.DUPLICATE_OF_BASE, "T#1") in kinds
    # same-table variant-variant pairs are recorded but not flagged
    assert len(kinds) == 2


def test_flag_single_token_residue_only_for_substructures():
    deletion = _entry("T#1#del#1", "pourboire", Origin.DELETION, "T#1")
    paraphrase = _entry("T#1#para#1", "fortuitement", Origin.PARAPHRASE_DIRECT, "T#1")
    base = _entry("T#2", "vite")
    assert [i.kind for i in flag_suspicious(deletion)] == [IssueKind.SINGLE_TOKEN_RESIDUE]
    assert flag_suspicious(paraphrase) == []
    assert flag_suspicious(base) == []


def test_flag_amalgam_suspects():
    trailing = _entry("T#1#del#1", "à cette heure-", Origin.DELETION, "T#1")
    bare = _entry("T#2#del#1", "de là là", Origin.DELETION, "T#2")
    issues = flag_suspicious(trailing)
    assert [i.kind for i in issues] == [IssueKind.AMALGAM_SUSPECT]
    # one flag per entry even with several offending tokens
    assert [i.kind for i in flag_suspicious(bare)] == [IssueKind.AMALGAM_SUSPECT]


def test_flag_agreement_on_transformations():
    variant = _entry("T#1#trans#1", "pour son bénéfice", Origin.TRANSFORMATION, "T#1")
    assert [i.kind for i in flag_suspicious(variant)] == [IssueKind.AGREEMENT_UNCHECKED]


def test_flag_empty_surface():
    empty = _entry("T#1#del#1", "", Origin.DELETION, "T#1")
    assert [i.kind for i in flag_suspicious(empty)] == [IssueKind.EMPTY_SURFACE]


def test_review_report_layout():
    base = _entry("PAC#2", "ces derniers temps")
    variant = _entry("PCA#7#perm#1", "ces derniers temps", Origin.PERMUTATION, "PCA#7")
    survivors, duplicates = dedup([base, variant])
    issues = duplicate_issues(duplicates, {e.entry_id: e for e in (base, variant)})
    issues += flag_suspicious(_entry("T#1#del#1", "pourboire", Origin.DELETION, "T#1"))
    report = review_report(issues, duplicates)
    lines = report.splitlines()
    assert lines[0] == "record\tkind\tentry\tdetail"
    assert any(line.startswith("ISSUE\tcross-table-duplicate\tPAC#2\t") for line in lines)
    assert any(line.startswith("ISSUE\tsingle-token-residue\tT#1#del#1\t") for line in lines)
    assert "DUPLICATE\tces derniers temps\tPAC#2\tPCA#7#perm#1" in lines
    assert report.endswith("\n")
