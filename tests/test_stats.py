from __future__ import annotations

import contextlib
import copy
import io
import re
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import corpusgen
from conftest import compile_corpus, load_fixture_morpho, load_fixture_script, written
from lexgram.cli import main
from lexgram.errors import LexgramError, SchemaViolation
from lexgram.expansion import run_pipeline
from lexgram.formats import (
    RECORD_COLUMNS,
    RECORD_STATUSES,
    export_lexicon,
    export_records,
    import_lexicon,
    parse_records,
)
from lexgram.model import PASS_ORDER, Origin
from lexgram.script import parse_script
from lexgram.stats import StatsReport, compute_stats, lexicon_stats, percentage, recompute_stats, render_stats

FULL_SCALE = {
    Origin.PARAPHRASE_DIRECT: 2084,
    Origin.PARAPHRASE_CONSTRUCTION: 7125,
    Origin.DELETION: 1519,
    Origin.PERMUTATION: 103,
    Origin.TRANSFORMATION: 288,
    Origin.INTENSIFICATION: 210,
}


def test_percentage_rounds_half_away_from_zero():
    assert percentage(1, 8) == 13          # 12.5 -> 13
    assert percentage(103, 10487) == 1     # 0.98 -> 1
    assert percentage(210, 10487) == 2     # 2.003 -> 2
    assert percentage(0, 10) == 0


def test_percentage_rejects_zero_initial():
    with pytest.raises(LexgramError, match="against an empty lexicon"):
        percentage(5, 0)


def test_full_scale_percentages():
    initial = 10487
    expected = {
        Origin.PARAPHRASE_DIRECT: 20,
        Origin.PARAPHRASE_CONSTRUCTION: 68,
        Origin.DELETION: 14,
        Origin.PERMUTATION: 1,
        Origin.TRANSFORMATION: 3,
        Origin.INTENSIFICATION: 2,
    }
    for origin, added in FULL_SCALE.items():
        assert percentage(added, initial) == expected[origin]


def test_full_scale_group_totals():
    initial = 10487
    paraphrases = FULL_SCALE[Origin.PARAPHRASE_DIRECT] + FULL_SCALE[Origin.PARAPHRASE_CONSTRUCTION]
    others = (
        FULL_SCALE[Origin.DELETION] + FULL_SCALE[Origin.PERMUTATION]
        + FULL_SCALE[Origin.TRANSFORMATION]
    )
    # the grouped subtotals count one paraphrase double as removed
    assert paraphrases - 1 == 9208
    assert others == 1910
    assert percentage(9208, initial) == 88
    assert percentage(1910, initial) == 18
    assert 9208 + 1910 + 210 == 11328
    assert initial + 11328 == 21815


def test_compute_stats_full_scale_identity():
    report = compute_stats(10487, FULL_SCALE, duplicates_removed=1)
    assert report.total_added == 11329
    assert report.final == 21815
    assert report.per_pass[Origin.PARAPHRASE_DIRECT] == (2084, 20)
    assert report.per_pass[Origin.INTENSIFICATION] == (210, 2)


def test_compute_stats_rejects_negative_counts():
    with pytest.raises(ValueError):
        compute_stats(10, {Origin.DELETION: -1})
    with pytest.raises(ValueError):
        compute_stats(-1, {})


def test_compute_stats_rejects_non_pass_keys():
    with pytest.raises(ValueError):
        compute_stats(10, {Origin.BASE: 3})


def test_compute_stats_zero_initial_without_additions():
    report = compute_stats(0, {})
    assert report.final == 0


def test_compute_stats_zero_initial_with_additions_fails():
    with pytest.raises(LexgramError, match="against an empty lexicon"):
        compute_stats(0, {Origin.DELETION: 1})


def test_render_stats_shows_counts_and_percentages():
    report = compute_stats(10487, FULL_SCALE, duplicates_removed=1)
    text = render_stats(report)
    assert "initial entries" in text
    assert "10,487" in text
    assert "+2,084" in text and "(+20%)" in text
    assert "+11,329" in text and "(+108%)" in text
    assert "-1" in text
    assert "21,815" in text


def test_render_stats_subtotals_need_two_members():
    single = compute_stats(31, {Origin.DELETION: 7})
    assert "all other structures" not in render_stats(single)
    double = compute_stats(31, {Origin.DELETION: 7, Origin.PERMUTATION: 3})
    assert "all other structures" in render_stats(double)


def test_stats_report_is_immutable():
    report = compute_stats(31, {Origin.DELETION: 7})
    with pytest.raises(Exception):
        report.final = 99
    assert isinstance(report, StatsReport)


@pytest.mark.parametrize("twin", [False, True], ids=["fixture", "with-duplicate-base"])
def test_recompute_stats_matches_the_pipeline_report(twin):
    entries = compile_corpus().entries
    if twin:
        # a second row with the same surface as the first: dedup removes a base entry
        clone = copy.deepcopy(entries[0])
        clone.entry_id = f"{clone.table_id}#99"
        entries.append(clone)
    result = run_pipeline(entries, load_fixture_script(), rules=load_fixture_morpho())
    rows = parse_records(written(export_records, result.records))
    assert any(row.kind is Origin.BASE for row in rows) == twin
    assert recompute_stats(result.entries, rows) == result.stats

    kept = next(i for i, row in enumerate(rows) if row.status == "kept")
    with pytest.raises(SchemaViolation, match="record sidecar does not match the lexicon"):
        recompute_stats(result.entries, rows[:kept] + rows[kept + 1:])


# The report is counted from the lexicon alone.  It must be the count of the
# sidecar's rows (each variant toward its pass, each duplicate as removed),
# and the same from extend's output read back in either format, with and
# without its sidecar written, read back and checked against it.
@given(
    st.integers(0, 9999),
    st.sets(st.sampled_from(PASS_ORDER), min_size=1).map(frozenset),
    st.sampled_from(["text", "xml"]),
)
def test_the_lexicon_and_its_sidecar_count_to_the_pipeline_report(seed, passes, fmt):
    with tempfile.TemporaryDirectory() as directory:
        files = corpusgen.generate(seed)
        for name, content in files.items():
            (Path(directory) / name).write_text(content, encoding="utf-8")
        doc = compile_corpus(Path(directory), tuple(sorted(name[:-4] for name in files if name.endswith(".lgt"))))
    script = parse_script(doc.script_source, source="<embedded script>")
    result = run_pipeline(doc.entries, script, passes, rules=load_fixture_morpho())
    rows = parse_records(written(export_records, result.records))
    kinds, removed = Counter(row.kind for row in rows), sum(row.status == "duplicate" for row in rows)
    assert result.stats == compute_stats(len(doc.entries), {origin: kinds[origin] for origin in PASS_ORDER}, removed)
    reloaded = import_lexicon(export_lexicon(doc.replace(entries=result.entries), fmt)).entries
    assert lexicon_stats(reloaded) == result.stats
    assert recompute_stats(reloaded, rows) == result.stats


_UNIMPLIED = "record sidecar does not match the lexicon: entry {!r} has a row the lexicon does not imply"


@pytest.mark.parametrize("case", ["kept-elsewhere", "survivor-elsewhere", "removed-but-held"])
def test_recompute_stats_checks_the_record_ids_against_the_lexicon(case):
    result = run_pipeline(compile_corpus().entries, load_fixture_script(), rules=load_fixture_morpho())
    rows = list(result.records)
    kept = next(i for i, row in enumerate(rows) if row.status == "kept")
    duplicate = next(i for i, row in enumerate(rows) if row.status == "duplicate")
    if case == "kept-elsewhere":
        rows[kept] = rows[kept].replace(entry_id="nowhere#1")
    elif case == "survivor-elsewhere":
        rows[duplicate] = rows[duplicate].replace(duplicate_of="nowhere#1")
    else:
        rows[duplicate] = rows[duplicate].replace(entry_id=result.entries[0].entry_id)
    edited = rows[kept] if case == "kept-elsewhere" else rows[duplicate]
    with pytest.raises(SchemaViolation, match=f"^{re.escape(_UNIMPLIED.format(edited.entry_id))}$"):
        recompute_stats(result.entries, rows)


# A survivor that another row removes: the sidecar contradicts itself, and
# the removed entry's row names another survivor than the lexicon does.
def test_recompute_stats_refuses_a_survivor_removed_as_a_duplicate():
    result = run_pipeline(compile_corpus().entries, load_fixture_script(), rules=load_fixture_morpho())
    rows = list(result.records)
    first, second = [i for i, row in enumerate(rows) if row.status == "duplicate"][:2]
    rows[second] = rows[second].replace(duplicate_of=rows[first].entry_id)
    with pytest.raises(SchemaViolation, match=f"^{re.escape(_UNIMPLIED.format(rows[second].entry_id))}$"):
        recompute_stats(result.entries, rows)


def test_recompute_stats_names_both_files_and_an_entry_without_a_row():
    result = run_pipeline(compile_corpus().entries, load_fixture_script(), rules=load_fixture_morpho())
    survivor = next(entry for entry in result.entries if entry.cross_refs)
    rows = [row for row in result.records if row.entry_id != survivor.cross_refs[0]]
    # file names are any text, braces included
    message = f"r{{}}.tsv does not match x{{0}}.lgx: entry {survivor.cross_refs[0]!r} has no row"
    with pytest.raises(SchemaViolation, match=f"^{re.escape(message)}$"):
        recompute_stats(result.entries, rows, "x{0}.lgx", "r{}.tsv")


# One field of one row of extend's sidecar, edited: to the same column's
# value in another row, to any pass or status, or to a drawn text.  stats
# then prints extend's report, where the row is still the one the lexicon
# implies, or refuses the sidecar naming the row's entry (or, for an edited
# id, the id it now reads).
_FIXTURE_BASE = compile_corpus()
_FIXTURE_RUN = run_pipeline(_FIXTURE_BASE.entries, load_fixture_script(), rules=load_fixture_morpho())
_FIXTURE_LEXICON = export_lexicon(_FIXTURE_BASE.replace(entries=_FIXTURE_RUN.entries))
_FIXTURE_HEADER, *_FIXTURE_ROWS = written(export_records, _FIXTURE_RUN.records).rstrip("\n").split("\n")


@given(st.data())
def test_stats_prints_the_report_or_names_the_edited_row(data):
    fields = data.draw(st.sampled_from(_FIXTURE_ROWS)).split("\t")
    line = _FIXTURE_ROWS.index("\t".join(fields))
    column = data.draw(st.integers(0, len(RECORD_COLUMNS) - 1))
    if RECORD_COLUMNS[column] == "pass":
        values = st.sampled_from([origin.value for origin in Origin])
    elif RECORD_COLUMNS[column] == "status":
        values = st.sampled_from(RECORD_STATUSES)
    else:
        others = sorted({row.split("\t")[column] for row in _FIXTURE_ROWS})
        values = st.sampled_from(others) | st.text(st.sampled_from("aEé <>#12"), max_size=8)
    entry_id = fields[0]
    fields[column] = data.draw(values)
    rows = [*_FIXTURE_ROWS[:line], "\t".join(fields), *_FIXTURE_ROWS[line + 1:]]
    with tempfile.TemporaryDirectory() as directory:
        lexicon, records = Path(directory) / "full.lgx", Path(directory) / "records.tsv"
        lexicon.write_text(_FIXTURE_LEXICON, encoding="utf-8")
        records.write_text("\n".join([_FIXTURE_HEADER, *rows]) + "\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["stats", str(lexicon), "--records", str(records)])
    if code == 0:
        assert out.getvalue() == render_stats(_FIXTURE_RUN.stats)
        return
    named = {entry_id, fields[0]}
    assert code == 1 and out.getvalue() == ""
    assert err.getvalue().startswith(f"lexgram: error: {records} does not match {lexicon}: entry ")
    assert any(f"entry {name!r} has " in err.getvalue() for name in named), err.getvalue()
