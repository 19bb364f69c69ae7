from __future__ import annotations

import copy

import pytest

from conftest import compile_corpus, load_fixture_morpho, load_fixture_script, replace, written
from lexgram.errors import LexgramError, SchemaViolation
from lexgram.expansion import run_pipeline
from lexgram.formats import export_records, parse_records
from lexgram.model import Origin
from lexgram.stats import StatsReport, compute_stats, percentage, recompute_stats, render_stats

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


@pytest.mark.parametrize("case, message", [
    ("kept-elsewhere", "the records keep 'nowhere#1', the lexicon does not hold it"),
    ("survivor-elsewhere", "the records keep 'nowhere#1', the lexicon does not hold it"),
    ("removed-but-held", "as a duplicate, the lexicon holds it"),
], ids=["kept-elsewhere", "survivor-elsewhere", "removed-but-held"])
def test_recompute_stats_checks_the_record_ids_against_the_lexicon(case, message):
    result = run_pipeline(compile_corpus().entries, load_fixture_script(), rules=load_fixture_morpho())
    rows = list(result.records)
    kept = next(i for i, row in enumerate(rows) if row.status == "kept")
    duplicate = next(i for i, row in enumerate(rows) if row.status == "duplicate")
    if case == "kept-elsewhere":
        rows[kept] = replace(rows[kept], entry_id="nowhere#1")
    elif case == "survivor-elsewhere":
        rows[duplicate] = replace(rows[duplicate], duplicate_of="nowhere#1")
    else:
        rows[duplicate] = replace(rows[duplicate], entry_id=result.entries[0].entry_id)
    with pytest.raises(SchemaViolation, match="^record sidecar does not match the lexicon: .*" + message):
        recompute_stats(result.entries, rows)
