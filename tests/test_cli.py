from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib.util
import io
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpusgen
import lexgram.cli
from conftest import FIXTURES, TABLE_IDS, compile_corpus, load_fixture_morpho, written
from lexgram.cli import main
from lexgram.curation import curate
from lexgram.errors import InternalInvariantError, LexgramError
from lexgram.expansion import run_pipeline
from lexgram.formats import (
    RECORD_COLUMNS,
    LexiconDocument,
    export_lexicon,
    export_records,
    import_text,
    import_xml,
    load_lexicon,
    parse_records,
    save_lexicon,
)
from lexgram.realizer import load_morpho_rules, parse_symbols
from lexgram.script import load_script, parse_script
from lexgram.stats import recompute_stats
from lexgram.tables import load_class_matrix, load_table
from test_formats import _TEXT_MUTATIONS, _extended_corpus, mutate


def _table_args():
    return [str(FIXTURES / f"{table_id}.lgt") for table_id in TABLE_IDS]


def _compile(tmp_path, extra=()):
    out = tmp_path / "base.lgx"
    code = main([
        "compile", *_table_args(),
        "--classes", str(FIXTURES / "classes.lgm"),
        "--script", str(FIXTURES / "extract.lgs"),
        "--morpho", str(FIXTURES / "morpho.rules"),
        "-o", str(out), *extra,
    ])
    assert code == 0
    return out


def _extend(tmp_path, base, extra=(), name="full.lgx"):
    out = tmp_path / name
    records = tmp_path / (name + ".records.tsv")
    code = main(["extend", str(base), "--records", str(records), "-o", str(out), *extra])
    return code, out, records


# =============================================================================
# compile
# =============================================================================

def test_compile_reports_counts_and_warnings(tmp_path, capsys):
    out = _compile(tmp_path)
    captured = capsys.readouterr()
    assert "compiled 31 entries from 9 tables" in captured.out
    assert "amalgam-suspect" in captured.err and "PCA#8" in captured.err
    assert out.read_text(encoding="utf-8").startswith("#lgx")


def test_compile_rejects_duplicate_table_ids(tmp_path):
    table = str(FIXTURES / "ADVMP.lgt")
    code = main([
        "compile", table, table,
        "--classes", str(FIXTURES / "classes.lgm"),
        "--script", str(FIXTURES / "extract.lgs"),
        "-o", str(tmp_path / "base.lgx"),
    ])
    assert code == 1


def test_compile_rejects_hash_in_table_id(tmp_path, capsys):
    table = tmp_path / "AD#VMP.lgt"
    table.write_text((FIXTURES / "ADVMP.lgt").read_text(encoding="utf-8"), encoding="utf-8")
    code = main([
        "compile", str(table),
        "--classes", str(FIXTURES / "classes.lgm"),
        "--script", str(FIXTURES / "extract.lgs"),
        "-o", str(tmp_path / "base.lgx"),
    ])
    assert code == 1
    assert "contains '#'" in capsys.readouterr().err


def test_compile_rejects_a_category_that_is_not_utf8(tmp_path, capsys):
    # argv bytes that are not UTF-8 reach main() as lone surrogates
    code = main([
        "compile", *_table_args(),
        "--classes", str(FIXTURES / "classes.lgm"),
        "--script", str(FIXTURES / "extract.lgs"),
        "--category", "\udcff",
        "-o", str(tmp_path / "base.lgx"),
    ])
    assert code == 1
    assert capsys.readouterr().err == "lexgram: error: --category '\\udcff' is not valid UTF-8\n"
    assert list(tmp_path.iterdir()) == []


def test_usage_errors_exit_one(tmp_path):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["extend"]) == 1
    assert main(["export", str(tmp_path / "none.lgx"), "--format", "yaml"]) == 1


def test_jobs_option_is_gone(tmp_path):
    base = _compile(tmp_path)
    out = tmp_path / "out.lgx"
    assert main(["extend", str(base), "--jobs", "4", "-o", str(out)]) == 1
    assert not out.exists()


def test_compile_rejects_an_unknown_substructure_slot(tmp_path, capsys):
    script = tmp_path / "extract.lgs"
    text = (FIXTURES / "extract.lgs").read_text(encoding="utf-8")
    text = text.replace("substructure(Prép1 Det1 Modif", "substructure(Prép1 Det1 Mdif", 1)
    script.write_text(text, encoding="utf-8")
    out = tmp_path / "base.lgx"
    code = main([
        "compile", *_table_args(),
        "--classes", str(FIXTURES / "classes.lgm"),
        "--script", str(script),
        "-o", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"lexgram: error: {script}:28: unknown component symbol 'Mdif'")
    assert not out.exists()


# 26 two-way groups stand for 67,108,864 flat templates: compile refuses the
# script line at once, before it builds any of them.
def test_compile_refuses_a_template_of_too_many_flat_forms(tmp_path, capsys):
    script = tmp_path / "extract.lgs"
    groups = " ".join(["(a + b)"] * 26)
    text = (FIXTURES / "extract.lgs").read_text(encoding="utf-8")
    script.write_text(f'{text}ADVMS : "tout Adv" => paraphrase "{groups} @Adv@"\n', encoding="utf-8")
    out = tmp_path / "base.lgx"
    code = main(["compile", *_table_args(), "--classes", str(FIXTURES / "classes.lgm"),
                 "--script", str(script), "-o", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"lexgram: error: {script}:44: template '{groups} @Adv@' has 67,108,864 flat forms, more than 1,024\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("option, message", [
    ("--symbols", "bad symbol line: 'x'"),
    ("--morpho", "unknown directive 'x'"),
])
def test_compile_names_the_file_of_a_bad_symbol_or_morpho_line(tmp_path, capsys, option, message):
    bad = tmp_path / "bad.txt"
    bad.write_text("# rules\nx\n", encoding="utf-8")
    out = tmp_path / "base.lgx"
    code = main([
        "compile", *_table_args(),
        "--classes", str(FIXTURES / "classes.lgm"),
        "--script", str(FIXTURES / "extract.lgs"),
        option, str(bad),
        "-o", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"lexgram: error: {bad}:2: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("option, text, message", [
    ("--symbols", "Poss2 = son\nDdef = la\nPoss2 = leur\n", "3: duplicate symbolic token 'Poss2'"),
    ("--morpho", "elide le = l'\n\nelide le = l\n", "3: duplicate elide rule for 'le'"),
    ("--morpho", "contract de le = du\ncontract de le = dul\n", "2: duplicate contract rule for 'de le'"),
])
def test_compile_refuses_a_repeated_symbol_or_morpho_rule(tmp_path, capsys, option, text, message):
    rules = tmp_path / "rules.txt"
    rules.write_text(text, encoding="utf-8")
    out = tmp_path / "base.lgx"
    code = main([
        "compile", *_table_args(),
        "--classes", str(FIXTURES / "classes.lgm"),
        "--script", str(FIXTURES / "extract.lgs"),
        option, str(rules),
        "-o", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"lexgram: error: {rules}:{message}\n"
    assert not out.exists()


def test_compile_refuses_a_symbol_policy_for_an_unknown_token(tmp_path, capsys):
    policy = tmp_path / "symbols.conf"
    policy.write_text("Ddef = la\nDind = une\n", encoding="utf-8")
    out = tmp_path / "base.lgx"
    code = main([
        "compile", *_table_args(),
        "--classes", str(FIXTURES / "classes.lgm"),
        "--script", str(FIXTURES / "extract.lgs"),
        "--symbols", str(policy),
        "-o", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"lexgram: error: {policy}:2: unknown symbolic token 'Dind' (expected one of: Ddef, N, Nhum, Poss2)\n"
    )
    assert not out.exists()


def test_compile_rejects_bad_class_matrix(tmp_path, capsys):
    for name, text in (("empty.lgm", ""), ("no-id.lgm", "class\tfa\n\t+\n")):
        matrix = tmp_path / name
        matrix.write_text(text, encoding="utf-8")
        code = main([
            "compile", str(FIXTURES / "PC.lgt"),
            "--classes", str(matrix),
            "--script", str(FIXTURES / "extract.lgs"),
            "-o", str(tmp_path / "base.lgx"),
        ])
        assert code == 1
        assert f"{name}:" in capsys.readouterr().err


def test_compile_rejects_an_empty_feature_id_in_the_class_matrix(tmp_path, capsys):
    # An empty column that every class marks "+": accepted, every entry would
    # carry a feature with an empty id, which no script rule can name.
    lines = (FIXTURES / "classes.lgm").read_text(encoding="utf-8").splitlines()
    matrix = tmp_path / "classes.lgm"
    matrix.write_text("".join(line.replace("\t", "\t\t" if n == 0 else "\t+\t", 1) + "\n"
                              for n, line in enumerate(lines)), encoding="utf-8")
    out = tmp_path / "base.lgx"
    code = main([
        "compile", *_table_args(),
        "--classes", str(matrix),
        "--script", str(FIXTURES / "extract.lgs"),
        "-o", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"lexgram: error: {matrix}:1: empty feature id in header\n"
    assert not out.exists()


def test_missing_input_is_an_input_error(tmp_path):
    code, _, _ = _extend(tmp_path, tmp_path / "missing.lgx")
    assert code == 1


# =============================================================================
# extend
# =============================================================================

def test_extend_end_to_end(tmp_path, capsys):
    base = _compile(tmp_path)
    capsys.readouterr()
    code, out, records = _extend(tmp_path, base)
    captured = capsys.readouterr()
    assert code == 0
    assert "initial entries" in captured.out and "31" in captured.out
    assert "final entries" in captured.out and "58" in captured.out
    assert "duplicates removed" in captured.out and "-5" in captured.out
    doc = load_lexicon(out)
    assert len(doc.entries) == 58
    rows = parse_records(records.read_text(encoding="utf-8"))
    assert len(rows) == 32
    assert sum(1 for row in rows if row.status == "duplicate") == 5


def test_extend_refuses_already_extended_input(tmp_path, capsys):
    base = _compile(tmp_path)
    _, out, _ = _extend(tmp_path, base)
    code, _, _ = _extend(tmp_path, out, name="again.lgx")
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_extend_names_the_entry_of_an_unknown_component_slot(tmp_path, capsys):
    base = _compile(tmp_path)
    bad = tmp_path / "bad.lgx"
    text = base.read_text(encoding="utf-8")
    bad.write_text(text.replace("\ncomponent\tC1\t", "\ncomponent\tFoo\t"), encoding="utf-8")
    entry = next(e for e in load_lexicon(bad).entries if "Foo" in e.components)
    capsys.readouterr()
    code, out, _ = _extend(tmp_path, bad)
    assert code == 1 and not out.exists()
    label = " ".join(entry.components)
    assert capsys.readouterr().err == (
        f"lexgram: error: entry {entry.entry_id!r}: unknown component symbol 'Foo' in {label!r}\n"
    )


def test_extend_names_the_entry_and_rule_of_an_unbound_placeholder(tmp_path, capsys):
    base = _compile(tmp_path)
    bad = tmp_path / "bad.lgx"
    text = base.read_text(encoding="utf-8")
    cut = text.replace("\naux\tAdj\tlinguistique\n", "\n").replace("\naux\tAdj-n\tlinguistique\n", "\n")
    assert len(cut) < len(text) - 40
    bad.write_text(cut, encoding="utf-8")
    capsys.readouterr()
    code, out, _ = _extend(tmp_path, bad)
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        "lexgram: error: entry 'ADVMP#1', rule 'Adj-ment = au niveau Adj': "
        "placeholder '@Adj@' is not bound\n"
    )


def test_extend_names_the_entry_and_rule_of_an_unknown_symbol(tmp_path, capsys):
    base = _compile(tmp_path)
    policy = tmp_path / "symbols.conf"
    policy.write_text("Ddef = a b\n", encoding="utf-8")
    capsys.readouterr()
    code, out, _ = _extend(tmp_path, base, extra=("--symbols", str(policy)))
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        "lexgram: error: entry 'PCDN#1', rule 'Prép1 Poss2 C1': "
        "no policy for symbolic token 'Poss2'\n"
    )
    # the check is lazy: without the transformation pass no template holds Poss2
    code, out, _ = _extend(tmp_path, base, extra=("--symbols", str(policy), "--passes", "para,parac,del,perm,int"))
    assert code == 0 and out.exists()


def test_extend_bytes_are_pinned_on_a_collision_heavy_corpus(tmp_path):
    # 900 base rows whose 3,393 variants lose 3,377 entries to dedup, 260 of
    # them base entries
    for name, content in corpusgen.generate(10, row_range=(300, 300)).items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    morpho = ("--morpho", str(FIXTURES / "morpho.rules"))
    code = main([
        "compile", *sorted(str(path) for path in tmp_path.glob("*.lgt")),
        "--classes", str(tmp_path / "classes.lgm"), "--script", str(tmp_path / "extract.lgs"),
        "-o", str(tmp_path / "base.lgx"), *morpho,
    ])
    assert code == 0
    code, out, records = _extend(tmp_path, tmp_path / "base.lgx", extra=morpho)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == "72ebfc6fd3af0c35d8a84242f9d80e7b9aec80a5f9c4919fb2cbbe29871eacfd"
    assert hashlib.sha256(records.read_bytes()).hexdigest() == "80b406c79f5a96236b678dc5ad9179019b9a6f564a4d641f85d1f7b2c7137c0f"


def test_extend_unknown_pass_is_an_input_error(tmp_path):
    base = _compile(tmp_path)
    code, _, _ = _extend(tmp_path, base, extra=("--passes", "teleportation"))
    assert code == 1


@pytest.mark.parametrize("passes", ["", ",", " "])
def test_extend_refuses_a_pass_list_that_names_no_pass(tmp_path, capsys, passes):
    base = _compile(tmp_path)
    capsys.readouterr()
    code, out, records = _extend(tmp_path, base, extra=("--passes", passes))
    assert code == 1
    assert capsys.readouterr().err == f"lexgram: error: pass list {passes!r} names no pass\n"
    assert not out.exists() and not records.exists()


def test_extend_pass_subset(tmp_path, capsys):
    base = _compile(tmp_path)
    capsys.readouterr()
    code, out, _ = _extend(tmp_path, base, extra=("--passes", "para"))
    captured = capsys.readouterr()
    assert code == 0
    assert "direct paraphrases" in captured.out
    deletion_line = next(l for l in captured.out.splitlines() if l.startswith("deletions"))
    assert "+0" in deletion_line
    assert len(load_lexicon(out).entries) == 39


def test_extend_symbol_policy_override(tmp_path):
    base = _compile(tmp_path)
    policy = tmp_path / "symbols.conf"
    policy.write_text(
        "# rendering policy\nPoss2 = leur\nDdef = la\nN = N\nNhum = Nhum\n",
        encoding="utf-8",
    )
    _, default_out, _ = _extend(tmp_path, base, name="default.lgx")
    _, custom_out, _ = _extend(
        tmp_path, base, extra=("--symbols", str(policy)), name="custom.lgx",
    )
    default_surfaces = {e.surface.rendered for e in load_lexicon(default_out).entries}
    custom_surfaces = {e.surface.rendered for e in load_lexicon(custom_out).entries}
    assert "à son insu" in default_surfaces and "à leur insu" not in default_surfaces
    assert "à leur insu" in custom_surfaces and "à son insu" not in custom_surfaces


# =============================================================================
# validate and stats
# =============================================================================

def test_validate_writes_review_queue(tmp_path, capsys):
    base = _compile(tmp_path)
    _, out, _ = _extend(tmp_path, base)
    review = tmp_path / "review.tsv"
    capsys.readouterr()
    assert main(["validate", str(out), "-o", str(review)]) == 0
    assert "5 issues, 0 duplicate groups" in capsys.readouterr().out
    lines = review.read_text(encoding="utf-8").rstrip("\n").split("\n")
    assert lines[0] == "record\tkind\tentry\tdetail"
    assert sum(1 for line in lines if "agreement-unchecked" in line) == 3
    assert any("single-token-residue\tPCA#9#del#1" in line for line in lines)
    assert any("amalgam-suspect\tPCA#8#del#1" in line for line in lines)


def test_validate_defaults_to_stdout(tmp_path, capsys):
    base = _compile(tmp_path)
    capsys.readouterr()
    assert main(["validate", str(base)]) == 0
    assert capsys.readouterr().out.startswith("record\tkind\tentry\tdetail")


def test_stats_recomputes_from_sidecar(tmp_path, capsys):
    base = _compile(tmp_path)
    capsys.readouterr()
    _, out, records = _extend(tmp_path, base)
    extend_stdout = capsys.readouterr().out
    assert main(["stats", str(out), "--records", str(records)]) == 0
    assert capsys.readouterr().out == extend_stdout


def test_stats_reprints_the_report_of_a_pass_subset(tmp_path, capsys):
    base = _compile(tmp_path)
    capsys.readouterr()
    _, out, records = _extend(tmp_path, base, extra=("--passes", "para,trans"))
    extend_stdout = capsys.readouterr().out
    assert "all other structures" in extend_stdout
    assert main(["stats", str(out), "--records", str(records)]) == 0
    assert capsys.readouterr().out == extend_stdout


def test_extend_and_stats_accept_an_empty_lexicon(tmp_path, capsys):
    base = tmp_path / "empty.lgx"
    script = (FIXTURES / "extract.lgs").read_text(encoding="utf-8")
    save_lexicon(LexiconDocument([], ("T",), script), base)
    capsys.readouterr()
    code, out, records = _extend(tmp_path, base)
    assert code == 0
    extend_stdout = capsys.readouterr().out
    assert "total generated                   +0  (+0%)" in extend_stdout
    assert main(["stats", str(out), "--records", str(records)]) == 0
    assert capsys.readouterr().out == extend_stdout


def test_extend_leaves_the_target_when_the_sidecar_cannot_be_written(tmp_path, capsys):
    base = _compile(tmp_path)
    target = tmp_path / "out.lgx"
    argv = ["extend", str(base), "-o", str(target), "--records", str(tmp_path / "nodir" / "r.tsv")]
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 1
    assert "No such file or directory" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before
    # An existing target keeps its bytes.
    target.write_bytes(b"old lexicon\n")
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    assert target.read_bytes() == b"old lexicon\n"
    assert sorted(tmp_path.iterdir()) == before


def test_extend_leaves_the_sidecar_when_its_write_fails_midway(tmp_path, monkeypatch, capsys):
    base = _compile(tmp_path)
    code, out, records = _extend(tmp_path, base)
    assert code == 0
    old_lexicon, old_records = out.read_bytes(), records.read_bytes()
    before = sorted(tmp_path.iterdir())

    def export_one_line_then_fail(rows, stream):
        stream.write("entry\n")
        raise OSError("disk full")

    monkeypatch.setattr(lexgram.cli, "export_records", export_one_line_then_fail)
    capsys.readouterr()
    code, _, _ = _extend(tmp_path, base, extra=("--passes", "para"))
    assert code == 1
    assert capsys.readouterr().err == "lexgram: error: disk full\n"
    assert records.read_bytes() == old_records
    assert out.read_bytes() == old_lexicon
    assert sorted(tmp_path.iterdir()) == before


def _linked(link):
    def alias(path):
        link(path, path.with_name("link.tsv"))
        return path.with_name("link.tsv")
    return alias


@pytest.mark.parametrize("alias", [
    pytest.param(lambda path: path, id="same-path"),
    pytest.param(lambda path: path.parent / ".." / path.parent.name / path.name, id="dotdot-path"),
    pytest.param(_linked(os.symlink), id="symlink"),
    pytest.param(_linked(os.link), id="hard-link"),
])
def test_extend_refuses_one_file_for_sidecar_and_lexicon(tmp_path, capsys, alias):
    base = _compile(tmp_path)
    records = tmp_path / "records.tsv"
    records.write_bytes(b"old sidecar\n")
    output = alias(records)
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(["extend", str(base), "--records", str(records), "-o", str(output)]) == 1
    assert capsys.readouterr().err == f"lexgram: error: --records and -o name the same file: {records}\n"
    assert records.read_bytes() == b"old sidecar\n"
    assert sorted(tmp_path.iterdir()) == before


def test_extend_writes_through_a_fifo_target(tmp_path):
    base = _compile(tmp_path)
    code, out, _ = _extend(tmp_path, base)
    assert code == 0
    fifo = tmp_path / "pipe.lgx"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, _, _ = _extend(tmp_path, base, name="pipe.lgx")
    reader.join(timeout=60)
    assert code == 0
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert received == [out.read_bytes()]


def _unmatched(records, lexicon, entry_id: str, what: str) -> str:
    """The error line of a sidecar that is not the one the lexicon implies."""
    return f"lexgram: error: {records} does not match {lexicon}: entry {entry_id!r} {what}\n"


_NOT_IMPLIED = "has a row the lexicon does not imply"


def test_stats_detects_tampered_sidecar(tmp_path, capsys):
    base = _compile(tmp_path)
    _, out, records = _extend(tmp_path, base)
    lines = records.read_text(encoding="utf-8").rstrip("\n").split("\n")
    victim = next(i for i, line in enumerate(lines) if i > 0 and "\tkept\t" in line)
    dropped = lines.pop(victim).split("\t")[0]
    records.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["stats", str(out), "--records", str(records)]) == 1
    assert capsys.readouterr().err == _unmatched(records, out, dropped, "has no row")


def test_stats_rejects_a_sidecar_of_other_entries(tmp_path):
    base = _compile(tmp_path)
    _, out, records = _extend(tmp_path, base)
    header, *lines = records.read_text(encoding="utf-8").rstrip("\n").split("\n")
    # each entry id's table and row, so that the ids keep their passes
    renamed = [re.sub(r"^[^#]*#[0-9]*", f"nowhere#{n}", line) for n, line in enumerate(lines, start=1)]
    records.write_text("\n".join([header, *renamed]) + "\n", encoding="utf-8")
    run = _run_cli("stats", str(out), "--records", str(records))
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr == _unmatched(records, out, renamed[0].split("\t")[0], _NOT_IMPLIED)
    assert "Traceback" not in run.stderr


def test_stats_rejects_an_unknown_record_status(tmp_path, capsys):
    base = _compile(tmp_path)
    _, out, records = _extend(tmp_path, base)
    text = records.read_text(encoding="utf-8")
    assert "\tduplicate\t" in text
    records.write_text(text.replace("\tduplicate\t", "\tdupe\t", 1), encoding="utf-8")
    capsys.readouterr()
    assert main(["stats", str(out), "--records", str(records)]) == 1
    assert "unknown record status 'dupe'" in capsys.readouterr().err


# A row's duplicate-of follows from its status: a kept row names none, a
# duplicate row names its survivor.  extend writes neither contradiction.
@pytest.mark.parametrize("status, duplicate_of", [
    pytest.param("kept", "ADVMP#1", id="kept"),
    pytest.param("duplicate", "<E>", id="duplicate"),
])
def test_stats_refuses_a_duplicate_of_that_contradicts_the_status(tmp_path, capsys, status, duplicate_of):
    base = _compile(tmp_path)
    _, out, records = _extend(tmp_path, base)
    lines = records.read_text(encoding="utf-8").rstrip("\n").split("\n")
    victim = next(i for i, line in enumerate(lines) if i > 0 and line.split("\t")[6] == status)
    fields = lines[victim].split("\t")
    fields[7] = duplicate_of
    lines[victim] = "\t".join(fields)
    records.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["stats", str(out), "--records", str(records)]) == 1
    assert capsys.readouterr().err == _unmatched(records, out, fields[0], _NOT_IMPLIED)


def _kept_base_row(rows: list[list[str]]) -> None:
    first_deletion = next(row for row in rows if row[2] == "deletion" and row[6] == "kept")
    rows.remove(first_deletion)
    rows.append(["ADVMP#1", "<E>", "base", "<E>", "<E>", "ADVMP", "kept", "<E>"])


def _repeated_row(rows: list[list[str]]) -> None:
    rows.append(next(row for row in rows if row[0] == "PCDC#2#del#1"))
    rows.remove(next(row for row in rows if row[0] == "ADVPS#2#para#1"))


def _edit_row(entry: str, column: int, value: str):
    def edit(rows: list[list[str]]) -> None:
        next(row for row in rows if row[0] == entry)[column] = value

    return edit


def _edit_first(status: str, **values: str):
    """An edit of the first row of *status*, its columns named as in the header."""
    def edit(rows: list[list[str]]) -> None:
        row = next(row for row in rows if row[6] == status)
        for name, value in values.items():
            row[RECORD_COLUMNS.index(name.replace("_", "-"))] = value

    return edit


# Rows extend never writes: a base row that is not a duplicate, two rows of
# one entry, an id that does not parse, an id whose tag is not its pass's,
# and rows whose fields are not their entry's.  Each edit keeps the count
# identity, so the report stats would print is wrong; stats refuses it and
# names the entry and both files.  The first kept row is of ADVMP#1#para#1,
# the first duplicate row of ADVPS#2#para#1.
@pytest.mark.parametrize("edit, entry", [
    pytest.param(_kept_base_row, "ADVMP#1", id="kept-base"),
    pytest.param(_repeated_row, "PCDC#2#del#1", id="repeated"),
    pytest.param(_edit_row("PCDC#3#del#1", 0, "PCDC#3#dele#1"), "PCDC#3#dele#1", id="malformed-id"),
    pytest.param(_edit_row("PCA#9#del#1", 2, "permutation"), "PCA#9#del#1", id="other-pass"),
    pytest.param(
        _edit_first("kept", feature="junk", template="junk", surface="junk"), "ADVMP#1#para#1", id="kept-junk",
    ),
    pytest.param(_edit_first("kept", parent="PCA#3"), "ADVMP#1#para#1", id="kept-parent"),
    pytest.param(_edit_first("duplicate", surface="zzz"), "ADVPS#2#para#1", id="duplicate-surface"),
    pytest.param(_edit_first("duplicate", duplicate_of="ADVMP#1"), "ADVPS#2#para#1", id="duplicate-of"),
    pytest.param(_edit_first("duplicate", parent="ADVPS#3"), "ADVPS#2#para#1", id="duplicate-parent"),
    pytest.param(_edit_first("duplicate", **{"pass": "deletion"}), "ADVPS#2#para#1", id="duplicate-pass"),
])
def test_stats_refuses_a_row_extend_never_writes(tmp_path, capsys, edit, entry):
    base = _compile(tmp_path)
    _, out, records = _extend(tmp_path, base)
    header, *lines = records.read_text(encoding="utf-8").rstrip("\n").split("\n")
    rows = [line.split("\t") for line in lines]
    edit(rows)
    records.write_text("\n".join([header, *map("\t".join, rows)]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["stats", str(out), "--records", str(records)]) == 1
    assert capsys.readouterr().err == _unmatched(records, out, entry, _NOT_IMPLIED)


# Each reader's refusal names the file it read.  stats reads a lexicon and
# a sidecar, and the message says which of the two it refused.
@pytest.mark.parametrize("damaged, old, new, message", [
    pytest.param("full.lgx", "\nfeature\t", "\nfeatur\t", "unknown line keyword 'featur'", id="text"),
    pytest.param(
        "full.lgx.xml", "<feature ", "<featur ", "entry 'ADVMP#1': unexpected <featur> element in <features>",
        id="xml",
    ),
    pytest.param("full.lgx.records.tsv", "\tkept\t", "\tkep\t", "unknown record status 'kep'", id="records"),
])
def test_a_reader_refusal_names_its_file(tmp_path, capsys, damaged, old, new, message):
    base = _compile(tmp_path)
    _, out, records = _extend(tmp_path, base)
    assert main(["export", str(out), "-o", str(tmp_path / "full.lgx.xml")]) == 0
    path = tmp_path / damaged
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    lexicon = out if path == records else path
    capsys.readouterr()
    assert main(["stats", str(lexicon), "--records", str(records)]) == 1
    assert capsys.readouterr().err == f"lexgram: error: {path}: {message}\n"


# =============================================================================
# export and import
# =============================================================================

def test_export_stdout_matches_file_output(tmp_path, capsys):
    base = _compile(tmp_path)
    capsys.readouterr()
    assert main(["export", str(base), "--format", "xml"]) == 0
    stdout_text = capsys.readouterr().out
    assert stdout_text.startswith("<?xml")
    target = tmp_path / "base.snapshot"
    assert main(["export", str(base), "--format", "xml", "-o", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == stdout_text


def test_export_picks_the_format_by_suffix_and_writes_text_on_stdout(tmp_path, capsys):
    base = _compile(tmp_path)
    xml = tmp_path / "out.lgx.xml"
    assert main(["export", str(base), "-o", str(xml)]) == 0
    assert xml.read_text(encoding="utf-8") == export_lexicon(load_lexicon(base), "xml")
    capsys.readouterr()
    assert main(["export", str(xml)]) == 0
    assert capsys.readouterr().out == base.read_text(encoding="utf-8")


def test_import_checks_and_converts(tmp_path, capsys):
    base = _compile(tmp_path)
    converted = tmp_path / "base.lgx.xml"
    capsys.readouterr()
    assert main(["import", str(base), "-o", str(converted)]) == 0
    assert "31 entries from 9 tables, schema ok" in capsys.readouterr().out
    assert converted.read_text(encoding="utf-8").startswith("<?xml")
    assert load_lexicon(converted).entries == load_lexicon(base).entries


def test_import_rejects_corrupt_files(tmp_path):
    bad = tmp_path / "bad.lgx"
    bad.write_text("#lgx\t1\n#entries\tnope\n", encoding="utf-8")
    assert main(["import", str(bad)]) == 1


def test_import_refuses_an_entry_count_in_another_spelling(tmp_path, capsys):
    base = _compile(tmp_path)
    text = base.read_text(encoding="utf-8")
    assert "\n#entries\t31\n" in text
    base.write_text(text.replace("\n#entries\t31\n", "\n#entries\t031\n", 1), encoding="utf-8")
    capsys.readouterr()
    assert main(["import", str(base)]) == 1
    assert "bad entry count '031'" in capsys.readouterr().err


def _run_python(*args, **options):
    """Run a fresh interpreter that imports the package from this checkout,
    with stdout and stderr captured unless *options* say otherwise.  Its
    stdout is block-buffered, as a user's file or pipe is, whatever
    ``PYTHONUNBUFFERED`` this process runs with."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **options}
    return subprocess.run([sys.executable, *args], text=True, env=env, **options)


def _run_cli(*args, **options):
    """Run ``lexgram`` in a fresh interpreter, as a user would."""
    return _run_python("-m", "lexgram.cli", *args, **options)


# hashlib loads OpenSSL, several MiB of every command's resident set; the
# header digest takes CPython's own SHA-256 where the interpreter has it.
@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="this interpreter has no built-in SHA-256 module",
)
def test_a_command_runs_without_loading_openssl(tmp_path):
    base = _compile(tmp_path)
    code = (
        "import sys\n"
        "from lexgram.cli import main\n"
        "code = main(['validate', sys.argv[1], '-o', sys.argv[2]])\n"
        "print(code, '_hashlib' in sys.modules)\n"
    )
    run = _run_python("-c", code, str(base), str(tmp_path / "review.tsv"))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 False"


# The record classes are written out: the dataclasses module would import
# inspect, ast, dis and tokenize at every command's start.  The interpreter
# runs without site (-S), whose .pth files may import inspect on their own.
def test_a_command_runs_without_loading_dataclasses_or_inspect(tmp_path):
    base = _compile(tmp_path)
    code = (
        "import sys\n"
        "unwanted = {'dataclasses', 'inspect'}\n"
        "from lexgram.cli import main\n"
        "print(sorted(unwanted & set(sys.modules)))\n"
        "code = main(['validate', sys.argv[1], '-o', sys.argv[2]])\n"
        "print(code, sorted(unwanted & set(sys.modules)))\n"
    )
    run = _run_python("-S", "-c", code, str(base), str(tmp_path / "review.tsv"))
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "0 []")


@pytest.mark.parametrize("fmt", ["text", "xml"])
def test_a_lexicon_that_repeats_a_surface_exits_one(tmp_path, capsys, fmt):
    base = _compile(tmp_path)
    lexicon = tmp_path / ("base.lgx" if fmt == "text" else "base.lgx.xml")
    if fmt == "xml":
        assert main(["export", str(base), "--format", "xml", "-o", str(lexicon)]) == 0
    text = lexicon.read_text(encoding="utf-8")
    old = "\nsurface\t" if fmt == "text" else "\n      <surface "
    repeat = "x\tx" if fmt == "text" else 'rendered="x" />'
    lexicon.write_text(text.replace(old, old + repeat + old, 1), encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(lexicon), "-o", str(tmp_path / "review.tsv")]) == 1
    assert "entry 'ADVMP#1': repeated " in capsys.readouterr().err
    assert not (tmp_path / "review.tsv").exists()


def _cut_first_multibyte_char(data: bytes) -> bytes:
    i = next(i for i, byte in enumerate(data) if byte >= 0x80)
    return data[:i] + data[i + 1:]


def _mutate_seeded(data: bytes) -> bytes:
    return mutate(data, random.Random(4))


@pytest.mark.parametrize("damage", [_cut_first_multibyte_char, _mutate_seeded], ids=["bad-utf8", "seeded"])
def test_import_of_a_mutated_xml_file_exits_cleanly(tmp_path, damage):
    base = _compile(tmp_path)
    xml = tmp_path / "base.lgx.xml"
    assert main(["export", str(base), "--format", "xml", "-o", str(xml)]) == 0
    xml.write_bytes(damage(xml.read_bytes()))
    run = _run_cli("import", str(xml))
    assert run.returncode in (0, 1), run.stderr
    assert "Traceback" not in run.stderr
    assert (run.returncode == 1) == run.stderr.startswith("lexgram: error: ")


_CHAIN_EXTENDED, _CHAIN_RESULT = _extended_corpus()
_CHAIN_TEXTS = {"base": export_lexicon(compile_corpus()), "full": export_lexicon(_CHAIN_EXTENDED)}
_CHAIN_RECORDS = written(export_records, _CHAIN_RESULT.records)


def _cli_exits_cleanly(*argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = lexgram.cli.cli([str(arg) for arg in argv])
    assert code in (0, 1), err.getvalue()
    assert "Traceback" not in err.getvalue()
    return code


# A seed drives the mutations, as in test_formats.
@settings(max_examples=50)
@given(st.sampled_from(sorted(_CHAIN_TEXTS)), st.integers(0, 2**32))
def test_commands_on_a_mutated_lexicon_exit_cleanly(name, seed):
    """Every command over a lexicon that imports cleanly exits 0 or 1:
    ``extend`` over a mutated base lexicon, ``validate`` and ``stats`` over
    a mutated extended one."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        lexicon = tmp / f"{name}.lgx"
        lexicon.write_text(mutate(_CHAIN_TEXTS[name], random.Random(seed), _TEXT_MUTATIONS), encoding="utf-8")
        if _cli_exits_cleanly("import", lexicon) != 0:
            return
        if name == "base":
            _cli_exits_cleanly("extend", lexicon, "--records", tmp / "out.tsv", "-o", tmp / "out.lgx")
        else:
            records = tmp / "full.lgx.records.tsv"
            records.write_text(_CHAIN_RECORDS, encoding="utf-8")
            _cli_exits_cleanly("validate", lexicon)
            _cli_exits_cleanly("stats", lexicon, "--records", records)


def test_export_refuses_characters_xml_cannot_carry(tmp_path, capsys):
    base = _compile(tmp_path)
    text = base.read_text(encoding="utf-8")
    old = "component\tC1\tavenir\n"
    assert old in text
    base.write_text(text.replace(old, "component\tC1\tave\x0cnir\n", 1), encoding="utf-8")
    target = tmp_path / "out.lgx.xml"
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(["export", str(base), "--format", "xml", "-o", str(target)]) == 1
    assert "U+000C" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before
    # A refused export leaves an existing target as it was.
    target.write_bytes(b"old lexicon\n")
    before = sorted(tmp_path.iterdir())
    assert main(["export", str(base), "--format", "xml", "-o", str(target)]) == 1
    assert target.read_bytes() == b"old lexicon\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["export", "extend"])
def test_text_output_refuses_field_breaks(tmp_path, capsys, command):
    base = _compile(tmp_path)
    xml = tmp_path / "base.lgx.xml"
    assert main(["export", str(base), "--format", "xml", "-o", str(xml)]) == 0
    text = xml.read_text(encoding="utf-8")
    old = '<component slot="C1">avenir</component>'
    assert old in text
    xml.write_text(text.replace(old, '<component slot="C1">ave&#13;nir</component>', 1), encoding="utf-8")
    target = tmp_path / "out.lgx"
    records = tmp_path / "out.records.tsv"
    extra = ["--records", str(records)] if command == "extend" else []
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main([command, str(xml), "-o", str(target), *extra]) == 1
    assert "holds a carriage return, which the text format cannot carry" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before
    # A refused write leaves an existing target as it was.
    target.write_bytes(b"old lexicon\n")
    before = sorted(tmp_path.iterdir())
    assert main([command, str(xml), "-o", str(target), *extra]) == 1
    assert target.read_bytes() == b"old lexicon\n"
    assert sorted(tmp_path.iterdir()) == before


def test_extend_refuses_a_tab_in_a_record_field(tmp_path, capsys):
    # An XML lexicon carries a tab in a table id, and so in the entry ids
    # the records name; the sidecar cannot.
    base = _compile(tmp_path)
    xml = tmp_path / "base.lgx.xml"
    assert main(["export", str(base), "--format", "xml", "-o", str(xml)]) == 0
    text = xml.read_text(encoding="utf-8")
    assert '<table id="PC" />' in text
    xml.write_text(re.sub(r'"PC\b', '"P&#09;C', text), encoding="utf-8")
    argv = ["extend", str(xml), "--records", str(tmp_path / "r.tsv"), "-o", str(tmp_path / "full.lgx.xml")]
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "lexgram: error: record of entry 'ADVPS#2#para#1' holds a tab, which the sidecar cannot carry\n"
    )
    assert sorted(tmp_path.iterdir()) == before
    # Existing targets keep their bytes.
    (tmp_path / "r.tsv").write_bytes(b"old sidecar\n")
    (tmp_path / "full.lgx.xml").write_bytes(b"old lexicon\n")
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    assert (tmp_path / "r.tsv").read_bytes() == b"old sidecar\n"
    assert (tmp_path / "full.lgx.xml").read_bytes() == b"old lexicon\n"
    assert sorted(tmp_path.iterdir()) == before


# A cross-ref is the id of an entry dedup removed: an entry id, of no entry
# the lexicon holds, under one survivor.  In the fixture's full.lgx, PCDN#3
# holds PCDC#2#del#1 and PCDC#3#del#1, and PCDC#4#del#1 holds PCDC#5#del#1.
@pytest.mark.parametrize("fmt", ["text", "xml"])
@pytest.mark.parametrize("ref, message", [
    pytest.param("not an id", "entry 'PCDN#3': cross-ref 'not an id' is not an entry id", id="not-an-id"),
    pytest.param("ADVMP#1", "entry 'PCDN#3': cross-ref 'ADVMP#1' names an entry of the lexicon", id="held"),
    pytest.param(
        "PCDC#3#del#1", "entry 'PCDN#3': cross-ref 'PCDC#3#del#1' is a cross-ref of entry 'PCDN#3' too", id="twice",
    ),
    pytest.param(
        "PCDC#5#del#1", "entry 'PCDC#4#del#1': cross-ref 'PCDC#5#del#1' is a cross-ref of entry 'PCDN#3' too",
        id="two-survivors",
    ),
])
def test_import_refuses_a_cross_ref_dedup_never_makes(tmp_path, capsys, fmt, ref, message):
    _, out, _ = _extend(tmp_path, _compile(tmp_path))
    if fmt == "xml":
        path = tmp_path / "full.lgx.xml"
        assert main(["export", str(out), "-o", str(path)]) == 0
        old, new = "<cross-ref>PCDC#2#del#1</cross-ref>", f"<cross-ref>{ref}</cross-ref>"
    else:
        path, old, new = out, "cross-ref\tPCDC#2#del#1\n", f"cross-ref\t{ref}\n"
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")
    capsys.readouterr()
    assert main(["import", str(path)]) == 1
    assert capsys.readouterr().err == f"lexgram: error: {path}: {message}\n"


def _rename_entry(tmp_path, old, new):
    base = _compile(tmp_path)
    text = base.read_text(encoding="utf-8")
    assert f"entry\t{old}\n" in text
    base.write_text(text.replace(f"entry\t{old}\n", f"entry\t{new}\n"), encoding="utf-8")
    return base


def test_import_rejects_malformed_entry_id(tmp_path, capsys):
    base = _rename_entry(tmp_path, "PAC#2", "weird")
    capsys.readouterr()
    assert main(["import", str(base)]) == 1
    assert "malformed entry id 'weird'" in capsys.readouterr().err
    assert _extend(tmp_path, base)[0] == 1


def test_import_rejects_duplicate_entry_id(tmp_path, capsys):
    base = _rename_entry(tmp_path, "ADVPS#2", "ADVPS#1")
    capsys.readouterr()
    assert main(["import", str(base)]) == 1
    assert "duplicate entry id 'ADVPS#1'" in capsys.readouterr().err
    assert _extend(tmp_path, base)[0] == 1


# =============================================================================
# symbol policy parsing
# =============================================================================

def test_parse_symbols_accepts_comments_and_blanks():
    text = "# policy\n\nPoss2 = leur\nDdef=la  # determiner\n"
    assert parse_symbols(text) == {"Poss2": "leur", "Ddef": "la"}


def test_parse_symbols_rejects_malformed_lines():
    with pytest.raises(LexgramError):
        parse_symbols("Poss2\n")
    with pytest.raises(LexgramError):
        parse_symbols("= leur\n")


# =============================================================================
# files that are not UTF-8
# =============================================================================

@pytest.mark.parametrize("load", [load_table, load_class_matrix, load_script, load_morpho_rules, load_lexicon])
def test_loaders_reject_files_that_are_not_utf8(tmp_path, load):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xc3")
    with pytest.raises(LexgramError, match="bad.txt: not UTF-8 text"):
        load(bad)


@pytest.mark.parametrize("option", ["--classes", "--script", "--morpho", "--symbols", "table"])
def test_compile_rejects_input_files_that_are_not_utf8(tmp_path, capsys, option):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xc3")
    options = {"--classes": FIXTURES / "classes.lgm", "--script": FIXTURES / "extract.lgs"}
    tables = _table_args()
    if option == "table":
        tables = [str(bad)]
    else:
        options[option] = bad
    argv = ["compile", *tables, "-o", str(tmp_path / "base.lgx")]
    for name, path in options.items():
        argv += [name, str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"lexgram: error: {bad}: not UTF-8 text")


def test_stats_rejects_a_sidecar_that_is_not_utf8(tmp_path):
    base = _compile(tmp_path)
    _, out, records = _extend(tmp_path, base)
    records.write_bytes(b"\xc3")
    run = _run_cli("stats", str(out), "--records", str(records))
    assert run.returncode == 1
    assert run.stderr == f"lexgram: error: {records}: not UTF-8 text: " \
        "'utf-8' codec can't decode byte 0xc3 in position 0: unexpected end of data\n"


# =============================================================================
# the program
# =============================================================================

# Run as the program, a command ends its process with os._exit, after it
# has flushed stdout and stderr.  The children run without
# PYTHONUNBUFFERED, so output a missing flush would lose stays in a buffer.

def test_the_program_prints_the_report_of_extend_again_from_stats(tmp_path):
    base = _compile(tmp_path)
    full, records = tmp_path / "full.lgx", tmp_path / "records.tsv"
    extend = _run_cli("extend", str(base), "--records", str(records), "-o", str(full))
    assert extend.returncode == 0, extend.stderr
    with open(tmp_path / "stats.out", "w", encoding="utf-8") as out:
        stats = _run_cli("stats", str(full), "--records", str(records), stdout=out)
    assert stats.returncode == 0, stats.stderr
    assert extend.stdout.startswith("initial entries")
    assert (tmp_path / "stats.out").read_text(encoding="utf-8") == extend.stdout


@pytest.mark.parametrize("fmt", ["text", "xml"])
def test_the_program_exports_to_stdout_the_bytes_it_writes_to_a_file(tmp_path, fmt):
    base = _compile(tmp_path)
    written_to = tmp_path / "out"
    run = _run_cli("export", str(base), "--format", fmt, "-o", str(written_to))
    assert run.returncode == 0, run.stderr
    with open(tmp_path / "stdout", "w", encoding="utf-8") as out:
        run = _run_cli("export", str(base), "--format", fmt, stdout=out)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "stdout").read_bytes() == written_to.read_bytes()


# The internal error is planted by the benchmark's form of the program.
@pytest.mark.parametrize("case, code, message", [
    ("ok", 0, ""),
    ("usage-error", 1, "usage: lexgram [-h] COMMAND ...\nlexgram: error: unrecognized arguments: --frobnicate\n"),
    ("input-error", 1, "lexgram: error: "),
    ("internal-error", 2, "lexgram: internal error: planted\n"),
])
def test_the_program_exits_with_each_code(tmp_path, case, code, message):
    base = _compile(tmp_path)
    missing = tmp_path / "missing.lgx"
    if case == "internal-error":
        run = _run_python("-c", (
            "import lexgram.cli\n"
            "from lexgram.errors import InternalInvariantError\n"
            "def curate(entries):\n"
            "    raise InternalInvariantError('planted')\n"
            "lexgram.cli.curate = curate\n"
            "raise SystemExit(lexgram.cli.main())\n"
        ), "validate", str(base))
    else:
        argv = {"ok": [str(base)], "usage-error": [str(base), "--frobnicate"], "input-error": [str(missing)]}[case]
        run = _run_cli("validate", *argv)
    assert run.returncode == code
    if case == "input-error":
        assert run.stderr.startswith(message) and run.stderr.endswith(f"'{missing}'\n")
    else:
        assert run.stderr == message
    assert (run.stdout != "") is (case == "ok")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("errors_too", [False, True], ids=["stdout", "stdout-and-stderr"])
@pytest.mark.parametrize("command", ["stats", "export"])
def test_the_program_reports_a_stdout_it_cannot_write(tmp_path, command, errors_too):
    base = _compile(tmp_path)
    code, full, records = _extend(tmp_path, base)
    assert code == 0
    # stats prints a few lines that only the flush at the end writes; export
    # prints more than a buffer holds, so its write fails in the command
    argv = ["stats", str(full), "--records", str(records)] if command == "stats" else ["export", str(full)]
    with open("/dev/full", "w") as device:
        run = _run_cli(*argv, stdout=device, stderr=device if errors_too else subprocess.PIPE)
    assert run.returncode == 1
    assert run.stderr == (None if errors_too else "lexgram: error: [Errno 28] No space left on device\n")


# compile warns of a fixture row on stderr; a stderr it cannot write loses
# the warning but changes neither the exit code nor the lexicon.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_the_program_compiles_with_a_stderr_it_cannot_write(tmp_path):
    def compile_to(name, **options):
        return _run_cli(
            "compile", *_table_args(), "--classes", str(FIXTURES / "classes.lgm"),
            "--script", str(FIXTURES / "extract.lgs"), "--morpho", str(FIXTURES / "morpho.rules"),
            "-o", str(tmp_path / name), **options,
        )

    intact = compile_to("base.lgx")
    assert intact.returncode == 0 and intact.stderr.startswith("warning: amalgam-suspect\t")
    with open("/dev/full", "w") as device:
        run = compile_to("base_full.lgx", stderr=device)
    assert run.returncode == 0
    assert (tmp_path / "base_full.lgx").read_bytes() == (tmp_path / "base.lgx").read_bytes()


# A process started with its stdout closed has no sys.stdout; print() then
# writes nothing, and the command still succeeds.
def test_the_program_runs_without_a_stdout(tmp_path):
    base = _compile(tmp_path)
    run = _run_cli("import", str(base), stdout=subprocess.DEVNULL, preexec_fn=lambda: os.close(1))
    assert (run.returncode, run.stderr) == (0, "")


# =============================================================================
# the cyclic garbage collector
# =============================================================================

@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("case, code", [("ok", 0), ("input-error", 1), ("internal-error", 2), ("usage-error", 1)])
def test_cli_runs_commands_with_the_collector_off_and_restores_it(tmp_path, monkeypatch, enabled, case, code):
    base = _compile(tmp_path)
    bad = tmp_path / "bad.lgx"
    bad.write_text("#lgx\t1\n#entries\tnope\n", encoding="utf-8")
    argv = {
        "ok": ["validate", str(base)],
        "input-error": ["validate", str(bad)],
        "internal-error": ["validate", str(base)],
        "usage-error": ["validate", "--frobnicate"],
    }[case]
    seen = []

    def watched_curate(entries):
        seen.append(gc.isenabled())
        if case == "internal-error":
            raise InternalInvariantError("planted")
        return curate(entries)

    monkeypatch.setattr(lexgram.cli, "curate", watched_curate)
    was_enabled = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert seen == ([False] if case in ("ok", "internal-error") else [])


def _unreachable_after_chain(directory: Path, table_ids: tuple[str, ...]) -> tuple[int, int]:
    """Run the library chain over a corpus with the collector off: compile,
    text round trip, extension, curation, stats recomputation, XML round
    trip.  Return the base entry count and the number of objects in
    unreachable cycles the chain leaves."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        doc = import_text(export_lexicon(compile_corpus(directory, table_ids)))
        result = run_pipeline(
            doc.entries, parse_script(doc.script_source, source="<embedded script>"), rules=load_fixture_morpho(),
        )
        curate(result.entries)
        recompute_stats(result.entries, parse_records(written(export_records, result.records)))
        extended = LexiconDocument(result.entries, doc.table_ids, doc.script_source)
        assert import_xml(export_lexicon(extended, "xml")) == extended
        base_entries = len(doc.entries)
        del doc, result, extended
        return base_entries, gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def test_the_lexicon_chain_leaves_no_cycles_per_entry(tmp_path):
    for name, content in corpusgen.generate(0, row_range=(400, 400)).items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    table_ids = tuple(sorted(path.stem for path in tmp_path.glob("*.lgt")))
    fixture_entries, fixture_garbage = _unreachable_after_chain(FIXTURES, TABLE_IDS)
    large_entries, large_garbage = _unreachable_after_chain(tmp_path, table_ids)
    assert large_entries >= 10 * fixture_entries
    assert large_garbage == fixture_garbage
