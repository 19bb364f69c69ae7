"""Every parser of a user input file reads it or raises a LexgramError."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import compile_corpus, fixture_path, load_fixture_morpho, load_fixture_script, written
from lexgram.errors import (
    LexgramError,
    MatrixFormatError,
    RealizationError,
    TableFormatError,
    UnknownSlotSymbol,
)
from lexgram.expansion import run_pipeline
from lexgram.formats import export_records, parse_records
from lexgram.realizer import DEFAULT_SYMBOLS, parse_morpho_rules, parse_symbols
from lexgram.script import parse_script
from lexgram.tables import parse_class_matrix, parse_table, resolve_features
from test_formats import _TEXT_MUTATIONS, mutate


def _fixture(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def _record_sidecar() -> str:
    doc = compile_corpus()
    result = run_pipeline(doc.entries, load_fixture_script(), rules=load_fixture_morpho())
    return written(export_records, result.records)


# name -> (parser, the unmutated input it reads)
_PARSERS = {
    "table": (lambda text: parse_table(text, "PCA", "PCA.lgt"), _fixture("PCA.lgt")),
    "class-matrix": (lambda text: parse_class_matrix(text, "classes.lgm"), _fixture("classes.lgm")),
    "script": (lambda text: parse_script(text, "extract.lgs"), _fixture("extract.lgs")),
    "morpho-rules": (lambda text: parse_morpho_rules(text, "morpho.rules"), _fixture("morpho.rules")),
    "symbols": (
        lambda text: parse_symbols(text, "symbols"),
        "# symbol policy\n" + "".join(f"{token} = {value}\n" for token, value in DEFAULT_SYMBOLS.items()),
    ),
    "records": (parse_records, _record_sidecar()),
}


# A seed drives the mutations, as in test_formats.
@pytest.mark.parametrize("name", list(_PARSERS))
@given(seed=st.integers(0, 2**32))
def test_parsers_read_mutated_input_or_raise_input_errors(name, seed):
    parse, text = _PARSERS[name]
    parse(text)
    try:
        parse(mutate(text, random.Random(seed), _TEXT_MUTATIONS))
    except LexgramError:
        pass


def test_each_kind_of_input_raises_its_own_class():
    with pytest.raises(MatrixFormatError, match="duplicate feature id 'fa'"):
        parse_class_matrix("class\tfa\tfa\nT\t+\t-\n")
    with pytest.raises(MatrixFormatError, match="row has 2 cells, header has 1 feature columns"):
        parse_class_matrix("class\tfa\nT\t+\t-\n")
    table = parse_table("<ENT>C1\nnuit\n", "T")
    with pytest.raises(MatrixFormatError, match="class 'T' not found"):
        resolve_features(table, parse_class_matrix("class\tfa\nU\t+\n"))
    with pytest.raises(MatrixFormatError, match="is per-entry for class 'T'"):
        resolve_features(table, parse_class_matrix("class\tfa\nT\to\n"))
    with pytest.raises(UnknownSlotSymbol) as err:
        parse_table("<ENT>Verb\nmange\n", "T")
    assert not isinstance(err.value, TableFormatError)
    with pytest.raises(RealizationError, match=r"^bad\.sym:1: bad symbol line: 'x'$"):
        parse_symbols("x\n", "bad.sym")
    with pytest.raises(RealizationError, match=r"^bad\.sym:2: unknown symbolic token 'Dind' "):
        parse_symbols("Ddef = la\nDind = une\n", "bad.sym")


@pytest.mark.parametrize("parse, text, message", [
    (parse_symbols, "Poss2 = son\n# again\nPoss2 = leur\n", "bad.txt:3: duplicate symbolic token 'Poss2'"),
    (parse_morpho_rules, "elide le = l'\nelide la = l'\nelide  le = l\n", "bad.txt:3: duplicate elide rule for 'le'"),
    (parse_morpho_rules, "contract de le = du\ncontract de  le = du\n", "bad.txt:2: duplicate contract rule for 'de le'"),
])
def test_rule_files_refuse_a_repeated_key(parse, text, message):
    with pytest.raises(RealizationError) as err:
        parse(text, "bad.txt")
    assert str(err.value) == message


def test_vowels_and_mute_h_lines_add_up():
    rules = parse_morpho_rules("vowels a e\nvowels e i\nmute-h heure\nmute-h homme heure\n")
    assert rules.vowels == frozenset("aei")
    assert rules.mute_h == frozenset({"heure", "homme"})
