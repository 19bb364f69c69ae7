from __future__ import annotations

import pytest

from conftest import fixture_path
from lexgram.errors import MatrixFormatError, TableFormatError, UnknownSlotSymbol
from lexgram.model import IssueKind
from lexgram.tables import (
    FeatureKind,
    LgTable,
    Validity,
    load_class_matrix,
    load_table,
    parse_class_matrix,
    parse_structure_label,
    parse_table,
    resolve_features,
    validate_table,
)

SMALL = (
    "<ENT>Prép1\t<ENT>Det1\t<ENT>C1\tPpv\tfeat A\tfeat B\n"
    "à\tla\tminute\til y a\t+\t-\n"
    "de\t<E>\tnuit\t<E>\t-\t+\n"
)


def _small() -> LgTable:
    return parse_table(SMALL, "T")


def test_column_kinds_are_derived_from_content():
    table = _small()
    kinds = {f.feature_id: f.kind for f in table.features}
    assert kinds["<ENT>Prép1"] is FeatureKind.ENTRY_COMPONENT
    assert kinds["Ppv"] is FeatureKind.AUX_LEXICAL
    assert kinds["feat A"] is FeatureKind.BINARY
    assert kinds["feat B"] is FeatureKind.BINARY


def test_structure_label_joins_component_slots():
    assert _small().structure_label() == "Prép1 Det1 C1"


def test_cell_kinds():
    table = _small()
    assert table.cell(table.rows[0], "<ENT>C1") == "minute"
    assert table.cell(table.rows[1], "<ENT>Det1") == ""
    assert table.cell(table.rows[0], "feat A") == "+"
    assert table.cell(table.rows[1], "feat A") == "-"


def test_empty_token_allowed_only_in_lexical_columns():
    bad = "<ENT>C1\tfeat\nnuit\t<E>\n"
    # a column containing <E> is not all +/- so it is lexical, never binary
    table = parse_table(bad, "T")
    assert table.features[1].kind is FeatureKind.AUX_LEXICAL


def test_plus_in_lexical_column_is_rejected():
    bad = "<ENT>C1\tnote\nnuit\t+\njour\ttexte\n"
    with pytest.raises(TableFormatError, match="not allowed in lexical column"):
        parse_table(bad, "T")


def test_duplicate_feature_id_is_rejected():
    with pytest.raises(TableFormatError, match="duplicate feature id"):
        parse_table("<ENT>C1\tfeat\tfeat\nnuit\t+\t-\n", "T")


def test_row_arity_mismatch_is_rejected():
    with pytest.raises(TableFormatError, match="row has 1 cells, header has 2 columns"):
        parse_table("<ENT>C1\tfeat\nnuit\n", "T")


def test_missing_header_is_rejected():
    with pytest.raises(TableFormatError):
        parse_table("", "T")


def test_unknown_slot_symbol_in_component_header():
    with pytest.raises(UnknownSlotSymbol):
        parse_table("<ENT>Verb\nmange\n", "T")


def test_parse_structure_label_greedy_two_word_symbol():
    label = "Prép1 Det1 C1 Modif pré-adj Adj"
    slots = parse_structure_label(label)
    assert slots == ("Prép1", "Det1", "C1", "Modif pré-adj", "Adj")


def test_parse_structure_label_rejects_unknown_word():
    with pytest.raises(UnknownSlotSymbol):
        parse_structure_label("Prép1 Verbe")


# --- class matrix -------------------------------------------------------------

MATRIX = (
    "class\tfa\tfb\tfc\n"
    "T\t+\to\t-\n"
    "U\t-\t\n"
)


def test_matrix_values_and_padding():
    matrix = parse_class_matrix(MATRIX)
    assert matrix.validity("T", "fa") is Validity.ALWAYS_VALID
    assert matrix.validity("T", "fb") is Validity.PER_ENTRY
    assert matrix.validity("T", "fc") is Validity.ALWAYS_INVALID
    assert matrix.validity("U", "fb") is Validity.UNDEFINED
    assert matrix.validity("U", "fc") is Validity.UNDEFINED


def test_matrix_rejects_unknown_token():
    with pytest.raises(MatrixFormatError, match="unknown matrix value"):
        parse_class_matrix("class\tfa\nT\tx\n")


def test_matrix_rejects_duplicate_class():
    with pytest.raises(MatrixFormatError, match="duplicate class id"):
        parse_class_matrix("class\tfa\nT\t+\nT\t-\n")


@pytest.mark.parametrize("text", ["", "class\tfa\n\t+\n"], ids=["empty", "no-class-id"])
def test_matrix_format_errors(text):
    with pytest.raises(MatrixFormatError):
        parse_class_matrix(text)


def test_matrix_rejects_overlong_row():
    with pytest.raises(MatrixFormatError, match="row has 2 cells, header has 1 feature columns"):
        parse_class_matrix("class\tfa\nT\t+\t-\n")


def test_resolve_features_appends_synthetic_columns():
    table = parse_table("<ENT>C1\tfb\nnuit\t+\n", "T")
    matrix = parse_class_matrix("class\tfa\tfb\tfc\nT\t+\to\t-\n")
    resolved = resolve_features(table, matrix)
    kinds = {f.feature_id: f.kind for f in resolved.features}
    assert kinds["fa"] is FeatureKind.BINARY
    assert kinds["fc"] is FeatureKind.BINARY
    row = resolved.rows[0]
    assert resolved.cell(row, "fa") == "+"
    assert resolved.cell(row, "fc") == "-"
    # the per-entry column keeps its original value
    assert resolved.cell(row, "fb") == "+"


def test_resolve_features_is_idempotent():
    table = parse_table("<ENT>C1\nnuit\n", "T")
    matrix = parse_class_matrix("class\tfa\nT\t+\n")
    once = resolve_features(table, matrix)
    assert resolve_features(once, matrix) == once


def test_resolve_features_requires_per_entry_column():
    table = parse_table("<ENT>C1\nnuit\n", "T")
    matrix = parse_class_matrix("class\tfa\nT\to\n")
    with pytest.raises(MatrixFormatError, match="is per-entry for class 'T' but the table has no such column"):
        resolve_features(table, matrix)


def test_resolve_features_requires_known_class():
    table = parse_table("<ENT>C1\nnuit\n", "X")
    matrix = parse_class_matrix("class\tfa\nT\t+\n")
    with pytest.raises(MatrixFormatError, match="class 'X' not found in the class matrix"):
        resolve_features(table, matrix)


def test_validate_table_flags_empty_entry_and_amalgam():
    table = parse_table(
        "<ENT>Prép1\t<ENT>C1\nà\theure-\n<E>\t<E>\n", "T"
    )
    issues = validate_table(table)
    kinds = [(i.kind, i.entry_id) for i in issues]
    assert (IssueKind.AMALGAM_SUSPECT, "T#1") in kinds
    assert (IssueKind.EMPTY_ENTRY, "T#2") in kinds


def test_fixture_tables_load_and_resolve():
    matrix = load_class_matrix(fixture_path("classes.lgm"))
    pca = resolve_features(load_table(fixture_path("PCA.lgt")), matrix)
    assert pca.structure_label() == "Prép1 Det1 C1 Modif pré-adj Adj"
    assert len(pca.rows) == 10
    # the class-constant feature is appended as an all-plus column
    assert all(pca.cell(row, "N0 V Adv W") == "+" for row in pca.rows)
