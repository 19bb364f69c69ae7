"""The class-matrix parser and feature resolution, kept as a test oracle.

``lexgram.tables`` keeps only the defined cells of the table of classes,
indexed by class, checks each row with whole-row operations and resolves a
table from its class's cells alone.  This module is the implementation it
replaced, copied unchanged: one dict entry per defined (class, feature)
pair, a check and a store per cell, and a ``validity`` lookup for every
feature of the matrix when a table is resolved.  The differential tests in
``test_tables.py`` check that both parse the same matrices, refuse the
same ones with the same message and line, and resolve tables alike.  The
one difference is deliberate: ``lexgram.tables`` refuses an empty feature
id in the header, which this module accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

from lexgram.errors import MatrixFormatError
from lexgram.tables import FeatureDef, FeatureKind, LgTable, Validity


@dataclass
class ClassMatrix:
    classes: tuple[str, ...]
    features: tuple[str, ...]
    cells: dict[tuple[str, str], Validity]

    def validity(self, class_id: str, feature_id: str) -> Validity:
        return self.cells.get((class_id, feature_id), Validity.UNDEFINED)

    def has_class(self, class_id: str) -> bool:
        return class_id in self.classes


_MATRIX_TOKENS = {v.value: v for v in Validity}


def parse_class_matrix(text: str, source: str | None = None) -> ClassMatrix:
    """Parse the ``classes.lgm`` file: one row per class, one column per feature."""
    lines = text.split("\n")
    if not lines or not lines[0].strip():
        raise MatrixFormatError("missing header line", source, 1)
    header = [h.strip() for h in lines[0].rstrip().split("\t")]
    features = header[1:]
    seen_f: set[str] = set()
    for fid in features:
        if fid in seen_f:
            raise MatrixFormatError(f"duplicate feature id {fid!r}", source, 1)
        seen_f.add(fid)

    classes: list[str] = []
    cells: dict[tuple[str, str], Validity] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        tokens = [c.strip() for c in raw.rstrip("\n").split("\t")]
        class_id = tokens[0]
        if not class_id:
            raise MatrixFormatError("missing class id", source, lineno)
        if class_id in classes:
            raise MatrixFormatError(f"duplicate class id {class_id!r}", source, lineno)
        values = tokens[1:]
        if len(values) > len(features):
            raise MatrixFormatError(
                f"row has {len(values)} cells, header has {len(features)} feature columns",
                source, lineno,
            )
        classes.append(class_id)
        for fid, token in zip(features, values):  # short rows: missing cells stay undefined
            validity = _MATRIX_TOKENS.get(token)
            if validity is None:
                raise MatrixFormatError(f"unknown matrix value {token!r}", source, lineno)
            if validity is not Validity.UNDEFINED:
                cells[(class_id, fid)] = validity
    return ClassMatrix(tuple(classes), tuple(features), cells)


def resolve_features(table: LgTable, matrix: ClassMatrix) -> LgTable:
    """Append synthetic columns for the class-constant features of ``table``.

    Always-valid features absent from the table become all-plus columns,
    always-invalid ones all-minus.  Per-entry features must already be
    columns.  Idempotent: features already present are left untouched.
    """
    if not matrix.has_class(table.table_id):
        raise MatrixFormatError(f"class {table.table_id!r} not found in the class matrix")

    new_features = list(table.features)
    new_cells: list[str] = []
    for fid in matrix.features:
        validity = matrix.validity(table.table_id, fid)
        if validity is Validity.UNDEFINED:
            continue
        if table.has_feature(fid):
            continue
        if validity is Validity.PER_ENTRY:
            raise MatrixFormatError(
                f"feature {fid!r} is per-entry for class {table.table_id!r} "
                "but the table has no such column"
            )
        new_features.append(FeatureDef(fid, FeatureKind.BINARY))
        new_cells.append("+" if validity is Validity.ALWAYS_VALID else "-")

    if not new_cells:
        return table
    rows = tuple(row + tuple(new_cells) for row in table.rows)
    return LgTable(table.table_id, tuple(new_features), table.structure, rows)
