"""Lexicon-grammar class tables and the table-of-classes matrix.

A class table is a tab-delimited matrix: one row per lexical item of the
class, one column per feature.  Column headers are feature identifiers taken
verbatim (they may contain spaces, ``=`` signs or commas).  Columns whose
identifier starts with ``<ENT>`` hold the lexical components of the entry;
their order defines the morphosyntactic structure of the class.  Other
columns hold either binary acceptability values (``+``/``-``) or auxiliary
lexical material.  The empty component is written ``<E>``.

The table of classes records, for every (class, feature) pair, whether the
feature is valid for all entries of the class (``+``), invalid for all
(``-``), decided entry by entry inside the class table (``o``), or undefined
(blank cell).  ``resolve_features`` folds the class-constant values back into
a table as synthetic all-plus / all-minus columns.
"""

from __future__ import annotations

import enum
import re
from itertools import compress
from pathlib import Path

from .errors import MatrixFormatError, TableFormatError, UnknownSlotSymbol
from .files import read_text
from .model import EMPTY_TOKEN, Fields, FrozenFields, IssueKind, ValidationIssue, entry_id

ENT_PREFIX = "<ENT>"


# =============================================================================
# features and slots
# =============================================================================

class FeatureKind(enum.Enum):
    BINARY = "binary"
    ENTRY_COMPONENT = "entry-component"
    AUX_LEXICAL = "aux-lexical"


class FeatureDef(FrozenFields):
    __match_args__ = ("feature_id", "kind")

    def __init__(self, feature_id: str, kind: FeatureKind):
        object.__setattr__(self, "feature_id", feature_id)
        object.__setattr__(self, "kind", kind)

    @property
    def slot_name(self) -> str:
        """Feature id with the ``<ENT>`` marker stripped."""
        if self.feature_id.startswith(ENT_PREFIX):
            return self.feature_id[len(ENT_PREFIX):].strip()
        return self.feature_id


# Closed set of component symbols; anything else in an <ENT> header is an error.
SLOT_SYMBOLS = frozenset(
    [base + sub for base, subs in (("Prép", "12v"), ("Det", "12v"), ("C", "12v"), ("N", "12"))
     for sub in ("", *subs)]
    + ["Modif pré-adj", "Adj", "V", "Conjc", "ConjS", "Adv"]
)


def parse_structure_label(label: str, source: str | None = None, line: int | None = None) -> tuple[str, ...]:
    """Parse a space-joined structure label such as ``Prép Det Modif pré-adj Adj C``.

    Multi-word symbols are matched greedily (``Modif pré-adj`` is one slot).
    """
    words = label.split()
    symbols: list[str] = []
    i = 0
    while i < len(words):
        two = " ".join(words[i:i + 2])
        if two in SLOT_SYMBOLS:
            symbols.append(two)
            i += 2
        elif words[i] in SLOT_SYMBOLS:
            symbols.append(words[i])
            i += 1
        else:
            raise UnknownSlotSymbol(f"unknown component symbol {words[i]!r} in {label!r}", source, line)
    return tuple(symbols)


# =============================================================================
# class tables
# =============================================================================

class LgTable(Fields):
    """A parsed class table.  Treated as immutable after construction.

    A row holds one string per column: ``"+"`` or ``"-"`` in a binary
    column, the cell text in a lexical one (``""`` for ``<E>``).  The
    structure holds the slot symbols of the ``<ENT>`` columns, in order.
    """

    __match_args__ = ("table_id", "features", "structure", "rows")

    def __init__(
        self,
        table_id: str,
        features: tuple[FeatureDef, ...],
        structure: tuple[str, ...],
        rows: tuple[tuple[str, ...], ...],
    ):
        self.table_id = table_id
        self.features = features
        self.structure = structure
        self.rows = rows
        self._index = {f.feature_id: i for i, f in enumerate(features)}  # not a field

    def has_feature(self, feature_id: str) -> bool:
        return feature_id in self._index

    def cell(self, row: tuple[str, ...], feature_id: str) -> str:
        return row[self._index[feature_id]]

    def structure_label(self) -> str:
        return " ".join(self.structure)

    def columns(self, kind: FeatureKind) -> list[tuple[int, FeatureDef]]:
        """The columns of one kind, with their positions in a row."""
        return [(i, f) for i, f in enumerate(self.features) if f.kind is kind]


def parse_table(text: str, table_id: str, source: str | None = None) -> LgTable:
    """Parse one ``.lgt`` file.

    The first line is the header.  Column kinds are derived from the data:
    ``<ENT>``-marked columns are entry components, columns whose cells are
    all ``+``/``-`` are binary, anything else is auxiliary lexical material.
    Finer kinds (paraphrase, deletion, ...) are assigned later from the
    extraction script, not guessed here.
    """
    lines = text.split("\n")
    if not lines or not lines[0].strip():
        raise TableFormatError("missing header line", source, 1)

    header = [h.strip() for h in lines[0].rstrip().split("\t")]
    seen: set[str] = set()
    for fid in header:
        if not fid:
            raise TableFormatError("empty feature id in header", source, 1)
        if fid in seen:
            raise TableFormatError(f"duplicate feature id {fid!r}", source, 1)
        seen.add(fid)

    raw_rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = [c.strip() for c in raw.rstrip("\n").split("\t")]
        if len(cells) != len(header):
            raise TableFormatError(
                f"row has {len(cells)} cells, header has {len(header)} columns", source, lineno
            )
        raw_rows.append((lineno, cells))

    # First pass: decide the value domain of every column.
    kinds: list[FeatureKind] = []
    for col, fid in enumerate(header):
        if fid.startswith(ENT_PREFIX):
            kinds.append(FeatureKind.ENTRY_COMPONENT)
        elif all(cells[col] in ("+", "-") for _, cells in raw_rows):
            kinds.append(FeatureKind.BINARY)
        else:
            kinds.append(FeatureKind.AUX_LEXICAL)

    features = tuple(FeatureDef(fid, kind) for fid, kind in zip(header, kinds))
    structure = tuple(f.slot_name for f in features if f.kind is FeatureKind.ENTRY_COMPONENT)
    for symbol in structure:
        if symbol not in SLOT_SYMBOLS:
            raise UnknownSlotSymbol(f"unknown component symbol {symbol!r}", source, 1)

    # Second pass: check the lexical cells; a binary column holds only +/-.
    lexical = [(col, f.feature_id) for col, f in enumerate(features) if f.kind is not FeatureKind.BINARY]
    rows: list[tuple[str, ...]] = []
    for lineno, cells in raw_rows:
        for col, fid in lexical:
            if cells[col] in ("+", "-", ""):
                raise TableFormatError(
                    f"cell {cells[col]!r} not allowed in lexical column {fid!r}", source, lineno
                )
        rows.append(tuple("" if token == EMPTY_TOKEN else token for token in cells))

    return LgTable(table_id, features, structure, tuple(rows))


def load_table(path: str | Path) -> LgTable:
    path = Path(path)
    return parse_table(read_text(path), path.stem, source=str(path))


# =============================================================================
# table of classes
# =============================================================================

class Validity(enum.Enum):
    ALWAYS_VALID = "+"
    ALWAYS_INVALID = "-"
    PER_ENTRY = "o"
    UNDEFINED = ""


class ClassMatrix(Fields):
    """The table of classes, keeping only its defined cells: ``cells`` maps
    each class to its defined features and their values, in header order."""

    __match_args__ = ("classes", "features", "cells")

    def __init__(self, classes: tuple[str, ...], features: tuple[str, ...], cells: dict[str, dict[str, Validity]]):
        self.classes = classes
        self.features = features
        self.cells = cells

    def validity(self, class_id: str, feature_id: str) -> Validity:
        return self.cells.get(class_id, {}).get(feature_id, Validity.UNDEFINED)

    def has_class(self, class_id: str) -> bool:
        return class_id in self.cells


_MATRIX_TOKENS = {v.value: v for v in Validity}


def parse_class_matrix(text: str, source: str | None = None) -> ClassMatrix:
    """Parse the ``classes.lgm`` file: one row per class, one column per feature."""
    lines = text.split("\n")
    if not lines[0].strip():
        raise MatrixFormatError("missing header line", source, 1)
    header = [h.strip() for h in lines[0].rstrip().split("\t")]
    features = header[1:]
    seen_f: set[str] = set()
    for fid in features:
        if not fid:
            raise MatrixFormatError("empty feature id in header", source, 1)
        if fid in seen_f:
            raise MatrixFormatError(f"duplicate feature id {fid!r}", source, 1)
        seen_f.add(fid)

    cells: dict[str, dict[str, Validity]] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        class_id, *values = map(str.strip, raw.split("\t"))
        if not class_id:
            raise MatrixFormatError("missing class id", source, lineno)
        if class_id in cells:
            raise MatrixFormatError(f"duplicate class id {class_id!r}", source, lineno)
        if len(values) > len(features):
            raise MatrixFormatError(
                f"row has {len(values)} cells, header has {len(features)} feature columns",
                source, lineno,
            )
        if not _MATRIX_TOKENS.keys() >= set(values):
            token = next(t for t in values if t not in _MATRIX_TOKENS)
            raise MatrixFormatError(f"unknown matrix value {token!r}", source, lineno)
        # Blank cells are undefined and not kept; short rows stop at their last cell.
        defined = compress(features, values)
        cells[class_id] = dict(zip(defined, map(_MATRIX_TOKENS.__getitem__, filter(None, values))))
    return ClassMatrix(tuple(cells), tuple(features), cells)


def load_class_matrix(path: str | Path) -> ClassMatrix:
    return parse_class_matrix(read_text(path), source=str(path))


def resolve_features(table: LgTable, matrix: ClassMatrix) -> LgTable:
    """Append synthetic columns for the class-constant features of ``table``.

    Always-valid features absent from the table become all-plus columns,
    always-invalid ones all-minus.  Per-entry features must already be
    columns.  Idempotent: features already present are left untouched.
    """
    defined = matrix.cells.get(table.table_id)
    if defined is None:
        raise MatrixFormatError(f"class {table.table_id!r} not found in the class matrix")

    new_features = list(table.features)
    new_cells: list[str] = []
    for fid, validity in defined.items():
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


# =============================================================================
# table-level validation
# =============================================================================

_TRAILING_HYPHEN = re.compile(r"-\s*$")


def validate_table(table: LgTable) -> list[ValidationIssue]:
    """Heuristic checks over rows.  Issues are data, not errors."""
    issues: list[ValidationIssue] = []
    component_cols = table.columns(FeatureKind.ENTRY_COMPONENT)
    for n, row in enumerate(table.rows, start=1):
        row_id = entry_id(table.table_id, n)
        if component_cols and not any(row[i] for i, _ in component_cols):
            issues.append(ValidationIssue(IssueKind.EMPTY_ENTRY, row_id, "all components empty"))
        for i, fdef in component_cols:
            if _TRAILING_HYPHEN.search(row[i]) or row[i].startswith("-"):
                issues.append(ValidationIssue(
                    IssueKind.AMALGAM_SUSPECT, row_id,
                    f"component {fdef.slot_name} is {row[i]!r}",
                ))
    return issues
