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
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    DuplicateClassId,
    DuplicateFeatureId,
    InconsistentMatrix,
    MatrixFormatError,
    RowArityMismatch,
    TableFormatError,
    UnknownCellToken,
    UnknownSlotSymbol,
    UnknownValueToken,
    read_text,
)
from .issues import IssueKind, ValidationIssue

ENT_PREFIX = "<ENT>"
EMPTY_TOKEN = "<E>"


# =============================================================================
# cell values
# =============================================================================

class CellKind(enum.Enum):
    PLUS = "+"
    MINUS = "-"
    EMPTY = "<E>"
    LEX = "lex"


@dataclass(frozen=True)
class Cell:
    """One table cell: an acceptability mark, the empty symbol, or text."""

    kind: CellKind
    text: str | None = None

    def __post_init__(self):
        if self.kind is CellKind.LEX and not self.text:
            raise ValueError("lexical cell requires non-empty text")
        if self.kind is not CellKind.LEX and self.text is not None:
            raise ValueError(f"{self.kind.name} cell carries no text")

    @property
    def is_plus(self) -> bool:
        return self.kind is CellKind.PLUS


PLUS = Cell(CellKind.PLUS)
MINUS = Cell(CellKind.MINUS)
EMPTY = Cell(CellKind.EMPTY)


def lex(text: str) -> Cell:
    return Cell(CellKind.LEX, text)


# =============================================================================
# features and slots
# =============================================================================

class FeatureKind(enum.Enum):
    BINARY = "binary"
    ENTRY_COMPONENT = "entry-component"
    AUX_LEXICAL = "aux-lexical"


@dataclass(frozen=True)
class FeatureDef:
    feature_id: str
    kind: FeatureKind

    @property
    def slot_name(self) -> str:
        """Feature id with the ``<ENT>`` marker stripped."""
        if self.feature_id.startswith(ENT_PREFIX):
            return self.feature_id[len(ENT_PREFIX):].strip()
        return self.feature_id


@dataclass(frozen=True)
class SlotRef:
    """A component slot of a class structure, e.g. ``Prép1`` or ``Modif pré-adj``."""

    name: str
    subscript: str | None = None

    @property
    def symbol(self) -> str:
        return self.name + (self.subscript or "")


def _build_slot_symbols() -> dict[str, SlotRef]:
    table: dict[str, SlotRef] = {}
    for base, subs in (("Prép", "12v"), ("Det", "12v"), ("C", "12v"), ("N", "12")):
        table[base] = SlotRef(base)
        for sub in subs:
            table[base + sub] = SlotRef(base, sub)
    for atom in ("Modif pré-adj", "Adj", "V", "Conjc", "ConjS", "Adv"):
        table[atom] = SlotRef(atom)
    return table


# Closed set of component symbols; anything else in an <ENT> header is an error.
SLOT_SYMBOLS = _build_slot_symbols()


def parse_slot(symbol: str, source: str | None = None, line: int | None = None) -> SlotRef:
    ref = SLOT_SYMBOLS.get(symbol.strip())
    if ref is None:
        raise UnknownSlotSymbol(f"unknown component symbol {symbol!r}", source, line)
    return ref


def parse_structure_label(label: str, source: str | None = None, line: int | None = None) -> tuple[SlotRef, ...]:
    """Parse a space-joined structure label such as ``Prép Det Modif pré-adj Adj C``.

    Multi-word symbols are matched greedily (``Modif pré-adj`` is one slot).
    """
    words = label.split()
    refs: list[SlotRef] = []
    i = 0
    while i < len(words):
        two = " ".join(words[i:i + 2])
        if two in SLOT_SYMBOLS:
            refs.append(SLOT_SYMBOLS[two])
            i += 2
        elif words[i] in SLOT_SYMBOLS:
            refs.append(SLOT_SYMBOLS[words[i]])
            i += 1
        else:
            raise UnknownSlotSymbol(f"unknown component symbol {words[i]!r} in {label!r}", source, line)
    return tuple(refs)


# =============================================================================
# class tables
# =============================================================================

@dataclass
class LgTable:
    """A parsed class table.  Treated as immutable after construction."""

    table_id: str
    features: tuple[FeatureDef, ...]
    structure: tuple[SlotRef, ...]
    rows: tuple[tuple[Cell, ...], ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {f.feature_id: i for i, f in enumerate(self.features)}

    def has_feature(self, feature_id: str) -> bool:
        return feature_id in self._index

    def cell(self, row: tuple[Cell, ...], feature_id: str) -> Cell:
        return row[self._index[feature_id]]

    def structure_label(self) -> str:
        return " ".join(ref.symbol for ref in self.structure)

    def columns_of_kind(self, *kinds: FeatureKind) -> list[FeatureDef]:
        wanted = set(kinds)
        return [f for f in self.features if f.kind in wanted]


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
            raise DuplicateFeatureId(f"duplicate feature id {fid!r}", source, 1)
        seen.add(fid)

    raw_rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = [c.strip() for c in raw.rstrip("\n").split("\t")]
        if len(cells) != len(header):
            raise RowArityMismatch(
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
    structure = tuple(
        parse_slot(f.slot_name, source, 1) for f in features if f.kind is FeatureKind.ENTRY_COMPONENT
    )

    # Second pass: classify cells against the column kind.
    rows: list[tuple[Cell, ...]] = []
    for lineno, cells in raw_rows:
        parsed: list[Cell] = []
        for fdef, token in zip(features, cells):
            if fdef.kind is FeatureKind.BINARY:
                parsed.append(PLUS if token == "+" else MINUS)
            elif token == EMPTY_TOKEN:
                parsed.append(EMPTY)
            elif token in ("+", "-", ""):
                raise UnknownCellToken(
                    f"cell {token!r} not allowed in lexical column {fdef.feature_id!r}",
                    source, lineno,
                )
            else:
                parsed.append(lex(token))
        rows.append(tuple(parsed))

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
            raise DuplicateFeatureId(f"duplicate feature id {fid!r}", source, 1)
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
            raise DuplicateClassId(f"duplicate class id {class_id!r}", source, lineno)
        values = tokens[1:]
        if len(values) > len(features):
            raise RowArityMismatch(
                f"row has {len(values)} cells, header has {len(features)} feature columns",
                source, lineno,
            )
        classes.append(class_id)
        for fid, token in zip(features, values):  # short rows: missing cells stay undefined
            validity = _MATRIX_TOKENS.get(token)
            if validity is None:
                raise UnknownValueToken(f"unknown matrix value {token!r}", source, lineno)
            if validity is not Validity.UNDEFINED:
                cells[(class_id, fid)] = validity
    return ClassMatrix(tuple(classes), tuple(features), cells)


def load_class_matrix(path: str | Path) -> ClassMatrix:
    return parse_class_matrix(read_text(path), source=str(path))


def resolve_features(table: LgTable, matrix: ClassMatrix) -> LgTable:
    """Append synthetic columns for the class-constant features of ``table``.

    Always-valid features absent from the table become all-plus columns,
    always-invalid ones all-minus.  Per-entry features must already be
    columns.  Idempotent: features already present are left untouched.
    """
    if not matrix.has_class(table.table_id):
        raise InconsistentMatrix(f"class {table.table_id!r} not found in the class matrix")

    new_features = list(table.features)
    new_cells: list[Cell] = []
    for fid in matrix.features:
        validity = matrix.validity(table.table_id, fid)
        if validity is Validity.UNDEFINED:
            continue
        if table.has_feature(fid):
            continue
        if validity is Validity.PER_ENTRY:
            raise InconsistentMatrix(
                f"feature {fid!r} is per-entry for class {table.table_id!r} "
                "but the table has no such column"
            )
        new_features.append(FeatureDef(fid, FeatureKind.BINARY))
        new_cells.append(PLUS if validity is Validity.ALWAYS_VALID else MINUS)

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
    component_cols = table.columns_of_kind(FeatureKind.ENTRY_COMPONENT)
    for i, row in enumerate(table.rows, start=1):
        row_id = f"{table.table_id}#{i}"
        comp_cells = [table.cell(row, f.feature_id) for f in component_cols]
        if comp_cells and all(c.kind is CellKind.EMPTY for c in comp_cells):
            issues.append(ValidationIssue(IssueKind.EMPTY_ENTRY, row_id, "all components empty"))
        for fdef, cell in zip(component_cols, comp_cells):
            if cell.kind is CellKind.LEX and (
                _TRAILING_HYPHEN.search(cell.text) or cell.text.startswith("-")
            ):
                issues.append(ValidationIssue(
                    IssueKind.AMALGAM_SUSPECT, row_id,
                    f"component {fdef.slot_name} is {cell.text!r}",
                ))
    return issues
