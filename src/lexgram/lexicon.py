"""Lexicon entries and base generation.

Every table row becomes exactly one base entry.  An entry is self-contained:
besides its surface it carries the component cells, the auxiliary lexical
cells and all binary feature values of its row, so later processing steps
need the script but not the original table files.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from .errors import LexgramError, UnboundPlaceholder
from .realizer import (
    DEFAULT_RULES,
    DEFAULT_SYMBOLS,
    Bindings,
    MorphoRules,
    SurfaceForm,
    realize,
)
from .script import (
    Action,
    ExtractionScript,
    Placeholder,
    Template,
    expand_alternation,
)
from .tables import FeatureKind, LgTable


class Origin(enum.Enum):
    BASE = "base"
    PARAPHRASE_DIRECT = "paraphrase-direct"
    PARAPHRASE_CONSTRUCTION = "paraphrase-construction"
    DELETION = "deletion"
    PERMUTATION = "permutation"
    TRANSFORMATION = "transformation"
    INTENSIFICATION = "intensification"

    # Members are singletons and compare by identity, so the identity hash
    # agrees with equality; Enum's own hashes the name in Python code, and
    # the pipeline hashes an origin for every variant it counts.
    __hash__ = object.__hash__


# Canonical pass order; also the order variants appear in the output lexicon.
PASS_ORDER = (
    Origin.PARAPHRASE_DIRECT,
    Origin.PARAPHRASE_CONSTRUCTION,
    Origin.DELETION,
    Origin.PERMUTATION,
    Origin.TRANSFORMATION,
    Origin.INTENSIFICATION,
)

PASS_TAGS = {
    Origin.PARAPHRASE_DIRECT: "para",
    Origin.PARAPHRASE_CONSTRUCTION: "parac",
    Origin.DELETION: "del",
    Origin.PERMUTATION: "perm",
    Origin.TRANSFORMATION: "trans",
    Origin.INTENSIFICATION: "int",
}


def entry_id(table_id: str, row_index: int, tag: str | None = None, ordinal: int | None = None) -> str:
    """Deterministic entry id: ``TABLE#row`` or ``TABLE#row#tag#ordinal``."""
    if row_index < 1:
        raise ValueError("row_index is 1-based")
    if (tag is None) != (ordinal is None):
        raise ValueError("variant tag and ordinal go together")
    if tag is None:
        return f"{table_id}#{row_index}"
    return f"{table_id}#{row_index}#{tag}#{ordinal}"


_TAGS = frozenset(PASS_TAGS.values())


def _is_id_number(text: str) -> bool:
    """A row or an ordinal: ASCII digits, no leading zero."""
    return text.isdigit() and text.isascii() and text[0] != "0"


def parse_entry_id(text: str) -> tuple[str, int, str | None, int | None]:
    """Split an id made by :func:`entry_id` into table, row, tag and ordinal
    (tag and ordinal are None for a base entry); raises ValueError."""
    fields = text.split("#")
    if len(fields) == 2:
        table_id, row = fields
        if table_id and _is_id_number(row):
            return table_id, int(row), None, None
    elif len(fields) == 4:
        table_id, row, tag, ordinal = fields
        if table_id and tag in _TAGS and _is_id_number(row) and _is_id_number(ordinal):
            return table_id, int(row), tag, int(ordinal)
    raise ValueError(f"malformed entry id {text!r} (expected TABLE#row or TABLE#row#tag#ordinal)")


class Selection(enum.Enum):
    HUMAN = "human"
    NON_HUMAN = "non-human"
    ANY = "any"
    UNSPECIFIED = "unspecified"


@dataclass(frozen=True)
class ArgumentSpec:
    slot: str  # N0, N1, N2, Poss0, Poss2
    selection: Selection


@dataclass(frozen=True, slots=True)
class Provenance:
    kind: Origin
    parent: str | None = None
    feature_id: str | None = None
    template: str | None = None

    def __post_init__(self):
        if (self.kind is Origin.BASE) != (self.parent is None):
            raise ValueError("base entries have no parent; variants require one")


@dataclass(slots=True)
class LexEntry:
    """Built once, never changed: entries may share their tuples and dicts."""

    entry_id: str
    table_id: str
    category: str
    surface: SurfaceForm
    components: dict[str, str]            # slot symbol -> cell text ("" = empty)
    aux: dict[str, str]                   # aux column -> cell text ("" = empty)
    paraphrases: tuple[SurfaceForm, ...] = ()
    other_structures: tuple[tuple[str, SurfaceForm], ...] = ()
    intensified: tuple[SurfaceForm, ...] = ()
    arguments: tuple[ArgumentSpec, ...] = ()
    construction_ids: tuple[str, ...] = ()
    internal_structures: tuple[str, ...] = ()
    binary_features: dict[str, bool] = field(default_factory=dict)
    provenance: Provenance = Provenance(Origin.BASE)  # one instance, shared
    cross_refs: tuple[str, ...] = ()

    @property
    def is_base(self) -> bool:
        return self.provenance.kind is Origin.BASE

    def bindings(self) -> Bindings:
        return Bindings(self.components, self.aux)

    def sort_rank(self) -> tuple:
        """Duplicate-resolution rank: base before generated, then table,
        row, pass and ordinal.  Lower wins."""
        _, row, _, ordinal = parse_entry_id(self.entry_id)
        if self.is_base:
            return (0, self.table_id, row, -1, 0)
        return (1, self.table_id, row, PASS_ORDER.index(self.provenance.kind), ordinal)


# =============================================================================
# base generation
# =============================================================================

_ARGUMENT_RE = re.compile(r"^(N0|N1|N2|Poss0|Poss2) =: (Nhum|N-hum)$")
_ARG_SLOT_ORDER = ("N0", "N1", "N2", "Poss0", "Poss2")


def derive_arguments(binary_features: dict[str, bool]) -> tuple[ArgumentSpec, ...]:
    """Fold ``X =: Nhum`` / ``X =: N-hum`` feature pairs into argument specs."""
    found: dict[str, dict[str, bool]] = {}
    for fid, value in binary_features.items():
        m = _ARGUMENT_RE.match(fid)
        if m:
            found.setdefault(m.group(1), {})[m.group(2)] = value
    specs = []
    for slot in _ARG_SLOT_ORDER:
        if slot not in found:
            continue
        human = found[slot].get("Nhum", False)
        non_human = found[slot].get("N-hum", False)
        if human and non_human:
            selection = Selection.ANY
        elif human:
            selection = Selection.HUMAN
        elif non_human:
            selection = Selection.NON_HUMAN
        else:
            selection = Selection.UNSPECIFIED
        specs.append(ArgumentSpec(slot, selection))
    return tuple(specs)


def structure_template(table: LgTable) -> Template:
    """The class structure as a flat template of component placeholders."""
    return Template(tuple(Placeholder(symbol, True) for symbol in table.structure))


def check_table_id(table_id: str) -> None:
    """Refuse a table id that entry ids cannot carry."""
    if "#" in table_id:
        raise LexgramError(f"table id {table_id!r} contains '#', which entry ids reserve")


def check_script_bindings(table: LgTable, script: ExtractionScript) -> None:
    """Eagerly verify every placeholder of every applicable rule binds to a
    column of ``table``; raises UnboundPlaceholder otherwise."""
    slot_names = set(table.structure)
    aux_names = {
        f.slot_name for f in table.features if f.kind is FeatureKind.AUX_LEXICAL
    }
    for rule in script.effective_rules(table.table_id):
        for template in rule.templates:
            for flat in expand_alternation(template):
                for part in flat.parts:
                    if not isinstance(part, Placeholder):
                        continue
                    known = slot_names if part.component else (aux_names | slot_names)
                    if part.name not in known:
                        raise UnboundPlaceholder(
                            f"rule {rule.feature_id!r}: placeholder {part.text!r} "
                            f"matches no column of table {table.table_id!r}"
                        )


def generate_base(
    table: LgTable,
    script: ExtractionScript,
    category: str = "adverb",
    symbols=DEFAULT_SYMBOLS,
    rules: MorphoRules = DEFAULT_RULES,
) -> list[LexEntry]:
    """One base entry per table row, in row order.

    Rows realizing to an empty surface are still emitted; curation flags
    them rather than dropping data.
    """
    check_table_id(table.table_id)
    check_script_bindings(table, script)
    template = structure_template(table)
    label = table.structure_label()
    # Each column's name is read once, so all entries share one string per key.
    slot_cols = [(i, f.slot_name) for i, f in table.columns(FeatureKind.ENTRY_COMPONENT)]
    aux_cols = [(i, f.feature_id) for i, f in table.columns(FeatureKind.AUX_LEXICAL)]
    binary_cols = [(i, f.feature_id) for i, f in table.columns(FeatureKind.BINARY)]
    construction_rules = {
        r.feature_id for r in script.effective_rules(table.table_id, Action.CONSTRUCTION)
    }
    construction_ids = [name for _, name in binary_cols if name in construction_rules]
    internal_structures = (label,) if label else ()
    # Only the ``X =: Nhum`` / ``X =: N-hum`` columns decide the arguments,
    # and rows that agree on them share one tuple.
    argument_ids = [name for _, name in binary_cols if _ARGUMENT_RE.match(name)]
    arguments_of: dict[tuple[bool, ...], tuple[ArgumentSpec, ...]] = {}

    entries: list[LexEntry] = []
    for n, row in enumerate(table.rows, start=1):
        components = {name: row[i] for i, name in slot_cols}
        aux = {name: row[i] for i, name in aux_cols}
        binary = {name: row[i] == "+" for i, name in binary_cols}
        constructions = tuple([name for name in construction_ids if binary[name]])
        values = tuple([binary[name] for name in argument_ids])
        arguments = arguments_of.get(values)
        if arguments is None:
            arguments = arguments_of[values] = derive_arguments(dict(zip(argument_ids, values)))
        surface = realize(template, Bindings(components, aux), symbols, rules)
        entries.append(LexEntry(
            entry_id=entry_id(table.table_id, n),
            table_id=table.table_id,
            category=category,
            surface=surface,
            components=components,
            aux=aux,
            arguments=arguments,
            construction_ids=constructions,
            internal_structures=internal_structures,
            binary_features=binary,
        ))
    return entries
