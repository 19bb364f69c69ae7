"""Base generation: one lexicon entry per table row.

An entry carries its row's component cells, auxiliary lexical cells and
binary feature values (see :mod:`lexgram.model`), and its surface is the
class structure realized against those cells.
"""

from __future__ import annotations

import re

from .errors import UnboundPlaceholder
from .model import EMPTY_CELLS, ArgumentSpec, LexEntry, Selection, check_table_id, entry_id
from .realizer import DEFAULT_RULES, DEFAULT_SYMBOLS, MorphoRules, realize
from .script import COLUMN, COMPONENT, Action, ExtractionScript, Template, part_text
from .tables import FeatureKind, LgTable

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
    return Template(tuple((COMPONENT, symbol) for symbol in table.structure))


def check_script_bindings(table: LgTable, script: ExtractionScript) -> None:
    """Eagerly verify every placeholder of every applicable rule binds to a
    column of ``table``; raises UnboundPlaceholder otherwise."""
    slot_names = set(table.structure)
    aux_names = {
        f.slot_name for f in table.features if f.kind is FeatureKind.AUX_LEXICAL
    }
    for rule in script.effective_rules(table.table_id):
        for template in rule.templates:
            for flat in template.flats:
                for kind, name in flat.parts:
                    if kind != COMPONENT and kind != COLUMN:
                        continue
                    if name not in slot_names and (kind == COMPONENT or name not in aux_names):
                        raise UnboundPlaceholder(
                            f"rule {rule.feature_id!r}: placeholder {part_text(kind, name)!r} "
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
        components = {name: row[i] for i, name in slot_cols} or EMPTY_CELLS
        aux = {name: row[i] for i, name in aux_cols} or EMPTY_CELLS
        binary = {name: row[i] == "+" for i, name in binary_cols}
        constructions = tuple([name for name in construction_ids if binary[name]])
        values = tuple([binary[name] for name in argument_ids])
        arguments = arguments_of.get(values)
        if arguments is None:
            arguments = arguments_of[values] = derive_arguments(dict(zip(argument_ids, values)))
        surface = realize(template, components, aux, symbols, rules)
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
