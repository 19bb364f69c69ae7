"""Mechanical extension of a base lexicon: the six generation passes.

Passes consume base entries only; generated entries are never re-expanded,
so every pass counts against the same initial entry set.  Entries carry
their component texts and feature values with them, which keeps the
pipeline independent of the source tables.

Expansion is a pure function of its inputs.  What depends only on an
entry's table and component slots is decided once, in a plan; expanding an
entry walks its plan and returns the variants together with a new parent
entry whose paraphrase / other-structure / intensified tuples hold the
variant surfaces.  Entries are never changed once built, so variants share
their parent's arguments and binary features.
"""

from __future__ import annotations

from .curation import Dedup
from .errors import LexgramError, RealizationError, UnknownSlotSymbol
from .model import (
    EMPTY_CELLS,
    PASS_ORDER,
    PASS_TAGS,
    Fields,
    FrozenFields,
    LexEntry,
    Origin,
    Provenance,
    RecordRow,
    check_entry_id,
    record_row,
    variant_id,
)
from .realizer import DEFAULT_RULES, DEFAULT_SYMBOLS, MorphoRules, realize
from .script import Action, ExtractionScript, Template
from .stats import StatsReport, lexicon_stats
from .tables import parse_structure_label

# =============================================================================
# configuration
# =============================================================================

_PASS_BY_NAME = {origin.value: origin for origin in PASS_ORDER}
_PASS_BY_NAME.update({tag: origin for origin, tag in PASS_TAGS.items()})
_SUBSTRUCTURES = (Origin.DELETION, Origin.PERMUTATION)
_PARAPHRASES = (Origin.PARAPHRASE_DIRECT, Origin.PARAPHRASE_CONSTRUCTION)


# Which passes run is a set of them, all by default.  Order is never
# configurable: enabled passes always apply in the canonical order of
# PASS_ORDER.
ALL_PASSES = frozenset(PASS_ORDER)


def parse_passes(names: str) -> frozenset[Origin]:
    """The passes named in *names*, a comma-separated list of pass names or
    tags (``deletion`` and ``del`` both work).  A list that names no pass is
    refused."""
    chosen = set()
    for name in names.split(","):
        name = name.strip()
        if not name:
            continue
        origin = _PASS_BY_NAME.get(name)
        if origin is None:
            known = ", ".join(sorted(_PASS_BY_NAME))
            raise LexgramError(f"unknown pass {name!r} (expected one of: {known})")
        chosen.add(origin)
    if not chosen:
        raise LexgramError(f"pass list {names!r} names no pass")
    return frozenset(chosen)


# =============================================================================
# plans and single-entry expansion
# =============================================================================

def classify_substructure(label: str, class_slots: tuple[str, ...]) -> Origin:
    """Deletion keeps the slot order of the class structure; anything that
    reorders (with or without dropping slots) is a permutation."""
    remaining = iter(class_slots)
    if all(symbol in remaining for symbol in parse_structure_label(label)):
        return Origin.DELETION
    return Origin.PERMUTATION


# The pass of each rule action; a substructure's depends on the class slots.
_ACTION_PASS = {
    Action.PARAPHRASE: Origin.PARAPHRASE_DIRECT,
    Action.CONSTRUCTION: Origin.PARAPHRASE_CONSTRUCTION,
    Action.TRANSFORMATION: Origin.TRANSFORMATION,
    Action.INTENSIFIER: Origin.INTENSIFICATION,
}


class PlanStep(FrozenFields):
    """One generating rule, resolved for one table and component slot set:
    what every variant of the rule shares is worked out here, once."""

    __slots__ = __match_args__ = (
        "origin", "feature_id", "flats", "label", "kept_slots", "construction_ids", "internal_structures",
    )

    def __init__(
        self,
        origin: Origin,
        feature_id: str,
        flats: tuple[Template, ...],  # the rule's templates, alternation flattened
        label: str,                   # the parent's other-structure label
        kept_slots: tuple[str, ...],  # slots a deletion or permutation variant keeps
        construction_ids: tuple[str, ...],     # each variant's
        internal_structures: tuple[str, ...],  # each variant's: a substructure's label
    ):
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "feature_id", feature_id)
        object.__setattr__(self, "flats", flats)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "kept_slots", kept_slots)
        object.__setattr__(self, "construction_ids", construction_ids)
        object.__setattr__(self, "internal_structures", internal_structures)


def build_plan(
    script: ExtractionScript,
    table_id: str,
    slots: tuple[str, ...],
    passes: frozenset[Origin] = ALL_PASSES,
) -> tuple[PlanStep, ...]:
    """The generating rules of the ``passes`` for a table whose entries have
    component slots ``slots``, in pass order, then rule declaration order."""
    class_slots = parse_structure_label(" ".join(slots)) if slots else ()
    steps = []
    for rule in script.effective_rules(table_id):
        origin = _ACTION_PASS.get(rule.action) or classify_substructure(rule.label, class_slots)
        # a construction rule without templates only labels the base entry
        if not rule.templates or origin not in passes:
            continue
        label = rule.label or rule.feature_id
        substructure = origin in _SUBSTRUCTURES
        flats = tuple(flat for template in rule.templates for flat in template.flats)
        steps.append(PlanStep(
            origin, rule.feature_id, flats, label,
            kept_slots=parse_structure_label(rule.label) if substructure else (),
            construction_ids=(rule.feature_id,) if origin is Origin.PARAPHRASE_CONSTRUCTION else (),
            internal_structures=(label,) if substructure else (),
        ))
    steps.sort(key=lambda step: PASS_ORDER.index(step.origin))
    return tuple(steps)


def expand_entry(
    entry: LexEntry,
    plan: tuple[PlanStep, ...],
    symbols=DEFAULT_SYMBOLS,
    rules: MorphoRules = DEFAULT_RULES,
) -> tuple[LexEntry, list[LexEntry]]:
    """Apply a plan to one base entry; ``entry`` itself is left unchanged.

    Returns the parent, which is a new entry holding the variant surfaces
    (``entry`` itself when there are none), and the variants.  Emission
    order is plan order, then template order, then alternation order;
    variant ordinals count per pass.  A template that does not realize
    raises its RealizationError, naming the entry and the rule.
    """
    if not entry.is_base:
        raise LexgramError(f"cannot expand generated entry {entry.entry_id!r}")
    variants: list[LexEntry] = []
    paraphrases, other_structures, intensified = [], [], []
    structures = list(entry.internal_structures)
    ordinals: dict[Origin, int] = {}  # pass -> variants so far
    for step in plan:
        if not entry.binary_features.get(step.feature_id, False):
            continue
        origin = step.origin
        for label in step.internal_structures:
            if label not in structures:
                structures.append(label)
        # a deletion or permutation keeps exactly the slots its structure names
        components = {slot: entry.components.get(slot, "") for slot in step.kept_slots} or EMPTY_CELLS
        for flat in step.flats:
            try:
                surface = realize(flat, entry.components, entry.aux, symbols, rules)
            except RealizationError as err:
                raise type(err)(
                    f"entry {entry.entry_id!r}, rule {step.feature_id!r}: {err.bare_message}"
                ) from None
            if origin in _PARAPHRASES:
                paraphrases.append(surface)
            elif origin is Origin.INTENSIFICATION:
                intensified.append(surface)
            else:
                other_structures.append((step.label, surface))
            ordinal = ordinals[origin] = ordinals.get(origin, 0) + 1
            variants.append(LexEntry(
                variant_id(entry.entry_id, origin, ordinal), entry.table_id, entry.category, surface, components,
                EMPTY_CELLS, (), (), (), entry.arguments, step.construction_ids, step.internal_structures,
                entry.binary_features, Provenance(origin, entry.entry_id, step.feature_id, flat.text),
            ))
    if not variants:
        return entry, variants
    return entry.replace(
        paraphrases=entry.paraphrases + tuple(paraphrases),
        other_structures=entry.other_structures + tuple(other_structures),
        intensified=entry.intensified + tuple(intensified),
        internal_structures=tuple(structures),
    ), variants


# =============================================================================
# pipeline driver
# =============================================================================

class PipelineResult(Fields):
    __match_args__ = ("entries", "records", "stats")

    def __init__(self, entries: list[LexEntry], records: list[RecordRow], stats: StatsReport):
        self.entries = entries
        self.records = records
        self.stats = stats


def run_pipeline(
    entries: list[LexEntry],
    script: ExtractionScript,
    passes: frozenset[Origin] = ALL_PASSES,
    symbols=DEFAULT_SYMBOLS,
    rules: MorphoRules = DEFAULT_RULES,
) -> PipelineResult:
    """Expand every base entry, deduplicating as the variants come, and
    count.

    The input entries are left unchanged.  One plan is built per table and
    component slot set.  The result is what :func:`~lexgram.curation.dedup`
    makes of the expanded parents followed by every variant, but no removed
    variant is held: the base entries take the first positions of one
    :class:`~lexgram.curation.Dedup`, each base's variants are added as
    they are made, and a removed one lives on only as its record row.  An
    expanded parent takes its base's place, which has its id and surface.

    Output order: base entries first (input order), then surviving variants
    in generation order.  Records: one per variant in generation order,
    then one per base entry removed as a duplicate, so the records account
    for every removal.  A row's status and duplicate-of are set at the end,
    from the final survivor of its key.  The report is the output's
    :func:`~lexgram.stats.lexicon_stats`.
    """
    seen: set[str] = set()
    for entry in entries:
        if not entry.is_base or entry.cross_refs:  # a base entry with cross-refs has been deduplicated
            what = "holds cross-refs" if entry.is_base else "is generated"
            raise LexgramError(f"input lexicon is already extended ({entry.entry_id!r} {what})")
        try:  # ids rank entries and name removals
            check_entry_id(entry)
        except ValueError:
            raise LexgramError(f"entry id {entry.entry_id!r} in the input lexicon is not a base id of its table") from None
        if entry.entry_id in seen:  # records name entries by id
            raise LexgramError(f"duplicate entry id {entry.entry_id!r} in the input lexicon")
        seen.add(entry.entry_id)

    curated = Dedup()
    for entry in entries:
        curated.add(entry)

    plans: dict[tuple[str, tuple[str, ...]], tuple[PlanStep, ...]] = {}
    records: list[RecordRow] = []
    for position, entry in enumerate(entries):
        key = (entry.table_id, tuple(entry.components))
        if key not in plans:
            try:
                plans[key] = build_plan(script, *key, passes)
            except UnknownSlotSymbol as err:  # an imported lexicon's component slot
                raise LexgramError(f"entry {entry.entry_id!r}: {err.bare_message}") from None
        parent, produced = expand_entry(entry, plans[key], symbols, rules)
        if curated.entries[position] is not None:
            curated.entries[position] = parent
        for variant in produced:
            records.append(record_row(variant))
            curated.add(variant)

    survivors, duplicates = curated.finish()

    kept_for = {removed_id: dup.kept for dup in duplicates for removed_id in dup.removed}
    for row in records:
        kept = kept_for.get(row.entry_id)
        if kept is not None:
            row.status, row.duplicate_of = "duplicate", kept
    removed_bases = {entry.entry_id: entry for entry in entries if entry.entry_id in kept_for}
    records.extend(record_row(removed_bases[i], kept) for i, kept in kept_for.items() if i in removed_bases)

    return PipelineResult(survivors, records, lexicon_stats(survivors))
