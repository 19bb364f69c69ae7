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

from .curation import dedup
from .errors import InternalInvariantError, LexgramError, RealizationError, UnknownSlotSymbol
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
    parse_entry_id,
)
from .realizer import DEFAULT_RULES, DEFAULT_SYMBOLS, MorphoRules, realize
from .script import Action, ExtractionScript, Template
from .stats import StatsReport, compute_stats, tally
from .tables import parse_structure_label

# =============================================================================
# configuration
# =============================================================================

_PASS_BY_NAME = {origin.value: origin for origin in PASS_ORDER}
_PASS_BY_NAME.update({tag: origin for origin, tag in PASS_TAGS.items()})
_SUBSTRUCTURES = (Origin.DELETION, Origin.PERMUTATION)
_PARAPHRASES = (Origin.PARAPHRASE_DIRECT, Origin.PARAPHRASE_CONSTRUCTION)


class PassConfig(FrozenFields):
    """Which passes run.  Order is never configurable: enabled passes always
    apply in the canonical order of PASS_ORDER."""

    __match_args__ = ("enabled",)

    def __init__(self, enabled: frozenset[Origin] = frozenset(PASS_ORDER)):
        object.__setattr__(self, "enabled", enabled)

    @classmethod
    def parse(cls, names: str) -> "PassConfig":
        """Build a config from a comma-separated list of pass names or tags
        (``deletion`` and ``del`` both work).  A list that names no pass is
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
        return cls(frozenset(chosen))


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
        "origin", "tag", "feature_id", "flats", "label", "kept_slots", "construction_ids", "internal_structures",
    )

    def __init__(
        self,
        origin: Origin,
        tag: str,                     # the pass tag of the variant ids
        feature_id: str,
        flats: tuple[Template, ...],  # the rule's templates, alternation flattened
        label: str,                   # the parent's other-structure label
        kept_slots: tuple[str, ...],  # slots a deletion or permutation variant keeps
        construction_ids: tuple[str, ...],     # each variant's
        internal_structures: tuple[str, ...],  # each variant's: a substructure's label
    ):
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "tag", tag)
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
    config: PassConfig = PassConfig(),
) -> tuple[PlanStep, ...]:
    """The enabled generating rules of a table whose entries have component
    slots ``slots``, in pass order, then rule declaration order."""
    class_slots = parse_structure_label(" ".join(slots)) if slots else ()
    steps = []
    for rule in script.effective_rules(table_id):
        origin = _ACTION_PASS.get(rule.action) or classify_substructure(rule.label, class_slots)
        # a construction rule without templates only labels the base entry
        if not rule.templates or origin not in config.enabled:
            continue
        label = rule.label or rule.feature_id
        substructure = origin in _SUBSTRUCTURES
        flats = tuple(flat for template in rule.templates for flat in template.flats)
        steps.append(PlanStep(
            origin, PASS_TAGS[origin], rule.feature_id, flats, label,
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
    _, row, _, _ = parse_entry_id(entry.entry_id)
    id_prefix = f"{entry.table_id}#{row}#"
    variants: list[LexEntry] = []
    paraphrases, other_structures, intensified = [], [], []
    structures = list(entry.internal_structures)
    ordinals: dict[str, int] = {}  # pass tag -> variants so far
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
            ordinal = ordinals[step.tag] = ordinals.get(step.tag, 0) + 1
            variants.append(LexEntry(
                entry_id=f"{id_prefix}{step.tag}#{ordinal}",
                table_id=entry.table_id,
                category=entry.category,
                surface=surface,
                components=components,
                aux=EMPTY_CELLS,
                arguments=entry.arguments,
                construction_ids=step.construction_ids,
                internal_structures=step.internal_structures,
                binary_features=entry.binary_features,
                provenance=Provenance(origin, entry.entry_id, step.feature_id, flat.text),
            ))
    if not variants:
        return entry, variants
    # every field is passed: a new field of LexEntry must be added here
    return LexEntry(
        entry_id=entry.entry_id,
        table_id=entry.table_id,
        category=entry.category,
        surface=entry.surface,
        components=entry.components,
        aux=entry.aux,
        paraphrases=entry.paraphrases + tuple(paraphrases),
        other_structures=entry.other_structures + tuple(other_structures),
        intensified=entry.intensified + tuple(intensified),
        arguments=entry.arguments,
        construction_ids=entry.construction_ids,
        internal_structures=tuple(structures),
        binary_features=entry.binary_features,
        provenance=entry.provenance,
        cross_refs=entry.cross_refs,
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
    config: PassConfig = PassConfig(),
    symbols=DEFAULT_SYMBOLS,
    rules: MorphoRules = DEFAULT_RULES,
) -> PipelineResult:
    """Expand every base entry, then dedup and count.

    The input entries are left unchanged.  One plan is built per table and
    component slot set.  Output order: base entries first (input order),
    then surviving variants in generation order.  Records: one per variant
    in generation order, then one per base entry removed as a duplicate, so
    the records account for every removal.
    """
    seen: set[str] = set()
    for entry in entries:
        if not entry.is_base:
            raise LexgramError(f"input lexicon is already extended ({entry.entry_id!r} is generated)")
        if entry.entry_id in seen:  # records name entries by id
            raise LexgramError(f"duplicate entry id {entry.entry_id!r} in the input lexicon")
        seen.add(entry.entry_id)

    plans: dict[tuple[str, tuple[str, ...]], tuple[PlanStep, ...]] = {}
    parents: list[LexEntry] = []
    variants: list[LexEntry] = []
    for entry in entries:
        key = (entry.table_id, tuple(entry.components))
        if key not in plans:
            try:
                plans[key] = build_plan(script, *key, config)
            except UnknownSlotSymbol as err:  # an imported lexicon's component slot
                raise LexgramError(f"entry {entry.entry_id!r}: {err.bare_message}") from None
        parent, produced = expand_entry(entry, plans[key], symbols, rules)
        parents.append(parent)
        variants.extend(produced)

    survivors, duplicates = dedup(parents + variants)

    kept_for = {removed_id: dup.kept for dup in duplicates for removed_id in dup.removed}

    def record(entry: LexEntry) -> RecordRow:
        p = entry.provenance
        kept = kept_for.get(entry.entry_id)
        return RecordRow(
            entry.entry_id, p.parent or "", p.kind, p.feature_id or "", p.template or "",
            entry.surface.rendered, "kept" if kept is None else "duplicate", kept or "",
        )

    records = [record(variant) for variant in variants]
    removed_parents = {parent.entry_id: parent for parent in parents if parent.entry_id in kept_for}
    records.extend(record(removed_parents[removed_id]) for removed_id in kept_for if removed_id in removed_parents)

    added, removed, _ = tally(records)
    stats = compute_stats(len(entries), added, duplicates_removed=removed)
    if stats.final != len(survivors):  # the count identity; a mismatch is a bug
        raise InternalInvariantError(
            f"stats identity violated: report says {stats.final} final entries, "
            f"the pipeline output holds {len(survivors)}"
        )
    return PipelineResult(survivors, records, stats)
