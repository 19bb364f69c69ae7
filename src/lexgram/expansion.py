"""Mechanical extension of a base lexicon: the six generation passes.

Passes consume base entries only; generated entries are never re-expanded,
so every pass counts against the same initial entry set.  Entries carry
their component texts and feature values with them, which keeps the
pipeline independent of the source tables.

Expanding mutates the parent entry: variant surfaces are also recorded in
the parent's paraphrase / other-structure / intensified lists, giving both
views of the extension (standalone entries and enriched parents).
"""

from __future__ import annotations

from dataclasses import dataclass

from .curation import DuplicateRecord, curate
from .errors import LexgramError
from .issues import ValidationIssue
from .lexicon import PASS_ORDER, PASS_TAGS, LexEntry, Origin, Provenance
from .realizer import DEFAULT_RULES, DEFAULT_SYMBOLS, MorphoRules, SurfaceForm, realize
from .script import Action, ExtractionScript, ScriptRule, Template, expand_alternation
from .stats import StatsReport, check_final_count, compute_stats
from .tables import parse_structure_label

# =============================================================================
# configuration and records
# =============================================================================

_PASS_BY_NAME = {origin.value: origin for origin in PASS_ORDER}
_PASS_BY_NAME.update({tag: origin for origin, tag in PASS_TAGS.items()})


@dataclass(frozen=True)
class PassConfig:
    """Which passes run.  Order is never configurable: enabled passes always
    apply in the canonical order of PASS_ORDER."""

    enabled: frozenset[Origin] = frozenset(PASS_ORDER)

    @classmethod
    def parse(cls, names: str) -> "PassConfig":
        """Build a config from a comma-separated list of pass names or tags
        (``deletion`` and ``del`` both work)."""
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
        return cls(frozenset(chosen))


@dataclass
class ExpansionRecord:
    """One generated entry plus the rule application that produced it.

    ``status`` is rewritten to ``duplicate`` when curation removes the entry;
    a base entry removed as a duplicate gets a synthetic record with kind
    ``base`` so the record file accounts for every removal.
    """

    entry: LexEntry
    parent_id: str
    kind: Origin
    feature_id: str
    template: str
    status: str = "kept"
    duplicate_of: str | None = None


# =============================================================================
# single-entry expansion
# =============================================================================

def _is_subsequence(sub: tuple, full: tuple) -> bool:
    it = iter(full)
    return all(any(s == f for f in it) for s in sub)


def classify_substructure(label: str, class_slots: tuple) -> Origin:
    """Deletion keeps the slot order of the class structure; anything that
    reorders (with or without dropping slots) is a permutation."""
    label_syms = tuple(ref.symbol for ref in parse_structure_label(label))
    class_syms = tuple(ref.symbol for ref in class_slots)
    if _is_subsequence(label_syms, class_syms):
        return Origin.DELETION
    return Origin.PERMUTATION


def _pass_of(rule: ScriptRule, class_slots: tuple) -> Origin | None:
    """The pass a rule belongs to, or None when it generates nothing
    (a construction rule without templates only labels the base entry)."""
    if rule.action is Action.PARAPHRASE:
        return Origin.PARAPHRASE_DIRECT
    if rule.action is Action.CONSTRUCTION:
        return Origin.PARAPHRASE_CONSTRUCTION if rule.templates else None
    if rule.action is Action.TRANSFORMATION:
        return Origin.TRANSFORMATION
    if rule.action is Action.INTENSIFIER:
        return Origin.INTENSIFICATION
    return classify_substructure(rule.label, class_slots)


def _make_variant(
    parent: LexEntry,
    origin: Origin,
    rule: ScriptRule,
    flat: Template,
    surface: SurfaceForm,
    ordinal: int,
) -> LexEntry:
    components: dict[str, str] = {}
    internal: list[str] = []
    constructions: list[str] = []
    if origin in (Origin.DELETION, Origin.PERMUTATION):
        # the variant keeps exactly the slots its reduced structure names
        slots = parse_structure_label(rule.label)
        components = {ref.symbol: parent.components.get(ref.symbol, "") for ref in slots}
        internal = [rule.label]
    elif origin is Origin.PARAPHRASE_CONSTRUCTION:
        constructions = [rule.feature_id]
    return LexEntry(
        entry_id=f"{parent.entry_id}#{PASS_TAGS[origin]}#{ordinal}",
        table_id=parent.table_id,
        category=parent.category,
        surface=surface,
        components=components,
        aux={},
        arguments=list(parent.arguments),
        construction_ids=constructions,
        internal_structures=internal,
        binary_features=dict(parent.binary_features),
        provenance=Provenance(origin, parent.entry_id, rule.feature_id, flat.text),
    )


def _attach_to_parent(parent: LexEntry, origin: Origin, rule: ScriptRule, surface: SurfaceForm) -> None:
    if origin in (Origin.PARAPHRASE_DIRECT, Origin.PARAPHRASE_CONSTRUCTION):
        parent.paraphrases.append(surface)
    elif origin in (Origin.DELETION, Origin.PERMUTATION):
        parent.other_structures.append((rule.label, surface))
        if rule.label not in parent.internal_structures:
            parent.internal_structures.append(rule.label)
    elif origin is Origin.TRANSFORMATION:
        parent.other_structures.append((rule.label or rule.feature_id, surface))
    else:
        parent.intensified.append(surface)


def expand_entry(
    entry: LexEntry,
    script: ExtractionScript,
    config: PassConfig = PassConfig(),
    symbols=DEFAULT_SYMBOLS,
    rules: MorphoRules = DEFAULT_RULES,
) -> list[ExpansionRecord]:
    """Apply every enabled pass to one base entry.

    Emission order is pass order, then rule declaration order, then template
    order, then alternation order; variant ordinals count per pass tag.
    """
    if not entry.is_base:
        raise LexgramError(f"cannot expand generated entry {entry.entry_id!r}")
    class_slots = parse_structure_label(" ".join(entry.components)) if entry.components else ()
    buckets: dict[Origin, list[ScriptRule]] = {origin: [] for origin in PASS_ORDER}
    for rule in script.effective_rules(entry.table_id):
        origin = _pass_of(rule, class_slots)
        if origin is not None and origin in config.enabled:
            buckets[origin].append(rule)

    records: list[ExpansionRecord] = []
    ordinals = dict.fromkeys(PASS_TAGS.values(), 0)
    bindings = entry.bindings()
    for origin in PASS_ORDER:
        tag = PASS_TAGS[origin]
        for rule in buckets[origin]:
            if not entry.binary_features.get(rule.feature_id, False):
                continue
            for template in rule.templates:
                for flat in expand_alternation(template):
                    ordinals[tag] += 1
                    surface = realize(flat, bindings, symbols, rules)
                    variant = _make_variant(entry, origin, rule, flat, surface, ordinals[tag])
                    _attach_to_parent(entry, origin, rule, surface)
                    records.append(
                        ExpansionRecord(variant, entry.entry_id, origin, rule.feature_id, flat.text)
                    )
    return records


# =============================================================================
# pipeline driver
# =============================================================================

@dataclass
class PipelineResult:
    entries: list[LexEntry]
    records: list[ExpansionRecord]
    stats: StatsReport
    duplicates: list[DuplicateRecord]
    issues: list[ValidationIssue]


def run_pipeline(
    entries: list[LexEntry],
    script: ExtractionScript,
    config: PassConfig = PassConfig(),
    symbols=DEFAULT_SYMBOLS,
    rules: MorphoRules = DEFAULT_RULES,
) -> PipelineResult:
    """Expand every base entry, then dedup, flag, and count.

    Output order: base entries first (input order), then surviving variants
    in generation order.
    """
    for entry in entries:
        if not entry.is_base:
            raise LexgramError(
                f"input lexicon is already extended ({entry.entry_id!r} is generated)"
            )
    initial = len(entries)

    records: list[ExpansionRecord] = []
    for entry in entries:
        records.extend(expand_entry(entry, script, config, symbols, rules))

    added = dict.fromkeys(PASS_ORDER, 0)
    for record in records:
        added[record.kind] += 1

    combined = entries + [record.entry for record in records]
    survivors, duplicates, issues = curate(combined)

    removed_to_kept: dict[str, str] = {}
    for dup in duplicates:
        for removed_id in dup.removed:
            removed_to_kept[removed_id] = dup.kept
    record_by_id = {record.entry.entry_id: record for record in records}
    base_by_id = {entry.entry_id: entry for entry in entries}
    for removed_id, kept_id in removed_to_kept.items():
        record = record_by_id.get(removed_id)
        if record is not None:
            record.status = "duplicate"
            record.duplicate_of = kept_id
        else:
            records.append(ExpansionRecord(
                base_by_id[removed_id], "", Origin.BASE, "", "", "duplicate", kept_id,
            ))

    stats = compute_stats(initial, added, duplicates_removed=len(removed_to_kept))
    check_final_count(stats, len(survivors), "the pipeline output")
    return PipelineResult(survivors, records, stats, duplicates, issues)
