"""Duplicate filtering and the review queue.

Curation never deletes suspicious entries: heuristic hits become
ValidationIssues for manual review.  Only exact surface duplicates (by
canonical key) are removed, and each removal is logged in a
DuplicateRecord and in the survivor's cross-reference list.  No function
here changes the entries it is given.
"""

from __future__ import annotations

import unicodedata

from .model import FrozenFields, IssueKind, LexEntry, Origin, SurfaceForm, ValidationIssue


def canonical_key(surface: SurfaceForm | str) -> str:
    """Normalized comparison key: NFC, typographic apostrophe unified with
    U+0027, case folded, internal whitespace collapsed.

    ``str.split`` and the regular expression ``\\s`` agree on what is
    whitespace, so the split-and-join collapses each run to one space and
    drops the ends.  ASCII text is already NFC and holds no ``’``.
    """
    text = surface if isinstance(surface, str) else surface.rendered
    if not text.isascii():
        text = unicodedata.normalize("NFC", text).replace("’", "'")
    return " ".join(text.split()).casefold()


class DuplicateRecord(FrozenFields):
    __match_args__ = ("kept", "removed", "key")

    def __init__(self, kept: str, removed: tuple[str, ...], key: str):
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "removed", removed)
        object.__setattr__(self, "key", key)


def dedup(entries: list[LexEntry]) -> tuple[list[LexEntry], list[DuplicateRecord]]:
    """Keep one entry per canonical key.

    The survivor is the lowest-ranked entry of its group (base before
    generated, then table, row, pass, ordinal), independent of input order.
    A survivor that removed others is returned as a new entry whose
    cross_refs end with the removed ids.  Entries with an empty surface
    never merge; they are review material, not citation forms.
    """
    keys: dict[str, str] = {}  # rendered surface -> its key; most duplicates repeat a surface
    # key -> its position in entries, or the list of its positions once it repeats
    index: dict[str, int | list[int]] = {}
    for position, entry in enumerate(entries):
        rendered = entry.surface.rendered
        key = keys.get(rendered)
        if key is None:
            key = canonical_key(rendered)
            if key == rendered:  # most surfaces are their own key: hold one string
                key = rendered
            keys[rendered] = key
        if key:
            held = index.get(key)
            if held is None:
                index[key] = position
            elif held.__class__ is int:
                index[key] = [held, position]
            else:
                held.append(position)

    removed_at = bytearray(len(entries))  # 1 at the position of each removed entry
    merged: dict[int, LexEntry] = {}  # position of a survivor -> the survivor with its cross_refs
    duplicates: list[DuplicateRecord] = []
    for key, group in index.items():
        if group.__class__ is int:
            continue
        kept = min(group, key=lambda position: (entries[position].sort_rank(), position))
        removed = tuple(entries[position].entry_id for position in group if position != kept)
        merged[kept] = _with_cross_refs(entries[kept], removed)
        for position in group:
            removed_at[position] = 1
        removed_at[kept] = 0
        duplicates.append(DuplicateRecord(entries[kept].entry_id, removed, key))

    survivors = [
        merged.get(position, entry)
        for position, entry in enumerate(entries)
        if not removed_at[position]
    ]
    return survivors, duplicates


def _with_cross_refs(entry: LexEntry, removed: tuple[str, ...]) -> LexEntry:
    # every field is passed: a new field of LexEntry must be added here
    return LexEntry(
        entry_id=entry.entry_id,
        table_id=entry.table_id,
        category=entry.category,
        surface=entry.surface,
        components=entry.components,
        aux=entry.aux,
        paraphrases=entry.paraphrases,
        other_structures=entry.other_structures,
        intensified=entry.intensified,
        arguments=entry.arguments,
        construction_ids=entry.construction_ids,
        internal_structures=entry.internal_structures,
        binary_features=entry.binary_features,
        provenance=entry.provenance,
        cross_refs=entry.cross_refs + removed,
    )


def duplicate_issues(
    duplicates: list[DuplicateRecord],
    entries_by_id: dict[str, LexEntry],
) -> list[ValidationIssue]:
    """Issues derived from removals, anchored on the surviving entry.

    A collision across tables is always reported; within one table it is
    only reported when a generated entry collided with its class's own base
    entry.  Variant-variant collisions inside one table stay record-only
    (manual review focuses on cross-entry redundancy).
    """
    issues: list[ValidationIssue] = []
    for dup in duplicates:
        kept = entries_by_id[dup.kept]
        for removed_id in dup.removed:
            removed = entries_by_id[removed_id]
            if removed.table_id != kept.table_id:
                kind = IssueKind.CROSS_TABLE_DUPLICATE
            elif kept.is_base:
                kind = IssueKind.DUPLICATE_OF_BASE
            else:
                continue
            issues.append(ValidationIssue(kind, dup.kept, f"removed duplicate {removed_id}"))
    return issues


# =============================================================================
# review heuristics
# =============================================================================

_BARE_CLITICS = {"ci", "là"}


def flag_suspicious(entry: LexEntry) -> list[ValidationIssue]:
    """Heuristic error detection on one realized entry.

    Flags, never deletes: a single-word surface coming out of a deletion or
    permutation (the structure lost its adverbial frame), a token that kept
    a dangling hyphen or is a clitic particle without its host, an empty
    surface, and any transformation output (agreement is not checked).
    """
    issues: list[ValidationIssue] = []
    words = entry.surface.rendered.split()
    kind = entry.provenance.kind

    if not words:
        issues.append(ValidationIssue(IssueKind.EMPTY_SURFACE, entry.entry_id))
    if kind in (Origin.DELETION, Origin.PERMUTATION) and len(words) == 1:
        issues.append(ValidationIssue(
            IssueKind.SINGLE_TOKEN_RESIDUE, entry.entry_id, f"single token {words[0]!r}",
        ))
    for word in words:
        if word.endswith("-") or word.startswith("-") or word in _BARE_CLITICS:
            issues.append(ValidationIssue(
                IssueKind.AMALGAM_SUSPECT, entry.entry_id, f"token {word!r}",
            ))
            break
    if kind is Origin.TRANSFORMATION:
        issues.append(ValidationIssue(
            IssueKind.AGREEMENT_UNCHECKED, entry.entry_id,
            "gender/number agreement of the inserted material is not checked",
        ))
    return issues


def curate(
    entries: list[LexEntry],
) -> tuple[list[LexEntry], list[DuplicateRecord], list[ValidationIssue]]:
    """Dedup, then report the removals, then flag the survivors.

    Returns the survivors, the duplicate groups, and the review issues:
    duplicate issues first, then each survivor's flags in survivor order.
    """
    survivors, duplicates = dedup(entries)
    # Only a removal needs the entries by id; extend's output has none.
    issues = duplicate_issues(duplicates, {e.entry_id: e for e in entries} if duplicates else {})
    for entry in survivors:
        issues.extend(flag_suspicious(entry))
    return survivors, duplicates, issues


# =============================================================================
# report
# =============================================================================

def review_report(
    issues: list[ValidationIssue],
    duplicates: list[DuplicateRecord],
) -> str:
    """Tab-separated review queue: one line per issue, one per duplicate
    group, grouped by kind and stably ordered."""
    lines = ["record\tkind\tentry\tdetail"]
    for issue in sorted(issues, key=lambda i: (i.kind.value, i.entry_id, i.detail)):
        lines.append(f"ISSUE\t{issue.kind.value}\t{issue.entry_id}\t{issue.detail}")
    for dup in sorted(duplicates, key=lambda d: (d.kept, d.key)):
        lines.append(f"DUPLICATE\t{dup.key}\t{dup.kept}\t{' '.join(dup.removed)}")
    return "\n".join(lines) + "\n"
