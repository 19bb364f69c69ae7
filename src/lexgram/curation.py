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


class _Group:
    """The entries of one key so far: the position of the one it keeps, and
    every entry's id in position order, the kept one's at ``kept_at``."""

    __slots__ = ("kept", "ids", "kept_at")

    def __init__(self, kept: int, ids: list[str]):
        self.kept = kept
        self.ids = ids
        self.kept_at = 0


class Dedup:
    """Keep one entry per canonical key, taking the entries one at a time.

    Each entry gets the next position.  The survivor of a key is the entry
    with the lowest ``(sort_rank(), position)``: base before generated,
    then table, row, pass, ordinal, then the earlier entry.  So it does not
    depend on the order the entries come in, and a later entry can remove
    one held so far.  Ranks are compared only when keys collide.  Entries
    with an empty surface never merge; they are review material, not
    citation forms.

    ``entries`` holds what is kept so far by position, and None where an
    entry was removed: nothing here holds a removed entry, only its id.
    """

    __slots__ = ("entries", "_keys", "_index")

    def __init__(self) -> None:
        self.entries: list[LexEntry | None] = []
        self._keys: dict[str, str] = {}  # rendered surface -> its key; most duplicates repeat a surface
        # key -> the position of its one entry, or its _Group once it repeats
        self._index: dict[str, int | _Group] = {}

    def add(self, entry: LexEntry) -> int | None:
        """Take *entry* at the next position; return the position this
        removes: *entry*'s own when the entry held for its key outranks it,
        the held entry's when *entry* outranks that one, None when its key is
        new or empty."""
        entries = self.entries
        position = len(entries)
        entries.append(entry)
        rendered = entry.surface.rendered
        key = self._keys.get(rendered)
        if key is None:
            key = canonical_key(rendered)
            if key == rendered:  # most surfaces are their own key: hold one string
                key = rendered
            self._keys[rendered] = key
        if not key:
            return None
        group = self._index.get(key)
        if group is None:
            self._index[key] = position
            return None
        if group.__class__ is int:
            group = self._index[key] = _Group(group, [entries[group].entry_id])
        group.ids.append(entry.entry_id)
        # The newcomer comes last, so it wins only on a lower rank, which
        # (generated, table) decides for most collisions without an id parse.
        held = entries[group.kept]
        mine, theirs = (not entry.is_base, entry.table_id), (not held.is_base, held.table_id)
        if mine == theirs:
            mine, theirs = entry.sort_rank(), held.sort_rank()
        if mine < theirs:
            removed, group.kept, group.kept_at = group.kept, position, len(group.ids) - 1
        else:
            removed = position
        entries[removed] = None
        return removed

    def finish(self) -> tuple[list[LexEntry], list[DuplicateRecord]]:
        """The survivors in position order, and one DuplicateRecord per key
        that repeated, in the order of each key's first entry.  A survivor
        that removed others is a new entry whose cross_refs end with the
        removed ids, in position order.  The instance is empty afterwards."""
        entries, index = self.entries, self._index
        self.entries, self._keys, self._index = [], {}, {}
        duplicates: list[DuplicateRecord] = []
        for key, group in index.items():
            if group.__class__ is int:
                continue
            ids, at = group.ids, group.kept_at
            removed = (*ids[:at], *ids[at + 1:])
            kept = entries[group.kept]
            entries[group.kept] = kept.replace(cross_refs=kept.cross_refs + removed)
            duplicates.append(DuplicateRecord(kept.entry_id, removed, key))
        return [entry for entry in entries if entry is not None], duplicates


def dedup(entries: list[LexEntry]) -> tuple[list[LexEntry], list[DuplicateRecord]]:
    """Keep one entry per canonical key: :class:`Dedup` over *entries* in
    order.  Returns the survivors in input order and the duplicate groups."""
    run = Dedup()
    for entry in entries:
        run.add(entry)
    return run.finish()


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
