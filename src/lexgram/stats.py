"""Run statistics: per-pass additions, duplicate removals, final count."""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .curation import canonical_key
from .errors import LexgramError, SchemaViolation
from .model import ENTRY_ID, PASS_ORDER, PASS_TAGS, FrozenFields, LexEntry, Origin, RecordRow, record_row


class StatsReport(FrozenFields):
    __match_args__ = ("initial", "per_pass", "duplicates_removed", "final")

    def __init__(
        self,
        initial: int,
        per_pass: dict[Origin, tuple[int, int]],  # pass -> (added, percentage)
        duplicates_removed: int,
        final: int,
    ):
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "per_pass", per_pass)
        object.__setattr__(self, "duplicates_removed", duplicates_removed)
        object.__setattr__(self, "final", final)

    @property
    def total_added(self) -> int:
        return sum(count for count, _ in self.per_pass.values())


def percentage(added: int, initial: int) -> int:
    """Integer percentage of ``added`` against ``initial``, rounded half
    away from zero (14.49 -> 14, 2.75 -> 3).  Nothing added is 0%, even
    against an empty lexicon."""
    if added == 0:
        return 0
    if initial == 0:
        raise LexgramError("cannot compute a percentage against an empty lexicon")
    return (200 * added + initial) // (2 * initial)


def compute_stats(initial: int, added: Mapping[Origin, int], duplicates_removed: int = 0) -> StatsReport:
    """Assemble the report; final = initial + total added - removed."""
    counts = [initial, duplicates_removed, *added.values()]
    if any(count < 0 for count in counts):
        raise ValueError("counts are non-negative")
    if any(origin not in PASS_ORDER for origin in added):
        raise ValueError("added counts must be keyed by pass kinds")
    per_pass = {
        origin: (added[origin], percentage(added[origin], initial))
        for origin in PASS_ORDER
        if origin in added
    }
    total = sum(count for count, _ in per_pass.values())
    final = initial + total - duplicates_removed
    return StatsReport(initial, per_pass, duplicates_removed, final)


def tally(rows: Iterable[RecordRow]) -> tuple[dict[Origin, int], int, int]:
    """Count record rows: the entries added by each of the six passes, the
    entries removed as duplicates, and the base entries among those removed.
    The one counting rule behind ``extend``'s report and ``stats``'s, so
    both print the same lines."""
    added = dict.fromkeys(PASS_ORDER, 0)
    duplicates_removed = removed_bases = 0
    for row in rows:
        if row.status == "duplicate":
            duplicates_removed += 1
        if row.kind is Origin.BASE:
            removed_bases += 1
        else:
            added[row.kind] += 1
    return added, duplicates_removed, removed_bases


def recompute_stats(
    entries: list[LexEntry], rows: list[RecordRow], lexicon: str = "the lexicon", records: str = "record sidecar",
) -> StatsReport:
    """Rebuild an extension run's report from the extended lexicon and its
    record sidecar, named *lexicon* and *records* in a refusal.

    Every row must be the row the lexicon implies, or the sidecar is an
    input error (SchemaViolation) naming the entry: a ``kept`` row is the
    :func:`~lexgram.model.record_row` of its entry, a ``duplicate`` row is
    of a cross-ref (:func:`_removed_by`), and every variant entry and
    cross-ref has one row.  The rows are counted by :func:`tally`, a
    ``base`` row (a removed base entry) towards the initial size too.
    """
    variants = {entry.entry_id: entry for entry in entries if not entry.is_base}
    survivors = {ref: entry for entry in entries for ref in entry.cross_refs}
    initial = len(entries) - len(variants)
    where = f"{records} does not match {lexicon}: entry "

    def checked() -> Iterator[RecordRow]:
        # each row takes its entry out of a table, so a second row finds none
        for row in rows:
            if row.status == "kept":
                entry = variants.pop(row.entry_id, None)
                implied = entry is not None and record_row(entry) == row
            else:
                implied = _removed_by(survivors.pop(row.entry_id, None), row)
            if not implied:
                raise SchemaViolation(f"{where}{row.entry_id!r} has a row the lexicon does not imply")
            yield row

    added, duplicates_removed, removed_bases = tally(checked())
    left = next(iter(variants), None) or next(iter(survivors), None)
    if left is not None:
        raise SchemaViolation(f"{where}{left!r} has no row")
    return compute_stats(initial + removed_bases, added, duplicates_removed)


def _removed_by(survivor: LexEntry | None, row: RecordRow) -> bool:
    """Whether *row* is of an entry *survivor* removed: a duplicate of it with
    its canonical key, whose id spells its parent and its pass's tag (a
    ``base`` row's is a base id, with no parent, feature or template)."""
    if survivor is None or row.status != "duplicate" or row.duplicate_of != survivor.entry_id:
        return False
    surface, match = row.surface, ENTRY_ID.fullmatch(row.entry_id)
    if match is None or match[3] != PASS_TAGS.get(row.kind) or not surface.strip():  # an empty key never merges
        return False
    if surface != survivor.surface.rendered and canonical_key(surface) != canonical_key(survivor.surface):
        return False
    if row.kind is Origin.BASE:
        return not (row.parent_id or row.feature_id or row.template)
    return row.parent_id == row.entry_id[:match.end(2)]


# =============================================================================
# text rendering
# =============================================================================

_LABELS = {
    Origin.PARAPHRASE_DIRECT: "direct paraphrases",
    Origin.PARAPHRASE_CONSTRUCTION: "construction paraphrases",
    Origin.DELETION: "deletions",
    Origin.PERMUTATION: "permutations",
    Origin.TRANSFORMATION: "transformations",
    Origin.INTENSIFICATION: "intensifications",
}

_GROUPS = (
    ("all paraphrases", (Origin.PARAPHRASE_DIRECT, Origin.PARAPHRASE_CONSTRUCTION)),
    ("all other structures", (Origin.DELETION, Origin.PERMUTATION, Origin.TRANSFORMATION)),
    ("all intensified", (Origin.INTENSIFICATION,)),
)


def _line(label: str, value: str, note: str = "") -> str:
    text = f"{label:<26}{value:>10}"
    return f"{text}  {note}" if note else text


def render_stats(report: StatsReport) -> str:
    """Human-readable summary: one line per pass with its percentage, group
    subtotals, then the removal lines and the final count."""
    lines = [_line("initial entries", f"{report.initial:,}")]
    for origin in PASS_ORDER:
        if origin not in report.per_pass:
            continue
        count, pct = report.per_pass[origin]
        lines.append(_line(_LABELS[origin], f"+{count:,}", f"(+{pct}%)"))
    for label, members in _GROUPS:
        counts = [report.per_pass[o][0] for o in members if o in report.per_pass]
        if len(counts) > 1:
            lines.append(_line(label, f"+{sum(counts):,}"))
    if report.per_pass:
        total = report.total_added
        lines.append(_line("total generated", f"+{total:,}", f"(+{percentage(total, report.initial)}%)"))
    lines.append(_line("duplicates removed", f"-{report.duplicates_removed:,}"))
    # Curation flags entries for review and never deletes them, so none is
    # rejected; the line keeps the report's layout.
    lines.append(_line("rejected", "-0"))
    lines.append(_line("final entries", f"{report.final:,}"))
    return "\n".join(lines) + "\n"
