"""Run statistics: per-pass additions, duplicate removals, final count."""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import LexgramError, SchemaViolation
from .model import PASS_ORDER, FrozenFields, LexEntry, Origin, RecordRow


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


def _twice(entry_id: str) -> SchemaViolation:
    return SchemaViolation(f"record sidecar holds two records of entry {entry_id!r}")


def recompute_stats(entries: list[LexEntry], rows: list[RecordRow]) -> StatsReport:
    """Rebuild an extension run's report from the extended lexicon and its
    record sidecar, and check it against the lexicon's entry count and ids.
    Both are user files, so a mismatch is an input error (SchemaViolation).

    The rows are counted by :func:`tally`.  A ``base`` row is a base entry
    removed as a duplicate, so it counts towards the initial size.  No two
    rows are of one entry.  Every kept entry and every survivor a duplicate
    names must be in the lexicon; no entry removed as a duplicate may be,
    nor be a survivor.
    """
    removed: set[str] = set()
    for row in rows:
        if row.status == "duplicate":
            if row.entry_id in removed:
                raise _twice(row.entry_id)
            removed.add(row.entry_id)
    added, duplicates_removed, removed_bases = tally(rows)
    initial = sum(1 for e in entries if e.is_base) + removed_bases
    report = compute_stats(initial, added, duplicates_removed)
    if report.final != len(entries):
        raise SchemaViolation(
            f"record sidecar does not match the lexicon: the records give {report.final} "
            f"final entries, the lexicon holds {len(entries)}"
        )
    # what the lexicon must hold: each kept entry (True) and each other survivor
    held: dict[str, bool] = {}
    for row in rows:
        if row.status == "kept":
            if held.get(row.entry_id) or row.entry_id in removed:
                raise _twice(row.entry_id)
            held[row.entry_id] = True
        elif row.duplicate_of in removed:
            raise SchemaViolation(
                f"record sidecar removes {row.duplicate_of!r} as a duplicate and keeps it as the survivor "
                f"of {row.entry_id!r}"
            )
        else:
            held.setdefault(row.duplicate_of, False)
    for entry in entries:
        if entry.entry_id in removed:
            raise SchemaViolation(
                f"record sidecar does not match the lexicon: the records remove {entry.entry_id!r} "
                "as a duplicate, the lexicon holds it"
            )
        held.pop(entry.entry_id, None)
    if held:
        raise SchemaViolation(
            f"record sidecar does not match the lexicon: the records keep {next(iter(held))!r}, "
            "the lexicon does not hold it"
        )
    return report


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
