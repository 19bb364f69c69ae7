"""Span tracing around the public functions of each ``lexgram`` module.

The tracer lives in the benchmark, not in the program: it swaps a timing
wrapper in for every name a ``lexgram`` module binds to a traced function
(``from .curation import dedup`` binds ``dedup`` in ``cli`` and in
``expansion``), runs the chain in process through ``lexgram.cli.cli``, and
puts the originals back.  Each call is a span; a span's self time is its
duration minus the durations of the traced calls it made.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict


PASS_NAMES = (
    "paraphrase-direct",
    "paraphrase-construction",
    "deletion",
    "permutation",
    "transformation",
    "intensification",
)

# (module, attribute) of every traced function, by layer.  The stats layer's
# sidecar parser lives in ``formats`` but is named after the subcommand that
# uses it.
TRACED = (
    ("tables", "load_table"),
    ("tables", "load_class_matrix"),
    ("tables", "resolve_features"),
    ("tables", "validate_table"),
    ("script", "parse_script"),
    ("script", "expand_alternation"),
    ("script", "ExtractionScript.effective_rules"),
    ("lexicon", "generate_base"),
    ("realizer", "realize"),
    ("expansion", "expand_entry"),
    ("expansion", "run_pipeline"),
    ("curation", "dedup"),
    ("curation", "duplicate_issues"),
    ("curation", "flag_suspicious"),
    ("curation", "review_report"),
    ("formats", "parse_records"),
    ("stats", "compute_stats"),
    ("formats", "import_text"),
    ("formats", "export_text"),
    ("formats", "import_xml"),
    ("formats", "export_xml"),
    ("formats", "export_records"),
)

# per-layer self-time metric -> the traced functions it sums
SELF_TIMES = {
    "tables.load_s": ("load_table", "load_class_matrix"),
    "tables.resolve_s": ("resolve_features", "validate_table"),
    "script.parse_s": ("parse_script",),
    "script.effective_rules_s": ("ExtractionScript.effective_rules",),
    "script.expand_alternation_s": ("expand_alternation",),
    "lexicon.generate_base_s": ("generate_base",),
    "realizer.realize_s": ("realize",),
    "expansion.expand_s": ("expand_entry",),
    "expansion.run_pipeline_s": ("run_pipeline",),
    "curation.dedup_s": ("dedup",),
    "curation.duplicate_issues_s": ("duplicate_issues",),
    "curation.flag_s": ("flag_suspicious",),
    "curation.review_report_s": ("review_report",),
    "stats.parse_records_s": ("parse_records",),
    "stats.compute_s": ("compute_stats",),
    "formats.import_text_s": ("import_text",),
    "formats.export_text_s": ("export_text",),
    "formats.import_xml_s": ("import_xml",),
    "formats.export_xml_s": ("export_xml",),
    "formats.export_records_s": ("export_records",),
}

CALL_COUNTS = {
    "script.effective_rules.calls": "ExtractionScript.effective_rules",
    "script.expand_alternation.calls": "expand_alternation",
    "realizer.realize.calls": "realize",
}


class Tracer:
    """Aggregates spans in memory: per name, and per (parent, name) edge."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else ""
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            self.total_s[name] += duration
            self.edges[(parent, name)] += 1

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self.counts, result, args)
            return result
        return traced

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"calls": self.calls[name], "self_s": self.self_s[name], "total_s": self.total_s[name]}
                for name in sorted(self.calls)
            },
            "edges": [
                {"parent": parent, "child": child, "calls": calls}
                for (parent, child), calls in sorted(self.edges.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }


# --- counts taken from the traced calls' results -----------------------------

def _tables(counts, table, args):
    counts["tables.rows"] += len(table.rows)


def _script(counts, script, args):
    counts["script.rules"] = len(script.rules)


def _base(counts, entries, args):
    counts["lexicon.base_entries"] += len(entries)


def _pipeline(counts, result, args):
    variants = [r for r in result.records if r.kind.value != "base"]
    counts["expansion.variants"] += len(variants)
    counts["curation.kept_variants"] += sum(r.status == "kept" for r in variants)
    counts["curation.duplicates_removed"] += result.stats.duplicates_removed
    for origin, (added, _) in result.stats.per_pass.items():
        counts[f"expansion.added.{origin.value}"] += added


def _review(counts, report, args):
    counts["curation.issues"] += len(args[0])


def _records(counts, rows, args):
    counts["stats.records"] += len(rows)


OBSERVERS = {
    "load_table": _tables,
    "parse_script": _script,
    "generate_base": _base,
    "run_pipeline": _pipeline,
    "review_report": _review,
    "parse_records": _records,
}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced function through ``tracer``; restore on exit."""
    undo: list[tuple[object, str, object]] = []
    modules = [m for n, m in sys.modules.items() if n == "lexgram" or n.startswith("lexgram.")]
    try:
        for module_name, attr in TRACED:
            module = sys.modules[f"lexgram.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                undo.append((cls, method, cls.__dict__[method]))
                setattr(cls, method, tracer.wrap(attr, cls.__dict__[method]))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(attr, original, OBSERVERS.get(attr))
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        undo.append((holder, name, original))
                        setattr(holder, name, wrapper)
        yield tracer
    finally:
        for holder, name, original in reversed(undo):
            setattr(holder, name, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times, call counts and work counts of one traced chain."""
    metrics: dict[str, float] = {
        metric: sum(tracer.self_s.get(name, 0.0) for name in names)
        for metric, names in SELF_TIMES.items()
    }
    for metric, name in CALL_COUNTS.items():
        metrics[metric] = tracer.calls.get(name, 0)
    counts = tracer.counts
    for key in ("tables.rows", "script.rules", "lexicon.base_entries", "expansion.variants",
                "curation.duplicates_removed", "curation.issues", "stats.records"):
        metrics[key] = counts.get(key, 0)
    for origin in PASS_NAMES:
        metrics[f"expansion.added.{origin}"] = counts.get(f"expansion.added.{origin}", 0)
    variants = counts.get("expansion.variants", 0)
    metrics["curation.yield"] = counts.get("curation.kept_variants", 0) / variants if variants else 0.0
    return metrics
