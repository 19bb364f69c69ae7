"""Acceptance gate.

Each criterion below is one test that prints a single verdict line
(``criterion N (...): PASS`` or ``FAIL``) on the live terminal and then
asserts.  The checks run against the bundled fixture corpus plus randomized
synthetic corpora; nothing here depends on network or external data.
"""

from __future__ import annotations

import collections
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import corpusgen
import oracle
from conftest import FIXTURES, compile_corpus, load_fixture_morpho, load_fixture_script
from lexgram.curation import canonical_key, curate, dedup
from lexgram.expansion import build_plan, expand_entry, run_pipeline
from lexgram.formats import LexiconDocument, export_lexicon, import_lexicon
from lexgram.lexicon import generate_base
from lexgram.model import IssueKind, Origin
from lexgram.realizer import contract, elide, realize, render
from lexgram.script import parse_script
from lexgram.stats import compute_stats, percentage
from lexgram.tables import load_class_matrix, load_table, resolve_features


def _verdict(capsys, number: int, label: str, failures: list[str]) -> None:
    ok = not failures
    with capsys.disabled():
        print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}): " + "; ".join(failures)


def _extended_result():
    doc = compile_corpus()
    result = run_pipeline(doc.entries, load_fixture_script(), rules=load_fixture_morpho())
    return doc, result


# =============================================================================
# criterion 1: example surface suite
# =============================================================================

EXPECTED_SURFACES = (
    "jusqu'à la fin",
    "dans un proche avenir",
    "dans les plus brefs délais",
    "pour le bénéfice général",
    "pour son bénéfice",
    "tout particulièrement",
    "plus particulièrement",
    "linguistiquement parlant",
    "au niveau linguistique",
    "en linguistique",
    "du point de vue de la linguistique",
    "à franchement parler",
    "de façon sincère",
    "de manière sincère",
    "d'une façon sincère",
    "d'une manière sincère",
)


def test_criterion_1_example_surfaces(capsys):
    started = time.perf_counter()
    _, result = _extended_result()
    elapsed = time.perf_counter() - started
    surfaces = {entry.surface.rendered for entry in result.entries}
    failures = [f"missing {text!r}" for text in EXPECTED_SURFACES if text not in surfaces]
    if "dans les les plus brefs délais" in surfaces:
        failures.append("produced the over-generated determiner doubling")
    if elapsed >= 5.0:
        failures.append(f"suite took {elapsed:.2f}s (budget 5s)")
    _verdict(capsys, 1, "example surface suite", failures)


# =============================================================================
# criterion 2: curation flags and duplicate records
# =============================================================================

def test_criterion_2_curation_suite(capsys):
    _, result = _extended_result()
    failures: list[str] = []

    _, _, issues = curate(result.entries)  # what validate runs
    flagged = {(i.kind, i.entry_id) for i in issues}
    residue = next((i for i in issues if i.kind is IssueKind.SINGLE_TOKEN_RESIDUE), None)
    if residue is None or residue.entry_id != "PCA#9#del#1" or "pourboire" not in residue.detail:
        failures.append("deletion residue 'pourboire' not flagged as single-token")
    if (IssueKind.AMALGAM_SUSPECT, "PCA#8#del#1") not in flagged:
        failures.append("'à cette heure-' amalgam not flagged")

    # canonical key -> {(survivor, removed entry)}
    by_key = collections.defaultdict(set)
    for row in result.records:
        if row.status == "duplicate":
            by_key[canonical_key(row.surface)].add((row.duplicate_of, row.entry_id))
    if by_key.get("ces derniers temps") != {("PAC#2", "PCA#7#perm#1")}:
        failures.append("'ces derniers temps' pair did not keep exactly one survivor")
    if by_key.get("en l'état actuel") != {("PCDN#3", "PCDC#2#del#1"), ("PCDN#3", "PCDC#3#del#1")}:
        failures.append("double deletion 'en l'état actuel' did not collapse onto the base entry")
    for key in ("ces derniers temps", "en l'état actuel"):
        survivors = [e for e in result.entries if e.surface.rendered == key]
        if len(survivors) != 1:
            failures.append(f"{key!r} appears {len(survivors)} times after curation")
    _verdict(capsys, 2, "curation suite", failures)


# =============================================================================
# criterion 3: oracle equivalence
# =============================================================================

def _package_counts(directory: Path):
    script_path = directory / "extract.lgs"
    script = parse_script(script_path.read_text(encoding="utf-8"), source=str(script_path))
    matrix = load_class_matrix(directory / "classes.lgm")
    entries = []
    for path in sorted(directory.glob("*.lgt"), key=lambda p: p.stem):
        entries.extend(generate_base(resolve_features(load_table(path), matrix), script))
    bases = collections.Counter(e.surface.rendered for e in entries)
    result = run_pipeline(entries, script)
    variants = {name: collections.Counter() for name in oracle.PASS_NAMES}
    for record in result.records:
        if record.kind is not Origin.BASE:
            variants[record.kind.value][record.surface] += 1
    return bases, variants


def _oracle_counts(directory: Path):
    tables = sorted(directory.glob("*.lgt"), key=lambda p: p.stem)
    return oracle.expand_corpus(tables, directory / "classes.lgm", directory / "extract.lgs")


def _compare_corpus(directory: Path) -> list[str]:
    got_bases, got_variants = _package_counts(directory)
    want_bases, want_variants = _oracle_counts(directory)
    failures = []
    if got_bases != want_bases:
        failures.append(f"{directory.name}: base surfaces diverge")
    for name in oracle.PASS_NAMES:
        if got_variants[name] != want_variants[name]:
            failures.append(f"{directory.name}: {name} surfaces diverge")
    return failures


def test_criterion_3_oracle_equivalence(capsys, tmp_path):
    failures = _compare_corpus(FIXTURES)
    for seed in range(100):
        directory = tmp_path / f"corpus{seed}"
        directory.mkdir()
        for filename, content in corpusgen.generate(seed).items():
            (directory / filename).write_text(content, encoding="utf-8")
        failures.extend(_compare_corpus(directory))
        if len(failures) > 5:
            break
    _verdict(capsys, 3, "oracle equivalence", failures)


# =============================================================================
# criterion 4: statistics arithmetic
# =============================================================================

def test_criterion_4_stats_arithmetic(capsys):
    initial = 10487
    added = {
        Origin.PARAPHRASE_DIRECT: 2084,
        Origin.PARAPHRASE_CONSTRUCTION: 7125,
        Origin.DELETION: 1519,
        Origin.PERMUTATION: 103,
        Origin.TRANSFORMATION: 288,
        Origin.INTENSIFICATION: 210,
    }
    expected_pct = {
        Origin.PARAPHRASE_DIRECT: 20,
        Origin.PARAPHRASE_CONSTRUCTION: 68,
        Origin.DELETION: 14,
        Origin.PERMUTATION: 1,
        Origin.TRANSFORMATION: 3,
        Origin.INTENSIFICATION: 2,
    }
    failures = []
    report = compute_stats(initial, added, duplicates_removed=1)
    for origin, pct in expected_pct.items():
        if report.per_pass[origin] != (added[origin], pct):
            failures.append(f"{origin.value}: got {report.per_pass[origin]}")
    groups = (9208, 1910, 210)
    if added[Origin.PARAPHRASE_DIRECT] + added[Origin.PARAPHRASE_CONSTRUCTION] - 1 != groups[0]:
        failures.append("paraphrase group total diverges")
    if sum(groups) != 11328:
        failures.append("grouped additions do not sum to 11,328")
    if initial + sum(groups) != 21815 or report.final != 21815:
        failures.append(f"final count diverges (report.final={report.final})")
    if percentage(groups[0], initial) != 88 or percentage(groups[1], initial) != 18:
        failures.append("group percentages diverge")
    _verdict(capsys, 4, "stats arithmetic", failures)


# =============================================================================
# criterion 5: invariant suite
# =============================================================================

_FUZZ_WORDS = st.sampled_from((
    "de", "le", "la", "les", "que", "à", "heure", "état", "avenir",
    "temps", "cas", "fin", "proche", "l'", "d'", "ci-", "un", "où",
))
_FUZZ_CELL = st.lists(_FUZZ_WORDS, min_size=0, max_size=4).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(_FUZZ_CELL, min_size=1, max_size=5))
def _fuzz_realize_hygiene(cells):
    components = {f"C{i}": text for i, text in enumerate(cells)}
    template = " ".join(f"@C{i}@" for i in range(len(cells)))
    rendered = realize(template, components).rendered
    assert "@" not in rendered
    assert "<E>" not in rendered
    assert "  " not in rendered
    assert rendered == rendered.strip()


def _expanded(entries, script, morpho) -> list[tuple]:
    """(base entry, variant) for every variant ``expand_entry`` returns,
    those that dedup later removes included."""
    pairs = []
    for entry in entries:
        plan = build_plan(script, entry.table_id, tuple(entry.components))
        _, variants = expand_entry(entry, plan, rules=morpho)
        pairs.extend((entry, variant) for variant in variants)
    return pairs


def _check_token_properties(pairs) -> list[str]:
    failures = []
    full_permutation_seen = False
    for parent, entry in pairs:
        kind = entry.provenance.kind
        got = collections.Counter(entry.surface.tokens)
        have = collections.Counter(parent.surface.tokens)
        if kind is Origin.DELETION:
            it = iter(parent.surface.tokens)
            if not all(any(tok == kept for kept in it) for tok in entry.surface.tokens):
                failures.append(f"{entry.entry_id}: deletion is not a subsequence")
        elif kind is Origin.PERMUTATION:
            if got - have:
                failures.append(f"{entry.entry_id}: permutation invented tokens")
            if got == have and entry.surface.tokens != parent.surface.tokens:
                full_permutation_seen = True
        elif kind is Origin.INTENSIFICATION:
            size = len(parent.surface.tokens)
            if entry.surface.tokens[-size:] != parent.surface.tokens:
                failures.append(f"{entry.entry_id}: intensifier did not prefix its base")
    if not full_permutation_seen:
        failures.append("no full reordering found among permutation variants")
    return failures


def test_criterion_5_invariants(capsys):
    doc, result = _extended_result()
    failures: list[str] = []

    # dedup: idempotent, conserves counts
    survivors, duplicates = dedup(list(result.entries))
    if len(survivors) != len(result.entries) or duplicates:
        failures.append("dedup is not idempotent on curated output")
    base_count = len(doc.entries)
    generated = sum(1 for r in result.records if r.kind is not Origin.BASE)
    removed = sum(1 for r in result.records if r.status == "duplicate")
    if base_count + generated - removed != len(result.entries):
        failures.append("dedup does not conserve counts")

    pairs = _expanded(doc.entries, load_fixture_script(), load_fixture_morpho())
    if len(pairs) != generated:
        failures.append(f"expand_entry returned {len(pairs)} variants, the records hold {generated}")
    failures.extend(_check_token_properties(pairs))

    try:
        _fuzz_realize_hygiene()
    except AssertionError:
        failures.append("realize output hygiene fuzz failed")

    extended = LexiconDocument(result.entries, doc.table_ids, doc.script_source)
    for fmt in ("text", "xml"):
        first = export_lexicon(extended, fmt)
        if export_lexicon(import_lexicon(first), fmt) != first:
            failures.append(f"{fmt} round trip is not the identity")

    reference = export_lexicon(extended)
    _, rerun = _extended_result()
    again = LexiconDocument(rerun.entries, doc.table_ids, doc.script_source)
    if export_lexicon(again) != reference:
        failures.append("second run is not byte-identical")

    _verdict(capsys, 5, "invariant suite", failures)


# =============================================================================
# criterion 6: contraction and elision
# =============================================================================

def test_criterion_6_morphophonology(capsys):
    failures = []
    quartet = (
        (["de", "les", "temps"], contract, "des temps"),
        (["à", "le", "cas"], contract, "au cas"),
        (["de", "une", "façon"], elide, "d'une façon"),
        (["le", "état"], elide, "l'état"),
    )
    for tokens, rewrite, expected in quartet:
        got = render(rewrite(list(tokens)))
        if got != expected:
            failures.append(f"{tokens} -> {got!r}, expected {expected!r}")
        once = rewrite(list(tokens))
        if rewrite(list(once)) != once:
            failures.append(f"{rewrite.__name__} is not idempotent on {tokens}")
    mixed = ["jusque", "à", "les", "l'", "heure", "de", "homme"]
    once = elide(contract(list(mixed)))
    if elide(contract(list(once))) != once:
        failures.append("combined rewrite chain is not idempotent")
    _verdict(capsys, 6, "morphophonology", failures)
