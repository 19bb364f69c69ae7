"""Seeded input generators for the benchmark workloads (standard library only).

Every generator writes the same bytes for the same seed.  The program under
test receives only the files written here: tables (``.lgt``), the class
matrix (``classes.lgm``) and the rule script (``extract.lgs``).

Why each workload exists:

* ``adverbs-paper`` is the paper's own traffic: the nine fixture tables
  replicated to paper scale (31 rows x 339 = 10,509 rows, close to the
  paper's 10,487).  Expansion and text import do most of the work; the
  lexicon is reloaded three times (extend, validate, stats); the XML layer
  does no work.
* ``adverbs-convert`` converts the lexicon ``adverbs-paper`` produces to XML
  and back.  The formats layer does all the work and expansion does none,
  so a serializer change moves it and an expansion change must not.
* ``synthetic-wide`` runs the same text chain on ~300 generated tables with
  several hundred rules, a wide class matrix and distinct rows drawn from
  small vocabularies.  Many rules are resolved per table, most generated
  variants collide (heavy dedup), and the record sidecar is large.
"""

from __future__ import annotations

import random
import string
from pathlib import Path

# ---------------------------------------------------------------------------
# adverbs-paper / adverbs-convert: the fixture corpus at paper scale
# ---------------------------------------------------------------------------

PAPER_COPIES = 339
SUFFIX_LETTERS = 4
# Columns holding content words.  Each copy of a row suffixes these cells so
# that copies do not merge; function words (Prép, Det, Modif) stay as they
# are, so contraction and elision behave as in the fixtures.
CONTENT_COLUMNS = frozenset({"C1", "C2", "Adj", "Adv", "Adj-n", "Adv-syn"})


def _suffix_tokens(rng: random.Random, count: int) -> list[str]:
    letters = string.ascii_lowercase
    space = len(letters) ** SUFFIX_LETTERS
    tokens = []
    for code in rng.sample(range(space), count):
        chars = []
        for _ in range(SUFFIX_LETTERS):
            code, digit = divmod(code, len(letters))
            chars.append(letters[digit])
        tokens.append("".join(chars))
    return tokens


def _suffixed(cell: str, suffix: str) -> str:
    return cell if cell == "<E>" else cell + suffix


def write_paper_corpus(fixtures: Path, out: Path, seed: int) -> list[Path]:
    """Replicate the fixture tables ``PAPER_COPIES`` times into ``out``.

    The seed picks the per-copy suffix tokens and the row order inside each
    table.  The class matrix and the rule script are copied verbatim.
    Returns the table paths.
    """
    rng = random.Random(f"adverbs-paper:{seed}")
    suffixes = _suffix_tokens(rng, PAPER_COPIES)
    tables = []
    for src in sorted(fixtures.glob("*.lgt")):
        lines = [l for l in src.read_text(encoding="utf-8").split("\n") if l.strip()]
        header = lines[0].split("\t")
        content = [h.strip().removeprefix("<ENT>") in CONTENT_COLUMNS for h in header]
        rows = []
        for suffix in suffixes:
            for line in lines[1:]:
                cells = line.split("\t")
                rows.append("\t".join(
                    _suffixed(c, suffix) if is_content else c
                    for c, is_content in zip(cells, content)
                ))
        rng.shuffle(rows)
        path = out / src.name
        path.write_text("\n".join([lines[0], *rows]) + "\n", encoding="utf-8")
        tables.append(path)
    for name in ("classes.lgm", "extract.lgs"):
        (out / name).write_bytes((fixtures / name).read_bytes())
    return tables


# ---------------------------------------------------------------------------
# synthetic-wide: many tables, many rules, heavy collisions
# ---------------------------------------------------------------------------

WIDE_TABLES = 300
WIDE_ROWS = 30
PLUS_SHARE = 0.6  # share of '+' cells in every table-specific feature column

# Every structure has room for far more distinct rows than the corpus draws
# (the smallest, Prép1 Det1 C1, has 8 x 10 x 40 = 3,200 for 1,500 rows).
STRUCTURES = (
    ("Prép1", "Det1", "C1"),
    ("Prép1", "Det1", "C1", "Adj"),
    ("Prép1", "Det1", "Adj", "C1"),
    ("Prép1", "Det1", "C1", "Prép2", "Det2", "C2"),
    ("Prép1", "Det1", "C1", "Modif pré-adj", "Adj"),
    ("Prép1", "Det1", "C1", "Adv"),
)

PREPS = ("de", "à", "en", "dans", "par", "pour", "sur", "avec")
DETS = ("le", "la", "les", "un", "une", "ce", "cette", "ces", "l'", "<E>")
NOUNS = (
    "cas", "temps", "fin", "état", "heure", "homme", "instant", "moment", "jour", "nuit",
    "façon", "manière", "ordre", "époque", "année", "semaine", "saison", "siècle", "mode",
    "règle", "limite", "point", "niveau", "vue", "rythme", "coup", "fois", "sorte", "forme",
    "mesure", "raison", "suite", "place", "part", "côté", "bout", "face", "tour", "cours", "ligne",
)
ADJS = (
    "contraire", "proche", "dernier", "premier", "actuel", "ancien", "général", "bref",
    "entier", "certain", "rapide", "lent", "simple", "double", "long", "court", "grand",
    "petit", "nouveau", "seul",
)
ADVS = (
    "lentement", "rapidement", "doucement", "fortement", "vraiment", "simplement",
    "largement", "nettement", "clairement", "librement", "justement", "directement",
)
MODIFS = ("les plus", "le plus", "<E>")
AUX_COLUMNS = ("syn-a", "syn-b")
AUX_WORDS = ("vérité", "pratique", "théorie", "douceur", "franchise", "sincérité", "<E>")
LIT_NOUNS = ("niveau", "vue", "point", "esprit")
GROUP_WORDS = ("une", "tout", "plus", "moins", "le")

CONSTRUCTION_FEATURE = "N0 V Adv W"
OMNI_FEATURE = "en vérité, P"
OMNI_SHARE = 10  # every tenth class carries the wildcard paraphrase
SHARED_SHARE = 4  # every fourth table of a structure carries its shared feature
STRAY_MINUS = 0.01  # share of other classes marking a table's feature always-invalid
# Rule kinds a table draws from, two per table in rotation, so that every
# pass runs and each table resolves the same number of its own rules.
RULE_KINDS = ("paraphrase", "construction", "substructure", "transformation", "intensifier")


def _cell_pool(slot: str) -> tuple[str, ...]:
    if slot.startswith("Prép"):
        return PREPS
    if slot.startswith("Det"):
        return DETS
    if slot.startswith("C"):
        return NOUNS
    return {"Adj": ADJS, "Adv": ADVS, "Modif pré-adj": MODIFS}[slot]


def _distinct_rows(
    rng: random.Random, structure: tuple[str, ...], count: int, seen: set[tuple[str, ...]],
) -> list[list[str]]:
    """Draw ``count`` rows no table of this structure has drawn yet."""
    pools = [_cell_pool(slot) for slot in structure]
    rows = []
    while len(rows) < count:
        cells = tuple(rng.choice(pool) for pool in pools)
        if cells not in seen:
            seen.add(cells)
            rows.append(list(cells))
    return rows


def _group(rng: random.Random, word: str) -> str:
    # exactly two alternatives, so every template flattens to two variants
    other = rng.choice([w for w in GROUP_WORDS if w != word] + ["E"])
    return f"({word} + {other})"


def _paraphrase_template(rng: random.Random, structure: tuple[str, ...]) -> str:
    parts = [_group(rng, rng.choice(PREPS))]
    roll = rng.random()
    if roll < 0.4:
        parts.append(rng.choice(("le", "la", "les", "une", "Ddef")))
    roll = rng.random()
    if roll < 0.5:
        parts.append(f"@{rng.choice(AUX_COLUMNS)}@")
    elif roll < 0.7:
        parts.append(rng.choice(LIT_NOUNS))
    else:
        marker = "<ENT>" if rng.random() < 0.5 else ""
        parts.append(f"@{marker}{rng.choice(structure)}@")
    if rng.random() < 0.3:
        parts.append(rng.choice(ADJS))
    return " ".join(parts)


def _substructure(rng: random.Random, structure: tuple[str, ...], permute: bool) -> tuple[str, str]:
    if permute and len(structure) > 1:
        slots = rng.sample(list(structure), rng.randint(2, len(structure)))
        if [structure.index(s) for s in slots] == sorted(structure.index(s) for s in slots):
            slots.reverse()  # force a reordering: this rule is a permutation
    else:
        slots = sorted(rng.sample(list(structure), rng.randint(1, len(structure))), key=structure.index)
    return " ".join(slots), " ".join(f"@<ENT>{slot}@" for slot in slots)


def _transformation(rng: random.Random, structure: tuple[str, ...]) -> str:
    parts = [f"@<ENT>{slot}@" for slot in structure if rng.random() < 0.7] or ["@<ENT>C1@"]
    parts.insert(rng.randint(0, len(parts)), rng.choice(("Poss2", rng.choice(ADJS), "le", "la")))
    return " ".join(parts)


def _intensifier(rng: random.Random, structure: tuple[str, ...]) -> str:
    target = "Adv" if "Adv" in structure else "C1"
    return f"{rng.choice(('(tout + plus)', '(plus + moins)', '(si + E)'))} @<ENT>{target}@"


def _rule(rng: random.Random, kind: str, tid: str, fid: str, structure: tuple[str, ...], index: int) -> str:
    if kind == "paraphrase":
        body = f'paraphrase "{_paraphrase_template(rng, structure)}"'
    elif kind == "construction":
        body = f'construction "{_paraphrase_template(rng, structure)}"'
    elif kind == "substructure":
        label, template = _substructure(rng, structure, permute=index % 2 == 1)
        body = f'substructure({label}) "{template}"'
    elif kind == "transformation":
        body = f'transformation "{_transformation(rng, structure)}"'
    else:
        body = f'intensifier "{_intensifier(rng, structure)}"'
    if rng.random() < 0.25:
        body = "\\\n    " + body
    return f'{tid} : "{fid}" => {body}'


def write_wide_corpus(out: Path, seed: int) -> list[Path]:
    """Write the synthetic-wide corpus into ``out``; returns the table paths.

    The shape is fixed (table count, rows per table, rules per table, '+'
    cells per feature column, flattenings per template), so every seed
    generates the same number of variants; the seed draws the words, and so
    decides which variants collide.
    """
    rng = random.Random(f"synthetic-wide:{seed}")
    table_ids = [f"W{i:03d}" for i in range(WIDE_TABLES)]
    structures = {tid: STRUCTURES[i % len(STRUCTURES)] for i, tid in enumerate(table_ids)}

    rules = [
        "# synthetic-wide corpus",
        f'* : "{CONSTRUCTION_FEATURE}" => construction',
        f'* : "{OMNI_FEATURE}" => paraphrase "en {rng.choice(AUX_WORDS[:-1])}"',
    ]
    matrix_features = [CONSTRUCTION_FEATURE, OMNI_FEATURE]
    matrix = {
        tid: {CONSTRUCTION_FEATURE: "+", OMNI_FEATURE: "+" if i % OMNI_SHARE == 0 else "-"}
        for i, tid in enumerate(table_ids)
    }

    # One shared feature per structure: an explicit rule for the tables of
    # that structure overrides a literal-only wildcard rule, so rule
    # precedence is resolved for every table.
    for s, structure in enumerate(STRUCTURES):
        fid = f"shared {s}"
        members = [tid for tid in table_ids if structures[tid] == structure]
        matrix_features.append(fid)
        for tid in members:
            matrix[tid][fid] = "+" if tid in members[::SHARED_SHARE] else "-"
        rules.append(f'* : "{fid}" => paraphrase "{_group(rng, rng.choice(PREPS))} {rng.choice(LIT_NOUNS)}"')
        rules.append(f'{",".join(members)} : "{fid}" => \\\n    paraphrase "{_paraphrase_template(rng, structure)}"')

    paths = []
    drawn: dict[tuple[str, ...], set[tuple[str, ...]]] = {}
    for i, tid in enumerate(table_ids):
        structure = structures[tid]
        kinds = (RULE_KINDS[i % len(RULE_KINDS)], RULE_KINDS[(i + 2) % len(RULE_KINDS)])
        feats = [f"{tid} f{k}" for k in range(len(kinds))]
        for k, (kind, fid) in enumerate(zip(kinds, feats)):
            rules.append(_rule(rng, kind, tid, fid, structure, i + k))
            if rng.random() < 0.1:
                rules.append("# filler comment")
            matrix_features.append(fid)
            for other in table_ids:
                if other == tid:
                    matrix[other][fid] = "o"
                elif rng.random() < STRAY_MINUS:
                    matrix[other][fid] = "-"

        rows = _distinct_rows(rng, structure, WIDE_ROWS, drawn.setdefault(structure, set()))
        plus = round(PLUS_SHARE * WIDE_ROWS)
        columns = []
        for _ in feats:
            column = ["+"] * plus + ["-"] * (WIDE_ROWS - plus)
            rng.shuffle(column)
            columns.append(column)
        header = [f"<ENT>{slot}" for slot in structure] + list(AUX_COLUMNS) + feats
        lines = ["\t".join(header)]
        for r, cells in enumerate(rows):
            aux = [rng.choice(AUX_WORDS) for _ in AUX_COLUMNS]
            lines.append("\t".join(cells + aux + [column[r] for column in columns]))
        path = out / f"{tid}.lgt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)

    matrix_lines = ["class\t" + "\t".join(matrix_features)]
    for tid in table_ids:
        matrix_lines.append("\t".join([tid] + [matrix[tid].get(f, "") for f in matrix_features]))
    (out / "classes.lgm").write_text("\n".join(matrix_lines) + "\n", encoding="utf-8")
    (out / "extract.lgs").write_text("\n".join(rules) + "\n", encoding="utf-8")
    return paths
