"""Seeded generator of synthetic corpora (tables, class matrix, script).

The generated inputs stay inside the vocabulary the oracle and the pipeline
both understand: closed slot inventory, safe cell words (no ``@``, quotes,
tabs, or parentheses), aux column names disjoint from slot symbols, and
alternation groups holding plain literals only.  Every seed is deterministic.
"""

from __future__ import annotations

import random

STRUCTURES = (
    ("Prép1", "Det1", "C1"),
    ("Prép1", "C1"),
    ("Prép1", "Det1", "C1", "Adj"),
    ("Prép1", "Det1", "Adj", "C1"),
    ("Prép1", "Det1", "C1", "Prép2", "Det2", "C2"),
    ("Prép1", "Det1", "C1", "Modif pré-adj", "Adj"),
    ("Adv",),
)

PREPS = ("de", "à", "en", "dans", "par", "pour", "sur", "avec")
DETS = ("le", "la", "les", "un", "une", "ce", "cette", "ces", "l'", "<E>")
NOUNS = (
    "cas", "temps", "fin", "état", "heure", "homme", "instant",
    "moment", "jour", "nuit", "façon", "manière", "ordre", "époque",
)
ADJS = ("contraire", "proche", "dernier", "premier", "actuel", "ancien", "général", "bref")
ADVS = ("lentement", "rapidement", "doucement", "fortement")
MODIFS = ("les plus", "le plus", "<E>")
AUX_NAMES = ("syn-a", "syn-b")
AUX_WORDS = ("vérité", "pratique", "théorie", "douceur", "franchise", "sincérité", "<E>")
LIT_NOUNS = ("niveau", "vue", "point", "esprit")

OMNI_FEATURE = "N0 V Adv W"
OMNI_PARA = "en vérité, P"


def _cell_for(rng: random.Random, slot: str) -> str:
    base = slot.rstrip("12v")
    if base == "Prép":
        return rng.choice(PREPS)
    if base == "Det":
        return rng.choice(DETS)
    if base == "C":
        return rng.choice(NOUNS)
    if slot == "Adj":
        return rng.choice(ADJS)
    if slot == "Adv":
        return rng.choice(ADVS)
    if slot == "Modif pré-adj":
        return rng.choice(MODIFS)
    if base == "N":
        return "N"
    raise AssertionError(f"no pool for slot {slot!r}")


def _maybe_group(rng: random.Random, word: str) -> str:
    roll = rng.random()
    if roll < 0.2:
        return f"({word} + E)"
    if roll < 0.35:
        other = rng.choice(("une", "tout", "plus", "moins", "le"))
        return f"({word} + {other})"
    return word


def _paraphrase_template(rng: random.Random, aux_cols: list[str], structure: tuple[str, ...]) -> str:
    parts: list[str] = []
    if rng.random() < 0.8:
        parts.append(_maybe_group(rng, rng.choice(PREPS)))
    roll = rng.random()
    if roll < 0.3:
        parts.append(rng.choice(("le", "la", "les", "une")))
    elif roll < 0.45:
        parts.append("Ddef")
    elif roll < 0.55:
        parts.append(_maybe_group(rng, "une"))
    if aux_cols and rng.random() < 0.7:
        parts.append(f"@{rng.choice(aux_cols)}@")
    elif rng.random() < 0.5:
        parts.append(rng.choice(LIT_NOUNS))
    else:
        slot = rng.choice(structure)
        marker = "<ENT>" if rng.random() < 0.5 else ""
        parts.append(f"@{marker}{slot}@")
    if rng.random() < 0.3:
        parts.append(rng.choice(ADJS))
    return " ".join(parts)


def _substructure_rule(rng: random.Random, structure: tuple[str, ...]) -> tuple[str, str]:
    k = rng.randint(1, len(structure))
    slots = rng.sample(list(structure), k)
    if rng.random() < 0.5:
        slots.sort(key=structure.index)
    label = " ".join(slots)
    template = " ".join(f"@<ENT>{slot}@" for slot in slots)
    return label, template


def _transformation_template(rng: random.Random, structure: tuple[str, ...]) -> str:
    keep = [slot for slot in structure if rng.random() < 0.7]
    if not keep:
        keep = [structure[0]]
    parts = [f"@<ENT>{slot}@" for slot in keep]
    insert = rng.choice(("Poss2", rng.choice(ADJS), rng.choice(("le", "la"))))
    parts.insert(rng.randint(0, len(parts)), insert)
    return " ".join(parts)


def _intensifier_template(rng: random.Random, structure: tuple[str, ...]) -> str:
    target = "Adv" if "Adv" in structure else "C1"
    head = rng.choice(("(tout + plus)", "(plus + moins)", "tout", "si"))
    return f"{head} @<ENT>{target}@"


def generate(seed: int, row_range: tuple[int, int] = (2, 6)) -> dict[str, str]:
    """Return {filename: content} for one synthetic corpus whose tables
    hold between ``row_range[0]`` and ``row_range[1]`` rows each."""
    rng = random.Random(seed)
    n_tables = rng.randint(1, 3)
    table_ids = [f"GEN{i + 1}" for i in range(n_tables)]

    files: dict[str, str] = {}
    rule_lines: list[str] = ["# synthetic corpus", f"* : \"{OMNI_FEATURE}\" => construction"]
    matrix_features: list[str] = [OMNI_FEATURE]
    matrix_rows: dict[str, dict[str, str]] = {tid: {OMNI_FEATURE: "+"} for tid in table_ids}

    omni_para = rng.random() < 0.6
    if omni_para:
        matrix_features.append(OMNI_PARA)
        for tid in table_ids:
            matrix_rows[tid][OMNI_PARA] = "+"
        rule_lines.append(f'* : "{OMNI_PARA}" => paraphrase "en vérité"')
        if rng.random() < 0.5:
            rule_lines.append(f'{table_ids[0]} : "{OMNI_PARA}" => paraphrase "à la vérité"')

    for tid in table_ids:
        structure = rng.choice(STRUCTURES)
        n_rows = rng.randint(*row_range)
        aux_cols = [name for name in AUX_NAMES if rng.random() < 0.5]
        n_feats = rng.randint(1, 4)
        feat_ids = [f"{tid} feat{i + 1}" for i in range(n_feats)]

        header = [f"<ENT>{slot}" for slot in structure] + aux_cols + feat_ids
        rows: list[list[str]] = []
        for _ in range(n_rows):
            cells = [_cell_for(rng, slot) for slot in structure]
            cells += [rng.choice(AUX_WORDS) for _ in aux_cols]
            cells += ["+" if rng.random() < 0.6 else "-" for _ in feat_ids]
            rows.append(cells)
        lines = ["\t".join(header)] + ["\t".join(r) for r in rows]
        files[f"{tid}.lgt"] = "\n".join(lines) + "\n"

        for fid in feat_ids:
            matrix_features.append(fid)
            for other in table_ids:
                matrix_rows[other][fid] = "o" if other == tid else rng.choice(("-", ""))
            action = rng.choice(
                ("paraphrase", "paraphrase", "construction", "substructure",
                 "transformation", "intensifier")
            )
            if action == "paraphrase":
                template = _paraphrase_template(rng, aux_cols, structure)
                rule = f'{tid} : "{fid}" => paraphrase "{template}"'
            elif action == "construction":
                if rng.random() < 0.3:
                    rule = f'{tid} : "{fid}" => construction'
                else:
                    template = _paraphrase_template(rng, aux_cols, structure)
                    rule = f'{tid} : "{fid}" => construction "{template}"'
            elif action == "substructure":
                label, template = _substructure_rule(rng, structure)
                rule = f'{tid} : "{fid}" => substructure({label}) "{template}"'
            elif action == "transformation":
                template = _transformation_template(rng, structure)
                rule = f'{tid} : "{fid}" => transformation "{template}"'
            else:
                template = _intensifier_template(rng, structure)
                rule = f'{tid} : "{fid}" => intensifier "{template}"'
            if rng.random() < 0.25:
                head, _, tail = rule.partition(" => ")
                rule = f"{head} => \\\n    {tail}"
            rule_lines.append(rule)
            if rng.random() < 0.15:
                rule_lines.append("# filler comment")

    matrix_lines = ["class\t" + "\t".join(matrix_features)]
    for tid in table_ids:
        row = [tid] + [matrix_rows[tid].get(fid, "") for fid in matrix_features]
        matrix_lines.append("\t".join(row))
    files["classes.lgm"] = "\n".join(matrix_lines) + "\n"
    files["extract.lgs"] = "\n".join(rule_lines) + "\n"
    return files
