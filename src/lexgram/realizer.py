"""Surface realization of templates against table cells.

Realization walks a flat template's ``(kind, text)`` parts against an
entry's component and auxiliary cells, two plain mappings: it substitutes
placeholder tokens, resolves symbolic tokens through a policy, then applies
French morphophonology in a fixed order: contraction (``de le`` -> ``du``),
elision (``de une`` -> ``d'une``), spacing.  A :class:`SurfaceForm` keeps
both the substituted token list (before contraction, used by structural
checks) and the rendered string.

Rule tables and the symbol policy are data: the built-in defaults can be
replaced by plain config files (see :func:`parse_morpho_rules` and
:func:`parse_symbols`).
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Mapping

from .errors import RealizationError, UnboundPlaceholder, UnknownSymbolicToken
from .files import read_text
from .model import EMPTY_CELLS, FrozenFields, SurfaceForm
from .script import COMPONENT, GROUP, LITERAL, SYMBOL, SYMBOLIC_TOKENS, Template, parse_template, part_text

# Symbol policy: how symbolic template tokens render.  Free nominal slots stay
# as literal capitals; the possessive renders masculine singular (``son``) and
# the definite determiner feminine singular (``la``), whatever the noun.
# Agreement is not computed; the review queue flags only transformation
# output for it, so a paraphrase that renders ``Ddef`` goes unflagged.
DEFAULT_SYMBOLS: Mapping[str, str] = {
    "Poss2": "son",
    "Ddef": "la",
    "N": "N",
    "Nhum": "Nhum",
}


class MorphoRules(FrozenFields):
    __match_args__ = ("contractions", "elisions", "vowels", "mute_h")

    def __init__(
        self,
        contractions: tuple[tuple[str, str, str], ...],
        elisions: Mapping[str, str],
        vowels: frozenset[str],
        mute_h: frozenset[str],
    ):
        object.__setattr__(self, "contractions", contractions)
        object.__setattr__(self, "elisions", elisions)
        object.__setattr__(self, "vowels", vowels)
        object.__setattr__(self, "mute_h", mute_h)

    @cached_property
    def _contraction_table(self) -> dict[str, dict[str, str]]:
        """left word -> right word -> contraction; the first rule for a
        pair wins."""
        table: dict[str, dict[str, str]] = {}
        for left, right, result in self.contractions:
            table.setdefault(left, {}).setdefault(right, result)
        return table


DEFAULT_RULES = MorphoRules(
    contractions=(
        ("de", "le", "du"),
        ("de", "les", "des"),
        ("à", "le", "au"),
        ("à", "les", "aux"),
    ),
    elisions={"de": "d'", "le": "l'", "la": "l'", "que": "qu'"},
    vowels=frozenset("aàâäeéèêëiîïoôöuùûüœ"),
    mute_h=frozenset({"heure", "heures", "homme", "hommes"}),
)


def parse_morpho_rules(text: str, source: str | None = None) -> MorphoRules:
    """Parse the plain-text rule format::

        contract de le = du
        elide le = l'
        vowels a à e é ...
        mute-h heure heures

    A word pair contracts, and a word elides, by one rule only: a second
    rule for either is refused.  ``vowels`` and ``mute-h`` lines add up.
    """
    contractions: dict[tuple[str, str], str] = {}  # word pair -> contraction
    elisions: dict[str, str] = {}
    vowels: set[str] = set()
    mute_h: set[str] = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, _, rest = line.partition(" ")
        if directive == "contract":
            lhs, sep, result = rest.partition("=")
            pair = lhs.split()
            if not sep or len(pair) != 2 or not result.split():
                raise RealizationError(f"bad contract rule: {raw.strip()!r}", source, lineno)
            left, right = pair
            if (left, right) in contractions:
                raise RealizationError(f"duplicate contract rule for {left + ' ' + right!r}", source, lineno)
            contractions[left, right] = result.strip()
        elif directive == "elide":
            lhs, sep, result = rest.partition("=")
            if not sep or len(lhs.split()) != 1 or not result.strip():
                raise RealizationError(f"bad elide rule: {raw.strip()!r}", source, lineno)
            word = lhs.strip()
            if word in elisions:
                raise RealizationError(f"duplicate elide rule for {word!r}", source, lineno)
            elisions[word] = result.strip()
        elif directive == "vowels":
            vowels.update(ch for ch in rest if not ch.isspace())
        elif directive == "mute-h":
            mute_h.update(rest.split())
        else:
            raise RealizationError(f"unknown directive {directive!r}", source, lineno)
    return MorphoRules(
        tuple((left, right, result) for (left, right), result in contractions.items()), elisions,
        frozenset(vowels) or DEFAULT_RULES.vowels,
        frozenset(mute_h),
    )


def load_morpho_rules(path: str | Path) -> MorphoRules:
    return parse_morpho_rules(read_text(path), str(path))


def parse_symbols(text: str, source: str | None = None) -> dict[str, str]:
    """Symbol policy file: one ``token = rendering`` per line, # comments.
    A token is set once: a second line for it is refused."""
    symbols: dict[str, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        token, sep, value = line.partition("=")
        token = token.strip()
        if not sep or not token or not value.strip():
            raise RealizationError(f"bad symbol line: {raw.strip()!r}", source, lineno)
        if token not in SYMBOLIC_TOKENS:
            known = ", ".join(sorted(SYMBOLIC_TOKENS))
            raise RealizationError(f"unknown symbolic token {token!r} (expected one of: {known})", source, lineno)
        if token in symbols:
            raise RealizationError(f"duplicate symbolic token {token!r}", source, lineno)
        symbols[token] = value.strip()
    return symbols


def load_symbols(path: str | Path) -> dict[str, str]:
    return parse_symbols(read_text(path), str(path))


# =============================================================================
# token operations
# =============================================================================

def contract(tokens: list[str], rules: MorphoRules = DEFAULT_RULES) -> list[str]:
    """One left-to-right pass rewriting adjacent pairs; first rule wins.
    Already-contracted input comes back unchanged (idempotent)."""
    table = rules._contraction_table
    if table.keys().isdisjoint(tokens):
        return list(tokens)
    out: list[str] = []
    i, n = 0, len(tokens)
    while i < n:
        tok = tokens[i]
        rights = table.get(tok)
        hit = rights.get(tokens[i + 1]) if rights is not None and i + 1 < n else None
        if hit is None:
            out.append(tok)
            i += 1
        else:
            out.append(hit)
            i += 2
    return out


def elide(tokens: list[str], rules: MorphoRules = DEFAULT_RULES) -> list[str]:
    """Fuse eliding words with a following vowel-initial token (``de une`` ->
    ``d'une``); a word is vowel-initial if it starts with one of the rules'
    vowels or is a mute-h word, case folded.  Tokens ending in an apostrophe
    are pre-fused and untouched."""
    elisions = rules.elisions
    if elisions.keys().isdisjoint(tokens):
        return list(tokens)
    vowels, mute_h = rules.vowels, rules.mute_h
    out: list[str] = []
    i, last = 0, len(tokens) - 1
    while i < last:
        tok = tokens[i]
        if tok in elisions and not tok.endswith("'"):
            following = tokens[i + 1]
            word = following.casefold()
            if word and (word[0] in vowels or word in mute_h):
                out.append(elisions[tok] + following)
                i += 2
                continue
        out.append(tok)
        i += 1
    if i == last:
        out.append(tokens[last])
    return out


def render(tokens: list[str]) -> str:
    """Single-space join, except that apostrophe-final and hyphen-final tokens
    fuse with the next one (``l'`` + ``état`` -> ``l'état``, ``heure-`` +
    ``ci`` -> ``heure-ci``)."""
    joined = " ".join(tokens)
    # without fusing or empty tokens, the join is the answer
    if "'" not in joined and "-" not in joined and "" not in tokens:
        return joined
    out = ""
    for tok in tokens:
        if out and not out.endswith(("'", "-")):
            out += " "
        out += tok
    return out


# =============================================================================
# realization
# =============================================================================

def realize(
    template: Template | str,
    components: Mapping[str, str],
    aux: Mapping[str, str] = EMPTY_CELLS,
    symbols: Mapping[str, str] = DEFAULT_SYMBOLS,
    rules: MorphoRules = DEFAULT_RULES,
) -> SurfaceForm:
    """Substitute a flat template's parts and render them.

    ``components`` maps structure slot symbols and ``aux`` auxiliary
    lexical columns to cell texts, "" standing for the empty component.
    ``@<ENT>X@`` looks X up in ``components``; ``@X@`` tries ``aux`` first
    and falls back to the component of the same name, so scripts may
    reference entry components without the ``<ENT>`` marker.  Multi-word
    cell texts contribute one token per word; empty components contribute
    nothing.  A group part raises ValueError.
    """
    if isinstance(template, str):
        template = parse_template(template)
    tokens: list[str] = []
    for kind, name in template.parts:
        if kind == LITERAL:
            tokens.append(name)
            continue
        if kind == SYMBOL:
            value = symbols.get(name)
            if value is None:
                raise UnknownSymbolicToken(f"no policy for symbolic token {name!r}")
        elif kind == GROUP:
            raise ValueError("realize expects a flat template")
        else:
            value = components.get(name) if kind == COMPONENT or name not in aux else aux[name]
            if value is None:
                raise UnboundPlaceholder(f"placeholder {part_text(kind, name)!r} is not bound")
        tokens += value.split()
    rendered = render(elide(contract(tokens, rules), rules))
    return SurfaceForm(tuple(tokens), rendered)
