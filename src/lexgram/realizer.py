"""Surface realization of templates against table cells.

Realization substitutes placeholder tokens, resolves symbolic tokens through
a policy, then applies French morphophonology in a fixed order: contraction
(``de le`` -> ``du``), elision (``de une`` -> ``d'une``), spacing.  A
:class:`SurfaceForm` keeps both the substituted token list (before
contraction, used by structural checks) and the rendered string.

Rule tables are data: the built-in defaults can be replaced by a plain
config file (see :func:`parse_morpho_rules`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import RealizationError, UnboundPlaceholder, UnknownSymbolicToken, read_text
from .script import Group, Literal, Placeholder, Symbolic, Template, parse_template

# Symbol policy: how symbolic template tokens render.  Free nominal slots stay
# as literal capitals; determiners and possessives get masculine-singular
# defaults (agreement is flagged downstream, not computed).
DEFAULT_SYMBOLS: Mapping[str, str] = {
    "Poss2": "son",
    "Ddef": "la",
    "N": "N",
    "Nhum": "Nhum",
}


@dataclass(frozen=True)
class MorphoRules:
    contractions: tuple[tuple[str, str, str], ...]
    elisions: Mapping[str, str]
    vowels: frozenset[str]
    mute_h: frozenset[str]


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
    """
    contractions: list[tuple[str, str, str]] = []
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
            contractions.append((pair[0], pair[1], result.strip()))
        elif directive == "elide":
            lhs, sep, result = rest.partition("=")
            if not sep or len(lhs.split()) != 1 or not result.strip():
                raise RealizationError(f"bad elide rule: {raw.strip()!r}", source, lineno)
            elisions[lhs.strip()] = result.strip()
        elif directive == "vowels":
            vowels.update(ch for ch in rest if not ch.isspace())
        elif directive == "mute-h":
            mute_h.update(rest.split())
        else:
            raise RealizationError(f"unknown directive {directive!r}", source, lineno)
    return MorphoRules(
        tuple(contractions), elisions,
        frozenset(vowels) or DEFAULT_RULES.vowels,
        frozenset(mute_h),
    )


def load_morpho_rules(path: str | Path) -> MorphoRules:
    return parse_morpho_rules(read_text(path), str(path))


# =============================================================================
# token operations
# =============================================================================

def contract(tokens: list[str], rules: MorphoRules = DEFAULT_RULES) -> list[str]:
    """One left-to-right pass rewriting adjacent pairs; first rule wins.
    Already-contracted input comes back unchanged (idempotent)."""
    out: list[str] = []
    i = 0
    while i < len(tokens):
        hit = None
        if i + 1 < len(tokens):
            for left, right, result in rules.contractions:
                if tokens[i] == left and tokens[i + 1] == right:
                    hit = result
                    break
        if hit is None:
            out.append(tokens[i])
            i += 1
        else:
            out.append(hit)
            i += 2
    return out


def _vowel_initial(word: str, rules: MorphoRules) -> bool:
    w = word.casefold()
    return bool(w) and (w[0] in rules.vowels or w in rules.mute_h)


def elide(tokens: list[str], rules: MorphoRules = DEFAULT_RULES) -> list[str]:
    """Fuse eliding words with a following vowel-initial token (``de une`` ->
    ``d'une``).  Tokens ending in an apostrophe are pre-fused and untouched."""
    out: list[str] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if (
            i + 1 < len(tokens)
            and tok in rules.elisions
            and not tok.endswith("'")
            and _vowel_initial(tokens[i + 1], rules)
        ):
            out.append(rules.elisions[tok] + tokens[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def render(tokens: list[str]) -> str:
    """Single-space join, except that apostrophe-final and hyphen-final tokens
    fuse with the next one (``l'`` + ``état`` -> ``l'état``, ``heure-`` +
    ``ci`` -> ``heure-ci``)."""
    out = ""
    for tok in tokens:
        if out and not out.endswith(("'", "-")):
            out += " "
        out += tok
    return out


# =============================================================================
# realization
# =============================================================================

@dataclass(frozen=True, slots=True)
class SurfaceForm:
    """Substituted tokens (pre-contraction) plus the rendered citation form."""

    tokens: tuple[str, ...]
    rendered: str


@dataclass(frozen=True)
class Bindings:
    """The cell texts available to a template.

    ``components`` maps structure slot symbols, ``aux`` maps auxiliary
    lexical columns; values are cell texts, "" standing for the empty
    component.  ``@X@`` placeholders try ``aux`` first and fall back to the
    component of the same name, so scripts may reference entry components
    without the ``<ENT>`` marker.
    """

    components: Mapping[str, str]
    aux: Mapping[str, str] = field(default_factory=dict)

    def resolve(self, name: str, component: bool) -> str | None:
        if component:
            return self.components.get(name)
        if name in self.aux:
            return self.aux[name]
        return self.components.get(name)


def realize(
    template: Template | str,
    bindings: Bindings,
    symbols: Mapping[str, str] = DEFAULT_SYMBOLS,
    rules: MorphoRules = DEFAULT_RULES,
) -> SurfaceForm:
    """Substitute a flat template and render it.

    Multi-word cell texts contribute one token per word; empty components
    contribute nothing.
    """
    if isinstance(template, str):
        template = parse_template(template)
    tokens: list[str] = []
    for part in template.parts:
        if isinstance(part, Group):
            raise ValueError("realize expects a flat template")
        if isinstance(part, Literal):
            tokens.append(part.text)
        elif isinstance(part, Symbolic):
            value = symbols.get(part.text)
            if value is None:
                raise UnknownSymbolicToken(f"no policy for symbolic token {part.text!r}")
            tokens.extend(value.split())
        else:
            value = bindings.resolve(part.name, part.component)
            if value is None:
                raise UnboundPlaceholder(f"placeholder {part.text!r} is not bound")
            tokens.extend(value.split())
    rendered = render(elide(contract(tokens, rules), rules))
    return SurfaceForm(tuple(tokens), rendered)
