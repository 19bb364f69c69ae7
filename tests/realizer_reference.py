"""The part-by-part realizer, kept as a test oracle.

``lexgram.realizer.realize`` looks contractions up in a pair table made once
per rule set, and skips the contraction, elision and spacing loops when no
token can take part in them.  ``realize`` here is the function it replaced:
it resolves each placeholder through a lookup of its own, spells an
unbound placeholder its own way, scans every contraction rule at every
token pair, and walks every token in ``elide`` and ``render``.  The
differential tests in ``test_realizer.py`` check that both return the same
surface, or raise the same error with the same message.
"""

from __future__ import annotations

from typing import Mapping

from lexgram.errors import UnboundPlaceholder, UnknownSymbolicToken
from lexgram.model import EMPTY_CELLS, SurfaceForm
from lexgram.realizer import DEFAULT_RULES, DEFAULT_SYMBOLS, MorphoRules
from lexgram.script import COMPONENT, GROUP, LITERAL, SYMBOL, Template, parse_template


def contract(tokens: list[str], rules: MorphoRules = DEFAULT_RULES) -> list[str]:
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
    out = ""
    for tok in tokens:
        if out and not out.endswith(("'", "-")):
            out += " "
        out += tok
    return out


def _resolve(components: Mapping[str, str], aux: Mapping[str, str], name: str, component: bool) -> str | None:
    if component:
        return components.get(name)
    if name in aux:
        return aux[name]
    return components.get(name)


def realize(
    template: Template | str,
    components: Mapping[str, str],
    aux: Mapping[str, str] = EMPTY_CELLS,
    symbols: Mapping[str, str] = DEFAULT_SYMBOLS,
    rules: MorphoRules = DEFAULT_RULES,
) -> SurfaceForm:
    if isinstance(template, str):
        template = parse_template(template)
    tokens: list[str] = []
    for kind, text in template.parts:
        if kind == GROUP:
            raise ValueError("realize expects a flat template")
        if kind == LITERAL:
            tokens.append(text)
        elif kind == SYMBOL:
            value = symbols.get(text)
            if value is None:
                raise UnknownSymbolicToken(f"no policy for symbolic token {text!r}")
            tokens.extend(value.split())
        else:
            component = kind == COMPONENT
            value = _resolve(components, aux, text, component)
            if value is None:
                spelled = "@" + ("<ENT>" if component else "") + text + "@"
                raise UnboundPlaceholder(f"placeholder {spelled!r} is not bound")
            tokens.extend(value.split())
    rendered = render(elide(contract(tokens, rules), rules))
    return SurfaceForm(tuple(tokens), rendered)
