"""The part-by-part realizer, kept as a test oracle.

``lexgram.realizer.realize`` walks a template's kept ``flat_parts``, looks
contractions up in a pair table made once per rule set, and skips the
contraction, elision and spacing loops when no token can take part in
them.  ``realize`` here is the function it replaced: it tests the type of
each part, resolves each placeholder through the bindings' rule, scans
every contraction rule at every token pair, and walks every token in
``elide`` and ``render``.  The differential tests in ``test_realizer.py``
check that both return the same surface, or raise the same error with the
same message.
"""

from __future__ import annotations

from typing import Mapping

from lexgram.errors import UnboundPlaceholder, UnknownSymbolicToken
from lexgram.model import SurfaceForm
from lexgram.realizer import DEFAULT_RULES, DEFAULT_SYMBOLS, Bindings, MorphoRules
from lexgram.script import Group, Literal, Symbolic, Template, parse_template


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


def _resolve(bindings: Bindings, name: str, component: bool) -> str | None:
    if component:
        return bindings.components.get(name)
    if name in bindings.aux:
        return bindings.aux[name]
    return bindings.components.get(name)


def realize(
    template: Template | str,
    bindings: Bindings,
    symbols: Mapping[str, str] = DEFAULT_SYMBOLS,
    rules: MorphoRules = DEFAULT_RULES,
) -> SurfaceForm:
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
            value = _resolve(bindings, part.name, part.component)
            if value is None:
                raise UnboundPlaceholder(f"placeholder {part.text!r} is not bound")
            tokens.extend(value.split())
    rendered = render(elide(contract(tokens, rules), rules))
    return SurfaceForm(tuple(tokens), rendered)
