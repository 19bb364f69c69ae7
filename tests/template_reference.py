"""The template parser with one class per part kind, kept as a test oracle.

``lexgram.script`` parses a template straight into one tuple of
``(kind, text)`` pairs, the form the realizer walks.  This module is the
implementation it replaced, copied unchanged: a frozen class for each of
literals, symbolic tokens, placeholders and alternation groups, and a
template's text and alternation flattening written against those classes.
:func:`pairs` maps its parts to the pairs.  The differential tests in
``test_script.py`` check that both parsers refuse the same templates with
the same message, or give the same parts, the same text and the same
flattened templates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from lexgram.errors import ScriptSyntaxError
from lexgram.script import COLUMN, COMPONENT, GROUP, LITERAL, SYMBOL, SYMBOLIC_TOKENS
from lexgram.tables import ENT_PREFIX


@dataclass(frozen=True)
class Literal:
    text: str


@dataclass(frozen=True)
class Symbolic:
    text: str


@dataclass(frozen=True)
class Placeholder:
    name: str
    component: bool  # written @<ENT>name@

    @property
    def text(self) -> str:
        return f"@{ENT_PREFIX if self.component else ''}{self.name}@"


@dataclass(frozen=True)
class Group:
    # Each alternative is a (possibly empty) sequence of non-group parts.
    alternatives: tuple[tuple[object, ...], ...]


Part = object  # Literal | Symbolic | Placeholder | Group


@dataclass(frozen=True)
class Template:
    parts: tuple[Part, ...]

    @cached_property
    def text(self) -> str:
        chunks = []
        for part in self.parts:
            if isinstance(part, Group):
                alts = (" ".join(p.text for p in alt) if alt else "E" for alt in part.alternatives)
                chunks.append("(" + " + ".join(alts) + ")")
            else:
                chunks.append(part.text)
        return " ".join(chunks)


_SPECIAL = set("@()+")


def parse_template(source: str) -> Template:
    """Tokenize a template string into parts, validating grouping and markers."""
    parts: list[Part] = []
    group_alts: list[tuple[Part, ...]] | None = None  # None = not inside a group
    current: list[Part] = parts

    def close_alternative():
        nonlocal current
        assert group_alts is not None
        # a lone E inside a group is the empty alternative
        if len(current) == 1 and isinstance(current[0], Literal) and current[0].text == "E":
            group_alts.append(())
        else:
            group_alts.append(tuple(current))
        current = []

    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
        elif ch == "@":
            end = source.find("@", i + 1)
            if end < 0:
                raise ScriptSyntaxError(f"unterminated placeholder in {source!r}")
            name = source[i + 1:end].strip()
            if not name:
                raise ScriptSyntaxError(f"empty placeholder in {source!r}")
            component = name.startswith(ENT_PREFIX)
            if component:
                name = name[len(ENT_PREFIX):].strip()
            current.append(Placeholder(name, component))
            i = end + 1
        elif ch == "(":
            if group_alts is not None:
                raise ScriptSyntaxError(f"nested alternation in {source!r}")
            group_alts = []
            current = []
            i += 1
        elif ch == "+":
            if group_alts is None:
                current.append(Literal("+"))
            else:
                close_alternative()
            i += 1
        elif ch == ")":
            if group_alts is None:
                raise ScriptSyntaxError(f"unmatched ')' in {source!r}")
            close_alternative()
            parts.append(Group(tuple(group_alts)))
            group_alts = None
            current = parts
            i += 1
        else:
            j = i
            while j < n and not source[j].isspace() and source[j] not in _SPECIAL:
                j += 1
            word = source[i:j]
            current.append(Symbolic(word) if word in SYMBOLIC_TOKENS else Literal(word))
            i = j
    if group_alts is not None:
        raise ScriptSyntaxError(f"unterminated '(' in {source!r}")
    return Template(tuple(parts))


def expand_alternation(template: Template) -> list[Template]:
    """Flatten alternation groups into the cartesian product of alternatives.

    Output order is lexicographic over group alternative order, leftmost
    group most significant; output size is the product of the group sizes.
    """
    slots = [p.alternatives if isinstance(p, Group) else None for p in template.parts]
    groups = [alts for alts in slots if alts is not None]
    if not groups:
        return [template]
    flats: list[Template] = []
    for combo in itertools.product(*groups):
        chosen = iter(combo)
        parts: list[Part] = []
        for part, alts in zip(template.parts, slots):
            if alts is None:
                parts.append(part)
            else:
                parts.extend(next(chosen))
        flats.append(Template(tuple(parts)))
    return flats


def pairs(parts) -> tuple:
    """The ``(kind, text)`` pair of each part, a group's alternatives mapped too."""
    out = []
    for part in parts:
        if isinstance(part, Literal):
            out.append((LITERAL, part.text))
        elif isinstance(part, Symbolic):
            out.append((SYMBOL, part.text))
        elif isinstance(part, Placeholder):
            out.append((COMPONENT if part.component else COLUMN, part.name))
        else:
            out.append((GROUP, tuple(pairs(alt) for alt in part.alternatives)))
    return tuple(out)
